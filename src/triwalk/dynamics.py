"""Three-mass walking model: continuous dynamics, ZMP output map, discretization.

The model stacks three jerk-driven point masses (stance leg, torso, swing leg),
each restricted to a horizontal plane of constant height.  Per axis the state is

    x = [c1, c1', c1'', c2, c2', c2'', c3, c3', c3'']

(position, velocity, acceleration of each mass) and the input is the jerk of
each mass.  The sagittal and frontal axes are decoupled and identical, so a
single StateSpace serves both.  Outputs are stance-mass position, swing-mass
position and the zero-moment point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

N_STATES = 9
N_INPUTS = 3
N_OUTPUTS = 3

POS_SLOTS = (0, 3, 6)
VEL_SLOTS = (1, 4, 7)
ACC_SLOTS = (2, 5, 8)

OUT_STANCE = 0
OUT_SWING = 1
OUT_ZMP = 2


@dataclass(frozen=True)
class ThreeMassParams:
    """Masses, mass heights, foot geometry and gravity of the walking model.

    ``M`` may be omitted, in which case it is filled in as ``m1 + m2 + m3``.
    """

    m1: float
    m2: float
    m3: float
    z1: float
    z2: float
    z3: float
    g: float = 9.81
    foot_length: float = 0.2
    foot_width: float = 0.1
    zmp_safety_scale: float = 0.9
    com_height: float = 1.0
    M: float = field(default=math.nan)

    def __post_init__(self) -> None:
        for name in ("m1", "m2", "m3", "z1", "z2", "z3", "g",
                     "foot_length", "foot_width", "com_height"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not 0.0 < self.zmp_safety_scale <= 1.0:
            raise ValueError("zmp_safety_scale must be in (0, 1]")
        total = self.m1 + self.m2 + self.m3
        if math.isnan(self.M):
            object.__setattr__(self, "M", total)
        elif abs(self.M - total) > 1e-12:
            raise ValueError("M must equal m1 + m2 + m3")

    @classmethod
    def nominal(cls) -> "ThreeMassParams":
        """Parameter set used by the bundled simulation scenarios."""
        return cls(m1=15.0, m2=50.0, m3=15.0, z1=0.5, z2=1.2, z3=0.5)

    @property
    def omega(self) -> float:
        """Natural frequency of the pendulum model at the configured COM height."""
        return math.sqrt(self.g / self.com_height)

    def masses(self) -> np.ndarray:
        return np.array([self.m1, self.m2, self.m3])

    def heights(self) -> np.ndarray:
        return np.array([self.z1, self.z2, self.z3])


@dataclass(frozen=True, eq=False)
class StateSpace:
    """State-space matrices, continuous (``ts is None``) or discrete.

    Two models compare and hash by value (the shapes and entries of A, B
    and C, and ``ts``), so models built apart from equal parameters share
    the controller and observer matrices cached for them.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    ts: float | None = None

    @property
    def is_discrete(self) -> bool:
        return self.ts is not None

    def _value(self) -> tuple:
        return (self.ts, *((np.shape(m), tuple(np.ravel(m).tolist()))
                           for m in (self.A, self.B, self.C)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateSpace):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def make_state(positions, velocities=(0.0, 0.0, 0.0), accelerations=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Assemble a 9-entry axis state from per-mass position/velocity/acceleration."""
    x = np.empty(N_STATES)
    x[list(POS_SLOTS)] = positions
    x[list(VEL_SLOTS)] = velocities
    x[list(ACC_SLOTS)] = accelerations
    if not np.all(np.isfinite(x)):
        raise ValueError("axis state entries must be finite")
    return x


def zmp_output_row(params: ThreeMassParams) -> np.ndarray:
    """Row vector mapping the 9-state to the zero-moment point."""
    row = np.zeros(N_STATES)
    for mass, height, pos, acc in zip(params.masses(), params.heights(), POS_SLOTS, ACC_SLOTS):
        row[pos] = mass / params.M
        row[acc] = -mass * height / (params.M * params.g)
    return row


def build_continuous(params: ThreeMassParams) -> StateSpace:
    """Continuous jerk-driven model: three integrator chains plus the output map."""
    A = np.zeros((N_STATES, N_STATES))
    for base in POS_SLOTS:
        A[base, base + 1] = 1.0
        A[base + 1, base + 2] = 1.0
    B = np.zeros((N_STATES, N_INPUTS))
    for i, row in enumerate(ACC_SLOTS):
        B[row, i] = 1.0
    C = np.zeros((N_OUTPUTS, N_STATES))
    C[OUT_STANCE, POS_SLOTS[0]] = 1.0
    C[OUT_SWING, POS_SLOTS[2]] = 1.0
    C[OUT_ZMP] = zmp_output_row(params)
    return StateSpace(_freeze(A), _freeze(B), _freeze(C), ts=None)


def discretize(ss: StateSpace, ts: float) -> StateSpace:
    """Exact zero-order-hold discretization of the jerk-integrator model.

    The continuous A is nilpotent (block integrator chains), so the matrix
    exponentials reduce to the closed polynomial form: each diagonal block of
    Ad is ``[[1, ts, ts^2/2], [0, 1, ts], [0, 0, 1]]`` and each input column of
    Bd is ``[ts^3/6, ts^2/2, ts]`` within its block.
    """
    if ss.is_discrete:
        raise ValueError("state space is already discrete")
    if not ts > 0.0:
        raise ValueError("sample time must be positive")
    Ad = np.eye(N_STATES)
    Bd = np.zeros((N_STATES, N_INPUTS))
    for i, base in enumerate(POS_SLOTS):
        Ad[base, base + 1] = ts
        Ad[base, base + 2] = ts * ts / 2.0
        Ad[base + 1, base + 2] = ts
        Bd[base, i] = ts ** 3 / 6.0
        Bd[base + 1, i] = ts * ts / 2.0
        Bd[base + 2, i] = ts
    return StateSpace(_freeze(Ad), _freeze(Bd), ss.C, ts=ts)


def zmp(params: ThreeMassParams, positions, accelerations) -> float:
    """Zero-moment point of the three masses (vertical accelerations neglected)."""
    c = np.asarray(positions, dtype=float)
    a = np.asarray(accelerations, dtype=float)
    if c.shape != (3,) or a.shape != (3,):
        raise ValueError("positions and accelerations must each hold three values")
    m = params.masses()
    z = params.heights()
    return float((np.sum(m * c * params.g) - np.sum(m * z * a)) / (params.M * params.g))


def step_plant(ss: StateSpace, x: np.ndarray, u: np.ndarray,
               extra_accel: np.ndarray | None = None) -> np.ndarray:
    """Advance the discrete plant one cycle and inject optional disturbance.

    ``x`` (..., 9) and ``u`` (..., 3) may carry a leading axis dimension; each
    row steps bitwise as a one-axis call.  ``extra_accel``, shaped like ``u``,
    is added to the acceleration entry of each mass after the nominal update
    (force disturbances enter as F/m during impact windows).
    """
    if not ss.is_discrete:
        raise ValueError("step_plant requires a discrete state space")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape[-1:] != (N_STATES,) or u.shape != x.shape[:-1] + (N_INPUTS,):
        raise ValueError("state must have 9 entries and input 3 entries per axis")
    x_next = np.matvec(ss.A, x) + np.matvec(ss.B, u)
    if extra_accel is not None:
        extra = np.asarray(extra_accel, dtype=float)
        if extra.shape != u.shape:
            raise ValueError("extra_accel must have the shape of the input")
        x_next[..., list(ACC_SLOTS)] += extra
    return x_next
