"""Source-line counts of a Python package.

Usage:

    python3 tools/sloc.py DIR

Prints, for every ``*.py`` file under DIR, its source lines and then their
total.  A source line is a non-blank line that holds more than a comment;
every non-blank line of a docstring or other string literal counts.
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

_NOT_SOURCE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER}


def source_lines(text: str) -> int:
    """Source lines of one module's text."""
    lines = text.splitlines()
    counted = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_SOURCE:
            counted.update(n for n in range(tok.start[0], tok.end[0] + 1)
                           if lines[n - 1].strip())
    return len(counted)


def count_tree(root: Path) -> dict[str, int]:
    """Source lines per ``*.py`` file under ``root``, keyed by relative path."""
    return {path.relative_to(root).as_posix(): source_lines(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path, help="package directory to count")
    counts = count_tree(parser.parse_args(argv).dir)
    width = max([len(name) for name in counts] + [len("total")])
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")


if __name__ == "__main__":
    main()
