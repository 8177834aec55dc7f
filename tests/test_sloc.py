"""The counts of ``tools/sloc.py`` on a hand-made module."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import sloc  # noqa: E402

SAMPLE = '''"""Module docstring.

# Not a comment: this line belongs to the docstring.
"""
# A comment line.

import math   # a trailing comment does not hide code


def area(r):
    """Area of a circle."""
    text = f"""radius
    {r}"""
        # An indented comment.
    return math.pi * r ** 2 + len(
        text)
'''
# Counted: docstring lines 1, 3 and 4; import; def; one-line docstring; the
# two lines of the f-string assignment; the two lines of the return.
SAMPLE_LINES = 10


def test_counts_code_and_string_lines_but_not_comments_or_blanks(tmp_path):
    assert sloc.source_lines(SAMPLE) == SAMPLE_LINES
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "sample.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "empty.py").write_text("# only a comment\n\n")
    assert sloc.count_tree(tmp_path / "pkg") == {"empty.py": 0, "sample.py": SAMPLE_LINES}


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("z = 3\n")
    sloc.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "2"], ["sub/b.py", "1"], ["total", "3"]]
