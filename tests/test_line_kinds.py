"""Tests of tools/line_kinds.py on a synthetic module."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import line_kinds  # noqa: E402

MODULE = '''"""Module docstring.

With a blank line inside it.
"""

import os  # a trailing comment leaves the line code

# a comment line
TEXT = """a code string

with a blank line"""


def f():
    """One-line docstring."""
    # a comment line in a function
    "a bare string statement"
    return (1,
            2)
'''


def test_each_line_is_counted_once_as_its_kind():
    counts = line_kinds.line_kinds(MODULE)
    assert counts == {"code": 6, "docstring": 6, "comment": 2, "blank": 5}
    assert sum(counts.values()) == len(MODULE.splitlines())


def test_main_prints_a_total_row(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert line_kinds.main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["lines", *line_kinds.KINDS, "file"]
    assert rows[-1].split() == ["22", "7", "6", "3", "6", "total"]
