import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = '''"""A module docstring
over two lines."""

import os  # a comment after code

# a comment line
X = [
    1,
    2,
]


class A:
    """A class docstring."""

    def f(self):
        """A function docstring
        over two lines."""
        return """a string that is
not a docstring"""
'''


def _loc():
    spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import 1, the list 4, class 1, def 1, the return and its string 2
    assert _loc().code_lines(SAMPLE) == 9


def test_loc_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("# only a comment\n\nY = 1\n")
    assert _loc().main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["9", str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        ["10", "total"],
    ]
