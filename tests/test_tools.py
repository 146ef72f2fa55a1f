"""tools/code_lines.py: what counts as a code line, and its exit codes."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment


def f(x):
    """Function docstring."""
    y = (x +  # a trailing comment
         1)
    return y


class C:
    """Class docstring."""

    s = """not a docstring"""
'''


def test_docstrings_comments_and_blank_lines_are_not_counted(tmp_path, capsys):
    # def f, y = (x + / 1), return y, class C, s = ...
    assert code_lines.code_lines(SOURCE) == 6
    src = tmp_path / "m.py"
    src.write_text(SOURCE, encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "6\n"


def test_a_missing_path_exits_2_with_one_line(tmp_path, capsys):
    assert code_lines.main([str(tmp_path / "missing")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "missing" in err


def test_the_default_is_the_repository_src(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert code_lines.main([]) == 0
    want = code_lines.count(TOOL.parent.parent / "src")
    assert capsys.readouterr().out == f"{want}\n" and want > 0
