"""tools/code_lines.py counts the non-blank lines outside comments and
docstrings, module by module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """A docstring."""
    s = """a string that is
    not a docstring"""
    return (x +
            len(s))


class C:
    """A docstring."""; y = 1

    def g(self):
        # only a comment, then a docstring

        """Still g's docstring: a comment is no statement."""
'''


def test_a_code_line_is_outside_comments_and_docstrings():
    # import, def f, the two lines of s, the two of the return, class C, the
    # line that holds code after a docstring, and def g, but not g's string,
    # which opens its body after a comment
    assert code_lines.code_lines(SNIPPET) == 9


def test_the_tool_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "9"], ["b.py", "2"], ["total", "11"]]
