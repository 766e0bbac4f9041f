import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # code with a comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
        that is not a docstring"""
        return text

    x = (
        1,
    )
'''


def test_counts_code_outside_docstrings_and_comments():
    # import, class, def, the two-line string, return, and the three-line
    # tuple: 1 + 1 + 1 + 2 + 1 + 3
    assert code_lines.code_lines(_SOURCE) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text('"""doc"""\ny = 2\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "1", "b.py", "2", "total", "3"]
