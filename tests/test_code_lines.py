"""tools/code_lines.py, the LOC figure of every change: on a small module
whose lines are counted by hand."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Lines marked "# code" are the code lines; a marker is itself a comment.
FIXTURE = '''"""Module docstring
over two lines."""

import math  # code

# A comment line.


class Shape:  # code
    """Class docstring."""

    sides = 4  # code

    def area(self, a,  # code
             b):  # code
        """Method docstring
        over two lines.
        """
        return math.prod(  # code
            (a,  # code
             b),  # code
        )  # code


async def label():  # code
    \'\'\'Async docstring.\'\'\'
    text = """a string that is  # code
    not a docstring"""  # code
    "a bare string after the first statement"  # code
    return text  # code
'''
MARKED = [i for i, line in enumerate(FIXTURE.splitlines(), start=1) if line.endswith("# code")]


def test_fixture_counts_its_marked_lines():
    assert len(MARKED) == 14
    assert code_lines.code_lines(FIXTURE) == len(MARKED)


def test_docstring_lines_are_the_module_class_and_function_docstrings():
    import ast

    assert code_lines.docstring_lines(ast.parse(FIXTURE)) == {1, 2, 10, 16, 17, 18, 26}


def test_main_prints_each_module_sorted_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text(FIXTURE)
    (tmp_path / "z.py").write_text("# only a comment\n\nx = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    14  pkg/b.py",
        "     1  z.py",
        "    15  total",
    ]
