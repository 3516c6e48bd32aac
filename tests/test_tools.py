"""The repository's tools."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring,
over two lines."""

import math  # a comment after code counts as code


# a comment-only line
def f(x):
    """A function docstring."""

    total = (x +
             math.pi)
    label = "not a docstring"
    """Nor is this string,
    which spans two lines."""
    return total, label


class C:
    """A class docstring."""
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # import, def, the two lines of total, label, the two lines of the
    # later string, return and class: 9 code lines
    assert _tool("code_lines").code_lines(SOURCE) == 9
