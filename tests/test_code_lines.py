"""The code-line counter, tools/code_lines.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SNIPPET = '''"""A module docstring
over two lines."""

# a comment
import math

TEXT = """a string that is not a docstring,
over two lines"""


def area(r):
    """A function docstring."""
    return math.pi * (
        r * r
    )
'''


def test_code_lines_count_the_lines_on_which_a_token_starts():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # import, TEXT's first line, def, and the call over three lines; the
    # docstrings, the comment and the blank lines count nothing
    assert tool.code_lines(SNIPPET) == 6
