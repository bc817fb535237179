"""tools/unreached.py: the statements of a source that never ran."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))  # it imports tier1's helpers
spec = importlib.util.spec_from_file_location("unreached", TOOLS / "unreached.py")
unreached = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unreached)

SOURCE = '''"""A module docstring is no statement."""
import os


def f(x):
    """Nor is a function's."""
    global seen
    if x:
        return (
            1
        )
    try:
        y = 1
    except ValueError:
        y = 2
    else:
        y = 3
    return y


class C:
    pass
'''


def test_lists_each_statement_none_of_whose_own_lines_ran():
    ran = {2, 5, 8, 12, 13, 18, 21, 22}
    assert unreached.unreached(SOURCE, ran) == [
        (9, "return ("), (15, "y = 2"), (17, "y = 3"),
    ]


def test_a_statement_ran_when_any_of_its_own_lines_did():
    # a continuation line of the return; the try's except header, which is
    # its own line and not its handler's
    ran = {2, 5, 8, 10, 14, 15, 18, 21, 22}
    assert unreached.unreached(SOURCE, ran) == [(13, "y = 1"), (17, "y = 3")]


def test_nothing_ran_lists_every_statement_but_docstrings_and_global():
    assert [line for line, _ in unreached.unreached(SOURCE, set())] == [
        2, 5, 8, 9, 12, 13, 15, 17, 18, 21, 22,
    ]
