"""The code-line table of ``src/stefan`` is the counter's output.

A change to a module's code lines must update ``code_lines.json``
(``python tests/code_lines.py --write``), so its diff shows the change.
"""
import json

import code_lines


def test_code_lines_match_the_committed_table():
    with open(code_lines.TABLE, encoding="utf-8") as fh:
        assert code_lines.counts() == json.load(fh)


def test_counter_skips_blank_comment_and_docstring_lines():
    source = '''"""Module
docstring."""

import math  # a comment on a code line counts


class A:
    """Class docstring."""

    # a comment line does not count
    def f(self):
        """Function
        docstring."""
        s = """not a docstring,
# so this line counts"""
        return s
'''
    assert code_lines.count(source) == 6
