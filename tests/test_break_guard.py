"""Every verify check runs through one scan, so verify.py holds no break.

A check is a stream of cases read by verify._scan, which stops at the first
witness; a hand-rolled loop that breaks out of its own scan (or a chain of
`if witness: break` over nested loops) is what the guard keeps out.  The
second test shows the guard fires on a nested break.
"""

import ast
import textwrap
from pathlib import Path

import qpbw

SRC = Path(qpbw.__file__).parent


def break_sites(source):
    """Lines of every break statement in the source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Break))


def test_verify_has_no_break():
    assert break_sites((SRC / "verify.py").read_text()) == [], \
        "verify.py: yield the cases to verify._scan instead"


def test_guard_catches_a_nested_break():
    snippet = """
    def f(blocks):
        witness = None
        for block in blocks:
            for entry in block:
                if entry:
                    witness = entry
                    break
            if witness:
                break
        return witness
    """
    assert break_sites(textwrap.dedent(snippet)) == [8, 10]
