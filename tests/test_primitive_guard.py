"""The coercion rf, the constants ONE and ZERO and the q-numbers qpow,
qint, qbracket, qbinom and poch_run live in qfield alone.

The guard parses each module of the package except qfield and fails if it
binds one of these names other than by import: a def or class of that
name, a parameter, or any assignment target (plain, augmented, annotated,
unpacked, a loop or `with` target).  Importing them from qfield, or from a
module that re-exports them, is how the other modules use them.  The
second test shows the guard fires on each form, and lets an import pass.
"""

import ast
import textwrap
from pathlib import Path

import pytest

import qpbw

SRC = Path(qpbw.__file__).parent

PRIMITIVES = {"rf", "ONE", "ZERO",
              "qpow", "qint", "qbracket", "qbinom", "poch_run"}


def primitive_bindings(source):
    """[(name, line)] of every binding of a qfield primitive, imports
    excepted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.arg):
            name = node.arg
        else:
            continue
        if name in PRIMITIVES:
            found.append((name, node.lineno))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "qfield.py"))
def test_primitives_defined_only_in_qfield(path):
    assert primitive_bindings((SRC / path).read_text()) == [], \
        f"{path}: import rf, ONE, ZERO and the q-numbers from qfield"


@pytest.mark.parametrize("snippet,found", [
    pytest.param("""
    def rf(x):
        return x
    """, [("rf", 2)], id="def"),
    pytest.param("ONE = rf(1)\nZERO = rf(0)\n", [("ONE", 1), ("ZERO", 2)],
                 id="assign"),
    pytest.param("ONE, ZERO = 1, 0", [("ONE", 1), ("ZERO", 1)],
                 id="unpack"),
    pytest.param("def f(rf=None):\n    pass\n", [("rf", 1)], id="parameter"),
    pytest.param("from .qfield import ONE, ZERO, rf", [], id="import-allowed"),
    pytest.param("""
    @lru_cache(maxsize=None)
    def qpow(n):
        return n
    """, [("qpow", 3)], id="def-q-number"),
    pytest.param("qint = qbracket = qbinom = poch_run = None",
                 [("poch_run", 1), ("qbinom", 1), ("qbracket", 1),
                  ("qint", 1)], id="assign-q-numbers"),
    pytest.param("from .qfield import poch_run, qbinom, qbracket, qint, qpow",
                 [], id="import-q-numbers-allowed"),
])
def test_primitive_guard_fires(snippet, found):
    assert primitive_bindings(textwrap.dedent(snippet)) == found
