"""Every check is exact and every coefficient an integer.

The guard parses each module of the package and fails if it finds any of:

* an import of the `fractions` module (coefficients are ints, and a
  scalar denominator stays in a RationalFunction's den);
* a definition or a read of `eval_at` (values are never taken at sample
  points of q);
* a parameter named `mode`, `point` or `exact_occ` on a function or
  lambda of `verify` or `cli` (the switches of the sampled checks), or
  `key_prop_entries` or `serre_entries` (the bounds of the ket sweeps
  that the proofs for all occupations replaced).

A test shows that each finding fires.
"""

import ast
import textwrap
from pathlib import Path

import pytest

import qpbw

SRC = Path(qpbw.__file__).parent

SWITCHES = {"mode", "point", "exact_occ", "key_prop_entries",
            "serre_entries"}
SWITCHED = {"verify.py", "cli.py"}


def inexact_constructs(source, switches=True):
    """(where, what) for every construct of a sampled or Fraction path."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(("import", alias.name) for alias in node.names
                         if alias.name.split(".")[0] == "fractions")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] \
                    == "fractions":
                found.append(("import", node.module))
            found.extend(("import", alias.name) for alias in node.names
                         if alias.name == "eval_at")
        elif isinstance(node, ast.Attribute) and node.attr == "eval_at":
            found.append(("attribute", node.attr))
        elif isinstance(node, ast.Name) and node.id == "eval_at":
            found.append(("name", node.id))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            name = getattr(node, "name", "lambda")
            if name == "eval_at":
                found.append(("def", name))
            if switches:
                a = node.args
                found.extend(
                    (name, arg.arg) for arg in (a.posonlyargs + a.args
                                                + a.kwonlyargs
                                                + [a.vararg, a.kwarg])
                    if arg is not None and arg.arg in SWITCHES)
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_exact_integer_only(path):
    found = inexact_constructs((SRC / path).read_text(), path in SWITCHED)
    assert not found, f"{path} keeps an inexact path: {found}"


@pytest.mark.parametrize("snippet", [
    pytest.param("from fractions import Fraction", id="from-import"),
    pytest.param("import fractions", id="import"),
    pytest.param("def f():\n    import fractions as fr\n", id="inside-a-function"),
    pytest.param("""
    class P:
        def eval_at(self, q0):
            pass
    """, id="define-eval_at"),
    pytest.param("y = x.eval_at(2)", id="read-eval_at"),
    pytest.param("from .qfield import eval_at", id="import-eval_at"),
    pytest.param("def verify_tetrahedron(max_occ=6, mode='exact'): pass",
                 id="mode-switch"),
    pytest.param("def f(name, *, point=None): pass", id="point-switch"),
    pytest.param("g = lambda exact_occ: exact_occ", id="lambda-switch"),
    pytest.param("def verify_properties(heights=None, key_prop_entries=4): "
                 "pass", id="key-prop-entries-switch"),
    pytest.param("def f(*, serre_entries=3): pass",
                 id="serre-entries-switch"),
])
def test_exact_guard_fires(snippet):
    assert inexact_constructs(textwrap.dedent(snippet))
