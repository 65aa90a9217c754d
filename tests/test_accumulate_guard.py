"""Every sparse sum outside qfield goes through qfield.sum_products.

The guard parses each module of the package except qfield and looks for
the hand-rolled accumulate idiom: a dict read with `.get(...)`, added to,
and written back (or dropped with `.pop(..., None)`), or a `d[k] += ...`
on a dict subscript.  The second test shows the guard fires on each form
the package used to carry.
"""

import ast
import textwrap
from pathlib import Path

import pytest

import qpbw

SRC = Path(qpbw.__file__).parent


def _method_call(node, name):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name)


def accumulate_sites(source):
    """[(function, line)] of hand-rolled accumulate loops in the source."""
    sites = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, got = set(), {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Subscript):
                        stored.add(ast.unparse(t.value))
                    elif isinstance(t, ast.Name) and _method_call(node.value, "get"):
                        got[t.id] = ast.unparse(node.value.func.value)
            elif (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
                  and isinstance(node.target, ast.Subscript)):
                sites.append((fn.name, node.lineno))
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                for side in (node.left, node.right):
                    if _method_call(side, "get"):
                        target = ast.unparse(side.func.value)
                    elif isinstance(side, ast.Name) and side.id in got:
                        target = got[side.id]
                    else:
                        continue
                    if target in stored:
                        sites.append((fn.name, node.lineno))
            elif (_method_call(node, "pop") and len(node.args) == 2
                  and isinstance(node.args[1], ast.Constant)
                  and node.args[1].value is None
                  and ast.unparse(node.func.value) in stored):
                sites.append((fn.name, node.lineno))
    return sorted(set(sites))


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "qfield.py"))
def test_no_hand_rolled_accumulate(path):
    assert accumulate_sites((SRC / path).read_text()) == [], \
        f"{path}: use qfield.sum_products"


@pytest.mark.parametrize("snippet", [
    """
    def f(vec):
        out = {}
        for k, v in vec.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s.num.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return out
    """,
    """
    def f(vec, c):
        out = {}
        for k, v in vec.items():
            cur = out.get(k)
            out[k] = v * c if cur is None else cur + v * c
        return out
    """,
    """
    def f(vec):
        out = {}
        for k, v in vec.items():
            out[k] = out.get(k, ZERO) + v
        return out
    """,
    """
    def f(vec):
        out = collections.defaultdict(int)
        for k, v in vec.items():
            out[k] += v
        return out
    """,
])
def test_guard_catches_the_idiom(snippet):
    assert accumulate_sites(textwrap.dedent(snippet))
