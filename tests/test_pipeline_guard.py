"""The Phi and gamma pipelines share no code above qfield, and each works
in one normalisation.

The first guard parses the pipeline modules and lists every package module
each one imports, at module level or inside a function, in any spelling
(`from .pbw import ...`, `from . import pbw`, `import qpbw.pbw`, ...).
The Fock side (fock, intertwiner) must not import pbw, and pbw must not
import the Fock side; only verify reads both.

The second guard keeps a second normalisation from coming back: no
function in the pipeline modules takes a `tilde`, `bare` or `divided`
switch, and none of them reads `d_norm`, the factor between bare and
scaled kets.  Each guard has a test that shows it fires.
"""

import ast
import textwrap
from pathlib import Path

import pytest

import qpbw

SRC = Path(qpbw.__file__).parent

SWITCHES = {"tilde", "bare", "divided"}

FORBIDDEN = {
    "fock.py": {"pbw"},
    "intertwiner.py": {"pbw"},
    "pbw.py": {"fock", "intertwiner"},
}


def package_imports(source):
    """Names of the qpbw modules a source imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qpbw" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if not parts or parts[0] != "qpbw":
                    continue
                parts = parts[1:]
            if parts:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("path", sorted(FORBIDDEN))
def test_pipelines_import_each_other_nowhere(path):
    crossed = package_imports((SRC / path).read_text()) & FORBIDDEN[path]
    assert not crossed, f"{path} imports {sorted(crossed)}"


@pytest.mark.parametrize("snippet,module", [
    pytest.param("from .pbw import transition_block", "pbw",
                 id="relative-from-module"),
    pytest.param("""
    def f(name, weight):
        from .pbw import transition_block
        return transition_block(name, weight)
    """, "pbw", id="inside-a-function"),
    pytest.param("from . import fock, pbw", "pbw", id="relative-from-package"),
    pytest.param("import qpbw.intertwiner as it", "intertwiner",
                 id="absolute-import"),
    pytest.param("from qpbw import fock", "fock", id="absolute-from-package"),
    pytest.param("from qpbw.fock import xi_matrix", "fock",
                 id="absolute-from-module"),
])
def test_guard_catches_each_spelling(snippet, module):
    assert module in package_imports(textwrap.dedent(snippet))


def normalisation_switches(source):
    """(function, parameter) for every parameter named like a basis switch,
    and ("import", name) for every import or attribute read of d_norm."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            for arg in (a.posonlyargs + a.args + a.kwonlyargs
                        + [a.vararg, a.kwarg]):
                if arg is not None and arg.arg in SWITCHES:
                    found.append((getattr(node, "name", "lambda"), arg.arg))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend(("import", alias.name) for alias in node.names
                         if alias.name.split(".")[-1] == "d_norm")
        elif isinstance(node, ast.Attribute) and node.attr == "d_norm":
            found.append(("import", node.attr))
    return found


@pytest.mark.parametrize("path", sorted(FORBIDDEN))
def test_one_normalisation(path):
    found = normalisation_switches((SRC / path).read_text())
    assert not found, f"{path} has a second normalisation: {found}"


@pytest.mark.parametrize("snippet", [
    pytest.param("def apply_op(name, word, op, vec, tilde=False): pass",
                 id="keyword-switch"),
    pytest.param("def f(*, bare): pass", id="keyword-only-switch"),
    pytest.param("""
    class T:
        def mul(self, v, divided=True):
            pass
    """, id="method-switch"),
    pytest.param("g = lambda v, tilde: v", id="lambda-switch"),
    pytest.param("from .qfield import LaurentPoly, d_norm", id="import"),
    pytest.param("from . import qfield\nx = qfield.d_norm(2, 1)",
                 id="attribute"),
])
def test_switch_guard_fires(snippet):
    assert normalisation_switches(textwrap.dedent(snippet))
