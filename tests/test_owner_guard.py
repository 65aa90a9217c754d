"""Phi has one owner, intertwiner, and compute reads nothing from verify.

The first guard parses every module of the package but intertwiner and
lists each place that names the class PhiTable in code, in any spelling
(`PhiTable(...)`, `intertwiner.PhiTable(...)`, an alias from an import, a
reference passed on); a re-export by import is not a use.  So every other
module reads Phi through intertwiner.shared_phi or phi_blocks.

The second guard parses cli and lists every verify name that
compute_records and _records read: a name bound to the verify module (or
read through it) or a name imported from it, at module level or inside a
function.  The default heights live in presets and the shared Phi tables
in intertwiner, so compute needs neither.  Each guard has a test that
shows it fires.
"""

import ast
import textwrap
from pathlib import Path

import pytest

import qpbw

SRC = Path(qpbw.__file__).parent

COMPUTE_FUNCTIONS = ("compute_records", "_records")


def phi_table_uses(source):
    """Lines where the source names PhiTable outside an import."""
    tree = ast.parse(source)
    names = {"PhiTable"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname for a in node.names
                         if a.name == "PhiTable" and a.asname)
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id in names)
                  or (isinstance(node, ast.Attribute)
                      and node.attr == "PhiTable"))


def _verify_bindings(tree):
    """(names bound to the verify module, names imported from it)."""
    modules, members = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if not parts or parts[0] != "qpbw":
                    continue
                parts = parts[1:]
            for alias in node.names:
                if parts == ["verify"]:
                    members.add(alias.asname or alias.name)
                elif not parts and alias.name == "verify":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.name == "qpbw.verify" and alias.asname)
    return modules, members


def verify_reads(source, functions=COMPUTE_FUNCTIONS):
    """(function, name) for every verify name the named functions read."""
    tree = ast.parse(source)
    modules, members = _verify_bindings(tree)
    found = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and fn.name in functions):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in modules | members:
                found.append((fn.name, node.id))
            elif isinstance(node, ast.Attribute) and node.attr == "verify":
                found.append((fn.name, ast.unparse(node)))
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "intertwiner.py"))
def test_phi_table_is_made_only_in_intertwiner(path):
    assert phi_table_uses((SRC / path).read_text()) == [], \
        f"{path}: read Phi through intertwiner.shared_phi or phi_blocks"


def test_compute_reads_no_verify_name():
    source = (SRC / "cli.py").read_text()
    defined = {node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)}
    assert set(COMPUTE_FUNCTIONS) <= defined
    assert verify_reads(source) == []
    # the suites are verify's, so run_suite does read it
    assert verify_reads(source, ("run_suite",))


@pytest.mark.parametrize("snippet", [
    pytest.param("tab = PhiTable(name)", id="call"),
    pytest.param("""
    from .intertwiner import PhiTable as Table
    tab = Table("A2")
    """, id="alias"),
    pytest.param("""
    from . import intertwiner
    tab = intertwiner.PhiTable("A2")
    """, id="attribute"),
    pytest.param("shared = lru_cache(maxsize=None)(PhiTable)",
                 id="reference"),
])
def test_phi_table_guard_fires(snippet):
    assert phi_table_uses(textwrap.dedent(snippet))


@pytest.mark.parametrize("snippet", [
    pytest.param("""
    from . import pbw, verify
    def compute_records(algebra):
        return verify.DEFAULT_HEIGHTS[algebra]
    """, id="module-attribute"),
    pytest.param("""
    from .verify import shared_phi
    def _records(name, weight):
        return shared_phi(name).block(weight)
    """, id="imported-name"),
    pytest.param("""
    def compute_records(algebra):
        from .verify import DEFAULT_HEIGHTS as heights
        return heights[algebra]
    """, id="inside-a-function"),
    pytest.param("""
    import qpbw.verify as v
    def compute_records(algebra):
        return v.shared_phi(algebra)
    """, id="absolute-alias"),
    pytest.param("""
    import qpbw.verify
    def compute_records(algebra):
        return qpbw.verify.shared_phi(algebra)
    """, id="absolute-path"),
    pytest.param("""
    from qpbw.verify import DEFAULT_HEIGHTS
    def compute_records(algebra):
        return DEFAULT_HEIGHTS[algebra]
    """, id="absolute-from-module"),
])
def test_verify_guard_fires(snippet):
    assert verify_reads(textwrap.dedent(snippet))
