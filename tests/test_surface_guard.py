"""Every function, class and method in src/qpbw has a caller outside tests.

The guard collects the module-level functions and classes of each module of
the package, and the methods of those classes, and fails on any whose name
nothing references.  A reference is a name, an attribute or an imported
name in the package itself, in demos/ or in the bench harness (its files
other than the tests), plus each dotted path the harness's tracer patches
by name (its `*_TARGETS` tables, e.g. "PhiTable.block"); the def
statement itself is no reference.  The public names in qpbw.__all__,
dunders and cli.main, the console entry point, are exempt.  The second
test shows the guard fires on a planted unreferenced def.
"""

import ast
import textwrap
from pathlib import Path

import qpbw

SRC = Path(qpbw.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
EXEMPT = set(qpbw.__all__) | {"cli.main"}


def definitions(module, source):
    """[(qualified name, name)] of the module-level functions and classes
    and their methods, dunders left out."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        found.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            found += [(f"{module}.{node.name}.{m.name}", m.name)
                      for m in node.body
                      if isinstance(m, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))]
    return [(qual, name) for qual, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def references(source):
    """Every name the source reads: names, attributes, imported names, and
    the dotted parts of the strings in its `*_TARGETS` tables."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id.endswith("_TARGETS")
                for t in node.targets):
            refs |= {part for const in ast.walk(node.value)
                     if isinstance(const, ast.Constant)
                     and isinstance(const.value, str)
                     for part in const.value.split(".")}
    return refs


def unreferenced(modules, callers):
    """Qualified names of the definitions in modules {name: source} that no
    source in callers references and that are not exempt."""
    refs = set().union(*map(references, callers))
    return sorted(qual for module, source in modules.items()
                  for qual, name in definitions(module, source)
                  if name not in refs and name not in EXEMPT
                  and qual not in EXEMPT)


def caller_sources():
    paths = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(p for p in (ROOT / "bench").glob("*.py")
               if not p.name.startswith("test_"))]
    return [p.read_text() for p in sorted(paths)]


def test_every_definition_has_a_caller():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced(modules, caller_sources()) == [], \
        "only tests call these: delete them or move them into tests/"


def test_guard_catches_an_unreferenced_def():
    planted = textwrap.dedent("""
    def used(x):
        return helper(x)

    def helper(x):
        return x

    def orphan(x):
        return x

    class Table:
        def __init__(self):
            self.rows = used(0)

        def stale(self):
            return self.rows

    def main():
        return Table()
    """)
    modules = {"cli": planted}
    assert unreferenced(modules, [planted]) == ["cli.Table.stale",
                                                "cli.orphan"]
    modules = {"mod": planted}
    assert unreferenced(modules, [planted]) == ["mod.Table.stale",
                                                "mod.main", "mod.orphan"]
