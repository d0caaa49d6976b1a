"""Module boundaries, read off the syntax trees of the source files.

``pidlattice.oracle`` recomputes results from raw definitions, so it is an
independent reference only while it imports nothing from the package, and
the package must not come to depend on it.  And the conversion from atom
and measure mappings to index-order vectors has one home,
``concepts.index_vector``: no other module opens a view.
"""

import ast
from pathlib import Path

import pidlattice

PACKAGE = Path(pidlattice.__file__).parent
ORACLE = PACKAGE / "oracle.py"
CONCEPTS = PACKAGE / "concepts.py"
VIEW_NAMES = {"_IndexView", "_view_places"}  # and a view's ``.vector``
PRODUCTION = sorted(p for p in PACKAGE.glob("*.py") if p != ORACLE)


def imported_names(path: Path) -> set[str]:
    """Every module and module attribute a file imports, relative imports resolved."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # every source file sits at the top of the package
                module = f"pidlattice.{module}".rstrip(".")
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def within(name: str, module: str) -> bool:
    return name == module or name.startswith(module + ".")


def test_production_modules_do_not_import_the_oracle():
    assert PRODUCTION and "pidlattice.lattices" in imported_names(PACKAGE / "engine.py")
    for path in PRODUCTION:
        found = [name for name in imported_names(path) if within(name, "pidlattice.oracle")]
        assert not found, f"{path.name} imports {found}"


def test_oracle_imports_nothing_from_the_package():
    found = [name for name in imported_names(ORACLE) if within(name, "pidlattice")]
    assert not found, f"oracle.py imports {found}"


def view_internals_used(path: Path) -> set[str]:
    """The ``.vector`` attributes and view names a file uses, imports included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            found |= {node.attr} & (VIEW_NAMES | {"vector"})
        elif isinstance(node, ast.Name):
            found |= {node.id} & VIEW_NAMES
        elif isinstance(node, ast.alias):
            found |= {node.name} & VIEW_NAMES
    return found


def test_only_concepts_opens_a_view():
    assert view_internals_used(CONCEPTS) == VIEW_NAMES | {"vector"}
    for path in PRODUCTION:
        if path != CONCEPTS:
            found = view_internals_used(path)
            assert not found, f"{path.name} reads {sorted(found)}; use concepts.index_vector"
