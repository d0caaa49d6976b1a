"""Module boundaries, read off the syntax trees of the source files.

``pidlattice.oracle`` recomputes results from raw definitions, so it is an
independent reference only while it imports nothing from the package, and
the package must not come to depend on it.  And the conversion from atom
and measure mappings to index-order vectors has one home,
``concepts.index_vector``: no other module opens a view.  Likewise the
concept algebra has one home, ``concepts.py``: no other module picks a
route by comparing against a concept member; it asks
``concepts.concept_facts``.  And every tolerance is a named module
constant, listed in README "Tolerances": no tiny float literal hides in
the code.
"""

import ast
from pathlib import Path

import pidlattice
from pidlattice import BaseConcept

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


def is_concept_member(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "BaseConcept"
        and node.attr in BaseConcept.__members__
    )


def concept_comparisons(source: str) -> list[str]:
    """Each ``BaseConcept.<MEMBER>`` the source compares against, directly or in a
    tuple, list or set operand (``c is BaseConcept.UNION``, ``c in (BaseConcept.UNIQUE, d)``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                seq = isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                for item in operand.elts if seq else [operand]:
                    if is_concept_member(item):
                        found.append(f"line {node.lineno}: BaseConcept.{item.attr}")
    return found


def test_only_concepts_compares_against_concept_members():
    assert len(concept_comparisons("c in (BaseConcept.UNIQUE, d) or BaseConcept.UNION == c")) == 2
    assert not concept_comparisons("a in members(BaseConcept.UNION)")  # not a comparison against it
    for path in PRODUCTION:
        if path != CONCEPTS:
            found = concept_comparisons(path.read_text(encoding="utf-8"))
            assert not found, f"{path.name} compares against {found}; use concepts.concept_facts"


def unnamed_tiny_floats(source: str) -> list[str]:
    """Each float literal with ``0 < |x| < 1e-6`` that is not the value of a
    module-level UPPER_CASE constant."""
    tree = ast.parse(source)
    named = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if all(isinstance(t, ast.Name) and t.id.isupper() for t in targets):
                named |= {id(sub) for sub in ast.walk(node.value)}
    return [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0 < abs(node.value) < 1e-6
        and id(node) not in named
    ]


def test_tolerances_are_named_constants():
    assert unnamed_tiny_floats("TOL = 1e-9\nCLAMP: float = -1e-12\nx = 1e-3") == []
    assert len(unnamed_tiny_floats("tol = 1e-9\ndef f(v):\n    return v > -1e-12")) == 2
    for path in PRODUCTION:  # oracle.py is exempt: it must not import the package's names
        found = unnamed_tiny_floats(path.read_text(encoding="utf-8"))
        assert not found, f"{path.name} holds unnamed tolerances {found}; name them"
