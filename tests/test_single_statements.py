"""Rules the package states once, and the results that pin each statement.

``lattices._invert_cumulative`` solves both cumulative sums with one
inclusion scan, superset sums running over the complemented tables; the
former two-branch solver, kept here, is its reference to the bit.  The
canonical collection order is ``lattices.canonical_collections``, the MI
table is ``distributions.mi_table``, an MI key is labelled by
``concepts.domain_labels``, the refusal of an antichain outside a
labeling is ``lattices.labeling_refusal`` and ``fileio._POW10`` is the
one table of powers of ten.  The refusal of an antichain outside a
concept's domain is ``concepts._check_in_domain``, which atoms mark a
collection is ``LatticeIndex.marks``, and the noun a view's values go by
is computed by ``concepts.index_vector`` alone.  The table of collection
labels is ``lattices.collection_labels``, and the rule that joins them into
an antichain label, ``∅-chain`` for none, is ``lattices.antichain_label``.
The source checks below find no second statement of any of them.
"""

import ast
import json
from typing import Callable

import numpy as np
import pytest

from pidlattice import (
    Antichain,
    BaseConcept,
    DomainError,
    SourceSet,
    concept_lattice,
    decompose,
    export_result,
    load_result,
    moebius_invert,
    parthood_from_antichain,
    parthood_from_synergy_antichain,
    random_joint,
)
from pidlattice.concepts import concept_facts
from pidlattice.engine import _first_reached_at
from pidlattice.lattices import _invert_cumulative, canonical_collections, lattice_index
from test_module_boundaries import PACKAGE, PRODUCTION, imported_names


def two_branch_invert(tables, values, supersets):
    """The former solver: one inclusion test per sum direction, each in its own order."""
    order = sorted(
        range(len(tables)),
        key=lambda i: (-tables[i].bit_count() if supersets else tables[i].bit_count(), tables[i]),
    )
    sorted_tables = np.array([tables[i] for i in order], dtype=np.uint64)
    width = max((t.bit_length() for t in tables), default=1)
    full = (1 << width) - 1
    not_tables = sorted_tables ^ np.uint64(full)
    sorted_values = np.array([float(values[i]) for i in order], dtype=np.float64)
    pi = np.zeros(len(tables), dtype=np.float64)
    for k in range(len(tables)):
        t = int(sorted_tables[k])
        if supersets:
            inside = (np.uint64(t) & not_tables[:k]) == 0
        else:
            inside = (sorted_tables[:k] & np.uint64(full & ~t)) == 0
        pi[k] = sorted_values[k] - float(pi[:k][inside].sum())
    out = [0.0] * len(tables)
    for rank, i in enumerate(order):
        out[i] = float(pi[rank])
    return out


def seeded_values(seed: int, size: int) -> list[float]:
    """Values over six decades, so that summing atoms in another order changes bits."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)).tolist()


def hexes(values) -> list[str]:
    return [float.hex(v) for v in values]


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("supersets", [True, False], ids=["superset-sums", "subset-sums"])
def test_one_scan_inverts_both_sums_as_the_two_branches_did(n, supersets):
    tables = lattice_index(n).atom_tables.tolist()
    values = seeded_values(n, len(tables))
    got = _invert_cumulative(tables, values, supersets)
    assert hexes(got) == hexes(two_branch_invert(tables, values, supersets))


FULL_LATTICES = [
    (concept, n)
    for n in range(1, 5)
    for concept in BaseConcept
    if concept_facts(concept).nested and concept_lattice(concept, n).kind == "full-lattice"
]


@pytest.mark.parametrize("concept, n", FULL_LATTICES, ids=lambda v: getattr(v, "tag", v))
@pytest.mark.parametrize("direction", ["down-sum", "up-sum"])
def test_moebius_inversion_is_bit_identical_on_every_full_concept_lattice(concept, n, direction):
    lattice = concept_lattice(concept, n)
    values = dict(zip(lattice.nodes, seeded_values(10 * n + len(lattice.nodes), len(lattice.nodes))))
    supersets = (direction == "down-sum") == (lattice.direction == "up")
    want = two_branch_invert(lattice.tables, list(values.values()), supersets)
    got = moebius_invert(lattice, values, direction)
    assert hexes(got[a] for a in lattice.nodes) == hexes(want)


def test_the_full_lattices_cover_both_orders_and_both_directions():
    lattices = [concept_lattice(concept, n) for concept, n in FULL_LATTICES]
    assert {(lat.order_kind, lat.direction) for lat in lattices} == {
        ("redundancy", "up"), ("redundancy", "down"), ("synergy", "up"), ("synergy", "down")
    }


@pytest.mark.parametrize("n", range(1, 6))
def test_the_canonical_collections_are_the_source_sets_in_sort_key_order(n):
    sets = sorted((SourceSet(n, bits) for bits in range(1 << n)), key=SourceSet.sort_key)
    assert canonical_collections(n) == tuple(s.bits for s in sets)


@pytest.mark.parametrize("n", range(1, 6))
def test_an_exported_mi_table_lists_the_collections_in_canonical_order(n):
    result = decompose(random_joint(n, n), BaseConcept.REDUNDANCY)
    sets = sorted((SourceSet(n, bits) for bits in range(1 << n)), key=SourceSet.sort_key)
    mi = export_result(result)["mi"]
    assert list(mi) == [str(s) for s in sets]
    assert list(mi.values()) == [result.mi[s.bits] for s in sets]


def refusal(label: str, extrema: str) -> tuple:
    return DomainError, f"antichain {label!r} does not label a parthood distribution by {extrema}"


def raised(call) -> tuple:
    with pytest.raises(DomainError) as caught:
        call()
    return type(caught.value), str(caught.value)


def test_each_caller_refuses_with_its_labelings_text(tmp_path, xor_dist):
    access, blockage = "minimal 1-collections", "maximal 0-collections"
    assert raised(lambda: parthood_from_antichain(Antichain(2, ()))) == refusal("∅-chain", access)
    assert raised(lambda: parthood_from_synergy_antichain(Antichain.of(2, [3]))) == refusal("{1,2}", blockage)
    doc = export_result(decompose(xor_dist, BaseConcept.REDUNDANCY))
    doc["atoms"][0]["alpha"] = "{}"
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert raised(lambda: load_result(path)) == refusal("{}", access)


def shifted_selector(union: int, tables: np.ndarray) -> np.ndarray:
    """The former proper-synergy selector, which shifted every atom table by the union."""
    strict_down = sum(1 << s for s in range(union) if s & ~union == 0)
    reached = (tables >> np.uint64(union)) & np.uint64(1) == 1
    return reached & (tables & np.uint64(strict_down) == 0)


@pytest.mark.parametrize("n", range(1, 6))
def test_the_marks_select_the_atoms_the_shifted_tables_selected(n):
    index = lattice_index(n)
    for union in range(1 << n):
        got = _first_reached_at(union, index)
        assert got.dtype == np.bool_
        assert np.array_equal(got, shifted_selector(union, index.atom_tables)), union


# ---------------------------------------------------------- source checks

def trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PRODUCTION}


def canonical_sort_keys(tree: ast.AST) -> list[int]:
    """The line of each ``(x.bit_count(), x)``: cardinality, then value, of the same x."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and len(node.elts) == 2
        and isinstance(node.elts[0], ast.Call)
        and isinstance(node.elts[0].func, ast.Attribute)
        and node.elts[0].func.attr == "bit_count"
        and ast.dump(node.elts[0].func.value) == ast.dump(node.elts[1])
    ]


def is_power_of_ten(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 10
    )


def power_of_ten_tables(tree: ast.AST) -> list[int]:
    """The line of each table of powers of ten: a comprehension of ``10**k``, or ``10`` to an array."""
    found = []
    for node in ast.walk(tree):
        comprehension = isinstance(node, (ast.ListComp, ast.GeneratorExp)) and is_power_of_ten(node.elt)
        array = is_power_of_ten(node) and isinstance(node.right, ast.Call)
        if comprehension or array:
            found.append(node.lineno)
    return found


def calls_of(tree: ast.AST, name: str) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)
    ]


def test_the_source_checks_see_what_they_look_for():
    assert canonical_sort_keys(ast.parse("f = lambda s: (s.bit_count(), s)\n(t[i].bit_count(), t)")) == [1]
    assert power_of_ten_tables(ast.parse("a = [10**k for k in r]\nb = 10 ** np.arange(3)\nc = v // 10**p")) == [1, 2]
    assert calls_of(ast.parse("x = d.mutual_information(a, b)\ny = mutual_information"), "mutual_information") == [1]


def test_the_canonical_collection_order_is_stated_once():
    found = {name: lines for name, tree in trees().items() if (lines := canonical_sort_keys(tree))}
    assert list(found) == ["lattices.py"] and len(found["lattices.py"]) == 1, found


def test_the_labeling_refusal_is_stated_once():
    text = "does not label a parthood distribution"
    found = {path.name: path.read_text(encoding="utf-8").count(text) for path in PRODUCTION}
    assert {name: count for name, count in found.items() if count} == {"lattices.py": 1}


def test_one_table_holds_the_powers_of_ten():
    found = {name: lines for name, tree in trees().items() if (lines := power_of_ten_tables(tree))}
    assert list(found) == ["fileio.py"] and len(found["fileio.py"]) == 1, found
    assert "_POW10_U64" not in (PACKAGE / "fileio.py").read_text(encoding="utf-8")


def test_engine_labels_mi_keys_through_the_domain_labels():
    assert "pidlattice.lattices.collection_label" not in imported_names(PACKAGE / "engine.py")
    assert "pidlattice.concepts.domain_labels" in imported_names(PACKAGE / "engine.py")


def test_the_reference_measure_reads_the_mi_table():
    tree = ast.parse((PACKAGE / "concepts.py").read_text(encoding="utf-8"))
    assert calls_of(tree, "mutual_information") == []
    assert calls_of(tree, "mi_table")


def shifts_of_tables(tree: ast.AST) -> list[int]:
    """The line of each ``x >> k`` whose left side reads a truth table."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.RShift) and "table" in ast.unparse(node.left)
    ]


def test_the_shift_check_sees_what_it_looks_for():
    text = "a = (tables >> np.uint64(u)) & 1\nb = (index.atom_tables >> s) & 1\nc = bits >> i\nd = table << 1"
    assert shifts_of_tables(ast.parse(text)) == [1, 2]


def test_only_the_lattice_module_reads_a_mark_off_a_truth_table():
    found = {name: lines for name, tree in trees().items() if (lines := shifts_of_tables(tree))}
    assert set(found) == {"lattices.py"}, found


def statements_of(text: str) -> dict[str, int]:
    """How many times each production module holds ``text``, for the modules that hold it."""
    found = {path.name: path.read_text(encoding="utf-8").count(text) for path in PRODUCTION}
    return {name: count for name, count in found.items() if count}


def test_the_concept_domain_refusal_is_stated_once():
    assert statements_of("outside the {concept.tag} domain") == {"concepts.py": 1}


def test_the_noun_of_a_views_values_is_stated_once():
    noun = '"atom" if concept is None else "MI" if concept is MI_KEYS else concept.tag'
    assert statements_of(noun) == {"concepts.py": 1}


def functions_where(tree: ast.AST, holds: Callable[[ast.AST], bool]) -> list[str]:
    """The name of each function, method included, that holds a node for which ``holds`` is true."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and any(holds(inner) for inner in ast.walk(node))
    ]


def maps_a_collection_label(node: ast.AST) -> bool:
    """A comprehension whose element calls ``collection_label``, or ``map(collection_label, ...)``."""
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return "collection_label" in calls_named(node.elt)
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "map"
        and getattr(next(iter(node.args), None), "id", None) == "collection_label"
    )


def calls_named(node: ast.AST) -> set[str]:
    return {getattr(call.func, "id", None) for call in ast.walk(node) if isinstance(call, ast.Call)}


def joins_to_the_empty_chain(node: ast.AST) -> bool:
    """A function body that both calls ``.join`` and names ``EMPTY_CHAIN_LABEL``: a label rule."""
    names = {inner.id for inner in ast.walk(node) if isinstance(inner, ast.Name)}
    return "EMPTY_CHAIN_LABEL" in names and any(
        isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "join" for call in ast.walk(node)
    )


def test_the_label_checks_see_what_they_look_for():
    text = (
        "def a(n):\n    return [collection_label(s) for s in range(n)]\n"
        "def b(n):\n    return tuple(map(collection_label, range(n)))\n"
        "def c(s):\n    return collection_label(s)\n"
        "class K:\n    def label(self):\n        if not self.masks:\n            return EMPTY_CHAIN_LABEL\n"
        "        return ''.join(collection_label(m) for m in self.masks)\n"
    )
    tree = ast.parse(text)
    assert functions_where(tree, maps_a_collection_label) == ["a", "b", "label"]
    label = next(node for node in ast.walk(tree) if getattr(node, "name", None) == "label")
    assert joins_to_the_empty_chain(label) and not joins_to_the_empty_chain(tree.body[0])


def functions_in_each_module(holds: Callable[[ast.AST], bool]) -> dict[str, list[str]]:
    return {name: found for name, tree in trees().items() if (found := functions_where(tree, holds))}


def test_the_collection_labels_are_mapped_once():
    assert functions_in_each_module(maps_a_collection_label) == {"lattices.py": ["collection_labels"]}
    assert "pidlattice.lattices.collection_label" not in imported_names(PACKAGE / "concepts.py")


def test_the_empty_chain_ends_a_join_once():
    assert functions_in_each_module(joins_to_the_empty_chain) == {"lattices.py": ["antichain_label"]}
