"""The order of a lattice's nodes, read one way.

``lattices._order_tables`` reads the order tables of any node set in one
gather, and ``lattices._linear_extension`` puts nodes in a linear
extension of their tables' order and packs their keys, as uint64 where
every key fits and as Python ints otherwise.  ``build_lattice`` and
``moebius_invert`` both go through them.  The former per-node table read
and the former covers algorithm, sorted by descending popcount, are kept
here as references; an exact ``Fraction`` inversion checks the wide
lattices a ``ConceptLattice`` takes above ``MAX_SOURCES``.
"""

import ast
import itertools
from fractions import Fraction

import numpy as np
import pytest

from pidlattice import (
    Antichain,
    ConceptLattice,
    UnsupportedStructureError,
    ValidationError,
    build_lattice,
    enumerate_antichains,
    moebius_invert,
)
from pidlattice.lattices import _linear_extension, _order_tables, lattice_index, table_mask
from test_module_boundaries import PACKAGE

KINDS = ["redundancy", "synergy"]
DIRECTIONS = ["up", "down"]


def per_node_table(kind: str, alpha: Antichain) -> int:
    """The former per-node read: the up-closure, or the complement of the down-closure."""
    index = lattice_index(alpha.n)
    at = index.position[alpha]
    if kind == "redundancy":
        return int(index.up[at])
    return table_mask(alpha.n) ^ int(index.down[at])


def popcount_lattice(nodes, kind: str, direction: str) -> tuple[str, tuple]:
    """The former covers algorithm: nodes by descending popcount of the (flipped) table, ties by position."""
    n = nodes[0].n
    tables = [per_node_table(kind, a) for a in nodes]
    flip = table_mask(n) if direction == "down" else 0
    keys = [t ^ flip for t in tables]
    order = sorted(range(len(keys)), key=lambda i: -keys[i].bit_count())
    arr = np.array([keys[i] for i in order], dtype=np.uint64)
    upper = []
    for k, i in enumerate(order):
        rel = (arr[k:] & np.uint64(table_mask(n) ^ keys[i])) == 0
        upper.append(int.from_bytes(np.packbits(rel, bitorder="little").tobytes(), "little") << k)
    covers = [()] * len(tables)
    for k, i in enumerate(order):
        ups = []
        rest = upper[k] ^ (1 << k)
        while rest:
            m = (rest & -rest).bit_length() - 1
            ups.append(order[m])
            rest &= ~upper[m]
        covers[i] = tuple(sorted(ups))
    covered = {j for ups in covers for j in ups}
    bottoms = [i for i in range(len(covers)) if i not in covered]
    tops = [i for i, ups in enumerate(covers) if not ups]
    if len(tops) == 1 and len(bottoms) == 1:
        return "full-lattice", tuple(covers)
    if len(tops) == 1:
        return "join-semi-lattice", tuple(covers)
    if len(bottoms) == 1:
        return "meet-semi-lattice", tuple(covers)
    raise UnsupportedStructureError("node set has neither a unique top nor a unique bottom")


def outcome(call):
    try:
        return call()
    except UnsupportedStructureError as exc:
        return type(exc), str(exc)


def random_nodes(n: int, kind: str, seed: int) -> tuple[Antichain, ...]:
    """A seeded node subset in a seeded order, holding the bottom of the kind's order iff seed is odd
    and its top iff seed % 4 >= 2."""
    rng = np.random.default_rng(seed)
    pool = enumerate_antichains(n)
    size = int(rng.integers(2, min(len(pool) // 4, 300) + 1))
    chosen = set(rng.choice(len(pool), size, replace=False).tolist())
    for table, wanted in ((table_mask(n), seed % 2), (0, seed // 2 % 2)):  # the bottom's table, the top's
        extremum = {i for i, a in enumerate(pool) if per_node_table(kind, a) == table}
        chosen = chosen | extremum if wanted else chosen - extremum
    return tuple(pool[i] for i in rng.permutation(sorted(chosen)).tolist())


RANDOM_CASES = list(itertools.product(range(3, 6), KINDS, DIRECTIONS, range(8)))


@pytest.mark.parametrize("n, kind, direction, seed", RANDOM_CASES, ids=str)
def test_covers_equal_the_popcount_algorithm_on_random_node_sets(n, kind, direction, seed):
    nodes = random_nodes(n, kind, 100 * n + seed)
    want = outcome(lambda: popcount_lattice(nodes, kind, direction))
    got = outcome(lambda: build_lattice(nodes, kind, direction))
    if isinstance(got, ConceptLattice):
        assert got.tables == tuple(per_node_table(kind, a) for a in nodes)
        got = got.kind, got.covers
    assert got == want


def test_the_random_node_sets_reach_every_outcome():
    kinds = {
        outcome(lambda: popcount_lattice(random_nodes(n, kind, 100 * n + seed), kind, direction))[0]
        for n, kind, direction, seed in RANDOM_CASES
    }
    assert kinds == {"full-lattice", "join-semi-lattice", "meet-semi-lattice", UnsupportedStructureError}


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("kind", KINDS)
def test_one_gather_reads_the_per_node_tables(n, kind):
    nodes = enumerate_antichains(n)
    assert _order_tables(kind, nodes) == [per_node_table(kind, a) for a in nodes]


# ------------------------------------------------------- wide lattices

def chain(n: int, length: int) -> tuple[Antichain, ...]:
    """{1} < {1,2} < ... in the redundancy order: each node one collection, the next a superset."""
    return tuple(Antichain.of(n, [(1 << k) - 1]) for k in range(1, length + 1))


def up_closure(n: int, mask: int) -> int:
    return sum(1 << s for s in range(1 << n) if s & mask == mask)


def exact_inversion(lattice: ConceptLattice, values: dict, direction: str) -> dict:
    """Atoms by Fraction arithmetic: each node's value minus the atoms it sums, solved bottom-up."""
    nodes = lattice.nodes
    count = len(nodes)
    below = {  # the nodes whose atoms node i's value sums, i itself excluded
        i: [j for j in range(count) if j != i and (
            lattice.leq_by_index(j, i) if direction == "down-sum" else lattice.leq_by_index(i, j)
        )]
        for i in range(count)
    }
    atoms: dict[int, Fraction] = {}
    for i in sorted(range(count), key=lambda i: len(below[i])):
        atoms[i] = Fraction(values[nodes[i]]) - sum((atoms[j] for j in below[i]), Fraction(0))
    return {nodes[i]: atoms[i] for i in range(count)}


WIDE = list(itertools.product([6, 7, 8], [2, 3], ["down-sum", "up-sum"]))


@pytest.mark.parametrize("n, length, direction", WIDE, ids=str)
def test_moebius_inverts_a_lattice_above_max_sources_exactly(n, length, direction):
    nodes = chain(n, length)
    tables = tuple(up_closure(n, (1 << k) - 1) for k in range(1, length + 1))
    covers = tuple((i + 1,) for i in range(length - 1)) + ((),)
    lattice = ConceptLattice(nodes, "redundancy", "up", "full-lattice", tables, covers)
    rng = np.random.default_rng(n * length)
    values = dict(zip(nodes, (rng.integers(-2**20, 2**20, length) / 64).tolist()))  # dyadic: every sum is exact
    got = moebius_invert(lattice, values, direction)
    want = exact_inversion(lattice, values, direction)
    assert {a: Fraction(v) for a, v in got.items()} == want


def test_keys_wider_than_64_bits_are_packed_as_python_ints():
    wide = [1 << 127, (1 << 128) - 1]
    order, keys = _linear_extension(wide, supersets=True)
    assert keys.dtype == object and keys.tolist() == [0, (1 << 127) - 1] and order == [1, 0]
    order, keys = _linear_extension([3, 1], supersets=False)
    assert keys.dtype == np.uint64 and keys.tolist() == [1, 3] and order == [1, 0]


# ----------------------------------------------------- equal tables

SHARED_TABLE = (
    (Antichain.of(2, [1]), Antichain.of(2, [2]), Antichain.of(2, [3])),
    (0b1110, 0b1110, 0b1000),
    ((2,), (2,), ()),
)


@pytest.mark.parametrize("swap", [False, True], ids=["as-given", "first-two-swapped"])
def test_a_lattice_refuses_two_nodes_that_share_a_table(swap):
    nodes, tables, covers = SHARED_TABLE
    if swap:
        nodes = (nodes[1], nodes[0], nodes[2])
    with pytest.raises(ValidationError) as caught:
        ConceptLattice(nodes, "redundancy", "up", "full-lattice", tables, covers)
    first, second = (a.label() for a in nodes[:2])
    assert str(caught.value) == f"lattice nodes {first!r} and {second!r} share a table"


# ------------------------------------------------------ source checks

def functions() -> dict[str, ast.FunctionDef]:
    tree = ast.parse((PACKAGE / "lattices.py").read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def is_call(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def popcount_sorts(tree: ast.AST) -> list[int]:
    """The line of each ``sorted(range(len(...)), key=...)`` whose key calls ``bit_count``: node indices
    sorted by popcount."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if is_call(node, "sorted")
        and node.args
        and is_call(node.args[0], "range")
        and node.args[0].args
        and is_call(node.args[0].args[0], "len")
        and any(
            isinstance(sub, ast.Attribute) and sub.attr == "bit_count"
            for kw in node.keywords
            if kw.arg == "key"
            for sub in ast.walk(kw.value)
        )
    ]


def key_packings(tree: ast.AST) -> list[int]:
    """The line of each ``np.array([keys[i] for i in order], ...)``: the keys packed in node order."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "array"
        and node.args
        and isinstance(node.args[0], ast.ListComp)
        and getattr(getattr(node.args[0].elt, "value", None), "id", None) == "keys"
        and any(getattr(gen.iter, "id", None) == "order" for gen in node.args[0].generators)
    ]


def test_the_order_checks_see_what_they_look_for():
    parent = (
        "order = sorted(range(len(keys)), key=lambda i: -keys[i].bit_count())\n"
        "arr = np.array([keys[i] for i in order], dtype=np.uint64)\n"
        "other = sorted(xs, key=len)\n"
        "canonical = sorted(range(1 << n), key=lambda s: (s.bit_count(), s))\n"
        "vals = np.array([v[i] for i in range(3)])\n"
        "sorted_values = np.array([float(values[i]) for i in order])\n"
    )
    tree = ast.parse(parent)
    assert popcount_sorts(tree) == [1]
    assert key_packings(tree) == [2]


def test_the_order_tables_are_read_in_one_batched_function():
    found = functions()
    assert "_order_table" not in found and "_order_tables" in found


def test_the_linear_extension_and_the_key_packing_each_appear_once():
    found = functions()
    tree = ast.parse((PACKAGE / "lattices.py").read_text(encoding="utf-8"))
    assert len(popcount_sorts(tree)) == 1 and len(key_packings(tree)) == 1
    assert popcount_sorts(found["_linear_extension"]) and key_packings(found["_linear_extension"])
    for name in ("build_lattice", "_invert_cumulative"):
        calls = [getattr(node.func, "id", None) for node in ast.walk(found[name]) if isinstance(node, ast.Call)]
        assert "_linear_extension" in calls, name
        assert popcount_sorts(found[name]) == key_packings(found[name]) == [], name
