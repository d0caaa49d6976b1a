"""The lattice index's boundary objects, built from one bulk check.

``lattice_index`` and ``enumerate_parthood_distributions`` check every
member row and atom table in one numpy pass and then build the objects
without a constructor call each.  The references here are the public
constructors: every object must equal, and hash like, its rebuild, and a
corrupted row must raise what a per-row constructor loop raises first.
The boundary constructors themselves take exact types only.
"""

import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidlattice import (
    Antichain,
    BaseConcept,
    ParthoodDistribution,
    SourceSet,
    ValidationError,
    domain_for_concept,
    enumerate_antichains,
    enumerate_parthood_distributions,
)
from pidlattice.concepts import domain_positions
from pidlattice.lattices import _antichains_from_rows, _parthood_from_tables, lattice_index

ALL_N = [1, 2, 3, 4, 5]


@pytest.mark.parametrize("n", ALL_N)
def test_index_antichains_equal_their_constructor_rebuilds(n):
    index = lattice_index(n)
    pad = 1 << n
    for i, (alpha, row) in enumerate(zip(index.antichains, index.members.tolist())):
        masks = [s for s in row if s != pad]
        rebuilt = Antichain(n, tuple(SourceSet(n, s) for s in masks))
        assert alpha == rebuilt and hash(alpha) == hash(rebuilt)
        assert vars(alpha) == vars(rebuilt)
        assert all(type(s) is int for s in alpha.masks) and type(alpha.n) is int
        assert index.position[Antichain.of(n, masks)] == i
        assert pickle.loads(pickle.dumps(alpha)) == alpha


@pytest.mark.parametrize("n", ALL_N)
def test_index_parthood_distributions_equal_their_constructor_rebuilds(n):
    atoms = enumerate_parthood_distributions(n)
    assert [f.table for f in atoms] == lattice_index(n).atom_tables.tolist()
    for f in atoms:
        rebuilt = ParthoodDistribution(n, f.table)
        assert f == rebuilt and hash(f) == hash(rebuilt)
        assert vars(f) == vars(rebuilt)
        assert type(f.table) is int and type(f.n) is int


def test_the_hash_is_taken_over_the_masks():
    alpha = Antichain.of(3, [1, 6])
    assert hash(alpha) == hash((3, (1, 6)))
    assert hash(lattice_index(3).antichains[lattice_index(3).position[alpha]]) == hash((3, (1, 6)))


def first_constructor_fault(n: int, members: np.ndarray) -> str | None:
    """The message a per-row constructor loop raises first, or None."""
    pad = 1 << n
    for row in members.tolist():
        while row and row[-1] == pad:
            row.pop()
        try:
            Antichain(n, tuple(SourceSet(n, s) for s in row))
        except ValidationError as exc:
            return str(exc)
    return None


def corrupted(n: int, edits) -> np.ndarray:
    members = lattice_index(n).members.copy()
    for (row, slot), value in edits:
        members[row, slot] = value
    return members


def row_of(n: int, *masks: int) -> int:
    return lattice_index(n).position[Antichain.of(n, masks)]


# Antichains at n = 3 are rows of width 3; the pad is 8.  An edit names
# a row by the masks of its antichain, a slot and the value written there.
ORDER = "collections must be in strict canonical order"
MEMBER_FAULTS = [
    # swapped members: {2}{1}
    ([((1, 2), 0, 2), ((1, 2), 1, 1)], ORDER),
    # a repeated member: {1}{1}
    ([((1, 2), 1, 1)], ORDER),
    # {1}{2} becomes {1}{1,2}: in order, but comparable
    ([((1, 2), 1, 3)], "collections {1} and {1,2} are comparable"),
    # {1}{2}{3} becomes {1}{2}{1,2}: the second pair is comparable
    ([((1, 2, 4), 2, 3)], "collections {1} and {1,2} are comparable"),
    # the empty collection beside another one
    ([((1, 2), 0, 0)], "collections {} and {2} are comparable"),
    # a pad before a member: {1}{2} becomes pad, {1}
    ([((1, 2), 0, 8), ((1, 2), 1, 1)], "collection bits 8 out of range for n=3"),
    # values that are no collection and no pad
    ([((1,), 0, 9)], "collection bits 9 out of range for n=3"),
    ([((1,), 0, -1)], "collection bits -1 out of range for n=3"),
    # two bad rows: the earlier one is named
    ([((1, 2, 4), 2, 3), ((1, 2), 0, 2), ((1, 2), 1, 1)], ORDER),
]


@pytest.mark.parametrize("edits,message", MEMBER_FAULTS)
def test_the_bulk_row_check_raises_the_constructors_first_fault(edits, message):
    members = corrupted(3, [((row_of(3, *masks), slot), value) for masks, slot, value in edits])
    assert first_constructor_fault(3, members) == message
    with pytest.raises(ValidationError) as caught:
        _antichains_from_rows(3, members)
    assert str(caught.value) == message


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_bulk_row_check_matches_a_constructor_loop(data):
    n = data.draw(st.sampled_from([2, 3, 4]))
    members = lattice_index(n).members
    cells = st.tuples(st.integers(0, members.shape[0] - 1), st.integers(0, members.shape[1] - 1))
    edits = data.draw(st.lists(st.tuples(cells, st.integers(-2, (1 << n) + 2)), max_size=3))
    members = corrupted(n, edits)
    expected = first_constructor_fault(n, members)
    if expected is None:
        pad = 1 << n
        built = _antichains_from_rows(n, members)
        assert [a.masks for a in built] == [tuple(s for s in r if s != pad) for r in members.tolist()]
    else:
        with pytest.raises(ValidationError) as caught:
            _antichains_from_rows(n, members)
        assert str(caught.value) == expected


def tables_with(n: int, at: int, table: int) -> np.ndarray:
    tables = lattice_index(n).atom_tables.copy()
    tables[at] = table
    return tables


@pytest.mark.parametrize(
    "table,message",
    [
        (0b1000_0010, "parthood distribution must be monotone"),  # {1}, not {1,2}
        (0b1000_1010, "parthood distribution must be monotone"),  # {1} and {1,2}, not {1,3}
        (0b1000_0001, "value at the empty collection must be 0"),
        (0b0110_0000, "value at the full collection must be 1"),
        (0b1_1000_0000, "truth table out of range"),
    ],
)
def test_the_bulk_table_check_raises_the_constructors_fault(table, message):
    with pytest.raises(ValidationError, match=message):
        ParthoodDistribution(3, table)
    at = len(lattice_index(3).atom_tables) // 2
    with pytest.raises(ValidationError) as caught:
        _parthood_from_tables(3, tables_with(3, at, table))
    assert str(caught.value) == message


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_bulk_table_check_matches_a_constructor_loop(data):
    n = data.draw(st.sampled_from([1, 2, 3, 4, 5]))
    tables = lattice_index(n).atom_tables.copy()
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(tables) - 1))
        tables[at] ^= np.uint64(1) << np.uint64(data.draw(st.integers(0, min(63, (1 << n) + 1))))
    expected = None
    for t in tables.tolist():
        try:
            ParthoodDistribution(n, t)
        except ValidationError as exc:
            expected = str(exc)
            break
    if expected is None:
        assert [f.table for f in _parthood_from_tables(n, tables)] == tables.tolist()
    else:
        with pytest.raises(ValidationError) as caught:
            _parthood_from_tables(n, tables)
        assert str(caught.value) == expected


# sha256 of {concept tag: [labels of domain_for_concept(concept, n)]}, recorded
# while each domain antichain was still built by the public constructor.
DOMAIN_SHA256 = {
    1: "0703e5f1ec9ff329d00c7e5558ac4b26fd2efbf31b8347c889f80831dd5273d1",
    2: "ef9d9eced6d1d691ca031652c050c24c3aa6b5c7721dba27b6a1bd23494d48d2",
    3: "7d453d5922bee423b7a2dbd2f5f71b69ffb697fc8f4e523ef46714da633172f4",
    4: "760964f097f38fd0f3a1e492b8c40bbc00fc91e2e7eab074cd3e464186436db7",
    5: "b44fa8a89ec676e38dcf4ccda006b50bfca097a350b52dcf7256672315dbbeae",
}


@pytest.mark.parametrize("n", ALL_N)
def test_domains_are_unchanged(n):
    doc = {c.tag: [a.label() for a in domain_for_concept(c, n)] for c in BaseConcept}
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == DOMAIN_SHA256[n]
    antichains = enumerate_antichains(n)
    for c in BaseConcept:
        domain = domain_for_concept(c, n)
        assert type(domain) is tuple
        assert all(a is antichains[i] for a, i in zip(domain, domain_positions(c, n).tolist()))


@pytest.mark.parametrize(
    "make",
    [
        lambda: SourceSet(True, 1),
        lambda: SourceSet(2.0, 1),
        lambda: SourceSet(2, True),
        lambda: SourceSet(2, 1.0),
        lambda: SourceSet(2, np.int64(1)),
        lambda: SourceSet(np.int64(2), 1),
        lambda: Antichain(2.0, ()),
        lambda: Antichain(True, ()),
        lambda: Antichain(0, ()),
        lambda: Antichain(None, 2),
        lambda: Antichain(2, [SourceSet(2, 1)]),
        lambda: Antichain(2, (1,)),
        lambda: Antichain(2, None),
        lambda: Antichain(2, (SourceSet(2, 1), "x")),
        lambda: Antichain.of(2, [np.int64(1)]),
        lambda: ParthoodDistribution(True, 2),
        lambda: ParthoodDistribution(2.0, 8),
        lambda: ParthoodDistribution(2, 8.0),
        lambda: ParthoodDistribution(2, np.int64(8)),
        lambda: ParthoodDistribution(None, 8),
        lambda: SourceSet.from_indices(2, ["a"]),
        lambda: SourceSet.from_indices(2, 5),
        lambda: SourceSet.from_indices(2, [True]),
        lambda: SourceSet.from_indices(2.0, [1]),
        lambda: Antichain.of(2, 5),
    ],
)
def test_boundary_constructors_take_exact_types(make):
    with pytest.raises(ValidationError):
        make()


def test_typed_constructor_messages():
    with pytest.raises(ValidationError, match="^source indices must be an iterable, got int$"):
        SourceSet.from_indices(2, 5)
    with pytest.raises(ValidationError, match="^source index 'a' out of range 1..2$"):
        SourceSet.from_indices(2, ["a"])
    with pytest.raises(ValidationError, match="^antichain members must be an iterable, got int$"):
        Antichain.of(2, 5)
    with pytest.raises(ValidationError, match="source count must be a positive int, got 2.0"):
        Antichain(2.0, ())
    with pytest.raises(ValidationError, match="collections must be a tuple, got list"):
        Antichain(2, [SourceSet(2, 1)])
    with pytest.raises(ValidationError, match="collections must be SourceSets, got int"):
        Antichain(2, (1,))
    with pytest.raises(ValidationError, match=r"collection bits True out of range for n=2"):
        SourceSet(2, True)
    with pytest.raises(ValidationError, match="source count must be a positive int, got True"):
        ParthoodDistribution(True, 2)
