"""Antichain enumeration, labelings, orders, lattices, Moebius inversion."""

import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from pidlattice import (
    Antichain,
    BaseConcept,
    CapacityError,
    CompletenessError,
    ConceptLattice,
    DomainError,
    ParseError,
    ParthoodDistribution,
    SourceSet,
    UnsupportedStructureError,
    ValidationError,
    antichain_from_parthood,
    antichain_leq,
    build_lattice,
    collection_label,
    concept_lattice,
    enumerate_antichains,
    enumerate_parthood_distributions,
    in_access_domain,
    in_blockage_domain,
    lattice_to_dot,
    maximal_non_supersets,
    minimal_non_subsets,
    moebius_invert,
    order_leq,
    parse_antichain_label,
    parse_collection_label,
    parthood_from_antichain,
    parthood_from_synergy_antichain,
    parthood_leq,
    synergy_antichain_from_parthood,
)
from pidlattice.errors import shown
from pidlattice.lattices import (
    check_source_count,
    source_mask,
    table_mask,
)
from pidlattice.oracle import (
    brute_antichains,
    brute_monotone_tables,
    downward_closure,
    upward_closure,
)

FULL_CONCEPTS = (
    BaseConcept.REDUNDANCY,
    BaseConcept.WEAK_SYNERGY,
    BaseConcept.RESTRICTED,
    BaseConcept.REDUNDANCY_PARTNER,
)
SEMI_CONCEPTS = (
    BaseConcept.UNION,
    BaseConcept.VULNERABLE,
    BaseConcept.UNION_PARTNER,
    BaseConcept.VULNERABLE_PARTNER,
)


# ---------------------------------------------------------------- counting

@pytest.mark.parametrize("n,count", [(1, 3), (2, 6), (3, 20), (4, 168)])
def test_antichain_enumeration_matches_brute_force(n, count):
    ours = enumerate_antichains(n)
    assert len(ours) == count
    assert len(set(ours)) == count
    assert {frozenset(a.masks) for a in ours} == {frozenset(t) for t in brute_antichains(n)}


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 18), (4, 166)])
def test_parthood_counts(n, count):
    fs = enumerate_parthood_distributions(n)
    assert len(fs) == count
    assert len(set(fs)) == count


def test_counts_at_five_sources():
    assert len(enumerate_antichains(5)) == 7581
    assert len(enumerate_parthood_distributions(5)) == 7579


def test_enumeration_order_n2():
    labels = [a.label() for a in enumerate_antichains(2)]
    assert labels == ["∅-chain", "{}", "{1}", "{1}{2}", "{2}", "{1,2}"]


@pytest.mark.parametrize("n,count", [(1, 3), (2, 6), (3, 20), (4, 168), (5, 7581)])
def test_enumeration_is_strictly_increasing_in_canonical_order(n, count):
    """Distinct valid antichains, every one of them, in one order: the sequence is fixed."""
    rank = {s: r for r, s in enumerate(sorted(range(1 << n), key=lambda s: (s.bit_count(), s)))}
    antichains = enumerate_antichains(n)
    keys = [tuple(rank[m] for m in alpha.masks) for alpha in antichains]
    assert len(antichains) == count
    # tuple order puts a prefix before its extensions
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for alpha in antichains:
        assert Antichain(n, alpha.collections) == alpha  # the public checks pass


def test_source_count_limits():
    for bad in (0, 6, -1, "3", 2.0, True):
        with pytest.raises(CapacityError):
            check_source_count(bad)
    with pytest.raises(CapacityError):
        enumerate_antichains(6)


# ------------------------------------------------------------------ labels

def test_collection_label_round_trip():
    for n in range(1, 6):
        for bits in range(1 << n):
            assert parse_collection_label(collection_label(bits), n) == bits


def test_collection_label_text():
    assert collection_label(0) == "{}"
    assert collection_label(0b101) == "{1,3}"


@pytest.mark.parametrize("bad", ["{2,1}", "{0}", "{4}", "1}", "{1", "", "{a}"])
def test_collection_label_rejects(bad):
    with pytest.raises(ParseError):
        parse_collection_label(bad, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_antichain_label_round_trip_exhaustive(n):
    for alpha in enumerate_antichains(n):
        assert parse_antichain_label(alpha.label(), n) == alpha


def test_antichain_label_conventions():
    assert Antichain(3, ()).label() == "∅-chain"
    assert Antichain.of(3, [0]).label() == "{}"
    assert Antichain.of(3, [0b010, 0b101]).label() == "{2}{1,3}"


@pytest.mark.parametrize("bad", ["{1,2}{3}", "{2}{1}", "{1}{1}", "{1}{1,2}", "{1}x{2}", "∅"])
def test_antichain_label_rejects(bad):
    # wrong member order, duplicates, comparable members, stray text
    with pytest.raises(ParseError):
        parse_antichain_label(bad, 3)


@settings(max_examples=200)
@given(st.data())
def test_antichain_label_round_trip_random(data):
    n = data.draw(st.integers(1, 5))
    masks = set(data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6)))
    keep = [m for m in masks if not any(o != m and m & o == o for o in masks)]
    alpha = Antichain.of(n, keep)
    assert parse_antichain_label(alpha.label(), n) == alpha


# -------------------------------------------------------------- structures

def test_source_set_basics():
    s = SourceSet.from_indices(4, [3, 1])
    assert s.bits == 0b101
    assert s.indices == (1, 3)
    assert s.cardinality == 2
    assert s.issubset(SourceSet(4, 0b1101))
    assert not SourceSet(4, 0b1101).issubset(s)
    assert str(s) == "{1,3}"
    with pytest.raises(ValidationError):
        SourceSet.from_indices(2, [3])
    with pytest.raises(ValidationError):
        SourceSet(2, 0b100)


def test_antichain_rejects_comparable_members():
    with pytest.raises(ValidationError):
        Antichain.of(3, [0b001, 0b011])
    with pytest.raises(ValidationError):
        Antichain(3, (SourceSet(3, 0b010), SourceSet(3, 0b001)))  # wrong order
    with pytest.raises(ValidationError):
        Antichain.of(3, [0b001, 0b001])  # duplicate
    with pytest.raises(ValidationError):
        Antichain(3, (SourceSet(2, 0b01),))  # mixed n


def test_parthood_axioms_enforced():
    with pytest.raises(ValidationError):
        ParthoodDistribution(2, 0b1011)  # marks the empty collection
    with pytest.raises(ValidationError):
        ParthoodDistribution(2, 0b0110)  # clears the full collection
    with pytest.raises(ValidationError):
        ParthoodDistribution(3, (1 << 7) | (1 << 1))  # f({1})=1 but f({1,2})=0
    with pytest.raises(ValidationError):
        ParthoodDistribution(2, 1 << 4)  # table out of range
    with pytest.raises(ValidationError):
        ParthoodDistribution(0, 0b10)
    ParthoodDistribution(2, 0b1000)  # fully synergistic atom is valid


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parthood_constructor_matches_brute_filter(n):
    valid = helpers.monotone_table_set(n)
    for table in range(1 << (1 << n)):
        if table in valid:
            f = ParthoodDistribution(n, table)
            assert f.value(0) == 0 and f.value(source_mask(n)) == 1
        else:
            with pytest.raises(ValidationError):
                ParthoodDistribution(n, table)


@settings(max_examples=200)
@given(st.integers(1, 4), st.data())
def test_parthood_constructor_matches_brute_random(n, data):
    table = data.draw(st.integers(0, table_mask(n)))
    expected = table in helpers.monotone_table_set(n)
    try:
        ParthoodDistribution(n, table)
        built = True
    except ValidationError:
        built = False
    assert built == expected


def test_parthood_ones_zeros():
    f = ParthoodDistribution(2, 0b1100)
    assert f.ones() == (2, 3)
    assert f.zeros() == (0, 1)


# ------------------------------------------------------------- bijections

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_access_labeling_is_a_bijection(n):
    fs = enumerate_parthood_distributions(n)
    assert {f.table for f in fs} == helpers.monotone_table_set(n)
    for alpha in enumerate_antichains(n):
        if not in_access_domain(alpha):
            with pytest.raises(DomainError):
                parthood_from_antichain(alpha)
            continue
        assert antichain_from_parthood(parthood_from_antichain(alpha)) == alpha
    for f in fs:
        assert parthood_from_antichain(antichain_from_parthood(f)) == f


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_blockage_labeling_is_a_bijection(n):
    fs = enumerate_parthood_distributions(n)
    tables = set()
    for alpha in enumerate_antichains(n):
        if not in_blockage_domain(alpha):
            with pytest.raises(DomainError):
                parthood_from_synergy_antichain(alpha)
            continue
        f = parthood_from_synergy_antichain(alpha)
        tables.add(f.table)
        assert synergy_antichain_from_parthood(f) == alpha
    assert tables == {f.table for f in fs}
    for f in fs:
        assert parthood_from_synergy_antichain(synergy_antichain_from_parthood(f)) == f


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partner_maps_are_mutual_inverses(n):
    for alpha in enumerate_antichains(n):
        assert maximal_non_supersets(minimal_non_subsets(alpha)) == alpha
        assert minimal_non_subsets(maximal_non_supersets(alpha)) == alpha


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partner_maps_translate_labelings(n):
    for alpha in enumerate_antichains(n):
        if in_blockage_domain(alpha):
            assert parthood_from_antichain(minimal_non_subsets(alpha)) == \
                parthood_from_synergy_antichain(alpha)
        if in_access_domain(alpha):
            assert parthood_from_synergy_antichain(maximal_non_supersets(alpha)) == \
                parthood_from_antichain(alpha)


def test_partner_map_examples():
    assert minimal_non_subsets(Antichain.of(2, [0])).label() == "{1}{2}"
    assert maximal_non_supersets(Antichain.of(2, [0b01, 0b10])).label() == "{}"
    assert minimal_non_subsets(Antichain.of(2, [0b11])).label() == "∅-chain"


# ------------------------------------------------------------------ orders

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_redundancy_order_agrees_with_pointwise_parthood(n):
    dom = [a for a in enumerate_antichains(n) if in_access_domain(a)]
    for a in dom:
        fa = parthood_from_antichain(a)
        for b in dom:
            fb = parthood_from_antichain(b)
            assert order_leq("redundancy", a, b) == parthood_leq(fa, fb)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_synergy_order_agrees_with_pointwise_parthood(n):
    dom = [a for a in enumerate_antichains(n) if in_blockage_domain(a)]
    for a in dom:
        fa = parthood_from_synergy_antichain(a)
        for b in dom:
            fb = parthood_from_synergy_antichain(b)
            assert order_leq("synergy", a, b) == parthood_leq(fa, fb)


def test_parthood_order_extrema():
    n = 3
    fs = enumerate_parthood_distributions(n)
    bottom = parthood_from_antichain(
        Antichain.of(n, [0b001, 0b010, 0b100])
    )  # marks every non-empty collection
    top = parthood_from_antichain(Antichain.of(n, [0b111]))  # marks only the full one
    for f in fs:
        assert parthood_leq(bottom, f)
        assert parthood_leq(f, top)


@pytest.mark.parametrize("kind", ["redundancy", "synergy"])
def test_order_is_a_partial_order(kind):
    n = 3
    member = in_access_domain if kind == "redundancy" else in_blockage_domain
    dom = [a for a in enumerate_antichains(n) if member(a)]
    for a in dom:
        assert order_leq(kind, a, a)
    for a in dom:
        for b in dom:
            if order_leq(kind, a, b) and order_leq(kind, b, a):
                assert a == b
    leq = {(a, b) for a in dom for b in dom if order_leq(kind, a, b)}
    for a, b in leq:
        for c in dom:
            if (b, c) in leq:
                assert (a, c) in leq


def test_order_leq_rejects_out_of_domain_operands():
    empty_chain = Antichain.of(2, [0])
    full_chain = Antichain.of(2, [0b11])
    singleton = Antichain.of(2, [0b01])
    with pytest.raises(DomainError):
        order_leq("redundancy", empty_chain, singleton)
    with pytest.raises(DomainError):
        order_leq("synergy", full_chain, singleton)
    with pytest.raises(DomainError):
        order_leq("redundancy", Antichain(2, ()), singleton)
    with pytest.raises(DomainError):
        antichain_leq("redundancy", Antichain.of(2, [1]), Antichain.of(3, [1]))


def test_closures():
    n = 3
    up = upward_closure(n, (0b011,))
    assert up == (1 << 0b011) | (1 << 0b111)
    down = downward_closure(n, (0b011,))
    assert down == (1 << 0) | (1 << 0b001) | (1 << 0b010) | (1 << 0b011)
    assert upward_closure(n, ()) == 0
    assert downward_closure(n, ()) == 0
    # closure of a closure's generators is idempotent
    masks = (0b001, 0b110)
    again = tuple(s for s in range(1 << n) if (upward_closure(n, masks) >> s) & 1)
    assert upward_closure(n, again) == upward_closure(n, masks)


# ---------------------------------------------------------------- lattices

EXPECTED_KIND = {
    BaseConcept.REDUNDANCY: "full-lattice",
    BaseConcept.WEAK_SYNERGY: "full-lattice",
    BaseConcept.RESTRICTED: "full-lattice",
    BaseConcept.REDUNDANCY_PARTNER: "full-lattice",
    BaseConcept.UNION: "join-semi-lattice",
    BaseConcept.VULNERABLE: "join-semi-lattice",
    BaseConcept.UNION_PARTNER: "join-semi-lattice",
    BaseConcept.VULNERABLE_PARTNER: "meet-semi-lattice",
}


@pytest.mark.parametrize("concept", list(EXPECTED_KIND))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_lattice_kinds(concept, n):
    lat = concept_lattice(concept, n)
    assert lat.kind == EXPECTED_KIND[concept]
    bottoms, tops = lat.bottom_indices(), lat.top_indices()
    if lat.kind == "full-lattice":
        assert len(bottoms) == 1 and len(tops) == 1
    elif lat.kind == "join-semi-lattice":
        assert len(tops) == 1 and len(bottoms) == n
    else:
        assert len(bottoms) == 1 and len(tops) == n


@pytest.mark.parametrize("n", [2, 3, 4])
def test_semi_lattice_extrema(n):
    union = concept_lattice(BaseConcept.UNION, n)
    singles = {Antichain.of(n, [1 << i]) for i in range(n)}
    assert {union.nodes[i] for i in union.bottom_indices()} == singles
    assert union.nodes[union.top_indices()[0]] == Antichain.of(n, [source_mask(n)])
    vulnerable = concept_lattice(BaseConcept.VULNERABLE, n)
    assert vulnerable.nodes[vulnerable.top_indices()[0]] == Antichain.of(n, [0])
    union_partner = concept_lattice(BaseConcept.UNION_PARTNER, n)
    assert union_partner.nodes[union_partner.top_indices()[0]] == Antichain(n, ())
    vulnerable_partner = concept_lattice(BaseConcept.VULNERABLE_PARTNER, n)
    assert vulnerable_partner.nodes[vulnerable_partner.bottom_indices()[0]] == Antichain(n, ())


def _brute_covers(nodes, kind, direction):
    """Covers by definition, from the oracle's closures: the nodes j strictly
    above node i with no node strictly between them."""
    n = nodes[0].n
    if kind == "redundancy":
        tables = [upward_closure(n, a.masks) for a in nodes]
    else:
        tables = [table_mask(n) ^ downward_closure(n, a.masks) for a in nodes]

    def below(i, j):
        lo, hi = (i, j) if direction == "up" else (j, i)
        return i != j and tables[hi] & ~tables[lo] == 0

    covers = []
    for i in range(len(nodes)):
        above = [j for j in range(len(nodes)) if below(i, j)]
        covers.append(tuple(j for j in above if not any(below(k, j) for k in above)))
    return covers, tables


@pytest.mark.parametrize("concept", list(EXPECTED_KIND))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_covers_are_the_transitive_reduction(concept, n):
    lat = concept_lattice(concept, n)
    covers, _ = _brute_covers(lat.nodes, lat.order_kind, lat.direction)
    assert list(lat.covers) == covers


@pytest.mark.parametrize("direction", ["up", "down"])
@pytest.mark.parametrize("kind", ["redundancy", "synergy"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_covers_of_arbitrary_node_sets(n, kind, direction):
    # Random subsets of all antichains, some with the order's two extremes
    # added so that more of them have a unique top or bottom.  Unlike on a
    # concept domain, a cover here may add several collections at once.
    everything = enumerate_antichains(n)
    extremes = [Antichain(n, ()), Antichain.of(n, [0])]
    rng = np.random.default_rng([n, kind == "synergy", direction == "down"])
    built = wide = 0
    for _ in range(25):
        size = int(rng.integers(2, min(len(everything), 32) + 1))
        nodes = [everything[i] for i in rng.choice(len(everything), size, replace=False)]
        nodes += [a for a in extremes if a not in nodes and rng.random() < 0.7]
        try:
            lat = build_lattice(nodes, kind, direction)
        except UnsupportedStructureError:
            continue
        covers, tables = _brute_covers(lat.nodes, kind, direction)
        assert list(lat.covers) == covers
        built += 1
        wide += sum((tables[i] ^ tables[j]).bit_count() > 1 for i, ups in enumerate(covers) for j in ups)
    assert built >= 10 and wide > 0


def _single_flips(tables):
    """Pairs of tables that differ in one collection, one table holding the other."""
    present = set(tables)
    width = max(tables).bit_length()
    return sum((t | 1 << s) in present for t in tables for s in range(width) if not t >> s & 1)


@pytest.mark.parametrize("concept", list(EXPECTED_KIND))
def test_concept_covers_flip_one_collection_at_five_sources(concept):
    # Order ideals form a distributive lattice graded by size (Stanley, EC1
    # Section 3.4), so on a concept domain every cover is one flip and every
    # flip inside the domain is a cover.
    lat = concept_lattice(concept, 5)
    for i, ups in enumerate(lat.covers):
        for j in ups:
            assert lat.leq_by_index(i, j) and (lat.tables[i] ^ lat.tables[j]).bit_count() == 1
    count = sum(map(len, lat.covers))
    assert count == _single_flips(lat.tables)
    assert count == (35510 if lat.kind == "full-lattice" else 35506)


def test_lattice_leq_matches_order(n=3):
    lat = concept_lattice(BaseConcept.REDUNDANCY, n)
    for a in lat.nodes:
        for b in lat.nodes:
            assert lat.leq(a, b) == order_leq("redundancy", a, b)


def test_build_lattice_input_validation():
    with pytest.raises(ValidationError):
        build_lattice([], "redundancy")
    a2, a3 = Antichain.of(2, [1]), Antichain.of(3, [1])
    with pytest.raises(ValidationError):
        build_lattice([a2, a3], "redundancy")
    with pytest.raises(ValidationError):
        build_lattice([a2, a2], "redundancy")
    with pytest.raises(DomainError):
        build_lattice([a2], "nonsense")
    with pytest.raises(DomainError):
        build_lattice([a2], "redundancy", "sideways")


def test_build_lattice_refuses_structureless_node_sets():
    nodes = [Antichain.of(2, [0b01]), Antichain.of(2, [0b10])]
    with pytest.raises(UnsupportedStructureError):
        build_lattice(nodes, "redundancy")


def test_concept_lattice_rejects_unique():
    with pytest.raises(DomainError):
        concept_lattice(BaseConcept.UNIQUE, 2)
    with pytest.raises(DomainError):
        concept_lattice(BaseConcept.UNIQUE_PARTNER, 2)


# ---------------------------------------------------------------- moebius

@pytest.mark.parametrize("concept", FULL_CONCEPTS)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("direction", ["down-sum", "up-sum"])
def test_moebius_round_trip(concept, n, direction):
    lat = concept_lattice(concept, n)
    seed = len(concept.tag) * 100 + n * 10 + (direction == "up-sum")
    rng = np.random.default_rng(seed)
    atoms = {a: float(v) for a, v in zip(lat.nodes, rng.uniform(-1, 1, len(lat.nodes)))}
    cumulative = {}
    for a in lat.nodes:
        if direction == "down-sum":
            cumulative[a] = sum(v for b, v in atoms.items() if lat.leq(b, a))
        else:
            cumulative[a] = sum(v for b, v in atoms.items() if lat.leq(a, b))
    back = moebius_invert(lat, cumulative, direction)
    assert max(abs(back[a] - atoms[a]) for a in lat.nodes) < 1e-12


def test_moebius_refuses_semi_lattices():
    lat = concept_lattice(BaseConcept.UNION, 2)
    values = {a: 0.0 for a in lat.nodes}
    with pytest.raises(UnsupportedStructureError):
        moebius_invert(lat, values, "down-sum")


def test_moebius_input_validation():
    lat = concept_lattice(BaseConcept.REDUNDANCY, 2)
    values = {a: 1.0 for a in lat.nodes}
    with pytest.raises(DomainError):
        moebius_invert(lat, values, "sideways-sum")
    short = dict(values)
    short.pop(lat.nodes[0])
    with pytest.raises(CompletenessError):
        moebius_invert(lat, short, "down-sum")
    extra = dict(values)
    extra[Antichain(2, ())] = 1.0
    with pytest.raises(CompletenessError):
        moebius_invert(lat, extra, "down-sum")


@pytest.mark.parametrize(
    "value", ["x", "0.5", None, True, float("nan"), float("inf"), 10**400],
    ids=["str", "numeric-str", "None", "bool", "nan", "inf", "huge-int"],
)
def test_moebius_refuses_values_that_are_not_finite_numbers(value):
    lat = concept_lattice(BaseConcept.REDUNDANCY, 2)
    values = {a: 1.0 for a in lat.nodes}
    values[lat.nodes[1]] = value
    with pytest.raises(ValidationError, match=rf"value at {re.escape(lat.nodes[1].label())} is not"):
        moebius_invert(lat, values, "down-sum")


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
@pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
def test_moebius_refuses_a_narrow_float_that_is_not_finite(dtype, text):
    # checked in its own precision, a narrow infinity stood below the float64 maximum cast to inf
    lat = concept_lattice(BaseConcept.REDUNDANCY, 2)
    values = {a: 1.0 for a in lat.nodes}
    values[lat.nodes[1]] = dtype(text)
    message = f"value at {lat.nodes[1].label()} is not a finite number: {dtype(text)!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        moebius_invert(lat, values, "down-sum")


@pytest.mark.parametrize("value", [Fraction(10**400), Fraction(-(10**400), 3)], ids=["above", "below"])
def test_moebius_refuses_a_fraction_beyond_float_range(value):
    lat = concept_lattice(BaseConcept.REDUNDANCY, 2)
    values = {a: 1.0 for a in lat.nodes}
    values[lat.nodes[1]] = value
    message = f"value at {lat.nodes[1].label()} is not a finite number: {value!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        moebius_invert(lat, values, "down-sum")


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
@pytest.mark.parametrize("direction", ["down-sum", "up-sum"])
def test_moebius_takes_a_finite_narrow_float_as_its_float64_value(dtype, direction):
    lat = concept_lattice(BaseConcept.REDUNDANCY, 3)
    rng = np.random.default_rng(7)
    narrow = {a: dtype(v) for a, v in zip(lat.nodes, rng.uniform(-4, 4, len(lat.nodes)))}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a float32 compared with the float64 maximum overflowed
        got = moebius_invert(lat, narrow, direction)
    assert got == moebius_invert(lat, {a: float(v) for a, v in narrow.items()}, direction)


# --------------------------------------------------------------------- dot

def test_dot_output_union_n2():
    lat = concept_lattice(BaseConcept.UNION, 2)
    dot = lattice_to_dot(lat)
    assert dot.startswith("digraph lattice {\n  rankdir=BT;\n")
    assert dot.endswith("}\n")
    for label in ("{1}", "{2}", "{1}{2}", "{1,2}"):
        assert f'  "{label}";' in dot
    edges = {line.strip() for line in dot.splitlines() if "->" in line}
    assert edges == {
        '"{1}" -> "{1}{2}";',
        '"{2}" -> "{1}{2}";',
        '"{1}{2}" -> "{1,2}";',
    }


def test_dot_counts_match_lattice():
    lat = concept_lattice(BaseConcept.WEAK_SYNERGY, 3)
    dot = lattice_to_dot(lat)
    node_lines = [ln for ln in dot.splitlines() if ln.endswith('";') and "->" not in ln]
    edge_lines = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(node_lines) == len(lat.nodes)
    assert len(edge_lines) == sum(len(c) for c in lat.covers)


def test_parthood_leq_refuses_different_source_counts():
    f = enumerate_parthood_distributions(2)[0]
    g = enumerate_parthood_distributions(3)[0]
    with pytest.raises(DomainError, match="parthood distributions over different source counts"):
        parthood_leq(f, g)


@pytest.mark.parametrize("kind", ["union", "", None])
def test_antichain_leq_refuses_an_unknown_order_kind(kind):
    alpha = Antichain.of(2, [0b01])
    with pytest.raises(DomainError, match="unknown order kind"):
        antichain_leq(kind, alpha, alpha)


@pytest.mark.parametrize("kind", [["redundancy"], np.array(["redundancy"]), "union"], ids=repr)
def test_order_leq_names_an_unknown_order_kind_before_its_domain(kind):
    beta = Antichain.of(2, [0b11])  # {1,2}: in the redundancy order's domain, not the synergy order's
    with pytest.raises(DomainError, match="unknown order kind"):
        order_leq(kind, beta, beta)


def refused(call) -> tuple:
    with pytest.raises((ValidationError, DomainError)) as caught:
        call()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("kind", ["redundancy", "synergy"])
def test_order_leq_names_the_operand_it_refuses(kind):
    inside = Antichain.of(2, [0b01])
    outside = Antichain.of(2, [0] if kind == "redundancy" else [0b11])
    label = outside.label()
    domain = (DomainError, f"antichain {label!r} outside the {kind} order's domain")
    assert refused(lambda: order_leq(kind, inside, "x")) == (ValidationError, "beta must be an Antichain, got str")
    assert refused(lambda: order_leq(kind, "x", inside)) == (ValidationError, "alpha must be an Antichain, got str")
    # alpha is checked whole before beta: its type, then its domain
    assert refused(lambda: order_leq(kind, "x", 1)) == (ValidationError, "alpha must be an Antichain, got str")
    assert refused(lambda: order_leq(kind, outside, "x")) == domain
    assert refused(lambda: order_leq(kind, inside, outside)) == domain
    assert refused(lambda: order_leq(kind, inside, Antichain.of(3, [1]))) == (
        DomainError, "antichains over different source counts"
    )


@pytest.mark.parametrize("n", [6, 8])
def test_a_lattice_built_directly_above_max_sources_renders(n):
    low, high = Antichain.of(n, [1]), Antichain.of(n, [3])
    tables = tuple(sum(1 << s for s in range(1 << n) if s & m == m) for m in (1, 3))  # their up-closures
    lattice = ConceptLattice((low, high), "redundancy", "up", "full-lattice", tables, ((1,), ()))
    want = 'digraph lattice {\n  rankdir=BT;\n  "{1}";\n  "{1,2}";\n  "{1}" -> "{1,2}";\n}\n'
    assert lattice_to_dot(lattice) == want


NOT_NODE_INDICES = {"negative": -1, "past-the-end": 4, "bool": True, "str": "a", "float": 0.0, "None": None}


@pytest.mark.parametrize("side", ["i", "j"])
@pytest.mark.parametrize("index", NOT_NODE_INDICES)
def test_leq_by_index_takes_only_node_indices(index, side):
    lattice = concept_lattice(BaseConcept.REDUNDANCY, 2)
    assert len(lattice.nodes) == 4
    value = NOT_NODE_INDICES[index]
    with pytest.raises(DomainError) as caught:
        lattice.leq_by_index(*((value, 0) if side == "i" else (0, value)))
    assert str(caught.value) == f"{shown(value)} is not a node index of this lattice, 0..3"
    assert [lattice.leq_by_index(i, j) for i in range(4) for j in range(4)] == [
        lattice.leq(a, b) for a in lattice.nodes for b in lattice.nodes
    ]
