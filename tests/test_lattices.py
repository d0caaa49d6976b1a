"""Antichain enumeration, labelings, orders, lattices, Moebius inversion."""

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
from pidlattice.lattices import (
    check_source_count,
    downward_closure,
    source_mask,
    table_mask,
    upward_closure,
)
from pidlattice.oracle import brute_antichains, brute_monotone_tables

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


def test_source_count_limits():
    for bad in (0, 6, -1, "3", 2.0):
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


def _directed_leq(kind, direction, a, b):
    if direction == "up":
        return antichain_leq(kind, a, b)
    return antichain_leq(kind, b, a)


@pytest.mark.parametrize("concept", list(EXPECTED_KIND))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_covers_are_the_transitive_reduction(concept, n):
    lat = concept_lattice(concept, n)
    nodes = lat.nodes
    for i, a in enumerate(nodes):
        strict_above = [
            j
            for j, b in enumerate(nodes)
            if j != i and _directed_leq(lat.order_kind, lat.direction, a, b)
        ]
        expected = {
            j
            for j in strict_above
            if not any(
                k != j
                and _directed_leq(lat.order_kind, lat.direction, nodes[k], nodes[j])
                for k in strict_above
            )
        }
        assert set(lat.covers[i]) == expected


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
