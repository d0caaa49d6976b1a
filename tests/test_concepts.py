"""Base concepts: condition grid, selectors, domains, measures."""

import json

import numpy as np
import pytest

import helpers
from pidlattice import (
    CONDITION_IDS,
    Antichain,
    BaseConcept,
    CompletenessError,
    CONDITION_FOR_CONCEPT,
    CONDITION_IDS,
    DomainError,
    MeasureAssignment,
    ParseError,
    ParthoodDistribution,
    PidError,
    SourceSet,
    ValidationError,
    antichain_from_parthood,
    atom_selector,
    canonicalize_collections,
    concept_lattice,
    condition_holds,
    conditional_mi,
    decompose,
    domain_for_concept,
    enumerate_antichains,
    enumerate_parthood_distributions,
    grid_condition,
    in_access_domain,
    in_blockage_domain,
    load_measure,
    maximal_non_supersets,
    measure_table_from_atoms,
    minimal_non_subsets,
    mutual_information,
    parthood_from_antichain,
    parthood_from_synergy_antichain,
    patch_singleton_synergies,
    random_joint,
    reference_measure,
    save_measure,
    selection_mask,
    solve_concept,
    summate,
)
from pidlattice.concepts import concept_facts, domain_labels, domain_members
from pidlattice.lattices import source_mask, table_mask
from pidlattice.oracle import oracle_selector

ALL_CONCEPTS = list(BaseConcept)


def tables_for(n):
    return np.array([f.table for f in enumerate_parthood_distributions(n)], dtype=np.uint64)


# ----------------------------------------------------------------- the grid

def test_concept_tags_round_trip():
    for concept in ALL_CONCEPTS:
        assert BaseConcept.from_tag(concept.tag) is concept
    with pytest.raises(DomainError) as err:
        BaseConcept.from_tag("nonsense")
    assert "redundancy" in str(err.value) and "unique-partner" in str(err.value)


def test_condition_grid_shape():
    assert len(CONDITION_IDS) == 16
    assert len(set(CONDITION_IDS)) == 16
    assert len(CONDITION_FOR_CONCEPT) == 8
    assert set(CONDITION_FOR_CONCEPT.values()) <= set(CONDITION_IDS)


# The concept algebra as literal tables, written out by hand.  The code
# derives all of it from one grid cell and one direction per concept.
C = BaseConcept
LITERAL_CELLS = {
    C.REDUNDANCY: "sufficient-superset-inclusion",
    C.WEAK_SYNERGY: "sufficient-subset-exclusion",
    C.RESTRICTED: "necessary-superset-inclusion",
    C.REDUNDANCY_PARTNER: "necessary-subset-exclusion",
    C.VULNERABLE: "insufficient-superset-inclusion",
    C.UNION: "insufficient-subset-exclusion",
    C.UNION_PARTNER: "unnecessary-superset-inclusion",
    C.VULNERABLE_PARTNER: "unnecessary-subset-exclusion",
}
LITERAL_UNIQUE_CELLS = {
    C.UNIQUE: ("sufficient-superset-inclusion", "necessary-superset-inclusion"),
    C.UNIQUE_PARTNER: ("sufficient-subset-exclusion", "necessary-subset-exclusion"),
}
LITERAL_PARTNERS = {
    C.RESTRICTED: (C.WEAK_SYNERGY, maximal_non_supersets),
    C.REDUNDANCY_PARTNER: (C.REDUNDANCY, minimal_non_subsets),
    C.UNION_PARTNER: (C.UNION, maximal_non_supersets),
    C.VULNERABLE_PARTNER: (C.VULNERABLE, minimal_non_subsets),
}
LITERAL_COMPLEMENTS = [
    (C.UNION, C.WEAK_SYNERGY),
    (C.VULNERABLE, C.REDUNDANCY),
    (C.RESTRICTED, C.UNION_PARTNER),
    (C.REDUNDANCY_PARTNER, C.VULNERABLE_PARTNER),
]
LITERAL_ACCESS = {C.REDUNDANCY, C.UNION, C.UNIQUE}
LITERAL_BLOCKAGE = {C.WEAK_SYNERGY, C.VULNERABLE, C.UNIQUE_PARTNER}
LITERAL_DIRECTIONS = {
    C.REDUNDANCY: "up",
    C.WEAK_SYNERGY: "up",
    C.RESTRICTED: "down",
    C.REDUNDANCY_PARTNER: "down",
    C.UNION: "up",
    C.VULNERABLE: "down",
    C.UNION_PARTNER: "up",
    C.VULNERABLE_PARTNER: "up",
}
NESTED = list(LITERAL_DIRECTIONS)


def test_derived_algebra_matches_the_literal_tables():
    assert CONDITION_FOR_CONCEPT == LITERAL_CELLS
    complements = {pair for a, b in LITERAL_COMPLEMENTS for pair in ((a, b), (b, a))}
    for concept in ALL_CONCEPTS:
        facts = concept_facts(concept)
        cells = LITERAL_UNIQUE_CELLS.get(concept) or (LITERAL_CELLS[concept],)
        assert facts.cells == cells, concept
        assert (facts.mode, facts.relation) == tuple(cells[0].split("-")[:2]), concept
        assert facts.relation == ("superset" if concept in SUPERSET_CONCEPTS else "subset")
        assert (facts.base, facts.mapper) == LITERAL_PARTNERS.get(concept, (None, None)), concept
        assert facts.nested == (concept in LITERAL_DIRECTIONS), concept
        assert facts.direction == LITERAL_DIRECTIONS.get(concept), concept
        if facts.nested:
            assert (concept, facts.complement) in complements, concept
        else:
            assert facts.complement is None, concept
        if facts.base is None:
            assert concept in LITERAL_ACCESS | LITERAL_BLOCKAGE, concept
            assert facts.access == (concept in LITERAL_ACCESS), concept


@pytest.mark.parametrize(
    "call",
    [
        lambda c, dist, atoms: atom_selector(c, Antichain.of(2, [0b01])),
        lambda c, dist, atoms: canonicalize_collections(c, [0b01], 2),
        lambda c, dist, atoms: concept_lattice(c, 2),
        lambda c, dist, atoms: domain_for_concept(c, 2),
        lambda c, dist, atoms: reference_measure(dist, c),
        lambda c, dist, atoms: selection_mask(c, Antichain.of(2, [0b01]), tables_for(2)),
        lambda c, dist, atoms: summate(c, [0b01], atoms),
        lambda c, dist, atoms: MeasureAssignment(c, 2, {}),
        lambda c, dist, atoms: decompose(dist, c),
        lambda c, dist, atoms: measure_table_from_atoms(c, 2, atoms),
        lambda c, dist, atoms: solve_concept(2, c, {}, {bits: 0.0 for bits in range(4)}),
    ],
    ids=[
        "atom_selector", "canonicalize_collections", "concept_lattice", "domain_for_concept",
        "reference_measure", "selection_mask", "summate", "MeasureAssignment", "decompose",
        "measure_table_from_atoms", "solve_concept",
    ],
)
def test_a_concept_tag_is_not_a_concept(call, xor_dist):
    atoms = helpers.random_atom_vector(2, 0)
    with pytest.raises(DomainError, match="unknown concept 'redundancy'"):
        call("redundancy", xor_dist, atoms)


@pytest.mark.parametrize(
    "call",
    [
        lambda c: domain_for_concept(c, 2),
        lambda c: domain_members(c, 2),
        lambda c: MeasureAssignment(c, 2, {}),
        lambda c: atom_selector(c, Antichain.of(2, [0b01])),
    ],
    ids=["domain_for_concept", "domain_members", "MeasureAssignment", "atom_selector"],
)
def test_an_unhashable_concept_is_a_domain_error(call):
    # the cached entry points look the concept up before the cache hashes it
    with pytest.raises(DomainError, match=r"unknown concept \[1\]"):
        call([1])


@pytest.mark.parametrize("concept", [None, int], ids=["atom-keys", "mi-keys"])
def test_a_measure_assignment_needs_a_concept(concept, xor_dist):
    # None and int name index_vector's atom and MI key sets, not concepts
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    values = result.atoms if concept is None else result.mi
    with pytest.raises(DomainError, match="unknown concept"):
        MeasureAssignment(concept, 2, dict(values))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_conditions_match_oracle(n):
    fs = enumerate_parthood_distributions(n)
    for alpha in enumerate_antichains(n):
        for cid in CONDITION_IDS:
            for f in fs:
                assert condition_holds(cid, alpha, f) == oracle_selector(cid, n, alpha, f), (
                    cid,
                    alpha.label(),
                    f.table,
                )


def test_condition_holds_validation():
    alpha = Antichain.of(2, [1])
    f = parthood_from_antichain(alpha)
    for bad in ("sufficient-superset", "perhaps-superset-inclusion", "x-y-z", ""):
        with pytest.raises(DomainError):
            condition_holds(bad, alpha, f)
    with pytest.raises(DomainError):
        condition_holds("sufficient-superset-inclusion", Antichain.of(3, [1]), f)
    with pytest.raises(DomainError):
        grid_condition("perhaps-superset-inclusion", alpha)


# The eight grid cells not claimed by a concept are trivial: four select no
# atom and four select every atom, except at one degenerate antichain each.
TRIVIAL_EMPTY = {
    "sufficient-subset-inclusion": None,
    "sufficient-superset-exclusion": None,
    "necessary-superset-exclusion": "empty-collection",  # {∅} selects all instead
    "necessary-subset-inclusion": "full-collection",  # {[n]} selects all instead
}
TRIVIAL_FULL = {
    "insufficient-subset-inclusion": None,
    "insufficient-superset-exclusion": None,
    "unnecessary-superset-exclusion": "empty-collection",  # {∅} selects none instead
    "unnecessary-subset-inclusion": "full-collection",  # {[n]} selects none instead
}


def _is_exception(alpha, tag):
    if tag == "empty-collection":
        return alpha.is_empty_collection_chain
    if tag == "full-collection":
        return alpha.is_full_collection_chain
    return False


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trivial_conditions(n):
    assert set(TRIVIAL_EMPTY) | set(TRIVIAL_FULL) | set(CONDITION_FOR_CONCEPT.values()) == set(
        CONDITION_IDS
    )
    fs = enumerate_parthood_distributions(n)
    antichains = [a for a in enumerate_antichains(n) if not a.is_empty]
    for alpha in antichains:
        for cid, exception in TRIVIAL_EMPTY.items():
            count = sum(condition_holds(cid, alpha, f) for f in fs)
            assert count == (len(fs) if _is_exception(alpha, exception) else 0), (
                cid,
                alpha.label(),
            )
        for cid, exception in TRIVIAL_FULL.items():
            count = sum(condition_holds(cid, alpha, f) for f in fs)
            assert count == (0 if _is_exception(alpha, exception) else len(fs)), (
                cid,
                alpha.label(),
            )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_complementarity_of_selectors(n):
    fs = enumerate_parthood_distributions(n)
    for alpha in enumerate_antichains(n):
        for f in fs:
            assert condition_holds("insufficient-superset-inclusion", alpha, f) == (
                not condition_holds("sufficient-superset-inclusion", alpha, f)
            )
            assert condition_holds("insufficient-subset-exclusion", alpha, f) == (
                not condition_holds("sufficient-subset-exclusion", alpha, f)
            )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_partner_selectors_pick_identical_atoms(n):
    tables = tables_for(n)
    for alpha in enumerate_antichains(n):
        if in_access_domain(alpha):
            down = maximal_non_supersets(alpha)
            assert (
                selection_mask(BaseConcept.REDUNDANCY, alpha, tables)
                == selection_mask(BaseConcept.REDUNDANCY_PARTNER, down, tables)
            ).all()
            up = minimal_non_subsets(alpha)
            assert (
                selection_mask(BaseConcept.UNION, alpha, tables)
                == selection_mask(BaseConcept.UNION_PARTNER, up, tables)
            ).all()
            assert (
                selection_mask(BaseConcept.UNIQUE, alpha, tables)
                == selection_mask(BaseConcept.UNIQUE_PARTNER, maximal_non_supersets(alpha), tables)
            ).all()
        if in_blockage_domain(alpha):
            up = minimal_non_subsets(alpha)
            assert (
                selection_mask(BaseConcept.WEAK_SYNERGY, alpha, tables)
                == selection_mask(BaseConcept.RESTRICTED, up, tables)
            ).all()
            assert (
                selection_mask(BaseConcept.VULNERABLE, alpha, tables)
                == selection_mask(BaseConcept.VULNERABLE_PARTNER, maximal_non_supersets(alpha), tables)
            ).all()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vulnerable_and_union_complement_masks(n):
    tables = tables_for(n)
    both = [
        a for a in enumerate_antichains(n) if in_access_domain(a) and in_blockage_domain(a)
    ]
    for alpha in both:
        red = selection_mask(BaseConcept.REDUNDANCY, alpha, tables)
        vul = selection_mask(BaseConcept.VULNERABLE, alpha, tables)
        assert (vul == ~red).all()
        ws = selection_mask(BaseConcept.WEAK_SYNERGY, alpha, tables)
        union = selection_mask(BaseConcept.UNION, alpha, tables)
        assert (union == ~ws).all()


# --------------------------------------------------------------- selectors

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("concept", ALL_CONCEPTS)
def test_selector_equals_selection_mask(n, concept):
    fs = enumerate_parthood_distributions(n)
    tables = tables_for(n)
    for alpha in domain_for_concept(concept, n):
        sel = atom_selector(concept, alpha)
        mask = selection_mask(concept, alpha, tables)
        assert [sel(f) for f in fs] == [bool(x) for x in mask]


# Oracle ids of each concept's cell; unique information is a conjunction.
ORACLE_CELL = {
    **CONDITION_FOR_CONCEPT,
    BaseConcept.UNIQUE: "unique",
    BaseConcept.UNIQUE_PARTNER: "unique-partner",
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("concept", ALL_CONCEPTS)
def test_selection_mask_matches_oracle(n, concept):
    tables = tables_for(n)
    for alpha in domain_for_concept(concept, n):
        mask = selection_mask(concept, alpha, tables)
        expected = [oracle_selector(ORACLE_CELL[concept], n, alpha, int(t)) for t in tables]
        assert [bool(x) for x in mask] == expected, alpha.label()


def test_atom_selector_rejects_out_of_domain():
    with pytest.raises(DomainError):
        atom_selector(BaseConcept.REDUNDANCY, Antichain.of(2, [0]))
    with pytest.raises(DomainError):
        atom_selector(BaseConcept.WEAK_SYNERGY, Antichain.of(2, [0b11]))
    with pytest.raises(DomainError):
        atom_selector(BaseConcept.UNIQUE, Antichain(2, ()))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unique_selectors_pick_exactly_one_atom(n):
    fs = enumerate_parthood_distributions(n)
    for alpha in domain_for_concept(BaseConcept.UNIQUE, n):
        sel = atom_selector(BaseConcept.UNIQUE, alpha)
        assert [f for f in fs if sel(f)] == [parthood_from_antichain(alpha)]
    for alpha in domain_for_concept(BaseConcept.UNIQUE_PARTNER, n):
        sel = atom_selector(BaseConcept.UNIQUE_PARTNER, alpha)
        assert [f for f in fs if sel(f)] == [parthood_from_synergy_antichain(alpha)]


@pytest.mark.parametrize("n", [2, 3])
def test_redundancy_selector_closed_form(n):
    # the condition reduces to: every member of alpha is marked
    fs = enumerate_parthood_distributions(n)
    for alpha in domain_for_concept(BaseConcept.REDUNDANCY, n):
        sel = atom_selector(BaseConcept.REDUNDANCY, alpha)
        for f in fs:
            assert sel(f) == all(f.value(a) for a in alpha.masks)
    for alpha in domain_for_concept(BaseConcept.WEAK_SYNERGY, n):
        sel = atom_selector(BaseConcept.WEAK_SYNERGY, alpha)
        for f in fs:
            assert sel(f) == all(not f.value(a) for a in alpha.masks)


# ----------------------------------------------------------------- domains

def test_domains_n2_explicit():
    def labels(concept):
        return [a.label() for a in domain_for_concept(concept, 2)]

    assert labels(BaseConcept.REDUNDANCY) == ["{1}", "{1}{2}", "{2}", "{1,2}"]
    assert labels(BaseConcept.UNION) == labels(BaseConcept.REDUNDANCY)
    assert labels(BaseConcept.RESTRICTED) == labels(BaseConcept.REDUNDANCY)
    assert labels(BaseConcept.UNIQUE) == labels(BaseConcept.REDUNDANCY)
    assert labels(BaseConcept.WEAK_SYNERGY) == ["{}", "{1}", "{1}{2}", "{2}"]
    assert labels(BaseConcept.VULNERABLE) == labels(BaseConcept.WEAK_SYNERGY)
    assert labels(BaseConcept.REDUNDANCY_PARTNER) == labels(BaseConcept.WEAK_SYNERGY)
    assert labels(BaseConcept.UNIQUE_PARTNER) == labels(BaseConcept.WEAK_SYNERGY)
    assert labels(BaseConcept.UNION_PARTNER) == ["∅-chain", "{1}", "{2}", "{1,2}"]
    assert labels(BaseConcept.VULNERABLE_PARTNER) == ["∅-chain", "{}", "{1}", "{2}"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_domain_labels_are_the_key_labels(n):
    for concept in BaseConcept:
        assert domain_labels(concept, n) == [a.label() for a in domain_for_concept(concept, n)]
    atoms = enumerate_parthood_distributions(n)
    assert domain_labels(None, n) == [antichain_from_parthood(f).label() for f in atoms]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partner_domains_are_partner_images(n):
    everything = set(enumerate_antichains(n))
    full = source_mask(n)
    singletons = Antichain.of(n, [1 << i for i in range(n)])
    co_singletons = Antichain.of(n, [full ^ (1 << i) for i in range(n)])
    up_image = set(domain_for_concept(BaseConcept.UNION_PARTNER, n))
    assert up_image == {
        minimal_non_subsets(a) for a in enumerate_antichains(n) if in_access_domain(a)
    }
    assert up_image == everything - {Antichain.of(n, [0]), singletons}
    vp_image = set(domain_for_concept(BaseConcept.VULNERABLE_PARTNER, n))
    assert vp_image == {
        maximal_non_supersets(a) for a in enumerate_antichains(n) if in_blockage_domain(a)
    }
    assert vp_image == everything - {co_singletons, Antichain.of(n, [full])}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("concept", ALL_CONCEPTS)
def test_domains_follow_enumeration_order(n, concept):
    position = {a: i for i, a in enumerate(enumerate_antichains(n))}
    dom = domain_for_concept(concept, n)
    ranks = [position[a] for a in dom]
    assert ranks == sorted(ranks)
    assert len(dom) == len(enumerate_antichains(n)) - 2


def test_concept_lattice_nodes_are_the_domain():
    for concept in ALL_CONCEPTS:
        if concept in (BaseConcept.UNIQUE, BaseConcept.UNIQUE_PARTNER):
            continue
        lat = concept_lattice(concept, 3)
        assert lat.nodes == domain_for_concept(concept, 3)


# With positive atoms each nested concept's values move one way along every
# cover of its lattice; the directions are the paper's figure convention.
RISING = {C.REDUNDANCY, C.RESTRICTED, C.VULNERABLE, C.UNION, C.UNION_PARTNER}


@pytest.mark.parametrize("concept", NESTED)
def test_values_rise_or_fall_along_every_cover(concept):
    lat = concept_lattice(concept, 3)
    table = measure_table_from_atoms(concept, 3, helpers.random_atom_vector(3, 7))
    values = list(table.values.values())  # domain order, which is the node order
    steps = [values[j] - values[i] for i, ups in enumerate(lat.covers) for j in ups]
    assert len(steps) >= 28
    sign = 1 if concept in RISING else -1
    assert all(sign * step > 0 for step in steps), concept


def test_concept_lattice_order_kinds():
    kinds = {
        BaseConcept.REDUNDANCY: "redundancy",
        BaseConcept.RESTRICTED: "redundancy",
        BaseConcept.VULNERABLE: "redundancy",
        BaseConcept.UNION_PARTNER: "redundancy",
        BaseConcept.WEAK_SYNERGY: "synergy",
        BaseConcept.REDUNDANCY_PARTNER: "synergy",
        BaseConcept.UNION: "synergy",
        BaseConcept.VULNERABLE_PARTNER: "synergy",
    }
    for concept, kind in kinds.items():
        assert concept_lattice(concept, 2).order_kind == kind, concept


# --------------------------------------------------------- canonicalization

# Concepts whose cells use the superset relation; the rest use subset.
SUPERSET_CONCEPTS = {
    BaseConcept.REDUNDANCY,
    BaseConcept.RESTRICTED,
    BaseConcept.VULNERABLE,
    BaseConcept.UNION_PARTNER,
    BaseConcept.UNIQUE,
}


def test_canonicalize_collections():
    red = canonicalize_collections(BaseConcept.REDUNDANCY, [0b011, 0b001, 0b110], n=3)
    assert red.label() == "{1}{2,3}"  # the superset {1,2} is dropped
    ws = canonicalize_collections(BaseConcept.WEAK_SYNERGY, [0b011, 0b001, 0b110], n=3)
    assert ws.label() == "{1,2}{2,3}"  # the subset {1} is dropped
    for concept in ALL_CONCEPTS:
        got = canonicalize_collections(concept, [0b011, 0b001, 0b110], n=3).label()
        assert got == ("{1}{2,3}" if concept in SUPERSET_CONCEPTS else "{1,2}{2,3}"), concept
    mixed = canonicalize_collections(
        BaseConcept.REDUNDANCY, [SourceSet(3, 0b100), 0b110, 0b110], n=3
    )
    assert mixed.label() == "{3}"
    alpha = Antichain.of(3, [0b001])
    assert canonicalize_collections(BaseConcept.REDUNDANCY, alpha) is alpha
    with pytest.raises(ValidationError):
        canonicalize_collections(BaseConcept.REDUNDANCY, [0b001])  # n missing
    with pytest.raises(ValidationError):
        canonicalize_collections(BaseConcept.REDUNDANCY, [0b1000], n=3)


# ----------------------------------------------------------------- summate

def test_summate_examples(xor_dist):
    from pidlattice import decompose

    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    assert summate(BaseConcept.UNION, [0b01, 0b10], result) == pytest.approx(0.0, abs=1e-12)
    assert summate(BaseConcept.VULNERABLE, [0b01, 0b10], result) == pytest.approx(1.0, abs=1e-12)
    assert summate(BaseConcept.REDUNDANCY, [0b11], result) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_summate_invariance_laws(seed):
    n = 3
    atoms = helpers.random_atom_vector(n, seed)
    # permutation invariance
    assert summate(BaseConcept.REDUNDANCY, [0b001, 0b110], atoms) == summate(
        BaseConcept.REDUNDANCY, [0b110, 0b001], atoms
    )
    # superset invariance for the superset-relation concepts
    assert summate(BaseConcept.REDUNDANCY, [0b001, 0b011], atoms) == summate(
        BaseConcept.REDUNDANCY, [0b001], atoms
    )
    # subset invariance for the subset-relation concepts
    assert summate(BaseConcept.WEAK_SYNERGY, [0b011, 0b001], atoms) == summate(
        BaseConcept.WEAK_SYNERGY, [0b011], atoms
    )
    # and the sums agree with a direct mask evaluation
    tables = tables_for(n)
    values = np.array([atoms[f] for f in enumerate_parthood_distributions(n)])
    alpha = Antichain.of(n, [0b001, 0b110])
    direct = float(values[selection_mask(BaseConcept.REDUNDANCY, alpha, tables)].sum())
    assert summate(BaseConcept.REDUNDANCY, alpha, atoms) == direct


def test_summate_validation():
    atoms = helpers.random_atom_vector(2, 0)
    with pytest.raises(ValidationError):
        summate(BaseConcept.REDUNDANCY, [0b01], {})
    with pytest.raises(DomainError):
        summate(BaseConcept.REDUNDANCY, [0], atoms)  # {∅} outside redundancy domain
    with pytest.raises(CompletenessError, match="atom values outside the domain: 'x'"):
        summate(BaseConcept.UNION, [1], {"x": 1.0})
    with pytest.raises(CompletenessError, match="atom values outside the domain"):
        summate(BaseConcept.UNION, [1], {Antichain.of(2, [1]): 1.0, **atoms})
    with pytest.raises(DomainError):
        summate(BaseConcept.REDUNDANCY, Antichain.of(3, [0b001]), atoms)


# --------------------------------------------------------- reference family

def test_reference_measure_xor(xor_dist):
    red = reference_measure(xor_dist, BaseConcept.REDUNDANCY)
    assert red[Antichain.of(2, [0b01, 0b10])] == pytest.approx(0.0, abs=1e-12)
    assert red[Antichain.of(2, [0b11])] == pytest.approx(1.0, abs=1e-12)
    ws = reference_measure(xor_dist, BaseConcept.WEAK_SYNERGY)
    assert ws[Antichain.of(2, [0])] == pytest.approx(1.0, abs=1e-12)
    assert ws[Antichain.of(2, [0b01, 0b10])] == pytest.approx(1.0, abs=1e-12)
    union = reference_measure(xor_dist, BaseConcept.UNION)
    assert union[Antichain.of(2, [0b01, 0b10])] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [2, 3])
def test_reference_measure_boundary_identities(n, seed):
    dist = random_joint(n, seed)
    total = mutual_information(dist, source_mask(n))
    red = reference_measure(dist, BaseConcept.REDUNDANCY)
    union = reference_measure(dist, BaseConcept.UNION)
    ws = reference_measure(dist, BaseConcept.WEAK_SYNERGY)
    vul = reference_measure(dist, BaseConcept.VULNERABLE)
    for i in range(n):
        a = Antichain.of(n, [1 << i])
        info = mutual_information(dist, 1 << i)
        assert red[a] == pytest.approx(info, abs=1e-12)
        assert union[a] == pytest.approx(info, abs=1e-12)
        assert ws[a] == pytest.approx(total - info, abs=1e-12)
        assert vul[a] == pytest.approx(total - info, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_reference_partner_measures_read_mapped_values(seed):
    n = 3
    dist = random_joint(n, seed)
    red = reference_measure(dist, BaseConcept.REDUNDANCY)
    red_partner = reference_measure(dist, BaseConcept.REDUNDANCY_PARTNER)
    for alpha in domain_for_concept(BaseConcept.REDUNDANCY_PARTNER, n):
        assert red_partner[alpha] == red[minimal_non_subsets(alpha)]
    ws = reference_measure(dist, BaseConcept.WEAK_SYNERGY)
    restricted = reference_measure(dist, BaseConcept.RESTRICTED)
    for alpha in domain_for_concept(BaseConcept.RESTRICTED, n):
        assert restricted[alpha] == ws[maximal_non_supersets(alpha)]


def test_reference_measure_rejects_unique(xor_dist):
    with pytest.raises(DomainError):
        reference_measure(xor_dist, BaseConcept.UNIQUE)
    with pytest.raises(DomainError):
        reference_measure(xor_dist, BaseConcept.UNIQUE_PARTNER)


# -------------------------------------------------------------- assignments

def test_measure_assignment_completeness():
    n = 2
    dom = domain_for_concept(BaseConcept.REDUNDANCY, n)
    values = {a: 1.0 for a in dom}
    ma = MeasureAssignment(BaseConcept.REDUNDANCY, n, values)
    assert list(ma.values) == list(dom)
    short = dict(values)
    short.pop(dom[0])
    with pytest.raises(CompletenessError):
        MeasureAssignment(BaseConcept.REDUNDANCY, n, short)
    extra = dict(values)
    extra[Antichain.of(n, [0])] = 1.0
    with pytest.raises(CompletenessError):
        MeasureAssignment(BaseConcept.REDUNDANCY, n, extra)
    bad = dict(values)
    bad[dom[0]] = float("nan")
    with pytest.raises(ValidationError):
        MeasureAssignment(BaseConcept.REDUNDANCY, n, bad)


def test_measure_file_round_trip(tmp_path, xor_dist):
    measure = reference_measure(xor_dist, BaseConcept.REDUNDANCY)
    path = tmp_path / "m.json"
    save_measure(measure, path)
    labelled = {a.label(): v for a, v in measure.values.items()}
    assert path.read_text() == json.dumps({"concept": "redundancy", **labelled}, indent=2) + "\n"
    back = load_measure(path, 2)
    assert back.concept is BaseConcept.REDUNDANCY
    assert back.values == measure.values


@pytest.mark.parametrize(
    "concept", [c for c in BaseConcept if c not in (BaseConcept.UNIQUE, BaseConcept.UNIQUE_PARTNER)]
)
def test_measure_file_round_trip_at_five_sources(tmp_path, concept):
    measure = reference_measure(random_joint(5, 3), concept)
    path = tmp_path / "m.json"
    save_measure(measure, path)
    assert load_measure(path, 5) == measure


def test_measure_file_rejects(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{broken")
    with pytest.raises(ParseError):
        load_measure(path, 2)
    path.write_text(json.dumps({"{1}": 1.0}))
    with pytest.raises(ParseError):
        load_measure(path, 2)
    path.write_text(json.dumps({"concept": "redundancy", "{1}": "high"}))
    with pytest.raises(ParseError):
        load_measure(path, 2)
    path.write_text(json.dumps({"concept": "redundancy", "{1}": True}))
    with pytest.raises(ParseError):
        load_measure(path, 2)
    path.write_text(json.dumps({"concept": "redundancy", "{2,1}": 0.5}))
    with pytest.raises(ParseError):
        load_measure(path, 2)
    path.write_text(json.dumps({"concept": "mystery", "{1}": 0.5}))
    with pytest.raises(DomainError):
        load_measure(path, 2)


RED = '"concept": "redundancy"'
FULL = '"{1}": 0.1, "{1}{2}": 0.2, "{2}": 0.3, "{1,2}": 0.4'  # the n = 2 redundancy domain
# (measure file text, n, error class, message): a fault's class and message do not
# depend on how the file's labels are resolved; among several faults, a label or
# number fault comes first, then values outside the domain, then missing values,
# then the first non-finite value in domain order.
MEASURE_FILE_FAULTS = {
    "bad label": (
        '{%s, "{1}{1}": 1.0}' % RED, 2, ParseError,
        "label '{1}{1}' is not an antichain: collections must be in strict canonical order",
    ),
    "non-canonical label": ('{%s, "{2,1}": 1.0}' % RED, 2, ParseError, "collection label '{2,1}' is not canonical"),
    "label with a space": ('{%s, "{1} ": 1.0}' % RED, 2, ParseError, "bad antichain label '{1} '"),
    "string value": ('{%s, "{1}": "high"}' % RED, 2, ParseError, "value at '{1}' is not a number: 'high'"),
    "bool value": ('{%s, "{1}": true}' % RED, 2, ParseError, "value at '{1}' is not a number: True"),
    "null value": ('{%s, "{1}": null}' % RED, 2, ParseError, "value at '{1}' is not a number: None"),
    "int past float range": (
        '{%s, "{1}": 1%s}' % (RED, "0" * 400), 2, ParseError, "value at '{1}' is an integer beyond float range",
    ),
    "label outside the domain": (
        '{%s, %s, "{}": 0.5}' % (RED, FULL), 2, CompletenessError, "redundancy values outside the domain: {}",
    ),
    "two labels outside the domain": (
        '{%s, "\u2205-chain": 0.0, %s, "{}": 0.5}' % (RED, FULL), 2, CompletenessError,
        "redundancy values outside the domain: \u2205-chain, {}",
    ),
    "partner label outside the domain": (
        '{"concept": "union-partner", "{1}{2}": 0.5}', 2, CompletenessError,
        "union-partner values outside the domain: {1}{2}",
    ),
    "missing label": (
        '{%s, "{1}": 0.1, "{1}{2}": 0.2, "{2}": 0.3}' % RED, 2, CompletenessError,
        "redundancy values missing for: {1,2}",
    ),
    "concept only": (
        "{%s}" % RED, 3, CompletenessError,
        "redundancy values missing for: {1}, {1}{2}, {1}{2}{3}, {1}{3}, {1}{2,3} ...",
    ),
    "NaN": (
        '{%s, "{1}": 0.1, "{1}{2}": 0.2, "{2}": NaN, "{1,2}": 0.4}' % RED, 2, ValidationError,
        "non-finite redundancy value at {2}",
    ),
    "Infinity": (
        '{%s, "{1}": 0.1, "{1}{2}": 0.2, "{2}": 0.3, "{1,2}": Infinity}' % RED, 2, ValidationError,
        "non-finite redundancy value at {1,2}",
    ),
    "NaN before -Infinity in file order": (
        '{%s, "{1,2}": NaN, "{1}": 0.1, "{1}{2}": -Infinity, "{2}": 0.3}' % RED, 2, ValidationError,
        "non-finite redundancy value at {1}{2}",
    ),
    "outside, then a bad value": (
        '{%s, "{}": 0.5, "{1}": "x"}' % RED, 2, ParseError, "value at '{1}' is not a number: 'x'",
    ),
    "outside, then a bad label": (
        '{%s, "{}": 0.5, "{3}": 1.0}' % RED, 2, ParseError, "source index 3 out of range 1..2 in '{3}'",
    ),
    "missing and outside": (
        '{%s, "{}": 0.5, "{1}": 0.1}' % RED, 2, CompletenessError, "redundancy values outside the domain: {}",
    ),
    "missing and NaN": (
        '{%s, "{1}": NaN}' % RED, 2, CompletenessError, "redundancy values missing for: {1}{2}, {2}, {1,2}",
    ),
    "outside and NaN": (
        '{%s, %s, "{}": NaN}' % (RED, FULL), 2, CompletenessError, "redundancy values outside the domain: {}",
    ),
}


@pytest.mark.parametrize("name", MEASURE_FILE_FAULTS)
def test_measure_file_faults_keep_their_class_and_message(tmp_path, name):
    text, n, error, message = MEASURE_FILE_FAULTS[name]
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(PidError) as refused:
        load_measure(path, n)
    assert type(refused.value) is error
    assert str(refused.value) == message


# ------------------------------------------------------- synergy completion

def test_patch_singleton_synergies(xor_dist):
    n = 2
    ws = reference_measure(xor_dist, BaseConcept.WEAK_SYNERGY)
    multi_only = {
        a: v for a, v in ws.values.items() if len(a.collections) > 1
    }
    patched = patch_singleton_synergies(n, multi_only, xor_dist)
    assert patched.concept is BaseConcept.WEAK_SYNERGY
    for alpha, v in patched.values.items():
        assert v == pytest.approx(ws[alpha], abs=1e-9)
    # singleton entries in the input are ignored in favor of the conditional MI
    tampered = dict(multi_only)
    tampered[Antichain.of(n, [0b01])] = 123.0
    patched2 = patch_singleton_synergies(n, tampered, xor_dist)
    assert patched2[Antichain.of(n, [0b01])] == pytest.approx(
        conditional_mi(xor_dist, 0b10, 0b01), abs=1e-12
    )
    assert patched2[Antichain.of(n, [0b01])] != 123.0


@pytest.mark.parametrize("value", ["0.5", "x", None], ids=["numeric-str", "str", "None"])
def test_patch_singleton_synergies_checks_the_supplied_values(xor_dist, value):
    alpha = Antichain.of(2, [0b01, 0b10])
    with pytest.raises(ValidationError, match=r"weak-synergy value at \{1\}\{2\} is not a number"):
        patch_singleton_synergies(2, {alpha: value}, xor_dist)


@pytest.mark.parametrize("values", [[1, 2], (), None], ids=["list", "tuple", "None"])
def test_patch_singleton_synergies_requires_a_mapping(xor_dist, values):
    with pytest.raises(ValidationError, match="synergy values must map antichains to numbers"):
        patch_singleton_synergies(2, values, xor_dist)


def test_patch_singleton_synergies_requires_multi_entries(xor_dist):
    with pytest.raises(CompletenessError):
        patch_singleton_synergies(2, {}, xor_dist)
    with pytest.raises(ValidationError):
        patch_singleton_synergies(3, {}, xor_dist)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_condition_predicates_agree_with_condition_holds(n):
    atoms = enumerate_parthood_distributions(n)
    for cid in CONDITION_IDS:
        for alpha in enumerate_antichains(n):
            holds = grid_condition(cid, alpha)
            assert [holds(f) for f in atoms] == [condition_holds(cid, alpha, f) for f in atoms]


@pytest.mark.parametrize("dtype", [np.uint64, np.int64], ids=["uint64", "int64"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_selection_mask_refuses_a_table_above_the_n_source_range(n, dtype):
    """Only the low 2**n bits hold a mark, so a table with a higher bit is no truth table over n sources."""
    alpha, top = Antichain.of(n, [1]), table_mask(n)
    assert selection_mask(BaseConcept.REDUNDANCY, alpha, np.array([0, top], dtype=dtype)).tolist() == [False, True]
    refusal = f"tables must be truth tables over {n} sources, got one out of range"
    for table in (top + 1, 0b1010 | 1 << 40):
        with pytest.raises(ValidationError, match=refusal):
            selection_mask(BaseConcept.REDUNDANCY, alpha, np.array([0, table], dtype=dtype))
    # the dtype and the sign are checked first, as before
    with pytest.raises(ValidationError, match="non-negative"):
        selection_mask(BaseConcept.REDUNDANCY, alpha, np.array([top + 1, -1], dtype=np.int64))
    with pytest.raises(ValidationError, match="dtype float64"):
        selection_mask(BaseConcept.REDUNDANCY, alpha, np.array([float(top + 1)]))


def test_selection_mask_refuses_the_table_a_parthood_distribution_refuses():
    table = 0b1010 | 1 << 40
    with pytest.raises(ValidationError, match="truth table out of range"):
        ParthoodDistribution(2, table)
    with pytest.raises(ValidationError, match="out of range"):
        selection_mask(BaseConcept.REDUNDANCY, Antichain.of(2, [1]), np.array([table], dtype=np.uint64))
