"""The per-n lattice index against per-antichain references.

The references are the loops the index replaced, and, for the partner
maps and the atom labels, which now read the index, their definitions
through :func:`upward_closure` and :func:`downward_closure`.

Tolerances are fixed from float64 summation error, not fitted to the runs:
forward sums of unit-scale atoms must match the masked per-antichain sums
within 1e-12, inversions must match ``_invert_cumulative`` within 1e-10
(ten times below ``ENGINE_TOL``), and everything that involves no
arithmetic (permutations, labels, the reference measure's min/max) must
match exactly.  Every check runs exhaustively for n <= 4 and on seeded
inputs at n = 5.
"""

import functools

import numpy as np
import pytest

from pidlattice import (
    Antichain,
    BaseConcept,
    CapacityError,
    DomainError,
    ENGINE_TOL,
    ParthoodDistribution,
    antichain_from_parthood,
    derived_measure_table,
    domain_for_concept,
    enumerate_antichains,
    enumerate_parthood_distributions,
    maximal_non_supersets,
    measure_table_from_atoms,
    minimal_non_subsets,
    mutual_information,
    random_joint,
    reference_measure,
    selection_mask,
    solve_concept,
)
from pidlattice.lattices import (
    _invert_cumulative,
    downward_closure,
    lattice_index,
    source_mask,
    table_mask,
    upward_closure,
)

import helpers

FORWARD_TOL = 1e-12
INVERSE_TOL = 1e-10
ALL_N = (1, 2, 3, 4, 5)
NESTED = [c for c in BaseConcept if c not in (BaseConcept.UNIQUE, BaseConcept.UNIQUE_PARTNER)]


def unit_atoms(n: int, seed: int) -> np.ndarray:
    """Signed unit-scale atom values, like those of real decompositions."""
    return np.random.default_rng(seed).normal(size=len(enumerate_parthood_distributions(n)))


def seeds_for(n: int) -> range:
    return range(5) if n == 5 else range(3)


@functools.lru_cache(maxsize=None)
def closure_labels(n: int) -> tuple[dict, dict]:
    """Antichains by up-closure and by down-closure, from the closure loops.

    Each closure determines its antichain, so these invert the closures.
    """
    antichains = enumerate_antichains(n)
    by_up = {upward_closure(n, a.masks): a for a in antichains}
    by_down = {downward_closure(n, a.masks): a for a in antichains}
    return by_up, by_down


@functools.lru_cache(maxsize=None)
def partner_images(n: int) -> dict:
    """Each antichain's images under the two partner maps, by definition.

    The ``minimal_non_subsets`` image of alpha is the antichain whose
    up-closure is the complement of alpha's down-closure; the
    ``maximal_non_supersets`` image the one whose down-closure is the
    complement of alpha's up-closure.
    """
    by_up, by_down = closure_labels(n)
    full = table_mask(n)
    return {
        a: (
            by_up[full & ~downward_closure(n, a.masks)],
            by_down[full & ~upward_closure(n, a.masks)],
        )
        for a in enumerate_antichains(n)
    }


# ---------------------------------------------------------- forward sums

@pytest.mark.parametrize("n", ALL_N)
def test_forward_tables_match_selection_sums(n):
    fs = enumerate_parthood_distributions(n)
    tables = np.array([f.table for f in fs], dtype=np.uint64)
    vectors = np.array([unit_atoms(n, seed) for seed in seeds_for(n)])
    for concept in BaseConcept:
        domain = domain_for_concept(concept, n)
        # the reference: one selection mask per antichain, summed per vector
        want = np.empty((len(vectors), len(domain)))
        for k, alpha in enumerate(domain):
            mask = selection_mask(concept, alpha, tables)
            want[:, k] = [v[mask].sum() for v in vectors]
        for row, v in zip(want, vectors):
            got = measure_table_from_atoms(concept, n, dict(zip(fs, v.tolist())))
            assert list(got.values) == list(domain)
            err = np.abs(np.array(list(got.values.values())) - row).max()
            assert err <= FORWARD_TOL, (n, concept.tag, err)


@pytest.mark.parametrize("n", (2, 3))
def test_derived_table_is_the_forward_tables(n):
    result = helpers.result_from_atoms(n, helpers.random_atom_vector(n, 5))
    derived = derived_measure_table(result)
    for concept in BaseConcept:
        table = measure_table_from_atoms(concept, n, result.atoms)
        for alpha, v in table.values.items():
            assert derived[(concept, alpha)] == v


def test_forward_tables_count_missing_atoms_as_zero():
    fs = enumerate_parthood_distributions(3)
    atoms = dict(zip(fs, unit_atoms(3, 0).tolist()))
    partial = dict(atoms)
    dropped = partial.pop(fs[4])
    full = measure_table_from_atoms(BaseConcept.UNIQUE, 3, atoms).values
    part = measure_table_from_atoms(BaseConcept.UNIQUE, 3, partial).values
    changed = {a for a in full if full[a] != part[a]}
    assert [full[a] for a in changed] == [dropped]
    assert [part[a] for a in changed] == [0.0]


# ------------------------------------------------------------- inversion

@pytest.mark.parametrize("n", ALL_N)
def test_step_inversion_matches_invert_cumulative(n):
    index = lattice_index(n)
    tables = [int(t) for t in index.atom_tables]
    for seed in seeds_for(n):
        sums = unit_atoms(n, seed)
        want_up = np.array(_invert_cumulative(tables, sums.tolist(), True))
        want_down = np.array(_invert_cumulative(tables, sums.tolist(), False))
        assert np.abs(index.invert_superset_sums(sums) - want_up).max() <= INVERSE_TOL
        assert np.abs(index.invert_subset_sums(sums) - want_down).max() <= INVERSE_TOL


@pytest.mark.parametrize("n", ALL_N)
def test_step_transforms_invert_each_other(n):
    index = lattice_index(n)
    atoms = unit_atoms(n, 1)
    assert np.abs(index.invert_superset_sums(index.superset_sums(atoms)) - atoms).max() <= INVERSE_TOL
    assert np.abs(index.invert_subset_sums(index.subset_sums(atoms)) - atoms).max() <= INVERSE_TOL


def test_every_concept_re_inverts_at_n5():
    n = 5
    fs = enumerate_parthood_distributions(n)
    atoms = dict(zip(fs, unit_atoms(n, 7).tolist()))
    mi = {bits: sum(v for f, v in atoms.items() if f.value(bits)) for bits in range(1 << n)}
    for concept in BaseConcept:
        table = measure_table_from_atoms(concept, n, atoms)
        solved = solve_concept(n, concept, table.values, mi)
        err = max(abs(solved[f] - v) for f, v in atoms.items())
        assert err <= ENGINE_TOL, (concept.tag, err)


# ------------------------------------------------ combinatorial tables

@pytest.mark.parametrize("n", ALL_N)
def test_closure_tables_match_closure_loops(n):
    index = lattice_index(n)
    for i, alpha in enumerate(enumerate_antichains(n)):
        assert int(index.up[i]) == upward_closure(n, alpha.masks)
        assert int(index.down[i]) == downward_closure(n, alpha.masks)
    atoms = np.arange(len(index.atom_tables))
    assert (index.access_atom[index.access_antichain] == atoms).all()
    assert (index.blockage_atom[index.blockage_antichain] == atoms).all()
    assert (index.access_atom >= 0).sum() == (index.blockage_atom >= 0).sum() == len(atoms)


@pytest.mark.parametrize("n", ALL_N)
def test_partner_permutations_match_partner_maps(n):
    index = lattice_index(n)
    antichains = enumerate_antichains(n)
    to_access = index.partner[minimal_non_subsets]
    to_blockage = index.partner[maximal_non_supersets]
    for i, alpha in enumerate(antichains):
        access, blockage = partner_images(n)[alpha]
        assert antichains[to_access[i]] == access
        assert antichains[to_blockage[i]] == blockage


@pytest.mark.parametrize("n", ALL_N)
def test_atom_labels_and_export_order(n):
    index = lattice_index(n)
    fs = enumerate_parthood_distributions(n)
    # an atom's access label has its table as up-closure, its blockage
    # label the table's complement as down-closure
    by_up, by_down = closure_labels(n)
    access = [by_up[f.table].label() for f in fs]
    blockage = [by_down[table_mask(n) & ~f.table].label() for f in fs]
    assert [index.labels[i] for i in index.access_antichain] == access
    assert [index.labels[i] for i in index.blockage_antichain] == blockage
    by_rank = sorted(range(len(fs)), key=lambda j: index.export_rank[j])
    assert by_rank == sorted(range(len(fs)), key=lambda j: access[j])


def test_per_antichain_helpers_refuse_more_than_five_sources():
    alpha = Antichain.of(6, [0b1])
    with pytest.raises(CapacityError):
        minimal_non_subsets(alpha)
    with pytest.raises(CapacityError):
        antichain_from_parthood(ParthoodDistribution(6, upward_closure(6, [0b1])))


def test_index_rejects_foreign_tables():
    index = lattice_index(3)
    with pytest.raises(DomainError):
        index.atom_positions(np.array([1], dtype=np.uint64))


# ----------------------------------------------------- reference measure

def reference_by_loop(dist, concept):
    """The per-antichain min/max rule over each domain, partners read through the maps."""
    n = dist.n
    total = mutual_information(dist, source_mask(n))
    partner_base = {
        BaseConcept.RESTRICTED: (BaseConcept.WEAK_SYNERGY, 1),
        BaseConcept.REDUNDANCY_PARTNER: (BaseConcept.REDUNDANCY, 0),
        BaseConcept.UNION_PARTNER: (BaseConcept.UNION, 1),
        BaseConcept.VULNERABLE_PARTNER: (BaseConcept.VULNERABLE, 0),
    }

    def base_value(base, alpha):
        infos = [mutual_information(dist, a) for a in alpha.masks]
        if base is BaseConcept.REDUNDANCY:
            return min(infos)
        if base is BaseConcept.UNION:
            return max(infos)
        if base is BaseConcept.WEAK_SYNERGY:
            return total - max(infos) if infos else total
        return total - min(infos)

    out = {}
    for alpha in domain_for_concept(concept, n):
        if concept in partner_base:
            base, which = partner_base[concept]
            out[alpha] = base_value(base, partner_images(n)[alpha][which])
        else:
            out[alpha] = base_value(concept, alpha)
    return out


@pytest.mark.parametrize("n", ALL_N)
def test_reference_measure_is_bit_identical_to_the_loop(n):
    dist = random_joint(n, n, source_alphabets=(2,) * n, target_alphabet=2)
    for concept in NESTED:
        got = reference_measure(dist, concept).values
        want = reference_by_loop(dist, concept)
        assert list(got) == list(want)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()], concept.tag
