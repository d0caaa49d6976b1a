"""Acceptance criteria, one test per criterion.

Each test covers one shipping requirement end to end and prints a summary
line on success; the pytest status line is the pass/fail verdict.  Where a
criterion names a tolerance the assertions use exactly that tolerance, and
"exact" criteria compare with ``==`` on floats.
"""

import time
from fractions import Fraction

import pytest

import helpers
from pidlattice import (
    Antichain,
    BaseConcept,
    CONDITION_FOR_CONCEPT,
    CONDITION_IDS,
    antichain_from_parthood,
    condition_holds,
    decompose,
    domain_for_concept,
    enumerate_antichains,
    enumerate_parthood_distributions,
    in_access_domain,
    in_blockage_domain,
    inclusion_exclusion_check,
    maximal_non_supersets,
    measure_table_from_atoms,
    minimal_non_subsets,
    parthood_from_antichain,
    parthood_from_synergy_antichain,
    proper_synergy_rank_analysis,
    proper_synergy_values,
    random_joint,
    reference_measure,
    solve_concept,
    synergy_antichain_from_parthood,
    verify_consistency,
)
from pidlattice.cli import main as cli_main
from pidlattice.concepts import domain_members
from pidlattice.lattices import lattice_index, source_mask
from pidlattice.oracle import brute_monotone_tables, oracle_selector

INVERTIBLE = [
    c for c in BaseConcept if c not in (BaseConcept.UNIQUE, BaseConcept.UNIQUE_PARTNER)
]


def announce(num, text):
    # surfaced after the run by the pytest_terminal_summary hook in conftest
    helpers.ACCEPTANCE_LINES.append(f"[criterion {num:02d}] PASS - {text}")


def clear_enumeration_caches():
    """Empty every per-n cache, so a timed criterion runs the cold path."""
    domain_for_concept.cache_clear()
    domain_members.cache_clear()
    enumerate_parthood_distributions.cache_clear()
    lattice_index.cache_clear()
    enumerate_antichains.cache_clear()


def test_c01_atom_counts_match_brute_force():
    clear_enumeration_caches()
    start = time.perf_counter()
    counts = []
    for n in (1, 2, 3, 4):
        fs = enumerate_parthood_distributions(n)
        counts.append(len(fs))
        assert {f.table for f in fs} == set(brute_monotone_tables(n))
    elapsed = time.perf_counter() - start
    assert counts == [1, 4, 18, 166]
    assert elapsed < 5.0
    announce(1, f"atom counts 1,4,18,166 vs brute force in {elapsed:.2f}s")


def test_c02_parthood_antichain_round_trips():
    for n in (1, 2, 3, 4):
        for f in enumerate_parthood_distributions(n):
            assert parthood_from_antichain(antichain_from_parthood(f)) == f
            assert parthood_from_synergy_antichain(synergy_antichain_from_parthood(f)) == f
        for alpha in enumerate_antichains(n):
            if in_access_domain(alpha):
                assert antichain_from_parthood(parthood_from_antichain(alpha)) == alpha
            if in_blockage_domain(alpha):
                assert synergy_antichain_from_parthood(parthood_from_synergy_antichain(alpha)) == alpha
    announce(2, "parthood <-> antichain bijections round-trip exhaustively for n <= 4")


def test_c03_partner_maps_are_mutually_inverse():
    for n in (1, 2, 3, 4):
        for alpha in enumerate_antichains(n):
            if in_blockage_domain(alpha):
                assert minimal_non_subsets(maximal_non_supersets(alpha)) == alpha
            if in_access_domain(alpha):
                assert maximal_non_supersets(minimal_non_subsets(alpha)) == alpha
    announce(3, "partner maps invert each other on both measure domains for n <= 4")


def test_c04_reference_decompositions_verify_on_random_distributions():
    worst = 0.0
    for seed in range(100):
        n = 2 if seed % 2 == 0 else 3
        dist = random_joint(n, seed)
        for concept in INVERTIBLE:
            report = verify_consistency(decompose(dist, concept), dist)
            assert report.tolerance == 1e-9
            assert report.passed, (seed, concept.tag, report.worst_error)
            worst = max(worst, report.worst_error)
    announce(4, f"100 random distributions x 8 concepts verify at 1e-9 (worst {worst:.2e})")


def test_c05_measure_tables_reinvert_to_their_atoms():
    worst = 0.0
    for n in (2, 3, 4):
        for seed in range(20):
            atoms = helpers.random_atom_vector(n, seed)
            mi = helpers.mi_from_atoms(n, atoms)
            for concept in BaseConcept:
                table = measure_table_from_atoms(concept, n, atoms)
                solved = solve_concept(n, concept, table.values, mi)
                assert set(solved) == set(atoms)
                err = max(abs(solved[f] - v) for f, v in atoms.items())
                assert err <= 1e-9, (n, seed, concept.tag, err)
                worst = max(worst, err)
    announce(5, f"all 10 concept paths re-invert 60 atom vectors, n <= 4 (worst {worst:.2e})")


def test_c06_complement_concepts_solve_exactly_as_their_transforms():
    for n in (2, 3):
        for seed in range(10):
            atoms = helpers.random_atom_vector(n, seed)
            mi = helpers.mi_from_atoms(n, atoms)
            total = mi[source_mask(n)]
            union_vals = measure_table_from_atoms(BaseConcept.UNION, n, atoms).values
            ws_vals = {
                a: total if a.is_empty_collection_chain else total - union_vals[a]
                for a in domain_for_concept(BaseConcept.WEAK_SYNERGY, n)
            }
            assert solve_concept(n, BaseConcept.UNION, union_vals, mi) == solve_concept(
                n, BaseConcept.WEAK_SYNERGY, ws_vals, mi
            )
            vul_vals = measure_table_from_atoms(BaseConcept.VULNERABLE, n, atoms).values
            red_vals = {
                a: total if a.is_full_collection_chain else total - vul_vals[a]
                for a in domain_for_concept(BaseConcept.REDUNDANCY, n)
            }
            assert solve_concept(n, BaseConcept.VULNERABLE, vul_vals, mi) == solve_concept(
                n, BaseConcept.REDUNDANCY, red_vals, mi
            )
    announce(6, "union and vulnerable atoms are bit-identical to their complement transforms")


def test_c07_proper_synergy_ranks_and_union_condition():
    analysis = proper_synergy_rank_analysis(3)
    assert analysis.unknowns == 18
    assert analysis.novel_constraints == 4
    assert analysis.deficit == 7
    for seed in range(20):
        result = helpers.result_from_atoms(3, helpers.random_atom_vector(3, seed))
        by_union = {}
        for alpha in domain_for_concept(BaseConcept.UNION, 3):
            union = 0
            for m in alpha.masks:
                union |= m
            by_union.setdefault(union, set()).add(proper_synergy_values(result, alpha))
        assert all(len(values) == 1 for values in by_union.values())
    announce(7, "rank analysis (18 unknowns, 4 novel, deficit 7) and the union condition hold")


TRIVIAL_EMPTY = {
    "sufficient-subset-inclusion": None,
    "sufficient-superset-exclusion": None,
    "necessary-superset-exclusion": "empty-collection",
    "necessary-subset-inclusion": "full-collection",
}
TRIVIAL_FULL = {
    "insufficient-subset-inclusion": None,
    "insufficient-superset-exclusion": None,
    "unnecessary-superset-exclusion": "empty-collection",
    "unnecessary-subset-inclusion": "full-collection",
}


def test_c08_condition_grid_matches_oracle_and_trivial_cells_behave():
    for n in (1, 2, 3):
        fs = enumerate_parthood_distributions(n)
        for alpha in enumerate_antichains(n):
            for cid in CONDITION_IDS:
                for f in fs:
                    assert condition_holds(cid, alpha, f) == oracle_selector(cid, n, alpha, f)
        non_empty = [a for a in enumerate_antichains(n) if not a.is_empty]
        for alpha in non_empty:
            for cid, exc in TRIVIAL_EMPTY.items():
                hits = sum(condition_holds(cid, alpha, f) for f in fs)
                exceptional = (exc == "empty-collection" and alpha.is_empty_collection_chain) or (
                    exc == "full-collection" and alpha.is_full_collection_chain
                )
                assert hits == (len(fs) if exceptional else 0), (cid, alpha.label())
            for cid, exc in TRIVIAL_FULL.items():
                hits = sum(condition_holds(cid, alpha, f) for f in fs)
                exceptional = (exc == "empty-collection" and alpha.is_empty_collection_chain) or (
                    exc == "full-collection" and alpha.is_full_collection_chain
                )
                assert hits == (0 if exceptional else len(fs)), (cid, alpha.label())
    assert set(TRIVIAL_EMPTY) | set(TRIVIAL_FULL) | set(CONDITION_FOR_CONCEPT.values()) == set(
        CONDITION_IDS
    )
    announce(8, "all 16 grid conditions match the oracle for n <= 3; trivial cells as stated")


def test_c09_inclusion_exclusion_identity():
    worst_ratio = 0.0
    for n in (2, 3):
        for seed in range(20):
            result = helpers.result_from_atoms(n, helpers.random_atom_vector(n, seed))
            for alpha in domain_for_concept(BaseConcept.UNION, n):
                report = inclusion_exclusion_check(result, alpha)
                assert report.tolerance == 1e-9 * (1 << len(alpha.collections))
                assert report.passed, (n, seed, alpha.label())
                worst_ratio = max(worst_ratio, report.error / report.tolerance)
    announce(9, f"inclusion-exclusion holds across 20 vectors, n <= 3 (worst {worst_ratio:.0e} of tol)")


def test_c10_worked_examples_and_golden_files(tmp_path):
    for dist, expected_hot in (
        (helpers.xor_distribution(), "{1,2}"),
        (helpers.copy_distribution(), "{1}{2}"),
    ):
        result = decompose(dist, BaseConcept.REDUNDANCY)
        for f, v in result.atoms.items():
            label = antichain_from_parthood(f).label()
            assert v == (1.0 if label == expected_hot else 0.0), label
        # independent oracle: solve the selection system exactly over Q
        fs = enumerate_parthood_distributions(2)
        domain = domain_for_concept(BaseConcept.REDUNDANCY, 2)
        condition = CONDITION_FOR_CONCEPT[BaseConcept.REDUNDANCY]
        measure = reference_measure(dist, BaseConcept.REDUNDANCY)
        rows = [[1 if oracle_selector(condition, 2, a, f) else 0 for f in fs] for a in domain]
        exact = helpers.solve_exact(rows, [Fraction(measure[a]) for a in domain])
        assert [Fraction(result.atoms[f]) for f in fs] == exact
    for index, (golden, argv) in enumerate(helpers.GOLDEN_CASES):
        out = tmp_path / f"golden-{index}"
        assert cli_main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == (helpers.GOLDEN_DIR / golden).read_bytes(), golden
    announce(10, "xor/copy atoms match the exact dense solve; 6 golden CLI outputs byte-identical")


def test_c11_five_source_decomposition_within_budget():
    clear_enumeration_caches()
    dist = random_joint(5, 0, source_alphabets=(2,) * 5, target_alphabet=2)
    start = time.perf_counter()
    result = decompose(dist, BaseConcept.REDUNDANCY)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report = verify_consistency(result, dist)
    assert report.passed
    assert len(result.atoms) == 7579
    announce(11, f"n=5 binary decomposition in {elapsed:.2f}s (7579 atoms, verified at 1e-9)")
