"""Engine: inversion round trips, screening, reports, result files."""

import gc
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import helpers
from pidlattice import (
    Antichain,
    BaseConcept,
    CompletenessError,
    CONDITION_FOR_CONCEPT,
    DomainError,
    MeasureAssignment,
    MeasureInconsistencyError,
    ParseError,
    PidError,
    PidMeta,
    PidResult,
    REFERENCE_MEASURE_NAME,
    ValidationError,
    antichain_from_parthood,
    decompose,
    derived_measure_table,
    domain_for_concept,
    enumerate_parthood_distributions,
    export_result,
    inclusion_exclusion_check,
    load_joint,
    load_measure,
    load_result,
    maximal_non_supersets,
    measure_table_from_atoms,
    minimal_non_subsets,
    proper_synergy_rank_analysis,
    proper_synergy_values,
    random_joint,
    reference_measure,
    save_joint,
    save_measure,
    save_result,
    solve_concept,
    summate,
    verify_consistency,
)
from pidlattice.lattices import EMPTY_CHAIN_LABEL, source_mask
from pidlattice.oracle import downward_closure, oracle_selector

ALL_CONCEPTS = list(BaseConcept)
INVERTIBLE = [
    c for c in ALL_CONCEPTS if c not in (BaseConcept.UNIQUE, BaseConcept.UNIQUE_PARTNER)
]


def atoms_by_label(result):
    return {antichain_from_parthood(f).label(): v for f, v in result.atoms.items()}


# -------------------------------------------------------------- round trips

@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("concept", ALL_CONCEPTS)
def test_solve_round_trip_from_random_atoms(n, concept):
    for seed in (0, 1):
        atoms = helpers.random_atom_vector(n, seed)
        mi = helpers.mi_from_atoms(n, atoms)
        table = measure_table_from_atoms(concept, n, atoms)
        solved = solve_concept(n, concept, table.values, mi)
        assert set(solved) == set(atoms)
        for f, v in atoms.items():
            assert solved[f] == pytest.approx(v, abs=1e-9)


@pytest.mark.parametrize("concept", ALL_CONCEPTS)
def test_decompose_xor_and_copy(concept, xor_dist, copy_dist):
    xor = decompose(xor_dist, concept)
    assert xor.meta.concept == concept.tag
    assert xor.meta.measure == REFERENCE_MEASURE_NAME
    assert xor.meta.digest == xor_dist.digest()
    for label, v in atoms_by_label(xor).items():
        assert v == pytest.approx(1.0 if label == "{1,2}" else 0.0, abs=1e-9), label
    copy = decompose(copy_dist, concept)
    for label, v in atoms_by_label(copy).items():
        assert v == pytest.approx(1.0 if label == "{1}{2}" else 0.0, abs=1e-9), label


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("concept", ALL_CONCEPTS)
def test_reference_decompositions_verify(n, seed, concept):
    dist = random_joint(n, seed)
    result = decompose(dist, concept)
    report = verify_consistency(result, dist)
    assert report.passed
    assert report.worst_error <= 1e-9


@pytest.mark.parametrize("case", ["xor", "copy"])
def test_dense_solve_oracle_for_reference_redundancy(case, xor_dist, copy_dist):
    # Independent check of the recursive inversion: set up the linear system
    # row by row from the selection condition and solve it exactly.
    dist = xor_dist if case == "xor" else copy_dist
    n = dist.n
    fs = enumerate_parthood_distributions(n)
    domain = domain_for_concept(BaseConcept.REDUNDANCY, n)
    condition = CONDITION_FOR_CONCEPT[BaseConcept.REDUNDANCY]
    measure = reference_measure(dist, BaseConcept.REDUNDANCY)
    rows = [
        [1 if oracle_selector(condition, n, alpha, f) else 0 for f in fs] for alpha in domain
    ]
    rhs = [Fraction(measure[alpha]) for alpha in domain]
    exact = helpers.solve_exact(rows, rhs)
    result = decompose(dist, BaseConcept.REDUNDANCY)
    for f, want in zip(fs, exact):
        assert Fraction(result.atoms[f]) == want


# ---------------------------------------------------------------- screening

def test_preflight_rejects_singleton_violations(xor_dist):
    bad = dict(reference_measure(xor_dist, BaseConcept.REDUNDANCY).values)
    bad[Antichain.of(2, [0b01])] += 1e-3
    with pytest.raises(MeasureInconsistencyError) as err:
        decompose(xor_dist, BaseConcept.REDUNDANCY, MeasureAssignment(BaseConcept.REDUNDANCY, 2, bad))
    assert "self-redundancy identity violated at {1}" in str(err.value)

    bad = dict(reference_measure(xor_dist, BaseConcept.WEAK_SYNERGY).values)
    bad[Antichain.of(2, [0])] += 1e-3
    with pytest.raises(MeasureInconsistencyError) as err:
        decompose(
            xor_dist, BaseConcept.WEAK_SYNERGY, MeasureAssignment(BaseConcept.WEAK_SYNERGY, 2, bad)
        )
    assert "self-weak-synergy identity violated at {}" in str(err.value)


def test_preflight_screens_partner_tables_after_remap(xor_dist):
    # restricted values live at partner antichains; the singleton identities
    # are still enforced on the remapped weak-synergy table
    table = dict(reference_measure(xor_dist, BaseConcept.RESTRICTED).values)
    target = minimal_non_subsets(Antichain.of(2, [0b01]))
    table[target] += 1e-3
    with pytest.raises(MeasureInconsistencyError) as err:
        decompose(
            xor_dist, BaseConcept.RESTRICTED, MeasureAssignment(BaseConcept.RESTRICTED, 2, table)
        )
    assert "self-weak-synergy identity" in str(err.value)


def test_build_catches_sub_preflight_noise(xor_dist):
    # 1e-8 slips past the 1e-7 preflight but fails the 1e-9 verification
    bad = dict(reference_measure(xor_dist, BaseConcept.REDUNDANCY).values)
    bad[Antichain.of(2, [0b11])] += 1e-8
    with pytest.raises(MeasureInconsistencyError) as err:
        decompose(xor_dist, BaseConcept.REDUNDANCY, MeasureAssignment(BaseConcept.REDUNDANCY, 2, bad))
    assert "atoms do not reproduce mutual information" in str(err.value)


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
@pytest.mark.parametrize("concept", [BaseConcept.UNION, BaseConcept.VULNERABLE])
def test_single_collection_identities_see_what_the_inversion_drops(concept, n, seed):
    # The complement sends union at the full collection and vulnerable at {}
    # to the one antichain the base domain lacks, so no atom carries an error
    # there; only the single-collection identity check can refuse it.
    dist = random_joint(n, seed)
    values = dict(reference_measure(dist, concept).values)
    alpha = Antichain.of(n, [source_mask(n) if concept is BaseConcept.UNION else 0])
    values[alpha] += 5e-8
    message = f"self-{concept.tag} identity violated at {re.escape(alpha.label())}:"
    with pytest.raises(MeasureInconsistencyError, match=message):
        decompose(dist, concept, MeasureAssignment(concept, n, values))


def test_consistent_perturbations_yield_alternative_decompositions(xor_dist):
    # moving a multi-collection value keeps every summation identity intact,
    # so the engine accepts it and reproduces the supplied table
    shifted = dict(reference_measure(xor_dist, BaseConcept.REDUNDANCY).values)
    alpha = Antichain.of(2, [0b01, 0b10])
    shifted[alpha] += 1e-3
    result = decompose(
        xor_dist, BaseConcept.REDUNDANCY, MeasureAssignment(BaseConcept.REDUNDANCY, 2, shifted)
    )
    assert verify_consistency(result).passed
    assert summate(BaseConcept.REDUNDANCY, alpha, result) == pytest.approx(
        shifted[alpha], abs=1e-12
    )


def test_solve_concept_completeness_errors():
    atoms = helpers.random_atom_vector(2, 0)
    mi = helpers.mi_from_atoms(2, atoms)
    table = dict(measure_table_from_atoms(BaseConcept.REDUNDANCY, 2, atoms).values)
    short = dict(table)
    short.pop(Antichain.of(2, [0b01, 0b10]))
    with pytest.raises(CompletenessError) as err:
        solve_concept(2, BaseConcept.REDUNDANCY, short, mi)
    assert "values missing" in str(err.value)
    extra = dict(table)
    extra[Antichain.of(2, [0])] = 0.0
    with pytest.raises(CompletenessError) as err:
        solve_concept(2, BaseConcept.REDUNDANCY, extra, mi)
    assert "outside the domain" in str(err.value)


def test_build_requires_full_atom_cover(xor_dist):
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    partial = dict(result.atoms)
    partial.pop(next(iter(partial)))
    with pytest.raises(CompletenessError):
        PidResult.build(2, partial, result.meta, result.mi)


# (key or FIRST for the mapping's first key, value, error, message fragment)
MALFORMED_ENTRIES = {
    "string-key": ("{1}", 0.0, CompletenessError, "outside the domain"),
    "int-key": (1, 0.0, CompletenessError, "outside the domain"),
    "string-value": ("FIRST", "0.5", ValidationError, "not a number"),
    "none-value": ("FIRST", None, ValidationError, "not a number"),
    "bool-value": ("FIRST", True, ValidationError, "not a number"),
}


@pytest.mark.parametrize("target", ["measure", "atoms"])
@pytest.mark.parametrize(
    "key,value,error,fragment", MALFORMED_ENTRIES.values(), ids=list(MALFORMED_ENTRIES)
)
def test_malformed_mappings_raise_pid_errors(xor_dist, target, key, value, error, fragment):
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    measure = reference_measure(xor_dist, BaseConcept.REDUNDANCY)
    mapping = dict(measure.values if target == "measure" else result.atoms)
    mapping[next(iter(mapping)) if key == "FIRST" else key] = value
    with pytest.raises(error, match=fragment) as err:
        if target == "measure":
            MeasureAssignment(BaseConcept.REDUNDANCY, 2, mapping)
        else:
            PidResult.build(2, mapping, result.meta, result.mi)
    assert isinstance(err.value, PidError)


@pytest.mark.parametrize("caller", ["solve_concept", "verify_consistency", "build", "export"])
def test_incomplete_mi_table_is_a_completeness_error(xor_dist, caller):
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    measure = reference_measure(xor_dist, BaseConcept.REDUNDANCY)
    mi = {0: 0.0}
    with pytest.raises(CompletenessError, match=r"MI values missing for: \{1\}, \{2\}, \{1,2\}"):
        if caller == "solve_concept":
            solve_concept(2, BaseConcept.REDUNDANCY, measure.values, mi)
        elif caller == "verify_consistency":
            verify_consistency(PidResult(n=2, atoms=result.atoms, meta=result.meta, mi=mi))
        elif caller == "build":
            PidResult.build(2, result.atoms, result.meta, mi)
        else:
            export_result(PidResult(n=2, atoms=result.atoms, meta=result.meta, mi=mi))


@pytest.mark.parametrize(
    "value", ["x", None, True, 10**400], ids=["str", "None", "bool", "huge-int"]
)
def test_mi_values_must_be_real_numbers(xor_dist, value):
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    measure = reference_measure(xor_dist, BaseConcept.REDUNDANCY)
    mi = {**result.mi, 1: value}
    message = r"MI value (at \{1\} is not a number|exceeds the float range)"
    with pytest.raises(ValidationError, match=message):
        solve_concept(2, BaseConcept.REDUNDANCY, measure.values, mi)
    with pytest.raises(ValidationError, match=message):
        PidResult.build(2, result.atoms, result.meta, mi)


@pytest.mark.parametrize("key", [7, 4, -1, "x", 2.5, True, 1.0, np.int64(1)])
def test_mi_keys_must_be_collections(xor_dist, key):
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    if key == 1:  # True, 1.0 and np.int64(1) equal 1, so each takes key 1's place
        mi = {(key if bits == 1 else bits): v for bits, v in result.mi.items()}
    else:
        mi = {**result.mi, key: 0.5}
    outside = f"MI values outside the domain: {re.escape(repr(key))}$"
    with pytest.raises(CompletenessError, match=outside):
        PidResult.build(2, result.atoms, result.meta, mi)


# ------------------------------------------------------------- verification

def test_verify_consistency_reports_worst_offender(xor_dist):
    good = decompose(xor_dist, BaseConcept.REDUNDANCY)
    atoms = dict(good.atoms)
    # the atom marking only the full collection feeds a single summation
    target = next(f for f in atoms if antichain_from_parthood(f).label() == "{1,2}")
    atoms[target] += 5e-7
    tampered = PidResult(n=2, atoms=atoms, meta=good.meta, mi=good.mi)
    report = verify_consistency(tampered)
    assert not report.passed
    assert report.worst_label == "{1,2}"
    assert report.worst_error == pytest.approx(5e-7, rel=1e-3)
    assert report.errors["{1}"] == pytest.approx(0.0, abs=1e-15)
    assert set(report.errors) == {"{}", "{1}", "{2}", "{1,2}"}
    assert report.tolerance == 1e-9


def test_verify_consistency_can_recompute_mi(xor_dist):
    good = decompose(xor_dist, BaseConcept.REDUNDANCY)
    lying = PidResult(
        n=2, atoms=good.atoms, meta=good.meta, mi={k: v + 0.25 for k, v in good.mi.items()}
    )
    assert not verify_consistency(lying).passed
    assert verify_consistency(lying, xor_dist).passed


def test_build_refuses_a_nan_atom(xor_dist):
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    atoms = dict(result.atoms)
    atoms[next(iter(atoms))] = math.nan
    with pytest.raises(ValidationError, match="non-finite atom value"):
        PidResult.build(2, atoms, result.meta, result.mi)


@pytest.mark.parametrize("slot", ["atom", "mi"])
def test_verify_consistency_fails_on_nan(tmp_path, xor_dist, slot):
    # Python's json reads NaN, so a result file can carry one into the report
    doc = export_result(decompose(xor_dist, BaseConcept.REDUNDANCY))
    if slot == "atom":
        doc["atoms"][0]["value"] = math.nan
    else:
        doc["mi"]["{2}"] = math.nan
    path = tmp_path / "result.json"
    path.write_text(json.dumps(doc))
    report = verify_consistency(load_result(path))
    assert not report.passed
    assert math.isnan(report.worst_error)
    assert math.isnan(report.errors[report.worst_label])
    if slot == "mi":
        assert report.worst_label == "{2}"


def test_verify_consistency_checks_source_count(xor_dist):
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    with pytest.raises(ValidationError):
        verify_consistency(result, random_joint(3, 0))


# ------------------------------------------------------ complement behavior

@pytest.mark.parametrize("n", [2, 3])
def test_union_solves_exactly_as_transformed_weak_synergy(n):
    atoms = helpers.random_atom_vector(n, 11)
    mi = helpers.mi_from_atoms(n, atoms)
    total = mi[source_mask(n)]
    union_vals = measure_table_from_atoms(BaseConcept.UNION, n, atoms).values
    ws_vals = {}
    for alpha in domain_for_concept(BaseConcept.WEAK_SYNERGY, n):
        ws_vals[alpha] = total if alpha.is_empty_collection_chain else total - union_vals[alpha]
    via_union = solve_concept(n, BaseConcept.UNION, union_vals, mi)
    via_ws = solve_concept(n, BaseConcept.WEAK_SYNERGY, ws_vals, mi)
    assert via_union == via_ws


@pytest.mark.parametrize("n", [2, 3])
def test_vulnerable_solves_exactly_as_transformed_redundancy(n):
    atoms = helpers.random_atom_vector(n, 12)
    mi = helpers.mi_from_atoms(n, atoms)
    total = mi[source_mask(n)]
    vul_vals = measure_table_from_atoms(BaseConcept.VULNERABLE, n, atoms).values
    red_vals = {}
    for alpha in domain_for_concept(BaseConcept.REDUNDANCY, n):
        red_vals[alpha] = total if alpha.is_full_collection_chain else total - vul_vals[alpha]
    via_vul = solve_concept(n, BaseConcept.VULNERABLE, vul_vals, mi)
    via_red = solve_concept(n, BaseConcept.REDUNDANCY, red_vals, mi)
    assert via_vul == via_red


# ------------------------------------------------------------ derived tables

@pytest.mark.parametrize("n", [2, 3])
def test_derived_table_matches_summate(n):
    dist = random_joint(n, 4)
    result = decompose(dist, BaseConcept.REDUNDANCY)
    derived = derived_measure_table(result)
    for concept in ALL_CONCEPTS:
        for alpha in domain_for_concept(concept, n):
            assert derived[(concept, alpha)] == summate(concept, alpha, result)


@pytest.mark.parametrize("n", [2, 3])
def test_derived_table_partner_value_identities(n):
    derived = derived_measure_table(
        helpers.result_from_atoms(n, helpers.random_atom_vector(n, 21))
    )
    for beta in domain_for_concept(BaseConcept.RESTRICTED, n):
        assert derived[(BaseConcept.RESTRICTED, beta)] == derived[
            (BaseConcept.WEAK_SYNERGY, maximal_non_supersets(beta))
        ]
    for beta in domain_for_concept(BaseConcept.REDUNDANCY_PARTNER, n):
        assert derived[(BaseConcept.REDUNDANCY_PARTNER, beta)] == derived[
            (BaseConcept.REDUNDANCY, minimal_non_subsets(beta))
        ]
    for beta in domain_for_concept(BaseConcept.UNION_PARTNER, n):
        assert derived[(BaseConcept.UNION_PARTNER, beta)] == derived[
            (BaseConcept.UNION, maximal_non_supersets(beta))
        ]
    for beta in domain_for_concept(BaseConcept.VULNERABLE_PARTNER, n):
        assert derived[(BaseConcept.VULNERABLE_PARTNER, beta)] == derived[
            (BaseConcept.VULNERABLE, minimal_non_subsets(beta))
        ]
    for beta in domain_for_concept(BaseConcept.UNIQUE_PARTNER, n):
        assert derived[(BaseConcept.UNIQUE_PARTNER, beta)] == derived[
            (BaseConcept.UNIQUE, minimal_non_subsets(beta))
        ]


# -------------------------------------------------------- inclusion-exclusion

def test_inclusion_exclusion_xor_copy(xor_dist, copy_dist):
    pair = Antichain.of(2, [0b01, 0b10])
    xor_report = inclusion_exclusion_check(decompose(xor_dist, BaseConcept.REDUNDANCY), pair)
    assert xor_report.passed
    assert xor_report.union_value == pytest.approx(0.0, abs=1e-12)
    copy_report = inclusion_exclusion_check(decompose(copy_dist, BaseConcept.REDUNDANCY), pair)
    assert copy_report.passed
    assert copy_report.union_value == pytest.approx(1.0, abs=1e-12)
    assert copy_report.alternating_sum == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_inclusion_exclusion_holds_for_random_atoms(n):
    result = helpers.result_from_atoms(n, helpers.random_atom_vector(n, 31))
    for alpha in domain_for_concept(BaseConcept.UNION, n):
        report = inclusion_exclusion_check(result, alpha)
        assert report.passed, alpha.label()
        assert report.tolerance == 1e-9 * (1 << len(alpha.collections))


def test_inclusion_exclusion_rejects_out_of_domain(xor_dist):
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    with pytest.raises(DomainError):
        inclusion_exclusion_check(result, Antichain.of(2, [0]))
    with pytest.raises(DomainError):
        inclusion_exclusion_check(result, Antichain.of(3, [0b001]))


# ------------------------------------------------------------ proper synergy

def brute_proper_synergy(result, union):
    acc = 0.0
    for f, v in result.atoms.items():
        if not f.value(union):
            continue
        if any(f.value(s) for s in range(union) if s & union == s):
            continue
        acc += v
    return acc


@pytest.mark.parametrize("n", [2, 3])
def test_proper_synergy_matches_brute_force(n):
    result = helpers.result_from_atoms(n, helpers.random_atom_vector(n, 41))
    for alpha in domain_for_concept(BaseConcept.UNION, n):
        union = 0
        for m in alpha.masks:
            union |= m
        assert proper_synergy_values(result, alpha) == brute_proper_synergy(result, union)


def test_proper_synergy_depends_only_on_the_union():
    result = helpers.result_from_atoms(3, helpers.random_atom_vector(3, 42))
    same_union = [
        Antichain.of(3, [0b111]),
        Antichain.of(3, [0b001, 0b110]),
        Antichain.of(3, [0b011, 0b101]),
        Antichain.of(3, [0b011, 0b101, 0b110]),
        Antichain.of(3, [0b001, 0b010, 0b100]),
    ]
    values = {proper_synergy_values(result, alpha) for alpha in same_union}
    assert len(values) == 1


def test_proper_synergy_rejections(xor_dist):
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    with pytest.raises(DomainError):
        proper_synergy_values(result, Antichain(2, ()))
    with pytest.raises(DomainError):
        proper_synergy_values(result, Antichain.of(2, [0]))
    with pytest.raises(DomainError):
        proper_synergy_values(result, Antichain.of(3, [0b001]))


def test_rank_analysis_small_cases():
    r1 = proper_synergy_rank_analysis(1)
    assert (r1.unknowns, r1.consistency_rank, r1.novel_constraints, r1.deficit) == (1, 1, 0, 0)
    r2 = proper_synergy_rank_analysis(2)
    assert (r2.unknowns, r2.consistency_rank, r2.novel_constraints, r2.deficit) == (4, 3, 1, 0)
    assert r2.combined_rank == 4
    r3 = proper_synergy_rank_analysis(3)
    assert (r3.unknowns, r3.consistency_rank, r3.novel_constraints, r3.deficit) == (18, 7, 4, 7)
    assert r3.combined_rank == r3.consistency_rank + r3.novel_constraints


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rank_analysis_against_float_rank(n):
    import numpy as np

    analysis = proper_synergy_rank_analysis(n)
    fs = enumerate_parthood_distributions(n)
    consistency = np.array(
        [[(f.table >> bits) & 1 for f in fs] for bits in range(1, 1 << n)], dtype=float
    )
    assert np.linalg.matrix_rank(consistency) == analysis.consistency_rank
    synergy = []
    for union in range(1, 1 << n):
        strict = downward_closure(n, (union,)) & ~(1 << union)
        synergy.append([1.0 if (f.table >> union) & 1 and f.table & strict == 0 else 0.0 for f in fs])
    combined = np.vstack([consistency, np.array(synergy)])
    assert np.linalg.matrix_rank(combined) == analysis.combined_rank


# ------------------------------------------------------------- measure input

def test_decompose_with_assignment_and_file(tmp_path, xor_dist):
    from pidlattice import save_measure

    table = reference_measure(xor_dist, BaseConcept.UNION)
    supplied = decompose(xor_dist, BaseConcept.UNION, table)
    assert supplied.meta.measure == "supplied"
    path = tmp_path / "union.json"
    save_measure(table, path)
    from_file = decompose(xor_dist, BaseConcept.UNION, str(path))
    assert from_file.meta.measure == "file:union.json"
    assert from_file.atoms == supplied.atoms
    from_path = decompose(xor_dist, BaseConcept.UNION, path)
    assert from_path.meta.measure == "file:union.json"
    assert from_path.atoms == supplied.atoms


@pytest.mark.parametrize("measure", [5, None, b"union.json"], ids=["int", "none", "bytes"])
def test_decompose_refuses_other_measure_types(xor_dist, measure):
    # an int would reach open() as a file descriptor
    with pytest.raises(ValidationError, match="measure must be 'reference'"):
        decompose(xor_dist, BaseConcept.UNION, measure)


def test_decompose_concept_mismatch(xor_dist):
    table = reference_measure(xor_dist, BaseConcept.UNION)
    with pytest.raises(ValidationError) as err:
        decompose(xor_dist, BaseConcept.REDUNDANCY, table)
    assert "'union'" in str(err.value) and "'redundancy'" in str(err.value)


def test_decompose_source_count_mismatch(xor_dist):
    other = random_joint(3, 0)
    table = reference_measure(other, BaseConcept.REDUNDANCY)
    with pytest.raises(ValidationError):
        decompose(xor_dist, BaseConcept.REDUNDANCY, table)


def test_unique_reference_delegates_to_redundancy(xor_dist):
    unique = decompose(xor_dist, BaseConcept.UNIQUE)
    red = decompose(xor_dist, BaseConcept.REDUNDANCY)
    assert unique.atoms == red.atoms
    assert unique.meta.concept == "unique"
    partner = decompose(xor_dist, BaseConcept.UNIQUE_PARTNER)
    assert partner.atoms == red.atoms


def test_unique_accepts_supplied_tables(xor_dist):
    red = decompose(xor_dist, BaseConcept.REDUNDANCY)
    table = measure_table_from_atoms(BaseConcept.UNIQUE, 2, red.atoms)
    result = decompose(xor_dist, BaseConcept.UNIQUE, table)
    assert result.atoms == red.atoms
    assert result.meta.measure == "supplied"


# -------------------------------------------------------------- result files

def test_export_shape(xor_dist):
    doc = export_result(decompose(xor_dist, BaseConcept.REDUNDANCY))
    assert list(doc) == ["n", "concept", "measure", "distribution_digest", "mi", "atoms"]
    assert doc["n"] == 2
    assert list(doc["mi"]) == ["{}", "{1}", "{2}", "{1,2}"]
    labels = [row["alpha"] for row in doc["atoms"]]
    assert labels == sorted(labels)
    assert {tuple(row) for row in doc["atoms"]} == {("alpha", "alpha_tilde", "value")}


def test_partial_results_do_not_export(tmp_path, xor_dist):
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    atoms = dict(result.atoms)
    atoms.pop(next(iter(atoms)))
    partial = PidResult(n=2, atoms=atoms, meta=result.meta, mi=result.mi)
    with pytest.raises(CompletenessError, match="atom values missing"):
        export_result(partial)
    path = tmp_path / "result.json"
    with pytest.raises(CompletenessError):
        save_result(partial, path)
    assert not path.exists()


def test_loaders_close_their_files(tmp_path, xor_dist):
    save_joint(xor_dist, tmp_path / "dist.json")
    save_measure(reference_measure(xor_dist, BaseConcept.REDUNDANCY), tmp_path / "measure.json")
    save_result(decompose(xor_dist, BaseConcept.REDUNDANCY), tmp_path / "result.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        load_joint(tmp_path / "dist.json")
        load_measure(tmp_path / "measure.json", 2)
        load_result(tmp_path / "result.json")
        gc.collect()
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("slot", ["loaded-atom", "loaded-mi", "built-mi"])
def test_non_finite_results_do_not_export(tmp_path, xor_dist, slot):
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    if slot == "built-mi":
        result = PidResult(n=2, atoms=result.atoms, meta=result.meta, mi={**result.mi, 1: math.nan})
    else:
        doc = export_result(result)
        if slot == "loaded-atom":
            doc["atoms"][0]["value"] = math.nan
        else:
            doc["mi"]["{2}"] = math.inf
        (tmp_path / "in.json").write_text(json.dumps(doc))
        result = load_result(tmp_path / "in.json")
    path = tmp_path / "out.json"
    with pytest.raises(ValidationError, match="non-finite atom or MI value"):
        save_result(result, path)
    assert not path.exists()


@pytest.mark.parametrize("concept", [BaseConcept.REDUNDANCY, BaseConcept.VULNERABLE_PARTNER])
def test_save_load_round_trip(tmp_path, concept, xor_dist):
    result = decompose(xor_dist, concept)
    path = tmp_path / "result.json"
    save_result(result, path)
    back = load_result(path)
    assert back.n == result.n
    assert back.atoms == result.atoms
    assert back.mi == result.mi
    assert back.meta == result.meta
    assert verify_consistency(back).passed


def test_load_result_rejects(tmp_path, xor_dist):
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    path = tmp_path / "result.json"

    def rewrite(mutate):
        doc = export_result(result)
        mutate(doc)
        path.write_text(json.dumps(doc))

    path.write_text("{nope")
    with pytest.raises(ParseError, match="bad JSON"):
        load_result(path)

    for field in ("n", "concept", "measure", "distribution_digest", "mi", "atoms"):
        rewrite(lambda doc, field=field: doc.pop(field))
        with pytest.raises(ParseError, match=f"missing field {field!r}"):
            load_result(path)

    rewrite(lambda doc: doc.update(n="2"))
    with pytest.raises(ParseError, match="must be an int"):
        load_result(path)

    rewrite(lambda doc: doc["mi"].pop("{1}"))
    with pytest.raises(ParseError, match="MI table"):
        load_result(path)

    rewrite(lambda doc: doc["atoms"][0].update(alpha_tilde="{1,2}"))
    with pytest.raises(ParseError, match="pairs with"):
        load_result(path)

    rewrite(lambda doc: doc["atoms"].append(dict(doc["atoms"][0])))
    with pytest.raises(ParseError, match="duplicate atom"):
        load_result(path)

    rewrite(lambda doc: doc["atoms"].pop())
    with pytest.raises(ParseError, match="does not cover all atoms"):
        load_result(path)

    for bad in (
        lambda doc: doc.update(atoms=[1, 2]),
        lambda doc: doc.update(atoms="rows"),
        lambda doc: doc.update(mi=[0.0, 0.0, 0.0, 1.0]),
        lambda doc: doc["atoms"][0].pop("value"),
        lambda doc: doc["atoms"][0].pop("alpha"),
        lambda doc: doc["atoms"][0].update(value="1.0"),
        lambda doc: doc["atoms"][0].update(alpha=3),
        lambda doc: doc["atoms"][0].update(alpha="{2}{1}"),
        lambda doc: doc["atoms"][0].update(alpha="{3}"),
        lambda doc: doc["mi"].update({"{1}": None}),
        lambda doc: doc.update(n=99),
    ):
        rewrite(bad)
        with pytest.raises(ParseError):
            load_result(path)

    path.write_text("[]")
    with pytest.raises(ParseError):
        load_result(path)

    # canonical labels of antichains that label no atom by minimal 1-collections
    for label in ("{}", EMPTY_CHAIN_LABEL):
        rewrite(lambda doc, label=label: doc["atoms"][0].update(alpha=label))
        with pytest.raises(DomainError, match="does not label a parthood distribution"):
            load_result(path)


def test_loaded_corruption_is_detectable(tmp_path, xor_dist):
    # load_result trusts the file; verify_consistency is the gate
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    path = tmp_path / "result.json"
    doc = export_result(result)
    doc["atoms"][0]["value"] += 0.5
    path.write_text(json.dumps(doc))
    back = load_result(path)
    assert not verify_consistency(back).passed


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("concept", 5, "field 'concept': unknown concept 5"),
        ("concept", "mystery", "field 'concept': unknown concept 'mystery'"),
        ("concept", ["redundancy"], "field 'concept': unknown concept"),
        ("measure", [1], "field 'measure' must be a string, got list"),
        ("measure", None, "field 'measure' must be a string, got NoneType"),
        ("distribution_digest", {"a": 1}, "'distribution_digest' must be 64 lowercase hex digits"),
        ("distribution_digest", "ab" * 31, "'distribution_digest' must be 64 lowercase hex digits"),
        ("distribution_digest", "AB" * 32, "'distribution_digest' must be 64 lowercase hex digits"),
        ("distribution_digest", "ab" * 31 + "g1", "'distribution_digest' must be 64 lowercase hex"),
        ("distribution_digest", "ab" * 32 + "\n", "'distribution_digest' must be 64 lowercase hex"),
    ],
)
def test_load_result_checks_its_metadata(tmp_path, xor_dist, field, value, message):
    path = tmp_path / "result.json"
    save_result(decompose(xor_dist, BaseConcept.REDUNDANCY), path)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=re.escape(message)):
        load_result(path)


def test_file_metadata_round_trips_and_code_built_metadata_stays_free(tmp_path, xor_dist):
    path = tmp_path / "result.json"
    for concept in BaseConcept:
        result = decompose(xor_dist, concept)
        save_result(result, path)
        assert load_result(path).meta == result.meta
    free = PidMeta(concept="synthetic", measure="anything", digest="none")
    assert free.concept == "synthetic"
