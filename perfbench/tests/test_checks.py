"""Every check passes on a correct output and fails on a corrupted one."""

import dataclasses
import hashlib
import math

import pytest

import checks
from pidlattice import (
    BaseConcept,
    MeasureAssignment,
    concept_lattice,
    decompose,
    lattice_to_dot,
    measure_table_from_atoms,
    mi_table,
    random_joint,
)


@pytest.fixture(scope="module")
def case():
    dist = random_joint(3, 5, (2, 2, 2), 2)
    concept = BaseConcept.UNION_PARTNER
    result = decompose(dist, concept)
    table = measure_table_from_atoms(concept, 3, result.atoms)
    return dist, concept, result, table


def _with_atom(result, delta):
    first = next(iter(result.atoms))
    atoms = dict(result.atoms)
    atoms[first] += delta
    return dataclasses.replace(result, atoms=atoms)


def test_all_checks_pass_on_correct_output(case):
    dist, concept, result, table = case
    assert checks.check_consistency(result, mi_table(dist)) == []
    assert checks.check_atom_count(result) == []
    assert checks.check_export_rows(18, 3) == []
    assert checks.check_forward_resolves(concept, table, result) == []
    assert checks.check_total_mi(result, checks.oracle_total_mi(dist.pmf, 3)) == []
    assert checks.check_digest(result, dist.digest()) == []
    assert checks.check_identical_atoms(decompose(dist, concept), result) == []


def test_consistency_fails_on_a_perturbed_atom(case):
    dist, _, result, _ = case
    assert checks.check_consistency(_with_atom(result, 1e-6), mi_table(dist))


def test_consistency_fails_on_a_wrong_mi_table(case):
    dist, _, result, _ = case
    mi = dict(result.mi)
    mi[3] += 1e-6
    assert checks.check_consistency(dataclasses.replace(result, mi=mi), mi_table(dist))


def test_atom_count_fails_on_a_missing_atom(case):
    _, _, result, _ = case
    atoms = dict(result.atoms)
    atoms.pop(next(iter(atoms)))
    assert checks.check_atom_count(dataclasses.replace(result, atoms=atoms))


def test_export_rows_fail_on_a_short_export():
    assert checks.check_export_rows(17, 3)


def test_forward_table_fails_on_a_corrupted_value(case):
    _, concept, result, table = case
    values = dict(table.values)
    alpha = next(a for a in values if len(a.collections) > 1)
    values[alpha] += 1e-6
    corrupted = MeasureAssignment(concept, 3, values)
    assert checks.check_forward_resolves(concept, corrupted, result)


def test_total_mi_fails_against_the_oracle(case):
    dist, _, result, _ = case
    mi = dict(result.mi)
    mi[7] += 1e-6
    assert checks.check_total_mi(
        dataclasses.replace(result, mi=mi), checks.oracle_total_mi(dist.pmf, 3)
    )


def test_digest_fails_on_another_input(case):
    _, _, result, _ = case
    other = random_joint(3, 6, (2, 2, 2), 2)
    assert checks.check_digest(result, other.digest())


def test_dot_check_fails_on_a_changed_byte():
    text = lattice_to_dot(concept_lattice(BaseConcept.REDUNDANCY, 4))
    assert checks.check_dot("redundancy", hashlib.sha256(text.encode()).hexdigest()) == []
    changed = text.replace("->", "-> ", 1)
    assert checks.check_dot("redundancy", hashlib.sha256(changed.encode()).hexdigest())


def test_fidelity_fails_one_ulp_off(case):
    _, _, result, _ = case
    value = next(iter(result.atoms.values()))
    off = _with_atom(result, math.nextafter(value, math.inf) - value)
    assert checks.check_identical_atoms(off, result)
