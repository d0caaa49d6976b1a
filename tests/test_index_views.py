"""Results and measures as read-only mappings onto one index-order vector.

``PidResult.atoms``, ``PidResult.mi``, ``MeasureAssignment.values`` and
``solve_concept``'s return are views: cached keys plus a float vector in
atom, collection-bitmask or domain order.  The functions that accept them
hand a view's vector to their one vector path and convert any other
mapping to that vector once.  The first test diffs view and plain-dict
inputs bit for bit, for every concept, on every source count up to 4 and
on a seeded n = 5 input; the rest pin the views' Mapping contract.
"""

import copy
import dataclasses
import json
import pickle
from collections.abc import Mapping

import pytest

from pidlattice import (
    BaseConcept,
    MeasureAssignment,
    PidMeta,
    PidResult,
    decompose,
    derived_measure_table,
    domain_for_concept,
    enumerate_parthood_distributions,
    export_result,
    load_result,
    measure_table_from_atoms,
    mi_table,
    proper_synergy_values,
    random_joint,
    reference_measure,
    save_result,
    solve_concept,
    summate,
    verify_consistency,
)

UNIQUE = (BaseConcept.UNIQUE, BaseConcept.UNIQUE_PARTNER)
CASES = [(n, seed) for n in (1, 2, 3, 4) for seed in (0, 1)] + [(5, 7)]


def hexes(mapping):
    """Keys and the bits of every value, in iteration order."""
    return [(key, value.hex()) for key, value in mapping.items()]


@pytest.mark.parametrize("n,seed", CASES)
@pytest.mark.parametrize("concept", list(BaseConcept))
def test_view_paths_match_mapping_paths(concept, n, seed, tmp_path):
    dist = random_joint(n, seed)
    mi = mi_table(dist)
    measured = BaseConcept.REDUNDANCY if concept in UNIQUE else concept
    measure = reference_measure(dist, measured)
    checked = MeasureAssignment(measured, n, dict(measure.values))
    assert hexes(measure.values) == hexes(checked.values)

    fast = solve_concept(n, measured, measure.values, mi)
    slow = solve_concept(n, measured, dict(measure.values), mi)
    assert hexes(fast) == hexes(slow)

    meta = PidMeta(concept=concept.tag, measure="reference", digest=dist.digest())
    built = PidResult.build(n, fast, meta, mi)
    assert hexes(built.atoms) == hexes(PidResult.build(n, dict(slow), meta, mi).atoms)
    assert hexes(built.atoms) == hexes(decompose(dist, concept).atoms)

    plain = PidResult(n=n, atoms=dict(built.atoms), meta=meta, mi=mi)
    assert type(plain.atoms) is dict
    assert verify_consistency(built) == verify_consistency(plain)
    assert verify_consistency(built, dist) == verify_consistency(plain, dist)
    assert json.dumps(export_result(built)) == json.dumps(export_result(plain))
    assert hexes(measure_table_from_atoms(concept, n, built.atoms).values) == hexes(
        measure_table_from_atoms(concept, n, plain.atoms).values
    )
    if n < 5 or concept is BaseConcept.UNION:
        assert hexes(derived_measure_table(built)) == hexes(derived_measure_table(plain))

    path = tmp_path / "result.json"
    save_result(built, path)
    assert hexes(load_result(path).atoms) == hexes(built.atoms)

    if n <= 3:
        for alpha in domain_for_concept(BaseConcept.UNION, n):
            assert summate(BaseConcept.UNION, alpha, built).hex() == summate(
                BaseConcept.UNION, alpha, plain.atoms
            ).hex()
            assert proper_synergy_values(built, alpha).hex() == proper_synergy_values(
                plain, alpha
            ).hex()


@pytest.fixture(scope="module")
def case():
    dist = random_joint(3, 4)
    concept = BaseConcept.UNION_PARTNER
    return dist, decompose(dist, concept), reference_measure(dist, concept)


def views(case):
    dist, result, measure = case
    solved = solve_concept(3, measure.concept, measure.values, mi_table(dist))
    return {"atoms": result.atoms, "mi": result.mi, "values": measure.values, "solved": solved}


def test_views_equal_plain_dicts_both_ways_and_keep_their_order(case):
    _, result, measure = case
    assert list(result.atoms) == list(enumerate_parthood_distributions(3))
    assert list(measure.values) == list(domain_for_concept(measure.concept, 3))
    for view in views(case).values():
        plain = dict(view)
        assert view == plain and plain == view
        assert not view != plain and not plain != view
        assert list(plain) == list(view)
        first = next(iter(view))
        plain[first] += 1.0
        assert view != plain and plain != view
        assert len(view) == len(plain) and first in view
        assert view.get(object()) is None


def test_views_yield_python_floats(case):
    for view in views(case).values():
        assert type(view[next(iter(view))]) is float
        assert all(type(v) is float for v in view.values())
        assert all(type(v) is float for _, v in view.items())


def test_views_are_read_only(case):
    for view in views(case).values():
        assert isinstance(view, Mapping) and not isinstance(view, dict)
        assert not hasattr(view, "__setitem__")
        with pytest.raises(TypeError):
            view[next(iter(view))] = 0.0
        assert not view.vector.flags.writeable
        with pytest.raises(ValueError):
            view.vector[0] = 1.0


def test_results_still_take_plain_dicts_and_new_mi_tables(case):
    dist, result, _ = case
    swapped = dataclasses.replace(result, atoms=dict(result.atoms))
    assert type(swapped.atoms) is dict
    assert swapped == result and result == swapped
    assert verify_consistency(swapped).passed
    lying = dataclasses.replace(result, mi={k: v + 0.25 for k, v in result.mi.items()})
    assert lying.atoms is result.atoms
    assert not verify_consistency(lying).passed
    assert verify_consistency(lying, dist).passed


def test_the_mi_view_iterates_the_collections_and_takes_plain_dicts(case, tmp_path):
    dist, result, _ = case
    assert list(result.mi) == list(range(1 << 3))
    assert all(type(bits) is int for bits in result.mi)
    assert result.mi == mi_table(dist)
    swapped = dataclasses.replace(result, mi=dict(result.mi))
    assert type(swapped.mi) is dict
    assert swapped == result and verify_consistency(swapped).passed
    assert verify_consistency(swapped) == verify_consistency(result)
    path = tmp_path / "result.json"
    save_result(result, path)
    assert hexes(load_result(path).mi) == hexes(result.mi)
    for copied in (copy.deepcopy(result), pickle.loads(pickle.dumps(result))):
        assert hexes(copied.mi) == hexes(result.mi) and verify_consistency(copied).passed


def test_a_view_shows_as_its_dict_under_the_class_name(xor_dist):
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    for view in (result.atoms, result.mi, reference_measure(xor_dist, BaseConcept.UNION).values):
        assert repr(view) == f"_IndexView({dict(view)!r})"
