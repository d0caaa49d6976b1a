"""Values a caller passes in are checked, and refused with a PidError subclass.

Three rules, each pinned by the calls that broke it:

- an error message shows the caller's value through ``errors.shown``, so an
  int past the interpreter's 4300-digit ``str`` limit raises the error a
  small out-of-range value raises, not a bare ``ValueError``;
- a raw collection list holds SourceSets over the same n or exact int bits,
  the rule of ``mutual_information`` and ``SourceSet.from_indices``;
- values, atoms and MI tables are mappings;
- an object argument (distribution, result, antichain, lattice) is that
  type, checked by one guard, ``errors.expect``, at the entry point; and a
  boundary object's source count is at most ``MAX_BOUNDARY_SOURCES``.

A hypothesis test then drives the same entry points with arbitrary values.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidlattice import (
    Antichain,
    BaseConcept,
    CapacityError,
    CompletenessError,
    MeasureAssignment,
    ParthoodDistribution,
    PidError,
    PidResult,
    SourceSet,
    ValidationError,
    build_lattice,
    canonicalize_collections,
    conditional_mi,
    concept_lattice,
    decompose,
    derived_measure_table,
    domain_for_concept,
    export_result,
    inclusion_exclusion_check,
    lattice_to_dot,
    measure_table_from_atoms,
    mi_table,
    moebius_invert,
    mutual_information,
    patch_singleton_synergies,
    proper_synergy_values,
    random_joint,
    reference_measure,
    save_joint,
    save_result,
    solve_concept,
    summate,
    verify_consistency,
)
from pidlattice import concepts, lattices
from pidlattice.errors import DomainError
from pidlattice.lattices import MAX_BOUNDARY_SOURCES, table_mask

import helpers

R = BaseConcept.REDUNDANCY
HUGE = 10**5000


@functools.cache
def case():
    """An n = 2 distribution, its reference redundancy values and result, and its lattice."""
    dist = helpers.xor_distribution()
    result = decompose(dist, R)
    return dist, reference_measure(dist, R).values, result, concept_lattice(R, 2)


def moebius_with(value):
    lattice = case()[3]
    values = {node: 0.0 for node in lattice.nodes}
    values[lattice.nodes[0]] = value
    return moebius_invert(lattice, values, "down-sum")


def build_with_mi_key(key):
    result = case()[2]
    return PidResult.build(2, result.atoms, result.meta, {**result.mi, key: 0.0})


# (call of one value, a small value it refuses, the error both must raise)
OUT_OF_RANGE = {
    "SourceSet": (lambda v: SourceSet(2, v), 4, ValidationError),
    "SourceSet.from_indices": (lambda v: SourceSet.from_indices(2, [v]), 3, ValidationError),
    "SourceSet n": (lambda v: SourceSet(v, -1), 0, ValidationError),
    "SourceSet.from_indices n": (lambda v: SourceSet.from_indices(v, [0]), 0, ValidationError),
    "Antichain.of": (lambda v: Antichain.of(2, [v]), 4, ValidationError),
    "mutual_information": (lambda v: mutual_information(case()[0], v), 4, ValidationError),
    "random_joint": (lambda v: random_joint(v, 1), 6, CapacityError),
    "canonicalize_collections": (lambda v: canonicalize_collections(R, [v], 2), 4, ValidationError),
    "summate": (lambda v: summate(R, [v], case()[2]), 4, ValidationError),
    "moebius_invert": (moebius_with, 10**400, ValidationError),
    "PidResult.build": (build_with_mi_key, 4, CompletenessError),
    "domain_for_concept": (lambda v: domain_for_concept(v, 2), 4, PidError),
}


@pytest.mark.parametrize("name", OUT_OF_RANGE)
def test_an_int_too_long_to_print_raises_the_small_values_error(name):
    call, small, error = OUT_OF_RANGE[name]
    with pytest.raises(error) as refused:
        call(small)
    with pytest.raises(refused.type, match="<int too long to print>"):
        call(HUGE)


@pytest.mark.parametrize(
    "member", [2.7, "3", "a", True, None, np.int64(1), SourceSet(3, 1), SourceSet(1, 1)], ids=repr
)
def test_collection_lists_take_exact_members(member):
    # int() read 2.7 as {2}, "3" as {1,2} and True as {1}; a SourceSet(3, 1) passed as {1}
    result = case()[2]
    for call in (
        lambda: canonicalize_collections(R, [member], 2),
        lambda: canonicalize_collections(BaseConcept.UNION, [0b01, member], 2),
        lambda: summate(BaseConcept.UNION, [member], result),
    ):
        with pytest.raises(ValidationError, match="collection"):
            call()


def test_collection_lists_are_iterables_over_a_known_n():
    result = case()[2]
    with pytest.raises(ValidationError, match="must be an Antichain, got str"):
        inclusion_exclusion_check(result, "x")
    with pytest.raises(ValidationError, match="collections must be an iterable, got int"):
        canonicalize_collections(R, 5, 2)
    with pytest.raises(ValidationError, match="source count required"):
        canonicalize_collections(R, iter([None]))  # n is checked before the members
    with pytest.raises(CapacityError):
        canonicalize_collections(R, [1], "x")
    assert canonicalize_collections(R, [SourceSet(2, 1), 3], 2).label() == "{1}"


@pytest.mark.parametrize("value", [[1, 2], 5, "ab", None], ids=repr)
def test_values_atoms_and_mi_tables_must_be_mappings(value):
    _, values, result, _ = case()
    for call in (
        lambda: MeasureAssignment(R, 2, value),
        lambda: solve_concept(2, R, value, result.mi),
        lambda: solve_concept(2, R, values, value),
        lambda: PidResult.build(2, value, result.meta, result.mi),
        lambda: PidResult.build(2, result.atoms, result.meta, value),
        lambda: measure_table_from_atoms(R, 2, value),
        lambda: summate(R, [1], value),
    ):
        with pytest.raises(ValidationError, match="mapping"):
            call()


# ------------------------------------------------------------------ fuzz

LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.integers()
    | st.integers(10**4300, 10**4400)  # past the str limit
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from([SourceSet(1, 1), SourceSet(2, 3), SourceSet(3, 5), Antichain.of(3, [1])])
)
HASHABLE = st.none() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
VALUES = LEAVES | st.lists(LEAVES, max_size=3) | st.dictionaries(HASHABLE, LEAVES, max_size=3)


def entry_points(v):
    """Every entry point of the three rules, with ``v`` in one argument."""
    dist, values, result, _ = case()
    alpha = next(iter(values))
    calls = [
        lambda: SourceSet(2, v),
        lambda: SourceSet(v, 1),
        lambda: SourceSet.from_indices(v, ["a"]),
        lambda: SourceSet.from_indices(2, v),
        lambda: SourceSet.from_indices(2, [v]),
        lambda: Antichain.of(2, v),
        lambda: Antichain.of(2, [v]),
        lambda: mutual_information(dist, v),
        lambda: random_joint(v, 0),
        lambda: domain_for_concept(v, 2),
        lambda: canonicalize_collections(R, v, 2),
        lambda: canonicalize_collections(R, [v], 2),
        lambda: canonicalize_collections(R, [1], v),
        lambda: summate(R, v, result),
        lambda: summate(R, [1], v),
        lambda: inclusion_exclusion_check(result, v),
        lambda: moebius_with(v),
        lambda: MeasureAssignment(R, 2, v),
        lambda: MeasureAssignment(R, 2, {**values, alpha: v}),
        lambda: solve_concept(2, R, v, result.mi),
        lambda: solve_concept(2, R, values, v),
        lambda: PidResult.build(2, v, result.meta, result.mi),
        lambda: PidResult.build(2, result.atoms, result.meta, v),
        lambda: measure_table_from_atoms(R, 2, v),
    ]
    try:
        hash(v)
    except TypeError:
        return calls
    return calls + [lambda: build_with_mi_key(v), lambda: MeasureAssignment(R, 2, {**values, v: 0.0})]


@settings(max_examples=300, deadline=None)
@given(v=VALUES)
def test_entry_points_succeed_or_raise_pid_errors(v):
    for call in entry_points(v):
        try:
            call()
        except PidError:
            pass


def _result():
    return case()[2]


def _alpha():
    return Antichain.of(2, [0b01])


# (call with a wrong-typed object argument, the ValidationError message it raises)
OBJECT_ARGUMENTS = {
    "decompose": (lambda: decompose(None, R), "dist must be a JointDistribution, got NoneType"),
    "reference_measure": (lambda: reference_measure(None, R), "dist must be a JointDistribution, got NoneType"),
    "mi_table": (lambda: mi_table(None), "dist must be a JointDistribution, got NoneType"),
    "mutual_information": (lambda: mutual_information(None, 1), "dist must be a JointDistribution, got NoneType"),
    "conditional_mi": (lambda: conditional_mi(None, 1, 2), "dist must be a JointDistribution, got NoneType"),
    "save_joint": (lambda: save_joint(None, "unwritten.json"), "dist must be a JointDistribution, got NoneType"),
    "patch_singleton_synergies": (
        lambda: patch_singleton_synergies(2, {}, None), "dist must be a JointDistribution, got NoneType",
    ),
    "verify_consistency result": (lambda: verify_consistency(None), "result must be a PidResult, got NoneType"),
    "verify_consistency dist": (
        lambda: verify_consistency(_result(), 5), "dist must be a JointDistribution, got int",
    ),
    "verify_consistency dict": (
        lambda: verify_consistency(_result(), {}), "dist must be a JointDistribution, got dict",
    ),
    "export_result": (lambda: export_result(None), "result must be a PidResult, got NoneType"),
    "save_result": (lambda: save_result(None, "unwritten.json"), "result must be a PidResult, got NoneType"),
    "derived_measure_table": (lambda: derived_measure_table(None), "result must be a PidResult, got NoneType"),
    "proper_synergy_values result": (
        lambda: proper_synergy_values(None, _alpha()), "result must be a PidResult, got NoneType",
    ),
    "proper_synergy_values alpha": (
        lambda: proper_synergy_values(_result(), [1]), "alpha must be an Antichain, got list",
    ),
    "inclusion_exclusion_check": (
        lambda: inclusion_exclusion_check(_result(), "x"), "alpha must be an Antichain, got str",
    ),
    "lattice_to_dot": (lambda: lattice_to_dot(1), "lattice must be a ConceptLattice, got int"),
    "moebius_invert": (lambda: moebius_invert(1, {}, "down-sum"), "lattice must be a ConceptLattice, got int"),
    "build_lattice node": (
        lambda: build_lattice([1], "redundancy"), "a lattice node must be an Antichain, got int",
    ),
    "build_lattice nodes": (lambda: build_lattice(5, "redundancy"), "lattice nodes must be an iterable, got int"),
    "random_joint seed": (lambda: random_joint(2, "x"), "seed must be a non-negative int, got 'x'"),
    "random_joint negative seed": (lambda: random_joint(2, -1), "seed must be a non-negative int, got -1"),
}


@pytest.mark.parametrize("name", OBJECT_ARGUMENTS)
def test_wrong_typed_object_arguments_raise_validation_errors(name):
    call, message = OBJECT_ARGUMENTS[name]
    with pytest.raises(ValidationError) as refused:
        call()
    assert type(refused.value) is ValidationError
    assert str(refused.value) == message


# (call with a wrong-typed argument or a value outside its lattice, the error it raises)
HELPER_ARGUMENTS = {
    "parse_antichain_label": (lambda: lattices.parse_antichain_label(5, 2), ValidationError),
    "parse_collection_label": (lambda: lattices.parse_collection_label(None, 2), ValidationError),
    "collection_label": (lambda: lattices.collection_label("x"), ValidationError),
    "collection_label negative": (lambda: lattices.collection_label(-1), ValidationError),
    "collection_label bool": (lambda: lattices.collection_label(True), ValidationError),
    "order_leq": (lambda: lattices.order_leq("redundancy", 1, 2), ValidationError),
    "antichain_leq": (lambda: lattices.antichain_leq("redundancy", 1, 2), ValidationError),
    "parthood_leq": (lambda: lattices.parthood_leq(1, 2), ValidationError),
    "in_access_domain": (lambda: lattices.in_access_domain(1), ValidationError),
    "in_blockage_domain": (lambda: lattices.in_blockage_domain(1), ValidationError),
    "condition_holds": (lambda: concepts.condition_holds("x", 1, 2), ValidationError),
    "atom_selector": (lambda: concepts.atom_selector(R, 1), ValidationError),
    "parthood_from_antichain": (lambda: lattices.parthood_from_antichain(1), ValidationError),
    "parthood_from_synergy_antichain": (lambda: lattices.parthood_from_synergy_antichain(1), ValidationError),
    "antichain_from_parthood": (lambda: lattices.antichain_from_parthood(1), ValidationError),
    "synergy_antichain_from_parthood": (lambda: lattices.synergy_antichain_from_parthood(1), ValidationError),
    "minimal_non_subsets": (lambda: lattices.minimal_non_subsets(1), ValidationError),
    "maximal_non_supersets": (lambda: lattices.maximal_non_supersets(1), ValidationError),
    "ConceptLattice.leq non-node": (lambda: case()[3].leq(Antichain(2, ()), _alpha()), DomainError),
    "ConceptLattice.leq non-antichain": (lambda: case()[3].leq(_alpha(), 1), ValidationError),
    "selection_mask": (lambda: concepts.selection_mask(R, _alpha(), ["x"]), ValidationError),
    "selection_mask alpha": (lambda: concepts.selection_mask(R, 1, [2]), ValidationError),
}


@pytest.mark.parametrize("name", HELPER_ARGUMENTS)
def test_helpers_raise_typed_errors(name):
    call, error = HELPER_ARGUMENTS[name]
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error


@pytest.mark.parametrize("n", [2.0, True], ids=["float", "bool"])
def test_domain_source_count_is_checked_before_the_cache(n):
    # the cache key (c, 2.0) equals (c, 2), and (c, True) equals (c, 1)
    for lookup in (domain_for_concept, concepts.domain_members):
        lookup.cache_clear()
        with pytest.raises(CapacityError):  # cold
            lookup(R, n)
        lookup(R, int(n))
        with pytest.raises(CapacityError):  # warm
            lookup(R, n)


def test_a_valid_seed_draws_the_same_table():
    seeds = [0, 7, 2**70, np.int64(3), [1, 2]]
    digests = [random_joint(2, seed).digest() for seed in seeds]
    assert digests == [random_joint(2, seed).digest() for seed in seeds]
    assert len(set(digests)) == len(seeds)


@pytest.mark.parametrize("n", [6, MAX_BOUNDARY_SOURCES])
def test_boundary_objects_are_built_up_to_the_source_cap(n):
    assert SourceSet(n, 1).n == n
    assert Antichain(n, ()).n == n
    assert ParthoodDistribution(n, table_mask(n) ^ 1).n == n  # every collection but the empty one


@pytest.mark.parametrize(
    "make",
    [
        lambda n: SourceSet(n, 1),
        lambda n: SourceSet.from_indices(n, [1]),
        lambda n: Antichain(n, ()),
        lambda n: Antichain.of(n, []),
        lambda n: ParthoodDistribution(n, 2),
    ],
    ids=["SourceSet", "from_indices", "Antichain", "Antichain.of", "ParthoodDistribution"],
)
@pytest.mark.parametrize("n", [MAX_BOUNDARY_SOURCES + 1, 10**20, HUGE], ids=["cap+1", "1e20", "huge"])
def test_boundary_objects_refuse_source_counts_above_the_cap(make, n):
    with pytest.raises(ValidationError, match=f"is above the cap of {MAX_BOUNDARY_SOURCES}$"):
        make(n)


def test_no_repr_of_a_refused_source_count_leaks():
    for make in (lambda: repr(SourceSet(HUGE, 1)), lambda: repr(Antichain(HUGE, ()))):
        with pytest.raises(ValidationError, match="<int too long to print>"):
            make()
