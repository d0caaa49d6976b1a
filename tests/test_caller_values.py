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

A hypothesis test then drives every export, one row of calls each, with
arbitrary values; a path argument may also raise the operating system's
``OSError``.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pidlattice
from pidlattice import (
    CONDITION_IDS,
    MAX_SOURCES,
    Antichain,
    BaseConcept,
    CapacityError,
    ConceptLattice,
    CompletenessError,
    ConsistencyReport,
    InclusionExclusionReport,
    JointDistribution,
    MeasureAssignment,
    ParthoodDistribution,
    PidError,
    PidMeta,
    PidResult,
    RankAnalysis,
    SourceSet,
    ValidationError,
    antichain_from_parthood,
    antichain_leq,
    atom_selector,
    build_lattice,
    canonicalize_collections,
    collection_label,
    concept_lattice,
    condition_holds,
    conditional_mi,
    decompose,
    derived_measure_table,
    domain_for_concept,
    enumerate_antichains,
    enumerate_parthood_distributions,
    export_result,
    grid_condition,
    in_access_domain,
    in_blockage_domain,
    inclusion_exclusion_check,
    lattice_to_dot,
    load_joint,
    load_measure,
    load_result,
    maximal_non_supersets,
    measure_table_from_atoms,
    mi_table,
    minimal_non_subsets,
    moebius_invert,
    mutual_information,
    order_leq,
    parse_antichain_label,
    parse_collection_label,
    parthood_from_antichain,
    parthood_from_synergy_antichain,
    parthood_leq,
    patch_singleton_synergies,
    proper_synergy_rank_analysis,
    proper_synergy_values,
    random_joint,
    reference_measure,
    save_joint,
    save_measure,
    save_result,
    selection_mask,
    solve_concept,
    summate,
    synergy_antichain_from_parthood,
    verify_consistency,
)
from pidlattice import concepts, lattices
from pidlattice.errors import DomainError, ParseError
from pidlattice.distributions import MAX_CELLS
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
    # numpy values: an array is no str, however many strings it holds, and no int
    | st.sampled_from(
        [
            np.array(["redundancy", "synergy"]),
            *(
                np.array([option])
                for option in (
                    "redundancy", "json", "down-sum", "union", "up", "full-lattice", "sufficient-superset-inclusion",
                )
            ),
            np.array(2),
            np.array([1, 2]),
            np.str_("redundancy"),
            np.int64(2),
            np.float64(0.5),
        ]
    )
)
HASHABLE = st.none() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
VALUES = LEAVES | st.lists(LEAVES, max_size=3) | st.dictionaries(HASHABLE, LEAVES, max_size=3)


def path_of(v, files):
    """``v`` as a path argument: text names a file under ``files``, anything else goes as it is."""
    return files / ("f" + v) if isinstance(v, str) else v


def small(v, top):
    """``v``, but 2 for an int in 3..top, in a list too: a valid size that large costs seconds or memory."""
    if isinstance(v, list):
        return [small(x, top) for x in v]
    return 2 if type(v) is int and 3 <= v <= top else v


# The exports that open a file: a path argument may raise the operating system's OSError.
FILE_EXPORTS = {"decompose", "load_joint", "load_measure", "load_result", "save_joint", "save_measure", "save_result"}


def entry_points(v, files):
    """Export name -> calls of it with ``v`` in one argument; files live under ``files``."""
    dist, values, result, lattice = case()
    alpha = next(iter(values))
    f = next(iter(result.atoms))
    measure = MeasureAssignment(R, 2, values)
    at = path_of(v, files)
    rows = {
        "Antichain": [
            lambda: Antichain(v, ()),
            lambda: Antichain(2, v),
            lambda: Antichain.of(2, v),
            lambda: Antichain.of(2, [v]),
        ],
        "BaseConcept": [lambda: BaseConcept.from_tag(v)],
        "ConceptLattice": [
            lambda: lattice.leq(v, alpha),
            lambda: lattice.leq(alpha, v),
            lambda: lattice_to_dot(dataclasses.replace(lattice, nodes=v)),
            lambda: lattice_to_dot(dataclasses.replace(lattice, order_kind=v)),
            lambda: lattice_to_dot(dataclasses.replace(lattice, direction=v)),
            lambda: lattice_to_dot(dataclasses.replace(lattice, kind=v)),
            lambda: lattice_to_dot(dataclasses.replace(lattice, tables=v)),
            lambda: lattice_to_dot(dataclasses.replace(lattice, covers=v)),
        ],
        "ConsistencyReport": [lambda: ConsistencyReport(v, 0.0, "", 0.0, {}, True)],
        "InclusionExclusionReport": [lambda: InclusionExclusionReport(v, 0.0, 0.0, 0.0, 0.0, True)],
        "JointDistribution": [
            lambda: JointDistribution(v, 2, {(0, 0): 1.0}),
            lambda: JointDistribution((2,), v, {(0, 0): 1.0}),
            lambda: JointDistribution((2,), 2, v),
            lambda: JointDistribution((2,), 2, {(0, 0): v}),
        ],
        "MeasureAssignment": [
            lambda: MeasureAssignment(v, 2, values),
            lambda: MeasureAssignment(R, v, values),
            lambda: MeasureAssignment(R, 2, v),
            lambda: MeasureAssignment(R, 2, {**values, alpha: v}),
        ],
        "ParthoodDistribution": [
            lambda: ParthoodDistribution(v, 2),
            lambda: ParthoodDistribution(2, v),
            lambda: f.value(v),
        ],
        "PidMeta": [lambda: PidMeta(v, "m", "0" * 64)],
        "PidResult": [
            lambda: PidResult.build(v, result.atoms, result.meta, result.mi),
            lambda: PidResult.build(2, v, result.meta, result.mi),
            lambda: PidResult.build(2, result.atoms, result.meta, v),
            lambda: verify_consistency(PidResult(2, v, result.meta, result.mi)),
        ],
        "RankAnalysis": [lambda: RankAnalysis(v, 0, 0, 0, 0, 0)],
        "SourceSet": [
            lambda: SourceSet(2, v),
            lambda: SourceSet(v, 1),
            lambda: SourceSet.from_indices(v, ["a"]),
            lambda: SourceSet.from_indices(2, v),
            lambda: SourceSet.from_indices(2, [v]),
        ],
        "antichain_from_parthood": [lambda: antichain_from_parthood(v)],
        "antichain_leq": [lambda: antichain_leq(v, alpha, alpha), lambda: antichain_leq("redundancy", alpha, v)],
        "atom_selector": [lambda: atom_selector(v, alpha), lambda: atom_selector(R, v)],
        "build_lattice": [
            lambda: build_lattice(v, "redundancy"),
            lambda: build_lattice([v], "redundancy"),
            lambda: build_lattice([alpha], v),
            lambda: build_lattice([alpha], "redundancy", v),
        ],
        "canonicalize_collections": [
            lambda: canonicalize_collections(v, [1], 2),
            lambda: canonicalize_collections(R, v, 2),
            lambda: canonicalize_collections(R, [v], 2),
            lambda: canonicalize_collections(R, [1], v),
        ],
        "collection_label": [lambda: collection_label(v)],
        "concept_lattice": [lambda: concept_lattice(v, 2), lambda: concept_lattice(R, small(v, MAX_SOURCES))],
        "condition_holds": [
            lambda: condition_holds(v, alpha, f),
            lambda: condition_holds(CONDITION_IDS[0], v, f),
            lambda: condition_holds(CONDITION_IDS[0], alpha, v),
        ],
        "conditional_mi": [lambda: conditional_mi(dist, v, 1), lambda: conditional_mi(dist, 1, v)],
        "decompose": [lambda: decompose(v, R), lambda: decompose(dist, v), lambda: decompose(dist, R, at)],
        "derived_measure_table": [lambda: derived_measure_table(v)],
        "domain_for_concept": [lambda: domain_for_concept(v, 2), lambda: domain_for_concept(R, v)],
        "enumerate_antichains": [lambda: enumerate_antichains(v)],
        "enumerate_parthood_distributions": [lambda: enumerate_parthood_distributions(v)],
        "export_result": [lambda: export_result(v)],
        "grid_condition": [lambda: grid_condition(v, alpha), lambda: grid_condition(CONDITION_IDS[0], v)],
        "in_access_domain": [lambda: in_access_domain(v)],
        "in_blockage_domain": [lambda: in_blockage_domain(v)],
        "inclusion_exclusion_check": [
            lambda: inclusion_exclusion_check(v, alpha),
            lambda: inclusion_exclusion_check(result, v),
        ],
        "lattice_to_dot": [lambda: lattice_to_dot(v)],
        "load_joint": [lambda: load_joint(at), lambda: load_joint(files / "dist.json", v)],
        "load_measure": [lambda: load_measure(at, 2), lambda: load_measure(files / "measure.json", v)],
        "load_result": [lambda: load_result(at)],
        "maximal_non_supersets": [lambda: maximal_non_supersets(v)],
        "measure_table_from_atoms": [
            lambda: measure_table_from_atoms(v, 2, result.atoms),
            lambda: measure_table_from_atoms(R, v, result.atoms),
            lambda: measure_table_from_atoms(R, 2, v),
        ],
        "mi_table": [lambda: mi_table(v)],
        "minimal_non_subsets": [lambda: minimal_non_subsets(v)],
        "moebius_invert": [
            lambda: moebius_invert(v, {}, "down-sum"),
            lambda: moebius_invert(lattice, v, "down-sum"),
            lambda: moebius_invert(lattice, {node: 0.0 for node in lattice.nodes}, v),
            lambda: moebius_with(v),
        ],
        "mutual_information": [lambda: mutual_information(v, 1), lambda: mutual_information(dist, v)],
        "order_leq": [lambda: order_leq(v, alpha, alpha), lambda: order_leq("redundancy", v, alpha)],
        "parse_antichain_label": [lambda: parse_antichain_label(v, 2), lambda: parse_antichain_label("{1}", v)],
        "parse_collection_label": [lambda: parse_collection_label(v, 2), lambda: parse_collection_label("{1}", v)],
        "parthood_from_antichain": [lambda: parthood_from_antichain(v)],
        "parthood_from_synergy_antichain": [lambda: parthood_from_synergy_antichain(v)],
        "parthood_leq": [lambda: parthood_leq(v, f), lambda: parthood_leq(f, v)],
        "patch_singleton_synergies": [
            lambda: patch_singleton_synergies(v, {}, dist),
            lambda: patch_singleton_synergies(2, v, dist),
            lambda: patch_singleton_synergies(2, {}, v),
        ],
        "proper_synergy_rank_analysis": [lambda: proper_synergy_rank_analysis(small(v, MAX_SOURCES))],
        "proper_synergy_values": [lambda: proper_synergy_values(v, alpha), lambda: proper_synergy_values(result, v)],
        "random_joint": [
            lambda: random_joint(v, 0),
            lambda: random_joint(2, v),
            lambda: random_joint(2, 0, small(v, MAX_CELLS)),
            lambda: random_joint(2, 0, None, small(v, MAX_CELLS)),
        ],
        "reference_measure": [lambda: reference_measure(v, R), lambda: reference_measure(dist, v)],
        "save_joint": [lambda: save_joint(v, files / "out.json"), lambda: save_joint(dist, at)],
        "save_measure": [lambda: save_measure(v, files / "out.json"), lambda: save_measure(measure, at)],
        "save_result": [lambda: save_result(v, files / "out.json"), lambda: save_result(result, at)],
        "selection_mask": [
            lambda: selection_mask(v, alpha, [2]),
            lambda: selection_mask(R, v, [2]),
            lambda: selection_mask(R, alpha, v),
        ],
        "solve_concept": [
            lambda: solve_concept(v, R, values, result.mi),
            lambda: solve_concept(2, v, values, result.mi),
            lambda: solve_concept(2, R, v, result.mi),
            lambda: solve_concept(2, R, values, v),
        ],
        "summate": [lambda: summate(v, [1], result), lambda: summate(R, v, result), lambda: summate(R, [1], v)],
        "synergy_antichain_from_parthood": [lambda: synergy_antichain_from_parthood(v)],
        "verify_consistency": [lambda: verify_consistency(v), lambda: verify_consistency(result, v)],
    }
    try:
        hash(v)
    except TypeError:
        return rows
    rows["PidResult"].append(lambda: build_with_mi_key(v))
    rows["MeasureAssignment"].append(lambda: MeasureAssignment(R, 2, {**values, v: 0.0}))
    return rows


def exported_callables():
    """The names ``pidlattice`` exports that can be called, its exception types aside."""
    exports = {name: obj for name, obj in vars(pidlattice).items() if not name.startswith("_")}
    errors = {name for name, obj in exports.items() if isinstance(obj, type) and issubclass(obj, Exception)}
    return {name for name, obj in exports.items() if callable(obj)} - errors


def test_every_export_has_a_row():
    assert set(entry_points(None, None)) == exported_callables()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding one distribution and one measure file, for the loaders' other arguments."""
    files = tmp_path_factory.mktemp("entry-points")
    dist, values, _, _ = case()
    save_joint(dist, files / "dist.json")
    save_measure(MeasureAssignment(R, 2, values), files / "measure.json")
    return files


@settings(max_examples=300, deadline=None)
@given(v=VALUES)
def test_entry_points_succeed_or_raise_pid_errors(files, v):
    for name, calls in entry_points(v, files).items():
        for call in calls:
            try:
                call()
            except PidError:
                pass
            except OSError:
                assert name in FILE_EXPORTS


def _result():
    return case()[2]


def _alpha():
    return Antichain.of(2, [0b01])


def _lattice(**fields):
    """The n = 2 redundancy lattice with some fields replaced."""
    return dataclasses.replace(case()[3], **fields)


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
    "save_measure": (
        lambda: save_measure(None, "unwritten.json"), "measure must be a MeasureAssignment, got NoneType",
    ),
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
    "parse_collection_label n": (lambda: lattices.parse_collection_label("{1}", None), ValidationError),
    "parse_collection_label float n": (lambda: lattices.parse_collection_label("{1}", 2.0), ValidationError),
    "parse_collection_label n above the cap": (lambda: lattices.parse_collection_label("{1}", 9), ValidationError),
    "parse_collection_label out of range": (lambda: lattices.parse_collection_label("{4}", 3), ParseError),
    "parse_antichain_label n": (lambda: lattices.parse_antichain_label("{1}", None), ValidationError),
    "ParthoodDistribution.value str": (lambda: ParthoodDistribution(2, 0b1110).value("x"), ValidationError),
    "ParthoodDistribution.value negative": (lambda: ParthoodDistribution(2, 0b1110).value(-1), ValidationError),
    "ParthoodDistribution.value bool": (lambda: ParthoodDistribution(2, 0b1110).value(True), ValidationError),
    "ParthoodDistribution.value out of range": (lambda: ParthoodDistribution(2, 0b1110).value(99), ValidationError),
    "ParthoodDistribution.value other n": (
        lambda: ParthoodDistribution(2, 0b1110).value(SourceSet(3, 1)), ValidationError,
    ),
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
    "ConceptLattice int node": (
        lambda: lattice_to_dot(ConceptLattice((1,), "redundancy", "up", "full-lattice", (0,), ((),))),
        ValidationError,
    ),
    "ConceptLattice node list": (lambda: _lattice(nodes=list(case()[3].nodes)), ValidationError),
    "ConceptLattice no nodes": (lambda: _lattice(nodes=(), tables=(), covers=()), ValidationError),
    "ConceptLattice mixed n": (
        lambda: _lattice(nodes=(_alpha(), Antichain.of(3, [1]), *case()[3].nodes[2:])), ValidationError,
    ),
    "ConceptLattice duplicate node": (lambda: _lattice(nodes=(_alpha(),) * len(case()[3].nodes)), ValidationError),
    "ConceptLattice order kind": (lambda: _lattice(order_kind="x"), DomainError),
    "ConceptLattice direction": (lambda: _lattice(direction=None), DomainError),
    "ConceptLattice kind": (lambda: _lattice(kind="lattice"), DomainError),
    "ConceptLattice kind array": (lambda: _lattice(kind=np.array(["x", "y"])), DomainError),
    "build_lattice order kind array": (
        lambda: build_lattice(case()[3].nodes, np.array(["redundancy", "synergy"])), DomainError,
    ),
    # a one-element array of a valid option is refused at every option site
    "ConceptLattice order kind one-element array": (
        lambda: _lattice(order_kind=np.array(["redundancy"])), DomainError,
    ),
    "ConceptLattice direction one-element array": (lambda: _lattice(direction=np.array(["up"])), DomainError),
    "ConceptLattice kind one-element array": (lambda: _lattice(kind=np.array(["full-lattice"])), DomainError),
    "build_lattice direction one-element array": (
        lambda: build_lattice(case()[3].nodes, "redundancy", np.array(["up"])), DomainError,
    ),
    "antichain_leq one-element array": (
        lambda: antichain_leq(np.array(["redundancy"]), _alpha(), _alpha()), DomainError,
    ),
    "order_leq one-element array": (lambda: order_leq(np.array(["redundancy"]), _alpha(), _alpha()), DomainError),
    "order_leq kind list": (lambda: order_leq(["redundancy"], _alpha(), Antichain.of(2, [0b11])), DomainError),
    "moebius_invert one-element array": (
        lambda: moebius_invert(case()[3], {node: 0.0 for node in case()[3].nodes}, np.array(["down-sum"])),
        DomainError,
    ),
    "condition_holds one-element array": (
        lambda: condition_holds(np.array(CONDITION_IDS[:1]), _alpha(), ParthoodDistribution(2, 0b1110)),
        DomainError,
    ),
    "grid_condition one-element array": (lambda: grid_condition(np.array(CONDITION_IDS[:1]), _alpha()), DomainError),
    "BaseConcept.from_tag one-element array": (lambda: BaseConcept.from_tag(np.array(["union"])), DomainError),
    "load_joint format one-element array": (lambda: load_joint("unread.json", np.array(["json"])), ParseError),
    # the key set of a view is checked before a mapping is compared with it
    "solve_concept n array": (
        lambda: solve_concept(np.array([2, 2]), R, case()[1], _result().mi), CapacityError,
    ),
    "PidResult.build n array": (
        lambda: PidResult.build(np.array([2, 2]), _result().atoms, _result().meta, _result().mi), CapacityError,
    ),
    "MeasureAssignment n array": (lambda: MeasureAssignment(R, np.array([2, 2]), case()[1]), CapacityError),
    "random_joint alphabets 0-d array": (lambda: random_joint(2, 0, np.array(2)), ValidationError),
    "ConceptLattice tables None": (lambda: _lattice(tables=None), ValidationError),
    "ConceptLattice tables short": (lambda: _lattice(tables=case()[3].tables[1:]), ValidationError),
    "ConceptLattice table past the mask": (
        lambda: _lattice(tables=(table_mask(2) + 1,) * len(case()[3].nodes)), ValidationError,
    ),
    "ConceptLattice table bool": (lambda: _lattice(tables=(True,) * len(case()[3].nodes)), ValidationError),
    "ConceptLattice covers None": (lambda: _lattice(covers=None), ValidationError),
    "ConceptLattice cover 99": (lambda: _lattice(covers=((99,),) * len(case()[3].nodes)), ValidationError),
    "ConceptLattice cover list": (lambda: _lattice(covers=([],) * len(case()[3].nodes)), ValidationError),
    "selection_mask": (lambda: concepts.selection_mask(R, _alpha(), ["x"]), ValidationError),
    "selection_mask ragged": (lambda: concepts.selection_mask(R, _alpha(), [[1], 2]), ValidationError),
    "selection_mask alpha": (lambda: concepts.selection_mask(R, 1, [2]), ValidationError),
    "selection_mask negative": (lambda: concepts.selection_mask(R, _alpha(), [-1]), ValidationError),
}


@pytest.mark.parametrize("name", HELPER_ARGUMENTS)
def test_helpers_raise_typed_errors(name):
    call, error = HELPER_ARGUMENTS[name]
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error


# Every public call whose source count keys a per-n lru cache.
PER_N_CALLS = {
    "domain_for_concept": lambda n: domain_for_concept(R, n),
    "domain_members": lambda n: concepts.domain_members(R, n),
    "enumerate_antichains": enumerate_antichains,
    "enumerate_parthood_distributions": enumerate_parthood_distributions,
    "lattice_index": lattices.lattice_index,
    "proper_synergy_rank_analysis": proper_synergy_rank_analysis,
    "domain_labels": lambda n: concepts.domain_labels(R, n),
    "domain_positions": lambda n: concepts.domain_positions(R, n),
}
PER_N_CACHES = (
    domain_for_concept,
    concepts.domain_members,
    enumerate_antichains,
    enumerate_parthood_distributions,
    lattices.lattice_index,
)


@pytest.mark.parametrize("n", [2.0, True, [], {}], ids=["float", "bool", "list", "dict"])
def test_domain_source_count_is_checked_before_the_cache(n):
    # [] and {} have no hash; the key (c, 2.0) equals (c, 2), and (c, True) equals (c, 1)
    for name, call in PER_N_CALLS.items():
        for cache in PER_N_CACHES:
            cache.cache_clear()
        with pytest.raises(CapacityError):  # cold
            call(n)
        call(1)
        call(2)
        with pytest.raises(CapacityError):  # warm
            call(n)


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
