"""Decomposition engine: turn measure values into information atoms.

All work runs on the per-n :class:`~pidlattice.lattices.LatticeIndex`,
and every concept takes one route, read off its grid cell by
:func:`~pidlattice.concepts.concept_facts`.  A partner concept reads its
base through a partner permutation of the antichains; an insufficient
cell (union, vulnerable) is the complement of its sufficient cell against
the total information; and a sufficient cell is a zeta sum over the
lattice of parthood distributions, computed and inverted by
single-collection steps along its covers: a superset cell (redundancy)
sums the atoms above its distribution, a subset cell (weak synergy) those
below.  Unique information reads single atoms.  :func:`solve_concept` runs
one concept's route backward, :func:`~pidlattice.concepts.concept_table`
forward, so a measure table costs only the base transform it reaches.

Atoms, measure values and MI tables travel as float vectors in index
order: atom order for atoms, domain order for a concept's values and
collection bitmask for MI.  Results, measure assignments and
:func:`solve_concept` expose them as read-only mappings onto those
vectors.  Every function here takes its vector from one checked
conversion, :func:`~pidlattice.concepts.index_vector`, which hands back a
view's vector and checks any other mapping once.  Readers count atoms
absent from a mapping as 0; building a result or a measure assignment,
solving and exporting require every key.

One absolute tolerance, ``ENGINE_TOL``, holds atoms to the mutual
information.  :func:`solve_concept` first checks a supplied measure's
single-collection identities (self-redundancy and its counterparts):
only this check sees union at the full collection and vulnerable at
``{}``, which the complement sends to the one antichain its base domain
lacks and the inversion drops.  :meth:`PidResult.build` then refuses
atoms that miss an MI value by more.  README "Tolerances" lists the rest.
"""

from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .concepts import (
    REFERENCE_MEASURE_NAME,
    BaseConcept,
    MI_KEYS,
    MeasureAssignment,
    concept_facts,
    concept_table,
    domain_labels,
    domain_positions,
    index_vector,
    index_view,
    load_measure,
    reference_measure,
    summate,
    values_on_domain,
)
from .distributions import JointDistribution, mi_table
from .errors import (
    CompletenessError,
    DomainError,
    MeasureInconsistencyError,
    ParseError,
    ValidationError,
    expect,
)
from .fileio import number, read_object, render, write_text
from .lattices import (
    MAX_SOURCES,
    Antichain,
    LatticeIndex,
    ParthoodDistribution,
    canonical_collections,
    labeling_refusal,
    lattice_index,
    parse_collection_label,
)

ENGINE_TOL = 1e-9


@dataclass(frozen=True)
class PidMeta:
    concept: str
    measure: str
    digest: str


@dataclass(frozen=True)
class PidResult:
    """A full decomposition: one value per parthood distribution.

    :meth:`build`, :func:`decompose` and :func:`load_result` store the atoms
    as a read-only mapping onto one float vector in atom order, iterating in
    :func:`~pidlattice.lattices.enumerate_parthood_distributions` order, and
    the MI table as one onto a vector by collection bitmask.  A result
    constructed directly keeps the mappings it is given.
    """

    n: int
    atoms: Mapping[ParthoodDistribution, float]
    meta: PidMeta
    mi: Mapping[int, float]

    @classmethod
    def build(
        cls,
        n: int,
        atoms: Mapping[ParthoodDistribution, float],
        meta: PidMeta,
        mi: Mapping[int, float],
    ) -> "PidResult":
        """Construct after checking the atoms reproduce every MI value."""
        atoms, mi = index_vector(None, n, atoms), index_vector(MI_KEYS, n, mi)  # atoms check n
        result = cls(n, index_view(None, n, atoms), meta, index_view(MI_KEYS, n, mi))
        report = verify_consistency(result)
        if not report.passed:
            raise MeasureInconsistencyError(
                "atoms do not reproduce mutual information at "
                f"{report.worst_label}: error {report.worst_error:.3e} > {ENGINE_TOL}"
            )
        return result


@dataclass(frozen=True)
class ConsistencyReport:
    n: int
    tolerance: float
    worst_label: str
    worst_error: float
    errors: Mapping[str, float]
    passed: bool


def verify_consistency(result: PidResult, dist: JointDistribution | None = None) -> ConsistencyReport:
    """Check that atoms marked at each collection sum to its mutual information.

    With a distribution the MI values are recomputed from it; otherwise the
    table stored on the result is used.
    """
    expect(result, PidResult, "result")
    if dist is not None:
        expect(dist, JointDistribution, "dist")
        if dist.n != result.n:
            raise ValidationError("distribution and result disagree on source count")
    mi = result.mi if dist is None else mi_table(dist)
    expected = index_vector(MI_KEYS, result.n, mi).tolist()
    values = index_vector(None, result.n, result.atoms, complete=False)
    marks = lattice_index(result.n).marks
    errors = {}
    worst_label, worst = "", 0.0
    for bits, label in enumerate(domain_labels(MI_KEYS, result.n)):
        err = abs(float(values[marks[bits]].sum()) - expected[bits])
        errors[label] = err
        if err >= worst or math.isnan(err):  # a NaN error is the worst
            worst_label, worst = label, err
    return ConsistencyReport(
        n=result.n,
        tolerance=ENGINE_TOL,
        worst_label=worst_label,
        worst_error=worst,
        errors=errors,
        passed=worst <= ENGINE_TOL,
    )


def _base_transform(index: LatticeIndex, relation: str):
    """A relation's atom labels, zeta sum and its inverse: a superset cell sums
    the atoms below in the redundancy order, a subset cell those above in the
    synergy order."""
    if relation == "superset":
        return index.access_antichain, index.superset_sums, index.invert_superset_sums
    return index.blockage_antichain, index.subset_sums, index.invert_subset_sums


def solve_concept(
    n: int,
    concept: BaseConcept,
    values: Mapping[Antichain, float],
    mi: Mapping[int, float],
) -> Mapping[ParthoodDistribution, float]:
    """Invert one concept's measure values into atoms.

    ``mi`` must give the mutual information for every collection bitmask;
    only the total enters the union/vulnerable complements, the rest feeds
    the single-collection identities, held to ``ENGINE_TOL``.  A partner's
    values move to its base, an insufficient cell's are complemented, and
    the base transform of the relation inverts them (unique information
    reads its atoms directly).  The atoms come back as a read-only mapping
    onto one vector in atom order, like :attr:`PidResult.atoms`.
    """
    vector = index_vector(concept, n, values)
    index = lattice_index(n)
    infos = index_vector(MI_KEYS, n, mi)
    positions = domain_positions(concept, n)
    facts = concept_facts(concept)
    if facts.base is not None:
        positions = index.partner[facts.mapper][positions]
        concept, facts = facts.base, concept_facts(facts.base)
    # Positions outside the domain hold 0.  So the complements below give
    # the total at the one antichain the target domain adds: {} when union
    # becomes weak synergy, the full collection when vulnerable becomes
    # redundancy.
    at = np.zeros(len(index.members))
    at[positions] = vector
    if facts.nested:
        # The single-collection identities: on the access domain a single
        # collection's value is its information, on the blockage domain the rest.
        want = infos if facts.access else infos[-1] - infos
        domain = domain_positions(concept, n)
        singles = domain[(index.members[domain] != 1 << n).sum(axis=1) == 1]
        got, expected = at[singles], want[index.members[singles, 0]]
        bad = np.flatnonzero(np.abs(got - expected) > ENGINE_TOL)
        if bad.size:
            k = bad[0]
            raise MeasureInconsistencyError(
                "atoms do not reproduce mutual information: "
                f"self-{concept.tag} identity violated at {index.labels[singles[k]]}: "
                f"value {float(got[k])!r} vs expected {float(expected[k])!r} "
                f"(tolerance {ENGINE_TOL})"
            )
    if facts.mode == "insufficient":
        at = infos[-1] - at
    labels, _, invert = _base_transform(index, facts.relation)
    atoms = invert(at[labels]) if facts.nested else at[labels]
    return index_view(None, n, atoms)


def decompose(
    dist: JointDistribution,
    concept: BaseConcept,
    measure: str | MeasureAssignment = "reference",
) -> PidResult:
    """Decompose the distribution's total information into atoms.

    ``measure`` is the string ``"reference"``, a MeasureAssignment, or a
    path (``str`` or ``os.PathLike``) to a measure file for the same concept.
    """
    expect(dist, JointDistribution, "dist")
    if not isinstance(measure, (str, os.PathLike, MeasureAssignment)):
        raise ValidationError(
            "measure must be 'reference', a MeasureAssignment or a file path, "
            f"got {type(measure).__name__}"
        )
    nested = concept_facts(concept).nested
    mi = mi_table(dist)
    measured = concept
    if isinstance(measure, str) and measure == "reference":
        measure_name = REFERENCE_MEASURE_NAME
        if not nested:
            # The reference family defines unique information as the atoms of
            # the reference redundancy decomposition.
            measured = BaseConcept.REDUNDANCY
        assignment = reference_measure(dist, measured)
    elif isinstance(measure, MeasureAssignment):
        assignment = measure
        measure_name = "supplied"
    else:
        assignment = load_measure(measure, dist.n)
        measure_name = f"file:{str(measure).rsplit('/', 1)[-1]}"
    if assignment.concept is not measured:
        raise ValidationError(
            f"measure is for {assignment.concept.tag!r}, decomposition asked for {concept.tag!r}"
        )
    if assignment.n != dist.n:
        raise ValidationError("measure and distribution disagree on source count")
    atoms = solve_concept(dist.n, measured, assignment.values, mi)
    meta = PidMeta(concept=concept.tag, measure=measure_name, digest=dist.digest())
    return PidResult.build(dist.n, atoms, meta, mi)


def _forward(n: int, atoms: Mapping[ParthoodDistribution, float]):
    """Concept -> its values on its domain from an atom mapping, along its
    route (:func:`~pidlattice.concepts.concept_table`).  A sufficient cell is
    its relation's base transform of the atoms, or the atoms themselves when
    not nested, and each runs on first use only."""
    index, values = lattice_index(n), index_vector(None, n, atoms, complete=False)
    total = values.sum()

    @functools.cache
    def known(concept: BaseConcept) -> np.ndarray | None:
        facts = concept_facts(concept)
        if facts.mode != "sufficient":
            return None
        labels, zeta, _ = _base_transform(index, facts.relation)
        table = np.zeros(len(index.members))
        table[labels] = zeta(values) if facts.nested else values
        return table

    return lambda concept: values_on_domain(concept, n, concept_table(concept, index, total, known))


def measure_table_from_atoms(
    concept: BaseConcept, n: int, atoms: Mapping[ParthoodDistribution, float]
) -> MeasureAssignment:
    """Evaluate a concept over its whole domain from an atom mapping; absent atoms count as 0."""
    concept_facts(concept)  # DomainError before any work
    return MeasureAssignment(concept, n, _forward(n, atoms)(concept))


def derived_measure_table(result: PidResult) -> dict[tuple[BaseConcept, Antichain], float]:
    """All ten concepts over their domains from the result's atoms, converted once."""
    expect(result, PidResult, "result")
    table = _forward(result.n, result.atoms)
    return {(concept, alpha): v for concept in BaseConcept for alpha, v in table(concept).items()}


@dataclass(frozen=True)
class InclusionExclusionReport:
    alpha: Antichain
    union_value: float
    alternating_sum: float
    error: float
    tolerance: float
    passed: bool


def inclusion_exclusion_check(result: PidResult, alpha: Antichain) -> InclusionExclusionReport:
    """Union information vs the alternating redundancy sum over subsets of alpha.

    :func:`~pidlattice.concepts.summate` refuses an alpha outside the union domain."""
    expect(result, PidResult, "result")
    expect(alpha, Antichain, "alpha")
    union_value = summate(BaseConcept.UNION, alpha, result)
    members = alpha.collections
    acc = 0.0
    for pick in range(1, 1 << len(members)):
        subset = [members[i] for i in range(len(members)) if (pick >> i) & 1]
        sign = -1.0 if len(subset) % 2 == 0 else 1.0
        acc += sign * summate(BaseConcept.REDUNDANCY, Antichain(result.n, tuple(subset)), result)
    tol = ENGINE_TOL * (1 << len(members))
    err = abs(union_value - acc)
    return InclusionExclusionReport(
        alpha=alpha,
        union_value=union_value,
        alternating_sum=acc,
        error=err,
        tolerance=tol,
        passed=err <= tol,
    )


def proper_synergy_values(result: PidResult, alpha: Antichain) -> float:
    """Sum of atoms first reachable at exactly the union of alpha's collections.

    Collects atoms marking the union while marking no proper subset of it.
    Depends on alpha only through the union.  The empty union is rejected:
    the value there is identically zero by the parthood axioms, so asking
    for it is almost surely a mistake.
    """
    expect(result, PidResult, "result")
    expect(alpha, Antichain, "alpha")
    if alpha.n != result.n:
        raise DomainError("antichain and result disagree on source count")
    union = functools.reduce(int.__or__, alpha.masks, 0)
    if union == 0:
        raise DomainError(
            "proper synergy at an empty union is identically zero by the parthood "
            "axioms; supply a non-empty union"
        )
    values = index_vector(None, result.n, result.atoms, complete=False)
    acc = 0.0
    for v in values[_first_reached_at(union, lattice_index(result.n))].tolist():  # not numpy's pairwise sum
        acc += v
    return acc


def _first_reached_at(union: int, index: LatticeIndex) -> np.ndarray:
    """Proper-synergy selector: which atoms mark the union and no proper subset of it."""
    strict_down = sum(1 << s for s in range(union) if s & ~union == 0)
    return index.marks[union] & (index.atom_tables & np.uint64(strict_down) == 0)


@dataclass(frozen=True)
class RankAnalysis:
    n: int
    unknowns: int
    consistency_rank: int
    combined_rank: int
    novel_constraints: int
    deficit: int


def _exact_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free integer elimination."""
    mat = [list(r) for r in rows if any(r)]
    rank = 0
    col_count = len(rows[0]) if rows else 0
    col = 0
    while mat and col < col_count:
        pivot_row = None
        for i, r in enumerate(mat):
            if r[col]:
                pivot_row = i
                break
        if pivot_row is None:
            col += 1
            continue
        pivot = mat.pop(pivot_row)
        p = pivot[col]
        reduced = []
        for r in mat:
            if r[col]:
                f = r[col]
                r = [rv * p - pv * f for rv, pv in zip(r, pivot)]
                g = math.gcd(*(abs(x) for x in r)) or 1
                r = [x // g for x in r]
            if any(r):
                reduced.append(r)
        mat = reduced
        rank += 1
        col += 1
    return rank


def proper_synergy_rank_analysis(n: int) -> RankAnalysis:
    """How far proper synergy constraints go toward pinning down the atoms.

    Builds the linear system whose unknowns are the atoms: one consistency
    row per non-empty collection (atoms marking it sum to its MI) and one
    proper-synergy row per non-empty union.  Ranks are computed exactly in
    integer arithmetic.
    """
    index = lattice_index(n)
    unknowns = len(index.atom_tables)
    consistency_rows = index.marks[1:].astype(int).tolist()
    synergy_rows = [_first_reached_at(union, index).astype(int).tolist() for union in range(1, 1 << n)]
    consistency_rank = _exact_rank(consistency_rows)
    combined_rank = _exact_rank(consistency_rows + synergy_rows)
    return RankAnalysis(
        n=n,
        unknowns=unknowns,
        consistency_rank=consistency_rank,
        combined_rank=combined_rank,
        novel_constraints=combined_rank - consistency_rank,
        deficit=unknowns - combined_rank,
    )


def export_result(result: PidResult) -> dict:
    """JSON-ready form: atoms carry both antichain labelings, sorted by the
    access label; the MI table rides along so files can be re-verified.
    A NaN or infinite value is refused, as JSON has no such number."""
    expect(result, PidResult, "result")
    mi = index_vector(MI_KEYS, result.n, result.mi)
    values = index_vector(None, result.n, result.atoms)
    if not (np.isfinite(mi).all() and np.isfinite(values).all()):
        raise ValidationError("a non-finite atom or MI value cannot be exported")
    mi, values = mi.tolist(), values.tolist()
    names = domain_labels(MI_KEYS, result.n)
    mi_obj = {names[bits]: mi[bits] for bits in canonical_collections(result.n)}
    index = lattice_index(result.n)
    order = np.argsort(index.export_rank).tolist()
    labels = index.labels
    access = index.access_antichain.tolist()
    blockage = index.blockage_antichain.tolist()
    rows = [
        {"alpha": labels[access[k]], "alpha_tilde": labels[blockage[k]], "value": values[k]}
        for k in order
    ]
    return {
        "n": result.n,
        "concept": result.meta.concept,
        "measure": result.meta.measure,
        "distribution_digest": result.meta.digest,
        "mi": mi_obj,
        "atoms": rows,
    }


def save_result(result: PidResult, path) -> None:
    write_text(path, render(export_result(result)))


def load_result(path) -> PidResult:
    """Read a result file back; the stored MI table is trusted as-is.

    The file's concept must be a concept tag, its measure a string and its
    distribution digest 64 lowercase hex digits, or ParseError.
    """
    fields = ("n", "concept", "measure", "distribution_digest", "mi", "atoms")
    doc = read_object(path, "result file", fields)
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError("field 'n' must be an int")
    if not 1 <= n <= MAX_SOURCES:
        raise ParseError(f"field 'n' must lie in 1..{MAX_SOURCES}, got {n}")
    if not isinstance(doc["mi"], dict):
        raise ParseError("field 'mi' must be an object of collection labels to numbers")
    if not isinstance(doc["atoms"], list):
        raise ParseError("field 'atoms' must be a list of atom rows")
    mi = {parse_collection_label(k, n): number(v, f"MI at {k!r}") for k, v in doc["mi"].items()}
    try:
        mi = index_view(MI_KEYS, n, index_vector(MI_KEYS, n, mi))
    except CompletenessError as exc:  # a gap in a file is a parse error
        raise ParseError(f"result file's MI table: {exc}") from None
    index = lattice_index(n)
    values = np.zeros(len(index.atom_tables))
    seen = np.zeros(len(values), dtype=bool)
    for row in doc["atoms"]:
        if not isinstance(row, dict) or not isinstance(row.get("alpha"), str) or "value" not in row:
            raise ParseError(f"atom row {row!r} must be an object with an 'alpha' label and a 'value'")
        label = row["alpha"]
        j = int(index.access_atom[index.label_position(label)])
        if j < 0:
            raise labeling_refusal(label, access=True)
        expect_tilde = index.labels[index.blockage_antichain[j]]
        if row.get("alpha_tilde") != expect_tilde:
            raise ParseError(
                f"atom {row['alpha']!r} pairs with {expect_tilde!r}, file says "
                f"{row.get('alpha_tilde')!r}"
            )
        if seen[j]:
            raise ParseError(f"duplicate atom {row['alpha']!r}")
        seen[j] = True
        values[j] = number(row["value"], f"value of atom {row['alpha']!r}")
    if not seen.all():
        raise ParseError("result file does not cover all atoms")
    return PidResult(n=n, atoms=index_view(None, n, values), meta=_file_meta(doc), mi=mi)


def _file_meta(doc: dict) -> PidMeta:
    """A result file's metadata: a concept tag, a measure name and a SHA-256 hex digest.

    Checked here only: a :class:`PidMeta` built in code may hold any strings.
    """
    try:
        BaseConcept.from_tag(doc["concept"])
    except DomainError as exc:
        raise ParseError(f"field 'concept': {exc}") from None
    if not isinstance(doc["measure"], str):
        raise ParseError(f"field 'measure' must be a string, got {type(doc['measure']).__name__}")
    digest = doc["distribution_digest"]
    if not isinstance(digest, str) or not re.fullmatch("[0-9a-f]{64}", digest):
        raise ParseError("field 'distribution_digest' must be 64 lowercase hex digits")
    return PidMeta(concept=doc["concept"], measure=doc["measure"], digest=digest)

