"""Decomposition engine: turn measure values into information atoms.

All work runs on the per-n :class:`~pidlattice.lattices.LatticeIndex`.
A redundancy value is the sum of the atoms whose truth tables contain its
distribution's table, a weak-synergy value the sum of those whose tables
lie inside it: the two zeta sums over the lattice of parthood
distributions, each computed and inverted by single-collection steps
along the lattice's covers.  Union and vulnerable information are
complements of those two against the total information, and each partner
concept reads its base concept's value through a partner permutation of
the antichains.  So every concept funnels into one of the two inversions
(or, for unique information, directly into single atoms), and every
measure table comes out of the two forward sums.

Externally supplied measures are screened first: the single-collection
boundary identities (self-redundancy and friends) must hold to 1e-7 or the
engine refuses to invert.  A passing preflight does not certify the
summation identities: :meth:`PidResult.build` then refuses any atom table
that misses a mutual-information value by more than 1e-9.  Measures that
are internally consistent (the reference family, or tables generated from
an atom vector) reproduce exactly; a file whose single-collection values
are off by more than 1e-9 but less than 1e-7 passes the preflight and is
refused at build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .concepts import (
    COMPLEMENT_OF,
    PARTNER_TO_BASE,
    REFERENCE_MEASURE_NAME,
    BaseConcept,
    MeasureAssignment,
    derive_tables,
    domain_members,
    domain_positions,
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
)
from .fileio import number, read_object, render, write_text
from .lattices import (
    MAX_SOURCES,
    Antichain,
    LatticeIndex,
    ParthoodDistribution,
    collection_label,
    enumerate_parthood_distributions,
    lattice_index,
    parse_collection_label,
)

ENGINE_TOL = 1e-9
PREFLIGHT_TOL = 1e-7


@dataclass(frozen=True)
class PidMeta:
    concept: str
    measure: str
    digest: str


@dataclass(frozen=True)
class PidResult:
    """A full decomposition: one value per parthood distribution."""

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
        expected_keys = enumerate_parthood_distributions(n)
        if set(atoms) != set(expected_keys):
            raise CompletenessError("atom table does not cover all parthood distributions")
        ordered = {f: float(atoms[f]) for f in expected_keys}
        result = cls(n=n, atoms=ordered, meta=meta, mi=dict(mi))
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
    if dist is not None:
        if dist.n != result.n:
            raise ValidationError("distribution and result disagree on source count")
        expected = mi_table(dist)
    else:
        expected = dict(result.mi)
    tables = np.array([f.table for f in result.atoms], dtype=np.uint64)
    values = np.array(list(result.atoms.values()), dtype=np.float64)
    errors = {}
    worst_label, worst = "", 0.0
    for bits in range(1 << result.n):
        marked = ((tables >> np.uint64(bits)) & np.uint64(1)) == 1
        got = float(values[marked].sum())
        err = abs(got - expected[bits])
        label = collection_label(bits)
        errors[label] = err
        if err >= worst:
            worst_label, worst = label, err
    return ConsistencyReport(
        n=result.n,
        tolerance=ENGINE_TOL,
        worst_label=worst_label,
        worst_error=worst,
        errors=errors,
        passed=worst <= ENGINE_TOL,
    )


def _preflight_boundary(
    concept: BaseConcept, index: LatticeIndex, values: np.ndarray, infos: np.ndarray
) -> None:
    """Refuse to invert when a single-collection identity is violated.

    ``values`` holds the concept's value at every antichain position and
    ``infos`` the mutual information of every collection.
    """
    if concept in (BaseConcept.REDUNDANCY, BaseConcept.UNION):
        want = infos
    elif concept in (BaseConcept.WEAK_SYNERGY, BaseConcept.VULNERABLE):
        want = infos[-1] - infos
    else:
        return
    domain = domain_positions(concept, index.n)
    singles = domain[(index.members[domain] != 1 << index.n).sum(axis=1) == 1]
    got, expected = values[singles], want[index.members[singles, 0]]
    bad = np.flatnonzero(np.abs(got - expected) > PREFLIGHT_TOL)
    if bad.size:
        k = bad[0]
        raise MeasureInconsistencyError(
            f"self-{concept.tag} identity violated at {index.labels[singles[k]]}: "
            f"value {float(got[k])!r} vs expected {float(expected[k])!r} "
            f"(tolerance {PREFLIGHT_TOL})"
        )


def solve_concept(
    n: int,
    concept: BaseConcept,
    values: Mapping[Antichain, float],
    mi: Mapping[int, float],
) -> dict[ParthoodDistribution, float]:
    """Invert one concept's measure values into atoms.

    ``mi`` must give the mutual information for every collection bitmask;
    only the total enters the union/vulnerable complements, the rest feeds
    the preflight identities.
    """
    assignment = MeasureAssignment(concept, n, values)
    index = lattice_index(n)
    infos = np.array([mi[bits] for bits in range(1 << n)], dtype=np.float64)
    positions = domain_positions(concept, n)
    if concept in PARTNER_TO_BASE:
        concept, mapper = PARTNER_TO_BASE[concept]
        positions = index.partner[mapper][positions]
    # Positions outside the domain hold 0.  So the complements below give
    # the total at the one antichain the target domain adds: {} when union
    # becomes weak synergy, the full collection when vulnerable becomes
    # redundancy.
    at = np.zeros(len(index.antichains))
    at[positions] = list(assignment.values.values())

    _preflight_boundary(concept, index, at, infos)

    if concept in COMPLEMENT_OF:
        at, concept = infos[-1] - at, COMPLEMENT_OF[concept]

    if concept is BaseConcept.UNIQUE:
        atoms = at[index.access_antichain]
    elif concept is BaseConcept.UNIQUE_PARTNER:
        atoms = at[index.blockage_antichain]
    elif concept is BaseConcept.REDUNDANCY:
        # value at alpha sums atoms at or below in the redundancy order
        atoms = index.invert_superset_sums(at[index.access_antichain])
    elif concept is BaseConcept.WEAK_SYNERGY:
        # value at alpha sums atoms at or above in the synergy order
        atoms = index.invert_subset_sums(at[index.blockage_antichain])
    else:
        raise DomainError(f"unknown concept {concept!r}")
    return dict(zip(enumerate_parthood_distributions(n), atoms.tolist()))


def decompose(
    dist: JointDistribution,
    concept: BaseConcept,
    measure: str | MeasureAssignment = "reference",
) -> PidResult:
    """Decompose the distribution's total information into atoms.

    ``measure`` is the string ``"reference"``, a MeasureAssignment, or a
    path to a measure file for the same concept.
    """
    mi = mi_table(dist)
    measured = concept
    if isinstance(measure, str) and measure == "reference":
        measure_name = REFERENCE_MEASURE_NAME
        if concept in (BaseConcept.UNIQUE, BaseConcept.UNIQUE_PARTNER):
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


def _atom_vector(index: LatticeIndex, atoms: Mapping[ParthoodDistribution, float]) -> np.ndarray:
    """Atom values in the index's atom order; atoms absent from the mapping count as 0."""
    tables = np.fromiter((f.table for f in atoms), dtype=np.uint64, count=len(atoms))
    out = np.zeros(len(index.atom_tables))
    out[index.atom_positions(tables)] = np.fromiter(
        (float(v) for v in atoms.values()), dtype=np.float64, count=len(atoms)
    )
    return out


def _forward_tables(index: LatticeIndex, atoms: np.ndarray) -> dict[BaseConcept, np.ndarray]:
    """Every concept's value at every antichain position of its domain.

    Redundancy and weak synergy are the two zeta sums of the atoms, from
    which :func:`~pidlattice.concepts.derive_tables` gives the other nested
    concepts; unique information reads single atoms.  Positions outside a
    concept's domain hold meaningless values.
    """
    size = len(index.antichains)
    red, ws = np.zeros(size), np.zeros(size)
    red[index.access_antichain] = index.superset_sums(atoms)
    ws[index.blockage_antichain] = index.subset_sums(atoms)
    unique, unique_partner = np.zeros(size), np.zeros(size)
    unique[index.access_antichain] = atoms
    unique_partner[index.blockage_antichain] = atoms
    known = {BaseConcept.REDUNDANCY: red, BaseConcept.WEAK_SYNERGY: ws}
    tables = derive_tables(index, atoms.sum(), known)
    return {**tables, BaseConcept.UNIQUE: unique, BaseConcept.UNIQUE_PARTNER: unique_partner}


def measure_table_from_atoms(
    concept: BaseConcept, n: int, atoms: Mapping[ParthoodDistribution, float]
) -> MeasureAssignment:
    """Evaluate a concept over its whole domain from an atom vector."""
    index = lattice_index(n)
    values = _forward_tables(index, _atom_vector(index, atoms))[concept]
    return MeasureAssignment(concept, n, values_on_domain(concept, n, values))


def derived_measure_table(result: PidResult) -> dict[tuple[BaseConcept, Antichain], float]:
    """All ten concepts evaluated over their domains from the result's atoms."""
    index = lattice_index(result.n)
    tables = _forward_tables(index, _atom_vector(index, result.atoms))
    out = {}
    for concept in BaseConcept:
        for alpha, v in values_on_domain(concept, result.n, tables[concept]).items():
            out[(concept, alpha)] = v
    return out


@dataclass(frozen=True)
class InclusionExclusionReport:
    alpha: Antichain
    union_value: float
    alternating_sum: float
    error: float
    tolerance: float
    passed: bool


def inclusion_exclusion_check(result: PidResult, alpha: Antichain) -> InclusionExclusionReport:
    """Union information vs the alternating redundancy sum over subsets of alpha."""
    if alpha not in domain_members(BaseConcept.UNION, result.n):
        raise DomainError(f"antichain {alpha.label()!r} outside the union domain")
    union_value = summate(BaseConcept.UNION, alpha, result)
    members = alpha.collections
    acc = 0.0
    for pick in range(1, 1 << len(members)):
        subset = [members[i] for i in range(len(members)) if (pick >> i) & 1]
        sign = -1.0 if subset and len(subset) % 2 == 0 else 1.0
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
    if alpha.n != result.n:
        raise DomainError("antichain and result disagree on source count")
    union = 0
    for m in alpha.masks:
        union |= m
    if union == 0:
        raise DomainError(
            "proper synergy at an empty union is identically zero by the parthood "
            "axioms; supply a non-empty union"
        )
    selects = _first_reached_at(result.n, union)
    acc = 0.0
    for f, v in result.atoms.items():
        if selects(f.table):
            acc += v
    return acc


def _first_reached_at(n: int, union: int) -> Callable[[int], bool]:
    """Proper-synergy selector: a truth table marks the union and no proper subset of it."""
    strict_down = sum(1 << s for s in range(union) if s & ~union == 0)
    return lambda table: bool((table >> union) & 1) and table & strict_down == 0


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
    atoms = enumerate_parthood_distributions(n)
    unknowns = len(atoms)
    consistency_rows = []
    for bits in range(1, 1 << n):
        consistency_rows.append([(f.table >> bits) & 1 for f in atoms])
    synergy_rows = []
    for union in range(1, 1 << n):
        selects = _first_reached_at(n, union)
        synergy_rows.append([int(selects(f.table)) for f in atoms])
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
    access label; the MI table rides along so files can be re-verified."""
    mi_obj = {
        collection_label(bits): result.mi[bits]
        for bits in sorted(result.mi, key=lambda b: (b.bit_count(), b))
    }
    index = lattice_index(result.n)
    tables = np.fromiter((f.table for f in result.atoms), dtype=np.uint64, count=len(result.atoms))
    positions = index.atom_positions(tables)
    order = np.argsort(index.export_rank[positions]).tolist()
    values = list(result.atoms.values())
    labels = index.labels
    access = index.access_antichain[positions].tolist()
    blockage = index.blockage_antichain[positions].tolist()
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
    """Read a result file back; the stored MI table is trusted as-is."""
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
    mi = {}
    for label, v in doc["mi"].items():
        mi[parse_collection_label(label, n)] = number(v, f"MI at {label!r}")
    if set(mi) != set(range(1 << n)):
        raise ParseError("result file's MI table does not cover all collections")
    index = lattice_index(n)
    values = {}
    for row in doc["atoms"]:
        if not isinstance(row, dict) or not isinstance(row.get("alpha"), str) or "value" not in row:
            raise ParseError(f"atom row {row!r} must be an object with an 'alpha' label and a 'value'")
        label = row["alpha"]
        j = int(index.access_atom[index.label_position(label)])
        if j < 0:
            raise DomainError(
                f"antichain {label!r} does not label a parthood distribution "
                "by minimal 1-collections"
            )
        expect_tilde = index.labels[index.blockage_antichain[j]]
        if row.get("alpha_tilde") != expect_tilde:
            raise ParseError(
                f"atom {row['alpha']!r} pairs with {expect_tilde!r}, file says "
                f"{row.get('alpha_tilde')!r}"
            )
        if j in values:
            raise ParseError(f"duplicate atom {row['alpha']!r}")
        values[j] = number(row["value"], f"value of atom {row['alpha']!r}")
    meta = PidMeta(
        concept=doc["concept"], measure=doc["measure"], digest=doc["distribution_digest"]
    )
    atoms = enumerate_parthood_distributions(n)
    if len(values) != len(atoms):
        raise ParseError("result file does not cover all atoms")
    ordered = {f: values[j] for j, f in enumerate(atoms)}
    return PidResult(n=n, atoms=ordered, meta=meta, mi=mi)

