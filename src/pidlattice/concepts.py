"""Base concepts: the informational quantities a decomposition can start from.

Every quantity here is a rule for which information atoms a given antichain
of collections gathers.  The rules come from a four-way grid of logical
conditions on a parthood distribution f: a collection relation (superset or
subset of an antichain member) combined as sufficient / necessary /
insufficient / unnecessary for parthood or non-parthood of the atom.  Eight
cells of the grid are informative and become the base concepts; unique
information is the conjunction of two cells.

A packed truth table makes each cell one subset test.  The related
collections of an antichain are its up-closure (superset cells) or its
down-closure (subset cells), both precomputed in the per-n lattice index;
a cell holds iff the collections it constrains avoid the truth table's
"wrong" bits.  One private evaluator reads every cell this way, and every
selector (:func:`condition_holds`, :func:`grid_condition`,
:func:`atom_selector`, :func:`selection_mask`) goes through it.  The test
suite checks it exhaustively against the literal quantified formulas of
:func:`pidlattice.oracle.oracle_selector`.  The cell's relation also fixes
which listed collections a concept ignores and how its lattice is ordered.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .distributions import JointDistribution, conditional_mi, mutual_information
from .errors import (
    CompletenessError,
    DomainError,
    ParseError,
    ValidationError,
)
from .lattices import (
    Antichain,
    ConceptLattice,
    LatticeIndex,
    ParthoodDistribution,
    SourceSet,
    build_lattice,
    enumerate_antichains,
    lattice_index,
    maximal_non_supersets,
    minimal_non_subsets,
    parse_antichain_label,
    source_mask,
    table_mask,
)


class BaseConcept(enum.Enum):
    REDUNDANCY = "redundancy"
    WEAK_SYNERGY = "weak-synergy"
    UNION = "union"
    VULNERABLE = "vulnerable"
    REDUNDANCY_PARTNER = "redundancy-partner"
    RESTRICTED = "restricted"
    UNION_PARTNER = "union-partner"
    VULNERABLE_PARTNER = "vulnerable-partner"
    UNIQUE = "unique"
    UNIQUE_PARTNER = "unique-partner"

    @property
    def tag(self) -> str:
        return self.value

    @classmethod
    def from_tag(cls, tag: str) -> "BaseConcept":
        for member in cls:
            if member.value == tag:
                return member
        valid = ", ".join(m.value for m in cls)
        raise DomainError(f"unknown concept {tag!r}; valid tags: {valid}")


MODES = ("sufficient", "necessary", "insufficient", "unnecessary")
RELATIONS = ("superset", "subset")
POLARITIES = ("inclusion", "exclusion")

CONDITION_IDS = tuple(
    f"{mode}-{relation}-{polarity}"
    for mode in MODES
    for relation in RELATIONS
    for polarity in POLARITIES
)

CONDITION_FOR_CONCEPT = {
    BaseConcept.REDUNDANCY: "sufficient-superset-inclusion",
    BaseConcept.WEAK_SYNERGY: "sufficient-subset-exclusion",
    BaseConcept.RESTRICTED: "necessary-superset-inclusion",
    BaseConcept.REDUNDANCY_PARTNER: "necessary-subset-exclusion",
    BaseConcept.VULNERABLE: "insufficient-superset-inclusion",
    BaseConcept.UNION: "insufficient-subset-exclusion",
    BaseConcept.UNION_PARTNER: "unnecessary-superset-inclusion",
    BaseConcept.VULNERABLE_PARTNER: "unnecessary-subset-exclusion",
}

# Unique information is the conjunction of two cells of one relation: the
# redundancy and restricted cells, or their partner (subset) counterparts.
_CELLS_FOR_CONCEPT = {
    **{concept: (cid,) for concept, cid in CONDITION_FOR_CONCEPT.items()},
    BaseConcept.UNIQUE: (
        CONDITION_FOR_CONCEPT[BaseConcept.REDUNDANCY],
        CONDITION_FOR_CONCEPT[BaseConcept.RESTRICTED],
    ),
    BaseConcept.UNIQUE_PARTNER: (
        CONDITION_FOR_CONCEPT[BaseConcept.WEAK_SYNERGY],
        CONDITION_FOR_CONCEPT[BaseConcept.REDUNDANCY_PARTNER],
    ),
}


def _cell(condition_id: str) -> tuple[str, str, str]:
    """Split a grid cell id into its mode, relation and polarity."""
    if condition_id not in CONDITION_IDS:
        raise DomainError(f"unknown condition {condition_id!r}")
    return tuple(condition_id.split("-"))


def _cells(concept: BaseConcept) -> tuple[str, ...]:
    try:
        return _CELLS_FOR_CONCEPT[concept]
    except KeyError:
        raise DomainError(f"unknown concept {concept!r}") from None


def _relation(concept: BaseConcept) -> str:
    """The relation shared by the concept's cells: "superset" or "subset"."""
    return _cell(_cells(concept)[0])[1]


def _cell_holds(condition_id: str, alpha: Antichain, tables: int | np.ndarray) -> np.ndarray:
    """Evaluate one grid cell at alpha for each packed truth table in ``tables``.

    Related collections are alpha's up-closure (superset cells) or
    down-closure (subset cells).  A sufficient cell constrains the related
    collections, a necessary cell the unrelated ones; the constrained
    collections must all be marked (sufficient-inclusion, necessary-exclusion)
    or all be unmarked (the other two).  Insufficient and unnecessary cells
    negate their sufficient and necessary counterparts.
    """
    mode, relation, polarity = _cell(condition_id)
    index = lattice_index(alpha.n)
    at = index.position[alpha]
    full = np.uint64(table_mask(alpha.n))
    related = (index.up if relation == "superset" else index.down)[at]
    sufficient = mode in ("sufficient", "insufficient")
    scope = related if sufficient else full & ~related
    t = np.asarray(tables, dtype=np.uint64)
    wrong = full & ~t if sufficient == (polarity == "inclusion") else t
    holds = (wrong & scope) == 0
    return holds if mode in ("sufficient", "necessary") else ~holds


def condition_holds(condition_id: str, alpha: Antichain, f: ParthoodDistribution) -> bool:
    """Whether the parthood distribution satisfies one grid condition at alpha."""
    if alpha.n != f.n:
        raise DomainError("antichain and parthood distribution disagree on source count")
    return bool(_cell_holds(condition_id, alpha, f.table))


def grid_condition(condition_id: str, alpha: Antichain) -> Callable[[ParthoodDistribution], bool]:
    _cell(condition_id)  # validate id eagerly
    return lambda f: condition_holds(condition_id, alpha, f)


def atom_selector(concept: BaseConcept, alpha: Antichain) -> Callable[[ParthoodDistribution], bool]:
    """Predicate deciding whether a parthood distribution's atom is collected.

    The antichain must lie in :func:`domain_for_concept`'s set for the
    concept.  Unique information is the conjunction of the redundancy and
    restricted-information conditions and picks exactly one atom.
    """
    if alpha not in domain_members(concept, alpha.n):
        raise DomainError(f"antichain {alpha.label()!r} outside the {concept.tag} domain")
    cells = _cells(concept)
    return lambda f: all(condition_holds(cid, alpha, f) for cid in cells)


def selection_mask(concept: BaseConcept, alpha: Antichain, tables: np.ndarray) -> np.ndarray:
    """Vectorized :func:`atom_selector` over packed truth tables."""
    return np.logical_and.reduce([_cell_holds(cid, alpha, tables) for cid in _cells(concept)])


_ACCESS_DOMAIN = {BaseConcept.REDUNDANCY, BaseConcept.UNION, BaseConcept.UNIQUE}
_BLOCKAGE_DOMAIN = {BaseConcept.WEAK_SYNERGY, BaseConcept.VULNERABLE, BaseConcept.UNIQUE_PARTNER}

# The partner relation: each partner concept's value at alpha is its base
# concept's value at mapper(alpha).
PARTNER_TO_BASE = {
    BaseConcept.RESTRICTED: (BaseConcept.WEAK_SYNERGY, maximal_non_supersets),
    BaseConcept.REDUNDANCY_PARTNER: (BaseConcept.REDUNDANCY, minimal_non_subsets),
    BaseConcept.UNION_PARTNER: (BaseConcept.UNION, maximal_non_supersets),
    BaseConcept.VULNERABLE_PARTNER: (BaseConcept.VULNERABLE, minimal_non_subsets),
}

# Union and vulnerable information are the complements, against the total
# information, of weak synergy and redundancy.
COMPLEMENT_OF = {
    BaseConcept.UNION: BaseConcept.WEAK_SYNERGY,
    BaseConcept.VULNERABLE: BaseConcept.REDUNDANCY,
}


def domain_positions(concept: BaseConcept, n: int) -> np.ndarray:
    """Ascending positions in :func:`enumerate_antichains` of the concept's domain.

    The access and blockage domains each exclude one degenerate antichain; a
    partner concept's domain holds the antichains whose partner image lies
    in its base concept's domain.
    """
    index = lattice_index(n)
    if concept in PARTNER_TO_BASE:
        base, mapper = PARTNER_TO_BASE[concept]
        in_base = np.zeros(len(index.antichains), dtype=bool)
        in_base[domain_positions(base, n)] = True
        return np.flatnonzero(in_base[index.partner[mapper]])
    if concept in _ACCESS_DOMAIN:
        return index.access_antichain
    if concept in _BLOCKAGE_DOMAIN:
        return np.flatnonzero(index.blockage_atom >= 0)
    raise DomainError(f"unknown concept {concept!r}")


def derive_tables(
    index: LatticeIndex, total: float, known: Mapping[BaseConcept, np.ndarray]
) -> dict[BaseConcept, np.ndarray]:
    """The eight nested concepts' values at every antichain position.

    ``known`` holds one concept of each complement pair in
    :data:`COMPLEMENT_OF`, indexed by antichain position; the other is its
    complement against the total, and each partner concept reads its base
    concept through the partner permutation.  Positions outside a concept's
    domain hold meaningless values.
    """
    tables = dict(known)
    for concept, base in COMPLEMENT_OF.items():
        if concept in tables:
            tables[base] = total - tables[concept]
        else:
            tables[concept] = total - tables[base]
    for concept, (base, mapper) in PARTNER_TO_BASE.items():
        tables[concept] = tables[base][index.partner[mapper]]
    return tables


@functools.lru_cache(maxsize=None)
def domain_for_concept(concept: BaseConcept, n: int) -> tuple[Antichain, ...]:
    """The antichains on which the concept's measure is defined, in canonical order.

    See :func:`domain_positions` for which antichains these are.
    """
    antichains = enumerate_antichains(n)
    return tuple(antichains[i] for i in domain_positions(concept, n).tolist())


@functools.lru_cache(maxsize=None)
def domain_members(concept: BaseConcept, n: int) -> frozenset[Antichain]:
    """The concept's domain as a set, for membership tests."""
    return frozenset(domain_for_concept(concept, n))


def values_on_domain(concept: BaseConcept, n: int, by_position: np.ndarray) -> dict[Antichain, float]:
    """Pick the concept's domain out of values indexed by antichain position."""
    picked = by_position[domain_positions(concept, n)].tolist()
    return dict(zip(domain_for_concept(concept, n), picked))


# Node set is the concept's domain; the direction follows how the concept's
# values nest (small values drawn at the bottom).  The order kind is the
# concept's relation: superset cells order antichains by redundancy.
_LATTICE_DIRECTION = {
    BaseConcept.REDUNDANCY: "up",
    BaseConcept.WEAK_SYNERGY: "up",
    BaseConcept.RESTRICTED: "down",
    BaseConcept.REDUNDANCY_PARTNER: "down",
    BaseConcept.UNION: "up",
    BaseConcept.VULNERABLE: "down",
    BaseConcept.UNION_PARTNER: "up",
    BaseConcept.VULNERABLE_PARTNER: "up",
}


def concept_lattice(concept: BaseConcept, n: int) -> ConceptLattice:
    """The (semi-)lattice describing how the concept's values nest.

    Unique information is not nested and has no lattice.
    """
    if concept in (BaseConcept.UNIQUE, BaseConcept.UNIQUE_PARTNER):
        raise DomainError(f"{concept.tag} information is not nested; it has no lattice")
    kind = "redundancy" if _relation(concept) == "superset" else "synergy"
    return build_lattice(domain_for_concept(concept, n), kind, _LATTICE_DIRECTION[concept])


def canonicalize_collections(
    concept: BaseConcept, collections: Iterable[int | SourceSet] | Antichain, n: int | None = None
) -> Antichain:
    """Reduce a list of collections to the antichain the concept actually sees.

    A superset cell sees only the antichain's up-closure, so superset-relation
    concepts drop collections containing another listed collection; a subset
    cell sees only the down-closure, so subset-relation concepts drop
    collections contained in one.  An Antichain passes through unchanged.
    """
    if isinstance(collections, Antichain):
        return collections
    masks = []
    for c in collections:
        masks.append(c.bits if isinstance(c, SourceSet) else int(c))
    if n is None:
        raise ValidationError("source count required to canonicalize a raw collection list")
    masks = sorted(set(masks))
    for m in masks:
        if not 0 <= m <= source_mask(n):
            raise ValidationError(f"collection bits {m!r} out of range for n={n}")
    if _relation(concept) == "superset":
        keep = [m for m in masks if not any(o != m and m & o == o for o in masks)]
    else:
        keep = [m for m in masks if not any(o != m and o & m == m for o in masks)]
    return Antichain.of(n, keep)


def summate(
    concept: BaseConcept,
    collections: Iterable[int | SourceSet] | Antichain,
    atoms,
) -> float:
    """Sum the atoms the concept collects at the given antichain.

    ``atoms`` is a PidResult or a mapping from parthood distributions to
    atom values.  Raw collection lists are canonicalized first, so the
    derived symmetry and invariance laws hold by construction.
    """
    mapping = getattr(atoms, "atoms", atoms)
    if not mapping:
        raise ValidationError("no atoms supplied")
    n = next(iter(mapping)).n
    alpha = canonicalize_collections(concept, collections, n)
    if alpha.n != n:
        raise DomainError("antichain and atoms disagree on source count")
    if alpha not in domain_members(concept, n):
        raise DomainError(f"antichain {alpha.label()!r} outside the {concept.tag} domain")
    tables = np.array([f.table for f in mapping], dtype=np.uint64)
    values = np.array([float(v) for v in mapping.values()], dtype=np.float64)
    mask = selection_mask(concept, alpha, tables)
    return float(values[mask].sum())


REFERENCE_MEASURE_NAME = "reference (min-MI family)"


def reference_measure(dist: JointDistribution, concept: BaseConcept) -> "MeasureAssignment":
    """Built-in measure family: redundancy is the smallest single-collection
    information, union the largest; the synergy-flavored concepts are their
    complements against the total, and partner concepts read the value at
    the partner-mapped antichain.
    """
    if concept in (BaseConcept.UNIQUE, BaseConcept.UNIQUE_PARTNER):
        raise DomainError(
            "the reference family defines unique information through the redundancy "
            "decomposition; use decompose() for unique concepts"
        )
    n = dist.n
    index = lattice_index(n)
    infos = np.array([mutual_information(dist, bits) for bits in range(1 << n)])
    total = infos[-1]
    # Member rows are padded with slot 1 << n, which holds the identity of
    # min or max.  The empty antichain, outside every base domain, reads it.
    smallest = np.append(infos, np.inf)[index.members].min(axis=1)
    largest = np.append(infos, -np.inf)[index.members].max(axis=1)
    known = {BaseConcept.REDUNDANCY: smallest, BaseConcept.UNION: largest}
    tables = derive_tables(index, total, known)
    return MeasureAssignment(concept, n, values_on_domain(concept, n, tables[concept]))


@dataclass(frozen=True)
class MeasureAssignment:
    """A concept's measure evaluated over its whole domain."""

    concept: BaseConcept
    n: int
    values: Mapping[Antichain, float]

    def __post_init__(self):
        domain = domain_for_concept(self.concept, self.n)
        values = self.values
        try:
            ordered = {a: values[a] for a in domain}
        except KeyError:
            missing = [a.label() for a in domain if a not in values]
            raise CompletenessError(
                f"{self.concept.tag} values missing for: {', '.join(missing[:5])}"
                + (" ..." if len(missing) > 5 else "")
            ) from None
        if len(values) != len(ordered):
            extra = [a.label() for a in values if a not in ordered]
            raise CompletenessError(
                f"{self.concept.tag} values outside the domain: {', '.join(extra[:5])}"
            )
        for a, v in ordered.items():
            v = ordered[a] = float(v)
            if not math.isfinite(v):
                raise ValidationError(f"non-finite value at {a.label()!r}")
        object.__setattr__(self, "values", ordered)

    def __getitem__(self, alpha: Antichain) -> float:
        return self.values[alpha]


def save_measure(measure: MeasureAssignment, path) -> None:
    doc = {"concept": measure.concept.tag}
    for alpha, v in measure.values.items():
        doc[alpha.label()] = v
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_measure(path, n: int) -> MeasureAssignment:
    """Read a measure file: a flat JSON object of canonical antichain labels
    to numbers plus a ``concept`` tag field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON in measure file: {exc}") from None
    if not isinstance(doc, dict) or "concept" not in doc:
        raise ParseError("measure file must be an object with a 'concept' field")
    concept = BaseConcept.from_tag(doc["concept"])
    values = {}
    for key, v in doc.items():
        if key == "concept":
            continue
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ParseError(f"value at {key!r} is not a number")
        values[parse_antichain_label(key, n)] = float(v)
    return MeasureAssignment(concept, n, values)


def patch_singleton_synergies(
    n: int, values: Mapping[Antichain, float], dist: JointDistribution
) -> MeasureAssignment:
    """Complete an external synergy measure into a weak-synergy assignment.

    Multi-collection entries are taken as supplied; every single-collection
    entry is overridden by the information the remaining sources carry about
    the target given that collection, which is what a synergy measure must
    assign there for the summation identities to close.
    """
    if dist.n != n:
        raise ValidationError("distribution and measure disagree on source count")
    full = source_mask(n)
    out = {}
    for alpha in domain_for_concept(BaseConcept.WEAK_SYNERGY, n):
        if len(alpha.collections) == 1:
            a = alpha.collections[0].bits
            out[alpha] = conditional_mi(dist, full & ~a, a)
        else:
            if alpha not in values:
                raise CompletenessError(
                    f"synergy value missing for multi-collection antichain {alpha.label()!r}"
                )
            out[alpha] = float(values[alpha])
    return MeasureAssignment(BaseConcept.WEAK_SYNERGY, n, out)
