"""Base concepts: the informational quantities a decomposition can start from.

Every quantity here is a rule for which information atoms a given antichain
of collections gathers.  The rules come from a four-way grid of logical
conditions on a parthood distribution f: a collection relation (superset or
subset of an antichain member) combined as sufficient / necessary /
insufficient / unnecessary for parthood or non-parthood of the atom.  Eight
cells of the grid are informative and become the base concepts; unique
information is the conjunction of two cells.

Selectors are evaluated from the quantified formulas directly (loop over
all collections); :func:`selection_mask` provides the equivalent bitmask
shortcut used for bulk sums, and the test suite checks the two against each
other exhaustively.
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

# Conditions built from the superset relation only see the upward closure of
# the antichain, so superset collections in a list are redundant; subset
# conditions only see the downward closure, making subset collections
# redundant.  This drives list canonicalization and the invariance laws.
_MINIMAL_REDUCTION = {
    BaseConcept.REDUNDANCY,
    BaseConcept.VULNERABLE,
    BaseConcept.RESTRICTED,
    BaseConcept.UNION_PARTNER,
    BaseConcept.UNIQUE,
}
_MAXIMAL_REDUCTION = {
    BaseConcept.WEAK_SYNERGY,
    BaseConcept.UNION,
    BaseConcept.REDUNDANCY_PARTNER,
    BaseConcept.VULNERABLE_PARTNER,
    BaseConcept.UNIQUE_PARTNER,
}


def condition_holds(condition_id: str, alpha: Antichain, f: ParthoodDistribution) -> bool:
    """Evaluate one grid condition by its quantified formula."""
    try:
        mode, relation, polarity = condition_id.split("-")
    except ValueError:
        raise DomainError(f"unknown condition {condition_id!r}") from None
    if mode not in MODES or relation not in RELATIONS or polarity not in POLARITIES:
        raise DomainError(f"unknown condition {condition_id!r}")
    if alpha.n != f.n:
        raise DomainError("antichain and parthood distribution disagree on source count")
    members = alpha.masks
    positive = mode in ("sufficient", "necessary")
    sufficient_flavor = mode in ("sufficient", "insufficient")
    if sufficient_flavor:
        target = 1 if polarity == "inclusion" else 0
    else:
        target = 0 if polarity == "inclusion" else 1
    holds = True
    for b in range(1 << alpha.n):
        if relation == "superset":
            related = any(b & a == a for a in members)
        else:
            related = any(b & ~a == 0 for a in members)
        antecedent = related if sufficient_flavor else not related
        if antecedent and f.value(b) != target:
            holds = False
            break
    return holds if positive else not holds


def grid_condition(condition_id: str, alpha: Antichain) -> Callable[[ParthoodDistribution], bool]:
    condition_holds(condition_id, alpha, _probe(alpha.n))  # validate id eagerly
    return lambda f: condition_holds(condition_id, alpha, f)


@functools.lru_cache(maxsize=None)
def _probe(n: int) -> ParthoodDistribution:
    return ParthoodDistribution(n, 1 << source_mask(n))


def atom_selector(concept: BaseConcept, alpha: Antichain) -> Callable[[ParthoodDistribution], bool]:
    """Predicate deciding whether a parthood distribution's atom is collected.

    The antichain must lie in :func:`domain_for_concept`'s set for the
    concept.  Unique information is the conjunction of the redundancy and
    restricted-information conditions and picks exactly one atom.
    """
    if alpha not in domain_members(concept, alpha.n):
        raise DomainError(f"antichain {alpha.label()!r} outside the {concept.tag} domain")
    if concept is BaseConcept.UNIQUE:
        first = grid_condition("sufficient-superset-inclusion", alpha)
        second = grid_condition("necessary-superset-inclusion", alpha)
        return lambda f: first(f) and second(f)
    if concept is BaseConcept.UNIQUE_PARTNER:
        first = grid_condition("sufficient-subset-exclusion", alpha)
        second = grid_condition("necessary-subset-exclusion", alpha)
        return lambda f: first(f) and second(f)
    return grid_condition(CONDITION_FOR_CONCEPT[concept], alpha)


def selection_mask(concept: BaseConcept, alpha: Antichain, tables: np.ndarray) -> np.ndarray:
    """Vectorized equivalent of :func:`atom_selector` over packed truth tables."""
    index = lattice_index(alpha.n)
    at = index.position[alpha]
    full = table_mask(alpha.n)
    up = int(index.up[at])
    down = int(index.down[at])
    t = tables.astype(np.uint64, copy=False)
    if concept is BaseConcept.REDUNDANCY:
        return (np.uint64(up) & ~t) == 0
    if concept is BaseConcept.WEAK_SYNERGY:
        return (t & np.uint64(down)) == 0
    if concept is BaseConcept.UNION:
        return (t & np.uint64(down)) != 0
    if concept is BaseConcept.VULNERABLE:
        return (np.uint64(up) & ~t) != 0
    if concept is BaseConcept.RESTRICTED:
        return (t & np.uint64(full & ~up)) == 0
    if concept is BaseConcept.REDUNDANCY_PARTNER:
        return ((np.uint64(full) & ~t) & np.uint64(full & ~down)) == 0
    if concept is BaseConcept.UNION_PARTNER:
        return (t & np.uint64(full & ~up)) != 0
    if concept is BaseConcept.VULNERABLE_PARTNER:
        return ((np.uint64(full) & ~t) & np.uint64(full & ~down)) != 0
    if concept is BaseConcept.UNIQUE:
        return t == np.uint64(up)
    if concept is BaseConcept.UNIQUE_PARTNER:
        return t == np.uint64(full & ~down)
    raise DomainError(f"unknown concept {concept!r}")


_ACCESS_DOMAIN = {
    BaseConcept.REDUNDANCY,
    BaseConcept.UNION,
    BaseConcept.RESTRICTED,
    BaseConcept.UNIQUE,
}
_BLOCKAGE_DOMAIN = {
    BaseConcept.WEAK_SYNERGY,
    BaseConcept.VULNERABLE,
    BaseConcept.REDUNDANCY_PARTNER,
    BaseConcept.UNIQUE_PARTNER,
}


def domain_positions(concept: BaseConcept, n: int) -> np.ndarray:
    """Ascending positions in :func:`enumerate_antichains` of the concept's domain.

    The two plain domains exclude one degenerate antichain each; the
    union-partner and vulnerable-partner domains are the images of those
    under the partner mappings (they contain the empty antichain).
    """
    index = lattice_index(n)
    access = index.access_antichain
    blockage = np.flatnonzero(index.blockage_atom >= 0)
    if concept in _ACCESS_DOMAIN:
        return access
    if concept in _BLOCKAGE_DOMAIN:
        return blockage
    if concept is BaseConcept.UNION_PARTNER:
        return np.sort(index.partner[minimal_non_subsets][access])
    if concept is BaseConcept.VULNERABLE_PARTNER:
        return np.sort(index.partner[maximal_non_supersets][blockage])
    raise DomainError(f"unknown concept {concept!r}")


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


# Node set is the concept's domain; order kind and direction follow how the
# concept's values nest (small values drawn at the bottom).
_LATTICE_SPEC = {
    BaseConcept.REDUNDANCY: ("redundancy", "up"),
    BaseConcept.WEAK_SYNERGY: ("synergy", "up"),
    BaseConcept.RESTRICTED: ("redundancy", "down"),
    BaseConcept.REDUNDANCY_PARTNER: ("synergy", "down"),
    BaseConcept.UNION: ("synergy", "up"),
    BaseConcept.VULNERABLE: ("redundancy", "down"),
    BaseConcept.UNION_PARTNER: ("redundancy", "up"),
    BaseConcept.VULNERABLE_PARTNER: ("synergy", "up"),
}


def concept_lattice(concept: BaseConcept, n: int) -> ConceptLattice:
    """The (semi-)lattice describing how the concept's values nest.

    Unique information is not nested and has no lattice.
    """
    if concept in (BaseConcept.UNIQUE, BaseConcept.UNIQUE_PARTNER):
        raise DomainError(f"{concept.tag} information is not nested; it has no lattice")
    kind, direction = _LATTICE_SPEC[concept]
    return build_lattice(domain_for_concept(concept, n), kind, direction)


def canonicalize_collections(
    concept: BaseConcept, collections: Iterable[int | SourceSet] | Antichain, n: int | None = None
) -> Antichain:
    """Reduce a list of collections to the antichain the concept actually sees.

    Superset-relation concepts drop collections containing another listed
    collection; subset-relation concepts drop collections contained in one.
    An Antichain passes through unchanged.
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
    if concept in _MINIMAL_REDUCTION:
        keep = [m for m in masks if not any(o != m and m & o == o for o in masks)]
    elif concept in _MAXIMAL_REDUCTION:
        keep = [m for m in masks if not any(o != m and o & m == m for o in masks)]
    else:
        raise DomainError(f"unknown concept {concept!r}")
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

# The partner relation: each partner concept's value at alpha is its base
# concept's value at mapper(alpha).
PARTNER_TO_BASE = {
    BaseConcept.RESTRICTED: (BaseConcept.WEAK_SYNERGY, maximal_non_supersets),
    BaseConcept.REDUNDANCY_PARTNER: (BaseConcept.REDUNDANCY, minimal_non_subsets),
    BaseConcept.UNION_PARTNER: (BaseConcept.UNION, maximal_non_supersets),
    BaseConcept.VULNERABLE_PARTNER: (BaseConcept.VULNERABLE, minimal_non_subsets),
}


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
    base_values = {
        BaseConcept.REDUNDANCY: smallest,
        BaseConcept.UNION: largest,
        BaseConcept.WEAK_SYNERGY: total - largest,
        BaseConcept.VULNERABLE: total - smallest,
    }
    if concept in PARTNER_TO_BASE:
        base, mapper = PARTNER_TO_BASE[concept]
        values = base_values[base][index.partner[mapper]]
    else:
        values = base_values[concept]
    return MeasureAssignment(concept, n, values_on_domain(concept, n, values))


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
        doc = json.loads(open(path, "r", encoding="utf-8").read())
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
