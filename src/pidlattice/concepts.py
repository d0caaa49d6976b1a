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
:func:`pidlattice.oracle.oracle_selector`.

Each concept has one record: its cell and the direction its lattice is
drawn in.  The rest of the algebra is read off the cells once, at import,
into :class:`ConceptFacts`: the complement (negated mode), the partner base
and map (dual mode, relation and polarity flipped), the domain, the order
kind (the relation) and whether the concept is nested.  Other modules ask
:func:`concept_facts` and name no concept to pick a route;
:func:`concept_table` runs one concept's route forward, from the sufficient
cells its caller holds.
"""

from __future__ import annotations

import enum
import numbers
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .distributions import JointDistribution, conditional_mi, mi_table
from .errors import CompletenessError, DomainError, ValidationError, choice, expect, shown
from .fileio import number, read_object, render, write_text
from .lattices import (
    Antichain,
    ConceptLattice,
    LatticeIndex,
    ParthoodDistribution,
    SourceSet,
    build_lattice,
    check_source_count,
    checked_cache,
    checked_iter,
    collection_bits,
    collection_labels,
    enumerate_antichains,
    enumerate_parthood_distributions,
    lattice_index,
    maximal_non_supersets,
    minimal_non_subsets,
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
        choice(tag, [m.value for m in cls], "concept")
        return cls(tag)


MODES = ("sufficient", "necessary", "insufficient", "unnecessary")  # index ^ 1: dual, ^ 2: negation
RELATIONS = ("superset", "subset")
POLARITIES = ("inclusion", "exclusion")

CONDITION_IDS = tuple(
    f"{mode}-{relation}-{polarity}"
    for mode in MODES
    for relation in RELATIONS
    for polarity in POLARITIES
)

# One record per concept: its grid cell and the direction its lattice is
# drawn in.  Unique information is not nested and has no lattice; its
# record holds its sufficient cell, which it takes together with the
# necessary cell of the same relation and polarity.  The directions are the
# paper's figure convention, pinned by the golden DOT files, and do not
# follow from the cells: with positive atoms, weak-synergy, redundancy-
# partner and vulnerable-partner values fall along every cover of their
# lattices and the other five nested concepts' values rise.
_RECORDS = {
    BaseConcept.REDUNDANCY: ("sufficient-superset-inclusion", "up"),
    BaseConcept.WEAK_SYNERGY: ("sufficient-subset-exclusion", "up"),
    BaseConcept.RESTRICTED: ("necessary-superset-inclusion", "down"),
    BaseConcept.REDUNDANCY_PARTNER: ("necessary-subset-exclusion", "down"),
    BaseConcept.VULNERABLE: ("insufficient-superset-inclusion", "down"),
    BaseConcept.UNION: ("insufficient-subset-exclusion", "up"),
    BaseConcept.UNION_PARTNER: ("unnecessary-superset-inclusion", "up"),
    BaseConcept.VULNERABLE_PARTNER: ("unnecessary-subset-exclusion", "up"),
    BaseConcept.UNIQUE: ("sufficient-superset-inclusion", None),
    BaseConcept.UNIQUE_PARTNER: ("sufficient-subset-exclusion", None),
}

CONDITION_FOR_CONCEPT = {c: cell for c, (cell, direction) in _RECORDS.items() if direction}
_NESTED_BY_CELL = {cell: c for c, cell in CONDITION_FOR_CONCEPT.items()}


def _cell(condition_id: str) -> tuple[str, str, str]:
    """Split a grid cell id into its mode, relation and polarity."""
    choice(condition_id, CONDITION_IDS, "condition")
    return tuple(condition_id.split("-"))


@dataclass(frozen=True)
class ConceptFacts:
    """What a concept's record implies.  ``mode`` and ``relation`` are those
    of the first of ``cells``, the cells a collected atom satisfies.  A
    partner (necessary or unnecessary mode) has ``base``'s value at
    ``mapper(alpha)`` and the preimage of its domain; any other concept
    lives on the access domain if ``access``, else on the blockage domain.
    A nested concept's values and its ``complement``'s sum to the total."""

    cells: tuple[str, ...]
    mode: str
    relation: str
    direction: str | None
    nested: bool
    base: BaseConcept | None
    mapper: Callable[[Antichain], Antichain] | None
    complement: BaseConcept | None
    access: bool


def _derive(cell: str, direction: str | None) -> ConceptFacts:
    """A concept's facts from its record; relations and polarities come in pairs."""
    mode, relation, polarity = _cell(cell)
    m, r, p = MODES.index(mode), RELATIONS.index(relation), POLARITIES.index(polarity)
    cells = (cell,) if direction else (cell, f"necessary-{relation}-{polarity}")
    base = mapper = complement = None
    if mode in ("necessary", "unnecessary"):  # a partner of the dual mode's concept
        base = _NESTED_BY_CELL[f"{MODES[m ^ 1]}-{RELATIONS[r ^ 1]}-{POLARITIES[p ^ 1]}"]
        mapper = minimal_non_subsets if RELATIONS[r ^ 1] == "superset" else maximal_non_supersets
    if direction:  # the complement has the negated mode
        complement = _NESTED_BY_CELL[f"{MODES[m ^ 2]}-{relation}-{polarity}"]
    access = (mode == "sufficient") == (relation == "superset")
    nested = direction is not None
    return ConceptFacts(cells, mode, relation, direction, nested, base, mapper, complement, access)


_FACTS = {concept: _derive(cell, direction) for concept, (cell, direction) in _RECORDS.items()}


def concept_facts(concept: BaseConcept) -> ConceptFacts:
    """The concept's :class:`ConceptFacts`; DomainError for anything but a BaseConcept."""
    try:
        return _FACTS[concept]
    except (KeyError, TypeError):  # TypeError: an unhashable argument
        raise DomainError(f"unknown concept {shown(concept)}") from None


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
    expect(alpha, Antichain, "alpha")
    expect(f, ParthoodDistribution, "f")
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
    cells = concept_facts(concept).cells
    expect(alpha, Antichain, "alpha")
    _check_in_domain(concept, alpha)
    return lambda f: all(condition_holds(cid, alpha, f) for cid in cells)


def _check_in_domain(concept: BaseConcept, alpha: Antichain) -> None:
    """DomainError for an antichain outside :func:`domain_for_concept`'s set for the concept."""
    if alpha not in domain_members(concept, alpha.n):
        raise DomainError(f"antichain {alpha.label()!r} outside the {concept.tag} domain")


def selection_mask(concept: BaseConcept, alpha: Antichain, tables: np.ndarray) -> np.ndarray:
    """Vectorized :func:`atom_selector` over packed truth tables."""
    cells = concept_facts(concept).cells
    expect(alpha, Antichain, "alpha")
    try:
        tables = np.asarray(tables)
    except ValueError:  # a ragged nesting, e.g. [[1], 2]
        raise ValidationError("tables must be integer truth tables, got a ragged nesting") from None
    if tables.dtype.kind not in "ui":
        raise ValidationError(f"tables must be integer truth tables, got dtype {tables.dtype}")
    if (tables < 0).any():
        raise ValidationError("tables must be non-negative, got a negative entry")
    if (tables > table_mask(alpha.n)).any():
        raise ValidationError(f"tables must be truth tables over {alpha.n} sources, got one out of range")
    return np.logical_and.reduce([_cell_holds(cid, alpha, tables) for cid in cells])


def domain_positions(concept: BaseConcept, n: int) -> np.ndarray:
    """Ascending positions in :func:`enumerate_antichains` of the concept's domain.

    The access and blockage domains each exclude one degenerate antichain; a
    partner concept's domain holds the antichains whose partner image lies
    in its base concept's domain.
    """
    index = lattice_index(n)
    facts = concept_facts(concept)
    if facts.base is not None:
        return np.flatnonzero(np.isin(index.partner[facts.mapper], domain_positions(facts.base, n)))
    if facts.access:
        return index.access_antichain
    return np.flatnonzero(index.blockage_atom >= 0)


def concept_table(concept: BaseConcept, index: LatticeIndex, total: float, known: Callable) -> np.ndarray:
    """One concept's values at every antichain position, along its route.

    A partner reads its base through the partner permutation.  ``known(c)``
    is the table the caller holds for concept c (a sufficient cell's at
    least), or None; a concept with none is the total minus its complement.
    Positions outside the concept's domain hold meaningless values."""
    facts = _FACTS[concept]
    if facts.base is not None:
        return concept_table(facts.base, index, total, known)[index.partner[facts.mapper]]
    table = known(concept)
    if table is None:
        return total - concept_table(facts.complement, index, total, known)
    return table


MI_KEYS = int  # the key set of an MI table: the collection bitmasks 0 .. 2^n - 1


def _check_key_set(concept, n: int) -> None:
    """A view's key set: a concept, None for the atoms or MI_KEYS, and a source count."""
    if concept is not None and concept is not MI_KEYS:
        concept_facts(concept)
    check_source_count(n)


@checked_cache(_check_key_set)
def domain_for_concept(concept: BaseConcept, n: int) -> tuple[Antichain, ...]:
    """The antichains on which the concept's measure is defined, in canonical order.

    See :func:`domain_positions` for which antichains these are.
    """
    antichains = enumerate_antichains(n)
    return tuple([antichains[i] for i in domain_positions(concept, n).tolist()])


class _IndexView(Mapping):
    """A read-only mapping from index-ordered keys to one float vector.

    The keys are the atoms, :func:`enumerate_parthood_distributions` in atom
    order, when ``concept`` is None, the collection bitmasks when it is
    :data:`MI_KEYS`, and otherwise the concept's :func:`domain_for_concept`
    in domain order; ``vector[i]`` is the value at key i.  The keys are
    cached, so making a view is O(1).  It iterates in key order, yields
    Python floats and equals any mapping with the same items.  The vector
    is made read-only, as views share it.
    """

    __slots__ = ("concept", "n", "vector")

    def __init__(self, concept: BaseConcept | None, n: int, vector: np.ndarray):
        vector.flags.writeable = False
        self.concept, self.n, self.vector = concept, n, vector

    def __getitem__(self, key) -> float:
        return float(self.vector[_view_places(self.concept, self.n)[key]])

    def __iter__(self):
        return iter(_view_places(self.concept, self.n))

    def __len__(self) -> int:
        return len(self.vector)

    def items(self) -> ItemsView:
        return _ViewItems(self)

    def values(self) -> ValuesView:
        return _ViewValues(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _ViewItems(ItemsView):
    def __iter__(self):
        view = self._mapping
        return zip(_view_places(view.concept, view.n), view.vector.tolist())


class _ViewValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping.vector.tolist())


@checked_cache(_check_key_set)
def _view_places(concept: BaseConcept | None, n: int) -> dict:
    """Key -> place of a view's keys, in key order; built on a view's first use."""
    if concept is None:
        keys = enumerate_parthood_distributions(n)
    else:
        keys = range(1 << n) if concept is MI_KEYS else domain_for_concept(concept, n)
    return {key: i for i, key in enumerate(keys)}


domain_members = _view_places  # a concept's domain, for membership tests


def index_view(concept: BaseConcept | None, n: int, vector: np.ndarray) -> Mapping:
    """A read-only mapping onto ``vector`` over the key set of :func:`index_vector`."""
    return _IndexView(concept, n, vector)


def index_vector(
    concept: BaseConcept | None, n: int, mapping: Mapping, complete: bool = True
) -> np.ndarray:
    """The index-order float vector of a mapping over a view's keys.

    The keys are those of :class:`_IndexView`.  A view over the same keys
    hands back its vector, anything but a mapping is a ValidationError, and
    any other mapping is checked once: every key must be one of those keys,
    of their exact type (``True`` is no MI key), and every value a finite
    real number, not a bool; NaN and infinity pass in an MI table, for the
    consistency report to flag.  With ``complete`` every key must be
    present; otherwise absent keys count as 0, which is how readers of atom
    mappings take a partial table.
    """
    _check_key_set(concept, n)
    if isinstance(mapping, _IndexView) and mapping.concept is concept and mapping.n == n:
        return mapping.vector
    places = _view_places(concept, n)
    what = "atom" if concept is None else "MI" if concept is MI_KEYS else concept.tag
    if not isinstance(mapping, Mapping):
        raise ValidationError(f"{what} values must be a mapping, got {type(mapping).__name__}")
    key_type = type(next(iter(places)))

    def label(place: int) -> str:
        return domain_labels(concept, n)[place]

    at, values, extra = [], [], []
    for key, value in mapping.items():
        place = places.get(key) if type(key) is key_type else None
        if place is None:
            extra.append(_key_label(key))
            continue
        if type(value) is not float:  # the exact test spares floats the slow ABC check
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                message = f"{what} value at {label(place)} is not a number: {shown(value)}"
                raise ValidationError(message)
            try:
                value = float(value)
            except OverflowError:  # an int beyond float range
                message = f"{what} value exceeds the float range at {label(place)}"
                raise ValidationError(message) from None
        at.append(place)
        values.append(value)
    return _placed_vector(concept, n, what, len(places), at, values, extra, complete)


def _placed_vector(
    concept: BaseConcept | None, n: int, what: str, size: int, at: list, values: list, extra: list, complete: bool
) -> np.ndarray:
    """The checks :func:`index_vector` makes once every key is placed, and its vector.

    ``values[k]`` goes to place ``at[k]`` of ``size``; ``extra`` labels the
    keys outside the view's, which are refused first, then any missing
    place with ``complete``, then the first non-finite value outside an MI
    table.  ``what`` is the noun the view's values go by in a refusal.
    """
    if extra:
        raise CompletenessError(f"{what} values outside the domain: {', '.join(extra[:5])}")
    vector = np.zeros(size)
    vector[np.array(at, dtype=np.intp)] = values
    if complete and len(at) < size:
        missing = sorted(set(range(size)).difference(at))
        listed = ", ".join(domain_labels(concept, n)[i] for i in missing[:5])
        more = " ..." if len(missing) > 5 else ""
        raise CompletenessError(f"{what} values missing for: {listed}{more}")
    bad = np.flatnonzero(~np.isfinite(vector))
    if bad.size and concept is not MI_KEYS:
        raise ValidationError(f"non-finite {what} value at {domain_labels(concept, n)[bad[0]]}")
    return vector


def _key_label(key) -> str:
    return key.label() if isinstance(key, Antichain) else shown(key)


def domain_labels(concept: BaseConcept | None, n: int) -> list[str]:
    """Canonical labels of a view's keys in key order; atoms are labelled by
    their access antichains, MI collections by :func:`collection_labels`."""
    check_source_count(n)
    if concept is MI_KEYS:
        return list(collection_labels(n))
    index = lattice_index(n)
    at = index.access_antichain if concept is None else domain_positions(concept, n)
    return [index.labels[i] for i in at.tolist()]


def values_on_domain(concept: BaseConcept, n: int, by_position: np.ndarray) -> Mapping[Antichain, float]:
    """Pick the concept's domain out of values indexed by antichain position."""
    return _IndexView(concept, n, by_position[domain_positions(concept, n)])


def concept_lattice(concept: BaseConcept, n: int) -> ConceptLattice:
    """The (semi-)lattice describing how the concept's values nest.

    Unique information is not nested and has no lattice.
    """
    facts = concept_facts(concept)
    if not facts.nested:
        raise DomainError(f"{concept.tag} information is not nested; it has no lattice")
    kind = "redundancy" if facts.relation == "superset" else "synergy"
    return build_lattice(domain_for_concept(concept, n), kind, facts.direction)


def canonicalize_collections(
    concept: BaseConcept, collections: Iterable[int | SourceSet] | Antichain, n: int | None = None
) -> Antichain:
    """Reduce a list of collections to the antichain the concept actually sees.

    A superset cell sees only the antichain's up-closure, so superset-relation
    concepts drop collections containing another listed collection; a subset
    cell sees only the down-closure, so subset-relation concepts drop
    collections contained in one.  An Antichain passes through unchanged;
    any other member must be a SourceSet over the n sources or exact int bits.
    """
    relation = concept_facts(concept).relation
    if isinstance(collections, Antichain):
        return collections
    if n is None:
        raise ValidationError("source count required to canonicalize a raw collection list")
    check_source_count(n)
    masks = sorted({collection_bits(n, c) for c in checked_iter(collections, "collections")})
    if relation == "superset":
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
    if not isinstance(mapping, Mapping):
        raise ValidationError(f"atoms must be a PidResult or a mapping, got {type(mapping).__name__}")
    if not mapping:
        raise ValidationError("no atoms supplied")
    first = next(iter(mapping))
    if not isinstance(first, ParthoodDistribution):  # n comes from the first key
        raise CompletenessError(f"atom values outside the domain: {_key_label(first)}")
    n = first.n
    alpha = canonicalize_collections(concept, collections, n)
    if alpha.n != n:
        raise DomainError("antichain and atoms disagree on source count")
    _check_in_domain(concept, alpha)
    values = index_vector(None, n, mapping, complete=False)
    return float(values[selection_mask(concept, alpha, lattice_index(n).atom_tables)].sum())


REFERENCE_MEASURE_NAME = "reference (min-MI family)"


def reference_measure(dist: JointDistribution, concept: BaseConcept) -> "MeasureAssignment":
    """Built-in measure family: redundancy is the smallest single-collection
    information, union the largest; the synergy-flavored concepts are their
    complements against the total, and partner concepts read the value at
    the partner-mapped antichain.
    """
    expect(dist, JointDistribution, "dist")
    if not concept_facts(concept).nested:
        raise DomainError(
            "the reference family defines unique information through the redundancy "
            "decomposition; use decompose() for unique concepts"
        )
    n = dist.n
    index = lattice_index(n)
    infos = np.array(list(mi_table(dist).values()))
    total = infos[-1]
    # Member rows are padded with slot 1 << n, which holds the identity of
    # min or max.  The empty antichain, outside every base domain, reads it.
    smallest = np.append(infos, np.inf)[index.members].min(axis=1)
    largest = np.append(infos, -np.inf)[index.members].max(axis=1)
    known = {BaseConcept.REDUNDANCY: smallest, BaseConcept.UNION: largest}
    values = concept_table(concept, index, total, known.get)
    return MeasureAssignment(concept, n, values_on_domain(concept, n, values))


@dataclass(frozen=True)
class MeasureAssignment:
    """A concept's measure evaluated over its whole domain.

    ``values`` may be any mapping that covers the domain exactly with finite
    numbers; :func:`index_vector` checks it, and it is stored as a read-only
    mapping onto one float vector in :func:`domain_for_concept` order.
    """

    concept: BaseConcept
    n: int
    values: Mapping[Antichain, float]

    def __post_init__(self):
        concept_facts(self.concept)  # DomainError for None, MI_KEYS or any other non-concept
        vector = index_vector(self.concept, self.n, self.values)
        object.__setattr__(self, "values", _IndexView(self.concept, self.n, vector))

    def __getitem__(self, alpha: Antichain) -> float:
        return self.values[alpha]


def save_measure(measure: MeasureAssignment, path) -> None:
    expect(measure, MeasureAssignment, "measure")
    doc = {"concept": measure.concept.tag}
    doc.update(zip(domain_labels(measure.concept, measure.n), measure.values.values()))
    write_text(path, render(doc))


def load_measure(path, n: int) -> MeasureAssignment:
    """Read a measure file: a flat JSON object of canonical antichain labels
    to numbers plus a ``concept`` tag field.  Labels are placed by position,
    so no antichain object is built."""
    doc = read_object(path, "measure file", ("concept",))
    concept = BaseConcept.from_tag(doc["concept"])
    index, positions = lattice_index(n), domain_positions(concept, n)
    place = np.full(len(index.members), -1)  # antichain position -> domain place, or -1
    place[positions] = np.arange(len(positions))
    at, values, extra = [], [], []
    for key, v in doc.items():
        if key == "concept":
            continue
        i = int(place[index.label_position(key)])
        value = number(v, f"value at {key!r}")
        if i < 0:
            extra.append(key)
        else:
            at.append(i)
            values.append(value)
    vector = _placed_vector(concept, n, concept.tag, len(positions), at, values, extra, complete=True)
    return MeasureAssignment(concept, n, _IndexView(concept, n, vector))


def patch_singleton_synergies(
    n: int, values: Mapping[Antichain, float], dist: JointDistribution
) -> MeasureAssignment:
    """Complete an external synergy measure into a weak-synergy assignment.

    Multi-collection entries are taken as supplied; every single-collection
    entry is overridden by the information the remaining sources carry about
    the target given that collection, which is what a synergy measure must
    assign there for the summation identities to close.
    """
    check_source_count(n)
    expect(dist, JointDistribution, "dist")
    if dist.n != n:
        raise ValidationError("distribution and measure disagree on source count")
    if not isinstance(values, Mapping):
        message = f"synergy values must map antichains to numbers, got {type(values).__name__}"
        raise ValidationError(message)
    full = source_mask(n)
    out = dict(values)  # checked with the rest by MeasureAssignment
    for alpha in domain_for_concept(BaseConcept.WEAK_SYNERGY, n):
        if len(alpha.collections) == 1:
            a = alpha.collections[0].bits
            out[alpha] = conditional_mi(dist, full & ~a, a)
    return MeasureAssignment(BaseConcept.WEAK_SYNERGY, n, out)
