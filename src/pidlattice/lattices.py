"""Antichains, parthood distributions, and the lattices ordering them.

Collections of source indices are bitmasks over n bits, and a Boolean
function on all 2**n collections is packed into an integer truth table
whose bit s holds the value at collection s.  Both lattice orders then
reduce to subset tests between truth tables, which keeps exhaustive
sweeps over the n = 5 domains (7579 atoms) affordable.

A parthood distribution marks, for every collection of sources, whether
the information atom under construction is part of what that collection
carries.  It is fixed by the antichain of its minimal 1-collections
(access labeling) or, equally well, by the antichain of its maximal
0-collections (blockage labeling).  The per-n :class:`LatticeIndex` is the
one home of both labelings, of the closures behind the two orders and of
the partner maps that translate between the labelings; every
per-antichain function here is a lookup into it.  It is generated from
the up-sets of the collections, the monotone truth tables, and reads each
antichain off an up-set as its minimal collections.
"""

from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Literal, Mapping, Sequence, get_args

import numpy as np

from .errors import (
    CapacityError,
    CompletenessError,
    DomainError,
    ParseError,
    UnsupportedStructureError,
    ValidationError,
    choice,
    expect,
    shown,
)

MAX_SOURCES = 5
# The most sources a SourceSet, Antichain or ParthoodDistribution may have.
# It lies above MAX_SOURCES, so that the per-antichain helpers are asked
# about n = 6 and refuse it themselves, and it bounds what a boundary object
# may size by n: a truth table of n sources has 2**n bits, 256 at the cap.
MAX_BOUNDARY_SOURCES = 8

OrderKind = Literal["redundancy", "synergy"]
Direction = Literal["up", "down"]

FULL_LATTICE = "full-lattice"
JOIN_SEMI_LATTICE = "join-semi-lattice"
MEET_SEMI_LATTICE = "meet-semi-lattice"


def check_source_count(n: int) -> None:
    if type(n) is not int or not 1 <= n <= MAX_SOURCES:  # exact type test: rejects bool
        raise CapacityError(f"need 1..{MAX_SOURCES} sources, got {shown(n)}")


def checked_cache(check: Callable[..., None]):
    """An lru cache that runs ``check`` on the arguments before hashing them:
    the key 2.0 equals 2, True equals 1, and a list has no hash at all."""

    def wrap(fn):
        cached = functools.lru_cache(maxsize=None)(fn)

        @functools.wraps(fn)
        def lookup(*args):
            check(*args)
            return cached(*args)

        lookup.cache_info, lookup.cache_clear = cached.cache_info, cached.cache_clear
        return lookup

    return wrap


def _check_n(n) -> None:
    """The boundary objects' source count: an exact int (not a bool or float), 1..MAX_BOUNDARY_SOURCES."""
    if type(n) is not int or n < 1:
        raise ValidationError(f"source count must be a positive int, got {shown(n)}")
    if n > MAX_BOUNDARY_SOURCES:
        raise ValidationError(f"source count {shown(n)} is above the cap of {MAX_BOUNDARY_SOURCES}")


def checked_iter(items, what: str):
    """An iterator over ``items``; an int or other non-iterable is a ValidationError."""
    try:
        return iter(items)
    except TypeError:
        raise ValidationError(f"{what} must be an iterable, got {type(items).__name__}") from None


def source_mask(n: int) -> int:
    """Bitmask selecting all n sources."""
    return (1 << n) - 1


def table_mask(n: int) -> int:
    """Bitmask selecting all 2**n truth-table positions."""
    return (1 << (1 << n)) - 1


@checked_cache(check_source_count)
def canonical_collections(n: int) -> tuple[int, ...]:
    """The 2**n collection bitmasks in canonical order: by cardinality, then by value."""
    return tuple(sorted(range(1 << n), key=lambda s: (s.bit_count(), s)))


def collection_label(bits: int) -> str:
    """Canonical label of one collection, e.g. ``{1,3}``; the empty collection is ``{}``."""
    if type(bits) is not int or bits < 0:  # exact type test: this runs 2**n times per check
        raise ValidationError(f"collection bits must be a non-negative int, got {shown(bits)}")
    members = [str(i + 1) for i in range(bits.bit_length()) if (bits >> i) & 1]
    return "{" + ",".join(members) + "}"


@checked_cache(_check_n)
def collection_labels(n: int) -> tuple[str, ...]:
    """The :func:`collection_label` of every collection over n sources, indexed by bitmask."""
    return tuple(map(collection_label, range(1 << n)))


def parse_collection_label(text: str, n: int) -> int:
    expect(text, str, "collection label")
    _check_n(n)
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"collection label must be brace-delimited, got {text!r}")
    inner = text[1:-1]
    if not inner:
        return 0
    bits = 0
    for part in inner.split(","):
        try:
            idx = int(part)
        except ValueError:
            raise ParseError(f"bad source index {part!r} in {text!r}") from None
        if not 1 <= idx <= n:
            raise ParseError(f"source index {idx} out of range 1..{n} in {text!r}")
        bits |= 1 << (idx - 1)
    if collection_label(bits) != text:
        raise ParseError(f"collection label {text!r} is not canonical")
    return bits


@dataclass(frozen=True)
class SourceSet:
    """A collection of source indices 1..n, stored as a bitmask."""

    n: int
    bits: int

    def __post_init__(self):
        _check_n(self.n)
        # bit_length, not source_mask: n may be too large to shift by
        if type(self.bits) is not int or self.bits < 0 or self.bits.bit_length() > self.n:
            message = f"collection bits {shown(self.bits)} out of range for n={shown(self.n)}"
            raise ValidationError(message)

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "SourceSet":
        _check_n(n)
        bits = 0
        for idx in checked_iter(indices, "source indices"):
            if type(idx) is not int or not 1 <= idx <= n:  # exact type test: rejects bool
                raise ValidationError(f"source index {shown(idx)} out of range 1..{shown(n)}")
            bits |= 1 << (idx - 1)
        return cls(n, bits)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if (self.bits >> i) & 1)

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def issubset(self, other: "SourceSet") -> bool:
        return self.bits & ~other.bits == 0

    def sort_key(self) -> tuple[int, int]:
        return (self.cardinality, self.bits)

    def __str__(self) -> str:
        return collection_label(self.bits)


def collection_bits(n: int, collection) -> int:
    """The bitmask of a collection given as a SourceSet over n sources or as exact int bits."""
    if isinstance(collection, SourceSet):
        if collection.n != n:
            raise ValidationError(f"collection over {collection.n} sources, expected {n}")
        return collection.bits
    if type(collection) is not int:  # exact type test: rejects bool
        raise ValidationError(f"collection must be a SourceSet or int bits, got {shown(collection)}")
    if not 0 <= collection <= source_mask(n):
        raise ValidationError(f"collection bits {shown(collection)} out of range for n={n}")
    return collection


EMPTY_CHAIN_LABEL = "∅-chain"


def antichain_label(names: Sequence[str], members: Iterable[int]) -> str:
    """The label of an antichain: its members' ``names`` joined in order, or ``∅-chain`` for none."""
    return "".join([names[s] for s in members]) or EMPTY_CHAIN_LABEL


@dataclass(frozen=True)
class Antichain:
    """A set of pairwise incomparable collections, in canonical order.

    Canonical order sorts collections by (cardinality, bitmask value).  The
    two degenerate antichains are allowed: the empty antichain (no
    collections) and the one whose only collection is the empty set.
    """

    n: int
    collections: tuple[SourceSet, ...]

    def __post_init__(self):
        _check_n(self.n)
        if type(self.collections) is not tuple:
            raise ValidationError(f"collections must be a tuple, got {type(self.collections).__name__}")
        prev = None
        for c in self.collections:
            if type(c) is not SourceSet:
                raise ValidationError(f"collections must be SourceSets, got {type(c).__name__}")
            if c.n != self.n:
                raise ValidationError("collection source count differs from antichain's")
            if prev is not None and prev.sort_key() >= c.sort_key():
                raise ValidationError("collections must be in strict canonical order")
            prev = c
        masks = self.masks
        for i, a in enumerate(masks):
            for b in masks[i + 1 :]:
                if a & ~b == 0 or b & ~a == 0:
                    raise ValidationError(
                        f"collections {collection_label(a)} and {collection_label(b)} are comparable"
                    )
        # Antichains key every measure table, so the hash is taken once, over
        # ints only: hashing the SourceSets on each lookup would dominate.
        object.__setattr__(self, "_hash", hash((self.n, masks)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, n: int, masks: Iterable[int | SourceSet]) -> "Antichain":
        """Build from collection bitmasks (or SourceSets), sorting into canonical order."""
        sets = []
        for m in checked_iter(masks, "antichain members"):
            sets.append(m if isinstance(m, SourceSet) else SourceSet(n, m))
        sets.sort(key=SourceSet.sort_key)
        return cls(n, tuple(sets))

    @property
    def masks(self) -> tuple[int, ...]:
        return tuple(c.bits for c in self.collections)

    @property
    def is_empty(self) -> bool:
        return not self.collections

    @property
    def is_empty_collection_chain(self) -> bool:
        """True for the antichain whose single collection is the empty set."""
        return len(self.collections) == 1 and self.collections[0].bits == 0

    @property
    def is_full_collection_chain(self) -> bool:
        """True for the antichain whose single collection is all sources."""
        return len(self.collections) == 1 and self.collections[0].bits == source_mask(self.n)

    def label(self) -> str:
        return antichain_label(collection_labels(self.n), self.masks)

    def __str__(self) -> str:
        return self.label()


def parse_antichain_label(text: str, n: int) -> Antichain:
    """Parse a canonical antichain label back into an Antichain."""
    expect(text, str, "antichain label")
    _check_n(n)
    if text == EMPTY_CHAIN_LABEL:
        return Antichain(n, ())
    if not text or text.count("{") != text.count("}"):
        raise ParseError(f"bad antichain label {text!r}")
    masks = []
    rest = text
    while rest:
        if not rest.startswith("{"):
            raise ParseError(f"bad antichain label {text!r}")
        end = rest.find("}")  # found: each piece taken holds one "}", and the counts are equal
        masks.append(parse_collection_label(rest[: end + 1], n))
        rest = rest[end + 1 :]
    try:
        alpha = Antichain.of(n, masks)
    except ValidationError as exc:
        raise ParseError(f"label {text!r} is not an antichain: {exc}") from None
    if alpha.label() != text:
        raise ParseError(f"antichain label {text!r} is not canonical")
    return alpha


@functools.lru_cache(maxsize=None)
def _monotone_violation_masks(n: int) -> tuple[tuple[int, int], ...]:
    """``(1 << i, pattern)`` per source i, pattern marking the collections without source i."""
    pairs = []
    for i in range(n):
        step = 1 << i
        block = (1 << step) - 1
        pat = 0
        for base in range(0, 1 << n, 2 * step):
            pat |= block << base
        pairs.append((step, pat))
    return tuple(pairs)


@dataclass(frozen=True)
class ParthoodDistribution:
    """A monotone 0/1 assignment over all collections of sources.

    The value at the empty collection is 0, at the full collection 1, and
    adding sources to a collection never clears the value.  Bit s of
    ``table`` holds the value at the collection with bitmask s.
    """

    n: int
    table: int

    def __post_init__(self):
        _check_n(self.n)
        if type(self.table) is not int or not 0 <= self.table <= table_mask(self.n):
            raise ValidationError("truth table out of range")
        if self.table & 1:
            raise ValidationError("value at the empty collection must be 0")
        if not (self.table >> source_mask(self.n)) & 1:
            raise ValidationError("value at the full collection must be 1")
        for step, pat in _monotone_violation_masks(self.n):
            if (self.table & pat) & ~(self.table >> step):
                raise ValidationError("parthood distribution must be monotone")

    def value(self, collection: int | SourceSet) -> int:
        """The value at a collection, a SourceSet over n sources or exact int bits."""
        return (self.table >> collection_bits(self.n, collection)) & 1

    def ones(self) -> tuple[int, ...]:
        return tuple(s for s in range(1 << self.n) if (self.table >> s) & 1)

    def zeros(self) -> tuple[int, ...]:
        return tuple(s for s in range(1 << self.n) if not (self.table >> s) & 1)


def parthood_leq(f: ParthoodDistribution, g: ParthoodDistribution) -> bool:
    """Pointwise order: f below g iff every collection g marks, f marks too.

    The bottom marks everything but the empty collection (fully redundant
    atom); the top marks only the full collection (fully synergistic atom).
    """
    expect(f, ParthoodDistribution, "f")
    expect(g, ParthoodDistribution, "g")
    if f.n != g.n:
        raise DomainError("parthood distributions over different source counts")
    return g.table & ~f.table == 0


def in_access_domain(alpha: Antichain) -> bool:
    """True if the antichain labels a parthood distribution by minimal 1-collections."""
    expect(alpha, Antichain, "alpha")
    return not alpha.is_empty and not alpha.is_empty_collection_chain


def in_blockage_domain(alpha: Antichain) -> bool:
    """True if the antichain labels a parthood distribution by maximal 0-collections."""
    expect(alpha, Antichain, "alpha")
    return not alpha.is_empty and not alpha.is_full_collection_chain


def labeling_refusal(label: str, access: bool) -> DomainError:
    """The refusal of an antichain outside the access labeling, or the blockage one if not ``access``."""
    extrema = "minimal 1-collections" if access else "maximal 0-collections"
    return DomainError(f"antichain {label!r} does not label a parthood distribution by {extrema}")


def parthood_from_antichain(alpha: Antichain) -> ParthoodDistribution:
    """Distribution marking exactly the collections containing a member of alpha."""
    if not in_access_domain(alpha):
        raise labeling_refusal(alpha.label(), access=True)
    return ParthoodDistribution(alpha.n, _order_table("redundancy", alpha))


def antichain_from_parthood(f: ParthoodDistribution) -> Antichain:
    """Antichain of minimal collections the distribution marks."""
    expect(f, ParthoodDistribution, "f")
    index = lattice_index(f.n)
    return index.antichains[index.access_antichain[_atom_position(index, f)]]


def parthood_from_synergy_antichain(alpha: Antichain) -> ParthoodDistribution:
    """Distribution clearing exactly the collections contained in a member of alpha."""
    if not in_blockage_domain(alpha):
        raise labeling_refusal(alpha.label(), access=False)
    return ParthoodDistribution(alpha.n, _order_table("synergy", alpha))


def synergy_antichain_from_parthood(f: ParthoodDistribution) -> Antichain:
    """Antichain of maximal collections the distribution clears."""
    expect(f, ParthoodDistribution, "f")
    index = lattice_index(f.n)
    return index.antichains[index.blockage_antichain[_atom_position(index, f)]]


def minimal_non_subsets(alpha: Antichain) -> Antichain:
    """Partner map: minimal collections that are a subset of no member of alpha.

    Translates a blockage labeling into the access labeling of the same
    parthood distribution; inverse of :func:`maximal_non_supersets`.
    """
    return _partner_image(minimal_non_subsets, alpha)


def maximal_non_supersets(alpha: Antichain) -> Antichain:
    """Partner map: maximal collections that contain no member of alpha."""
    return _partner_image(maximal_non_supersets, alpha)


def _partner_image(mapper: Callable[[Antichain], Antichain], alpha: Antichain) -> Antichain:
    expect(alpha, Antichain, "alpha")
    index = lattice_index(alpha.n)
    return index.antichains[index.partner[mapper][index.position[alpha]]]


def _atom_position(index: LatticeIndex, f: ParthoodDistribution) -> int:
    return int(index.atom_positions(np.array([f.table], dtype=np.uint64))[0])


@checked_cache(check_source_count)
def enumerate_antichains(n: int) -> tuple[Antichain, ...]:
    """All antichains over n sources, in canonical order.

    Counts follow the Dedekind numbers: 3, 6, 20, 168, 7581 for n = 1..5.
    Canonical order ranks the collections by (cardinality, bitmask value)
    and compares antichains as the tuples of their collections' ranks, so a
    prefix comes before its extensions.  The antichains are those of
    :func:`lattice_index`, whose objects are built on the first call.
    """
    return lattice_index(n).antichains


@dataclass(frozen=True, eq=False)
class LatticeIndex:
    """The antichains over n sources compiled into integer arrays.

    Antichain i holds the minimal collections of the up-set ``up[i]`` (a
    uint64 truth table), whose downward closure is ``down[i]``.  Row
    ``members[i]`` lists them in canonical order, padded with ``1 << n``,
    and ``labels[i]`` names them, the rows in the order of
    :func:`enumerate_antichains`.  Decompositions read these arrays only, so
    the objects ``antichains[i]``, with ``position[alpha]`` giving i back,
    are built on first use, and not one constructor call each: one numpy
    pass checks every row against the ``Antichain`` constructor's rules
    (:func:`_antichains_from_rows`), as :func:`enumerate_parthood_distributions`
    checks the atom tables against ``ParthoodDistribution``'s, and the first
    bad row raises the constructor's ValidationError.
    ``partner[minimal_non_subsets]`` and ``partner[maximal_non_supersets]``
    are those two maps as permutations of the antichain positions.

    Atom j is ``enumerate_parthood_distributions(n)[j]``, with truth table
    ``atom_tables[j]``.  It is labeled by antichain ``access_antichain[j]``
    through its minimal 1-collections and by ``blockage_antichain[j]``
    through its maximal 0-collections.  ``access_atom`` and ``blockage_atom``
    send an antichain back to the atom it labels, or to -1 outside that
    domain.  ``export_rank[j]`` is the place of atom j when atoms are sorted
    by their access label, and ``marks[s, j]`` whether atom j marks s.

    The atom tables are the up-sets of the Boolean lattice of collections,
    less the empty up-set and the full one, so under inclusion they form a
    distributive lattice whose covers add a single collection.  ``steps``
    lists those covers as ``(dst, src)`` arrays of atom indices, one pair of
    arrays per collection s in increasing cardinality: ``atom_tables[src]``
    is ``atom_tables[dst]`` plus collection s.  Running the steps in that
    order sums over supersets, in reverse order over subsets, and undoing
    them in the opposite order inverts either sum (Björklund et al.,
    "Fast zeta transforms for lattices with few irreducibles", SODA 2012).
    """

    n: int
    labels: tuple[str, ...]
    up: np.ndarray
    down: np.ndarray
    members: np.ndarray
    partner: Mapping[Callable[[Antichain], Antichain], np.ndarray]
    access_atom: np.ndarray
    blockage_atom: np.ndarray
    atom_tables: np.ndarray
    access_antichain: np.ndarray
    blockage_antichain: np.ndarray
    export_rank: np.ndarray
    steps: tuple[tuple[np.ndarray, np.ndarray], ...]
    _table_order: np.ndarray

    @functools.cached_property
    def antichains(self) -> tuple[Antichain, ...]:
        """The antichain of each member row; built on first use."""
        return _antichains_from_rows(self.n, self.members)

    @functools.cached_property
    def marks(self) -> np.ndarray:
        """Row s: which atoms, in atom order, mark collection s; built on first use."""
        marks = (self.atom_tables >> np.arange(1 << self.n, dtype=np.uint64)[:, None]) & np.uint64(1) == 1
        marks.flags.writeable = False
        return marks

    @functools.cached_property
    def position(self) -> Mapping[Antichain, int]:
        """Antichain -> its index; built on first use, as most callers never need it."""
        return MappingProxyType({alpha: i for i, alpha in enumerate(self.antichains)})

    @functools.cached_property
    def _label_positions(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def label_position(self, label: str) -> int:
        """Index of the antichain with this canonical label; ParseError for any other text."""
        if label not in self._label_positions:
            parse_antichain_label(label, self.n)  # raises: every canonical label is listed
        return self._label_positions[label]

    def atom_positions(self, tables: np.ndarray) -> np.ndarray:
        """Atom index of each packed truth table; DomainError for a non-atom."""
        sorted_tables = self.atom_tables[self._table_order]
        at = np.minimum(np.searchsorted(sorted_tables, tables), len(sorted_tables) - 1)
        pos = self._table_order[at]
        if np.any(self.atom_tables[pos] != tables):
            raise DomainError(f"truth table is not a parthood distribution over {self.n} sources")
        return pos

    def superset_sums(self, atoms: np.ndarray) -> np.ndarray:
        """Value at atom j: the sum of atoms whose tables contain atom j's table."""
        out = np.array(atoms, dtype=np.float64)
        for dst, src in self.steps:
            out[dst] += out[src]
        return out

    def subset_sums(self, atoms: np.ndarray) -> np.ndarray:
        """Value at atom j: the sum of atoms whose tables lie inside atom j's table."""
        out = np.array(atoms, dtype=np.float64)
        for dst, src in reversed(self.steps):
            out[src] += out[dst]
        return out

    def invert_superset_sums(self, sums: np.ndarray) -> np.ndarray:
        """Atoms whose :meth:`superset_sums` are ``sums``."""
        out = np.array(sums, dtype=np.float64)
        for dst, src in reversed(self.steps):
            out[dst] -= out[src]
        return out

    def invert_subset_sums(self, sums: np.ndarray) -> np.ndarray:
        """Atoms whose :meth:`subset_sums` are ``sums``."""
        out = np.array(sums, dtype=np.float64)
        for dst, src in self.steps:
            out[src] -= out[dst]
        return out


@checked_cache(check_source_count)
def lattice_index(n: int) -> LatticeIndex:
    """The per-n :class:`LatticeIndex`, generated from the up-sets of the collections."""
    full = np.uint64(table_mask(n))
    pad = 1 << n
    # An up-set over sources 1..k splits into its halves without and with
    # source k, f = f0 | f1 << 2**(k-1): up-sets over 1..k-1 with f0 inside
    # f1 (the split behind Dedekind-number counts; Wiedemann, Order 8, 1991).
    up = np.array([0, 1], dtype=np.uint64)
    for k in range(n):
        f0, f1 = up[:, None], up[None, :]
        up = (f0 | f1 << np.uint64(1 << k))[f0 & ~f1 == 0]
    # the members: collections whose one-smaller subsets all lie outside the up-set
    minimal = up.copy()
    for step, lacking in _monotone_violation_masks(n):
        minimal &= ~((up & np.uint64(lacking)) << np.uint64(step))
    # Rank the members in canonical collection order.  Sorting the rank rows
    # lexicographically, empty slots first, puts a prefix before its extensions.
    canonical = canonical_collections(n)
    has = (minimal[:, None] >> np.array(canonical, dtype=np.uint64)) & np.uint64(1) == 1
    ranks = np.sort(np.where(has, np.arange(pad), pad), axis=1)[:, : has.sum(axis=1).max()]
    order = np.lexsort(np.where(ranks == pad, -1, ranks).T[::-1])
    members = np.array([*canonical, pad], dtype=np.int8)[ranks[order]]
    up, down = up[order], minimal[order]
    for step, lacking in _monotone_violation_masks(n):  # down-closure: drop one source at a time
        down |= (down & ~np.uint64(lacking)) >> np.uint64(step)
    names = [*collection_labels(n), ""]  # "" fills the empty member slots
    labels = tuple([antichain_label(names, row) for row in members.tolist()])

    # Up-sets and down-sets each label the antichains one to one, so a
    # partner map is a lookup of the complementary closure.
    by_up, by_down = np.argsort(up), np.argsort(down)
    partner = {
        minimal_non_subsets: by_up[np.searchsorted(up[by_up], full ^ down)],
        maximal_non_supersets: by_down[np.searchsorted(down[by_down], full ^ up)],
    }
    access_antichain = np.flatnonzero((up != 0) & (up != full))
    access_atom = np.full(len(members), -1)
    access_atom[access_antichain] = np.arange(len(access_antichain))
    atom_tables = up[access_antichain]
    table_order = np.argsort(atom_tables)
    sorted_tables = atom_tables[table_order]

    steps = []
    for s in canonical:
        bit = np.uint64(1 << s)
        # Adding a bit that all of them lack keeps sorted tables sorted, and
        # searchsorted runs several times faster on ascending needles.
        lacking = np.flatnonzero((sorted_tables & bit) == 0)
        grown = sorted_tables[lacking] | bit
        at = np.minimum(np.searchsorted(sorted_tables, grown), len(sorted_tables) - 1)
        hit = sorted_tables[at] == grown
        if hit.any():
            dst, src = table_order[lacking[hit]], table_order[at[hit]]
            by_dst = np.argsort(dst)
            # int32 halves the largest array of the index (35,510 pairs at n = 5)
            steps.append((dst[by_dst].astype(np.int32), src[by_dst].astype(np.int32)))

    atom_labels = [labels[i] for i in access_antichain.tolist()]
    export_rank = np.argsort(sorted(range(len(atom_labels)), key=atom_labels.__getitem__))
    index = LatticeIndex(
        n=n,
        labels=labels,
        up=up,
        down=down,
        members=members,
        partner=MappingProxyType(partner),
        access_atom=access_atom,
        blockage_atom=access_atom[partner[minimal_non_subsets]],
        atom_tables=atom_tables,
        access_antichain=access_antichain,
        blockage_antichain=partner[maximal_non_supersets][access_antichain],
        export_rank=export_rank,
        steps=tuple(steps),
        _table_order=table_order,
    )
    # Every caller shares the cached index, so none may write to it.
    shared = [*vars(index).values(), *partner.values(), *(a for pair in steps for a in pair)]
    for array in shared:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return index


def _antichains_from_rows(n: int, members: np.ndarray) -> tuple[Antichain, ...]:
    """The antichains of member rows, checked by the constructor's rules in one pass.

    A row lists collection bitmasks in strictly increasing canonical rank,
    padded after them with ``1 << n``, and no two of them are comparable.
    The first row that breaks a rule goes through the public constructor,
    which raises its ValidationError; the rest are built without it.
    """
    pad = 1 << n
    rank = np.full(pad + 1, pad)
    rank[list(canonical_collections(n))] = np.arange(pad)
    known = (members >= 0) & (members <= pad)
    real = known & (members != pad)
    ranks = rank[np.where(known, members, pad)]  # a pad ranks above every collection
    ordered = ~real[:, 1:] | (ranks[:, :-1] < ranks[:, 1:])
    a, b = members[:, :, None], members[:, None, :]
    pairs = np.triu(np.ones(members.shape[1:] * 2, dtype=bool), 1) & real[:, :, None] & real[:, None, :]
    comparable = ((a & ~b == 0) | (b & ~a == 0)) & pairs
    bad = ~known.all(axis=1) | ~ordered.all(axis=1) | comparable.any(axis=(1, 2))
    rows = members.tolist()
    if bad.any():
        row = rows[int(bad.argmax())]
        while row and row[-1] == pad:
            row.pop()
        Antichain(n, tuple(SourceSet(n, s) for s in row))  # raises: a pad left inside is out of range
    sets = [SourceSet(n, s) for s in range(pad)]
    new, put = object.__new__, object.__setattr__
    out = []
    for row, k in zip(rows, real.sum(axis=1).tolist()):
        alpha, masks = new(Antichain), tuple(row[:k])
        put(alpha, "n", n)
        put(alpha, "collections", tuple([sets[s] for s in masks]))
        put(alpha, "_hash", hash((n, masks)))
        out.append(alpha)
    return tuple(out)


@checked_cache(check_source_count)
def enumerate_parthood_distributions(n: int) -> tuple[ParthoodDistribution, ...]:
    """All parthood distributions over n sources (Dedekind number minus two)."""
    return _parthood_from_tables(n, lattice_index(n).atom_tables)


def _parthood_from_tables(n: int, tables: np.ndarray) -> tuple[ParthoodDistribution, ...]:
    """The distributions of uint64 truth tables, checked by the constructor's rules in one pass.

    The first table that breaks a rule goes through the public constructor,
    which raises its ValidationError; the rest are built without it.
    """
    bad = (tables > table_mask(n)) | (tables & 1 == 1) | (tables >> source_mask(n) & 1 == 0)
    for step, pat in _monotone_violation_masks(n):
        bad |= tables & pat & ~(tables >> step) != 0
    values = tables.tolist()
    if bad.any():
        ParthoodDistribution(n, values[int(bad.argmax())])  # raises that table's fault
    new, put = object.__new__, object.__setattr__
    out = []
    for table in values:
        f = new(ParthoodDistribution)
        put(f, "n", n)
        put(f, "table", table)
        out.append(f)
    return tuple(out)


def _order_table(kind: OrderKind, alpha: Antichain) -> int:
    """Truth table whose subset order realizes the kind's order on antichains.

    It is the up-closure for redundancy and the complement of the
    down-closure for synergy.
    """
    index = lattice_index(alpha.n)
    at = index.position[alpha]
    if kind == "redundancy":
        return int(index.up[at])
    return table_mask(alpha.n) ^ int(index.down[at])


def antichain_leq(kind: OrderKind, alpha: Antichain, beta: Antichain) -> bool:
    """Order predicate extended to all antichains (closure-mask inclusion)."""
    choice(kind, get_args(OrderKind), "order kind")
    expect(alpha, Antichain, "alpha")
    expect(beta, Antichain, "beta")
    if alpha.n != beta.n:
        raise DomainError("antichains over different source counts")
    return _order_table(kind, beta) & ~_order_table(kind, alpha) == 0


def order_leq(kind: OrderKind, alpha: Antichain, beta: Antichain) -> bool:
    """Compare two antichains in the redundancy or synergy order.

    The redundancy order lives on antichains that label distributions by
    minimal 1-collections, the synergy order on those that label by maximal
    0-collections; operands outside the respective domain are rejected.
    """
    choice(kind, get_args(OrderKind), "order kind")
    member = in_access_domain if kind == "redundancy" else in_blockage_domain
    for name, x in (("alpha", alpha), ("beta", beta)):
        expect(x, Antichain, name)
        if not member(x):
            raise DomainError(f"antichain {x.label()!r} outside the {kind} order's domain")
    return antichain_leq(kind, alpha, beta)


def _invert_cumulative(tables: Sequence[int], values: Sequence[float], supersets: bool) -> list[float]:
    """Solve V(x) = sum of pi(y) over tables y containing (or contained in) x.

    A table contains another iff its complement lies inside the other's
    complement, so superset sums are subset sums over the complemented
    tables, and one scan of keys serves both.  Recursive descent in a
    linear extension, by (popcount of the key, table): each node's atom is
    its value minus the atoms already solved whose keys lie inside its own.
    """
    full = (1 << max((t.bit_length() for t in tables), default=1)) - 1
    keys = [full ^ t if supersets else t for t in tables]
    order = sorted(range(len(tables)), key=lambda i: (keys[i].bit_count(), tables[i]))
    sorted_keys = np.array([keys[i] for i in order], dtype=np.uint64)
    sorted_values = np.array([float(values[i]) for i in order], dtype=np.float64)
    pi = np.zeros(len(tables), dtype=np.float64)
    for k in range(len(tables)):
        inside = (sorted_keys[:k] & ~sorted_keys[k]) == 0
        pi[k] = sorted_values[k] - float(pi[:k][inside].sum())
    return pi[np.argsort(order)].tolist()


@dataclass(frozen=True)
class ConceptLattice:
    """Antichains under one of the two orders, with covers and a kind tag.

    ``kind`` is ``full-lattice`` when the node set has a unique top and a
    unique bottom, otherwise ``join-semi-lattice`` (unique top only) or
    ``meet-semi-lattice`` (unique bottom only).  ``covers[i]`` lists the
    indices of the immediate successors of node i in the chosen direction.
    A lattice built directly is checked as :func:`build_lattice` checks its
    nodes, and ``tables[i]`` must be a truth table over their source count.
    """

    nodes: tuple[Antichain, ...]
    order_kind: OrderKind
    direction: Direction
    kind: str
    tables: tuple[int, ...]
    covers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        expect(self.nodes, tuple, "lattice nodes")
        n = _check_lattice(self.nodes, self.order_kind, self.direction)
        choice(self.kind, (FULL_LATTICE, JOIN_SEMI_LATTICE, MEET_SEMI_LATTICE), "lattice kind")
        for field, items in (("tables", self.tables), ("covers", self.covers)):
            expect(items, tuple, f"lattice {field}")
            if len(items) != len(self.nodes):
                raise ValidationError(f"lattice {field} must hold one entry per node")
        mask, count = table_mask(n), len(self.nodes)
        if any(type(t) is not int or not 0 <= t <= mask for t in self.tables):
            raise ValidationError(f"lattice tables must be ints in 0..{mask}")
        for ups in self.covers:  # exact type tests: a lattice at n = 5 has thousands of covers
            if type(ups) is not tuple or any(type(j) is not int or not 0 <= j < count for j in ups):
                raise ValidationError(f"lattice covers must be tuples of node indices in 0..{count - 1}")

    @functools.cached_property
    def index(self) -> Callable[[Antichain], int]:
        """Node -> its index; the lookup table is built on first use."""
        return {a: i for i, a in enumerate(self.nodes)}.__getitem__

    def leq(self, alpha: Antichain, beta: Antichain) -> bool:
        expect(alpha, Antichain, "alpha")
        expect(beta, Antichain, "beta")
        try:
            i, j = self.index(alpha), self.index(beta)
        except KeyError as exc:
            raise DomainError(f"antichain {exc.args[0].label()!r} is not a node of this lattice") from None
        return self.leq_by_index(i, j)

    def leq_by_index(self, i: int, j: int) -> bool:
        for k in (i, j):  # exact type test: rejects bool, and a negative index would read from the end
            if type(k) is not int or not 0 <= k < len(self.nodes):
                raise DomainError(f"{shown(k)} is not a node index of this lattice, 0..{len(self.nodes) - 1}")
        below, above = (i, j) if self.direction == "up" else (j, i)
        return self.tables[above] & ~self.tables[below] == 0

    def bottom_indices(self) -> tuple[int, ...]:
        return _extrema(self.covers)[0]

    def top_indices(self) -> tuple[int, ...]:
        return _extrema(self.covers)[1]


def _extrema(covers: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bottoms and tops of a cover relation, ``covers[i]`` listing node i's successors.

    A bottom is no node's successor; a top has no successor.
    """
    covered = {j for ups in covers for j in ups}
    bottoms = tuple(i for i in range(len(covers)) if i not in covered)
    return bottoms, tuple(i for i, ups in enumerate(covers) if not ups)


def _check_lattice(nodes: tuple, kind: OrderKind, direction: Direction) -> int:
    """The rules every lattice's nodes and order meet; returns their source count."""
    for a in nodes:
        expect(a, Antichain, "a lattice node")
    if not nodes:
        raise ValidationError("lattice needs at least one node")
    n = nodes[0].n
    if any(a.n != n for a in nodes):
        raise ValidationError("lattice nodes over different source counts")
    if len(set(nodes)) != len(nodes):
        raise ValidationError("duplicate lattice nodes")
    choice(kind, get_args(OrderKind), "order kind")
    choice(direction, get_args(Direction), "direction")
    return n


def build_lattice(
    nodes: Iterable[Antichain], kind: OrderKind, direction: Direction = "up"
) -> ConceptLattice:
    """Order the given antichains and compute covers and the structure tag.

    ``direction="down"`` reverses the order (used for the concepts whose
    values accumulate downward).  Covers are the transitive reduction, found
    in one pass over a linear extension: sorted by the popcount of their
    order tables, every node comes before the nodes above it.  Each node's
    up-set is one bitset over the sorted nodes.  The lowest node left in a
    node's strict up-set is a cover; dropping the cover's up-set and
    repeating yields the rest, one big-int operation per cover.
    """
    node_list = tuple(checked_iter(nodes, "lattice nodes"))
    n = _check_lattice(node_list, kind, direction)

    tables = tuple(_order_table(kind, a) for a in node_list)
    # Going up shrinks the tables, or for "down" their complements.
    flip = table_mask(n) if direction == "down" else 0
    keys = [t ^ flip for t in tables]
    order = sorted(range(len(keys)), key=lambda i: -keys[i].bit_count())
    arr = np.array([keys[i] for i in order], dtype=np.uint64)
    # upper[k]: bit m set iff sorted node m is sorted node k or lies above it;
    # distinct nodes have distinct keys, so all of those sort from k on.
    upper = []
    for k, i in enumerate(order):
        rel = (arr[k:] & np.uint64(table_mask(n) ^ keys[i])) == 0
        upper.append(int.from_bytes(np.packbits(rel, bitorder="little").tobytes(), "little") << k)

    covers: list[tuple[int, ...]] = [()] * len(tables)
    for k, i in enumerate(order):
        ups = []
        rest = upper[k] ^ (1 << k)
        while rest:
            m = (rest & -rest).bit_length() - 1
            ups.append(order[m])
            rest &= ~upper[m]
        covers[i] = tuple(sorted(ups))

    bottoms, tops = _extrema(covers)
    if len(tops) == 1 and len(bottoms) == 1:
        tag = FULL_LATTICE
    elif len(tops) == 1:
        tag = JOIN_SEMI_LATTICE
    elif len(bottoms) == 1:
        tag = MEET_SEMI_LATTICE
    else:
        raise UnsupportedStructureError("node set has neither a unique top nor a unique bottom")

    return ConceptLattice(
        nodes=node_list,
        order_kind=kind,
        direction=direction,
        kind=tag,
        tables=tables,
        covers=tuple(covers),
    )


def moebius_invert(
    lattice: ConceptLattice,
    values: Mapping[Antichain, float],
    direction: Literal["down-sum", "up-sum"],
) -> dict[Antichain, float]:
    """Recover atoms from cumulative values over a full lattice.

    ``down-sum`` means each node's value is the sum of atoms at nodes at or
    below it; ``up-sum`` the sum at or above.  Semi-lattices are refused:
    without both extrema the cumulative map need not determine the atoms.
    """
    expect(lattice, ConceptLattice, "lattice")
    expect(values, Mapping, "values")
    if lattice.kind != FULL_LATTICE:
        raise UnsupportedStructureError(
            f"Moebius inversion needs a full lattice, got {lattice.kind}"
        )
    choice(direction, ("down-sum", "up-sum"), "inversion direction")
    missing = [a.label() for a in lattice.nodes if a not in values]
    if missing:
        raise CompletenessError(f"values missing for nodes: {', '.join(missing[:5])}")
    extra = len(values) - len(lattice.nodes)
    if extra > 0:
        raise CompletenessError(f"values carry {extra} entries outside the lattice")
    vals = [values[a] for a in lattice.nodes]
    for a, v in zip(lattice.nodes, vals):  # abs(v) <= max refuses NaN, infinity and big ints
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not abs(v) <= sys.float_info.max:
            raise ValidationError(f"value at {a.label()} is not a finite number: {shown(v)}")
    # Natural table order: larger table = lower node; a "down" lattice flips it.
    supersets = (direction == "down-sum") == (lattice.direction == "up")
    pi = _invert_cumulative(lattice.tables, vals, supersets)
    return {a: pi[i] for i, a in enumerate(lattice.nodes)}


def lattice_to_dot(lattice: ConceptLattice) -> str:
    """Render the cover relation as Graphviz DOT, lower nodes drawn below."""
    expect(lattice, ConceptLattice, "lattice")
    labels = [a.label() for a in lattice.nodes]
    lines = ["digraph lattice {", "  rankdir=BT;"]
    lines += [f'  "{label}";' for label in labels]
    for i, ups in enumerate(lattice.covers):
        lines += [f'  "{labels[i]}" -> "{labels[j]}";' for j in ups]
    lines.append("}")
    return "\n".join(lines) + "\n"
