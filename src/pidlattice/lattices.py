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
per-antichain function here is a lookup into it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Literal, Mapping, Sequence

import numpy as np

from .errors import (
    CapacityError,
    CompletenessError,
    DomainError,
    ParseError,
    UnsupportedStructureError,
    ValidationError,
)

MAX_SOURCES = 5

OrderKind = Literal["redundancy", "synergy"]
Direction = Literal["up", "down"]

FULL_LATTICE = "full-lattice"
JOIN_SEMI_LATTICE = "join-semi-lattice"
MEET_SEMI_LATTICE = "meet-semi-lattice"


def check_source_count(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_SOURCES:
        raise CapacityError(f"source count must be an int in 1..{MAX_SOURCES}, got {n!r}")


def source_mask(n: int) -> int:
    """Bitmask selecting all n sources."""
    return (1 << n) - 1


def table_mask(n: int) -> int:
    """Bitmask selecting all 2**n truth-table positions."""
    return (1 << (1 << n)) - 1


def collection_label(bits: int) -> str:
    """Canonical label of one collection, e.g. ``{1,3}``; the empty collection is ``{}``."""
    members = [str(i + 1) for i in range(bits.bit_length()) if (bits >> i) & 1]
    return "{" + ",".join(members) + "}"


def parse_collection_label(text: str, n: int) -> int:
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
        if not isinstance(self.n, int) or self.n < 1:
            raise ValidationError(f"source count must be a positive int, got {self.n!r}")
        if not isinstance(self.bits, int) or not 0 <= self.bits <= source_mask(self.n):
            raise ValidationError(f"collection bits {self.bits!r} out of range for n={self.n}")

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "SourceSet":
        bits = 0
        for idx in indices:
            if not 1 <= idx <= n:
                raise ValidationError(f"source index {idx} out of range 1..{n}")
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


EMPTY_CHAIN_LABEL = "∅-chain"


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
        prev = None
        for c in self.collections:
            if c.n != self.n:
                raise ValidationError("collection source count differs from antichain's")
            if prev is not None and prev.sort_key() >= c.sort_key():
                raise ValidationError("collections must be in strict canonical order")
            prev = c
        masks = [c.bits for c in self.collections]
        for i, a in enumerate(masks):
            for b in masks[i + 1 :]:
                if a & ~b == 0 or b & ~a == 0:
                    raise ValidationError(
                        f"collections {collection_label(a)} and {collection_label(b)} are comparable"
                    )
        # Antichains key every measure table; hashing the nested tuple on
        # each lookup would dominate a table's validation.
        object.__setattr__(self, "_hash", hash((self.n, self.collections)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, n: int, masks: Iterable[int | SourceSet]) -> "Antichain":
        """Build from collection bitmasks (or SourceSets), sorting into canonical order."""
        sets = []
        for m in masks:
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
        if self.is_empty:
            return EMPTY_CHAIN_LABEL
        return "".join(collection_label(m) for m in self.masks)

    def __str__(self) -> str:
        return self.label()


def parse_antichain_label(text: str, n: int) -> Antichain:
    """Parse a canonical antichain label back into an Antichain."""
    if text == EMPTY_CHAIN_LABEL:
        return Antichain(n, ())
    if not text or text.count("{") != text.count("}"):
        raise ParseError(f"bad antichain label {text!r}")
    masks = []
    rest = text
    while rest:
        if not rest.startswith("{"):
            raise ParseError(f"bad antichain label {text!r}")
        end = rest.find("}")
        if end < 0:
            raise ParseError(f"bad antichain label {text!r}")
        masks.append(parse_collection_label(rest[: end + 1], n))
        rest = rest[end + 1 :]
    try:
        alpha = Antichain.of(n, masks)
    except ValidationError as exc:
        raise ParseError(f"label {text!r} is not an antichain: {exc}") from None
    if alpha.label() != text:
        raise ParseError(f"antichain label {text!r} is not canonical")
    return alpha


def upward_closure(n: int, masks: Iterable[int]) -> int:
    """Truth-table mask of all collections that contain some member."""
    out = 0
    members = tuple(masks)
    for b in range(1 << n):
        for a in members:
            if b & a == a:
                out |= 1 << b
                break
    return out


def downward_closure(n: int, masks: Iterable[int]) -> int:
    """Truth-table mask of all collections contained in some member."""
    out = 0
    members = tuple(masks)
    for b in range(1 << n):
        for a in members:
            if b & ~a == 0:
                out |= 1 << b
                break
    return out


def _monotone_violation_masks(n: int) -> tuple[tuple[int, int], ...]:
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
        if not isinstance(self.n, int) or self.n < 1:
            raise ValidationError(f"source count must be a positive int, got {self.n!r}")
        if not isinstance(self.table, int) or not 0 <= self.table <= table_mask(self.n):
            raise ValidationError("truth table out of range")
        if self.table & 1:
            raise ValidationError("value at the empty collection must be 0")
        if not (self.table >> source_mask(self.n)) & 1:
            raise ValidationError("value at the full collection must be 1")
        for step, pat in _monotone_violation_masks(self.n):
            if (self.table & pat) & ~(self.table >> step):
                raise ValidationError("parthood distribution must be monotone")

    def value(self, collection: int | SourceSet) -> int:
        bits = collection.bits if isinstance(collection, SourceSet) else collection
        return (self.table >> bits) & 1

    def ones(self) -> tuple[int, ...]:
        return tuple(s for s in range(1 << self.n) if (self.table >> s) & 1)

    def zeros(self) -> tuple[int, ...]:
        return tuple(s for s in range(1 << self.n) if not (self.table >> s) & 1)


def parthood_leq(f: ParthoodDistribution, g: ParthoodDistribution) -> bool:
    """Pointwise order: f below g iff every collection g marks, f marks too.

    The bottom marks everything but the empty collection (fully redundant
    atom); the top marks only the full collection (fully synergistic atom).
    """
    if f.n != g.n:
        raise DomainError("parthood distributions over different source counts")
    return g.table & ~f.table == 0


def in_access_domain(alpha: Antichain) -> bool:
    """True if the antichain labels a parthood distribution by minimal 1-collections."""
    return not alpha.is_empty and not alpha.is_empty_collection_chain


def in_blockage_domain(alpha: Antichain) -> bool:
    """True if the antichain labels a parthood distribution by maximal 0-collections."""
    return not alpha.is_empty and not alpha.is_full_collection_chain


def parthood_from_antichain(alpha: Antichain) -> ParthoodDistribution:
    """Distribution marking exactly the collections containing a member of alpha."""
    if not in_access_domain(alpha):
        raise DomainError(
            f"antichain {alpha.label()!r} does not label a parthood distribution "
            "by minimal 1-collections"
        )
    return ParthoodDistribution(alpha.n, _order_table("redundancy", alpha))


def antichain_from_parthood(f: ParthoodDistribution) -> Antichain:
    """Antichain of minimal collections the distribution marks."""
    index = lattice_index(f.n)
    return index.antichains[index.access_antichain[_atom_position(index, f)]]


def parthood_from_synergy_antichain(alpha: Antichain) -> ParthoodDistribution:
    """Distribution clearing exactly the collections contained in a member of alpha."""
    if not in_blockage_domain(alpha):
        raise DomainError(
            f"antichain {alpha.label()!r} does not label a parthood distribution "
            "by maximal 0-collections"
        )
    return ParthoodDistribution(alpha.n, _order_table("synergy", alpha))


def synergy_antichain_from_parthood(f: ParthoodDistribution) -> Antichain:
    """Antichain of maximal collections the distribution clears."""
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
    index = lattice_index(alpha.n)
    return index.antichains[index.partner[mapper][index.position[alpha]]]


def _atom_position(index: LatticeIndex, f: ParthoodDistribution) -> int:
    return int(index.atom_positions(np.array([f.table], dtype=np.uint64))[0])


@functools.lru_cache(maxsize=None)
def enumerate_antichains(n: int) -> tuple[Antichain, ...]:
    """All antichains over n sources, in canonical order.

    Counts follow the Dedekind numbers: 3, 6, 20, 168, 7581 for n = 1..5.
    Backtracking over collections in canonical order; a candidate extends a
    partial antichain iff it contains no chosen collection (it can never be
    contained in one, since candidates arrive in non-decreasing cardinality).
    """
    check_source_count(n)
    order = sorted(range(1 << n), key=lambda s: (s.bit_count(), s))
    found: list[Antichain] = []
    chosen: list[int] = []

    def extend(start: int) -> None:
        found.append(Antichain.of(n, tuple(chosen)))
        for idx in range(start, len(order)):
            s = order[idx]
            if any(s & c == c for c in chosen):
                continue
            chosen.append(s)
            extend(idx + 1)
            chosen.pop()

    extend(0)
    return tuple(found)


@dataclass(frozen=True, eq=False)
class LatticeIndex:
    """The antichains over n sources compiled into integer arrays.

    Antichain i is ``enumerate_antichains(n)[i]``, with ``position[alpha]``
    giving i back, labeled ``labels[i]``, with upward and downward closures
    ``up[i]`` and ``down[i]`` (uint64 truth tables) and its collection masks
    in row ``members[i]``, padded with ``1 << n``.  ``partner[minimal_non_subsets]`` and
    ``partner[maximal_non_supersets]`` are those two maps as permutations of
    the antichain positions.

    Atom j is ``enumerate_parthood_distributions(n)[j]``, with truth table
    ``atom_tables[j]``.  It is labeled by antichain ``access_antichain[j]``
    through its minimal 1-collections and by ``blockage_antichain[j]``
    through its maximal 0-collections.  ``access_atom`` and ``blockage_atom``
    send an antichain back to the atom it labels, or to -1 outside that
    domain.  ``export_rank[j]`` is the place of atom j when atoms are sorted
    by their access label.

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
    antichains: tuple[Antichain, ...]
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
    def position(self) -> Mapping[Antichain, int]:
        """Antichain -> its index; built on first use, as most callers never need it."""
        return MappingProxyType({alpha: i for i, alpha in enumerate(self.antichains)})

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


@functools.lru_cache(maxsize=None)
def lattice_index(n: int) -> LatticeIndex:
    """The per-n :class:`LatticeIndex`, built once from :func:`enumerate_antichains`."""
    antichains = enumerate_antichains(n)
    full = np.uint64(table_mask(n))
    pad = 1 << n
    width = max(len(a.collections) for a in antichains)
    members = np.full((len(antichains), width), pad, dtype=np.int8)
    for i, alpha in enumerate(antichains):
        members[i, : len(alpha.collections)] = alpha.masks
    # closures of single collections; the padding slot contributes nothing
    up_of = np.array([upward_closure(n, (s,)) for s in range(pad)] + [0], dtype=np.uint64)
    down_of = np.array([downward_closure(n, (s,)) for s in range(pad)] + [0], dtype=np.uint64)
    up = np.bitwise_or.reduce(up_of[members], axis=1)
    down = np.bitwise_or.reduce(down_of[members], axis=1)

    # Up-sets and down-sets each label the antichains one to one, so a
    # partner map is a lookup of the complementary closure.
    by_up, by_down = np.argsort(up), np.argsort(down)
    partner = {
        minimal_non_subsets: by_up[np.searchsorted(up[by_up], full ^ down)],
        maximal_non_supersets: by_down[np.searchsorted(down[by_down], full ^ up)],
    }
    access_antichain = np.flatnonzero((up != 0) & (up != full))
    access_atom = np.full(len(antichains), -1)
    access_atom[access_antichain] = np.arange(len(access_antichain))
    atom_tables = up[access_antichain]
    table_order = np.argsort(atom_tables)
    sorted_tables = atom_tables[table_order]

    steps = []
    for s in sorted(range(pad), key=lambda s: (s.bit_count(), s)):
        bit = np.uint64(1 << s)
        lacking = np.flatnonzero((atom_tables & bit) == 0)
        grown = atom_tables[lacking] | bit
        at = np.minimum(np.searchsorted(sorted_tables, grown), len(sorted_tables) - 1)
        hit = sorted_tables[at] == grown
        if hit.any():
            # int32 halves the largest array of the index (35,510 pairs at n = 5)
            steps.append((lacking[hit].astype(np.int32), table_order[at[hit]].astype(np.int32)))

    labels = tuple(a.label() for a in antichains)
    export_rank = np.empty(len(access_antichain), dtype=np.intp)
    export_rank[sorted(range(len(access_antichain)), key=lambda j: labels[access_antichain[j]])] = (
        np.arange(len(access_antichain))
    )
    index = LatticeIndex(
        n=n,
        antichains=antichains,
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


@functools.lru_cache(maxsize=None)
def enumerate_parthood_distributions(n: int) -> tuple[ParthoodDistribution, ...]:
    """All parthood distributions over n sources (Dedekind number minus two)."""
    check_source_count(n)
    return tuple(ParthoodDistribution(n, int(t)) for t in lattice_index(n).atom_tables)


def _order_table(kind: OrderKind, alpha: Antichain) -> int:
    """Truth table whose subset order realizes the kind's order on antichains.

    It is the up-closure for redundancy and the complement of the
    down-closure for synergy.
    """
    if kind not in ("redundancy", "synergy"):
        raise DomainError(f"unknown order kind {kind!r}")
    index = lattice_index(alpha.n)
    at = index.position[alpha]
    if kind == "redundancy":
        return int(index.up[at])
    return table_mask(alpha.n) ^ int(index.down[at])


def antichain_leq(kind: OrderKind, alpha: Antichain, beta: Antichain) -> bool:
    """Order predicate extended to all antichains (closure-mask inclusion)."""
    if alpha.n != beta.n:
        raise DomainError("antichains over different source counts")
    return _order_table(kind, beta) & ~_order_table(kind, alpha) == 0


def order_leq(kind: OrderKind, alpha: Antichain, beta: Antichain) -> bool:
    """Compare two antichains in the redundancy or synergy order.

    The redundancy order lives on antichains that label distributions by
    minimal 1-collections, the synergy order on those that label by maximal
    0-collections; operands outside the respective domain are rejected.
    """
    member = in_access_domain if kind == "redundancy" else in_blockage_domain
    for x in (alpha, beta):
        if not member(x):
            raise DomainError(f"antichain {x.label()!r} outside the {kind} order's domain")
    return antichain_leq(kind, alpha, beta)


def _invert_cumulative(tables: Sequence[int], values: Sequence[float], supersets: bool) -> list[float]:
    """Solve V(x) = sum of pi(y) over tables y containing (or contained in) x.

    Recursive descent in a linear extension: each node's atom is its value
    minus the atoms already solved strictly inside its cumulative set.
    """
    order = sorted(
        range(len(tables)),
        key=lambda i: (-tables[i].bit_count() if supersets else tables[i].bit_count(), tables[i]),
    )
    sorted_tables = np.array([tables[i] for i in order], dtype=np.uint64)
    width = max((t.bit_length() for t in tables), default=1)
    full = (1 << width) - 1
    not_tables = sorted_tables ^ np.uint64(full)
    sorted_values = np.array([float(values[i]) for i in order], dtype=np.float64)
    pi = np.zeros(len(tables), dtype=np.float64)
    for k in range(len(tables)):
        t = int(sorted_tables[k])
        if supersets:
            inside = (np.uint64(t) & not_tables[:k]) == 0
        else:
            inside = (sorted_tables[:k] & np.uint64(full & ~t)) == 0
        pi[k] = sorted_values[k] - float(pi[:k][inside].sum())
    out = [0.0] * len(tables)
    for rank, i in enumerate(order):
        out[i] = float(pi[rank])
    return out


@dataclass(frozen=True)
class ConceptLattice:
    """Antichains under one of the two orders, with covers and a kind tag.

    ``kind`` is ``full-lattice`` when the node set has a unique top and a
    unique bottom, otherwise ``join-semi-lattice`` (unique top only) or
    ``meet-semi-lattice`` (unique bottom only).  ``covers[i]`` lists the
    indices of the immediate successors of node i in the chosen direction.
    """

    nodes: tuple[Antichain, ...]
    order_kind: OrderKind
    direction: Direction
    kind: str
    tables: tuple[int, ...]
    covers: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def index(self) -> Callable[[Antichain], int]:
        """Node -> its index; the lookup table is built on first use."""
        return {a: i for i, a in enumerate(self.nodes)}.__getitem__

    def leq(self, alpha: Antichain, beta: Antichain) -> bool:
        i, j = self.index(alpha), self.index(beta)
        return self.leq_by_index(i, j)

    def leq_by_index(self, i: int, j: int) -> bool:
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


def build_lattice(
    nodes: Iterable[Antichain], kind: OrderKind, direction: Direction = "up"
) -> ConceptLattice:
    """Order the given antichains and compute covers and the structure tag.

    ``direction="down"`` reverses the order (used for the concepts whose
    values accumulate downward).  Covers are the transitive reduction.
    """
    node_list = tuple(nodes)
    if not node_list:
        raise ValidationError("lattice needs at least one node")
    n = node_list[0].n
    if any(a.n != n for a in node_list):
        raise ValidationError("lattice nodes over different source counts")
    if len(set(node_list)) != len(node_list):
        raise ValidationError("duplicate lattice nodes")
    if kind not in ("redundancy", "synergy"):
        raise DomainError(f"unknown order kind {kind!r}")
    if direction not in ("up", "down"):
        raise DomainError(f"unknown direction {direction!r}")

    tables = tuple(_order_table(kind, a) for a in node_list)
    size = len(node_list)
    width = 1 << n
    arr = np.array(tables, dtype=np.uint64)
    not_arr = arr ^ np.uint64((1 << width) - 1)

    # strict_above[i]: bitmask over j of nodes strictly above i in the chosen direction
    strict_above = []
    strict_below = []
    for i in range(size):
        t = np.uint64(tables[i])
        le = (arr & (np.uint64(((1 << width) - 1) & ~tables[i]))) == 0  # table_j subset of table_i
        ge = (t & not_arr) == 0  # table_j superset of table_i
        if direction == "up":
            above, below = le.copy(), ge.copy()
        else:
            above, below = ge.copy(), le.copy()
        above[i] = False
        below[i] = False
        strict_above.append(int.from_bytes(np.packbits(above, bitorder="little").tobytes(), "little"))
        strict_below.append(int.from_bytes(np.packbits(below, bitorder="little").tobytes(), "little"))

    covers: list[tuple[int, ...]] = []
    for i in range(size):
        ups = []
        m = strict_above[i]
        while m:
            low = m & -m
            j = low.bit_length() - 1
            if strict_above[i] & strict_below[j] == 0:
                ups.append(j)
            m ^= low
        covers.append(tuple(ups))

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
    if lattice.kind != FULL_LATTICE:
        raise UnsupportedStructureError(
            f"Moebius inversion needs a full lattice, got {lattice.kind}"
        )
    if direction not in ("down-sum", "up-sum"):
        raise DomainError(f"unknown inversion direction {direction!r}")
    missing = [a.label() for a in lattice.nodes if a not in values]
    if missing:
        raise CompletenessError(f"values missing for nodes: {', '.join(missing[:5])}")
    extra = len(values) - len(lattice.nodes)
    if extra > 0:
        raise CompletenessError(f"values carry {extra} entries outside the lattice")
    vals = [float(values[a]) for a in lattice.nodes]
    # Natural table order: larger table = lower node; a "down" lattice flips it.
    supersets = (direction == "down-sum") == (lattice.direction == "up")
    pi = _invert_cumulative(lattice.tables, vals, supersets)
    return {a: pi[i] for i, a in enumerate(lattice.nodes)}


def lattice_to_dot(lattice: ConceptLattice) -> str:
    """Render the cover relation as Graphviz DOT, lower nodes drawn below."""
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for a in lattice.nodes:
        lines.append(f'  "{a.label()}";')
    for i, ups in enumerate(lattice.covers):
        for j in ups:
            lines.append(f'  "{lattice.nodes[i].label()}" -> "{lattice.nodes[j].label()}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
