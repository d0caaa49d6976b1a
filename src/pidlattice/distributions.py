"""Discrete joint distributions of several sources and one target.

Outcomes are tuples of 0-based symbols (s1, ..., sn, t).  ``pmf`` is
the public, validated view: a dict from outcome to mass.  Entropies and
mutual informations, in bits, come from two arrays over the support built
on the first request: each outcome's row-major cell index (int64) and its
mass (float64).  Marginals are formed by sorting and grouping those
arrays, so memory grows with the number of outcomes, not with the number
of cells in the outcome table (up to ``MAX_CELLS``).  Probability masses
at or below 1e-15 are treated as exact zeros so that noisy inputs cannot
contribute 0*log(0) artifacts.

File formats
------------
JSON: an object with ``n_sources``, ``source_alphabets`` (list of sizes),
``target_alphabet`` (size), and ``pmf``: a list of ``{"state": [s1..sn, t],
"p": mass}`` entries.  Zero-mass outcomes may be omitted.

TSV: a header line ``s1<TAB>...<TAB>sn<TAB>t<TAB>p`` followed by one row
per outcome; alphabet sizes are inferred as (max symbol + 1).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import CapacityError, ParseError, ValidationError
from .lattices import MAX_SOURCES, SourceSet, source_mask

MASS_EPS = 1e-15
MASS_SUM_TOL = 1e-9
MAX_CELLS = 1 << 24


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A joint pmf over n source variables and one target variable."""

    source_alphabets: tuple[int, ...]
    target_alphabet: int
    pmf: Mapping[tuple[int, ...], float]

    def __post_init__(self):
        n = len(self.source_alphabets)
        if not 1 <= n <= MAX_SOURCES:
            raise CapacityError(f"need 1..{MAX_SOURCES} sources, got {n}")
        sizes = (*self.source_alphabets, self.target_alphabet)
        if any(not isinstance(k, int) or k < 1 for k in sizes):
            raise ValidationError("alphabet sizes must be positive ints")
        cells = math.prod(sizes)
        if cells > MAX_CELLS:
            raise CapacityError(f"outcome table has {cells} cells, cap is {MAX_CELLS}")
        total = 0.0
        cleaned = {}
        for state, p in self.pmf.items():
            if len(state) != n + 1:
                raise ValidationError(f"outcome {state!r} has wrong arity")
            for sym, size in zip(state, sizes):
                # exact type test: rejects bool, and costs no more than isinstance
                if type(sym) is not int or not 0 <= sym < size:
                    raise ValidationError(f"symbol {sym!r} out of range in outcome {state!r}")
            if type(p) is not float and (isinstance(p, bool) or not isinstance(p, numbers.Real)):
                raise ValidationError(f"mass {p!r} at outcome {state!r} is not a number")
            if not p >= 0:  # also refuses NaN, which every comparison fails
                raise ValidationError(f"negative or NaN mass {p!r} at outcome {state!r}")
            total += p
            if p > MASS_EPS:
                cleaned[tuple(state)] = float(p)
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ValidationError(f"masses sum to {total!r}, not 1")
        object.__setattr__(self, "pmf", cleaned)

    @property
    def n(self) -> int:
        return len(self.source_alphabets)

    def digest(self) -> str:
        payload = {
            "source_alphabets": list(self.source_alphabets),
            "target_alphabet": self.target_alphabet,
            "pmf": sorted([list(k), v] for k, v in self.pmf.items()),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def _coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Each outcome's row-major cell index (int64) and mass (float64), by index.

        Sorted by index, so that no entropy depends on insertion order.
        """
        sizes = (*self.source_alphabets, self.target_alphabet)
        count = len(self.pmf)
        states = np.fromiter(
            itertools.chain.from_iterable(self.pmf), dtype=np.int64, count=count * len(sizes)
        ).reshape(count, len(sizes))
        flat = states @ np.array(_strides(sizes), dtype=np.int64)
        masses = np.fromiter(self.pmf.values(), dtype=np.float64, count=count)
        order = np.argsort(flat, kind="stable")
        return flat[order], masses[order]

    @functools.cached_property
    def _entropies(self) -> dict[tuple[int, bool], float]:
        """Entropy of every marginal, keyed by (source bits, with target).

        Built on the first request, after a loader's parsed document is gone,
        from the :meth:`_coordinates` arrays.  A marginal over some sources
        and the target is held the same way: its cells' row-major indices in
        the full table, with the digits of the summed-out sources set to 0,
        and their masses.  Each marginal sums one source out of a parent; a
        depth-first walk reaches each of them once and holds only the arrays
        of the marginals on its path, so memory grows with the support,
        never with the cell count.  Dropping the target's digit, the last
        one, gives the marginal over the sources alone.
        """
        sizes = (*self.source_alphabets, self.target_alphabet)
        strides = _strides(sizes)
        entropies = {}
        # Each entry: a marginal's source bits, the source it sums out of its
        # parent (n for the full table, which has none) and the parent's arrays.
        # Only sources below that one are summed out next, so every marginal
        # has a single parent on the walk.
        pending = [(source_mask(self.n), self.n, *self._coordinates())]
        while pending:
            bits, dropped, cells, probs = pending.pop()
            if dropped < self.n:
                digit = (cells // strides[dropped]) % sizes[dropped]
                cells, probs = _group_sums(cells - digit * strides[dropped], probs)
            entropies[(bits, True)] = _shannon(probs)
            entropies[(bits, False)] = _shannon(_group_sums(cells // self.target_alphabet, probs)[1])
            pending += [(bits & ~(1 << i), i, cells, probs) for i in range(dropped) if (bits >> i) & 1]
        return entropies


def _strides(sizes) -> list[int]:
    """Row-major strides of a table with these axis sizes."""
    return [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]


def _group_sums(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in ascending order, and the sum of the values at each.

    Sorting keeps every temporary the length of ``keys``, however large
    the keys are.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.add.reduceat(values[order], starts)


def _shannon(probs: np.ndarray) -> float:
    """Entropy in bits of a marginal's masses; those at or below MASS_EPS count as zeros."""
    probs = probs[probs > MASS_EPS]
    return -float((probs * np.log2(probs)).sum())


def _as_bits(dist: JointDistribution, a) -> int:
    if isinstance(a, SourceSet):
        if a.n != dist.n:
            raise ValidationError("collection source count differs from distribution's")
        return a.bits
    bits = int(a)
    if not 0 <= bits <= source_mask(dist.n):
        raise ValidationError(f"collection bits {a!r} out of range for n={dist.n}")
    return bits


def mutual_information(dist: JointDistribution, a) -> float:
    """I(a : target) in bits; the empty collection carries none."""
    bits = _as_bits(dist, a)
    h = dist._entropies
    value = h[(bits, False)] + h[(0, True)] - h[(bits, True)]
    if value < 0:
        value = 0.0 if value > -1e-12 else value
    return value


def conditional_mi(dist: JointDistribution, a, given) -> float:
    """I(a : target | given) in bits; overlapping collections are fine."""
    abits = _as_bits(dist, a)
    gbits = _as_bits(dist, given)
    h = dist._entropies
    value = (
        h[(abits | gbits, False)]
        + h[(gbits, True)]
        - h[(abits | gbits, True)]
        - h[(gbits, False)]
    )
    if value < 0:
        value = 0.0 if value > -1e-12 else value
    return value


def mi_table(dist: JointDistribution) -> dict[int, float]:
    """Mutual information with the target for every collection of sources."""
    return {bits: mutual_information(dist, bits) for bits in range(1 << dist.n)}


def load_joint(path, fmt: str = "json") -> JointDistribution:
    """Read a joint distribution from a JSON or TSV file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        return _joint_from_json(text)
    if fmt == "tsv":
        return _joint_from_tsv(text)
    raise ParseError(f"unknown distribution format {fmt!r}")


def _joint_from_json(text: str) -> JointDistribution:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("distribution file must be a JSON object")
    for key in ("n_sources", "source_alphabets", "target_alphabet", "pmf"):
        if key not in doc:
            raise ParseError(f"distribution file missing field {key!r}")
    n = doc["n_sources"]
    alphabets = doc["source_alphabets"]
    if not isinstance(alphabets, list) or len(alphabets) != n:
        raise ParseError("source_alphabets must list one size per source")
    if not isinstance(doc["pmf"], list):
        raise ParseError("pmf must be a list of entries")
    pmf: dict[tuple[int, ...], float] = {}
    for entry in doc["pmf"]:
        if not isinstance(entry, dict) or "state" not in entry or "p" not in entry:
            raise ParseError(f"bad pmf entry {entry!r}")
        state = entry["state"]
        if not isinstance(state, list):
            raise ParseError(f"state {state!r} is not a list of symbols")
        state = tuple(state)
        if len(state) != n + 1:
            raise ParseError(f"state {list(state)!r} has wrong arity")
        try:
            duplicate = state in pmf
        except TypeError:  # a list or object among the symbols
            raise ParseError(f"state {list(state)!r} holds a non-symbol") from None
        if duplicate:
            raise ParseError(f"duplicate state {list(state)!r}")
        pmf[state] = entry["p"]
    return JointDistribution(tuple(alphabets), doc["target_alphabet"], pmf)


def _joint_from_tsv(text: str) -> JointDistribution:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty TSV file")
    header = lines[0].split("\t")
    if len(header) < 3 or header[-1] != "p" or header[-2] != "t":
        raise ParseError("TSV header must be s1 .. sn, t, p")
    n = len(header) - 2
    if header[:n] != [f"s{i + 1}" for i in range(n)]:
        raise ParseError("TSV header must be s1 .. sn, t, p")
    pmf: dict[tuple[int, ...], float] = {}
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split("\t")
        if len(parts) != n + 2:
            raise ParseError(f"line {lineno}: expected {n + 2} columns, got {len(parts)}")
        try:
            state = tuple(int(x) for x in parts[:-1])
            p = float(parts[-1])
        except ValueError:
            raise ParseError(f"line {lineno}: bad symbol or mass") from None
        if state in pmf:
            raise ParseError(f"line {lineno}: duplicate state {list(state)!r}")
        pmf[state] = p
    if not pmf:
        raise ParseError("TSV file has a header but no outcome rows")
    alphabets = tuple(max(s[i] for s in pmf) + 1 for i in range(n))
    target = max(s[-1] for s in pmf) + 1
    return JointDistribution(alphabets, target, pmf)


def save_joint(dist: JointDistribution, path) -> None:
    doc = {
        "n_sources": dist.n,
        "source_alphabets": list(dist.source_alphabets),
        "target_alphabet": dist.target_alphabet,
        "pmf": [{"state": list(k), "p": v} for k, v in sorted(dist.pmf.items())],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def random_joint(
    n: int,
    seed: int,
    source_alphabets: Iterable[int] | None = None,
    target_alphabet: int | None = None,
) -> JointDistribution:
    """Seeded test distribution: masses are symmetric Dirichlet(1) over the full table.

    Unspecified alphabet sizes are drawn uniformly from {2, 3}.
    """
    rng = np.random.default_rng(seed)
    if source_alphabets is None:
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(n))
    else:
        sizes = tuple(source_alphabets)
        if len(sizes) != n:
            raise ValidationError("source_alphabets must list one size per source")
    target = int(rng.integers(2, 4)) if target_alphabet is None else target_alphabet
    shape = (*sizes, target)
    cells = math.prod(shape)
    masses = rng.dirichlet(np.ones(cells))
    # row-major states as tuples of Python ints, one column per axis
    columns = [axis.tolist() for axis in np.unravel_index(np.arange(cells), shape)]
    pmf = dict(zip(zip(*columns), masses.tolist()))
    return JointDistribution(sizes, target, pmf)
