"""Discrete joint distributions of several sources and one target.

Outcomes are tuples of 0-based symbols (s1, ..., sn, t).  Entropies and
mutual informations are computed in bits directly from marginal tables;
probability masses below 1e-15 are treated as exact zeros so that noisy
inputs cannot contribute 0*log(0) artifacts.

File formats
------------
JSON: an object with ``n_sources``, ``source_alphabets`` (list of sizes),
``target_alphabet`` (size), and ``pmf``: a list of ``{"state": [s1..sn, t],
"p": mass}`` entries.  Zero-mass outcomes may be omitted.

TSV: a header line ``s1<TAB>...<TAB>sn<TAB>t<TAB>p`` followed by one row
per outcome; alphabet sizes are inferred as (max symbol + 1).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
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
    _entropy_cache: dict = field(default_factory=dict, repr=False)
    _mi_cache: dict = field(default_factory=dict, repr=False)

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

    def _entropy(self, bits: int, with_target: bool) -> float:
        """Entropy of the marginal over the masked sources (plus target if asked)."""
        key = (bits, with_target)
        cached = self._entropy_cache.get(key)
        if cached is not None:
            return cached
        idx = [i for i in range(self.n) if (bits >> i) & 1]
        marginal: dict[tuple, float] = {}
        for state, p in self.pmf.items():
            proj = tuple(state[i] for i in idx)
            if with_target:
                proj += (state[-1],)
            marginal[proj] = marginal.get(proj, 0.0) + p
        h = 0.0
        for p in marginal.values():
            if p > MASS_EPS:
                h -= p * math.log2(p)
        self._entropy_cache[key] = h
        return h


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
    cached = dist._mi_cache.get(bits)
    if cached is not None:
        return cached
    value = dist._entropy(bits, False) + dist._entropy(0, True) - dist._entropy(bits, True)
    if value < 0:
        value = 0.0 if value > -1e-12 else value
    dist._mi_cache[bits] = value
    return value


def conditional_mi(dist: JointDistribution, a, given) -> float:
    """I(a : target | given) in bits; overlapping collections are fine."""
    abits = _as_bits(dist, a)
    gbits = _as_bits(dist, given)
    value = (
        dist._entropy(abits | gbits, False)
        + dist._entropy(gbits, True)
        - dist._entropy(abits | gbits, True)
        - dist._entropy(gbits, False)
    )
    if value < 0:
        value = 0.0 if value > -1e-12 else value
    return value


def mi_table(dist: JointDistribution) -> dict[int, float]:
    """Mutual information with the target for every collection of sources."""
    return {bits: mutual_information(dist, bits) for bits in range(1 << dist.n)}


def load_joint(path, fmt: str = "json") -> JointDistribution:
    """Read a joint distribution from a JSON or TSV file."""
    text = open(path, "r", encoding="utf-8").read()
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
    for key in ("n_sources", "source_alphabets", "target_alphabet", "pmf"):
        if key not in doc:
            raise ParseError(f"distribution file missing field {key!r}")
    n = doc["n_sources"]
    alphabets = doc["source_alphabets"]
    if not isinstance(alphabets, list) or len(alphabets) != n:
        raise ParseError("source_alphabets must list one size per source")
    pmf: dict[tuple[int, ...], float] = {}
    for entry in doc["pmf"]:
        if not isinstance(entry, dict) or "state" not in entry or "p" not in entry:
            raise ParseError(f"bad pmf entry {entry!r}")
        state = tuple(entry["state"])
        if len(state) != n + 1:
            raise ParseError(f"state {list(state)!r} has wrong arity")
        if state in pmf:
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
    masses = rng.dirichlet(np.ones(math.prod(shape)))
    pmf = {}
    for flat, p in enumerate(masses):
        state = []
        rest = flat
        for size in reversed(shape):
            state.append(rest % size)
            rest //= size
        pmf[tuple(reversed(state))] = float(p)
    return JointDistribution(sizes, target, pmf)
