"""Discrete joint distributions of several sources and one target.

Outcomes are tuples of 0-based symbols (s1, ..., sn, t).  A distribution
holds them as columns: an int64 state matrix and a float64 mass vector in
insertion order, and the order that sorts them by row-major cell index.
A mapping, a file's rows and :func:`random_joint`'s table all reach those
columns through one set of bulk checks; a per-outcome walk runs only to
name the first bad outcome once a bulk check has failed.  ``pmf`` is a
read-only ``Mapping`` view over the columns (``dict(dist.pmf)`` for a
mutable copy): its length needs no dict, and the dict of outcome tuples
is built on the first lookup or iteration.  ``digest`` hashes the JSON
text of the sorted columns, which the row writer of :mod:`pidlattice.fileio`
writes without a Python object per outcome.  Entropies and mutual
informations, in bits, come from each outcome's cell index and mass in
that order.  In a table with every cell kept those arrays are the full
grid in row-major order, and each marginal is summed axis by axis with no
sort.  Any other table forms its marginals by sorting and grouping the
arrays, so memory grows with the number of outcomes, not with the number
of cells in the outcome table (up to ``MAX_CELLS``).  Both routes add the
same masses in the same order, so they give the same bits.
A mass at or below ``MASS_EPS`` (1e-15) is an exact zero, dropped once by ``_keep``
when a distribution is built: entropies, digests and written files see kept masses only.

File formats
------------
JSON: an object with ``n_sources``, ``source_alphabets`` (list of sizes),
``target_alphabet`` (size), and ``pmf``: a list of ``{"state": [s1..sn, t],
"p": mass}`` entries.  Zero-mass outcomes may be omitted.

TSV: a header line ``s1<TAB>...<TAB>sn<TAB>t<TAB>p`` followed by one row
per outcome; alphabet sizes are inferred as (max symbol + 1).

Both loaders have one reference route: a file's parallel lists of states
and masses reach the columns through ``JointDistribution._from_rows``, with
no dict of outcomes.  A JSON file in the layout of one of the two writers
(``save_joint``'s, or ``json.dumps(doc) + "\\n"``'s), with every mass in a
shape ``float.__repr__`` writes, is read straight into typed columns by
:func:`pidlattice.fileio.pmf_columns` instead; any other file, or a table
that route refuses, is read again by the reference route, which raises
every error.  :func:`load_joint` pauses the cyclic garbage collector while
it reads either format and builds the columns, and then restores the
collector's prior state: the parsed rows hold no cycles.  A
malformed entry or row is a ``ParseError``, and comes before any
``ValidationError`` of the table it would make.

Both are UTF-8 text.  Reading, decoding and writing the files, for these
and the package's other documents, live in :mod:`pidlattice.fileio`, the
format's one home; this module parses and builds the distribution's fields.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import json
import math
import numbers
import operator
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ParseError, PidError, ValidationError, choice, expect, shown
from .fileio import json_rows, pmf_columns, read_object, read_text, render, write_text
from .lattices import check_source_count, checked_iter, collection_bits, source_mask

MASS_EPS = 1e-15
MASS_SUM_TOL = 1e-9
MI_CLAMP = 1e-12  # entropy rounding can take an information this far below zero
MAX_CELLS = 1 << 24


def _table_sizes(source_alphabets, target_alphabet) -> tuple[int, ...]:
    """The axis sizes of an outcome table, sources then target, once they are checked."""
    try:
        n = len(source_alphabets)
    except TypeError:  # an int, or a generator, which has no length
        raise ValidationError(
            f"source alphabets must be a sequence of sizes, got {type(source_alphabets).__name__}"
        ) from None
    check_source_count(n)
    sizes = (*source_alphabets, target_alphabet)
    if any(type(k) is not int or k < 1 for k in sizes):  # exact type test: rejects bool
        raise ValidationError("alphabet sizes must be positive ints")
    cells = math.prod(sizes)
    if cells > MAX_CELLS:
        raise CapacityError(f"outcome table has {shown(cells)} cells, cap is {MAX_CELLS}")
    return sizes


class _Columns(NamedTuple):
    """Outcomes as columns, in insertion order, before their range, sign and sum are checked."""

    states: np.ndarray  # int64, one row of symbols per outcome
    masses: np.ndarray  # float64
    nonneg: np.ndarray  # bool: the mass is >= 0 (so not NaN)
    kept: np.ndarray  # bool: the mass is > MASS_EPS
    total: float  # the masses summed one by one from 0.0, in insertion order


class _PmfView(Mapping):
    """A read-only mapping from outcome tuple to mass over a distribution's columns.

    ``states`` (int64, one row per outcome) and ``masses`` (float64) hold
    the kept outcomes in insertion order.  ``len`` reads the columns; the
    dict of outcome tuples behind lookups and iteration is built on first
    use.  It iterates in insertion order, yields Python floats and equals
    any mapping with the same items.  The columns are made read-only, as
    views share them.
    """

    __slots__ = ("states", "masses", "_table")

    def __init__(self, states: np.ndarray, masses: np.ndarray):
        states.flags.writeable = masses.flags.writeable = False
        self.states, self.masses = states, masses

    def _dict(self) -> dict:
        try:
            return self._table
        except AttributeError:
            self._table = dict(zip(map(tuple, self.states.tolist()), self.masses.tolist()))
            return self._table

    def __getitem__(self, outcome) -> float:
        return self._dict()[outcome]

    def __iter__(self):
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self.masses)

    def __reduce__(self):
        return type(self), (self.states, self.masses)  # the dict is rebuilt on demand

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._dict()!r})"


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A joint pmf over n source variables and one target variable.

    ``pmf`` may be any mapping from outcome to mass.  It is checked and
    kept as columns, and ``dist.pmf`` is a read-only view over them.
    """

    source_alphabets: tuple[int, ...]
    target_alphabet: int
    pmf: Mapping[tuple[int, ...], float]

    def __post_init__(self):
        sizes = _table_sizes(self.source_alphabets, self.target_alphabet)
        object.__setattr__(self, "source_alphabets", sizes[:-1])  # not the caller's list
        pmf = self.pmf
        if isinstance(pmf, _PmfView):  # columns already: random_joint's, or another distribution's
            self._keep(sizes, _Columns(pmf.states, *_float_masses(pmf.masses)))
        elif isinstance(pmf, Mapping):
            rows = (list(pmf), list(pmf.values()))
            self._keep(sizes, _columns(sizes, *rows), rows)
        else:
            raise ValidationError(f"pmf must map outcomes to masses, got {type(pmf).__name__}")

    @classmethod
    def _from_rows(cls, source_alphabets, target_alphabet, states: list, masses: list):
        """A distribution from a file's parallel lists of states and masses, with no dict."""
        dist = cls.__new__(cls)
        sizes = _table_sizes(source_alphabets, target_alphabet)
        object.__setattr__(dist, "source_alphabets", sizes[:-1])
        object.__setattr__(dist, "target_alphabet", target_alphabet)
        dist._keep(sizes, _columns(sizes, states, masses), (states, masses))
        return dist

    def _keep(self, sizes: tuple[int, ...], columns: _Columns, rows: tuple | None = None):
        """Check the columns, drop masses at or below MASS_EPS and store the rest.

        ``rows`` are the outcomes and masses the columns were made from, for
        naming a bad one; columns given directly are named from themselves.
        """
        states, masses, nonneg, kept, total = columns
        # Whole-array tests; the rows are walked only to name a bad outcome.
        if not ((states >= 0).all() and (states < np.array(sizes)).all() and nonneg.all()):
            raise _first_bad(sizes, *(rows or (states.tolist(), masses.tolist())))
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ValidationError(f"masses sum to {total!r}, not 1")
        flat = states @ np.array(_strides(sizes), dtype=np.int64)
        order = np.argsort(flat, kind="stable")
        cells = flat[order]
        twins = np.flatnonzero(cells[1:] == cells[:-1])
        if twins.size:
            raise ValidationError(f"duplicate outcome {tuple(states[order[twins[0]]].tolist())!r}")
        if not kept.all():
            in_order = kept[order]
            cells = cells[in_order]
            order = (np.cumsum(kept) - 1)[order[in_order]]  # places among the kept rows
            states, masses = states[kept], masses[kept]
        cells.flags.writeable = order.flags.writeable = False
        object.__setattr__(self, "pmf", _PmfView(states, masses))
        object.__setattr__(self, "_order", order)  # rows in row-major cell order
        object.__setattr__(self, "_cells", cells)  # their cell indices, ascending

    @property
    def n(self) -> int:
        return len(self.source_alphabets)

    def digest(self) -> str:
        """SHA-256 of the alphabets and the kept outcomes as canonical JSON.

        The text is ``json.dumps(payload, sort_keys=True)`` of ``{"pmf":
        [[[s1, ..., t], p], ...], "source_alphabets": [...],
        "target_alphabet": t}`` with the outcomes in ascending order, each
        mass as ``float.__repr__`` writes it.  The outcomes' text comes from
        the sorted columns through :func:`pidlattice.fileio.json_rows` and
        is hashed piece by piece, never held whole.
        """
        states, masses = self._by_cell()
        assert masses.min() > MASS_EPS and masses.max() <= 1 + MASS_SUM_TOL  # as _keep left them
        sizes = {"source_alphabets": list(self.source_alphabets), "target_alphabet": self.target_alphabet}
        sha = hashlib.sha256(b'{"pmf": [')
        for piece in json_rows(states, masses):
            sha.update(piece)
        sha.update(("], " + json.dumps(sizes, sort_keys=True)[1:]).encode())
        return sha.hexdigest()

    def _by_cell(self) -> tuple[np.ndarray, np.ndarray]:
        """The kept states and masses in row-major cell order, which is their sorted order."""
        return self.pmf.states[self._order], self.pmf.masses[self._order]

    def _coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Each outcome's row-major cell index (int64) and mass (float64), by index.

        Sorted by index, so that no entropy depends on insertion order.
        """
        return self._cells, self.pmf.masses[self._order]

    @functools.cached_property
    def _entropies(self) -> dict[tuple[int, bool], float]:
        """Entropy of every marginal, keyed by (source bits, with target).

        Built on the first request, after a loader's parsed document is gone,
        from the :meth:`_coordinates` arrays.  A complete table, one whose
        every cell is kept, takes :func:`_complete_entropies`, which sums
        marginals by axis; any other takes :func:`_sorted_entropies`, whose
        memory grows with the support, never with the cell count.  Both add
        the same masses in the same order, so they give the same bits.
        """
        sizes = (*self.source_alphabets, self.target_alphabet)
        route = _complete_entropies if len(self._cells) == math.prod(sizes) else _sorted_entropies
        return route(self.n, sizes, *self._coordinates())


def _sorted_entropies(n: int, sizes: tuple[int, ...], cells: np.ndarray, probs: np.ndarray) -> dict:
    """Every marginal's entropy from the outcomes' ascending cell indices and their masses.

    A marginal is held the same way: its cells' row-major indices in the
    full table, with the digits of the summed-out sources set to 0 (the
    target's is dropped), and their masses, grouped by a stable sort of
    those indices.  Only the marginals
    on the walk's path are held, so memory grows with the support, never
    with the cell count.
    """
    strides = _strides(sizes)

    def sum_out(marginal, axis):
        cells, probs = marginal
        if axis == n:  # the target's digit is the last: drop it
            return _group_sums(cells // sizes[n], probs)
        return _group_sums(cells - (cells // strides[axis]) % sizes[axis] * strides[axis], probs)

    return _entropy_walk(n, (cells, probs), sum_out, operator.itemgetter(1))


def _complete_entropies(n: int, sizes: tuple[int, ...], cells: np.ndarray, probs: np.ndarray) -> dict:
    """:func:`_sorted_entropies` of a table whose cells are all present: ``cells`` is 0, 1, 2, ...

    The masses are the table in row-major order, and each marginal is a
    table too, summed by :func:`_axis_sums` with no sort.  A stable sort of
    a marginal's cells leaves each group's masses in row-major order of the
    summed axis, which is the order in which :func:`_axis_sums` adds them,
    so both routes give the same bits.
    """
    return _entropy_walk(n, probs.reshape(sizes), _axis_sums, np.ravel)


def _entropy_walk(n: int, table, sum_out, masses) -> dict[tuple[int, bool], float]:
    """Entropy of every marginal of ``table``, keyed by (source bits, with target).

    ``sum_out(marginal, axis)`` sums one axis out of a marginal (axis n is
    the target's) and ``masses(marginal)`` gives its masses.  Each marginal
    sums one source out of a parent; a depth-first walk reaches each of
    them once and holds only the marginals on its path.  Summing the target
    out gives the marginal over the sources alone.
    """
    entropies = {}
    # Each entry: a marginal's source bits, the source it sums out of its
    # parent (n for the full table, which has none) and the parent.
    # Only sources below that one are summed out next, so every marginal
    # has a single parent on the walk.
    pending = [(source_mask(n), n, table)]
    while pending:
        bits, dropped, table = pending.pop()
        if dropped < n:
            table = sum_out(table, dropped)
        entropies[(bits, True)] = _shannon(masses(table))
        entropies[(bits, False)] = _shannon(masses(sum_out(table, n)))
        pending += [(bits & ~(1 << i), i, table) for i in range(dropped) if (bits >> i) & 1]
    return entropies


def _axis_sums(table: np.ndarray, axis: int) -> np.ndarray:
    """``table`` summed over ``axis``, which is kept at size 1.

    The axis is moved last and made contiguous, so ``np.add.reduceat`` at
    regular starts adds each sum's masses in order, as after a sort.
    ``np.add.reduce`` over the axis would add them in another order and
    change the last bits.
    """
    moved = np.ascontiguousarray(np.moveaxis(table, axis, -1))
    sums = np.add.reduceat(moved.reshape(-1), np.arange(0, moved.size, moved.shape[-1]))
    return np.expand_dims(sums.reshape(moved.shape[:-1]), axis)


def _columns(sizes: tuple[int, ...], keys: list, values: list) -> _Columns:
    """Outcomes and masses given as Python objects, as columns.

    Bulk checks stand in for the per-outcome ones: every key is a sequence
    of ``len(sizes)`` exact ints within int64, every mass a real number
    that is not a bool and within float range.  When one fails, the first
    bad outcome is named by :func:`_first_bad`.
    """
    arity = len(sizes)
    try:
        if set(map(len, keys)) - {arity}:
            raise _first_bad(sizes, keys, values)
        symbols = list(itertools.chain.from_iterable(keys))
        if set(map(type, symbols)) - {int}:
            raise _first_bad(sizes, keys, values)
        states = np.fromiter(symbols, np.int64, len(symbols)).reshape(len(keys), arity)
        kinds = set(map(type, values))
        if not all(map(_is_number_type, kinds)):
            raise _first_bad(sizes, keys, values)
        masses = np.fromiter(values, np.float64, len(values))
        if kinds <= {float, int}:
            return _Columns(states, *_float_masses(masses))
        # Other numbers compare and add as themselves, as they did one by one:
        # a Fraction below zero is refused, a float32 total stays float32.
        total = functools.reduce(operator.add, values, 0.0)
    except (TypeError, OverflowError):  # a key with no length; a number beyond int64 or float range
        raise _first_bad(sizes, keys, values) from None
    nonneg, kept = _each(operator.ge, values, 0), _each(operator.gt, values, MASS_EPS)
    return _Columns(states, masses, nonneg, kept, total)


def _float_masses(masses: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Float64 masses with their sign and keep tests and their one-by-one sum.

    ``np.add.accumulate`` adds in order, as a loop does (``np.sum`` pairs
    terms up); adding 0.0 makes the sum of -0.0 masses the loop's 0.0.
    """
    with np.errstate(over="ignore"):  # a loop's float sum overflows to inf silently
        total = float(np.add.accumulate(masses)[-1]) + 0.0 if len(masses) else 0.0
    return masses, masses >= 0, masses > MASS_EPS, total


def _each(compare, values: list, bound) -> np.ndarray:
    return np.fromiter(map(compare, values, itertools.repeat(bound)), bool, len(values))


def _is_number_type(kind: type) -> bool:
    """A mass of this type is a real number; bools are not masses."""
    return kind is float or (not issubclass(kind, bool) and issubclass(kind, numbers.Real))


def _first_bad(sizes: tuple[int, ...], keys: list, values: list) -> ValidationError:
    """The error of the first outcome, in insertion order, that fails a check.

    Runs only after a bulk check has failed, and checks each outcome in
    the order the checks run: arity, symbols, mass type, sign, float range.
    """
    total = 0.0
    for state, p in zip(keys, values):
        if type(state) is list:  # a file's state, shown as the tuple it stands for
            state = tuple(state)
        try:
            arity = len(state)
        except TypeError:
            return ValidationError(f"outcome {shown(state)} is not a sequence of symbols")
        if arity != len(sizes):
            return ValidationError(f"outcome {shown(state)} has wrong arity")
        for sym, size in zip(state, sizes):
            # exact type test: rejects bool
            if type(sym) is not int or not 0 <= sym < size:
                message = f"symbol {shown(sym)} out of range in outcome {shown(state)}"
                return ValidationError(message)
        if not _is_number_type(type(p)):
            return ValidationError(f"mass {shown(p)} at outcome {shown(state)} is not a number")
        if not p >= 0:  # also refuses NaN, which every comparison fails
            return ValidationError(f"negative or NaN mass {shown(p)} at outcome {shown(state)}")
        try:
            total += p
        except OverflowError:  # an int beyond float range; its repr can fail, so leave it out
            return ValidationError(f"mass at outcome {shown(state)} exceeds the float range")
    raise AssertionError("a bulk check failed that no outcome fails")


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
    """Entropy in bits of a marginal's masses: sums of kept ones, so each is above MASS_EPS."""
    return -float((probs * np.log2(probs)).sum())


def mutual_information(dist: JointDistribution, a) -> float:
    """I(a : target) in bits; the empty collection carries none."""
    expect(dist, JointDistribution, "dist")
    bits = collection_bits(dist.n, a)
    h = dist._entropies
    return _clamped(h[(bits, False)] + h[(0, True)] - h[(bits, True)])


def conditional_mi(dist: JointDistribution, a, given) -> float:
    """I(a : target | given) in bits; overlapping collections are fine."""
    expect(dist, JointDistribution, "dist")
    abits = collection_bits(dist.n, a)
    gbits = collection_bits(dist.n, given)
    h = dist._entropies
    joint = abits | gbits
    return _clamped(h[(joint, False)] + h[(gbits, True)] - h[(joint, True)] - h[(gbits, False)])


def _clamped(value: float) -> float:
    """``value``, or 0 for a rounding residue in (-MI_CLAMP, 0); a larger loss shows."""
    return 0.0 if -MI_CLAMP < value < 0 else value


def mi_table(dist: JointDistribution) -> dict[int, float]:
    """Mutual information with the target for every collection of sources."""
    expect(dist, JointDistribution, "dist")
    return {bits: mutual_information(dist, bits) for bits in range(1 << dist.n)}


def load_joint(path, fmt: str = "json") -> JointDistribution:
    """Read a joint distribution from a JSON or TSV file.

    A JSON file in the layout ``save_joint`` writes (``fileio.render``), or
    in ``json.dumps(doc) + "\\n"``'s, has its rows read straight into
    columns by :func:`pidlattice.fileio.pmf_columns`, each mass converted
    by the numpy kernel :func:`pidlattice.fileio.decimals` when it has a
    shape ``float.__repr__`` writes (or is a JSON int) with at most 19
    significant digits and a normal or zero value.  Any other layout or
    mass, and any file that reader does not take or whose table is
    refused, takes the document route: ``read_object`` and the entry walk
    of ``_joint_from_json``, which give the same table and raise every
    error.
    """
    choice(fmt, ("json", "tsv"), "distribution format", ParseError)
    # The collector would walk the parsed rows again and again while they
    # are built; they hold no cycles and are freed when the call returns.
    enabled = gc.isenabled()
    gc.disable()
    try:
        if fmt == "json":
            dist = _joint_from_columns(path)
            return dist or _joint_from_json(read_object(path, "distribution file", _FIELDS))
        return _joint_from_tsv(read_text(path, "distribution file"))
    finally:
        if enabled:
            gc.enable()


_FIELDS = ("n_sources", "source_alphabets", "target_alphabet", "pmf")  # a JSON distribution file's


def _joint_from_columns(path) -> JointDistribution | None:
    """The distribution of a file that :func:`pidlattice.fileio.pmf_columns` takes, or None.

    None for any other file, and for a file whose header or table is
    refused: the document route reads it again and raises the error.
    """
    columns = pmf_columns(path, _FIELDS)
    if columns is None:
        return None
    doc, states, masses = columns
    try:
        n, alphabets = _header(doc)
        if states.shape[1] == n + 1:
            return JointDistribution(alphabets, doc["target_alphabet"], _PmfView(states, masses))
    except PidError:
        pass
    return None


def _header(doc: dict) -> tuple[int, list]:
    """A distribution file's source count and alphabets, checked before its entries."""
    n = doc["n_sources"]
    if type(n) is not int:  # exact type test: rejects bool
        raise ParseError(f"n_sources must be an int, got {shown(n)}")
    alphabets = doc["source_alphabets"]
    if not isinstance(alphabets, list) or len(alphabets) != n:
        raise ParseError("source_alphabets must list one size per source")
    if not isinstance(doc["pmf"], list):
        raise ParseError("pmf must be a list of entries")
    return n, alphabets


def _joint_from_json(doc: dict) -> JointDistribution:
    n, alphabets = _header(doc)
    entries = doc["pmf"]
    try:
        states = [entry["state"] for entry in entries]
        masses = [entry["p"] for entry in entries]
        return JointDistribution._from_rows(alphabets, doc["target_alphabet"], states, masses)
    except (TypeError, KeyError, PidError):  # an entry that is not an object, or a refused table
        seen = set()  # a malformed entry is a ParseError, named before any refusal of the table
        for entry in entries:
            if not isinstance(entry, dict) or "state" not in entry or "p" not in entry:
                raise ParseError(f"bad pmf entry {entry!r}")
            state = entry["state"]
            if not isinstance(state, list):
                raise ParseError(f"state {state!r} is not a list of symbols")
            if len(state) != n + 1:
                raise ParseError(f"state {state!r} has wrong arity")
            try:
                duplicate = tuple(state) in seen
            except TypeError:  # a list or object among the symbols
                raise ParseError(f"state {state!r} holds a non-symbol") from None
            if duplicate:
                raise ParseError(f"duplicate state {state!r}")
            seen.add(tuple(state))
        raise


def _joint_from_tsv(text: str) -> JointDistribution:
    # (line number in the file, line) for the non-blank lines
    lines = ((lineno, ln) for lineno, ln in enumerate(text.splitlines(), start=1) if ln.strip())
    first = next(lines, None)
    if first is None:
        raise ParseError("empty TSV file")
    header = first[1].split("\t")
    n = len(header) - 2
    if n < 1 or header != [*(f"s{i}" for i in range(1, n + 1)), "t", "p"]:
        raise ParseError("TSV header must be s1 .. sn, t, p")
    states, masses, seen = [], [], set()
    for lineno, ln in lines:
        parts = ln.split("\t")
        if len(parts) != n + 2:
            raise ParseError(f"line {lineno}: expected {n + 2} columns, got {len(parts)}")
        try:
            state = tuple(map(int, parts[:-1]))
            masses.append(float(parts[-1]))
        except ValueError:
            raise ParseError(f"line {lineno}: bad symbol or mass") from None
        if state in seen:
            raise ParseError(f"line {lineno}: duplicate state {list(state)!r}")
        seen.add(state)
        states.append(state)
    if not states:
        raise ParseError("TSV file has a header but no outcome rows")
    *alphabets, target = (max(column) + 1 for column in zip(*states))
    return JointDistribution._from_rows(alphabets, target, states, masses)


def save_joint(dist: JointDistribution, path) -> None:
    expect(dist, JointDistribution, "dist")
    states, masses = dist._by_cell()
    doc = {
        "n_sources": dist.n,
        "source_alphabets": list(dist.source_alphabets),
        "target_alphabet": dist.target_alphabet,
        "pmf": [{"state": s, "p": p} for s, p in zip(states.tolist(), masses.tolist())],
    }
    write_text(path, render(doc))


def random_joint(
    n: int,
    seed: int,
    source_alphabets: Iterable[int] | None = None,
    target_alphabet: int | None = None,
) -> JointDistribution:
    """Seeded test distribution: masses are symmetric Dirichlet(1) over the full table.

    Unspecified alphabet sizes are drawn uniformly from {2, 3}.  The
    arguments are checked, and the cell cap applied, before any draw.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValidationError(f"source count must be an int, got {shown(n)}")
    check_source_count(int(n))
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError):  # numpy's SeedSequence takes non-negative ints
        raise ValidationError(f"seed must be a non-negative int, got {shown(seed)}") from None
    if source_alphabets is None:
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(n))
    else:
        sizes = tuple(checked_iter(source_alphabets, "source_alphabets"))
        if len(sizes) != n:
            raise ValidationError("source_alphabets must list one size per source")
    target = int(rng.integers(2, 4)) if target_alphabet is None else target_alphabet
    shape = _table_sizes(sizes, target)
    cells = math.prod(shape)
    states = np.column_stack(np.unravel_index(np.arange(cells), shape)).astype(np.int64, copy=False)
    pmf = _PmfView(states, rng.dirichlet(np.ones(cells)))
    return JointDistribution(sizes, target, pmf)
