"""The package's file format: the one reader and the one writer of its files.

Every file is UTF-8 text.  Distribution, measure and result files are JSON
objects; a writer renders them with two-space indentation and a trailing
newline, and the CLI prints its JSON documents the same way.  A file that
cannot be read as such (bytes that are not UTF-8, malformed or too deeply
nested JSON, an integer literal too long to convert, a document that is
not an object or lacks a field) raises :class:`ParseError`; a missing or
unreadable file raises the operating system's ``OSError``.  A path is a
``str`` or an ``os.PathLike`` without a NUL character; anything else, an
int file descriptor above all, raises :class:`ValidationError` before any
file is opened.
The loaders parse their own fields from the returned object, taking
every number through :func:`number`.

Two numpy kernels write JSON text without a Python object per value:
:func:`shortest_digits` finds the shortest round-trip decimal digits of a
float64 column (Schubfach), and :func:`json_rows` writes a table of int
symbols and float masses as the rows of a JSON list, byte for byte as
``json.dumps`` writes them, at every table size.
``JointDistribution.digest`` hashes those rows.  One table serves both
number kernels: Schubfach's powers of ten are read off the powers of five
that Eisel–Lemire (below) multiplies by, built by the first use of either.

One reader goes the other way: :func:`pmf_columns` reads a distribution
file's ``pmf`` rows into an int64 state matrix and a float64 mass vector
without a Python object per row, for a file in one of the two layouts the
package's writers give it: :func:`render`'s, which ``save_joint`` writes,
and ``json.dumps(doc) + "\\n"``'s.  It takes a file only when it can pin
every byte of the rows to that layout and every mass to a shape that
``float.__repr__`` writes, which :func:`decimals` converts (Eisel–Lemire,
the reading twin of Schubfach).  Every other file, and every file whose
table the loader refuses, is read again by :func:`read_object`, which
stays the reference and the one source of error messages.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ParseError, ValidationError


def _checked_path(path):
    """``path`` if it names a file; an int would be opened, and closed, as a descriptor."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValidationError(f"path must be a str or os.PathLike, got {type(path).__name__}")
    if "\0" in os.fsdecode(path):  # open() raises a bare ValueError for it
        raise ValidationError(f"path {path!r} holds a NUL character")
    return path


def read_text(path, what: str) -> str:
    """The text of a UTF-8 file; ``what`` names the file in error messages."""
    with open(_checked_path(path), "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except ValueError as exc:
            raise ParseError(f"{what} is not UTF-8 text: {exc}") from None


def read_object(path, what: str, fields: Iterable[str]) -> dict:
    """A file's JSON document, which must be an object holding every one of ``fields``."""
    text = read_text(path, what)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers both malformed JSON and integer literals beyond
        # the interpreter's digit limit; RecursionError, deep nesting.
        raise ParseError(f"bad JSON in {what}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    for key in fields:
        if key not in doc:
            raise ParseError(f"{what} missing field {key!r}")
    return doc


def number(value, what: str) -> float:
    """A JSON number as a float: bools, non-numbers and ints beyond float range are refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{what} is not a number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{what} is an integer beyond float range") from None


def render(doc) -> str:
    """A JSON document as the package writes it."""
    return json.dumps(doc, indent=2) + "\n"


def write_text(path, text: str) -> None:
    """Write ``text`` as a UTF-8 file, replacing any file at ``path``."""
    with open(_checked_path(path), "w", encoding="utf-8") as fh:
        fh.write(text)


# ------------------------------------------------------------- JSON numbers

_POW10 = 10 ** np.arange(19, dtype=np.int64)  # 10**0 .. 10**18
_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64((1 << 63) - 1)
_K_MIN = -324  # the scales 10**k that Schubfach needs for the positive normal doubles
_K_MAX = 292
_Q_MIN, _Q_MAX = -342, 308  # beyond 10**q for these q, 19 digits make a 0 or an infinite double
_FIXED = range(-4, 16)  # the exponents e of d.dd * 10**e that repr writes in fixed-point form
_EXPONENTS = range(-308, 309)  # the exponents of their repr in exponent form
# json_rows writes this many rows at a time, which bounds its temporaries at a few MB.
_CHUNK_ROWS = 8192


def _flog2_pow10(e):
    """floor(e * log2(10)), exact for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _powers_of_five() -> tuple[np.ndarray, np.ndarray]:
    """5**q for q = _Q_MIN..-_K_MIN as 128-bit multipliers, built from Python ints on first use.

    Row ``q - _Q_MIN`` holds 5**q times the power of two that brings it
    into [2**127, 2**128), cut to 128 bits, as its high and low 64 bits.
    For q < 0 that is 2**b // 5**-q + 1, and for q < -27 it is taken from
    twice the bits and then cut, as in fast_float's table, extended to
    Schubfach's scales.
    """
    rows = []
    for q in range(_Q_MIN, -_K_MIN + 1):
        if q >= 0:
            c = 5**q << 128 >> (5**q).bit_length()
        else:
            z = (5**-q).bit_length()
            c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // 5**-q + 1
            c >>= max(c.bit_length() - 128, 0)
        rows.append(c)
    rows = np.array(rows, object)
    return (rows >> 64).astype(np.uint64), (rows & ((1 << 64) - 1)).astype(np.uint64)


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """The powers of ten as 126-bit multipliers, read off :func:`_powers_of_five` on first use.

    Row ``k - _K_MIN`` holds g = floor(b) + 1 for 10**-k = b * 2**r with
    2**125 <= b < 2**126, split into its high and low 63 bits.  b has the
    bits of 5**-k, so g = ((c - d) >> 2) + 1 for the row c of q = -k, where
    d = 1 on the rows that fast_float rounds up (-27 <= q < 0), else 0.
    """
    q = np.arange(-_K_MIN, -_K_MAX - 1, -1)  # q = -k
    high, low = (table.take(q - _Q_MIN).astype(object) for table in _powers_of_five())  # Python ints
    c, d = high << 64 | low, (-27 <= q) & (q < 0)
    g = ((c - d) >> 2) + 1
    return (g >> 63).astype(np.uint64), (g & ((1 << 63) - 1)).astype(np.uint64)


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return x & _M32, x >> np.uint64(32)


def _high_product(a: tuple, b: tuple) -> np.ndarray:
    """The high 64 bits of each 128-bit product a * b, from the 32-bit halves of a and b."""
    (a0, a1), (b0, b1) = a, b
    middle = a1 * b0
    cross = (a0 * b0 >> np.uint64(32)) + (middle & _M32) + a0 * b1
    return a1 * b1 + (middle >> np.uint64(32)) + (cross >> np.uint64(32))


def _round_to_odd(g1: np.ndarray, g: tuple, cp: np.ndarray) -> np.ndarray:
    """floor(g * cp / 2**127) for g = g1 * 2**63 + g0, made odd when bits below it are not 0.

    ``g`` holds the 32-bit halves of g1 and g0.  The low 64 bits of g0 * cp
    and the lowest bit of g1 * cp are not formed, as in Schubfach.
    """
    halves = _halves(cp)
    z = (g1 * cp >> np.uint64(1)) + _high_product(g[1], halves)
    upper = _high_product(g[0], halves) + (z >> np.uint64(63))
    return upper | ((z & _M63) + _M63 >> np.uint64(63))


def shortest_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest decimal digits that read back as each of ``values``.

    ``values`` are positive normal float64s.  Returns int64 ``digits``,
    their ``count`` and the ``point``: value = 0.d1d2...d<count> * 10**point
    reads back to the value as the nearest double, with ``digits`` as short
    as that allows, free of trailing zeros and, among the shortest, the
    closest to the value (an even last digit on a tie).  These are the
    digits of ``float.__repr__``.  The method is Schubfach (R. Giulietti,
    "The Schubfach way to render doubles", 2020) on uint64 arrays: each
    value and the ends of its rounding interval are scaled by one 126-bit
    power of ten and rounded to odd, and the candidates at that scale and
    at ten times it are tested against the interval.  The 128-bit
    products are formed from 32-bit halves, which wrap as arrays do.
    """
    g1_table, g0_table = _powers_of_ten()
    bits = values.view(np.uint64)
    fraction = bits & np.uint64((1 << 52) - 1)
    biased = (bits >> np.uint64(52)).astype(np.int64)
    c = fraction | np.uint64(1 << 52)
    q = biased - 1075
    # The interval reaches half as far below a power of two as above it.
    closer = (fraction == 0) & (biased > 1)
    k = (q * 661_971_961_083 - closer * 274_743_187_321) >> 41  # floor(log10 of 2**q or 3/4 of it)
    h = (q + _flog2_pow10(-k) + 2).astype(np.uint64)
    g1, g0 = g1_table.take(k - _K_MIN), g0_table.take(k - _K_MIN)
    cb = c << np.uint64(2)
    ends = np.stack([cb - np.uint64(2) + closer, cb, cb + np.uint64(2)]) << h
    vbl, vb, vbr = _round_to_odd(g1, (_halves(g1), _halves(g0)), ends)
    odd = c & np.uint64(1)  # an odd value's interval leaves out its ends
    lower, upper = vbl + odd, vbr - odd
    s = vb >> np.uint64(2)
    # One multiple of ten times the scale in the interval is the shortest.
    s10 = s // np.uint64(10) * np.uint64(10)
    below_in = lower <= s10 << np.uint64(2)
    above_in = s10 + np.uint64(10) << np.uint64(2) <= upper
    # Else one of s and s + 1 if only one is inside, else the nearer, even on a tie.
    s_in = lower <= s << np.uint64(2)
    next_in = s + np.uint64(1) << np.uint64(2) <= upper
    middle = (s << np.uint64(2)) + np.uint64(2)
    up = np.where(s_in != next_in, next_in, (vb > middle) | ((vb == middle) & (s & np.uint64(1) == 1)))
    digits = np.where(below_in != above_in, s10 + above_in * np.uint64(10), s + up).astype(np.int64)
    # s lies in [2**52, 10 * 2**53), so the candidates have 16 or 17 digits.
    count = 16 + (digits >= _POW10[16])
    point = k + count
    tens = np.flatnonzero(digits % 10 == 0)
    if tens.size:  # strip up to 31 trailing zeros in five steps, where there is one
        stripped, cut = digits[tens], count[tens]
        for step in (16, 8, 4, 2, 1):
            quotient = stripped // _POW10[step]
            bare = quotient * _POW10[step] == stripped
            stripped = np.where(bare, quotient, stripped)
            cut -= bare * step
        digits[tens], count[tens] = stripped, cut
    return digits, count, point


@functools.cache
def _word_tables() -> tuple[np.ndarray, np.ndarray]:
    """Text as 4-byte words, 0 bytes standing for no text, built on first use.

    Region r = 0..4 of the digit table (entries ``10_000 * r`` on) holds
    the last r digits of each four-digit group 0000..9999.  Row
    ``e - _EXPONENTS.start`` of the exponent table holds the two words of
    ``e-05`` (for e = -5), and the last row two blank words.
    """
    groups, regions = np.arange(10_000), np.zeros((5, 10_000, 4), np.uint8)
    for place in range(4):  # the digit of 10**place goes in byte 3 - place of regions 1 + place on
        regions[1 + place :, :, 3 - place] = groups // 10**place % 10 + ord("0")
    words = regions.view(np.uint32).ravel()
    texts = [f"e{e:+03d}".encode().rjust(8, b"\0") for e in _EXPONENTS]
    exponents = np.frombuffer(b"".join(texts) + bytes(8), np.uint32).reshape(-1, 2)
    return words, exponents


def _word(text: bytes) -> np.uint32:
    """Up to four bytes as one word, right-aligned over 0 bytes."""
    return np.frombuffer(text.rjust(4, b"\0"), np.uint32)[0]


def _digit_count(values: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each int64 value (0 or more), 1 for 0, by one pass per digit."""
    count = np.ones(values.shape, np.int64)
    for k in range(1, len(str(int(values.max())))):
        count += values >= 10**k
    return count


def _put_digits(out: np.ndarray, values: np.ndarray, shown: np.ndarray) -> None:
    """Write each value's last ``shown`` digits, zero-padded, right-aligned into the words of ``out``.

    ``out``'s last axis holds the words, the others match ``values``, whose
    digits fit those words.  Each word is one lookup in the digit table, of
    four digits cut by one division by a scalar power of ten (which numpy
    makes a multiply and a shift).  The rest of ``out`` is 0 bytes.
    """
    for i, place in enumerate(range(4 * out.shape[-1] - 4, -1, -4)):  # digits right of each word
        group = values // 10**place if place else values
        group = group % 10_000 if i else group  # the first word's are below 10**4
        out[..., i] = _word_tables()[0].take(group + 10_000 * np.clip(shown - place, 0, 4))


def _mass_parts(masses: np.ndarray) -> tuple:
    """Each mass's ``repr`` text in parts, as int64 columns.

    The whole number before the point; the digits after it and their
    count, 0 for a single digit in exponent form; and each exponent's row
    in the exponent table, the blank row where there is none.  Exponent
    form is used where ``point - 1`` is outside _FIXED (``1.5e-05``,
    ``1e+22``); otherwise the text is ``0.000ddd``, ``ddd.ddd`` or ``ddd.0``.
    """
    digits, count, point = shortest_digits(masses)
    scientific = (point - 1 < _FIXED.start) | (point - 1 >= _FIXED.stop)
    after = np.where(scientific, count - 1, count - point)
    whole, fraction = np.divmod(digits, _POW10[np.clip(after, 0, 18)])
    whole *= _POW10[np.clip(-after, 0, 18)]
    after = np.where(scientific, after, np.maximum(after, 1))
    return whole, fraction, after, np.where(scientific, point - 1 - _EXPONENTS.start, len(_EXPONENTS))


def json_rows(states: np.ndarray, masses: np.ndarray) -> Iterator[bytes]:
    """Outcomes as the items of a JSON list, as ``json.dumps`` writes them.

    ``states`` is an int64 matrix of symbols (0 or more), one row per
    outcome, and ``masses`` the outcomes' float64 masses, each a positive
    normal double.  Yields the text ``[[s1, ..., t], p], [[...], p]`` in
    pieces of up to ``_CHUNK_ROWS`` rows: symbols in decimal, masses as
    ``float.__repr__`` writes them.  ``b"".join`` of the pieces is the text.
    """
    for start in range(0, len(masses), _CHUNK_ROWS):
        if start:
            yield b", "
        yield _rows(states[start : start + _CHUNK_ROWS], masses[start : start + _CHUNK_ROWS])


def _rows(states: np.ndarray, masses: np.ndarray) -> bytes:
    """The text of :func:`json_rows` for one piece.

    Each outcome is laid out in a row of 4-byte words: the fixed text
    (``[[``, ``, ``, ``], `` and the closing ``], `` or ``]``) copied from
    one template row, then every symbol and part of the mass right-aligned
    in a fixed number of words over 0 bytes, the mass's point in a word of
    its own.  Dropping the 0 bytes joins the rows into the text.
    """
    rows, arity = states.shape
    whole, fraction, after, exponent = _mass_parts(masses)
    symbol_digits, whole_digits = _digit_count(states), _digit_count(whole)
    per_symbol = -(-int(symbol_digits.max()) // 4) + 1  # its digits, then ", " or "], "
    symbols_end = 1 + arity * per_symbol
    point = symbols_end + -(-int(whole_digits.max()) // 4)
    fraction_end = point + 1 + -(-int(after.max()) // 4)
    exponent_end = fraction_end + (2 if (exponent < len(_EXPONENTS)).any() else 0)
    template = np.zeros(exponent_end + 1, np.uint32)
    template[0] = _word(b"[[")
    template[per_symbol:symbols_end:per_symbol] = _word(b", ")
    template[symbols_end - 1] = template[-1] = _word(b"], ")
    out = np.tile(template, (rows, 1))
    out[-1, -1] = _word(b"]")  # no separator after the last outcome
    symbols = out[:, 1:symbols_end].reshape(rows, arity, per_symbol)  # a view: the words are adjacent
    _put_digits(symbols[..., :-1], states, symbol_digits)
    _put_digits(out[:, symbols_end:point], whole, whole_digits)
    out[:, point] = np.where(after > 0, _word(b"."), 0)
    _put_digits(out[:, point + 1 : fraction_end], fraction, after)
    if exponent_end > fraction_end:
        out[:, fraction_end:exponent_end] = _word_tables()[1].take(exponent, axis=0)
    return out.tobytes().translate(None, b"\0")


# ------------------------------------------------------------ pmf columns

NUMBER_BYTES = b"+-.0123456789Ee"  # the bytes JSON writes its numbers with
_NUMBER_CLASS = bytes(byte in NUMBER_BYTES for byte in range(256))  # 1 at a number byte, else 0
# pmf_columns reads about this many bytes of rows at a time, cut at a row separator.
_CHUNK_BYTES = 1 << 19


class _Layout(NamedTuple):
    """Where one writer puts the bytes of a file's ``pmf`` rows.

    A row's runs of NUMBER_BYTES are its key run (the ``e`` of
    ``"state"``), its symbols and its mass; the other fields are the bytes
    around them.
    """

    opening: bytes  # from the "pmf" key to the first row's key run
    key_run: bytes
    key: bytes  # from the key run to the first symbol
    symbol: bytes  # from one symbol to the next
    mass: bytes  # from the last symbol to the mass
    row: bytes  # from a mass to the next row's key run
    closing: bytes  # from the last mass to the end of the file


@functools.cache
def _layouts() -> tuple[_Layout, ...]:
    """The layouts of :func:`render` and of ``json.dumps(doc) + "\\n"``.

    They are read off each writer's text of a probe of two rows, as the
    bytes between rows show only there.
    """
    probe = {"pmf": [{"state": [1, 1], "p": 1}] * 2}
    layouts = []
    for text in (render(probe).encode(), (json.dumps(probe) + "\n").encode()):
        starts, ends = _runs(text)
        opening = text[: starts[0]]
        layouts.append(_Layout(
            opening[opening.index(b'"pmf"') :], text[starts[0] : ends[0]],
            *(text[end:start] for end, start in zip(ends[:4], starts[1:])), text[ends[-1] :],
        ))
    return tuple(layouts)


def _runs(text: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of NUMBER_BYTES in ``text`` starts and ends.

    A 0 byte put before and after ``text`` lets a run start or end it.
    """
    marks = np.frombuffer(b"\0" + text.translate(_NUMBER_CLASS) + b"\0", np.bool_)
    edges = np.flatnonzero(marks[1:] != marks[:-1])
    return edges[0::2], edges[1::2]


def pmf_columns(path, fields: Iterable[str]) -> tuple[dict, np.ndarray, np.ndarray] | None:
    """A distribution file's object and its ``pmf`` rows as columns, or None.

    Returns the file's object with ``[]`` for its ``pmf``, which must hold
    every one of ``fields``, the int64 state matrix and the float64 masses,
    for a regular file whose ``pmf`` is the last field, written in one of
    the writers' layouts (:func:`_layouts`) up to the file's last byte.  The
    rest of the object is parsed by ``json.loads``.  Every row must be
    pinned byte for byte: its bytes other than NUMBER_BYTES are those of the
    layout and each run of NUMBER_BYTES sits at its layout place, the key
    run is the layout's, each symbol is a JSON int of at most 18 digits, and
    :func:`decimals` takes each mass.  Anything else gives None, as does a
    file that is not regular or cannot be read, and :func:`read_object`
    then reads the file.
    """
    try:
        if not os.path.isfile(_checked_path(path)):  # a pipe or FIFO: only read_object may open it
            return None
        with open(path, "rb") as fh:
            data = fh.read()
    except (OSError, ValidationError):  # read_object raises them
        return None
    for layout in _layouts():  # the closing first: one look at the end rules a layout out
        if data.endswith(layout.closing) and (at := data.find(layout.opening)) >= 0:
            break
    else:
        return None
    first, last = at + len(layout.opening), len(data) - len(layout.closing)
    bracket, tail = at + layout.opening.index(b"["), layout.closing[layout.closing.rindex(b"]") + 1 :]
    try:
        header = json.loads((data[:bracket] + b"[]" + tail).decode("utf-8"))
    except (ValueError, RecursionError):  # as in read_object; UnicodeDecodeError is a ValueError
        return None
    if not isinstance(header, dict) or any(key not in header for key in fields):
        return None
    state_end = data.find(layout.mass, first, last)
    if state_end < 0:
        return None
    arity = data.count(layout.symbol, first, state_end) + 1  # the first row's; every row is held to it
    pieces, start = [], first
    while True:
        end = data.find(layout.row, min(start + _CHUNK_BYTES, last), last)
        end = last if end < 0 else end
        piece = _pmf_rows(data[start:end], layout, arity)
        if piece is None:
            return None
        pieces.append(piece)
        if end == last:
            break
        start = end + len(layout.row)
    states, masses = map(np.concatenate, zip(*pieces))
    return header, states, masses


def _pmf_rows(text: bytes, layout: _Layout, arity: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The states and masses of rows joined by ``layout.row``, or None if a byte is out of place."""
    between = layout.key + layout.symbol * (arity - 1) + layout.mass + layout.row
    skeleton = text.translate(None, NUMBER_BYTES) + layout.row
    rows, extra = divmod(len(skeleton), len(between))
    if extra or not rows or skeleton != between * rows:
        return None
    starts, ends = _runs(text)
    width = arity + 2  # runs per row: the key run, the symbols and the mass
    if len(starts) != rows * width:
        return None
    gaps = np.append(starts[1:], len(text) + len(layout.row)) - ends
    lengths = [len(layout.key), *[len(layout.symbol)] * (arity - 1), len(layout.mass), len(layout.row)]
    if (gaps.reshape(rows, width) != lengths).any():
        return None
    starts, ends = starts.reshape(rows, width), ends.reshape(rows, width)
    buf = np.frombuffer(text, np.uint8)
    key_run = np.frombuffer(layout.key_run, np.uint8)
    keys = buf.take(starts[:, :1] + np.arange(len(key_run)), mode="clip")
    if (ends[:, 0] - starts[:, 0] != len(key_run)).any() or (keys != key_run).any():
        return None
    first, digits = starts[:, 1:-1], ends[:, 1:-1] - starts[:, 1:-1]
    if digits.max() > 18 or ((buf[first] == ord("0")) & (digits > 1)).any():
        return None
    states = np.zeros((rows, arity), np.int64)
    for place in range(digits.max()):
        inside = place < digits
        digit = buf.take(first + place, mode="clip") - np.uint8(ord("0"))  # above 9 if no digit
        if (inside & (digit > 9)).any():
            return None
        states = np.where(inside, states * 10 + digit, states)
    masses, taken = decimals(text, starts[:, -1], ends[:, -1])
    return (states, masses) if taken.all() else None


# ---------------------------------------------------------- decimal masses

_SLOT = 24  # the bytes of a mass's digits, read as three 8-byte words
_POW10_U64 = np.array([10**k for k in range(20)], np.uint64)
# _PREFIX[i, j]: the bytes of word i that are among the slot's first j bytes, as a mask
_PREFIX = np.array([[(1 << 8 * min(max(j - 8 * i, 0), 8)) - 1 for j in range(_SLOT + 1)] for i in range(3)],
                   np.uint64)
# Word i holding a 1 in byte k and 0 in the others, times _PLACES[i], has 8 * i + k + 1 in its top byte.
_PLACES = [np.uint64(sum(8 * i + k + 1 << 8 * (7 - k) for k in range(8))) for i in range(3)]


def _bytes(byte: int) -> np.uint64:
    """A word of eight ``byte`` bytes."""
    return np.uint64(byte * 0x0101_0101_0101_0101)


_ZEROS = _bytes(ord("0"))


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The value of each word of eight ASCII digits, the first at its lowest byte (SWAR)."""
    x = words - _ZEROS
    x = x * np.uint64(10) + (x >> np.uint64(8))  # each two-digit number in the low byte of its pair
    pairs = np.uint64(0x0000_00FF_0000_00FF)
    first, second = np.uint64(100 + (1_000_000 << 32)), np.uint64(1 + (10_000 << 32))
    return ((x & pairs) * first + (x >> np.uint64(16) & pairs) * second) >> np.uint64(32)


def _all_digits(words: np.ndarray) -> np.ndarray:
    """Whether every byte of each word is an ASCII digit."""
    high = _bytes(0xF0)
    return (words & high | (words + _bytes(0x06) & high) >> np.uint64(4)) == _bytes(0x33)


def _equal_bytes(words: np.ndarray, byte: int) -> np.ndarray:
    """1 in each byte of ``words`` that equals ``byte``, 0 in the others."""
    x = words ^ _bytes(byte)
    low7 = _bytes(0x7F)
    return ~((x & low7) + low7 | x) >> np.uint64(7) & _bytes(1)


def decimals(text: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The doubles that the runs ``text[starts:ends]`` write, and which of them are taken.

    A run is taken when it has one of the shapes ``float.__repr__`` writes
    for a finite non-negative double, or is a JSON int, with at most 19
    significant digits and a normal or zero value: ``0``, ``123``, ``0.0``,
    ``1.0``, ``12.5``, ``0.000123`` (below 1, at most three zeros after the
    point), ``1e-05``, ``1.5e-05``, ``2.5e+16`` (an exponent of two or
    three digits, outside _FIXED).  A point has digits on both sides
    and no trailing 0 after it but in ``d.0``.  A taken run's value is
    ``float(run)`` to the bit; the value of a run not taken is undefined.

    The mantissa's bytes are read as three 8-byte words that end where it
    ends, the point taken out and the digits summed by SWAR arithmetic.
    The double comes from the integer w of at most 19 digits and the power
    of ten q by Eisel–Lemire (D. Lemire, "Number Parsing at a Gigabyte per
    Second", SPE 2021).
    """
    padded = bytes(_SLOT) + text  # a slot may begin before the first run
    words = np.ndarray((len(padded) - 7,), np.uint64, padded, strides=(1,))  # the 8 bytes from each offset
    starts, ends = starts + _SLOT, ends + _SLOT
    suffix, exponent, scientific = _exponents(words[ends - 8], ends - starts)
    mantissa = ends - starts - suffix  # its bytes
    w, has_point, after, last, digits = _mantissas(words, starts + mantissa, mantissa)
    # The shape.
    lead = np.frombuffer(padded, np.uint8).take(starts) != ord("0")
    whole = mantissa - after - has_point  # digits before the point
    exact = has_point & (whole >= 1) & (after >= 1)
    fixed = exact & (whole <= _FIXED.stop) & (lead | (whole == 1)) & ((after == 1) | (last != ord("0")))
    fixed &= lead | (w == 0) | (w >= _POW10_U64.take(np.clip(after + _FIXED.start, 0, 19)))
    integer = ~has_point & (lead | (mantissa == 1))
    scientific &= lead & np.where(has_point, exact & (whole == 1) & (last != ord("0")), mantissa == 1)
    taken = digits & np.where(suffix > 0, scientific, fixed | integer)
    values, normal = _eisel_lemire(w, exponent - after)
    return values, taken & ((w == 0) | normal)


def _exponents(tail: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exponent closing each run, from the word of the run's last 8 bytes.

    An exponent is "e", a sign and two or three digits.  Returns its bytes
    (0 where there is none), its value (0 where there is none), and whether
    it is one ``float.__repr__`` writes: outside _FIXED, a third digit not 0.
    """
    # back[k]: the byte k + 1 places from the run's end
    back = [tail >> np.uint64(64 - 8 * k) & np.uint64(0xFF) for k in range(1, 6)]
    two = (length >= 5) & (back[3] == ord("e"))
    three = ~two & (length >= 6) & (back[4] == ord("e"))
    sign = np.where(two, back[2], back[3])
    ones, tens, hundreds = (byte - np.uint64(ord("0")) for byte in back[:3])  # above 9 if not a digit
    hundreds = np.where(three, hundreds, np.uint64(0))
    magnitude = (hundreds * np.uint64(100) + tens * np.uint64(10) + ones).astype(np.int64)
    written = (ones <= 9) & (tens <= 9) & (~three | (hundreds - np.uint64(1) <= 8))
    written &= (sign == ord("-")) & (-magnitude < _FIXED.start) | (sign == ord("+")) & (magnitude >= _FIXED.stop)
    exponent = np.where(two | three, np.where(sign == ord("-"), -magnitude, magnitude), 0)
    return np.where(two, 4, np.where(three, 5, 0)), exponent, written


def _mantissas(words: np.ndarray, ends: np.ndarray, size: np.ndarray) -> tuple:
    """The mantissas of ``size`` bytes that end at offsets ``ends`` of ``words``.

    Each mantissa is right-aligned in a slot of three words, the bytes
    before it made "0" and its point taken out: the bytes up to the point
    move one place on.  Returns its digits as an integer w, whether it has
    a point, the digits after the point (0 without one), its last byte,
    and whether it fits the slot, holds only digits besides one point and
    has at most 19 significant digits.
    """
    at, fit = ends - _SLOT, _SLOT - np.minimum(size, _SLOT)
    x = []
    for i in range(3):
        before = _PREFIX[i].take(fit)
        x.append(words[at + 8 * i] & ~before | _ZEROS & before)
    last = x[2] >> np.uint64(56)
    # A second point is left in place, and fails the digit test.
    point = [_equal_bytes(word, ord(".")) for word in x]
    # the point's place in the slot + 1, or 0
    through = sum(p * place >> np.uint64(56) for p, place in zip(point, _PLACES)).astype(np.int64)
    carry = np.uint64(ord("0"))
    for i in range(3):
        upto = _PREFIX[i].take(through, mode="clip")
        x[i], carry = x[i] & ~upto | (x[i] << np.uint64(8) | carry) & upto, x[i] >> np.uint64(56)
    has_point = through != 0
    after = np.where(has_point, _SLOT - through, 0)
    groups = [_eight_digits(word) for word in x]
    w = groups[0] * _POW10_U64[16] + groups[1] * _POW10_U64[8] + groups[2]
    digits = (size <= _SLOT) & (groups[0] < 1000) & _all_digits(x[0]) & _all_digits(x[1]) & _all_digits(x[2])
    return w, has_point, after, last, digits


def _times_power_of_five(w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of w times 5**q, from the table.

    As fast_float's ``compute_product_approximation``: the product with the
    table's low word is added only where the high 64 bits cannot settle the
    rounding, that is where their 9 bits below the double's 55 are all ones.
    """
    high_table, low_table = _powers_of_five()
    row = np.clip(q, _Q_MIN, _Q_MAX) - _Q_MIN
    hi, lo = high_table.take(row), low_table.take(row)
    halves = _halves(w)
    high, low = _high_product(halves, _halves(hi)), w * hi
    extra = (high & np.uint64(0x1FF)) == np.uint64(0x1FF)
    second = _high_product(halves, _halves(lo))
    summed = low + second
    return high + (extra & (summed < second)), np.where(extra, summed, low)


def _eisel_lemire(w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The doubles nearest w * 10**q for uint64 w below 10**19, and which are normal.

    As fast_float's ``compute_float``, with subnormal and infinite results
    flagged instead of formed: w, shifted to 64 bits, times 5**q to 128
    bits, an exact half rounded to even.  Below 10**19 that product needs
    no slow path (N. Mushtak and D. Lemire, "Fast Number Parsing Without
    Fallback", SPE 2023).
    """
    zero = w == 0
    w = np.where(zero, np.uint64(1), w)
    bits = np.frexp(w.astype(np.float64))[1]  # w's bit length, or one more where the cast rounds up
    bits -= (w >> (bits - 1).astype(np.uint64)) == 0
    lz = 64 - bits
    high, low = _times_power_of_five(w << lz.astype(np.uint64), q)
    upper = high >> np.uint64(63)
    shift = upper + np.uint64(9)
    mantissa = high >> shift
    power2 = _flog2_pow10(q) + 63 + upper.astype(np.int64) - lz + 1023
    # An exact half between two doubles rounds to even.
    half = (low <= np.uint64(1)) & (q >= -4) & (q <= 23) & (mantissa & np.uint64(3) == np.uint64(1))
    mantissa -= half & ((mantissa << shift) == high)
    mantissa = mantissa + (mantissa & np.uint64(1)) >> np.uint64(1)
    carry = (mantissa >> np.uint64(53)).astype(np.int64)  # rounded up to 2**53: the next binade
    normal = (q >= _Q_MIN) & (q <= _Q_MAX) & (power2 >= 1) & (power2 + carry <= 2046)
    power2 = np.where(normal, power2 + carry, 0).astype(np.uint64)
    mantissa &= np.uint64((1 << 52) - 1)  # 2**53 and the implicit bit alike
    doubles = np.where(zero, np.uint64(0), power2 << np.uint64(52) | mantissa)
    return doubles.view(np.float64), normal
