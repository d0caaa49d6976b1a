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
float64 column, and :func:`json_rows` writes a table of int symbols and
float masses as the rows of a JSON list, byte for byte as ``json.dumps``
writes them, at every table size.  ``JointDistribution.digest`` hashes
those rows.

One reader goes the other way: :func:`pmf_columns` reads a distribution
file's ``pmf`` rows into an int64 state matrix and a float64 mass vector
without a Python object per row, for a file in one of the two layouts the
package's writers give it: :func:`render`'s, which ``save_joint`` writes,
and ``json.dumps(doc) + "\\n"``'s.  It takes a file only when it can pin
every byte of the rows to that layout, and converts only the masses with
``json``'s own scanner.  Every other file, and every file whose table the
loader refuses, is read again by :func:`read_object`, which stays the
reference and the one source of error messages.
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
_EXPONENTS = range(-308, 309)  # the exponents of their repr in exponent form
# json_rows writes this many rows at a time, which bounds its temporaries at a few MB.
_CHUNK_ROWS = 8192


def _flog2_pow10(e):
    """floor(e * log2(10)), exact for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """The powers of ten as 126-bit multipliers, built from Python ints on first use.

    Row ``k - _K_MIN`` holds g = floor(b) + 1 for 10**-k = b * 2**r with
    2**125 <= b < 2**126, split into its high and low 63 bits.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2_pow10(-k) - 125
        if k <= 0:
            b = 10**-k >> r if r >= 0 else 10**-k << -r
        else:
            b = (1 << -r) // 10**k
        g.append(b + 1)
    high = np.array([x >> 63 for x in g], dtype=np.uint64)
    low = np.array([x & ((1 << 63) - 1) for x in g], dtype=np.uint64)
    return high, low


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
    for step in (16, 8, 4, 2, 1):  # strip up to 31 trailing zeros in five steps
        quotient = digits // _POW10[step]
        bare = quotient * _POW10[step] == digits
        digits = np.where(bare, quotient, digits)
        count -= bare * step
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
    """The number of decimal digits of each int64 value, 1 for 0."""
    return np.searchsorted(_POW10[1:], values, side="right") + 1


def _put_digits(out: np.ndarray, values: np.ndarray, shown: np.ndarray) -> None:
    """Write each value's last ``shown`` digits, zero-padded, right-aligned into the words of ``out``.

    ``out``'s last axis holds the words, the others match ``values``.
    Each word is one lookup in the digit table; the rest of ``out`` is 0 bytes.
    """
    places = np.arange(4 * out.shape[-1] - 4, -1, -4)  # digits right of each word
    groups = values[..., None] // _POW10[np.minimum(places, 18)] % 10_000  # the values are below 10**18
    out[...] = _word_tables()[0].take(groups + 10_000 * np.clip(shown[..., None] - places, 0, 4))


def _mass_parts(masses: np.ndarray) -> tuple:
    """Each mass's ``repr`` text in parts, as int64 columns.

    The whole number before the point; the digits after it and their
    count, 0 for a single digit in exponent form; and each exponent's row
    in the exponent table, the blank row where there is none.  Exponent
    form is used when the point would sit 4 or more places left of the
    first digit or more than 16 right of it (``1.5e-05``, ``1e+22``);
    otherwise the text is ``0.000ddd``, ``ddd.ddd`` or ``ddd.0``.
    """
    digits, count, point = shortest_digits(masses)
    scientific = (point <= -4) | (point > 16)
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
    text = out.view(np.uint8).ravel()
    return np.compress(text != 0, text).tobytes()


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
    the masses, joined, are a JSON list of numbers within float range.
    Anything else gives None, as does a file that is not regular or cannot
    be read, and :func:`read_object` then reads the file.
    """
    try:
        if not os.path.isfile(_checked_path(path)):  # a pipe or FIFO: only read_object may open it
            return None
        with open(path, "rb") as fh:
            data = fh.read()
    except (OSError, ValidationError):  # read_object raises them
        return None
    for layout in _layouts():
        at = data.find(layout.opening)
        if at >= 0 and data.endswith(layout.closing):
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
    # Each mass run and the byte after it, made a comma; the text gets the
    # row separator's first byte as a sentinel after its last run.
    marks = np.zeros(len(text) + 2, np.bool_)
    marks[starts[:, -1]] = marks[ends[:, -1] + 1] = True
    kept = np.logical_xor.accumulate(marks[:-1])
    joined = np.frombuffer(text + layout.row[:1], np.uint8)[kept].tobytes().replace(layout.row[:1], b",")
    try:
        masses = json.loads(b"[" + joined[:-1] + b"]")
        return states, np.fromiter(masses, np.float64, rows)
    except (ValueError, OverflowError):  # not JSON numbers; an int beyond float range
        return None
