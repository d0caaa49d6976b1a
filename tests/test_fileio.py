"""The file format's one reader and writer: unreadable files give typed errors.

Each defect class below is tried on every loader whose format can carry
it.  Before the loaders shared one reader, each of these inputs escaped
as a bare UnicodeDecodeError, RecursionError, ValueError or OverflowError.
The numpy kernels that write JSON numbers are checked against
``float.__repr__`` over the masses a distribution keeps.
"""

import decimal
import functools
import json
import os

import numpy as np
import pytest

import helpers
from pidlattice import (
    BaseConcept,
    ParseError,
    ValidationError,
    decompose,
    export_result,
    load_joint,
    load_measure,
    load_result,
    reference_measure,
    save_joint,
    save_measure,
    save_result,
)
from pidlattice import fileio
from pidlattice.distributions import MASS_EPS, MASS_SUM_TOL

LOADERS = {
    "distribution": load_joint,
    "tsv": functools.partial(load_joint, fmt="tsv"),
    "measure": functools.partial(load_measure, n=2),
    "result": load_result,
}
UNREADABLE = helpers.unreadable_files()


def raises_exactly(error, kind, data, tmp_path):
    path = tmp_path / "file"
    path.write_bytes(data)
    with pytest.raises(error) as info:
        LOADERS[kind](path)
    assert info.type is error


@pytest.mark.parametrize("case", UNREADABLE["not-utf8"])
def test_non_utf8_file_is_a_parse_error(tmp_path, case):
    raises_exactly(ParseError, *UNREADABLE["not-utf8"][case], tmp_path)


@pytest.mark.parametrize("case", UNREADABLE["deep-nesting"])
def test_deeply_nested_document_is_a_parse_error(tmp_path, case):
    raises_exactly(ParseError, *UNREADABLE["deep-nesting"][case], tmp_path)


@pytest.mark.parametrize("case", UNREADABLE["overlong-literal"])
def test_overlong_integer_literal_is_a_parse_error(tmp_path, case):
    raises_exactly(ParseError, *UNREADABLE["overlong-literal"][case], tmp_path)


@pytest.mark.parametrize("case", UNREADABLE["beyond-float"])
def test_integer_beyond_float_range_is_refused(tmp_path, case):
    # a pmf mass is validated by JointDistribution; every other number is parsed
    error = ValidationError if case == "pmf-mass" else ParseError
    raises_exactly(error, *UNREADABLE["beyond-float"][case], tmp_path)


def test_savers_write_indented_json_with_a_final_newline(tmp_path, xor_dist):
    save_joint(xor_dist, tmp_path / "dist.json")
    assert (tmp_path / "dist.json").read_bytes() == (helpers.DATA_DIR / "xor.json").read_bytes()
    measure = reference_measure(xor_dist, BaseConcept.REDUNDANCY)
    save_measure(measure, tmp_path / "measure.json")
    doc = {"concept": "redundancy", **{a.label(): v for a, v in measure.values.items()}}
    assert (tmp_path / "measure.json").read_text() == json.dumps(doc, indent=2) + "\n"
    result = decompose(xor_dist, BaseConcept.REDUNDANCY)
    save_result(result, tmp_path / "result.json")
    doc = export_result(result)
    assert (tmp_path / "result.json").read_text() == json.dumps(doc, indent=2) + "\n"


SAVERS = {
    "distribution": save_joint,
    "measure": lambda dist, path: save_measure(reference_measure(dist, BaseConcept.REDUNDANCY), path),
    "result": lambda dist, path: save_result(decompose(dist, BaseConcept.REDUNDANCY), path),
}


@pytest.mark.parametrize(
    "call",
    [*LOADERS.values(), *(functools.partial(save, helpers.xor_distribution()) for save in SAVERS.values())],
    ids=[*(f"load-{kind}" for kind in LOADERS), *(f"save-{kind}" for kind in SAVERS)],
)
def test_a_file_descriptor_is_refused_and_left_open(tmp_path, call):
    # open() takes an int as a descriptor: it would read or write the caller's file and close it
    fd = os.open(tmp_path / "held", os.O_RDWR | os.O_CREAT)
    try:
        with pytest.raises(ValidationError, match="^path must be a str or os.PathLike, got int$"):
            call(fd)
        assert os.fstat(fd).st_size == 0  # still open, and nothing written
    finally:
        os.close(fd)
    with pytest.raises(ValidationError, match="got bytes"):
        call(os.fsencode(tmp_path / "held"))


# ----------------------------------------------------------- JSON numbers

def _with_neighbours(values) -> list[float]:
    """Each value and the doubles just below and just above it."""
    values = np.asarray(values, dtype=np.float64)
    return [*np.nextafter(values, 0.0), *values, *np.nextafter(values, 2.0)]


def _mass_edges() -> np.ndarray:
    """The hard cases of the mass domain (MASS_EPS, 1 + MASS_SUM_TOL]."""
    rng = np.random.default_rng(17)
    # decimals of 1 to 17 significant digits in [1e-14, 1), read from their text
    decimals = [
        float(f"0.{rng.integers(10 ** (d - 1), 10**d)}e-{rng.integers(0, 14)}")
        for d in range(1, 18)
        for _ in range(40)
    ]
    values = [
        # powers of two; significand 2**52, where the gap below halves
        *_with_neighbours(2.0 ** np.arange(-49, 1)),
        *_with_neighbours([float(f"1e{e}") for e in range(-15, 1)]),  # 1e-15 itself is dropped
        *_with_neighbours([1e-4, 1e-3, 0.1, 0.5]),  # 1e-4: fixed notation from here up
        *decimals,
        1.0,
        1 + 1e-9,
        2e-15,
    ]
    values = np.array(values)
    return values[(values > MASS_EPS) & (values <= 1 + MASS_SUM_TOL)]


def _mass_draws() -> list[np.ndarray]:
    """Over 10**6 seeded masses: Dirichlet, uniform and log-uniform over (1e-15, 1]."""
    rng = np.random.default_rng(2018)
    return [
        rng.dirichlet(np.ones(350_000)),
        rng.uniform(MASS_EPS, 1.0, 350_000),
        10.0 ** rng.uniform(-15.0, 0.0, 350_000),
    ]


def _normal_doubles() -> np.ndarray:
    """Seeded positive normal doubles of every exponent, beyond the mass domain."""
    bits = np.random.default_rng(3).integers(1 << 52, 0x7FF0 << 48, 20_000, dtype=np.int64)
    return bits.view(np.float64)


def _reference_rows(states: np.ndarray, masses: np.ndarray) -> bytes:
    """What ``json.dumps`` writes for the rows of a two-column table, one repr per mass."""
    rows = [f"[[{a}, {b}], {p!r}]" for (a, b), p in zip(states.tolist(), masses.tolist())]
    return ", ".join(rows).encode()


def test_rows_match_float_repr_over_the_mass_domain():
    draws = _mass_draws()
    assert sum(map(len, draws)) >= 10**6
    for masses in [*draws, _normal_doubles()]:  # the last also in exponent form above 1e16
        masses = masses[masses > MASS_EPS]
        expected = "[[0], " + "], [[0], ".join(map(repr, masses.tolist())) + "]"
        assert b"".join(fileio.json_rows(np.zeros((len(masses), 1), np.int64), masses)) == expected.encode()

    # symbols of 1 to 8 digits
    edges = _mass_edges()
    rng = np.random.default_rng(5)
    symbols = rng.integers(0, 2**24, len(edges)) // 10 ** rng.integers(0, 8, len(edges))
    states = np.column_stack([symbols, np.arange(len(edges))])
    for rows in (1, 2, 7, len(edges)):
        expected = _reference_rows(states[:rows], edges[:rows])
        assert b"".join(fileio.json_rows(states[:rows], edges[:rows])) == expected


def test_rows_match_json_dumps_at_every_table_size():
    # 1 to 400 rows of 1 to 5 symbols of 1 to 8 digits, masses in fixed and in exponent form
    rng = np.random.default_rng(20)
    for rows in range(1, 401):
        arity = int(rng.integers(1, 6))
        states = rng.integers(0, 10 ** rng.integers(1, 9, (rows, arity)))
        masses = 10.0 ** rng.uniform(-12.0, 0.0, rows) if rows % 2 else rng.dirichlet(np.ones(rows))
        expected = json.dumps(list(zip(states.tolist(), masses.tolist())))[1:-1]
        assert b"".join(fileio.json_rows(states, masses)) == expected.encode(), rows


def test_one_word_fields_match_json_dumps():
    # every symbol, whole part and fraction fits one word; "1e-05" has no digit after its point
    states = np.array([[0, 9999], [12, 3], [7, 45]])
    for masses in ([1e-05, 0.5, 0.25], [2e-300, 1.5, 0.0625], [0.125, 3e+20, 1e-05]):
        expected = json.dumps(list(zip(states.tolist(), masses)))[1:-1]
        assert b"".join(fileio.json_rows(states, np.array(masses))) == expected.encode()


def _repr_digits(value: float) -> tuple[int, int, int]:
    """(digits, count, point) of ``repr(value)``: value = 0.<digits> * 10**point."""
    _, digits, exponent = decimal.Decimal(repr(float(value))).normalize().as_tuple()
    return int("".join(map(str, digits))), len(digits), len(digits) + exponent


def _json_rows_match_json_dumps(states: np.ndarray, masses: np.ndarray) -> None:
    """Every prefix of the table, so that each row in turn sets its fields' widths."""
    for rows in range(1, len(masses) + 1):
        expected = json.dumps(list(zip(states[:rows].tolist(), masses[:rows].tolist())))[1:-1]
        assert b"".join(fileio.json_rows(states[:rows], masses[:rows])) == expected.encode(), rows


def test_symbols_at_every_power_of_ten_match_json_dumps():
    # 0, 9, 10, 99, 100, ..., 10**18 - 1, 10**18 and the largest int64: 1 to 19 digits
    edges = [0, *(x for k in range(1, 19) for x in (10**k - 1, 10**k)), 2**63 - 1]
    states = np.array([edges, edges[::-1], [7] * len(edges)], np.int64).T
    _json_rows_match_json_dumps(states, np.full(len(edges), 0.5**6))


def _with_digits(count: int, point: int, rng) -> float:
    """A double whose repr has ``count`` significant digits: 0.<digits> * 10**point."""
    while True:
        digits = int(rng.integers(10 ** (count - 1), 10**count)) // 10 * 10 + int(rng.integers(1, 10))
        value = float(f"0.{digits}e{point}")
        if _repr_digits(value)[1:] == (count, point):  # 16 and 17 digits need not read back
            return value


@pytest.mark.parametrize(
    "point",
    [-300, -4, -3, 0, *range(1, 17), 17, 300],
    ids=lambda point: f"point={point}",
)
def test_every_digit_count_of_a_mass_matches_json_dumps(point):
    # 1 to 17 significant digits, so 1 to 20 after the point in 0.000ddd; whole parts of 1 to
    # 16 digits; exponent form from e-301 to e+299
    rng = np.random.default_rng(point + 400)
    masses = np.array([_with_digits(count, point, rng) for count in range(1, 18)])
    assert all(("e" in repr(m)) == (not -4 < point <= 16) for m in masses.tolist())
    _json_rows_match_json_dumps(np.arange(17).reshape(-1, 1), masses)


def test_shortest_digits_are_the_digits_of_repr():
    edges = _mass_edges()
    got = np.column_stack(fileio.shortest_digits(edges)).tolist()
    assert got == [list(_repr_digits(v)) for v in edges.tolist()]
    for value in edges[:: len(edges) // 20]:  # arrays of one value
        assert [int(a[0]) for a in fileio.shortest_digits(np.array([value]))] == list(_repr_digits(value))
    values = _normal_doubles()
    got = np.column_stack(fileio.shortest_digits(values)).tolist()
    assert got == [list(_repr_digits(v)) for v in values.tolist()]
