"""The kernel that reads a distribution file's masses, against ``float()``.

``fileio.decimals`` turns runs of number bytes into doubles with numpy
arrays, without a Python object per run.  A run it takes must read as
``float(run)`` reads it, to the bit; a run it refuses sends the file to the
document route, so a refusal is never wrong, but a wrong value always is.
The sweeps are seeded.
"""

import decimal
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pidlattice
from pidlattice import fileio

LEAST_NORMAL = 2.0**-1022
BATCH = 1 << 17


def convert(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's doubles and takes for ``texts``, written as the runs of one text.

    One space apart, so each run's slot also holds the runs before it.
    """
    text = " ".join(texts).encode()
    starts, ends = fileio._runs(text)
    assert len(starts) == len(texts)
    return fileio.decimals(text, starts, ends)


def shaped(digits: str, exponent: int) -> str:
    """d1.d2d3... * 10**exponent as ``float.__repr__`` lays it out; ``digits`` has no trailing 0."""
    if not -4 <= exponent < 16:
        rest = f".{digits[1:]}" if len(digits) > 1 else ""
        return f"{digits[0]}{rest}e{exponent:+03d}"
    if exponent < 0:
        return "0." + "0" * (-exponent - 1) + digits
    whole = digits[: exponent + 1].ljust(exponent + 1, "0")
    return f"{whole}.{digits[exponent + 1 :] or '0'}"


def assert_exact_where_taken(texts: list[str], values: np.ndarray, taken: np.ndarray):
    expected = np.array([float(text) for text in texts])
    wrong = np.flatnonzero(taken & (values.view(np.uint64) != expected.view(np.uint64)))
    assert not wrong.size, [(texts[i], values[i].hex(), expected[i].hex()) for i in wrong[:5]]
    return expected


EDGES = {  # text: taken
    "0": True,
    "0.0": True,
    "1": True,
    "1.0": True,
    "1e-05": True,
    "0.0001": True,
    "9007199254740993": True,  # 2**53 + 1, a tie: rounds to even, 2**53
    "9007199254740995": True,  # a tie that rounds up
    "2.2250738585072011e-308": False,  # subnormal
    "2.2250738585072014e-308": True,  # the least normal double
    "5e-324": False,  # the least subnormal
    "1e-400": False,  # 0 as a double
    "1.7976931348623157e+308": True,  # the greatest double
    "1.7976931348623158e+308": True,  # rounds down to it
    "1.7976931348623159e+308": False,  # rounds up to infinity
    "1e+309": False,
    "1234567890123456789": True,  # 19 digits
    "9999999999999999999": True,
    "12345678901234567890": False,  # 20 digits
    "1.234567890123456789e-100": True,
    "1.2345678901234567891e-100": False,
    "0.0001234567890123456789": True,  # 19 digits after three 0s
    "0.00012345678901234567891": False,
    "1234567890123456.0": True,  # the widest whole part
    "0.9999999999999999999": True,  # rounds up to 1.0, the next binade
    "9.536743164062499999e-07": True,  # rounds up to 2**-20
    "12345678901234567.0": False,  # written 1.2345678901234567e+16
}


@pytest.mark.parametrize("text", EDGES)
def test_an_edge_is_read_exactly_or_refused(text):
    values, taken = convert([text])
    assert_exact_where_taken([text], values, taken)
    assert bool(taken[0]) is EDGES[text], (text, values[0].hex(), float(text).hex())


REFUSED_SHAPES = [
    "0.50", "5E-1", "5e-01", "1e+0", "1e5", "1e-5", "1.0e-05", "1.50e-05", "0.00001", "-0.0", "-1", "+1",
    "05", "00", "00.5", ".5", "1.", "1..0", "0.5.1", "1e--05", "1e+-05", "1e-005", "1e+05",
    "1e-04", "1e+15", "e-05", "1-2", "1e", "1e005", "1e.05",
    "10000000.0000000000000001", "1000000000000000000000001",  # 25 bytes: the last 24 alone look taken
]


@pytest.mark.parametrize("text", REFUSED_SHAPES)
def test_a_shape_repr_does_not_write_is_refused(text):
    values, taken = convert(["0.25", text, "0.25"])
    assert taken.tolist() == [True, False, True]
    assert values[0] == values[2] == 0.25


@pytest.mark.parametrize("text", ["1e022", "1e.22", "1ee22", "1eE22", "1e0308", "1e.308"])
def test_an_exponent_sign_other_than_plus_or_minus_is_refused(text):
    """Beyond the fixed-point range, where the range test alone would take the run as ``1e+22``."""
    test_a_shape_repr_does_not_write_is_refused(text)


def test_an_exponent_is_read_inside_its_run_only():
    values, taken = convert(["2e", "12", "3e-", "45", "0.5"])
    assert taken.tolist() == [False, True, False, True, True]
    assert values[[1, 3, 4]].tolist() == [12.0, 45.0, 0.5]


def test_reprs_of_random_doubles_read_back_to_the_bit():
    """2**20 doubles from random bits: every exponent, subnormals included."""
    rng = np.random.default_rng(2021)
    for _ in range((1 << 20) // BATCH):
        doubles = rng.integers(0, 1 << 63, BATCH, dtype=np.uint64).view(np.float64)
        doubles = doubles[np.isfinite(doubles)]
        texts = list(map(repr, doubles.tolist()))
        values, taken = convert(texts)
        assert_exact_where_taken(texts, values, taken)
        assert (taken == (doubles >= LEAST_NORMAL)).all()


def test_nineteen_digit_significands_round_as_float_does():
    """Significands of 1 to 19 digits at every power of ten, in the shapes of repr."""
    rng = np.random.default_rng(2023)
    for _ in range(4):
        sizes, exponents = rng.integers(1, 20, BATCH).tolist(), rng.integers(-330, 310, BATCH).tolist()
        heads, lasts = rng.integers(10**17, 10**18, BATCH).tolist(), rng.integers(1, 10, BATCH).tolist()
        digits = [f"{head}{last}"[:size].rstrip("0") for head, last, size in zip(heads, lasts, sizes)]
        texts = list(map(shaped, digits, exponents))
        values, taken = convert(texts)
        expected = assert_exact_where_taken(texts, values, taken)
        assert (taken == ((expected >= LEAST_NORMAL) & np.isfinite(expected))).all()


def test_ties_round_to_even():
    """Exact halves between two doubles, written in at most 19 digits."""
    rng = np.random.default_rng(53)
    texts = []
    for binade in range(49, 63):  # d + ulp / 2 has up to 4 digits after the point
        for d in (2.0**binade * (1 + rng.random(2000))).tolist():
            half = decimal.Decimal(d) + decimal.Decimal(math.ulp(d)) / 2
            _, digits, exponent = half.normalize().as_tuple()
            if len(digits) <= 19:
                texts.append(shaped("".join(map(str, digits)), exponent + len(digits) - 1))
    for q in range(1, 24):  # t * 10**q is a tie when 5**q * t is odd and of 54 bits
        least = -(-(1 << 53) // 5**q) | 1
        for t in range(least, least + 2000, 2):
            if (5**q * t).bit_length() == 54:
                texts.append(shaped(str(t), len(str(t)) - 1 + q))
    assert len(texts) > 25_000
    values, taken = convert(texts)
    assert_exact_where_taken(texts, values, taken)
    assert taken.all()


def test_json_ints_read_as_float_reads_them():
    rng = np.random.default_rng(64)
    draws = rng.integers(0, 10**18, BATCH) * rng.integers(1, 10, BATCH) + rng.integers(0, 10, BATCH)  # 19 digits
    texts = list(map(str, draws.tolist())) + [str(2**63 + 2**10), str(2**63 - 2**9), str(10**19 - 1)]
    values, taken = convert(texts)
    assert_exact_where_taken(texts, values, taken)
    assert taken.all()


def test_the_power_tables_match_fast_float():
    high, low = fileio._powers_of_five()
    rows = {-342: (0xEEF453D6923BD65A, 0x113FAA2906A13B3F), -1: (0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCD),
            0: (1 << 63, 0), 1: (0xA << 60, 0), 308: (0x8E679C2F5E44FF8F, 0x570F09EAA7EA7648)}
    for q, row in rows.items():
        assert (int(high[q + 342]), int(low[q + 342])) == row


def test_no_power_table_is_built_at_import():
    code = (
        "import pidlattice\n"
        "from pidlattice import fileio\n"
        "print(fileio._powers_of_ten.cache_info().currsize, fileio._powers_of_five.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pidlattice.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def former_powers_of_ten() -> list[int]:
    """Schubfach's multipliers from 10**-k in Python ints, the reference for the rows read off 5**q.

    g = floor(b) + 1 for 10**-k = b * 2**r with 2**125 <= b < 2**126.
    """
    g = []
    for k in range(fileio._K_MIN, fileio._K_MAX + 1):
        r = fileio._flog2_pow10(-k) - 125
        if k <= 0:
            b = 10**-k >> r if r >= 0 else 10**-k << -r
        else:
            b = (1 << -r) // 10**k
        g.append(b + 1)
    return g


def test_the_powers_of_ten_equal_the_former_builders_rows():
    high, low = fileio._powers_of_ten()
    assert len(high) == len(low) == 617
    assert [int(h) << 63 | int(l) for h, l in zip(high.tolist(), low.tolist())] == former_powers_of_ten()


def test_the_rows_beyond_fast_floats_table_are_five_to_the_q_cut_to_128_bits():
    high, low = fileio._powers_of_five()
    assert len(high) == len(low) == 342 + 325
    for q in range(309, 325):
        assert int(high[q + 342]) << 64 | int(low[q + 342]) == 5**q >> (5**q).bit_length() - 128


def test_flog2_pow10_is_the_floor_of_q_log2_10():
    """floor(q * log2(10)) from the bit length of 10**|q|, which is no power of two for q != 0."""
    q = np.arange(-342, 325)
    bits = [(10 ** abs(e)).bit_length() for e in q.tolist()]
    exact = [b - 1 if e >= 0 else -b for e, b in zip(q.tolist(), bits)]
    assert [fileio._flog2_pow10(e) for e in q.tolist()] == exact
    assert fileio._flog2_pow10(q).tolist() == exact


# The ends of repr's fixed-point range, each with a 17-digit text beside it.  Above 2**52 no
# fixed-point text has 17 digits, so 2**52 - 0.5 stands beside the top end.
FIXED_POINT_ENDS = {
    "1e-05": "1.0000000000000003e-05",
    "0.0001": "0.00010000000000000002",
    "9999999999999998.0": "4503599627370495.5",
    "1e+16": "1.0000000000000002e+16",
}


@pytest.mark.parametrize("end", FIXED_POINT_ENDS)
def test_the_ends_of_the_fixed_point_range_are_written_and_read_as_repr(end):
    texts = [end, FIXED_POINT_ENDS[end]]
    masses = np.array([float(text) for text in texts])
    assert list(map(repr, masses.tolist())) == texts
    states = np.zeros((len(texts), 1), np.int64)
    expected = json.dumps(list(zip(states.tolist(), masses.tolist())))[1:-1]
    assert b"".join(fileio.json_rows(states, masses)).decode() == expected
    values, taken = convert(texts)
    assert taken.all()
    assert_exact_where_taken(texts, values, taken)
