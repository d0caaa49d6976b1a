"""Distributions as checked columns, and ``pmf`` as a read-only view over them.

Every input reaches one set of bulk checks over an int64 state matrix and a
float64 mass vector; ``digest`` writes its JSON rows from the sorted
columns.  The per-outcome validation loop and the sorted-list digest they
replaced are kept here as references: the column path must give the same
error class and message, the same kept outcomes in the same order, and
the same digest bytes.
"""

import copy
import gc
import hashlib
import itertools
import json
import math
import numbers
import pickle
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidlattice import (
    CapacityError,
    JointDistribution,
    ParseError,
    ValidationError,
    load_joint,
    mi_table,
    random_joint,
    save_joint,
)
from pidlattice import distributions
from pidlattice.distributions import MASS_EPS, MASS_SUM_TOL, MAX_CELLS


def _shown(value) -> str:
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def reference_pmf(sizes, pmf) -> dict:
    """The kept outcomes as the per-outcome loop checked them, or its ValidationError."""
    total = 0.0
    cleaned = {}
    for state, p in pmf.items():
        if len(state) != len(sizes):
            raise ValidationError(f"outcome {_shown(state)} has wrong arity")
        for sym, size in zip(state, sizes):
            if type(sym) is not int or not 0 <= sym < size:
                raise ValidationError(f"symbol {_shown(sym)} out of range in outcome {_shown(state)}")
        if type(p) is not float and (isinstance(p, bool) or not isinstance(p, numbers.Real)):
            raise ValidationError(f"mass {_shown(p)} at outcome {state!r} is not a number")
        if not p >= 0:
            raise ValidationError(f"negative or NaN mass {_shown(p)} at outcome {state!r}")
        try:
            total += p
        except OverflowError:
            raise ValidationError(f"mass at outcome {state!r} exceeds the float range") from None
        if p > MASS_EPS:
            cleaned[tuple(state)] = float(p)
    if abs(total - 1.0) > MASS_SUM_TOL:
        raise ValidationError(f"masses sum to {total!r}, not 1")
    return cleaned


def reference_digest(sizes, pmf) -> str:
    """The digest as it was first written: sorted [state, mass] pairs through ``json.dumps``."""
    payload = {
        "source_alphabets": list(sizes[:-1]),
        "target_alphabet": sizes[-1],
        "pmf": sorted([list(s), float(p)] for s, p in pmf.items() if p > MASS_EPS),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def outcome(make):
    """What a constructor gives: the kept items in order, or the error's class and text."""
    try:
        made = make()
    except ValidationError as exc:
        return type(exc).__name__, str(exc)
    return list(made.items() if isinstance(made, dict) else made.pmf.items())


# ------------------------------------------------------ checks and digests

SYMBOLS = st.one_of(
    st.integers(-1, 3),
    st.sampled_from([True, False, 0.0, "a", None, 2**70, np.int64(1)]),
)
MASSES = st.one_of(
    st.floats(-1.0, 2.0),
    st.sampled_from(
        [
            0, 1, -1, True, "x", None, math.nan, math.inf, 10**400, -(10**400), 0.0, -0.0,
            MASS_EPS, 1e-16, Fraction(1, 3), Fraction(-1, 10**400), np.float32(0.25),
            np.float64(0.5), np.int64(1), np.bool_(True),
        ]
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.lists(SYMBOLS, min_size=1, max_size=4).map(tuple), MASSES, max_size=6))
def test_column_checks_match_the_per_outcome_loop(pmf):
    sizes = (2, 3, 2)
    assert outcome(lambda: JointDistribution(sizes[:-1], sizes[-1], pmf)) == outcome(
        lambda: reference_pmf(sizes, pmf)
    )


def _dyadic(count: int, splits: list[int]) -> list[float]:
    """``count`` powers of two summing to 1 exactly, in float32 as in float64."""
    masses = [1.0]
    for pick in splits[: count - 1]:
        half = masses.pop(pick % len(masses)) / 2
        masses += [half, half]
    return masses


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_digest_matches_the_sorted_json_formula(data):
    n = data.draw(st.integers(1, 5), label="n")
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=n + 1, max_size=n + 1), label="sizes")
    # one wide axis, for symbols of 3, 7 and 8 digits (the cell cap allows no other axis
    # beside 2**23 or 2**24)
    wide = data.draw(st.sampled_from([None, 1000, 2**23, 2**24]), label="wide")
    if wide is not None:
        axis = data.draw(st.integers(0, n), label="axis")
        sizes = [wide if i == axis else (k if wide == 1000 else 1) for i, k in enumerate(sizes)]
    sizes = tuple(sizes)
    cells = math.prod(sizes)
    # 1 to 36 outcomes, or 324 to 423; so many are drawn from a seeded generator
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="many"):
        count = 324 + int(rng.integers(100))
    else:
        count = data.draw(st.integers(1, 36), label="count")
    cells_picked = rng.choice(cells, min(cells, count), replace=False)
    picked = [tuple(map(int, np.unravel_index(c, sizes))) for c in cells_picked]
    kind = data.draw(st.sampled_from(["float", "float32", "int"]), label="kind")
    if kind == "float32":
        picked = picked[:32]  # _dyadic splits 1.0 at most 31 times
    support = picked[: max(1, len(picked) - data.draw(st.integers(0, 4)))]
    if kind == "int":
        masses = [1] + [0] * (len(support) - 1)
    elif kind == "float32":
        splits = data.draw(st.lists(st.integers(0, 63), min_size=31, max_size=31))
        masses = list(map(np.float32, _dyadic(len(support), splits)))
    else:
        # masses from about 1e-10 up, in exponent and in fixed notation
        if len(support) <= 36:
            weights = data.draw(st.lists(st.floats(1e-6, 10.0), min_size=len(support), max_size=len(support)))
        else:
            weights = np.exp(rng.uniform(math.log(1e-6), math.log(10.0), len(support))).tolist()
        masses = [w / math.fsum(weights) for w in weights]
    dust = picked[len(support) :]
    # float32 masses add up in float32, where dust can move the total by an ulp (6e-8), and a
    # float32 among float64 masses makes the total float32: the loop refused both, so avoid them
    zeros = [0, 0.0, np.float32(0.0)] if kind == "float32" else [0, 0.0, 1e-16, MASS_EPS]
    dust_masses = data.draw(st.lists(st.sampled_from(zeros), min_size=len(dust), max_size=len(dust)))
    items = list(zip(support, masses)) + list(zip(dust, dust_masses))
    pmf = dict(items[i] for i in rng.permutation(len(items)))

    dist = JointDistribution(sizes[:-1], sizes[-1], pmf)
    assert dist.digest() == reference_digest(sizes, pmf)
    assert list(dist.pmf.items()) == list(reference_pmf(sizes, pmf).items())


# Every refusal of the tests in test_distributions.py, with the text it had
# when those tests were written: the class alone would let a message drift.
REFUSALS = {
    "sums-to-1.1": ((2, 2), 2, {(0, 0, 0): 0.5, (1, 1, 1): 0.6}, ValidationError, "masses sum to 1.1, not 1"),
    "negative-mass": (
        (2, 2), 2, {(0, 0, 0): -0.1, (1, 1, 1): 1.1}, ValidationError,
        "negative or NaN mass -0.1 at outcome (0, 0, 0)",
    ),
    "wrong-arity": ((2, 2), 2, {(0, 0): 1.0}, ValidationError, "outcome (0, 0) has wrong arity"),
    "symbol-out-of-range": (
        (2, 2), 2, {(0, 0, 2): 1.0}, ValidationError, "symbol 2 out of range in outcome (0, 0, 2)",
    ),
    "empty-alphabet": ((2, 0), 2, {(0, 0, 0): 1.0}, ValidationError, "alphabet sizes must be positive ints"),
    "bool-alphabet": (
        (True, 2), 2, {(0, 0, 0): 1.0}, ValidationError, "alphabet sizes must be positive ints",
    ),
    "bool-target": ((2, 2), True, {(0, 0, 0): 1.0}, ValidationError, "alphabet sizes must be positive ints"),
    "int-alphabets": (5, 2, {}, ValidationError, "source alphabets must be a sequence of sizes, got int"),
    "generator-alphabets": (
        (k for k in (2, 2)), 2, {(0, 0, 0): 1.0}, ValidationError,
        "source alphabets must be a sequence of sizes, got generator",
    ),
    "too-many-sources": ((2,) * 6, 2, {(0,) * 7: 1.0}, CapacityError, "need 1..5 sources, got 6"),
    "cell-cap": (
        (4096, 4096), 2, {(0, 0, 0): 1.0}, CapacityError, "outcome table has 33554432 cells, cap is 16777216",
    ),
    "nan-mass": (
        (2, 2), 2, {(0, 0, 0): math.nan, (0, 1, 1): 0.3}, ValidationError,
        "negative or NaN mass nan at outcome (0, 0, 0)",
    ),
    "string-mass": (
        (2, 2), 2, {(0, 0, 0): "0.5", (0, 1, 1): 0.5}, ValidationError,
        "mass '0.5' at outcome (0, 0, 0) is not a number",
    ),
    "none-mass": (
        (2, 2), 2, {(0, 0, 0): None, (0, 1, 1): 1.0}, ValidationError,
        "mass None at outcome (0, 0, 0) is not a number",
    ),
    "bool-mass": (
        (2, 2), 2, {(0, 0, 0): True, (0, 1, 1): 0.0}, ValidationError,
        "mass True at outcome (0, 0, 0) is not a number",
    ),
    "bool-symbol": (
        (2, 2), 2, {(True, 0, 0): 0.5, (0, 1, 1): 0.5}, ValidationError,
        "symbol True out of range in outcome (True, 0, 0)",
    ),
    "int-mass-beyond-float": (
        (2, 2), 2, {(0, 0, 0): 10**400, (0, 1, 1): 0.0}, ValidationError,
        "mass at outcome (0, 0, 0) exceeds the float range",
    ),
    "int-mass-beyond-repr": (
        (2, 2), 2, {(0, 0, 0): 10**5000, (0, 1, 1): 0.0}, ValidationError,
        "mass at outcome (0, 0, 0) exceeds the float range",
    ),
    "arity-symbol-beyond-repr": (
        (2, 2), 2, {(10**5000,): 1.0}, ValidationError, "outcome <tuple too long to print> has wrong arity",
    ),
    "symbol-beyond-repr": (
        (2, 2), 2, {(10**5000, 0, 0): 1.0}, ValidationError,
        "symbol <int too long to print> out of range in outcome <tuple too long to print>",
    ),
    "negative-mass-beyond-repr": (
        (2, 2), 2, {(0, 0, 0): -(10**5000), (0, 1, 1): 1.0}, ValidationError,
        "negative or NaN mass <int too long to print> at outcome (0, 0, 0)",
    ),
    "float32-total": (
        (2, 2), 2, {(0, 0, 0): np.float32(0.5), (1, 1, 1): np.float32(0.6)}, ValidationError,
        "masses sum to np.float32(1.1), not 1",
    ),
    "tiny-negative-fraction": (
        (2, 2), 2, {(0, 0, 0): 1.0, (1, 1, 1): Fraction(-1, 10**400)}, ValidationError,
        f"negative or NaN mass {Fraction(-1, 10**400)!r} at outcome (1, 1, 1)",
    ),
    "float-total-overflows": (
        (2, 2), 2, {(0, 0, 0): 1e308, (1, 1, 1): 1e308}, ValidationError, "masses sum to inf, not 1",
    ),
    "negative-zeros": (
        (2, 2), 2, {(0, 0, 0): -0.0, (1, 1, 1): -0.0}, ValidationError, "masses sum to 0.0, not 1",
    ),
    "a-list": ((2, 2), 2, [((0, 0, 0), 1.0)], ValidationError, "pmf must map outcomes to masses, got list"),
    "int-key": ((2, 2), 2, {5: 1.0}, ValidationError, "outcome 5 is not a sequence of symbols"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusals_keep_their_messages(name):
    sizes, target, pmf, error, message = REFUSALS[name]
    with pytest.raises(error) as caught:
        JointDistribution(sizes, target, pmf)
    assert str(caught.value) == message


# (row, column, value) put in the last of 65,536 rows: a symbol, or the mass in column 4
LAST_ROW_REFUSALS = {
    "negative-symbol": (0, -1, "symbol -1 out of range in outcome (-1, 15, 15, 15)"),
    "symbol-at-its-size": (3, 16, "symbol 16 out of range in outcome (15, 15, 15, 16)"),
    "negative-mass": (4, -(2.0**-16), "negative or NaN mass -1.52587890625e-05 at outcome (15, 15, 15, 15)"),
    "nan-mass": (4, math.nan, "negative or NaN mass nan at outcome (15, 15, 15, 15)"),
}


@pytest.mark.parametrize("name", LAST_ROW_REFUSALS)
@pytest.mark.parametrize("given", ["mapping", "columns"])
def test_a_bad_last_row_of_a_wide_table_is_named(name, given):
    # the bulk checks run over the whole table; only the naming walks it row by row
    column, value, message = LAST_ROW_REFUSALS[name]
    source = random_joint(3, 6, (16, 16, 16), 16)
    states, masses = source.pmf.states.copy(), np.full(len(source.pmf), 2.0**-16)
    assert len(masses) == 65_536 and states[-1].tolist() == [15, 15, 15, 15]
    if column < 4:
        states[-1, column] = value
    else:
        masses[-1] = value
    if given == "mapping":
        pmf = dict(zip(map(tuple, states.tolist()), masses.tolist()))
        assert outcome(lambda: reference_pmf((16, 16, 16, 16), pmf)) == ("ValidationError", message)
    else:
        pmf = distributions._PmfView(states, masses)
    with pytest.raises(ValidationError) as caught:
        JointDistribution((16, 16, 16), 16, pmf)
    assert str(caught.value) == message


def test_masses_are_summed_in_insertion_order():
    # 2000 masses whose pairwise sum (np.sum) and one-by-one sum differ in the last bits
    rng = np.random.default_rng(8)
    cells = list(itertools.product(range(10), range(10), range(20)))
    masses = (rng.random(len(cells)) * 1.1e-3).tolist()
    total = 0.0
    for mass in masses:
        total += mass
    assert float(np.sum(masses)) != total
    pmf = dict(zip(cells, masses))
    with pytest.raises(ValidationError) as caught:
        JointDistribution((10, 10), 20, pmf)
    assert outcome(lambda: reference_pmf((10, 10, 20), pmf)) == ("ValidationError", str(caught.value))


def _doc(pmf, n=1, alphabets=(2,), target=2):
    return {"n_sources": n, "source_alphabets": list(alphabets), "target_alphabet": target, "pmf": pmf}


# The cases of test_json_rejects, and the orders in which a file's faults meet
FILE_REFUSALS = {
    "not-json": (
        "{not json", ParseError,
        "bad JSON in distribution file: Expecting property name enclosed in double quotes:"
        " line 1 column 2 (char 1)",
    ),
    "fields-missing": ({"n_sources": 1}, ParseError, "distribution file missing field 'source_alphabets'"),
    "alphabet-count": (
        {"n_sources": 2, "source_alphabets": [2], "target_alphabet": 2, "pmf": []}, ParseError,
        "source_alphabets must list one size per source",
    ),
    "state-arity": (_doc([{"state": [0, 0, 0], "p": 1.0}]), ParseError, "state [0, 0, 0] has wrong arity"),
    "duplicate": (
        _doc([{"state": [0, 0], "p": 0.5}, {"state": [0, 0], "p": 0.5}]),
        ParseError, "duplicate state [0, 0]",
    ),
    "entry-shape": (_doc([[0, 0, 1.0]]), ParseError, "bad pmf entry [0, 0, 1.0]"),
    # a duplicate among zero masses, and after a refused symbol: parse errors come first
    "duplicate-zero": (
        _doc([{"state": [0, 0], "p": 1.0}, {"state": [1, 1], "p": 0}, {"state": [1, 1], "p": 0}]),
        ParseError, "duplicate state [1, 1]",
    ),
    "duplicate-after-bad-symbol": (
        _doc([{"state": [0, 5], "p": 0.5}, {"state": [1, 1], "p": 0.25}, {"state": [1, 1], "p": 0.25}]),
        ParseError, "duplicate state [1, 1]",
    ),
    "equal-as-values": (
        _doc([{"state": [1, 0], "p": 0.5}, {"state": [True, 0], "p": 0.5}]), ParseError,
        "duplicate state [True, 0]",
    ),
    # out of range symbols that share a cell index are no duplicates
    "shared-cell-index": (
        _doc([{"state": [0, 2, 0], "p": 0.5}, {"state": [1, 0, 0], "p": 0.5}], n=2, alphabets=(2, 2)),
        ValidationError, "symbol 2 out of range in outcome (0, 2, 0)",
    ),
    "bad-mass-before-bad-entry": (
        _doc([{"state": [0, 0], "p": "x"}, {"state": [1, 1]}]), ParseError, "bad pmf entry {'state': [1, 1]}",
    ),
    "bad-mass": (
        _doc([{"state": [0, 0], "p": "x"}, {"state": [1, 1], "p": 1.0}]), ValidationError,
        "mass 'x' at outcome (0, 0) is not a number",
    ),
    "huge-symbol": (
        _doc([{"state": [10**30, 0], "p": 1.0}]), ValidationError,
        f"symbol {10**30} out of range in outcome ({10**30}, 0)",
    ),
    "six-sources": (
        _doc([{"state": [0] * 7, "p": 1.0}], n=6, alphabets=(2,) * 6),
        CapacityError, "need 1..5 sources, got 6",
    ),
    "float-n-sources": (
        _doc([{"state": [0, 0, 0], "p": 1.0}], n=2.0, alphabets=(2, 2)), ParseError,
        "n_sources must be an int, got 2.0",
    ),
    "bool-n-sources": (
        _doc([{"state": [0, 0], "p": 1.0}], n=True), ParseError, "n_sources must be an int, got True",
    ),
    "bool-alphabet": (
        _doc([{"state": [0, 0], "p": 1.0}], alphabets=(True,)), ValidationError,
        "alphabet sizes must be positive ints",
    ),
}


@pytest.mark.parametrize("name", FILE_REFUSALS)
def test_file_refusals_keep_their_messages(tmp_path, name):
    doc, error, message = FILE_REFUSALS[name]
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(error) as caught:
        load_joint(path)
    assert type(caught.value) is error
    assert str(caught.value) == message


COLLECTOR_CASES = {
    "loads": (_doc([{"state": [0, 0], "p": 0.5}, {"state": [1, 1], "p": 0.5}]), None),
    "parse-error": (_doc([{"state": [0, 0], "p": 1.0}, [1, 1, 0.0]]), ParseError),
    "validation-error": (_doc([{"state": [0, 0], "p": 0.5}, {"state": [1, 1], "p": "x"}]), ValidationError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case", COLLECTOR_CASES)
def test_json_load_pauses_the_collector_and_restores_its_state(tmp_path, monkeypatch, case, enabled):
    doc, error = COLLECTOR_CASES[case]
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    seen = []  # the collector's state while the file is parsed and its rows are checked

    def spy(real):
        def call(*args):
            seen.append(gc.isenabled())
            return real(*args)
        return call

    monkeypatch.setattr(distributions, "read_object", spy(distributions.read_object))
    monkeypatch.setattr(distributions, "_columns", spy(distributions._columns))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            load_joint(path)
        else:
            with pytest.raises(error):
                load_joint(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * (1 if case == "parse-error" else 2)


def test_a_file_loads_as_its_mapping_does(tmp_path):
    dist = random_joint(3, 4, (3, 2, 4), 3)
    items = list(dist.pmf.items())[::-1]
    items[2] = (items[2][0], items[0][1] + items[1][1] + items[2][1])
    items[0] = (items[0][0], 0)  # an int zero, dropped
    items[1] = (items[1][0], 1e-17)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(_doc([{"state": list(s), "p": p} for s, p in items], 3, (3, 2, 4), 3)))
    pmf = dict(items)
    loaded = load_joint(path)
    assert list(loaded.pmf.items()) == list(JointDistribution((3, 2, 4), 3, pmf).pmf.items())
    assert list(loaded.pmf) == [s for s, p in items if p > MASS_EPS]
    assert loaded.digest() == reference_digest((3, 2, 4, 3), pmf)


# ------------------------------------------------------------ the pmf view

def test_pmf_is_a_read_only_mapping():
    dist = random_joint(2, 0)
    assert isinstance(dist.pmf, Mapping) and not isinstance(dist.pmf, dict)
    with pytest.raises(TypeError):
        dist.pmf[(0, 0, 0)] = 1.0
    with pytest.raises(TypeError):
        del dist.pmf[(0, 0, 0)]
    with pytest.raises(ValueError):
        dist.pmf.masses[0] = 1.0
    with pytest.raises(ValueError):
        dist.pmf.states[0, 0] = 1
    copied = dict(dist.pmf)
    copied[(0, 0, 0)] = 2.0
    assert dist.pmf[(0, 0, 0)] != 2.0


def test_pmf_equals_dicts_both_ways_and_keeps_insertion_order():
    plain = {(1, 1, 1): np.float32(0.25), (0, 0, 0): 0.5, (0, 1, 1): 1e-17, (1, 0, 1): 0.25}
    dist = JointDistribution((2, 2), 2, plain)
    kept = {(1, 1, 1): 0.25, (0, 0, 0): 0.5, (1, 0, 1): 0.25}
    assert dist.pmf == kept and kept == dist.pmf
    assert dist.pmf != plain and plain != dist.pmf
    assert dist.pmf == JointDistribution((2, 2), 2, dict(reversed(kept.items()))).pmf
    assert list(dist.pmf) == list(kept) and list(dist.pmf.keys()) == list(kept)
    assert len(dist.pmf) == 3 and (0, 1, 1) not in dist.pmf and (0, 0, 0) in dist.pmf
    assert all(type(v) is float for v in dist.pmf.values())
    assert all(type(v) is float for _, v in dist.pmf.items())
    assert type(dist.pmf[(1, 1, 1)]) is float


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))], ids=["deepcopy", "pickle"]
)
def test_pmf_survives_copy_and_pickle(clone):
    dist = random_joint(3, 2)
    before = (dist.digest(), mi_table(dist), list(dist.pmf.items()))
    back = clone(dist)
    assert (back.digest(), mi_table(back), list(back.pmf.items())) == before
    with pytest.raises(ValueError):
        back.pmf.masses[0] = 0.0
    again = JointDistribution(back.source_alphabets, back.target_alphabet, back.pmf)
    assert again.digest() == before[0]


def test_no_outcome_dict_is_built_to_load_hash_or_measure(tmp_path, monkeypatch):
    source = random_joint(3, 5, (4, 3, 2), 3)
    path = tmp_path / "d.json"
    save_joint(source, path)
    expected = (source.digest(), mi_table(source))

    def refuse(view):
        raise AssertionError("the outcome dict was built")

    monkeypatch.setattr(distributions._PmfView, "_dict", refuse)
    for dist in (load_joint(path), random_joint(3, 5, (4, 3, 2), 3)):
        assert len(dist.pmf) == 72
        assert (dist.digest(), mi_table(dist)) == expected
        save_joint(dist, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == path.read_text()


# -------------------------------------------------------------- random_joint

class _NoDraw:
    """A generator that draws sizes but fails the test on the table's masses."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def dirichlet(self, alpha):
        raise AssertionError(f"drew {len(alpha)} masses")


def test_random_joint_applies_the_cell_cap_before_drawing(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _NoDraw)
    with pytest.raises(CapacityError, match="outcome table has 67108864 cells, cap is 16777216"):
        random_joint(3, 1, (4096, 4096, 2), 2)
    with pytest.raises(CapacityError, match="need 1..5 sources, got 6"):
        random_joint(6, 1)
    with pytest.raises(CapacityError, match="need 1..5 sources, got 0"):
        random_joint(0, 1)


@pytest.mark.parametrize(
    "args",
    [
        ("3", 1), (3.0, 1), (True, 1), (2, 1, (2.0, 2)), (2, 1, (2, 2), "3"), (2, 1, (2, 2), 2.0),
        (2, 1, 5), (2, 1, (2, 0)), (2, 1, (True, 2)), (2, 1, (2, 2), True),
    ],
    ids=[
        "str-n", "float-n", "bool-n", "float-size", "str-target", "float-target", "int-alphabets",
        "empty-alphabet", "bool-size", "bool-target",
    ],
)
def test_random_joint_refuses_bad_arguments(monkeypatch, args):
    monkeypatch.setattr(np.random, "default_rng", _NoDraw)
    with pytest.raises(ValidationError):
        random_joint(*args)


def test_the_pmf_view_shows_as_its_dict_under_the_class_name():
    pmf = {(1, 0, 1): 0.5, (0, 0, 0): 0.25, (1, 1, 0): 0.25}
    view = JointDistribution((2, 2), 2, pmf).pmf
    assert repr(view) == f"_PmfView({pmf!r})"
