"""Joint distributions: information quantities, file formats, validation."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from pidlattice import (
    CapacityError,
    JointDistribution,
    ParseError,
    SourceSet,
    ValidationError,
    conditional_mi,
    load_joint,
    mi_table,
    mutual_information,
    random_joint,
    save_joint,
)
from pidlattice import distributions
from pidlattice.distributions import MASS_EPS, _complete_entropies, _sorted_entropies
from pidlattice.oracle import oracle_conditional_mi, oracle_mi


def test_xor_information(xor_dist):
    assert mutual_information(xor_dist, 0) == 0.0
    assert abs(mutual_information(xor_dist, 0b01)) < 1e-12
    assert abs(mutual_information(xor_dist, 0b10)) < 1e-12
    assert abs(mutual_information(xor_dist, 0b11) - 1.0) < 1e-12


def test_copy_information(copy_dist):
    for bits in (0b01, 0b10, 0b11):
        assert abs(mutual_information(copy_dist, bits) - 1.0) < 1e-12


def test_mi_accepts_source_sets(xor_dist):
    assert mutual_information(xor_dist, SourceSet(2, 0b11)) == mutual_information(xor_dist, 0b11)
    with pytest.raises(ValidationError):
        mutual_information(xor_dist, SourceSet(3, 0b11))
    with pytest.raises(ValidationError):
        mutual_information(xor_dist, 0b100)


@pytest.mark.parametrize("bits", [1.5, True, "a", None, np.int64(1)], ids=repr)
def test_mi_refuses_collections_that_are_not_source_sets_or_ints(xor_dist, bits):
    # int() would read 1.5 and True as the collection {1}
    for call in (
        lambda: mutual_information(xor_dist, bits),
        lambda: conditional_mi(xor_dist, bits, 0b10),
        lambda: conditional_mi(xor_dist, 0b10, bits),
    ):
        with pytest.raises(ValidationError, match="collection must be a SourceSet or int bits"):
            call()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mi_matches_oracle(n, seed):
    dist = random_joint(n, seed)
    for bits in range(1 << n):
        assert abs(mutual_information(dist, bits) - oracle_mi(dist.pmf, n, bits)) < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_conditional_mi_matches_oracle(seed):
    n = 3
    dist = random_joint(n, seed)
    for a in range(1, 1 << n):
        for g in range(1 << n):
            ours = conditional_mi(dist, a, g)
            assert abs(ours - oracle_conditional_mi(dist.pmf, n, a, g)) < 1e-10


def _wide_sparse_pmf():
    """~1k seeded outcomes of a 2^24-cell table: sources (32, 32, 32, 32), target 16."""
    rng = np.random.default_rng(3)
    states = np.unique(rng.integers(0, 32, size=(1024, 5)) % [32, 32, 32, 32, 16], axis=0)
    masses = rng.dirichlet(np.ones(len(states)))
    return ((32, 32, 32, 32), 16, dict(zip(map(tuple, states.tolist()), masses.tolist())))


def _zeros_and_dust_pmf():
    """A 3 x 2 -> 3 pmf with exact zeros, masses below MASS_EPS and masses just above it."""
    pmf = dict(random_joint(2, 5, source_alphabets=(3, 2), target_alphabet=3).pmf)
    states = list(pmf)
    for s in states[::3]:
        pmf[s] = 0.0
    for s in states[1::5]:
        pmf[s] = MASS_EPS / 10
    for s in states[2::7]:
        pmf[s] = MASS_EPS * 10
    rest = [s for s in states if pmf[s] > 1e-9]
    total = math.fsum(pmf.values())
    for s in rest:
        pmf[s] /= total
    return ((3, 2), 3, pmf)


# (source alphabets, target alphabet, pmf) for inputs random_joint does not make
ORACLE_INPUTS = {
    "5x3x4-to-3": lambda: ((5, 3, 4), 3, random_joint(3, 11, (5, 3, 4), 3).pmf),
    "16x16-to-16": lambda: ((16, 16), 16, random_joint(2, 12, (16, 16), 16).pmf),
    "zeros-and-dust": _zeros_and_dust_pmf,
    "sparse-2^24-cells": _wide_sparse_pmf,
}


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_information_matches_oracle_on_wide_and_sparse_inputs(name):
    sizes, target, pmf = ORACLE_INPUTS[name]()
    dist = JointDistribution(sizes, target, pmf)
    n = dist.n
    for a in range(1 << n):
        assert abs(mutual_information(dist, a) - oracle_mi(pmf, n, a)) < 1e-10
        for g in range(1 << n):
            ours = conditional_mi(dist, a, g)
            assert abs(ours - oracle_conditional_mi(pmf, n, a, g)) < 1e-10


def test_information_ignores_insertion_order():
    ordered = random_joint(3, 11, source_alphabets=(5, 3, 4), target_alphabet=3)
    items = list(ordered.pmf.items())
    shuffled = [items[i] for i in np.random.default_rng(0).permutation(len(items))]
    dist = JointDistribution((5, 3, 4), 3, dict(shuffled))
    assert list(dist.pmf) != list(ordered.pmf)
    assert mi_table(dist) == mi_table(ordered)
    assert dist.digest() == ordered.digest()


def test_information_memory_grows_with_support_not_cells():
    # a marginal table over the cells would take 8 bytes per cell: 8 MiB for
    # each 2^20-cell marginal of this 2^24-cell table of ~1k outcomes
    dist = JointDistribution(*_wide_sparse_pmf())
    tracemalloc.start()
    try:
        mi_table(dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


# -------------------------------------------------------- marginal routes

def _hex_entropies(route, dist: JointDistribution) -> dict:
    sizes = (*dist.source_alphabets, dist.target_alphabet)
    return {key: value.hex() for key, value in route(dist.n, sizes, *dist._coordinates()).items()}


def _same_bits_by_both_routes(dist: JointDistribution) -> None:
    cells, _ = dist._coordinates()
    assert len(cells) == math.prod((*dist.source_alphabets, dist.target_alphabet))  # complete
    by_axis = _hex_entropies(_complete_entropies, dist)
    assert len(by_axis) == 2 << dist.n
    assert by_axis == _hex_entropies(_sorted_entropies, dist)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_marginal_routes_agree_bit_for_bit_on_every_small_shape(n):
    for shape in itertools.product((1, 2, 3), repeat=n + 1):
        _same_bits_by_both_routes(random_joint(n, sum(shape), shape[:-1], shape[-1]))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("binary", [True, False], ids=["binary", "two-or-three"])
def test_marginal_routes_agree_bit_for_bit_on_seeded_tables(n, seed, binary):
    alphabets = (2,) * n if binary else None  # None draws each size from {2, 3}
    _same_bits_by_both_routes(random_joint(n, seed, alphabets, 2 if binary else None))


@pytest.mark.parametrize("shape", [(16, 16, 16, 16), (9, 2, 33, 5, 11)], ids=str)
def test_marginal_routes_agree_bit_for_bit_on_wide_tables(shape):
    _same_bits_by_both_routes(random_joint(len(shape) - 1, 7, shape[:-1], shape[-1]))


def _routes_taken(monkeypatch, dist: JointDistribution) -> list[str]:
    calls = []

    def spy(name):
        real = getattr(distributions, name)

        def route(*args):
            calls.append(name)
            return real(*args)

        return route

    with monkeypatch.context() as patch:
        for name in ("_complete_entropies", "_sorted_entropies"):
            patch.setattr(distributions, name, spy(name))
        mi_table(dist)
    return calls


@pytest.mark.parametrize(
    "first_mass",
    [None, MASS_EPS, MASS_EPS / 2, 0.0],
    ids=["one-cell-missing", "one-mass-at-eps", "one-mass-below-eps", "one-zero-mass"],
)
def test_only_a_table_with_every_cell_kept_sums_by_axis(monkeypatch, first_mass):
    source = random_joint(3, 4, (3, 2, 4), 3)
    assert _routes_taken(monkeypatch, source) == ["_complete_entropies"]
    pmf = dict(source.pmf)
    first, second = list(pmf)[:2]
    pmf[second] += pmf.pop(first)
    if first_mass is not None:  # kept in the mapping, dropped from the table
        pmf[first], pmf[second] = first_mass, pmf[second] - first_mass
    dist = JointDistribution((3, 2, 4), 3, pmf)
    assert _routes_taken(monkeypatch, dist) == ["_sorted_entropies"]
    assert all(abs(mutual_information(dist, a) - oracle_mi(pmf, 3, a)) < 1e-10 for a in range(8))


@pytest.mark.parametrize("seed", range(10))
def test_chain_rule(seed):
    dist = random_joint(2, seed)
    lhs = mutual_information(dist, 0b11)
    rhs = mutual_information(dist, 0b01) + conditional_mi(dist, 0b10, 0b01)
    assert abs(lhs - rhs) < 1e-10


def test_mi_table_covers_all_collections():
    dist = random_joint(3, 0)
    table = mi_table(dist)
    assert set(table) == set(range(8))
    assert table[0] == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10_000))
def test_mi_monotone_under_collection_growth(n, seed):
    dist = random_joint(n, seed)
    for a in range(1 << n):
        for b in range(1 << n):
            if a & ~b == 0:
                assert mutual_information(dist, a) <= mutual_information(dist, b) + 1e-10


# -------------------------------------------------------------- validation

def test_distribution_validation():
    with pytest.raises(ValidationError):
        JointDistribution((2, 2), 2, {(0, 0, 0): 0.5, (1, 1, 1): 0.6})  # sums to 1.1
    with pytest.raises(ValidationError):
        JointDistribution((2, 2), 2, {(0, 0, 0): -0.1, (1, 1, 1): 1.1})
    with pytest.raises(ValidationError):
        JointDistribution((2, 2), 2, {(0, 0): 1.0})  # wrong arity
    with pytest.raises(ValidationError):
        JointDistribution((2, 2), 2, {(0, 0, 2): 1.0})  # symbol out of range
    with pytest.raises(ValidationError):
        JointDistribution((2, 0), 2, {(0, 0, 0): 1.0})  # empty alphabet
    with pytest.raises(CapacityError):
        JointDistribution((2,) * 6, 2, {(0,) * 7: 1.0})  # too many sources
    with pytest.raises(CapacityError):
        JointDistribution((4096, 4096), 2, {(0, 0, 0): 1.0})  # cell cap


@pytest.mark.parametrize(
    "pmf",
    [
        {(0, 0, 0): math.nan, (0, 1, 1): 0.3},
        {(0, 0, 0): "0.5", (0, 1, 1): 0.5},
        {(0, 0, 0): None, (0, 1, 1): 1.0},
        {(0, 0, 0): True, (0, 1, 1): 0.0},
        {(True, 0, 0): 0.5, (0, 1, 1): 0.5},
        {(0, 0, 0): 10**400, (0, 1, 1): 0.0},
        {(0, 0, 0): 10**5000, (0, 1, 1): 0.0},
        {(10**5000,): 1.0},
        {(10**5000, 0, 0): 1.0},
        {(0, 0, 0): -(10**5000), (0, 1, 1): 1.0},
    ],
    ids=[
        "nan-mass", "string-mass", "none-mass", "bool-mass", "bool-symbol",
        "int-mass-beyond-float", "int-mass-beyond-repr",
        "arity-symbol-beyond-repr", "symbol-beyond-repr", "negative-mass-beyond-repr",
    ],
)
def test_distribution_rejects_non_numbers(pmf):
    with pytest.raises(ValidationError):
        JointDistribution((2, 2), 2, pmf)


def test_distribution_accepts_numeric_masses():
    dist = JointDistribution((2, 2), 2, {(0, 0, 0): 1, (1, 1, 1): np.float32(0.0)})
    assert dist.pmf == {(0, 0, 0): 1.0}


def test_negligible_masses_are_dropped():
    dist = JointDistribution((2, 2), 2, {(0, 0, 0): 1.0, (1, 1, 1): 1e-17})
    assert (1, 1, 1) not in dist.pmf
    assert dist.pmf[(0, 0, 0)] == 1.0


def test_n_property():
    assert helpers.xor_distribution().n == 2


# ------------------------------------------------------------ file formats

def test_json_round_trip(tmp_path, xor_dist):
    path = tmp_path / "xor.json"
    save_joint(xor_dist, path)
    back = load_joint(path)
    assert back.pmf == xor_dist.pmf
    assert back.source_alphabets == xor_dist.source_alphabets
    assert back.target_alphabet == xor_dist.target_alphabet
    assert back.digest() == xor_dist.digest()


def test_tsv_load(tmp_path):
    path = tmp_path / "xor.tsv"
    rows = ["s1\ts2\tt\tp"] + [
        "\t".join(str(x) for x in (*state, p)) for state, p in sorted(helpers.XOR_PMF.items())
    ]
    path.write_text("\n".join(rows) + "\n")
    dist = load_joint(path, fmt="tsv")
    assert dist.pmf == helpers.XOR_PMF
    assert dist.source_alphabets == (2, 2)
    assert dist.target_alphabet == 2


@pytest.mark.parametrize(
    "text",
    [
        "",
        "a\tb\tp\n0\t0\t1.0",
        "s1\tt\tq\n0\t0\t1.0",
        "s1\tt\tp\n0\t0",
        "s1\tt\tp\n0\tx\t1.0",
        "s1\tt\tp\n0\t0\t0.5\n0\t0\t0.5",
        "s1\tt\tp\n",  # a header and no rows
    ],
)
def test_tsv_rejects(tmp_path, text):
    path = tmp_path / "bad.tsv"
    path.write_text(text)
    with pytest.raises(ParseError):
        load_joint(path, fmt="tsv")


def test_json_rejects(tmp_path):
    path = tmp_path / "bad.json"

    def expect_parse_error(doc):
        path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
        with pytest.raises(ParseError):
            load_joint(path)

    expect_parse_error("{not json")
    expect_parse_error({"n_sources": 1})  # fields missing
    expect_parse_error(
        {"n_sources": 2, "source_alphabets": [2], "target_alphabet": 2, "pmf": []}
    )  # alphabet list length mismatch
    expect_parse_error(
        {
            "n_sources": 1,
            "source_alphabets": [2],
            "target_alphabet": 2,
            "pmf": [{"state": [0, 0, 0], "p": 1.0}],
        }
    )  # state arity
    expect_parse_error(
        {
            "n_sources": 1,
            "source_alphabets": [2],
            "target_alphabet": 2,
            "pmf": [{"state": [0, 0], "p": 0.5}, {"state": [0, 0], "p": 0.5}],
        }
    )  # duplicate state
    expect_parse_error(
        {"n_sources": 1, "source_alphabets": [2], "target_alphabet": 2, "pmf": [[0, 0, 1.0]]}
    )  # entry shape


@pytest.mark.parametrize(
    "text", helpers.MALFORMED_JSON_DISTRIBUTIONS.values(), ids=helpers.MALFORMED_JSON_DISTRIBUTIONS
)
def test_json_rejects_malformed_documents(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ParseError):
        load_joint(path)


def test_unknown_format(tmp_path):
    path = tmp_path / "x.bin"
    path.write_text("s1\tt\tp\n0\t0\t1.0")
    with pytest.raises(ParseError):
        load_joint(path, fmt="csv")


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_joint(tmp_path / "absent.json")


# ----------------------------------------------------------------- digests

def test_digest_is_insertion_order_invariant():
    pmf_a = {(0, 0, 0): 0.25, (0, 1, 1): 0.25, (1, 0, 1): 0.25, (1, 1, 0): 0.25}
    pmf_b = dict(reversed(list(pmf_a.items())))
    da = JointDistribution((2, 2), 2, pmf_a).digest()
    db = JointDistribution((2, 2), 2, pmf_b).digest()
    assert da == db
    assert len(da) == 64 and all(c in "0123456789abcdef" for c in da)


def test_digest_tracks_content(xor_dist, copy_dist):
    assert xor_dist.digest() != copy_dist.digest()


# ------------------------------------------------------------------ random

def test_random_joint_is_seed_deterministic():
    a = random_joint(3, 42)
    b = random_joint(3, 42)
    assert a.pmf == b.pmf
    assert a.digest() == b.digest()
    assert random_joint(3, 43).digest() != a.digest()


# digests of random_joint(...) as written by the per-cell loop it replaced
RANDOM_JOINT_DIGESTS = [
    ((3, 0), {}, "3cbd3073bd8bceacceabe432af40b637253bcacecc8157a4c36f69553ece2f4b"),
    ((5, 1), {}, "49121427a5a5f154de073154e60f4f4378331df940e58c65375818f9efd1f6a6"),
    (
        (2, 7),
        {"source_alphabets": (3, 5), "target_alphabet": 4},
        "a7e728cda07276628ba6f097c030fb2f12b4da7bc54e377d133567bfee635b69",
    ),
    # a wide table, and symbols of two digits
    ((3, 11, (16, 16, 16), 16), {}, "d07cdd8c6cb826700b1ac05bdec5e409c124c4863486ad94a17f3f4d748151b1"),
    ((2, 5, (12, 11), 10), {}, "aabf64e9887f6f2e461b03225a10d5325ac6be448806441814e283c0e3e5db70"),
    # symbols of three and four digits; 300 outcomes, and 3000 and 20,000 written by the kernel
    ((1, 19, (300,), 1), {}, "63a0b7b7b7e9fe231a4e8949df1eb039e620e47e1ebe2c9bf6545b2561c0e6d0"),
    ((1, 13, (1000,), 3), {}, "ce9fa31cf6f50e22379f31f99f127020d971e2ab468f8f59dcff6f4af63d07cd"),
    ((2, 17, (4, 2500), 2), {}, "b318d5de23331a8f692923e4040e25014067dc8fa345f04c990d6d7b200d99df"),
]


@pytest.mark.parametrize("args, kwargs, digest", RANDOM_JOINT_DIGESTS)
def test_random_joint_digest_is_pinned(tmp_path, args, kwargs, digest):
    dist = random_joint(*args, **kwargs)
    assert dist.digest() == digest
    shape = (*dist.source_alphabets, dist.target_alphabet)
    assert list(dist.pmf) == [tuple(s) for s in np.ndindex(*shape)]
    # the same table read back from a saved JSON file, and from a TSV file in reverse order
    save_joint(dist, tmp_path / "d.json")
    assert load_joint(tmp_path / "d.json").digest() == digest
    header = "\t".join([*(f"s{i + 1}" for i in range(dist.n)), "t", "p"])
    rows = ["\t".join([*map(str, s), repr(p)]) for s, p in list(dist.pmf.items())[::-1]]
    (tmp_path / "d.tsv").write_text("\n".join([header, *rows]) + "\n")
    assert load_joint(tmp_path / "d.tsv", fmt="tsv").digest() == digest


def test_random_joint_respects_requested_alphabets():
    dist = random_joint(2, 0, source_alphabets=(2, 3), target_alphabet=4)
    assert dist.source_alphabets == (2, 3)
    assert dist.target_alphabet == 4
    assert abs(math.fsum(dist.pmf.values()) - 1.0) < 1e-9
    with pytest.raises(ValidationError):
        random_joint(2, 0, source_alphabets=(2,))


def test_random_joint_default_alphabets_are_small():
    dist = random_joint(4, 7)
    assert all(2 <= k <= 3 for k in dist.source_alphabets)
    assert 2 <= dist.target_alphabet <= 3


def test_a_distribution_keeps_its_own_alphabet_tuple(tmp_path):
    sizes = [2, 2]
    dist = JointDistribution(sizes, 2, {(0, 0, 0): 0.5, (1, 1, 1): 0.5})
    sizes.append(2)
    assert dist.source_alphabets == (2, 2) and type(dist.source_alphabets) is tuple
    assert dist.n == 2 and len(mi_table(dist)) == 4
    path = tmp_path / "d.json"
    save_joint(dist, path)
    assert type(load_joint(path).source_alphabets) is tuple
    assert random_joint(2, 0, source_alphabets=[3, 2]).source_alphabets == (3, 2)
