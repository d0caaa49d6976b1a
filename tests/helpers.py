"""Shared test utilities: worked-example distributions and synthetic atoms.

Synthetic atom vectors bypass any measure: assigning arbitrary values to
the atoms and deriving the mutual-information table from the summation
identities yields a consistent decomposition by construction, which makes
exact round-trip testing possible for every concept path.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from pidlattice import (
    BaseConcept,
    JointDistribution,
    PidMeta,
    PidResult,
    decompose,
    enumerate_parthood_distributions,
    export_result,
    reference_measure,
)
from pidlattice.oracle import brute_monotone_tables

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"

# pass/fail lines collected by the acceptance tests, printed post-run
ACCEPTANCE_LINES: list[str] = []

# target = parity of the two sources
XOR_PMF = {(0, 0, 0): 0.25, (0, 1, 1): 0.25, (1, 0, 1): 0.25, (1, 1, 0): 0.25}
# both sources equal the target
COPY_PMF = {(0, 0, 0): 0.5, (1, 1, 1): 0.5}


# distribution files that are valid JSON but not distribution documents
MALFORMED_JSON_DISTRIBUTIONS = {
    "number-document": "5",
    "null-document": "null",
    "pmf-not-a-list": '{"n_sources": 1, "source_alphabets": [2], "target_alphabet": 2, "pmf": 7}',
    "state-not-a-list": (
        '{"n_sources": 1, "source_alphabets": [2], "target_alphabet": 2,'
        ' "pmf": [{"state": 5, "p": 1.0}]}'
    ),
    "unhashable-symbol": (
        '{"n_sources": 1, "source_alphabets": [2], "target_alphabet": 2,'
        ' "pmf": [{"state": [[0], [1]], "p": 1.0}]}'
    ),
}


# where a number sits in each kind of file: (file kind, keys into its document)
NUMBER_SLOTS = {
    "pmf-mass": ("distribution", ("pmf", 0, "p")),
    "measure-value": ("measure", ("{1}",)),
    "mi-value": ("result", ("mi", "{1}")),
    "atom-value": ("result", ("atoms", 0, "value")),
}


def xor_file_texts() -> dict[str, str]:
    """The XOR example as each kind of file a loader reads."""
    dist = xor_distribution()
    measure = reference_measure(dist, BaseConcept.REDUNDANCY)
    return {
        "distribution": (DATA_DIR / "xor.json").read_text(encoding="utf-8"),
        "tsv": (DATA_DIR / "xor.tsv").read_text(encoding="utf-8"),
        "measure": json.dumps(
            {"concept": "redundancy", **{a.label(): v for a, v in measure.values.items()}}
        ),
        "result": json.dumps(export_result(decompose(dist, BaseConcept.REDUNDANCY))),
    }


def unreadable_files() -> dict[str, dict[str, tuple[str, bytes]]]:
    """Files no loader can read, by defect class: case id -> (file kind, bytes).

    Each raises ParseError from its loader, except a pmf mass beyond float
    range, which is read and then refused by JointDistribution with a
    ValidationError.
    """
    texts = xor_file_texts()

    def with_literal(slot, literal):
        # the XOR file holding ``slot``, with that number written as ``literal``
        kind, keys = NUMBER_SLOTS[slot]
        doc = json.loads(texts[kind])
        functools.reduce(lambda part, key: part[key], keys[:-1], doc)[keys[-1]] = "@"
        return kind, json.dumps(doc).replace('"@"', literal).encode()

    return {
        "not-utf8": {kind: (kind, b"\xff\xfe" + text.encode()) for kind, text in texts.items()},
        "deep-nesting": {
            kind: (kind, b"[" * 100_000) for kind in ("distribution", "measure", "result")
        },
        "overlong-literal": {
            slot: with_literal(slot, "9" * 5001)
            for slot in ("pmf-mass", "measure-value", "atom-value")
        },
        "beyond-float": {slot: with_literal(slot, "1" + "0" * 400) for slot in NUMBER_SLOTS},
    }


def xor_distribution() -> JointDistribution:
    return JointDistribution((2, 2), 2, XOR_PMF)


def copy_distribution() -> JointDistribution:
    return JointDistribution((2, 2), 2, COPY_PMF)


def random_atom_vector(n: int, seed: int) -> dict:
    """Positive synthetic values for every parthood distribution."""
    rng = np.random.default_rng(seed)
    fs = enumerate_parthood_distributions(n)
    return {f: float(v) for f, v in zip(fs, rng.uniform(0.01, 1.0, len(fs)))}


def mi_from_atoms(n: int, atoms) -> dict[int, float]:
    """The MI table implied by the summation identities."""
    return {
        bits: sum(v for f, v in atoms.items() if f.value(bits))
        for bits in range(1 << n)
    }


def result_from_atoms(n: int, atoms, concept: str = "synthetic") -> PidResult:
    meta = PidMeta(concept=concept, measure="synthetic", digest="0" * 64)
    return PidResult.build(n, atoms, meta, mi_from_atoms(n, atoms))


@functools.lru_cache(maxsize=None)
def monotone_table_set(n: int) -> frozenset:
    return frozenset(brute_monotone_tables(n))


def solve_exact(rows, rhs):
    """Gaussian elimination over the rationals; the system must be square
    and uniquely solvable."""
    size = len(rhs)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(size):
        pivot = next(i for i in range(col, size) if aug[i][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for i in range(size):
            if i != col and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][size] for i in range(size)]


# (golden file, CLI argv) pairs reused by the CLI and acceptance suites
GOLDEN_CASES = [
    (
        "xor_redundancy.json",
        ["decompose", "--input", str(DATA_DIR / "xor.json"), "--concept", "redundancy"],
    ),
    (
        "copy_redundancy.json",
        ["decompose", "--input", str(DATA_DIR / "copy.json"), "--concept", "redundancy"],
    ),
    (
        "xor_union_table.json",
        ["decompose", "--input", str(DATA_DIR / "xor.json"), "--concept", "union", "--table"],
    ),
    ("union_lattice_n3.dot", ["lattice", "--n", "3", "--concept", "union"]),
    ("rank_n3.json", ["rank", "--n", "3"]),
    (
        "domains_weak_synergy_n2.txt",
        ["domains", "--n", "2", "--concept", "weak-synergy", "--table"],
    ),
]
