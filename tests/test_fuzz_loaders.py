"""Fuzzing the file loaders: any input either loads or raises a PidError.

Each loader gets arbitrary JSON, and objects built from its own field
names, whose values are arbitrary JSON salted with the labels and tags
the loader parses, so that the fuzz reaches past the first field check.
The TSV loader gets text assembled from header names, symbols, masses
and stray characters.  Every loader also gets raw bytes: arbitrary ones
(mostly not UTF-8), deeply nested arrays and integer literals longer than
the interpreter converts.  Any exception other than a PidError fails.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pidlattice import BaseConcept, PidError, load_joint, load_measure, load_result

LABELS = ["{}", "{1}", "{2}", "{1,2}", "{1}{2}", "{2,1}", "∅-chain", "{1,3}"]
TAGS = [c.tag for c in BaseConcept]

JOINT_FIELDS = ["n_sources", "source_alphabets", "target_alphabet", "pmf", "state", "p"]
MEASURE_FIELDS = ["concept", *LABELS]
RESULT_FIELDS = [
    "n", "concept", "measure", "distribution_digest", "mi", "atoms", "alpha", "alpha_tilde",
    "value", *LABELS,
]

LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.integers()
    | st.integers(10**400, 10**401) | st.integers(-(10**401), -(10**400))  # beyond float range
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(LABELS + TAGS)
)
FUZZ = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def json_values(keys):
    """Arbitrary JSON whose object keys are drawn from ``keys``."""
    return st.recursive(
        LEAVES,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
        max_leaves=8,
    )


def documents(fields):
    """Arbitrary JSON, or an object keyed mostly by a loader's own field names."""
    keys = st.sampled_from(fields) | st.text(max_size=4)
    return json_values(keys) | st.dictionaries(keys, json_values(keys), max_size=len(fields))


LITERAL_PREFIXES = st.sampled_from([b"", b"-", b"[", b'{"concept": "redundancy", "{1}": '])
RAW_BYTES = (
    st.binary(max_size=64)
    | st.integers(1, 100_000).map(lambda depth: b"[" * depth)
    | st.tuples(LITERAL_PREFIXES, st.integers(4301, 6000)).map(lambda p: p[0] + b"7" * p[1])
)


def loads_or_raises_pid_error(load, path):
    try:
        load(path)
    except PidError:
        pass


@FUZZ
@given(doc=documents(JOINT_FIELDS))
def test_load_joint_json(tmp_path, doc):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loads_or_raises_pid_error(load_joint, path)


TSV_TOKENS = st.sampled_from(
    ["s1", "s2", "s3", "t", "p", "0", "1", "2", "-1", "0.5", "1.0", "nan", "inf", "1e999", "x", ""]
)
TSV_LINES = st.lists(TSV_TOKENS | st.text(max_size=3), max_size=5).map("\t".join)
TSV_HEADERS = st.sampled_from(["s1\tt\tp", "s1\ts2\tt\tp", "s1\ts2\ts3\tt\tp"]) | TSV_LINES


@FUZZ
@given(header=TSV_HEADERS, rows=st.lists(TSV_LINES, max_size=6))
def test_load_joint_tsv(tmp_path, header, rows):
    path = tmp_path / "dist.tsv"
    path.write_text("\n".join([header, *rows]), encoding="utf-8")
    loads_or_raises_pid_error(lambda p: load_joint(p, fmt="tsv"), path)


@FUZZ
@given(doc=documents(MEASURE_FIELDS), n=st.integers(1, 3))
def test_load_measure(tmp_path, doc, n):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loads_or_raises_pid_error(lambda p: load_measure(p, n), path)


@FUZZ
@given(doc=documents(RESULT_FIELDS))
def test_load_result(tmp_path, doc):
    path = tmp_path / "result.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loads_or_raises_pid_error(load_result, path)


RAW_LOADERS = {
    "distribution.json": load_joint,
    "distribution.tsv": lambda p: load_joint(p, fmt="tsv"),
    "measure.json": lambda p: load_measure(p, 2),
    "result.json": load_result,
}


@FUZZ
@given(name=st.sampled_from(sorted(RAW_LOADERS)), data=RAW_BYTES)
def test_loaders_on_raw_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    loads_or_raises_pid_error(RAW_LOADERS[name], path)
