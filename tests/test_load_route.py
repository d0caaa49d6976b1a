"""Distribution files take one load route, as the loaders they replaced did.

JSON and TSV rows both reach the columns through
``JointDistribution._from_rows``, and ``load_joint`` pauses the collector
around either parser.  The loaders they replaced are kept here as
references: ``reference_json``, with its separate malformed-entry walk
``reference_entries``, and ``reference_tsv``, which built a dict of
outcomes and went through the mapping path.  For every file drawn the
route must raise the same error class and message, or load the same
digest, alphabets and items in the same order.
"""

import gc
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pidlattice import JointDistribution, ParseError, PidError, ValidationError, load_joint
from pidlattice import distributions
from pidlattice.errors import shown
from pidlattice.fileio import read_object, read_text

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def reference_json(doc: dict) -> JointDistribution:
    n = doc["n_sources"]
    if type(n) is not int:
        raise ParseError(f"n_sources must be an int, got {shown(n)}")
    alphabets = doc["source_alphabets"]
    if not isinstance(alphabets, list) or len(alphabets) != n:
        raise ParseError("source_alphabets must list one size per source")
    entries = doc["pmf"]
    if not isinstance(entries, list):
        raise ParseError("pmf must be a list of entries")
    try:
        states = [entry["state"] for entry in entries]
        masses = [entry["p"] for entry in entries]
        target = doc["target_alphabet"]
        return JointDistribution._from_rows(alphabets, target, states, masses)
    except (TypeError, KeyError, PidError):
        reference_entries(entries, n)
        raise


def reference_entries(entries: list, n) -> None:
    seen = set()
    for entry in entries:
        if not isinstance(entry, dict) or "state" not in entry or "p" not in entry:
            raise ParseError(f"bad pmf entry {entry!r}")
        state = entry["state"]
        if not isinstance(state, list):
            raise ParseError(f"state {state!r} is not a list of symbols")
        state = tuple(state)
        if len(state) != n + 1:
            raise ParseError(f"state {list(state)!r} has wrong arity")
        try:
            duplicate = state in seen
        except TypeError:
            raise ParseError(f"state {list(state)!r} holds a non-symbol") from None
        if duplicate:
            raise ParseError(f"duplicate state {list(state)!r}")
        seen.add(state)


def reference_tsv(text: str) -> JointDistribution:
    lines = [(lineno, ln) for lineno, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ParseError("empty TSV file")
    header = lines[0][1].split("\t")
    if len(header) < 3 or header[-1] != "p" or header[-2] != "t":
        raise ParseError("TSV header must be s1 .. sn, t, p")
    n = len(header) - 2
    if header[:n] != [f"s{i + 1}" for i in range(n)]:
        raise ParseError("TSV header must be s1 .. sn, t, p")
    pmf = {}
    for lineno, ln in lines[1:]:
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
    if not pmf:
        raise ParseError("TSV file has a header but no outcome rows")
    alphabets = tuple(max(s[i] for s in pmf) + 1 for i in range(n))
    target = max(s[-1] for s in pmf) + 1
    return JointDistribution(alphabets, target, pmf)


def reference_tsv_file(path):
    return reference_tsv(read_text(path, "distribution file"))


def reference_json_file(path):
    fields = ("n_sources", "source_alphabets", "target_alphabet", "pmf")
    return reference_json(read_object(path, "distribution file", fields))


def outcome(load):
    """What a load gives: its error class and message, or the loaded table."""
    try:
        dist = load()
    except PidError as error:
        return type(error), str(error)
    return dist.digest(), dist.source_alphabets, dist.target_alphabet, list(dist.pmf.items())


def assert_same_route(path, text, fmt, reference):
    path.write_text(text, encoding="utf-8")
    assert outcome(lambda: load_joint(path, fmt)) == outcome(lambda: reference(path))


# ------------------------------------------------------------------ TSV

SYMBOLS = st.sampled_from(["0", "1", "2", "-1", " 3", "+3", "3_0", "٣", "x", "", "1.0", "9" * 30])
MASSES = st.sampled_from(["0.5", "0.25", "0", "1e-17", "nan", "-0.5", "inf", "1", "x", " 0.5", "1_0"])


@st.composite
def tsv_texts(draw):
    n = draw(st.integers(1, 3))
    header = [*(f"s{i}" for i in range(1, n + 1)), "t", "p"]
    if draw(st.integers(0, 9)) == 0:  # now and then a header with a name changed or dropped
        at = draw(st.integers(0, len(header) - 1))
        header[at:at + 1] = draw(st.sampled_from([[], ["q"], ["s9"], ["t"]]))
    lines = ["\t".join(header)]
    if draw(st.booleans()):  # a table that loads: distinct small states, equal masses
        states = draw(st.lists(st.tuples(*[st.integers(0, 2)] * (n + 1)), min_size=1, max_size=8, unique=True))
        lines += ["\t".join([*map(str, s), repr(1 / len(states))]) for s in states]
    for _ in range(draw(st.integers(0, 6))):  # malformed rows, duplicates and blank lines among them
        kind = draw(st.integers(0, 9))
        if kind == 0:
            row = draw(st.sampled_from(["", "  ", "\t"]))
        else:
            width = n + 1 if kind > 2 else draw(st.integers(0, n + 3))
            row = "\t".join([*draw(st.lists(SYMBOLS | st.sampled_from("012"), min_size=width, max_size=width)), draw(MASSES)])
        lines.insert(draw(st.integers(1, len(lines))), row)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@SETTINGS
@given(text=tsv_texts())
def test_tsv_rows_load_as_the_dict_route_loaded_them(tmp_path, text):
    assert_same_route(tmp_path / "d.tsv", text, "tsv", reference_tsv_file)


@pytest.mark.parametrize(
    "text",
    [
        "s1\tt\tp\n 3\t0\t1.0",  # int() takes surrounding spaces, a sign, underscores and other digits
        "s1\tt\tp\n+3\t0\t1.0",
        "s1\tt\tp\n3_0\t0\t1.0",
        "s1\tt\tp\n٣\t0\t1.0",
        "s1\tt\tp\n0\t0\tnan\n1\t1\t1.0",
        "s1\tt\tp\n0\t0\t0.5\n\n  \n0\t0\t0.5",
        "s1\tt\tp\n0\t0",
        "s1\tt\tp\n-1\t0\t0.5\n1\t1\t0.5",
        "s1\tt\tp\n-1\t0\t1.0",
        "s1\ts2\tt\tp\n0\t1\t1\t0.5\n1\t0\t1\t0.5\n",
        "s1\tt\tp\n\n\n0\tx\t1.0\n",  # blank lines keep their numbers
    ],
)
def test_named_tsv_rows(tmp_path, text):
    assert_same_route(tmp_path / "d.tsv", text, "tsv", reference_tsv_file)


@pytest.mark.parametrize(
    "text, line",
    [
        ("s1\tt\tp\n\n\n0\tx\t1.0\n", 4),
        ("\n  \ns1\tt\tp\n0\t0\t1.0\n\t\n1\t1", 6),
        ("s1\tt\tp\r\n0\t0\t0.5\r\n\r\n0\t0\t0.5\r\n", 4),
    ],
)
def test_tsv_errors_name_the_line_in_the_file(tmp_path, text, line):
    path = tmp_path / "d.tsv"
    path.write_bytes(text.encode())
    with pytest.raises(ParseError, match=f"^line {line}: "):
        load_joint(path, "tsv")


# ----------------------------------------------------------------- JSON

SYMBOL_VALUES = st.integers(0, 2) | st.sampled_from([-1, 5, True, 1.0, "0", None, [0], {"a": 0}, 10**30])
MASS_VALUES = st.sampled_from([0.5, 0.25, 0, 1e-17, -0.5, "x", None, True, 10**400, [0.5]])


@st.composite
def json_documents(draw):
    n = draw(st.integers(1, 3))
    entries = []
    if draw(st.booleans()):  # a table that loads
        states = draw(st.lists(st.tuples(*[st.integers(0, 1)] * (n + 1)), min_size=1, max_size=6, unique=True))
        entries += [{"state": list(s), "p": 1 / len(states)} for s in states]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            entry = draw(st.sampled_from([[0, 0, 1.0], 5, None, "x", {"state": [0] * (n + 1)}, {"p": 0.5}]))
        elif kind == 1:
            entry = {"state": draw(st.sampled_from([0, "00", {"0": 0}, None])), "p": 0.5}
        else:
            width = n + 1 if kind > 3 else draw(st.integers(0, n + 3))
            symbols = draw(st.lists(SYMBOL_VALUES, min_size=width, max_size=width))
            entry = {"state": symbols, "p": draw(MASS_VALUES)}
        entries.insert(draw(st.integers(0, len(entries))), entry)
    alphabets = draw(st.sampled_from([[2] * n, [2] * n, [1] * n, [True] * n]))
    return {"n_sources": n, "source_alphabets": alphabets, "target_alphabet": draw(st.sampled_from([2, 2, 1])), "pmf": entries}


@SETTINGS
@given(doc=json_documents())
def test_json_entries_load_as_the_separate_walk_loaded_them(tmp_path, doc):
    assert_same_route(tmp_path / "d.json", json.dumps(doc), "json", reference_json_file)


def test_both_formats_give_one_digest(tmp_path):
    dist = distributions.random_joint(3, 11, (3, 2, 4), 3)
    distributions.save_joint(dist, tmp_path / "d.json")
    rows = ["s1\ts2\ts3\tt\tp", *("\t".join([*map(str, s), repr(p)]) for s, p in dist.pmf.items())]
    (tmp_path / "d.tsv").write_text("\n".join(rows) + "\n")
    tsv, js = load_joint(tmp_path / "d.tsv", "tsv"), load_joint(tmp_path / "d.json")
    assert tsv.digest() == js.digest() == dist.digest()
    assert list(tsv.pmf.items()) == list(dist.pmf.items())


# ------------------------------------------------------------ collector

TSV_COLLECTOR_CASES = {
    "loads": ("s1\tt\tp\n0\t0\t0.5\n1\t1\t0.5\n", None),
    "parse-error": ("s1\tt\tp\n0\t0\t1.0\n1\tx\t0.0\n", ParseError),
    "validation-error": ("s1\tt\tp\n0\t0\t1.5\n1\t1\t-0.5\n", ValidationError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case", TSV_COLLECTOR_CASES)
def test_tsv_load_pauses_the_collector_and_restores_its_state(tmp_path, monkeypatch, case, enabled):
    text, error = TSV_COLLECTOR_CASES[case]
    path = tmp_path / "d.tsv"
    path.write_text(text)
    seen = []  # the collector's state while the file is read and its rows are checked

    def spy(real):
        def call(*args):
            seen.append(gc.isenabled())
            return real(*args)
        return call

    monkeypatch.setattr(distributions, "read_text", spy(distributions.read_text))
    monkeypatch.setattr(distributions, "_columns", spy(distributions._columns))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            load_joint(path, "tsv")
        else:
            with pytest.raises(error) as caught:
                load_joint(path, "tsv")
            assert type(caught.value) is error
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * (1 if case == "parse-error" else 2)


def test_an_unknown_format_reads_nothing(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the file was read")

    monkeypatch.setattr(distributions, "read_text", refuse)
    monkeypatch.setattr(distributions, "read_object", refuse)
    with pytest.raises(ParseError, match="unknown distribution format 'csv'"):
        load_joint(tmp_path / "absent.csv", "csv")
