"""The pmf column reader against the document route it stands in for.

``fileio.pmf_columns`` reads a distribution file's rows as columns when
the file is in the layout of one of the two writers, ``fileio.render``
(``save_joint``) and ``json.dumps(doc) + "\\n"``; every other file, and
every file whose table is refused, goes through ``read_object`` and the
entry walk.  Whatever route a file takes, ``load_joint`` must give what
the document route gives: the same error class and message, or the same
digest, alphabets and items in the same order.
"""

import itertools
import json
import os
import threading

import pytest
from hypothesis import given

from pidlattice import ParseError, load_joint, random_joint, save_joint
from pidlattice import distributions, fileio
from test_load_route import SETTINGS, json_documents, outcome, reference_json_file

WRITERS = {"render": fileio.render, "dumps": lambda doc: json.dumps(doc) + "\n"}


def assert_same_outcome(path, data: bytes):
    path.write_bytes(data)
    assert outcome(lambda: load_joint(path)) == outcome(lambda: reference_json_file(path))


@pytest.mark.parametrize("writer", WRITERS)
@SETTINGS
@given(doc=json_documents())
def test_every_drawn_document_loads_as_the_document_route_loads_it(tmp_path, writer, doc):
    assert_same_outcome(tmp_path / "d.json", WRITERS[writer](doc).encode())


# ------------------------------------------------------------- mutations

MASS = 0.25  # the mass of the first and the last row, each written once in its row


def canonical_doc() -> dict:
    """Three sources and a binary target, states over {0, 1}; the first source has 4000 symbols.

    The wide alphabet lets a misread symbol stay in range, where a check
    the reader skipped would show as a table the document route refuses.
    """
    states = list(map(list, itertools.product(range(2), repeat=4)))
    masses = [MASS] + [(1 - 2 * MASS) / 14] * 14 + [MASS]
    entries = [{"state": s, "p": p} for s, p in zip(states, masses)]
    return {"n_sources": 3, "source_alphabets": [4000, 2, 2], "target_alphabet": 2, "pmf": entries}


def in_row(edit):
    """``edit`` applied to the text from a row's ``"state"`` key on, for the row at ``at``."""
    def mutate(text: str, at: int) -> str:
        return text[:at] + edit(text[at:])
    return mutate


def replace(old: str, new: str):
    def edit(text: str) -> str:
        assert old in text
        return text.replace(old, new, 1)
    return in_row(edit)


def first_digit(text: str) -> int:
    """Where the row's first symbol, a single digit, is."""
    colon = text.index(":")
    return colon + next(i for i, c in enumerate(text[colon:]) if c.isdigit())


def first_symbol(new):
    """``new(symbol)`` in place of the row's first symbol."""
    def edit(text: str) -> str:
        at = first_digit(text)
        return text[:at] + new(text[at]) + text[at + 1 :]
    return in_row(edit)


def moved_before_colon(edit_at):
    """The run ``edit_at(text)`` places and measures, moved to just before the colon before it."""
    def edit(text: str) -> str:
        at, length = edit_at(text)
        to = text.rindex(":", 0, at)
        return text[:to] + text[at : at + length] + text[to:at] + text[at + length :]
    return in_row(edit)


def space_moved_before_comma(text: str) -> str:
    comma = text.index(",")
    space = text.index(" ", comma)
    return text[:comma] + " " + text[comma:space] + text[space + 1 :]


def space_moved_across_symbol(text: str) -> str:
    """``, 0,`` becomes ``,0 ,`` in the row's state: the bytes other than digits keep their order."""
    comma = text.index(",")
    symbol = comma + next(i for i, c in enumerate(text[comma:]) if c.isdigit())
    before = text[comma + 1 : symbol].replace(" ", "", 1)
    return text[: comma + 1] + before + text[symbol] + " " + text[symbol + 1 :]


ROW_MUTATIONS = {
    "as-written": in_row(lambda text: text),
    "space-moved-before-comma": in_row(space_moved_before_comma),
    "space-moved-across-symbol": in_row(space_moved_across_symbol),
    "key-run-moved-in-key": replace('"state"', '"staet"'),
    "key-run-moved-out-of-key": replace('"state"', '"stat"e'),
    "symbol-moved-before-colon": moved_before_colon(lambda text: (first_digit(text), 1)),
    "mass-moved-before-colon": moved_before_colon(lambda text: (text.index(str(MASS)), len(str(MASS)))),
    "symbol-leading-zero": first_symbol(lambda s: "0" + s),
    "symbol-1.0": first_symbol(lambda s: "1.0"),
    "symbol--1": first_symbol(lambda s: "-1"),
    "symbol-+1": first_symbol(lambda s: "+1"),
    "symbol-1e0": first_symbol(lambda s: "1e0"),
    "symbol-19-digits": first_symbol(lambda s: "1" * 19),
    "symbol-18-digits": first_symbol(lambda s: "1" * 18),
    "symbol-2**64+1": first_symbol(lambda s: str(2**64 + 1)),
    "symbol-in-range": first_symbol(lambda s: "3999"),
    "p-renamed": replace('"p"', '"q"'),
    "state-renamed": replace('"state"', '"stat5"'),
    "state-non-ascii": replace('"state"', '"stäte"'),
    "mass-NaN": replace(str(MASS), "NaN"),
    "mass-1.": replace(str(MASS), "1."),
    "mass-.5": replace(str(MASS), ".5"),
    "mass-+1": replace(str(MASS), "+1"),
    "mass-1e400": replace(str(MASS), "1e400"),
    "mass-int": replace(str(MASS), "0"),
    "mass-exponent": replace(str(MASS), "25E-2"),
    "mass-4301-digits": replace(str(MASS), "1" * 4301),
    "mass-beyond-float": replace(str(MASS), "1" * 400),
    "mass-1-2": replace(str(MASS), "1-2"),
    "non-utf8-byte": replace('"p"', '"\udcff"'),
}


def second_pmf_key(first: bool):
    def mutate(text: str) -> str:
        if first:
            return text.replace("{", '{"pmf": [], ', 1)
        end = text.rindex("}")
        return text[:end] + ', "pmf": []' + text[end:]
    return mutate


def dangling_row(text: str) -> str:
    """A row separator, and so the opening of a row, right before the writer's closing bytes."""
    layout = next(layout for layout in fileio._layouts() if text.endswith(layout.closing.decode()))
    end = len(text) - len(layout.closing)
    return text[:end] + layout.row.decode() + text[end:]


def doc_pmf_not_last(doc: dict) -> dict:
    return {key: doc[key] for key in ("n_sources", "source_alphabets", "pmf", "target_alphabet")}


def doc_duplicate_state(doc: dict) -> dict:
    doc["pmf"][1]["state"] = list(doc["pmf"][0]["state"])
    return doc


def doc_masses_off(doc: dict) -> dict:
    doc["pmf"][0]["p"] = 0.3
    return doc


FILE_MUTATIONS = {
    "utf8-bom": lambda text: "\ufeff" + text,
    "non-utf8-byte-in-header": lambda text: text.replace('"n_sources"', '"n_\udcffources"', 1),
    "non-ascii-header": lambda text: text.replace("{", '{"ñ": "é", ', 1),
    "second-pmf-first": second_pmf_key(first=True),
    "second-pmf-last": second_pmf_key(first=False),
    "no-trailing-newline": lambda text: text[:-1],
    "two-trailing-newlines": lambda text: text + "\n",
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "dangling-row": dangling_row,
}
def doc_without(field: str):
    def mutate(doc: dict) -> dict:
        del doc[field]
        return doc
    return mutate


def doc_with(**fields):
    return lambda doc: {**doc, **fields}


DOC_MUTATIONS = {
    "target-alphabet-missing": doc_without("target_alphabet"),
    "n-sources-bool": doc_with(n_sources=True),
    "one-source-fewer": doc_with(n_sources=2, source_alphabets=[4000, 2]),
    "alphabet-zero": doc_with(source_alphabets=[4000, 0, 2]),
    "pmf-not-last": doc_pmf_not_last,
    "duplicate-state": doc_duplicate_state,
    "masses-off": doc_masses_off,
}


def written(text: str) -> bytes:
    """The file's bytes; a lone surrogate stands for a byte that is not UTF-8."""
    return text.encode("utf-8", "surrogateescape")


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("row", ["first", "last"])
@pytest.mark.parametrize("mutation", ROW_MUTATIONS)
def test_a_row_mutated_loads_as_the_document_route_loads_it(tmp_path, writer, row, mutation):
    text = WRITERS[writer](canonical_doc())
    at = text.index('"state"') if row == "first" else text.rindex('"state"')
    assert_same_outcome(tmp_path / "d.json", written(ROW_MUTATIONS[mutation](text, at)))


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("mutation", [*FILE_MUTATIONS, *DOC_MUTATIONS])
def test_a_file_mutated_loads_as_the_document_route_loads_it(tmp_path, writer, mutation):
    doc = DOC_MUTATIONS.get(mutation, lambda doc: doc)(canonical_doc())
    text = FILE_MUTATIONS.get(mutation, lambda text: text)(WRITERS[writer](doc))
    assert_same_outcome(tmp_path / "d.json", written(text))


@pytest.mark.parametrize("writer", WRITERS)
def test_a_duplicate_state_is_the_entry_walks_parse_error(tmp_path, writer):
    path = tmp_path / "d.json"
    doc = {"n_sources": 1, "source_alphabets": [2], "target_alphabet": 2, "pmf": [
        {"state": [0, 0], "p": 0.5}, {"state": [0, 0], "p": 0.5}]}
    path.write_text(WRITERS[writer](doc))
    with pytest.raises(ParseError) as caught:
        load_joint(path)
    assert type(caught.value) is ParseError and str(caught.value) == "duplicate state [0, 0]"


# ----------------------------------------------------------- mass shapes

TAKEN_MASSES = {"1": [1, 0.0], "1.0": [1.0, 0.0], "0.0001": [0.0001, 0.9999], "1e-05": [1e-05, 0.99999]}
REFUSED_MASSES = {  # text: (the masses written, the first mass as written, which text replaces)
    "0.50": ([0.5, 0.5], "0.5"),
    "5E-1": ([0.5, 0.5], "0.5"),
    "5e-01": ([0.5, 0.5], "0.5"),
    "1e+0": ([1.0, 0.0], "1.0"),
    "-0.0": ([1.0, 0.0], "0.0"),
    "05": ([0.5, 0.5], "0.5"),
}


def two_rows(masses: list) -> dict:
    entries = [{"state": [0, symbol], "p": p} for symbol, p in enumerate(masses)]
    return {"n_sources": 1, "source_alphabets": [1], "target_alphabet": 2, "pmf": entries}


def assert_route(tmp_path, monkeypatch, data: bytes, columns: bool):
    """The same outcome as the document route's, with the document route entered only if not ``columns``."""
    path = tmp_path / "d.json"
    path.write_bytes(data)
    entered = []

    def spy(*args):
        entered.append(args[0])
        return fileio.read_object(*args)

    with monkeypatch.context() as patch:
        patch.setattr(distributions, "read_object", spy)
        loaded = outcome(lambda: load_joint(path))
    assert loaded == outcome(lambda: reference_json_file(path))
    assert entered == ([] if columns else [path])


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("mass", TAKEN_MASSES)
def test_a_mass_in_a_repr_shape_is_read_as_a_column(tmp_path, monkeypatch, writer, mass):
    text = WRITERS[writer](two_rows(TAKEN_MASSES[mass]))
    assert f": {mass}," in text or f": {mass}\n" in text or f": {mass}}}" in text
    assert_route(tmp_path, monkeypatch, text.encode(), columns=True)


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("mass", REFUSED_MASSES)
def test_a_mass_in_another_shape_takes_the_document_route(tmp_path, monkeypatch, writer, mass):
    masses, written_as = REFUSED_MASSES[mass]
    text = WRITERS[writer](two_rows(masses))
    assert written_as in text
    assert_route(tmp_path, monkeypatch, text.replace(written_as, mass, 1).encode(), columns=False)


# ------------------------------------------------------------ round trips

SHAPES = {
    1: [(2,), (3,), (17,)],
    2: [(2, 2), (3, 4), (1, 12)],
    3: [(2, 2, 2), (3, 2, 4), (11, 1, 3)],
    4: [(2, 2, 2, 2), (3, 2, 2, 3)],
}
ROUND_TRIPS = [
    (n, shape, target) for n, shapes in SHAPES.items() for shape in shapes for target in (2, 3, 11)
]


def assert_round_trip(tmp_path, dist, writer):
    path = tmp_path / "d.json"
    if writer == "render":
        save_joint(dist, path)
    else:
        path.write_text(benchmark_shaped_text(dist))
    loaded, reference = outcome(lambda: load_joint(path)), outcome(lambda: reference_json_file(path))
    assert loaded == reference
    assert loaded[0] == dist.digest()


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("n, shape, target", ROUND_TRIPS)
def test_random_tables_round_trip_through_both_writers(tmp_path, writer, n, shape, target):
    assert_round_trip(tmp_path, random_joint(n, 7 * n + target, shape, target), writer)


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("seed", range(4))
def test_seeded_five_source_tables_round_trip_through_both_writers(tmp_path, writer, seed):
    assert_round_trip(tmp_path, random_joint(5, seed), writer)


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("chunk", [1, 300], ids=["a-row-a-piece", "rows-a-piece"])
def test_a_file_read_in_many_pieces_is_pinned_at_every_cut(tmp_path, monkeypatch, writer, chunk):
    monkeypatch.setattr(fileio, "_CHUNK_BYTES", chunk)
    assert_round_trip(tmp_path, random_joint(3, 9, (4, 3, 5), 6), writer)
    text = WRITERS[writer](canonical_doc())
    assert_same_outcome(tmp_path / "d.json", written(dangling_row(text)))
    middle = [at for at in range(len(text)) if text.startswith('"state"', at)][8]
    for mutate in ROW_MUTATIONS.values():
        assert_same_outcome(tmp_path / "d.json", written(mutate(text, middle)))


# ----------------------------------------------------------- which route

def refuse(*args):
    raise AssertionError("the document route was entered")


def benchmark_shaped_text(dist) -> str:
    """A file as the benchmark's inputs write it: ``json.dumps(doc) + "\\n"``."""
    entries = [{"state": s, "p": p} for s, p in zip(dist.pmf.states.tolist(), dist.pmf.masses.tolist())]
    doc = {"n_sources": dist.n, "source_alphabets": list(dist.source_alphabets),
           "target_alphabet": dist.target_alphabet, "pmf": entries}
    return json.dumps(doc) + "\n"


def test_the_writers_files_are_read_as_columns(tmp_path, monkeypatch):
    dist = random_joint(3, 2, (4, 4, 4), 4)
    (tmp_path / "bench.json").write_text(benchmark_shaped_text(dist), encoding="utf-8")
    save_joint(dist, tmp_path / "saved.json")
    monkeypatch.setattr(distributions, "read_object", refuse)
    monkeypatch.setattr(distributions, "_columns", refuse)
    parsed, loads = [], json.loads

    def spy(text, *args, **kwargs):
        parsed.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    for name in ("bench.json", "saved.json"):
        loaded = load_joint(tmp_path / name)
        assert loaded.digest() == dist.digest()
        assert list(loaded.pmf.items()) == list(dist.pmf.items())
        # json parses the header alone; the kernel reads the masses
        assert len(parsed) == 1 and loads(parsed.pop())["pmf"] == []


README_EXAMPLE = """{
  "n_sources": 2,
  "source_alphabets": [2, 2],
  "target_alphabet": 2,
  "pmf": [
    {"state": [0, 0, 0], "p": 0.25},
    {"state": [0, 1, 1], "p": 0.25},
    {"state": [1, 0, 1], "p": 0.25},
    {"state": [1, 1, 0], "p": 0.25}
  ]
}
"""


def test_other_layouts_take_the_document_route_to_the_same_table(tmp_path, monkeypatch):
    doc = json.loads(README_EXAMPLE)
    texts = {"readme.json": README_EXAMPLE, "indent4.json": json.dumps(doc, indent=4) + "\n"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    save_joint(load_joint(tmp_path / "readme.json"), tmp_path / "saved.json")
    expected = outcome(lambda: load_joint(tmp_path / "saved.json"))
    reads = []

    def spy(*args):
        reads.append(args[0])
        return fileio.read_object(*args)

    monkeypatch.setattr(distributions, "read_object", spy)
    for name in texts:
        assert outcome(lambda: load_joint(tmp_path / name)) == expected
    assert reads == [tmp_path / name for name in texts]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_is_read_once(tmp_path):
    reading, writing = os.pipe()
    os.write(writing, README_EXAMPLE.encode())
    os.close(writing)
    try:
        loaded = outcome(lambda: load_joint(f"/dev/fd/{reading}"))
    finally:
        os.close(reading)
    (tmp_path / "readme.json").write_text(README_EXAMPLE)
    assert loaded == outcome(lambda: load_joint(tmp_path / "readme.json"))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_named_pipe_is_opened_once(tmp_path):
    """A second open of a FIFO would wait for a writer that has gone, its text lost."""
    fifo = tmp_path / "d.json"
    os.mkfifo(fifo)
    threading.Thread(target=fifo.write_text, args=(README_EXAMPLE,), daemon=True).start()
    loaded = threading.Event()

    def unblock():  # a reader still waiting for a writer after 10 s reads an empty file instead
        if not loaded.wait(10):
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))

    threading.Thread(target=unblock, daemon=True).start()
    try:
        got = outcome(lambda: load_joint(fifo))
    finally:
        loaded.set()
    (tmp_path / "readme.json").write_text(README_EXAMPLE)
    assert got == outcome(lambda: load_joint(tmp_path / "readme.json"))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_the_column_reader_opens_no_file_that_is_not_regular(tmp_path, monkeypatch):
    """No writer and no timer: an open of a FIFO or a directory fails the test at once."""
    fifo, folder = tmp_path / "d.json", tmp_path / "folder.json"
    os.mkfifo(fifo)
    folder.mkdir()
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(path)
        raise AssertionError(f"pmf_columns opened {path}")

    monkeypatch.setattr(fileio, "open", spy, raising=False)
    for path in (fifo, folder):
        assert fileio.pmf_columns(path, distributions._FIELDS) is None
    assert opened == []


# ------------------------------------------------------------- run count

KEYED_RUNS = {  # a number byte inside a key: the bytes besides runs stay the layout's, one run more
    "later-row": ('"state"', '"s1tate"', None),
    # a digit inside "state" breaks the row separator the cut is found at, so it goes in the "p" key
    "first-row-after-a-cut": ('"p"', '"p1"', 1),
}


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("place", KEYED_RUNS)
def test_a_row_with_one_run_too_many_is_refused_as_the_document_route_refuses_it(
    tmp_path, monkeypatch, writer, place
):
    old, new, chunk = KEYED_RUNS[place]
    if chunk:
        monkeypatch.setattr(fileio, "_CHUNK_BYTES", chunk)
    text = WRITERS[writer](canonical_doc())
    at = [at for at in range(len(text)) if text.startswith(old, at)][8]
    path = tmp_path / "d.json"
    path.write_text(text[:at] + new + text[at + len(old) :])
    assert fileio.pmf_columns(path, distributions._FIELDS) is None
    with pytest.raises(ParseError) as caught:
        load_joint(path)
    assert (type(caught.value), str(caught.value)) == outcome(lambda: reference_json_file(path))
    assert str(caught.value).startswith("bad pmf entry")


# ------------------------------------------------------------ key-run length

@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("row", [0, 8])
@pytest.mark.parametrize("chunk", [None, 1], ids=["one-piece", "a-row-a-piece"])
@pytest.mark.parametrize("key", ['"state1"', '"statee"'], ids=["digit-after", "e-after"])
def test_a_key_run_longer_than_the_layouts_is_refused_as_the_document_route_refuses_it(
    tmp_path, monkeypatch, writer, row, chunk, key
):
    """A number byte after the key run's ``e`` keeps the skeleton, the run count and every gap."""
    if chunk:
        monkeypatch.setattr(fileio, "_CHUNK_BYTES", chunk)
    text = WRITERS[writer](canonical_doc())
    at = [at for at in range(len(text)) if text.startswith('"state"', at)][row]
    path = tmp_path / "d.json"
    path.write_text(text[:at] + key + text[at + len('"state"') :])
    assert fileio.pmf_columns(path, distributions._FIELDS) is None
    with pytest.raises(ParseError) as caught:
        load_joint(path)
    assert (type(caught.value), str(caught.value)) == outcome(lambda: reference_json_file(path))
    assert str(caught.value).startswith("bad pmf entry")


@pytest.mark.parametrize("writer", WRITERS)
def test_rows_without_a_mass_leave_the_reader_before_its_first_row(tmp_path, monkeypatch, writer):
    """No mass follows a state, so the reader finds no row to read and the entry walk refuses the row."""
    doc = {"n_sources": 1, "source_alphabets": [1], "target_alphabet": 1, "pmf": [{"state": [0, 0], "p": 1}]}
    path = tmp_path / "d.json"
    path.write_text(WRITERS[writer](doc))
    assert fileio.pmf_columns(path, distributions._FIELDS) is not None  # the file's layout is a writer's
    del doc["pmf"][0]["p"]
    path.write_text(WRITERS[writer](doc))
    def no_rows(*args):
        raise AssertionError("a row was read")

    monkeypatch.setattr(fileio, "_pmf_rows", no_rows)
    assert fileio.pmf_columns(path, distributions._FIELDS) is None
    with pytest.raises(ParseError) as caught:
        load_joint(path)
    assert str(caught.value) == "bad pmf entry {'state': [0, 0]}"
    assert outcome(lambda: load_joint(path)) == outcome(lambda: reference_json_file(path))
