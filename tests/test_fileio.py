"""The file format's one reader and writer: unreadable files give typed errors.

Each defect class below is tried on every loader whose format can carry
it.  Before the loaders shared one reader, each of these inputs escaped
as a bare UnicodeDecodeError, RecursionError, ValueError or OverflowError.
"""

import functools
import json
import os

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
