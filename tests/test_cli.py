"""CLI behavior: golden outputs, exit codes, error reporting."""

import json
import math
import subprocess
import sys

import pytest

from helpers import (
    DATA_DIR,
    GOLDEN_CASES,
    GOLDEN_DIR,
    MALFORMED_JSON_DISTRIBUTIONS,
    unreadable_files,
)
from pidlattice import BaseConcept, cli, decompose, derived_measure_table, random_joint
from pidlattice.cli import main

XOR_JSON = str(DATA_DIR / "xor.json")
XOR_TSV = str(DATA_DIR / "xor.tsv")


def run_to_file(tmp_path, argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("golden,argv", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_golden_outputs(tmp_path, golden, argv):
    code, body = run_to_file(tmp_path, argv)
    assert code == 0
    assert body == (GOLDEN_DIR / golden).read_bytes()


def test_domains_json_lists_the_table_labels(tmp_path):
    code, body = run_to_file(tmp_path, ["domains", "--n", "2", "--concept", "weak-synergy"])
    assert code == 0
    table = (GOLDEN_DIR / "domains_weak_synergy_n2.txt").read_text().splitlines()
    assert body.decode() == json.dumps(table, indent=2) + "\n"


def test_rank_table_lists_the_json_fields(tmp_path):
    code, body = run_to_file(tmp_path, ["rank", "--n", "3", "--table"])
    assert code == 0
    fields = json.loads((GOLDEN_DIR / "rank_n3.json").read_text())
    assert body.decode() == "".join(f"{k}={v}\n" for k, v in fields.items())


def test_stdout_matches_out_file(tmp_path, capsys):
    argv = ["rank", "--n", "2"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    _, body = run_to_file(tmp_path, argv)
    assert stdout.encode() == body


def test_out_file_silences_stdout(tmp_path, capsys):
    code, _ = run_to_file(tmp_path, ["rank", "--n", "2"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_tsv_input_matches_json_input(tmp_path):
    _, from_json = run_to_file(
        tmp_path, ["decompose", "--input", XOR_JSON, "--concept", "redundancy"]
    )
    _, from_tsv = run_to_file(
        tmp_path,
        ["decompose", "--input", XOR_TSV, "--format", "tsv", "--concept", "redundancy"],
    )
    assert from_tsv == from_json


def test_random_input_is_deterministic(tmp_path):
    argv = ["decompose", "--input", "random", "--concept", "redundancy", "--n", "2", "--seed", "7"]
    _, first = run_to_file(tmp_path, argv)
    _, second = run_to_file(tmp_path, argv)
    assert first == second
    _, other_seed = run_to_file(tmp_path, [*argv[:-1], "8"])
    assert other_seed != first


def test_table_at_five_sources_is_the_derived_measure_table(tmp_path, monkeypatch):
    forward = cli._forward
    calls = []

    def counted(*args):
        calls.append(args)
        return forward(*args)

    monkeypatch.setattr(cli, "_forward", counted)
    argv = ["decompose", "--input", "random", "--n", "5", "--seed", "3", "--concept", "union-partner", "--table"]
    code, body = run_to_file(tmp_path, argv)
    assert code == 0
    assert len(calls) == 1
    tables = json.loads(body)["derived_measures"]
    expected = {c.tag: [] for c in BaseConcept}
    result = decompose(random_joint(5, 3), BaseConcept.UNION_PARTNER)
    for (concept, alpha), value in derived_measure_table(result).items():
        expected[concept.tag].append((alpha.label(), value))
    assert list(tables) == list(expected)
    for tag, items in expected.items():
        assert list(tables[tag].items()) == items, tag


def test_module_entry_point_runs():
    argv = [sys.executable, "-m", "pidlattice.cli", "rank", "--n", "2"]
    proc = subprocess.run(argv, capture_output=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "n": 2,
        "unknowns": 4,
        "consistency_rank": 3,
        "combined_rank": 4,
        "novel_constraints": 1,
        "deficit": 0,
    }


# ----------------------------------------------------------------- failures

def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--input", XOR_JSON, "--concept", "mystery"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_random_input_requires_n(capsys):
    assert main(["decompose", "--input", "random", "--concept", "redundancy"]) == 2
    assert "error: --input random needs --n" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["9", "0"])
def test_a_bad_source_count_gets_one_message(capsys, n):
    for argv in (
        ["decompose", "--input", "random", "--concept", "redundancy"],
        ["lattice", "--concept", "redundancy"],
        ["domains", "--concept", "redundancy"],
        ["rank"],
    ):
        assert main([*argv, "--n", n]) == 1
        assert capsys.readouterr().err == f"error: need 1..5 sources, got {n}\n"


def test_lattice_refuses_unique(capsys):
    assert main(["lattice", "--n", "2", "--concept", "unique"]) == 2
    assert "not nested" in capsys.readouterr().err


def test_missing_input_file_exits_1(capsys):
    assert main(["decompose", "--input", "no/such/file.json", "--concept", "redundancy"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_measure_concept_mismatch_exits_1(tmp_path, capsys):
    from pidlattice import BaseConcept, reference_measure, save_measure
    from helpers import xor_distribution

    measure_path = tmp_path / "union.json"
    save_measure(reference_measure(xor_distribution(), BaseConcept.UNION), measure_path)
    code = main(
        [
            "decompose",
            "--input",
            XOR_JSON,
            "--concept",
            "redundancy",
            "--measure",
            str(measure_path),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "measure is for 'union'" in err


# -------------------------------------------------------------------- check

def test_check_round_trip(tmp_path, capsys):
    result_path = tmp_path / "result.json"
    assert main(
        ["decompose", "--input", XOR_JSON, "--concept", "redundancy", "--out", str(result_path)]
    ) == 0
    assert main(["check", "--input", str(result_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["consistency"]["passed"] is True
    assert doc["inclusion_exclusion"]["passed"] is True
    assert doc["inclusion_exclusion"]["checked"] == 4


def test_check_flags_corrupt_values(tmp_path, capsys):
    result_path = tmp_path / "result.json"
    main(["decompose", "--input", XOR_JSON, "--concept", "redundancy", "--out", str(result_path)])
    doc = json.loads(result_path.read_text())
    doc["atoms"][0]["value"] += 0.5
    result_path.write_text(json.dumps(doc))
    assert main(["check", "--input", str(result_path)]) == 1
    captured = capsys.readouterr()
    assert "error: result file fails its summation identities" in captured.err
    assert json.loads(captured.out)["consistency"]["passed"] is False


def test_check_flags_bad_pairing(tmp_path, capsys):
    result_path = tmp_path / "result.json"
    main(["decompose", "--input", XOR_JSON, "--concept", "redundancy", "--out", str(result_path)])
    doc = json.loads(result_path.read_text())
    doc["atoms"][0]["alpha_tilde"] = doc["atoms"][1]["alpha_tilde"]
    result_path.write_text(json.dumps(doc))
    assert main(["check", "--input", str(result_path)]) == 1
    assert "pairs with" in capsys.readouterr().err


def test_check_skips_inclusion_exclusion_above_n3(tmp_path, capsys):
    result_path = tmp_path / "result.json"
    main(
        [
            "decompose",
            "--input",
            "random",
            "--n",
            "4",
            "--seed",
            "3",
            "--concept",
            "redundancy",
            "--out",
            str(result_path),
        ]
    )
    assert main(["check", "--input", str(result_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["inclusion_exclusion"] == {"skipped": "n=4 > 3"}


@pytest.mark.parametrize("slot", ["atom", "mi"])
def test_check_fails_on_nan_exit_1(tmp_path, capsys, slot):
    result_path = tmp_path / "result.json"
    argv = ["--input", "random", "--n", "4", "--seed", "3", "--concept", "redundancy"]
    assert main(["decompose", *argv, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text())
    if slot == "atom":
        doc["atoms"][5]["value"] = float("nan")
    else:
        doc["mi"]["{1,3}"] = float("nan")
    result_path.write_text(json.dumps(doc))
    assert main(["check", "--input", str(result_path)]) == 1
    captured = capsys.readouterr()
    assert "error: result file fails its summation identities" in captured.err
    assert json.loads(captured.out)["consistency"]["passed"] is False


def test_check_shows_a_nan_inclusion_exclusion_error(tmp_path, capsys):
    result_path = tmp_path / "result.json"
    argv = ["--input", "random", "--n", "3", "--seed", "3", "--concept", "redundancy"]
    assert main(["decompose", *argv, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text())
    doc["atoms"][5]["value"] = float("nan")
    result_path.write_text(json.dumps(doc))
    assert main(["check", "--input", str(result_path)]) == 1
    block = json.loads(capsys.readouterr().out)["inclusion_exclusion"]
    assert block["passed"] is False
    assert math.isnan(block["worst_error"])


@pytest.mark.parametrize(
    "mass,state",
    [("NaN", [0, 0, 0]), ('"0.5"', [0, 0, 0]), ("true", [0, 0, 0]), ("0.5", ["true", 0, 0])],
    ids=["nan-mass", "string-mass", "bool-mass", "bool-symbol"],
)
def test_decompose_rejects_non_numbers_exit_1(tmp_path, capsys, mass, state):
    first = "[" + ", ".join(str(x) for x in state) + "]"
    path = tmp_path / "bad.json"
    path.write_text(
        '{"n_sources": 2, "source_alphabets": [2, 2], "target_alphabet": 2, "pmf": ['
        f'{{"state": {first}, "p": {mass}}}, {{"state": [1, 1, 1], "p": 0.5}}]}}'
    )
    assert main(["decompose", "--input", str(path), "--concept", "redundancy"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "name, text",
    [
        *MALFORMED_JSON_DISTRIBUTIONS.items(),
        ("header-only-tsv", "s1\tt\tp\n"),
    ],
    ids=[*MALFORMED_JSON_DISTRIBUTIONS, "header-only-tsv"],
)
def test_decompose_rejects_malformed_distribution_exit_1(tmp_path, capsys, name, text):
    fmt = "tsv" if name.endswith("tsv") else "json"
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text)
    argv = ["decompose", "--input", str(path), "--format", fmt, "--concept", "redundancy"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_decompose_rejects_nan_tsv_mass_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("s1\tt\tp\n0\t0\tnan\n1\t1\t0.3\n")
    assert main(["decompose", "--input", str(path), "--format", "tsv", "--concept", "union"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc["atoms"][0].pop("value"),
        lambda doc: doc.update(atoms=[1, 2]),
    ],
    ids=["row-without-value", "non-object-rows"],
)
def test_check_rejects_malformed_result_exit_1(tmp_path, capsys, mutate):
    result_path = tmp_path / "result.json"
    main(["decompose", "--input", XOR_JSON, "--concept", "redundancy", "--out", str(result_path)])
    doc = json.loads(result_path.read_text())
    mutate(doc)
    result_path.write_text(json.dumps(doc))
    assert main(["check", "--input", str(result_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


UNREADABLE_CASES = [
    (f"{defect}-{case}", kind, data)
    for defect, cases in unreadable_files().items()
    for case, (kind, data) in cases.items()
]


@pytest.mark.parametrize(
    "kind,data", [c[1:] for c in UNREADABLE_CASES], ids=[c[0] for c in UNREADABLE_CASES]
)
def test_unreadable_file_exits_1(tmp_path, capsys, kind, data):
    path = tmp_path / "file"
    path.write_bytes(data)
    argv = {
        "distribution": ["decompose", "--input", str(path), "--concept", "redundancy"],
        "tsv": ["decompose", "--input", str(path), "--format", "tsv", "--concept", "redundancy"],
        "measure": [
            "decompose", "--input", XOR_JSON, "--concept", "redundancy", "--measure", str(path),
        ],
        "result": ["check", "--input", str(path)],
    }[kind]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "field,value",
    [("concept", 5), ("measure", [1]), ("distribution_digest", {"a": 1})],
)
def test_check_rejects_unchecked_metadata_exit_1(tmp_path, capsys, field, value):
    result_path = tmp_path / "result.json"
    main(["decompose", "--input", XOR_JSON, "--concept", "redundancy", "--out", str(result_path)])
    doc = json.loads(result_path.read_text())
    doc[field] = value
    result_path.write_text(json.dumps(doc))
    assert main(["check", "--input", str(result_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
