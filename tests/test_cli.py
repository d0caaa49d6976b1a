"""CLI behavior: golden outputs, exit codes, error reporting."""

import json
import subprocess
import sys

import pytest

from helpers import DATA_DIR, GOLDEN_CASES, GOLDEN_DIR, MALFORMED_JSON_DISTRIBUTIONS
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
