"""pidlattice benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload n5-roundtrip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the repository root; the package is imported from ``src``.
Inputs are written from the seed into ``.perfbench_work/`` before anything
is timed.  With ``--trace 0`` seven fresh worker processes time set-up and
the middle one runs the timed window; the end-to-end metrics follow.
With ``--trace 1`` one worker runs every op twice, untraced and as spanned
public steps, and the CLI is timed as whole processes; the per-layer
metrics follow.  Every op's output is checked.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit status is 0 when every check passed.  ``--workload all`` runs each
workload in turn and prints every block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS/OpenMP pools before numpy loads; workers inherit the same environment.
THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_PINS)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import metrics  # noqa: E402
from workloads import CONCEPTS, N4_DOT_SHA256, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7  # fresh processes timed per untraced run; the middle one runs the window
CLI_SAMPLES = 3  # CLI op-equivalents per traced run
CLI_IMPORT_SAMPLES = 5
TIME_BUDGET_S = 170.0  # a run gives up after this long
HASH_SEED = "0"  # workers hash strings alike in every run


class BenchError(Exception):
    """A run that cannot produce a result (missing tree, crashed worker, timeout)."""


class Runner:
    """Starts and times subprocesses from the repository root, within the run's budget."""

    def __init__(self, root: Path):
        self.root = root
        self.deadline = time.monotonic() + TIME_BUDGET_S
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.env["PYTHONHASHSEED"] = HASH_SEED

    def run(self, args: list[str]) -> tuple[float, str]:
        """Run ``python3 <args>``; return its wall time and stdout."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget spent")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *args], cwd=self.root, env=self.env, capture_output=True,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {' '.join(args[:4])}") from None
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(args[:4])} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
        return seconds, proc.stdout

    def worker(self, *args) -> dict:
        _, out = self.run([str(HERE / "worker.py"), *map(str, args)])
        return json.loads(out.strip().splitlines()[-1])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_ops(runner: Runner, workload: str, manifest: dict, work: Path, record: dict):
    """Time CLI processes doing op k's work for k < CLI_SAMPLES; check their output.

    A decomposing op is one ``decompose`` call on op k's file and concept,
    compared byte for byte with the in-process export of op k.  An
    n4-lattice op is eight ``lattice`` calls, checked against the recorded DOT.
    """
    samples, failures = [], []
    cli = ["-m", "pidlattice.cli"]
    for k in range(CLI_SAMPLES):
        bad = []
        if workload == "n4-lattice":
            orders = manifest["orders"]
            total = 0.0
            for tag in orders[k % len(orders)]:
                seconds, out = runner.run([*cli, "lattice", "--n", "4", "--concept", tag])
                total += seconds
                if _sha(out) != N4_DOT_SHA256[tag]:
                    bad.append(f"{tag} DOT differs from the recorded output")
            samples.append(total)
        else:
            files = manifest["files"]
            path = work / files[k % len(files)]["path"]
            concept = CONCEPTS[k % len(CONCEPTS)]
            seconds, out = runner.run([*cli, "decompose", "--input", str(path), "--concept", concept])
            samples.append(seconds)
            if [_sha(out)] != record["ops"][k].get("sha256"):
                bad.append("decompose output differs from the in-process export")
        if bad:
            failures.append(f"cli op {k}: " + "; ".join(bad))
    return samples, failures


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "pythonhashseed": HASH_SEED,
        "loadavg_start": list(os.getloadavg()),
    }


def bench(workload: str, seed: int, seconds: int, trace: bool, root: Path):
    """One run: generate inputs, run the workers, check, and compute metrics."""
    if not (root / "src" / "pidlattice" / "__init__.py").is_file():
        raise BenchError(f"no pidlattice source under {root / 'src'}; run from the repository root")
    runner = Runner(root)
    env = environment()
    work = root / ".perfbench_work" / f"{workload}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    manifest = inputs.generate(workload, seed, work)

    if trace:
        record = runner.worker("run", workload, work, seconds, 1)
        cli_import = [
            runner.run(["-c", "import pidlattice"])[0] for _ in range(CLI_IMPORT_SAMPLES)
        ]
        cli_process, cli_failures = cli_ops(runner, workload, manifest, work, record)
        trace_doc = json.loads((work / "spans.json").read_text(encoding="utf-8"))
        values = metrics.per_layer(
            record, trace_doc["spans"], trace_doc["counts"], cli_import, cli_process
        )
        units = metrics.per_layer_units()
        setup_samples = [record["setup_s"]]
    else:
        # Half the set-up samples come after the window, so they do not all
        # fall in one spell of a busy or idle host.
        before = (SETUP_SAMPLES - 1) // 2
        setup_samples = [runner.worker("setup", workload)["setup_s"] for _ in range(before)]
        record = runner.worker("run", workload, work, seconds, 0)
        setup_samples.append(record["setup_s"])
        setup_samples += [
            runner.worker("setup", workload)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1 - before)
        ]
        values = metrics.end_to_end(setup_samples, record)
        units = dict(metrics.END_TO_END)
        cli_process, cli_failures = [], []

    failures = [f"op {op['op']}: {msg}" for op in record["ops"] for msg in op["failures"]]
    failures += cli_failures
    attempted, failed = metrics.tally(record["ops"], len(cli_process), cli_failures)
    env["loadavg_end"] = list(os.getloadavg())
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": env,
        "caches": {
            "per_n_lru": "cold at set-up (every worker is a fresh process), warm for the ops",
            "size_before_setup": record["cache_size_before"],
            "size_after_setup": record["cache_size_after"],
            "domain_for_concept_at_end": record["domain_cache"],
            "joint_distribution": "cold: every op builds a fresh JointDistribution",
        },
        "samples": {
            "setup": len(setup_samples),
            "ops": len(record["ops"]),
            "cli_ops": len(cli_process),
        },
        "window_s": record["window_s"],
        "check_s": record["check_s"],
        "inputs": [{k: f[k] for k in ("path", "cells", "support")} for f in manifest["files"]],
        "error_rate": metrics.error_rate(attempted, failed),
        "failures": failures[:20],
    }
    return report, values, units, attempted, failed


def summary(report: dict, values: dict, units: dict, attempted: int, failed: int) -> list[str]:
    samples = report["samples"]
    lines = [
        f"{report['workload']} seed={report['seed']} trace={report['trace']}: "
        f"{samples['ops']} ops, window {report['window_s']:.3f} s, checks {report['check_s']:.3f} s"
    ]
    notes = {
        "setup_s": f"median of {samples['setup']} fresh processes",
        "ops_per_s": f"{samples['ops']} ops",
        "op_p50_s": f"median of {samples['ops']} ops",
        "peak_rss_mb": "ru_maxrss of the worker",
    }
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name} = {values[name]:.6g} {unit}{note}")
    lines.append(
        f"  error_rate = {report['error_rate']:.6g} ratio  ({failed} failed of {attempted} attempted)"
    )
    lines += [f"  FAILED {msg}" for msg in report["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pidlattice benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    try:
        for name in names:
            report, values, units, attempted, failed = bench(
                name, args.seed, args.seconds, bool(args.trace), root
            )
            print(json.dumps({"report": report}))
            print("\n".join(summary(report, values, units, attempted, failed)))
            lines[name] = metrics.result_line(values, units, attempted, failed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
