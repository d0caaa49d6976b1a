"""Metric names and units, and how run.py computes them from a run's records.

BENCHMARK.json lists the same names and units; the tests hold the two equal.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

END_TO_END = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_s": "s", "peak_rss_mb": "MiB"}

# Each timing gives <name>_s (median per call), <name>.calls and <name>.busy_s.
TIMINGS = (
    "lattices.enumerate_cold",
    "concepts.domain_cold",
    "lattices.concept_lattice",
    "lattices.lattice_to_dot",
    "concepts.reference_measure.base",
    "concepts.reference_measure.partner",
    "engine.solve_concept.base",
    "engine.solve_concept.partner",
    "engine.build_verify",
    "engine.export",
    "engine.forward",
    "distributions.load_joint",
    "distributions.mi_table",
    "distributions.digest",
    "cli.import",
    "cli.process",
    "engine.untraced",
    "trace.overhead",
)
# Per-op counts (medians over ops) and ratios.
COUNTS = {
    "lattices.antichains": "count",
    "lattices.nodes": "count",
    "lattices.covers": "count",
    "engine.atoms": "count",
    "distributions.cells": "count",
    "distributions.support": "count",
    "distributions.support_ratio": "ratio",
    "concepts.domain_cache_hit_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TIMINGS:
        units[f"{name}_s"] = "s"
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
    units.update(COUNTS)
    return units


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tally(ops: list[dict], cli_ops: int, cli_failures: list[str]) -> tuple[int, int]:
    """Ops attempted and failed; an op fails when it raised or any check on it failed."""
    attempted = len(ops) + cli_ops
    failed = sum(1 for op in ops if op["failures"]) + len(cli_failures)
    return attempted, failed


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted


def end_to_end(setup_samples: list[float], record: dict) -> dict[str, float]:
    """The user-visible metrics of an untraced run."""
    done = [op["seconds"] for op in record["ops"] if "seconds" in op]
    return {
        "setup_s": _median(setup_samples),
        "ops_per_s": len(done) / record["window_s"],
        "op_p50_s": _median(done),
        "peak_rss_mb": record["peak_rss_kib"] / 1024,
    }


def per_layer(record: dict, spans: list, counts: list, cli_import: list, cli_process: list) -> dict:
    """Per-layer metrics of a traced run from its spans, counts and CLI samples.

    A layer's time is the duration of its spans; ``engine.untraced`` is each
    traced op's time outside all of its spans, ``trace.overhead`` each op's
    traced time minus its untraced time.
    """
    durations = defaultdict(list)
    op_time, covered = {}, defaultdict(float)
    for name, start, end, parent in spans:
        if name == "op":
            op_time[parent] = end - start
        else:
            durations[name].append(end - start)
            covered[parent] += end - start
    durations["engine.untraced"] = [t - covered[op] for op, t in op_time.items() if op != "setup"]
    durations["trace.overhead"] = [
        op["traced_seconds"] - op["seconds"] for op in record["ops"] if "traced_seconds" in op
    ]
    durations["cli.import"] = list(cli_import)
    durations["cli.process"] = list(cli_process)

    values = {}
    for name in TIMINGS:
        got = durations[name]
        values[f"{name}_s"] = _median(got)
        values[f"{name}.calls"] = len(got)
        values[f"{name}.busy_s"] = float(sum(got))

    per_op = defaultdict(lambda: defaultdict(int))
    for name, value, op in counts:
        per_op[name][op] += value
    for name in ("lattices.nodes", "lattices.covers", "engine.atoms", "distributions.cells",
                 "distributions.support"):
        values[name] = _median(per_op[name].values())
    cells, support = per_op["distributions.cells"], per_op["distributions.support"]
    values["distributions.support_ratio"] = _median(support[op] / cells[op] for op in cells)
    values["lattices.antichains"] = record["antichains"]
    cache = record["domain_cache"]
    values["concepts.domain_cache_hit_ratio"] = cache["hits"] / (cache["hits"] + cache["misses"])
    return values


def result_line(values: dict, units: dict, attempted: int, failed: int) -> dict:
    """The JSON object run.py prints last."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
