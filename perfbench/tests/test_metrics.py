"""Metric names and units match BENCHMARK.json, and failed ops are counted."""

import json
from pathlib import Path

import metrics
import worker
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_the_metrics_the_code_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metrics.per_layer_units()
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def _record(ops):
    return {
        "ops": ops,
        "window_s": 2.0,
        "peak_rss_kib": 2048,
        "antichains": 20,
        "domain_cache": {"hits": 3, "misses": 1},
    }


def test_end_to_end_reports_exactly_its_metrics():
    record = _record([{"op": 0, "seconds": 0.5, "failures": []}, {"op": 1, "failures": ["x"]}])
    values = metrics.end_to_end([0.3, 0.1, 0.2], record)
    assert values == {"setup_s": 0.2, "ops_per_s": 0.5, "op_p50_s": 0.5, "peak_rss_mb": 2.0}
    line = metrics.result_line(values, metrics.END_TO_END, 2, 1)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False
    assert {k: v["unit"] for k, v in line["metrics"].items()} == metrics.END_TO_END


def test_per_layer_reports_exactly_its_metrics():
    spans = [
        ["lattices.enumerate_cold", 0.0, 0.1, "setup"],
        ["op", 1.0, 2.0, 0],
        ["distributions.mi_table", 1.1, 1.4, 0],
        ["engine.export", 1.5, 1.7, 0],
    ]
    counts = [["distributions.cells", 64, 0], ["distributions.support", 16, 0]]
    record = _record([{"op": 0, "seconds": 0.8, "traced_seconds": 1.0, "failures": []}])
    values = metrics.per_layer(record, spans, counts, [0.2], [1.5, 1.7])
    assert set(values) == set(metrics.per_layer_units())
    assert abs(values["engine.untraced_s"] - 0.5) < 1e-12
    assert abs(values["trace.overhead_s"] - 0.2) < 1e-12
    assert values["distributions.support_ratio"] == 0.25
    assert values["cli.process.calls"] == 2
    assert values["concepts.domain_cache_hit_ratio"] == 0.75
    assert values["engine.forward.calls"] == 0


class FlakyOps:
    """Op 1 raises, op 2 fails a check, op 3's check raises; ops 0 and 4 pass."""

    def prepare(self, i):
        return i

    def run(self, i, state, decompose):
        if i == 1:
            raise ValueError("broken op")
        return {"sha256": []}

    def check(self, i, out, traced_out):
        if i == 3:
            raise KeyError("broken check")
        return ["wrong output"] if i == 2 else []

    decompose = traced_decompose = None


def test_error_rate_counts_raised_ops_and_failed_checks():
    loop = worker.run_loop(FlakyOps(), 5, 1, 0.0, worker.Tracer(False))
    ops = loop["ops"]
    assert [bool(op["failures"]) for op in ops] == [False, True, True, True, False]
    attempted, failed = metrics.tally(ops, 2, ["cli op 0: differs"])
    assert (attempted, failed) == (7, 4)
    assert metrics.error_rate(attempted, failed) == 4 / 7
