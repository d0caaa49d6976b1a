"""Benchmark worker: one fresh process that sets up, runs one workload's ops and checks them.

    python3 perfbench/worker.py setup WORKLOAD
    python3 perfbench/worker.py run WORKLOAD INPUT_DIR SECONDS TRACE

Both modes time ``import pidlattice`` plus the cold fill of the per-n
caches (enumeration and all ten domains).  ``setup`` stops there.  ``run``
then runs ops in a closed loop, one client in one thread, until a whole
cycle of ops ends at least SECONDS into the timed window.  Each op gets a
freshly built input, so the per-object entropy and MI caches start cold.
Every op's output is checked between ops, off the clock.

With TRACE 1 each op runs twice: through ``decompose``, then as the public
steps ``decompose`` takes, each inside a span.  The spans and counts stay
in memory and go to INPUT_DIR/spans.json at exit.  The last stdout line is
a JSON record for run.py.
"""

import sys
import time

from workloads import CONCEPTS, DEDEKIND, PARTNERS, WORKLOADS


class _Off:
    """Stands in for a span while tracing is off."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_OFF = _Off()


class _Span:
    __slots__ = ("tracer", "name", "parent", "start")

    def __init__(self, tracer, name, parent):
        self.tracer, self.name, self.parent = tracer, name, parent

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans.append([self.name, self.start, time.perf_counter(), self.parent])
        return False


class _OpSpan(_Span):
    def __enter__(self):
        self.tracer.current = self.parent
        return super().__enter__()

    def __exit__(self, *exc):
        super().__exit__(*exc)
        self.tracer.current = None
        return False


class Tracer:
    """Spans ``[name, start, end, op id]`` and counts ``[name, value, op id]`` kept in memory.

    Recording is on only inside ``op``; elsewhere ``span`` and ``count`` do nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.current = None
        self.spans: list = []
        self.counts: list = []

    def op(self, op_id):
        return _OpSpan(self, "op", op_id) if self.enabled else _OFF

    def span(self, name: str):
        return _OFF if self.current is None else _Span(self, name, self.current)

    def count(self, name: str, value) -> None:
        if self.current is not None:
            self.counts.append([name, value, self.current])


def cold_setup(n: int, tracer: Tracer) -> dict:
    """Time ``import pidlattice`` plus the fill of every per-n cache a workload uses."""
    with tracer.op("setup"):
        t0 = time.perf_counter()
        import pidlattice as pl

        caches = {
            "enumerate_antichains": pl.enumerate_antichains,
            "enumerate_parthood_distributions": pl.enumerate_parthood_distributions,
            "domain_for_concept": pl.domain_for_concept,
        }
        before = {name: fn.cache_info().currsize for name, fn in caches.items()}
        with tracer.span("lattices.enumerate_cold"):
            antichains = len(pl.enumerate_antichains(n))
            pl.enumerate_parthood_distributions(n)
        for concept in pl.BaseConcept:
            with tracer.span("concepts.domain_cold"):
                pl.domain_for_concept(concept, n)
        seconds = time.perf_counter() - t0
    if antichains != DEDEKIND[n]:
        raise RuntimeError(f"{antichains} antichains at n={n}, want {DEDEKIND[n]}")
    after = {name: fn.cache_info().currsize for name, fn in caches.items()}
    return {"setup_s": seconds, "antichains": antichains, "cache_size_before": before,
            "cache_size_after": after}


# Everything below runs after set-up has been timed.


def main(argv) -> int:
    mode, name = argv[0], argv[1]
    n, cycle = WORKLOADS[name]
    traced = mode == "run" and argv[4] == "1"
    tracer = Tracer(traced)
    setup = cold_setup(n, tracer)
    import json

    if mode == "setup":
        print(json.dumps(setup))
        return 0
    from pathlib import Path

    inputs, seconds = Path(argv[2]), float(argv[3])
    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
    ops = make_ops(name, n, manifest, inputs, tracer)
    # A traced run does at least three ops, which run.py's CLI comparison reads.
    loop = run_loop(ops, cycle, 3 if traced else 1, seconds, tracer)
    import pidlattice as pl

    record = {
        **setup,
        **loop,
        "domain_cache": pl.domain_for_concept.cache_info()._asdict(),
    }
    if traced:
        spans = {"spans": tracer.spans, "counts": tracer.counts}
        (inputs / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    print(json.dumps(record))
    return 0


def run_loop(ops, cycle: int, min_ops: int, seconds: float, tracer: Tracer) -> dict:
    """Closed loop: the next op starts when the last one and its checks are done.

    The window clock runs while inputs are built and ops run, and stops for
    the checks.  The loop ends on a cycle boundary once the window reaches
    ``seconds`` and at least ``min_ops`` ops have run.
    """
    import resource

    records, window, check_s, i = [], 0.0, 0.0, 0
    while not (i % cycle == 0 and i >= min_ops and window >= seconds):
        rec = {"op": i, "failures": []}
        t0 = time.perf_counter()
        untraced = traced_out = None
        try:
            state = ops.prepare(i)
            t1 = time.perf_counter()
            untraced = ops.run(i, state, ops.decompose)
            rec["seconds"] = time.perf_counter() - t1
            if tracer.enabled:
                state = ops.prepare(i)
                with tracer.op(i):
                    t1 = time.perf_counter()
                    traced_out = ops.run(i, state, ops.traced_decompose)
                    rec["traced_seconds"] = time.perf_counter() - t1
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            rec["failures"].append(_describe(exc))
        window += time.perf_counter() - t0
        t0 = time.perf_counter()
        if untraced is not None:
            try:
                rec["failures"] += ops.check(i, untraced, traced_out)
                rec["sha256"] = untraced["sha256"]
            except Exception as exc:  # a check that raises fails the op too
                rec["failures"].append(_describe(exc))
        check_s += time.perf_counter() - t0
        records.append(rec)
        i += 1
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"ops": records, "window_s": window, "check_s": check_s, "peak_rss_kib": peak_kib}


def _describe(exc) -> str:
    import traceback

    return "".join(traceback.format_exception_only(exc)).strip()


class Ops:
    """One workload's ops.  ``prepare`` builds op i's input off the op clock,
    ``run`` is the op, ``check`` compares its output with what is known."""

    def __init__(self, n, manifest, inputs, tracer):
        import hashlib

        import checks
        import pidlattice as pl

        self.pl, self.checks, self.sha = pl, checks, hashlib.sha256
        self.n, self.manifest, self.inputs, self.tracer = n, manifest, inputs, tracer
        self.files = manifest["files"]
        self.references = {}
        self.decompose = pl.decompose

    def traced_decompose(self, dist, concept):
        """``decompose`` with the reference measure, one span per public step, in its order."""
        pl, span = self.pl, self.tracer.span
        kind = "partner" if concept.tag in PARTNERS else "base"
        measured = concept
        if concept in (pl.BaseConcept.UNIQUE, pl.BaseConcept.UNIQUE_PARTNER):
            measured = pl.BaseConcept.REDUNDANCY  # the reference family's unique information
        with span("distributions.mi_table"):
            mi = pl.mi_table(dist)
        with span(f"concepts.reference_measure.{kind}"):
            values = pl.reference_measure(dist, measured).values
        with span(f"engine.solve_concept.{kind}"):
            atoms = pl.solve_concept(dist.n, measured, values, mi)
        with span("distributions.digest"):
            digest = dist.digest()
        meta = pl.PidMeta(concept=concept.tag, measure=pl.REFERENCE_MEASURE_NAME, digest=digest)
        with span("engine.build_verify"):
            result = pl.PidResult.build(dist.n, atoms, meta, mi)
        self.tracer.count("engine.atoms", len(result.atoms))
        return result

    def _read_pmf(self, k):
        """The benchmark's own parse of input file k: (alphabets, target, pmf)."""
        import json

        doc = json.loads((self.inputs / self.files[k]["path"]).read_text(encoding="utf-8"))
        pmf = {tuple(e["state"]): e["p"] for e in doc["pmf"]}
        return tuple(doc["source_alphabets"]), doc["target_alphabet"], pmf

    def _reference(self, k):
        """MI table of an untouched copy of input file k, and the oracle's total MI.

        Computed once per file; the copy is not kept, so only the check
        that builds it holds its memory.
        """
        if k not in self.references:
            sizes, target, pmf = self._read_pmf(k)
            fresh = self.pl.JointDistribution(sizes, target, pmf)
            self.references[k] = (self.pl.mi_table(fresh), self.checks.oracle_total_mi(pmf, self.n))
        return self.references[k]

    def _export(self, result):
        """``export_result`` plus ``json.dumps`` as the CLI writes them."""
        import json

        with self.tracer.span("engine.export"):
            doc = self.pl.export_result(result)
            text = json.dumps(doc, indent=2) + "\n"
        return len(doc["atoms"]), text

    def _count_input(self, dist):
        import math

        cells = math.prod((*dist.source_alphabets, dist.target_alphabet))
        self.tracer.count("distributions.cells", cells)
        self.tracer.count("distributions.support", len(dist.pmf))

    def check(self, i, out, traced_out):
        c = self.checks
        k = i % len(self.files)
        out["sha256"] = [self.sha(t.encode()).hexdigest() for t in out.pop("texts")]
        fresh_mi, oracle_total = self._reference(k)
        result = out["result"]
        failures = c.check_consistency(result, fresh_mi) + c.check_atom_count(result)
        failures += c.check_export_rows(out["rows"], self.n)
        failures += c.check_total_mi(result, oracle_total)
        failures += c.check_digest(result, self.files[k]["digest"])
        if traced_out is not None:
            failures += c.check_identical_atoms(traced_out["result"], result)
        return failures


class RoundTripOps(Ops):
    """n5-roundtrip: decompose under the next concept, export, forward table."""

    def prepare(self, i):
        sizes, target, pmf = self._read_pmf(i % len(self.files))
        return self.pl.JointDistribution(sizes, target, pmf)

    def run(self, i, dist, decompose):
        concept = self.pl.BaseConcept.from_tag(CONCEPTS[i % len(CONCEPTS)])
        self._count_input(dist)
        result = decompose(dist, concept)
        rows, text = self._export(result)
        with self.tracer.span("engine.forward"):
            table = self.pl.measure_table_from_atoms(concept, self.n, result.atoms)
        return {"result": result, "rows": rows, "table": table, "texts": [text]}

    def check(self, i, out, traced_out):
        concept = self.pl.BaseConcept.from_tag(CONCEPTS[i % len(CONCEPTS)])
        failures = super().check(i, out, traced_out)
        return failures + self.checks.check_forward_resolves(concept, out["table"], out["result"])


class WideOps(Ops):
    """wide-dense and wide-sparse: load the file, decompose under the next concept, export."""

    def prepare(self, i):
        return self.inputs / self.files[i % len(self.files)]["path"]

    def run(self, i, path, decompose):
        concept = self.pl.BaseConcept.from_tag(CONCEPTS[i % len(CONCEPTS)])
        with self.tracer.span("distributions.load_joint"):
            dist = self.pl.load_joint(path)
        self._count_input(dist)
        result = decompose(dist, concept)
        rows, text = self._export(result)
        return {"result": result, "rows": rows, "texts": [text]}


class LatticeOps(Ops):
    """n4-lattice: ``concept_lattice`` plus ``lattice_to_dot`` for all eight nested concepts."""

    def prepare(self, i):
        orders = self.manifest["orders"]
        return orders[i % len(orders)]

    def run(self, i, order, decompose):
        texts = []
        for tag in order:
            with self.tracer.span("lattices.concept_lattice"):
                lattice = self.pl.concept_lattice(self.pl.BaseConcept.from_tag(tag), self.n)
            self.tracer.count("lattices.nodes", len(lattice.nodes))
            self.tracer.count("lattices.covers", sum(len(c) for c in lattice.covers))
            with self.tracer.span("lattices.lattice_to_dot"):
                texts.append(self.pl.lattice_to_dot(lattice))
        return {"order": order, "texts": texts}

    def check(self, i, out, traced_out):
        out["sha256"] = [self.sha(t.encode()).hexdigest() for t in out.pop("texts")]
        failures = []
        for tag, sha in zip(out["order"], out["sha256"]):
            failures += self.checks.check_dot(tag, sha)
        if traced_out is not None:
            traced = [self.sha(t.encode()).hexdigest() for t in traced_out.pop("texts")]
            if traced != out["sha256"]:
                failures.append("traced lattice ops gave different DOT output")
        return failures


def make_ops(name, n, manifest, inputs, tracer):
    cls = {"n5-roundtrip": RoundTripOps, "n4-lattice": LatticeOps}.get(name, WideOps)
    return cls(n, manifest, inputs, tracer)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
