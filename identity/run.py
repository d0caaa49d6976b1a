"""Compare what two source trees compute, bit for bit, over one fixed corpus.

    python3 identity/run.py OLD NEW

OLD and NEW are the roots of two source trees, each holding
``src/pidlattice``: for example a ``git archive`` of the parent commit
unpacked into a directory, and ``.`` for the working tree.  The runner
writes the seed-3 ``wide-dense`` and ``wide-sparse`` files of
``perfbench/inputs.py`` once, then starts one Python process per tree with
that tree's ``src`` on ``PYTHONPATH``.  That process computes the corpus
below and hands back every value, each float as ``float.hex``; an
exception is recorded as its type and message, so a refusal is compared
like a value.

Categories:

- information: ``_entropies``, ``mi_table``, ``mutual_information`` and
  ``conditional_mi`` (every pair of collections) on every alphabet shape
  in {1, 2, 3}^(n+1) for n <= 2, complete and thinned; seeded n = 3..5
  tables, complete and thinned; a (16,16,16)->16 table; and the
  ``wide-dense`` and ``wide-sparse`` files.
- atoms: ``decompose`` under all ten concepts for n = 1..5 with the
  reference measure, ``solve_concept`` of seeded random measures, and the
  ten forward tables (``measure_table_from_atoms``) of both atom sets.
- moebius: ``moebius_invert`` on every full concept lattice for n <= 4,
  and on a two-node lattice built directly at n = 6, 7 and 8, where no
  concept lattice exists, in both directions.
- reports: ``verify_consistency``, ``summate`` at every domain antichain
  and ``inclusion_exclusion_check`` at every union-domain antichain, for
  n <= 3.
- synergy: ``proper_synergy_values`` at every antichain with a non-empty
  union, and ``proper_synergy_rank_analysis``, for n = 1..5.
- numbers: digests of the information tables, ``json_rows`` text, and
  ``decimals`` and ``shortest_digits`` on a seeded sample of reprs.
- cli: stdout, stderr and exit status of ``pidlattice.cli.main`` on
  ``decompose``, ``check``, ``lattice``, ``domains`` and ``rank`` cases,
  failures included.

Prints one line per category: equal, or differing with the number of
keys that differ, the first of them, and the largest distance in units
in the last place between two floats at the same place.  Exits 0 when
every category is equal and 1 otherwise.  No result is stored: the
runner always compares the two trees it is given.  It takes about 12 s.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
CATEGORIES = ("information", "atoms", "moebius", "reports", "synergy", "numbers", "cli")
LONG_TEXT = 4096  # longer texts travel as their sha256 and length
CLI_CASES = {  # each word is formatted with the data, golden, dense-input and work directories
    "decompose xor": "decompose --input {data}/xor.json --concept redundancy",
    "decompose xor --table": "decompose --input {data}/xor.json --concept union --table",
    "decompose copy": "decompose --input {data}/copy.json --concept weak-synergy",
    "decompose copy --table": "decompose --input {data}/copy.json --concept vulnerable --table",
    "decompose xor.tsv": "decompose --input {data}/xor.tsv --format tsv --concept unique",
    "decompose xor.tsv --table": "decompose --input {data}/xor.tsv --format tsv --concept redundancy --table",
    "decompose random n=4 --table": "decompose --input random --n 4 --seed 7 --concept union --table",
    "decompose random n=5 --out": "decompose --input random --n 5 --seed 5 --concept redundancy --out {work}/r.json",
    "check n=5": "check --input {work}/r.json",
    "decompose wide-dense": "decompose --input {dense}/dense-00.json --concept redundancy",
    "decompose wide-dense --table": "decompose --input {dense}/dense-01.json --concept union --table",
    "decompose --measure": "decompose --input {data}/xor.json --concept union --measure {work}/m.json",
    "check xor golden": "check --input {golden}/xor_redundancy.json",
    "check copy golden": "check --input {golden}/copy_redundancy.json",
    "lattice n=3 union": "lattice --n 3 --concept union",
    "lattice n=4 redundancy": "lattice --n 4 --concept redundancy",
    "lattice unique": "lattice --n 2 --concept unique",
    "domains": "domains --n 3 --concept weak-synergy",
    "domains --table": "domains --n 4 --concept vulnerable-partner --table",
    "rank": "rank --n 4",
    "rank --table": "rank --n 5 --table",
    "decompose missing file": "decompose --input {work}/missing.json --concept redundancy",
    "decompose random without --n": "decompose --input random --concept redundancy",
    "decompose unknown concept": "decompose --input {data}/xor.json --concept x",
    "rank n=6": "rank --n 6",
}
np = pidlattice = None  # imported by the corpus process alone, from the tree it reads


# ------------------------------------------------------------------ encoding

def tokens(value) -> list[str]:
    """A value as a flat list of strings: floats by ``float.hex``, long text by its hash."""
    if isinstance(value, (float, np.floating)):
        return ["f" + float(value).hex()]
    if isinstance(value, (bool, int, np.integer)) or value is None:
        return ["s" + repr(value if isinstance(value, (bool, type(None))) else int(value))]
    if isinstance(value, (str, bytes)):
        text = value.encode("utf-8", "surrogatepass") if isinstance(value, str) else value
        if len(text) > LONG_TEXT:
            return [f"h{hashlib.sha256(text).hexdigest()}:{len(text)}"]
        return ["s" + text.decode("utf-8", "surrogatepass")]
    if isinstance(value, np.ndarray):
        return tokens(value.tolist())
    if type(value).__name__ == "ParthoodDistribution":
        return [f"s{value.table:x}"]
    if isinstance(value, dict) or hasattr(value, "items"):
        return [t for k, v in value.items() for t in tokens(k) + tokens(v)]
    if isinstance(value, (list, tuple)):
        return ["s["] + [t for item in value for t in tokens(item)] + ["s]"]
    if hasattr(value, "label"):  # an Antichain or a SourceSet
        return ["s" + value.label()]
    if hasattr(value, "__dataclass_fields__"):
        return tokens({name: getattr(value, name) for name in value.__dataclass_fields__})
    return ["s" + repr(value)]


def refusal(exc: Exception) -> list[str]:
    return ["e" + type(exc).__name__, "s" + str(exc)]


def outcome(call) -> list[str]:
    """The tokens of what ``call()`` returns, or of the exception it raises."""
    try:
        return tokens(call())
    except Exception as exc:  # a refusal is part of the behaviour compared
        return refusal(exc)


# -------------------------------------------------------------------- corpus

def joint(shape, seed: int, thinned: bool):
    """A seeded Dirichlet(1) table over ``shape`` (sources then target), about half
    its cells set to 0 when ``thinned``."""
    rng = np.random.default_rng(seed)
    cells = math.prod(shape)
    masses = rng.dirichlet(np.ones(cells))
    if thinned and cells > 1:
        masses[rng.random(cells) < 0.5] = 0.0
        masses[int(rng.integers(cells))] += 0.5  # at least one cell kept
        masses /= masses.sum()
    states = itertools.product(*(range(k) for k in shape))
    pmf = dict(zip(states, masses.tolist()))
    return pidlattice.JointDistribution(shape[:-1], shape[-1], pmf)


def information_tables(inputs: Path) -> dict:
    """Key -> a call building the table, in the order the corpus reads them."""
    small = [shape for n in (1, 2) for shape in itertools.product((1, 2, 3), repeat=n + 1)]
    seeded = [tuple(np.random.default_rng(n).integers(2, 4, size=n + 1).tolist()) for n in (3, 4, 5)]
    tables = {}
    for (seed, shape), thinned in itertools.product(enumerate(small + seeded), (False, True)):
        key = f"shape={shape} {'thinned' if thinned else 'complete'}"
        tables[key] = functools.partial(joint, shape, 2 * seed + thinned, thinned)
    tables["(16,16,16)->16"] = functools.partial(joint, (16, 16, 16, 16), 16, False)
    for path in sorted(inputs.glob("wide-*/*.json")):
        tables[f"{path.parent.name}/{path.name}"] = functools.partial(pidlattice.load_joint, path)
    return tables


def information(inputs: Path, out: dict, numbers: dict) -> None:
    from pidlattice import conditional_mi, mi_table, mutual_information

    for key, build in information_tables(inputs).items():
        try:
            dist = build()
        except Exception as exc:
            out[key] = numbers[f"digest {key}"] = refusal(exc)
            continue
        full = 1 << dist.n
        out[f"{key} entropies"] = outcome(lambda: sorted(dist._entropies.items()))
        out[f"{key} mi_table"] = outcome(lambda: mi_table(dist))
        out[f"{key} mutual_information"] = outcome(lambda: [mutual_information(dist, a) for a in range(full)])
        out[f"{key} conditional_mi"] = outcome(
            lambda: [conditional_mi(dist, a, g) for a in range(full) for g in range(full)]
        )
        numbers[f"digest {key}"] = outcome(dist.digest)


def seeded_values(seed: int, size: int) -> list[float]:
    """Values over six decades with either sign, so that a change of summation order shows."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)).tolist()


def seeded_atoms(n: int, seed: int) -> dict:
    fs = pidlattice.enumerate_parthood_distributions(n)
    return dict(zip(fs, seeded_values(seed, len(fs))))


def atom_result(n: int, atoms: dict):
    """A result holding these atoms and the MI table they imply."""
    mi = {bits: math.fsum(v for f, v in atoms.items() if f.value(bits)) for bits in range(1 << n)}
    meta = pidlattice.PidMeta(concept="synthetic", measure="synthetic", digest="0" * 64)
    return pidlattice.PidResult.build(n, atoms, meta, mi)


def atoms_and_reports(atoms: dict, reports: dict, synergy: dict) -> None:
    from pidlattice import (
        BaseConcept,
        decompose,
        domain_for_concept,
        enumerate_antichains,
        inclusion_exclusion_check,
        measure_table_from_atoms,
        proper_synergy_rank_analysis,
        proper_synergy_values,
        solve_concept,
        summate,
        verify_consistency,
    )

    for n in range(1, 6):
        dist = pidlattice.random_joint(n, 100 + n)
        synthetic = atom_result(n, seeded_atoms(n, 200 + n))
        results = {"synthetic": synthetic}
        for concept in BaseConcept:
            key = f"n={n} {concept.tag}"
            try:
                results[concept.tag] = decompose(dist, concept)
                atoms[f"{key} reference"] = tokens(results[concept.tag])
            except Exception as exc:
                atoms[f"{key} reference"] = refusal(exc)
            for name in ("synthetic", concept.tag):
                if name in results:
                    forward = functools.partial(measure_table_from_atoms, concept, n, results[name].atoms)
                    atoms[f"{key} forward {name}"] = outcome(forward)
            measure = measure_table_from_atoms(concept, n, synthetic.atoms)
            atoms[f"{key} solve synthetic"] = outcome(lambda: solve_concept(n, concept, measure.values, synthetic.mi))
        unions = [alpha for alpha in enumerate_antichains(n) if any(alpha.masks)]
        for name, result in results.items():
            key = f"n={n} {name}"
            synergy[f"{key} proper_synergy_values"] = outcome(
                lambda: [proper_synergy_values(result, alpha) for alpha in unions]
            )
            if n > 3:
                continue
            reports[f"{key} verify_consistency"] = outcome(lambda: verify_consistency(result, dist))
            union_domain = domain_for_concept(BaseConcept.UNION, n)
            reports[f"{key} inclusion_exclusion_check"] = outcome(
                lambda: [inclusion_exclusion_check(result, alpha) for alpha in union_domain]
            )
            for concept in BaseConcept:
                reports[f"{key} summate {concept.tag}"] = outcome(
                    lambda: [summate(concept, alpha, result) for alpha in domain_for_concept(concept, n)]
                )
        synergy[f"n={n} proper_synergy_rank_analysis"] = outcome(lambda: proper_synergy_rank_analysis(n))


def moebius(out: dict) -> None:
    from pidlattice import Antichain, BaseConcept, ConceptLattice, concept_lattice, moebius_invert

    for n, concept in itertools.product(range(1, 5), BaseConcept):
        try:
            lattice = concept_lattice(concept, n)
        except Exception:  # unique information has no lattice
            continue
        if lattice.kind != "full-lattice":
            continue
        size = len(lattice.nodes)
        values = dict(zip(lattice.nodes, seeded_values(10 * n + size, size)))
        for direction in ("down-sum", "up-sum"):
            out[f"n={n} {concept.tag} {direction}"] = outcome(lambda: moebius_invert(lattice, values, direction))
    for n in (6, 7, 8):
        low, high = Antichain.of(n, [1]), Antichain.of(n, [3])
        tables = tuple(sum(1 << s for s in range(1 << n) if s & m == m) for m in (1, 3))  # their up-closures
        lattice = ConceptLattice((low, high), "redundancy", "up", "full-lattice", tables, ((1,), ()))
        values = dict(zip(lattice.nodes, seeded_values(10 * n + 2, 2)))
        for direction in ("down-sum", "up-sum"):
            out[f"n={n} two-node {direction}"] = outcome(lambda: moebius_invert(lattice, values, direction))


def numbers(out: dict) -> None:
    from pidlattice import fileio

    rng = np.random.default_rng(3)
    states = np.column_stack([rng.integers(0, 10 ** int(d), 8192) for d in rng.integers(1, 8, 4)])
    masses = rng.random(8192) * 10.0 ** rng.integers(-12, 1, 8192)
    out["json_rows"] = outcome(lambda: list(fileio.json_rows(states, masses)))
    edges = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0, 1e-5, 1e16, 1e22, 0.0]
    sample = np.concatenate([
        rng.random(4096) * 10.0 ** rng.integers(-300, 300, 4096),
        rng.random(2048),
        rng.integers(1, 10**6, 1024).astype(float),
        edges,
    ])
    normal = sample[sample >= 2.2250738585072014e-308]
    for start in range(0, len(sample), 1024):
        reprs = [repr(v).encode() for v in sample[start : start + 1024].tolist()]
        ends = np.cumsum([len(r) + 1 for r in reprs]) - 1
        starts = ends - [len(r) for r in reprs]
        out[f"decimals {start}"] = outcome(lambda: fileio.decimals(b",".join(reprs), starts, ends))
        chunk = normal[start : start + 1024]
        out[f"shortest_digits {start}"] = outcome(lambda: fileio.shortest_digits(chunk))


def cli(work: Path, inputs: Path, out: dict) -> None:
    from pidlattice import BaseConcept, cli, load_joint, reference_measure, save_measure

    def run(argv: list[str]):
        before = {path: path.read_bytes() for path in work.iterdir()}
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
        written = {p.name: p.read_bytes() for p in sorted(work.iterdir()) if before.get(p) != p.read_bytes()}
        return [status, stdout.getvalue(), stderr.getvalue(), written]

    def write_measure():  # the file "decompose --measure" reads
        save_measure(reference_measure(load_joint(DATA / "xor.json"), BaseConcept.UNION), work / "m.json")

    out["save_measure"] = outcome(write_measure)
    places = {"data": DATA, "golden": DATA / "golden", "dense": inputs / "wide-dense", "work": work}
    for key, text in CLI_CASES.items():
        out[key] = outcome(lambda: run([word.format(**places) for word in text.split()]))


def corpus(inputs: Path, work: Path) -> dict[str, dict[str, list[str]]]:
    """Every category's values for the tree on ``sys.path``; ``work`` is an empty directory."""
    found = {name: {} for name in CATEGORIES}
    information(inputs, found["information"], found["numbers"])
    atoms_and_reports(found["atoms"], found["reports"], found["synergy"])
    moebius(found["moebius"])
    numbers(found["numbers"])
    cli(work, inputs, found["cli"])
    return found


def child(inputs: str, work: str, source: str) -> int:
    global np, pidlattice
    import numpy as np
    import pidlattice

    where = Path(pidlattice.__file__).resolve()
    if not where.is_relative_to(Path(source).resolve()):
        print(f"pidlattice imported from {where}, not from {source}", file=sys.stderr)
        return 2
    json.dump(corpus(Path(inputs), Path(work)), sys.stdout)
    return 0


# ---------------------------------------------------------------- comparison

def ordered(x: float) -> int:
    """The place of a double in the ordered sequence of all doubles."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulps(a: str, b: str) -> float:
    """Distance in units in the last place between two float tokens, or inf where one is not finite."""
    x, y = float.fromhex(a[1:]), float.fromhex(b[1:])
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(ordered(x) - ordered(y))


def compare(old: dict, new: dict) -> str:
    """One category's verdict."""
    keys = list(old) + [k for k in new if k not in old]
    differing = [k for k in keys if old.get(k) != new.get(k)]
    if not differing:
        return f"equal      {len(keys)} keys"
    distances, other = [], False
    for key in differing:
        a, b = old.get(key), new.get(key)
        if a is None or b is None or len(a) != len(b):
            other = True
            continue
        for x, y in zip(a, b):
            if x != y and x[0] == y[0] == "f":
                distances.append(ulps(x, y))
            elif x != y:
                other = True
    parts = [f"{len(differing)} of {len(keys)} keys", f"first {differing[0]!r}"]
    if distances:
        widest = max(distances)
        parts.append(f"largest float distance {'non-finite' if widest == math.inf else f'{int(widest)} ulps'}")
    if other:
        parts.append("text or structure differs" if not distances else "text or structure differs too")
    return "DIFFERS    " + "; ".join(parts)


def collect(tree: Path, inputs: Path) -> dict:
    """The corpus of one tree, computed in a process of its own.

    Both trees write their CLI files to the same emptied directory, so that
    a message naming a path reads the same."""
    work = inputs / "cli"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, __file__, "--corpus", str(inputs), str(work), str(tree / "src")]
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: the corpus run failed\n{done.stderr[-4000:]}")
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--corpus"]:
        return child(*argv[1:])
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    for tree in trees:
        if not (tree / "src" / "pidlattice" / "__init__.py").is_file():
            print(f"{tree} holds no src/pidlattice", file=sys.stderr)
            return 2
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "perfbench"))
    from inputs import generate

    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        inputs = Path(tmp)
        for workload in ("wide-dense", "wide-sparse"):
            (inputs / workload).mkdir()
            generate(workload, 3, inputs / workload)
            (inputs / workload / "manifest.json").unlink()
        old, new = (collect(tree, inputs) for tree in trees)
    differ = False
    for name in CATEGORIES:
        verdict = compare(old[name], new[name])
        differ = differ or not verdict.startswith("equal")
        print(f"{name:12s} {verdict}")
    print(f"{'differ' if differ else 'equal'} in {time.perf_counter() - start:.1f} s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
