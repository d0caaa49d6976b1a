"""Command line interface.

Subcommands: decompose (distribution -> atoms), lattice (DOT of a concept's
order), domains (a concept's antichains), rank (proper-synergy rank
analysis), check (re-verify a result file).  JSON is the canonical output
format; every command takes --out to write its output to a file.
decompose --table attaches all ten derived measure tables to the JSON, from
one forward pass over the atoms; domains and rank --table print plain text.
Errors print a single ``error: ...`` line to stderr; exit status is 1 for
validation failures and 2 for usage mistakes.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .concepts import BaseConcept, concept_facts, concept_lattice, domain_for_concept, domain_labels
from .distributions import load_joint, random_joint
from .engine import (
    _forward,
    decompose,
    export_result,
    inclusion_exclusion_check,
    load_result,
    proper_synergy_rank_analysis,
    verify_consistency,
)
from .errors import PidError
from .fileio import render, write_text
from .lattices import lattice_to_dot

CONCEPT_TAGS = tuple(c.value for c in BaseConcept)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pidlattice", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("decompose", help="decompose a joint distribution into atoms")
    p.set_defaults(run=_cmd_decompose)
    p.add_argument("--input", required=True, help="distribution file, or 'random' with --n/--seed")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--concept", required=True, choices=CONCEPT_TAGS)
    p.add_argument("--measure", default="reference", help="'reference' or a measure file path")
    p.add_argument("--table", action="store_true", help="attach all derived measure tables")
    p.add_argument("--n", type=int, help="source count for --input random")
    p.add_argument("--seed", type=int, default=0, help="seed for --input random")

    p = sub.add_parser("lattice", help="emit a concept's (semi-)lattice as Graphviz DOT")
    p.set_defaults(run=_cmd_lattice)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--concept", required=True, choices=CONCEPT_TAGS)

    p = sub.add_parser("domains", help="list the antichains a concept's measure is defined on")
    p.set_defaults(run=_cmd_domains)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--concept", required=True, choices=CONCEPT_TAGS)
    p.add_argument("--table", action="store_true", help="one label per line instead of JSON")

    p = sub.add_parser("rank", help="rank analysis of the proper-synergy constraint system")
    p.set_defaults(run=_cmd_rank)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--table", action="store_true", help="key=value lines instead of JSON")

    p = sub.add_parser("check", help="re-verify a result file's summation identities")
    p.set_defaults(run=_cmd_check)
    p.add_argument("--input", required=True, help="result file from decompose")

    for p in sub.choices.values():
        p.add_argument("--out", help="write output here instead of stdout")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _cmd_decompose(args) -> int:
    if args.input == "random":
        if args.n is None:
            print("error: --input random needs --n", file=sys.stderr)
            return 2
        dist = random_joint(args.n, args.seed)
    else:
        dist = load_joint(args.input, args.format)
    concept = BaseConcept.from_tag(args.concept)
    result = decompose(dist, concept, args.measure)
    doc = export_result(result)
    if args.table:
        table = _forward(result.n, result.atoms)
        doc["derived_measures"] = {
            c.tag: dict(zip(domain_labels(c, result.n), table(c).values())) for c in BaseConcept
        }
    _emit(render(doc), args.out)
    return 0


def _cmd_lattice(args) -> int:
    concept = BaseConcept.from_tag(args.concept)
    if not concept_facts(concept).nested:
        print(f"error: {concept.tag} information is not nested; no lattice", file=sys.stderr)
        return 2
    _emit(lattice_to_dot(concept_lattice(concept, args.n)), args.out)
    return 0


def _cmd_domains(args) -> int:
    concept = BaseConcept.from_tag(args.concept)
    labels = domain_labels(concept, args.n)
    text = "".join(label + "\n" for label in labels) if args.table else render(labels)
    _emit(text, args.out)
    return 0


def _cmd_rank(args) -> int:
    fields = dataclasses.asdict(proper_synergy_rank_analysis(args.n))
    text = "".join(f"{k}={v}\n" for k, v in fields.items()) if args.table else render(fields)
    _emit(text, args.out)
    return 0


def _cmd_check(args) -> int:
    result = load_result(args.input)
    report = verify_consistency(result)
    doc = {
        "consistency": {
            "passed": report.passed,
            "worst_collection": report.worst_label,
            "worst_error": report.worst_error,
            "tolerance": report.tolerance,
        }
    }
    failed = not report.passed
    if result.n <= 3:
        checks = [
            inclusion_exclusion_check(result, alpha)
            for alpha in domain_for_concept(BaseConcept.UNION, result.n)
        ]
        ie_passed = all(ie.passed for ie in checks)
        errors = [ie.error for ie in checks]
        doc["inclusion_exclusion"] = {
            "checked": len(checks),
            "passed": ie_passed,
            # max() would skip a NaN error; it is shown, as the consistency block shows it
            "worst_error": math.nan if any(map(math.isnan, errors)) else max(errors),
        }
        failed = failed or not ie_passed
    else:
        doc["inclusion_exclusion"] = {"skipped": f"n={result.n} > 3"}
    _emit(render(doc), args.out)
    if failed:
        print("error: result file fails its summation identities", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (PidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
