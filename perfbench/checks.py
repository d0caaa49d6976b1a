"""Correctness checks on one op's outputs, run outside the timed window.

Each check returns a list of failure messages, empty when the output is
right, so a failed check counts against the op instead of stopping the run.
"""

from __future__ import annotations

import dataclasses

from pidlattice import ENGINE_TOL, PidError, solve_concept, verify_consistency
from pidlattice.oracle import oracle_mi

from workloads import DEDEKIND, N4_DOT_SHA256

ORACLE_TOL = 1e-9


def check_consistency(result, fresh_mi) -> list[str]:
    """The result's MI table and its atoms agree with ``fresh_mi``, the MI table
    recomputed from an untouched copy of the input.

    ``verify_consistency`` runs on the result with ``fresh_mi`` in place of
    its own table, which is what ``verify_consistency(result, fresh_copy)``
    computes, without rebuilding the copy's table for every op.
    """
    failures = []
    worst = max(abs(result.mi[bits] - v) for bits, v in fresh_mi.items())
    if worst > ENGINE_TOL:
        failures.append(f"MI table off the fresh copy's by {worst:.3e}")
    report = verify_consistency(dataclasses.replace(result, mi=fresh_mi))
    if not (report.passed and report.worst_error <= ENGINE_TOL):
        failures.append(f"verify_consistency: error {report.worst_error:.3e} at {report.worst_label}")
    return failures


def check_atom_count(result) -> list[str]:
    """One atom per parthood distribution: the Dedekind number minus two."""
    want = DEDEKIND[result.n] - 2
    if len(result.atoms) == want:
        return []
    return [f"atom count {len(result.atoms)}, want {want}"]


def check_export_rows(rows: int, n: int) -> list[str]:
    """The exported document lists every atom once."""
    want = DEDEKIND[n] - 2
    return [] if rows == want else [f"export has {rows} atom rows, want {want}"]


def check_forward_resolves(concept, table, result) -> list[str]:
    """The forward measure table inverts back to the atoms through ``solve_concept``."""
    try:
        atoms = solve_concept(result.n, concept, table.values, result.mi)
    except PidError as exc:
        return [f"forward table does not re-solve: {exc}"]
    if atoms.keys() != result.atoms.keys():
        return ["forward table re-solves to a different atom set"]
    worst = max(abs(atoms[f] - v) for f, v in result.atoms.items())
    if worst <= ENGINE_TOL:
        return []
    return [f"forward table re-solves with error {worst:.3e}"]


def oracle_total_mi(pmf, n: int) -> float:
    return oracle_mi(pmf, n, (1 << n) - 1)


def check_total_mi(result, oracle_total: float) -> list[str]:
    """The total MI agrees with the independent oracle's."""
    err = abs(result.mi[(1 << result.n) - 1] - oracle_total)
    return [] if err <= ORACLE_TOL else [f"total MI off the oracle by {err:.3e}"]


def check_digest(result, recorded: str) -> list[str]:
    """The result carries the digest recorded when the input file was written."""
    got = result.meta.digest
    return [] if got == recorded else [f"digest {got[:12]} differs from recorded {recorded[:12]}"]


def check_dot(tag: str, sha256: str) -> list[str]:
    """A lattice's DOT text is byte-identical to the recorded output."""
    want = N4_DOT_SHA256[tag]
    return [] if sha256 == want else [f"{tag} DOT sha256 {sha256[:12]} differs from {want[:12]}"]


def check_identical_atoms(traced, untraced) -> list[str]:
    """The traced step-by-step result equals ``decompose``'s bit for bit."""
    if traced.meta != untraced.meta or traced.mi != untraced.mi:
        return ["traced result differs from decompose in meta or MI table"]
    if list(traced.atoms) != list(untraced.atoms):
        return ["traced result orders or names atoms differently from decompose"]
    for f, v in untraced.atoms.items():
        if traced.atoms[f].hex() != v.hex():
            return [f"traced atom {f.table:#x} is {traced.atoms[f]!r}, decompose gave {v!r}"]
    return []
