"""Run the mutation table: each row must make its named tests fail.

Each row of ``rows.json`` names a source file under ``src/``, an exact
text that occurs once in it, a replacement, the pytest node ids that must
fail once the text is replaced, and why the mutant matters.  For each row
the runner copies ``src/`` to a temporary directory, applies the row there
and runs the row's tests on the copy (``PYTHONPATH`` set to it) with
``-x -q -p no:cacheprovider``.  A row is killed when pytest reports a
failing test, and survives when every named test passes; any other pytest
outcome (no test collected, a usage error, a timeout) is an error.  The
working tree is never touched.

    python3 mutation/run.py

Prints one line per row and a summary, and exits 0 only if every row is killed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROWS = Path(__file__).resolve().parent / "rows.json"
TIMEOUT_S = 300  # per row; a killed row stops at its first failure


def load_rows() -> list[dict]:
    rows = json.loads(ROWS.read_text(encoding="utf-8"))
    for row in rows:
        missing = {"file", "old", "new", "tests", "why"} - set(row)
        if missing:
            raise ValueError(f"row {row!r} lacks {sorted(missing)}")
    return rows


def apply(row: dict, root: Path) -> None:
    """Replace the row's text in its file under ``root``; the text must occur there exactly once."""
    path = root / row["file"]
    text = path.read_text(encoding="utf-8")
    count = text.count(row["old"])
    if count != 1:
        raise ValueError(f"{row['file']}: the row's text occurs {count} times, not once")
    path.write_text(text.replace(row["old"], row["new"]), encoding="utf-8")


def run_row(row: dict) -> tuple[str, float, str]:
    """The row's outcome (killed, survived or error), its seconds and pytest's last line."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        try:
            apply(row, Path(tmp))
        except ValueError as exc:
            return "error", time.perf_counter() - start, str(exc)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *row["tests"]]
        try:
            done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "error", time.perf_counter() - start, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    return outcome, time.perf_counter() - start, lines[-1] if lines else done.stderr.strip()[-200:]


def main() -> int:
    rows = load_rows()
    start = time.perf_counter()
    tally = {"killed": 0, "survived": 0, "error": 0}
    for i, row in enumerate(rows):
        outcome, seconds, last = run_row(row)
        tally[outcome] += 1
        print(f"{i:3d} {outcome:8s} {seconds:6.1f} s  {row['file']}: {row['old'].strip()[:60]!r}  ({last})", flush=True)
    total = time.perf_counter() - start
    print(f"{tally['killed']} killed, {tally['survived']} survived, {tally['error']} errors in {total:.1f} s")
    return 0 if tally["killed"] == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
