"""The mutation table stays runnable: every row's text is in the source once, every test it names exists.

``mutation/run.py`` applies each row of ``mutation/rows.json`` to a copy
of ``src/`` and runs the row's tests, which must fail.  That run is not
part of this suite; these checks are, so that a change which moves a
row's text or renames its test has to update the row and cannot leave it
behind unnoticed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROWS = json.loads((ROOT / "mutation" / "rows.json").read_text(encoding="utf-8"))


def test_every_row_has_its_fields():
    assert ROWS
    for row in ROWS:
        assert set(row) == {"file", "old", "new", "tests", "why"}, row
        assert row["file"].startswith("src/pidlattice/") and row["old"] != row["new"], row
        assert row["tests"] and row["why"].strip(), row


@pytest.mark.parametrize("row", range(len(ROWS)))
def test_each_rows_text_occurs_once_in_its_file(row):
    file, old = ROWS[row]["file"], ROWS[row]["old"]
    assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1, f"{file}: {old!r}"


def test_each_named_test_exists():
    named = {test for row in ROWS for test in row["tests"]}
    files = sorted({test.split("::")[0] for test in named})
    command = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    collected = set(done.stdout.splitlines())
    assert sorted(named - collected) == []
