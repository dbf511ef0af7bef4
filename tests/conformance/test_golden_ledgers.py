"""Golden ledgers: the conformance grid pinned *across commits*.

The grid in ``test_conformance_grid.py`` compares backends at one commit,
so a refactor that moves the ledger on every backend at once passes it.
``golden_ledgers.json`` freezes, for every grid cell at quick size on the
serial backend, the full :class:`~repro.mpc.cluster.LoadReport` and a
digest of the per-part outputs; this test demands equality.

The file changes only when a PR *means* to move simulated load.
Regenerate with
``PYTHONPATH=src python -m tests.conformance.test_golden_ledgers --write``
and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from tests.conformance import conftest as grid
from tests.conformance.conftest import GRID, REFERENCE, ledger_diff

GOLDEN_PATH = Path(__file__).with_name("golden_ledgers.json")


def _freeze(cell: grid.Cell) -> dict:
    """One cell at quick size on serial: ledger + output digest."""
    was_quick = grid.QUICK
    grid.QUICK = True
    try:
        outputs, ledger = cell.run(REFERENCE)
    finally:
        grid.QUICK = was_quick
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    # Through JSON so tuples/lists compare the way the stored file reads.
    return json.loads(json.dumps({"ledger": ledger, "outputs_sha256": digest}))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_grid(golden):
    assert sorted(golden) == sorted(c.name for c in GRID)


@pytest.mark.parametrize("cell", GRID, ids=[c.name for c in GRID])
def test_ledger_and_outputs_match_golden(cell, golden):
    want = golden[cell.name]
    got = _freeze(cell)
    assert got["ledger"] == want["ledger"], (
        f"ledger moved on {cell.name}:\n"
        + ledger_diff(want["ledger"], got["ledger"])
    )
    assert got["outputs_sha256"] == want["outputs_sha256"], (
        f"per-part outputs moved on {cell.name}"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.conformance.test_golden_ledgers --write")
    frozen = {cell.name: _freeze(cell) for cell in GRID}
    GOLDEN_PATH.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(frozen)} cells to {GOLDEN_PATH}")
