"""Golden units: what :func:`repro.core.planner.choose` predicts, pinned
*across commits*.

``golden_units.json`` freezes ``Choice.algorithm`` and every candidate's
``Choice.units`` on the chooser's fitted and held-out cases
(``tests/test_choose.py``'s ``CASES`` and ``HELD_OUT``, each at its own
``p``).  The pricer walks each algorithm's control flow over counts and
reads the algorithms' own routing rules, so a change to a rule, or to how
the pricer reads it, shows here as a changed integer.

The file changes only when a PR *means* to change a prediction.
Regenerate with
``PYTHONPATH=src python -m tests.conformance.test_golden_units --write``
and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.planner import choose
from tests import test_choose

GOLDEN_PATH = Path(__file__).with_name("golden_units.json")
CASES: tuple[str, ...] = (*test_choose.CASES, *test_choose.HELD_OUT)


def predicted(name: str) -> dict:
    """The chosen algorithm and every candidate's units, as stored."""
    choice = choose(*test_choose._build(name))
    return {"algorithm": choice.algorithm, "units": choice.units}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_predicted_units_match_golden(name, golden):
    assert predicted(name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.conformance.test_golden_units --write")
    out = {name: predicted(name) for name in CASES}
    GOLDEN_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cases to {GOLDEN_PATH}")
