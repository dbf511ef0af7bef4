"""O(1)-round accounting on the conformance grid (paper Section 1.1).

Every top-level algorithm in the grid is an O(1)-round algorithm: the
number of ledger steps it performs must be bounded by a constant that
depends only on the query shape and ``p`` — never on the instance size.
Two checks enforce that:

* an absolute pinned bound per cell (a constant chosen ~1.5x above the
  observed count, so genuine regressions — a primitive sneaking a
  data-dependent loop of exchanges in — trip it while refactors that
  shuffle a handful of steps do not), and
* a no-growth check: doubling the instance must not increase the step
  count by more than a constant slack.

Note ``steps`` counts *ledger entries*, which is an upper bound on rounds:
independent exchanges that a real execution would merge into one round are
tallied separately (and group families tally once per member), so a
constant bound here is a strictly stronger claim than O(1) rounds.
"""

from __future__ import annotations

import pytest

from tests.conformance.conftest import GRID, reference_run

#: Pinned per-cell step ceilings (constants; see module docstring).
STEP_BOUNDS = {
    "binary/uniform/auto": 75,
    "binary/controlled/binhc": 55,
    "line3/uniform/line3": 225,
    "line3/trap/line3": 360,
    "line3/hard/acyclic": 260,
    "acyclic/uniform/acyclic": 400,
    "acyclic/uniform/yannakakis": 250,
    "rhier/skewed/rhierarchical": 420,
    "star/dangling/binhc-multiround": 100,
    "aggregate/uniform/groupby-count": 40,
    "aggregate/uniform/total-count": 17,
    "project/uniform/line3": 40,
}

#: Additive slack for the doubling check (heavy/light thresholds may
#: toggle a few sub-phase steps when degrees cross a power of two).
DOUBLING_SLACK = 8

CELL_IDS = [c.name for c in GRID]


def test_every_cell_has_a_pinned_bound():
    assert set(STEP_BOUNDS) == {c.name for c in GRID}


@pytest.mark.parametrize("cell", GRID, ids=CELL_IDS)
def test_steps_below_pinned_constant(cell):
    _out, ledger = reference_run(cell)
    bound = STEP_BOUNDS[cell.name]
    assert ledger["steps"] <= bound, (
        f"{cell.name}: {ledger['steps']} ledger steps exceed the pinned "
        f"O(1) bound {bound} — did a primitive grow a data-dependent "
        f"exchange loop?"
    )


@pytest.mark.parametrize("cell", GRID, ids=CELL_IDS)
def test_steps_do_not_grow_with_instance_size(cell):
    _o1, ledger1 = reference_run(cell, scale=1)
    _o2, ledger2 = reference_run(cell, scale=2)
    assert ledger2["steps"] <= ledger1["steps"] + DOUBLING_SLACK, (
        f"{cell.name}: steps grew from {ledger1['steps']} to "
        f"{ledger2['steps']} when IN doubled — not O(1) rounds"
    )
