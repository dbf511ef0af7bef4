"""The differential conformance grid: queries x generators x backends.

Every execution backend must replay every grid cell with

* **bit-identical outputs** — not just the same row *set*: the same rows
  in the same order in the same per-server parts, and
* a **bit-identical load ledger** — ``load``, ``max_step_load``,
  ``steps``, per-server ``totals``, and the full ``by_label`` breakdown.

The serial backend is the reference; its run per cell is computed once and
cached for the whole session.  Every name in the fixed backend table
(:func:`repro.mpc.backends.available_backends`) is enrolled here.  A
backend only decides where ``run_ops`` executes — delivery and the ledger
are :class:`~repro.mpc.group.Group`'s — so the grid checks that local
compute, wherever it runs, returns what serial returns.

Set ``REPRO_CONFORMANCE=quick`` for the CI smoke variant (smaller
instances, same grid shape).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.core.runner import mpc_join, mpc_join_aggregate, mpc_join_project
from repro.data.generators import (
    add_dangling,
    binary_out_controlled,
    forest_instance,
    line_trap_instance,
    random_instance,
    star_instance,
)
from repro.data.hard_instances import line3_random_hard
from repro.mpc.backends import available_backends
from repro.query import catalog
from repro.semiring import COUNT

QUICK = os.environ.get("REPRO_CONFORMANCE", "").lower() == "quick"

#: Every backend in the table; the first is the serial reference.
BACKENDS = available_backends()
REFERENCE = "serial"
CHALLENGERS = tuple(b for b in BACKENDS if b != REFERENCE)


def _n(full: int, quick: int) -> int:
    return quick if QUICK else full


@dataclass(frozen=True)
class Cell:
    """One grid point: a query + generator + algorithm + server count.

    ``build(scale)`` regenerates the instance at a size multiplier (the
    round-bound tests compare ``scale=1`` against ``scale=2``).
    """

    name: str
    kind: str  # "join" | "aggregate" | "project"
    p: int
    build: Callable[[int], tuple]  # scale -> (query, instance, extra)

    def run(self, backend: str, scale: int = 1) -> tuple[Any, dict]:
        """Execute on a backend; return (canonical outputs, ledger dict)."""
        query, instance, extra = self.build(scale)
        if self.kind == "join":
            res = mpc_join(
                query, instance, p=self.p, algorithm=extra, backend=backend
            )
            payload = {
                "attrs": res.relation.attrs,
                "parts": [list(part) for part in res.relation.parts],
                "out": res.meta["out_size"],
            }
            return payload, res.report.as_dict()
        if self.kind == "aggregate":
            output_attrs, semiring = extra
            annotated = instance.with_uniform_annotations(semiring)
            res = mpc_join_aggregate(
                query, output_attrs, annotated, semiring, p=self.p,
                backend=backend,
            )
            payload = {
                "scalar": res.scalar,
                "rows": None if res.relation is None else list(res.relation.rows),
                "annotations": (
                    None if res.relation is None
                    else list(res.relation.annotations or ())
                ),
            }
            return payload, res.report.as_dict()
        if self.kind == "project":
            res = mpc_join_project(
                query, extra, instance, p=self.p, backend=backend
            )
            payload = {
                "rows": list(res.relation.rows),
                "attrs": res.relation.attrs,
            }
            return payload, res.report.as_dict()
        raise AssertionError(f"unknown cell kind {self.kind!r}")


def _join(name: str, p: int, algorithm: str, make) -> Cell:
    return Cell(name, "join", p, lambda s: (*make(s), algorithm))


# ----------------------------------------------------------------------
# The grid.  Generators cover uniform, skewed, dangling-heavy, and the
# paper's hard instances; queries cover binary, line-3, general acyclic,
# BinHC's degree-bucketed one-round path, and join-aggregates.
# ----------------------------------------------------------------------

def _binary_uniform(s):
    q = catalog.binary_join()
    return q, random_instance(q, _n(500, 120) * s, 25, seed=7)


def _binary_controlled(s):
    inst = binary_out_controlled(_n(600, 150) * s, _n(2400, 500) * s)
    return inst.query, inst


def _line3_uniform(s):
    q = catalog.line3()
    return q, random_instance(q, _n(300, 90) * s, 12, seed=11)


def _line3_trap(s):
    inst = line_trap_instance(3, _n(600, 150) * s, _n(3600, 800) * s, doubled=True)
    return inst.query, inst


def _line3_random_hard(s):
    inst = line3_random_hard(_n(600, 180) * s, _n(1800, 540) * s, seed=13)
    return inst.query, inst


def _fork_uniform(s):
    q = catalog.fork_join()
    return q, random_instance(q, _n(220, 70) * s, 8, seed=17)


def _rhier_skewed(s):
    q = catalog.q2_hierarchical()
    return q, forest_instance(q, fanout=2 * s, skew=3.0)


def _star_dangling(s):
    inst = add_dangling(star_instance(3, 4 * s, 4), _n(60, 20) * s, seed=19)
    return inst.query, inst


def _agg_line3(s):
    q = catalog.line3()
    return q, random_instance(q, _n(260, 80) * s, 10, seed=23), (("B",), COUNT)


def _agg_total(s):
    q = catalog.binary_join()
    return q, random_instance(q, _n(400, 110) * s, 18, seed=29), ((), COUNT)


def _project_line3(s):
    q = catalog.line3()
    return q, random_instance(q, _n(260, 80) * s, 10, seed=31), ("A", "B")


GRID: tuple[Cell, ...] = (
    _join("binary/uniform/auto", 8, "auto", _binary_uniform),
    _join("binary/controlled/binhc", 8, "binhc", _binary_controlled),
    _join("line3/uniform/line3", 8, "line3", _line3_uniform),
    _join("line3/trap/line3", 8, "line3", _line3_trap),
    _join("line3/hard/acyclic", 6, "acyclic", _line3_random_hard),
    _join("acyclic/uniform/acyclic", 8, "acyclic", _fork_uniform),
    _join("acyclic/uniform/yannakakis", 5, "yannakakis", _fork_uniform),
    _join("rhier/skewed/rhierarchical", 8, "rhierarchical", _rhier_skewed),
    _join("star/dangling/binhc-multiround", 8, "binhc-multiround", _star_dangling),
    Cell("aggregate/uniform/groupby-count", "aggregate", 8, _agg_line3),
    Cell("aggregate/uniform/total-count", "aggregate", 8, _agg_total),
    Cell("project/uniform/line3", "project", 8, _project_line3),
)

_REFERENCE_CACHE: dict[tuple[str, int], tuple[Any, dict]] = {}


def reference_run(cell: Cell, scale: int = 1) -> tuple[Any, dict]:
    """The serial-backend run for a cell, computed once per session."""
    key = (cell.name, scale)
    if key not in _REFERENCE_CACHE:
        _REFERENCE_CACHE[key] = cell.run(REFERENCE, scale)
    return _REFERENCE_CACHE[key]


def ledger_diff(ref: dict, got: dict) -> str:
    """Human-readable field-by-field delta of two LoadReport dicts."""
    lines = []
    for field in sorted(set(ref) | set(got)):
        r, g = ref.get(field), got.get(field)
        if r == g:
            continue
        if field == "by_label" and isinstance(r, dict) and isinstance(g, dict):
            for label in sorted(set(r) | set(g)):
                if r.get(label) != g.get(label):
                    lines.append(
                        f"  by_label[{label!r}]: ref={r.get(label)} got={g.get(label)}"
                    )
        else:
            lines.append(f"  {field}: ref={r} got={g}")
    return "\n".join(lines) or "  (no differing fields)"


@pytest.fixture(params=BACKENDS)
def backend(request) -> str:
    return request.param


@pytest.fixture(params=CHALLENGERS)
def challenger(request) -> str:
    return request.param


def pytest_sessionfinish(session, exitstatus):  # noqa: ARG001
    """Tear down shared worker pools so pytest exits promptly."""
    from repro.mpc.backends import shutdown_backends

    shutdown_backends()
