"""Set-up, verification, passes and the statistics behind every metric.

Noise hygiene, in one place (the numbers that motivated each rule are in
README.md):

* one fresh interpreter per workload, ``PYTHONHASHSEED`` pinned by
  ``run.py`` (loads do not depend on the hash seed; timings do);
* no threads: the open-loop generator and the server are one thread,
  and the generator spins on the clock, never sleeps (see ``run_pass``);
* every clock read is in this directory, none under ``src/``;
* ``gc.collect()`` between passes, the interpreter's default collector
  inside timed windows (the collector is part of what a request costs);
* one untimed warm-up pass before the timed ones;
* a cold pass re-registers *fresh* ``Relation`` objects, built outside the
  timed window from the rows read at set-up, so no ``Relation``-level or
  substrate cache survives from the pass before; the plan revalidates
  (same statistics), so pricing is in ``setup_s``, not in ``pass_s``.
"""

from __future__ import annotations

import gc
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import Engine, Relation
from repro.io import read_relation_csv, write_relation_csv
from repro.ram import group_by_count, join_size, yannakakis
from repro.theory import l_instance, theorem7_bound

from decks import Deck, Request

clock = time.perf_counter

# ----------------------------------------------------------------------
# Inputs on disk, set-up
# ----------------------------------------------------------------------
def write_csvs(deck: Deck, directory: Path) -> dict[str, list[Path]]:
    """The deck as ``<relation>.<variant>.csv`` files (overwritten)."""
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict[str, list[Path]] = {}
    for name, (attrs, variants) in deck.relations.items():
        paths[name] = []
        for k, rows in enumerate(variants):
            path = directory / f"{name}.{k}.csv"
            write_relation_csv(Relation(name, attrs, rows), path)
            paths[name].append(path)
    return paths


@dataclass
class Setup:
    engine: Engine
    relations: dict[str, list[Relation]]   # as read, per variant
    read_s: float = 0.0
    register_s: float = 0.0
    prepare_s: float = 0.0
    total_s: float = 0.0


def setup_once(deck: Deck, paths: dict[str, list[Path]], **engine_kwargs: Any) -> Setup:
    """What ``setup_s`` times: read the CSVs, build an engine on the
    serial backend, register variant 0 of everything, prepare (price)
    every distinct query."""
    t0 = clock()
    relations = {
        name: [read_relation_csv(p, name=name) for p in variants]
        for name, variants in paths.items()
    }
    t1 = clock()
    engine = Engine(deck.p, "serial", **engine_kwargs)
    for name, variants in relations.items():
        engine.register(variants[0], name=name)
    t2 = clock()
    for query in deck.queries:
        engine.prepare(query)
    t3 = clock()
    return Setup(engine, relations, t1 - t0, t2 - t1, t3 - t2, t3 - t0)


def fresh(setup: Setup, name: str, variant: int = 0) -> Relation:
    """A new ``Relation`` over the rows read at set-up (no cache carried)."""
    rel = setup.relations[name][variant]
    return Relation(name, rel.attrs, rel.rows)


def reload(setup: Setup) -> None:
    """Make the next execution of every query cold: fresh relations, all
    at variant 0, then a full collection so the pass starts clean."""
    for name in setup.relations:
        setup.engine.register(fresh(setup, name), name=name)
    gc.collect()


# ----------------------------------------------------------------------
# Verification: what a response must equal
# ----------------------------------------------------------------------
def cells_of(deck: Deck, requests: list[Request]) -> list[tuple[str, str, dict[str, int]]]:
    """Distinct ``(key, query, variants)`` a pass over ``requests`` visits."""
    current = dict.fromkeys(deck.relations, 0)
    seen: dict[str, tuple[str, str, dict[str, int]]] = {}
    for q in deck.queries:
        seen[deck.cell(q, current)] = (deck.cell(q, current), q, dict(current))
    for req in requests:
        if req.swap is not None:
            current[req.swap[0]] = req.swap[1]
        key = deck.cell(req.query, current)
        if key not in seen:
            seen[key] = (key, req.query, dict(current))
    return list(seen.values())


def verify(deck: Deck, setup: Setup, requests: list[Request]) -> dict[str, Any]:
    """One untimed cold execution per cell, compared with RAM Yannakakis.

    Full joins must produce exactly the oracle's row set (no duplicates);
    group-by counts the oracle's groups and values; total counts the
    oracle's join size.  Returns the ``(output_size, load)`` pair each
    timed response is later checked against, plus the simulated numbers
    (``load_L``, ``optimality_gap`` and the ledger/theory counts), which
    are properties of the deck, not of a timing.

    Raises ``AssertionError`` on the first mismatch.
    """
    engine = setup.engine
    registered = dict.fromkeys(deck.relations, 0)
    expected: dict[str, list[int]] = {}
    sim = dict.fromkeys(
        ("load_L", "cluster.steps", "cluster.total_units", "cluster.max_step_load",
         "theory.bound_units", "theory.l_instance_units"), 0.0,
    )
    gap = 0.0
    for key, query, variants in cells_of(deck, requests):
        for name, variant in variants.items():
            if registered[name] != variant:
                engine.register(fresh(setup, name, variant), name=name)
                registered[name] = variant
        res = engine.execute(query)
        if res.metrics.result_cached or res.metrics.plan_replayed:
            raise AssertionError(f"verification run of {key} was not cold")
        parsed = res.prepared.parsed
        instance = engine.instance_for(parsed)
        if parsed.kind == "join":
            rows = res.rows()
            want = yannakakis(instance)
            if res.relation.attrs != want.attrs:
                raise AssertionError(f"{key}: schema {res.relation.attrs} != {want.attrs}")
            if len(rows) != len(want) or set(rows) != set(want.rows):
                raise AssertionError(
                    f"{key}: {len(rows)} rows ({len(set(rows))} distinct), oracle has {len(want)}"
                )
        elif parsed.output_attrs:
            by = tuple(sorted(parsed.output_attrs))
            got = dict(zip(res.relation.rows, res.relation.annotations))
            if res.relation.attrs != by or got != group_by_count(instance, by):
                raise AssertionError(f"{key}: group-by counts differ from the oracle")
        elif res.scalar != join_size(instance):
            raise AssertionError(f"{key}: count {res.scalar} != oracle {join_size(instance)}")
        if res.output_size < 1 and parsed.kind == "join":
            raise AssertionError(f"{key}: empty join, the deck is mis-sized")
        expected[key] = [res.output_size, res.report.load]

        if not any(variants.values()):
            # Variant-0 cell of each distinct query: the deck's ledger.
            report = res.report
            sim["load_L"] += report.load
            sim["cluster.steps"] += report.steps
            sim["cluster.total_units"] += report.total
            sim["cluster.max_step_load"] = max(sim["cluster.max_step_load"], report.max_step_load)
            if query in deck.full_joins:
                n_in, n_out = instance.input_size, res.output_size
                lower = l_instance(parsed.query, instance, deck.p)
                if res.prepared.algorithm == "rhierarchical":
                    bound = n_in / deck.p + lower          # Theorem 3
                else:
                    bound = theorem7_bound(n_in, n_out, deck.p)
                sim["theory.bound_units"] += bound
                sim["theory.l_instance_units"] += lower
                gap = max(gap, report.load / bound)
    sim["optimality_gap"] = gap
    return {"cells": expected, "sim": sim}


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class Served:
    latency: float          # completion - due
    service: float          # completion - issue
    late: float | None      # issue - due, when the server was idle at due
    cold: bool
    repriced: bool
    ok: bool


def closed_loop(deck: Deck) -> list[Request]:
    """One cold-deck pass: every distinct query once, one client."""
    return [Request(due=None, query=q, swap=None) for q in deck.queries]


def cold_pass_s(setup: Setup, deck: Deck, expected: dict[str, list[int]]) -> float:
    """Busy seconds of one cold pass over the deck's distinct queries."""
    reload(setup)
    return sum(s.service for s in run_pass(setup, deck, closed_loop(deck), expected))


def run_pass(
    setup: Setup,
    deck: Deck,
    requests: list[Request],
    expected: dict[str, list[int]],
    realtime: bool = True,
    require_cold: bool = False,
    rec: Any = None,
) -> list[Served]:
    """Serve ``requests`` once on ``setup.engine``, single-threaded.

    A request with a ``due`` time (and ``realtime``) is issued at that
    time or as soon as the server is free, whichever is later.  Latency
    runs from the due time, so waiting behind an earlier request counts.
    Without a due time the loop is closed: a request is due when the
    previous one completes.  A swap is part of its request (register,
    then execute).

    The open-loop generator spins on the clock until the due time and
    never sleeps.  A vCPU that slept comes back slow, by an amount that is
    the host's and not the program's: with a generator sleeping to 1 ms
    before due, identical runs differed by 30 % in busy seconds; spinning,
    they agreed within 4 %.

    The timed window ends when the response's rows are in hand
    (``res.rows()``): a warm response is lazy column blocks until someone
    decodes them, and a result nobody reads has not been served.  Each
    response is then checked in O(1) against the verified cell: output
    size, row count, load, and (``require_cold``) that neither the result
    cache nor plan replay served it.  An exception counts as failed.
    """
    engine = setup.engine
    current = dict.fromkeys(deck.relations, 0)
    swaps = {
        i: fresh(setup, *req.swap) for i, req in enumerate(requests) if req.swap is not None
    }
    served: list[Served] = []
    start = done = clock()
    for i, req in enumerate(requests):
        if realtime and req.due is not None:
            due = start + req.due
            was_idle = done <= due
            while clock() < due:
                pass
        else:
            due, was_idle = done, True
        if rec is not None:
            rec.request = i
        issued = clock()
        try:
            if req.swap is not None:
                engine.register(swaps[i], name=req.swap[0])
                current[req.swap[0]] = req.swap[1]
            res = engine.execute(req.query)
            rows = res.rows()       # a result nobody reads is not served
        except Exception as exc:  # noqa: BLE001 - a failed request is a data point
            done = clock()
            print(f"request {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            served.append(Served(done - due, done - issued, None, False, False, False))
            continue
        done = clock()
        m = res.metrics
        cold = not (m.result_cached or m.plan_replayed)
        ok = (
            [res.output_size, res.report.load] == expected.get(deck.cell(req.query, current))
            and (res.relation is None or len(rows) == res.output_size)
            and (cold or not require_cold)
        )
        served.append(Served(
            done - due, done - issued, issued - due if was_idle else None,
            cold, not m.plan_reused, ok,
        ))
    if rec is not None:
        rec.request = -1
    return served
