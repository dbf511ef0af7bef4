"""Direct probes: the harness calls one function on the deck's data.

These are the per-layer numbers no span gives: a floor (RAM Yannakakis),
a ceiling (the stateless one-shot path), the two warm paths the "settle
the warm path" experiment compares, codec and plan-shipping costs, and
what the front door, the real tracer and a process pool add.  They move
no end-to-end metric (all four workloads run on ``serial`` with the
default engine); they exist so a change to one of these layers has a
number.  Run once per traced run, untraced.
"""

from __future__ import annotations

import gc
import statistics
from typing import Any, Callable

from repro import Engine, Relation, mpc_join, mpc_join_aggregate, parse_query
from repro.data import Instance, pack_blob, unpack_blob
from repro.mpc.backends.multiprocess import MultiprocessBackend
from repro.obs import Tracer
from repro.ram import group_by_count, join_size, yannakakis
from repro.serve import Frontdoor

from decks import Deck
from measure import Setup, clock, closed_loop, cold_pass_s, fresh, reload, run_pass, setup_once


def _timed(fn: Callable[[], Any]) -> float:
    t0 = clock()
    fn()
    return clock() - t0


def _median_of(reps: int, fn: Callable[[], Any]) -> float:
    return statistics.median(_timed(fn) for _ in range(reps))


def _warm_us(execute: Callable[[str], Any], deck: Deck, rounds: int) -> float:
    """Median microseconds per warm request, every query ``rounds`` times."""
    samples = []
    for _ in range(rounds):
        for q in deck.queries:
            samples.append(_timed(lambda: execute(q)))
    return statistics.median(samples) * 1e6


def run_probes(
    deck: Deck, paths: dict, setup: Setup, expected: dict, reference_s: float, reps: int,
) -> dict[str, float]:
    """Every probe metric.  ``reference_s`` is the untraced cold pass the
    ratios are taken against."""
    out: dict[str, float] = {}
    engine = setup.engine
    reload(setup)
    parsed = [parse_query(q) for q in deck.queries]

    # -- floor: RAM Yannakakis on the very instances the engine joins ----
    instances = [engine.instance_for(p) for p in parsed]

    def ram() -> None:
        for p, inst in zip(parsed, instances):
            if p.kind == "join":
                yannakakis(inst)
            elif p.output_attrs:
                group_by_count(inst, tuple(sorted(p.output_attrs)))
            else:
                join_size(inst)

    out["ram.yannakakis_s"] = _median_of(reps, ram)
    out["ram.sim_overhead_x"] = reference_s / out["ram.yannakakis_s"]

    # -- ceiling: what a stateless caller pays per request ---------------
    algorithms = [engine.prepare(q).algorithm for q in deck.queries]

    def one_shot() -> None:
        for text, algorithm in zip(deck.queries, algorithms):
            p = parse_query(text)
            inst = Instance(p.query, {
                b.edge: Relation(b.edge, b.variables, setup.relations[b.relation][0].rows)
                for b in p.bindings
            })
            if p.kind == "join":
                mpc_join(p.query, inst, deck.p, algorithm=algorithm, backend="serial")
            else:
                mpc_join_aggregate(
                    p.query, p.output_attrs or (),
                    inst.with_uniform_annotations(p.semiring), p.semiring, deck.p,
                    algorithm=algorithm, backend="serial",
                )

    gc.collect()
    out["engine.cold_vs_oneshot_x"] = reference_s / _median_of(reps, one_shot)

    # -- the two warm paths ---------------------------------------------
    rounds = 4 * reps
    reload(setup)
    for q in deck.queries:
        engine.execute(q)
    out["engine.warm_cached_us"] = _warm_us(engine.execute, deck, rounds)

    replayer = setup_once(deck, paths, result_cache=False)
    for q in deck.queries:
        replayer.engine.execute(q)                   # cold: traces the plan
    replays = [replayer.engine.execute(q) for q in deck.queries]
    out["engine.warm_replay_us"] = _warm_us(replayer.engine.execute, deck, rounds)
    out["plan.ops"] = sum(r.metrics.plan_ops for r in replays)
    out["plan.fused_groups"] = sum(r.metrics.fused_groups for r in replays)

    # -- plan shipping: export here, install into a second engine --------
    receiver = setup_once(deck, paths).engine
    blobs: list[bytes] = []
    out["plan.encode_ms"] = 1e3 * _timed(
        lambda: blobs.extend(engine.export_plan(q) for q in deck.queries)
    )
    out["plan.decode_ms"] = 1e3 * _timed(lambda: [receiver.install_plan(b) for b in blobs])
    out["plan.blob_bytes"] = sum(map(len, blobs))

    # -- columnar codec over the deck's base relations -------------------
    blocks = [variants[0].columns for variants in setup.relations.values()]
    packed: list[bytes] = []
    out["columns.pack_ms"] = 1e3 * _median_of(
        reps, lambda: (packed.clear(), packed.extend(pack_blob((), b) for b in blocks))
    )
    out["columns.unpack_ms"] = 1e3 * _median_of(reps, lambda: [unpack_blob(b) for b in packed])
    out["columns.packed_bytes"] = sum(map(len, packed))
    out["relation.build_ms"] = 1e3 * _median_of(
        reps, lambda: [fresh(setup, name) for name in setup.relations]
    )

    # -- front door: one replica, no batching window ---------------------
    door = Frontdoor(deck.p, replicas=1, backend="serial", batch_window=0.0)
    try:
        for name, variants in setup.relations.items():
            door.register(variants[0], name=name)
        for q in deck.queries:
            door.execute(q)
        out["frontdoor.overhead_us"] = (
            _warm_us(door.execute, deck, rounds) - out["engine.warm_cached_us"]
        )
    finally:
        door.close()

    # -- the engine's own tracer, on a cold pass -------------------------
    traced = setup_once(deck, paths, tracer=Tracer())
    plain = setup_once(deck, paths)
    out["obs.traced_overhead_x"] = (
        statistics.median(cold_pass_s(traced, deck, expected) for _ in range(reps))
        / statistics.median(cold_pass_s(plain, deck, expected) for _ in range(reps))
    )

    # -- a two-worker process pool, one cold pass: cold_reduce only -------
    # Elsewhere the two metrics read 0 (not measured): the result line
    # carries every declared name on every workload.
    out["backends.multiprocess.pass_s"] = out["backends.multiprocess.wire_bytes"] = 0.0
    if deck.name == "cold_reduce":
        backend = MultiprocessBackend(workers=2)
        try:
            pooled = Setup(Engine(deck.p, backend), setup.relations)
            reload(pooled)                      # spawns the pool, ships nothing timed
            run_pass(pooled, deck, closed_loop(deck), expected)     # ships every part, once
            out["backends.multiprocess.pass_s"] = cold_pass_s(pooled, deck, expected)
            out["backends.multiprocess.wire_bytes"] = backend.wire_stats()["bytes_shipped"]
        finally:
            backend.close()
    return out
