"""Engine vs one-shot parity on the conformance grid, under every backend.

The engine's central invariant: running a prepared plan on the warm
cluster (reused distributed relations, warm substrate caches, ledger
reset per query) must be observationally identical to the one-shot entry
points — **bit-identical outputs** (same rows, same order, same per-server
parts) and a **bit-identical LoadReport** (every field of ``as_dict()``).

Each cell is checked cold (first execution, plan compile) *and* warm
(second execution, cache hit) — the warm pass exercises the substrate's
sorted-run/encoding caches on the reused relations, guarding the exact
ledger-replay contract across queries.
"""

from __future__ import annotations

import pytest

from repro.core.runner import mpc_join, mpc_join_aggregate, mpc_join_project
from repro.data.generators import (
    add_dangling,
    forest_instance,
    line_trap_instance,
    random_instance,
    star_instance,
)
from repro.engine import Engine, parse_query
from repro.mpc.backends import available_backends
from repro.query import catalog
from repro.semiring import COUNT

BACKENDS = available_backends()


def _query_text(instance, head: str) -> str:
    """Datalog text whose positional bindings reproduce ``instance``."""
    body = ", ".join(
        f"{name}({','.join(rel.attrs)})"
        for name, rel in instance.relations.items()
    )
    return f"{head} :- {body}"


def _full_head(instance) -> str:
    attrs = sorted(instance.query.attributes)
    return f"Q({','.join(attrs)})"


# Each cell: name -> (instance factory, head builder, expected kind)
def _binary_uniform():
    q = catalog.binary_join()
    return random_instance(q, 240, 25, seed=7)


def _line3_trap():
    return line_trap_instance(3, 300, 1500, doubled=True)


def _fork_uniform():
    return random_instance(catalog.fork_join(), 160, 8, seed=17)


def _rhier_skewed():
    return forest_instance(catalog.q2_hierarchical(), fanout=2, skew=3.0)


def _star_dangling():
    return add_dangling(star_instance(3, 4, 4), 40, seed=19)


CELLS = {
    "binary/uniform/full": (_binary_uniform, _full_head, "join"),
    "line3/trap/full": (_line3_trap, _full_head, "join"),
    "acyclic/uniform/full": (_fork_uniform, _full_head, "join"),
    "rhier/skewed/full": (_rhier_skewed, _full_head, "join"),
    "star/dangling/full": (_star_dangling, _full_head, "join"),
    "line3/uniform/project": (
        lambda: random_instance(catalog.line3(), 200, 10, seed=31),
        lambda inst: "Q(A,B)",
        "project",
    ),
    "line3/uniform/groupby-count": (
        lambda: random_instance(catalog.line3(), 200, 10, seed=23),
        lambda inst: "Q(B; count)",
        "aggregate",
    ),
    "binary/uniform/total-count": (
        lambda: random_instance(catalog.binary_join(), 260, 18, seed=29),
        lambda inst: "Q(; count)",
        "aggregate",
    ),
}

P = 6


def _engine_for(instance, backend: str, result_cache: bool = False) -> Engine:
    engine = Engine(p=P, backend=backend, result_cache=result_cache)
    for rel in instance.relations.values():
        engine.register(rel)
    return engine


def _one_shot(parsed, instance, algorithm, plan, backend):
    """The one-shot entry point matching a parsed query's kind."""
    if parsed.kind == "join":
        res = mpc_join(
            parsed.query, instance, p=P, algorithm=algorithm,
            plan=plan, backend=backend,
        )
        payload = {
            "attrs": res.relation.attrs,
            "parts": [list(part) for part in res.relation.parts],
        }
        return payload, res.report.as_dict()
    if parsed.kind == "project":
        res = mpc_join_project(
            parsed.query, parsed.output_attrs, instance, p=P,
            algorithm=algorithm, backend=backend,
        )
    else:
        annotated = instance.with_uniform_annotations(COUNT)
        res = mpc_join_aggregate(
            parsed.query, parsed.output_attrs, annotated, COUNT, p=P,
            algorithm=algorithm, backend=backend,
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


def _engine_payload(res):
    if res.metrics.kind == "join":
        return {
            "attrs": res.relation.attrs,
            "parts": [list(part) for part in res.relation.parts],
        }
    return {
        "scalar": res.scalar,
        "rows": None if res.relation is None else list(res.relation.rows),
        "annotations": (
            None if res.relation is None
            else list(res.relation.annotations or ())
        ),
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cell", sorted(CELLS), ids=sorted(CELLS))
def test_engine_matches_one_shot(cell, backend):
    make, head, kind = CELLS[cell]
    instance = make()
    engine = _engine_for(instance, backend)
    text = _query_text(instance, head(instance))
    parsed = parse_query(text)
    assert parsed.kind == kind

    cold = engine.execute(text)
    bound = engine.instance_for(parsed)
    # The engine's positional rebinding must reproduce the generator's data.
    assert {n: r for n, r in bound.relations.items()} == instance.relations

    ref_payload, ref_ledger = _one_shot(
        parsed, bound, cold.prepared.algorithm,
        cold.prepared.plan_order, backend,
    )
    assert _engine_payload(cold) == ref_payload, f"cold outputs differ: {cell}"
    assert cold.report.as_dict() == ref_ledger, f"cold ledger differs: {cell}"

    # Cold re-drive (result cache off): the algorithms re-run over warm
    # plan, distribution and substrate caches and must reproduce outputs
    # and ledger exactly.
    warm = engine.execute(text)
    assert warm.metrics.cache_hit and not warm.metrics.result_cached
    assert _engine_payload(warm) == ref_payload, f"warm outputs differ: {cell}"
    assert warm.report.as_dict() == ref_ledger, f"warm ledger differs: {cell}"

    # Cached serving (result cache on): the recorded execution is replayed
    # and must equal the same one-shot reference bit for bit.
    serving = _engine_for(instance, backend, result_cache=True)
    serving.execute(text)
    hit = serving.execute(text)
    assert hit.metrics.result_cached
    assert _engine_payload(hit) == ref_payload, f"cached outputs differ: {cell}"
    assert hit.report.as_dict() == ref_ledger, f"cached ledger differs: {cell}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_prepared_yannakakis_plan_replays_identically(backend):
    instance = _fork_uniform()
    engine = _engine_for(instance, backend)
    text = _query_text(instance, _full_head(instance))
    parsed = parse_query(text)
    entry = engine.prepare(text, algorithm="yannakakis")
    res = engine.execute(text, algorithm="yannakakis")
    one = mpc_join(
        parsed.query, engine.instance_for(parsed), p=P,
        algorithm="yannakakis", plan=entry.plan_order, backend=backend,
    )
    assert res.relation.attrs == one.relation.attrs
    assert res.relation.parts == one.relation.parts
    assert res.report.as_dict() == one.report.as_dict()


@pytest.mark.parametrize("backend", BACKENDS)
def test_ledger_isolated_between_queries(backend):
    """A query's report reflects only its own execution on the warm cluster."""
    instance = _binary_uniform()
    engine = _engine_for(instance, backend)
    text = _query_text(instance, _full_head(instance))
    first = engine.execute(text)
    for _ in range(3):
        again = engine.execute(text)
        assert not again.metrics.result_cached
        assert again.report.as_dict() == first.report.as_dict()
