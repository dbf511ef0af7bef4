"""Quickstart: a persistent serving session over the query engine.

Registers base relations once, then serves datalog-style query text with
prepared plans, a warm cluster, and per-query load metrics — the serving
counterpart of ``examples/quickstart.py``'s one-shot calls.

Run:  PYTHONPATH=src python examples/serving_session.py
"""

from __future__ import annotations

from repro.data.relation import Relation
from repro.engine import Engine

# ----------------------------------------------------------------------
# 1. A session with registered base relations (a tiny social graph).
# ----------------------------------------------------------------------
engine = Engine(p=8)
engine.register(
    Relation("Follows", ("src", "dst"), [(u, (u * 7 + k) % 50) for u in range(50) for k in range(3)])
)
engine.register(
    Relation("Likes", ("user", "post"), [(u, p) for u in range(50) for p in range(u % 4)])
)

# ----------------------------------------------------------------------
# 2. Text queries: full join, projection, aggregate — prepared once.
# ----------------------------------------------------------------------
TWO_HOP = "Q(A,B,C) :- Follows(A,B), Follows(B,C)"          # self-join
FEED = "Q(B,Post) :- Follows(A,B), Likes(B,Post)"           # join-project
POPULARITY = "Q(B; count) :- Follows(A,B), Likes(B,Post)"   # GROUP BY count

def wire(res):
    """Per-query physical wire bytes (0 on in-process backends — the
    columnar blobs only cross a boundary when workers exist)."""
    return f"{res.metrics.wire_bytes}B wire"


res = engine.execute(TWO_HOP)
print(f"two-hop: {res.output_size} rows, algorithm={res.metrics.algorithm}, "
      f"load={res.report.load}, {wire(res)}")
print(f"  plan order: {res.prepared.plan_order}")
print(f"  plan quality (Sec 4.1): {res.prepared.plan_quality}")

res = engine.execute(FEED)
print(f"feed: {res.output_size} rows, class={res.prepared.query_class}, "
      f"{wire(res)}")

res = engine.execute(POPULARITY)
top = sorted(
    zip(res.relation.rows, res.relation.annotations), key=lambda rw: -rw[1]
)[:3]
print(f"popularity: {res.output_size} groups, top={top}, {wire(res)}")

# ----------------------------------------------------------------------
# 3. Warm serving: the second round is all cache hits (plans + results).
# ----------------------------------------------------------------------
batch = engine.submit_batch([TWO_HOP, FEED, POPULARITY])
print("\nwarm batch:")
print(batch.stats.summary())
assert all(r.metrics.plan_reused for r in batch.results)

# ----------------------------------------------------------------------
# 3b. The physical plan a cold execution runs (repro explain), traced on
#     a scratch cluster: the serving path itself records no trace.
# ----------------------------------------------------------------------
plan = engine.trace_plan(TWO_HOP)
counts = plan.op_counts()
print(
    f"\nphysical plan for two-hop: {len(plan.ops)} ops "
    f"({counts.get('MapParts', 0)} worker-local, "
    f"{len(plan.charges())} charges, {plan.charged_units()} units)"
)

# ----------------------------------------------------------------------
# 4. Data evolves: updates invalidate exactly what they must.  The
#    recording goes (recomputed on fresh rows); the plan is re-priced in
#    RAM and kept, since the same fold order still wins on the new data.
# ----------------------------------------------------------------------
engine.register(
    Relation("Likes", ("user", "post"), [(u, p) for u in range(50) for p in range(u % 6)])
)
res = engine.execute(POPULARITY)
print(f"\nafter update: {res.output_size} groups "
      f"(plan reused: {res.metrics.plan_reused}, "
      f"recomputed: {not res.metrics.result_cached}, {wire(res)})")
assert res.metrics.plan_reused and not res.metrics.invalidated

print("\nsession totals:")
print(engine.stats().summary())
