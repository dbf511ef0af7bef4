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
assert all(r.metrics.cache_hit for r in batch.results)

# ----------------------------------------------------------------------
# 3b. Where a cold execution's load goes (repro explain): the query runs
#     once more on a scratch cluster under a collecting tracer, and each
#     primitive prints the ledger units it posted.
# ----------------------------------------------------------------------
print("\n" + engine.explain(TWO_HOP))

# ----------------------------------------------------------------------
# 4. Data evolves: a register drops exactly what read the relation.
#    POPULARITY reads Likes: its plan entry and recording go, and the
#    next request compiles a new entry and recomputes on the fresh rows.
#    TWO_HOP reads only Follows and is still served from its recording.
# ----------------------------------------------------------------------
engine.register(
    Relation("Likes", ("user", "post"), [(u, p) for u in range(50) for p in range(u % 6)])
)
res = engine.execute(POPULARITY)
print(f"\nafter update: {res.output_size} groups "
      f"(plan-cache hit: {res.metrics.cache_hit}, "
      f"recomputed: {not res.metrics.result_cached}, {wire(res)})")
assert not res.metrics.cache_hit and not res.metrics.result_cached
untouched = engine.execute(TWO_HOP)
assert untouched.metrics.cache_hit and untouched.metrics.result_cached

print("\nsession totals:")
print(engine.stats().summary())
