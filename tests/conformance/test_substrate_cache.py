"""Substrate cache invalidation under interleaved and worker-local use.

The substrate keeps three caches (key encodings, sorted runs, and — under
the multiprocess backend — worker-local memoized decorate+sort results).
These tests drive randomized *interleavings* of cached and cache-bypassed
primitive calls on every registered backend and demand that the bypassed
reference path and the cached path agree call-for-call on outputs and on
the final ledger, no matter the interleaving or the backend executing the
per-part work.

This is the property PR 1 established for the serial path, extended to
arbitrary schedules and to backends whose caches live in *other
processes*: a worker memo entry may only ever be a bit-identical stand-in
for recomputation, and ``cache_disabled()`` must bypass worker memos too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.mpc import Cluster, cache_disabled, distribute_relation
from repro.mpc.backends import available_backends
from repro.mpc.primitives import (
    attach_degrees,
    count_by_key,
    search_rows,
    semi_join,
)

#: The operations the schedule interleaves: (name, callable(group, rel, flt, step)).
OPS = (
    ("count_b", lambda g, rel, flt, i: count_by_key(g, rel, ("B",), f"c{i}")),
    ("count_a", lambda g, rel, flt, i: count_by_key(g, rel, ("A",), f"a{i}")),
    ("degrees", lambda g, rel, flt, i: attach_degrees(g, rel, ("B",), f"d{i}")),
    # line 3's lookup: a degree table searched on the run that counted it.
    ("lookup", lambda g, rel, flt, i: search_rows(
        g, rel, ("B",), count_by_key(g, rel, ("B",), f"t{i}"), f"l{i}"
    )),
    ("semijoin", lambda g, rel, flt, i: semi_join(g, rel, flt, f"s{i}").parts),
)


def _relations(n_rows: int):
    rows = [(i % 7, (i * 13) % 5) for i in range(n_rows)]
    rows += [(f"k{i % 3}", (i * 7) % 5) for i in range(n_rows // 3)]
    rel = Relation("R", ("A", "B"), rows)
    flt = Relation("F", ("B", "C"), [(b, 0) for b in range(0, 5, 2)])
    return rel, flt


def _execute(backend: str, schedule: tuple[tuple[int, bool], ...], n_rows: int):
    """Run a schedule of (op_index, bypass?) calls; collect outputs + ledger."""
    cluster = Cluster(4, backend=backend)
    group = cluster.root_group()
    rel_ram, flt_ram = _relations(n_rows)
    rel = distribute_relation(rel_ram, group)
    flt = distribute_relation(flt_ram, group)
    outputs = []
    for i, (op_idx, bypass) in enumerate(schedule):
        _name, op = OPS[op_idx % len(OPS)]
        if bypass:
            with cache_disabled():
                outputs.append(op(group, rel, flt, i))
        else:
            outputs.append(op(group, rel, flt, i))
    return outputs, cluster.snapshot().as_dict()


@pytest.mark.parametrize("backend", available_backends())
@settings(max_examples=15, deadline=None)
@given(
    schedule=st.lists(
        st.tuples(st.integers(0, len(OPS) - 1), st.booleans()),
        min_size=2,
        max_size=8,
    ).map(tuple),
)
def test_interleaved_cached_and_bypassed_calls_agree(backend, schedule):
    """Cached/bypassed interleavings return what an all-bypass run returns.

    The all-bypass schedule is the reference (every call recomputes from
    scratch); the drawn schedule mixes cache hits, misses, and bypasses in
    arbitrary order.  Outputs must match call-for-call and the final
    ledgers must be identical — the sorted-run cache replays its exact
    communication, so even `steps`/`by_label` cannot drift.
    """
    reference = tuple((op, True) for op, _ in schedule)
    ref_out, ref_ledger = _execute(backend, reference, n_rows=60)
    got_out, got_ledger = _execute(backend, schedule, n_rows=60)
    assert got_out == ref_out
    assert got_ledger == ref_ledger


@pytest.mark.parametrize("backend", available_backends())
def test_fresh_relation_same_content_is_not_stale(backend):
    """Content-identical but *fresh* relations must not see stale results.

    Worker-local memoization is content-addressed, so a fresh DistRelation
    with the same rows legitimately hits the memo — but a relation with
    *different* rows (same shape, same name) must never be served another
    relation's cached arrangement.
    """
    cluster = Cluster(4, backend=backend)
    group = cluster.root_group()
    rel_a = distribute_relation(
        Relation("R", ("A", "B"), [(i % 5, i % 3) for i in range(40)]), group
    )
    first = count_by_key(group, rel_a, ("B",), "warm")
    # Same content, fresh object: must equal the first result exactly.
    rel_b = distribute_relation(
        Relation("R", ("A", "B"), [(i % 5, i % 3) for i in range(40)]), group
    )
    assert count_by_key(group, rel_b, ("B",), "warm") == first
    # Different content, same name/schema/sizes: must differ accordingly.
    rel_c = distribute_relation(
        Relation("R", ("A", "B"), [(i % 5, (i + 1) % 3) for i in range(40)]),
        group,
    )
    shifted = count_by_key(group, rel_c, ("B",), "warm")
    flat_c = sorted(kv for part in shifted for kv in part)
    # The decisive check: totals per key match a direct recount.
    from collections import Counter

    expected = Counter(row[1] for part in rel_c.parts for row in part)
    got = {k[0]: c for k, c in flat_c}
    assert got == dict(expected)
