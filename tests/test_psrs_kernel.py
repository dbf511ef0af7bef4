"""Property tests for the PSRS kernel (:func:`repro.mpc.substrate.psrs`).

The oracle is the textbook pass written out in a dozen lines: decorate
every item as ``(orderable(key), uid)``, sort, sample, pick splitters, and
route one message per item through the real :meth:`Group.exchange`.  The
kernel — index sorts, routing by slices, steps charged by count — must
produce the same arrangement, the same splitters and the same ledger.
"""

from __future__ import annotations

from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpc import Cluster
from repro.mpc.substrate import (
    coordinator_for,
    orderable,
    pick_splitters,
    psrs,
    sample_indices,
)


def oracle_pass(cluster, keys, label):
    """``sorted(items, key=(orderable(key), uid))``, cut at the splitters."""
    group = cluster.root_group()
    p = group.size
    local = [
        sorted((orderable(k), (s, j)) for j, k in enumerate(part))
        for s, part in enumerate(keys)
    ]
    if p == 1:
        return [[uid for _ok, uid in local[0]]], []
    coord = coordinator_for(group, label)
    samples = [[d[i] for i in sample_indices(len(d), p, s)] for s, d in enumerate(local)]
    flat = sorted(group.gather(samples, f"{label}/sample", dst=coord))
    splitters = pick_splitters(flat, p)
    group.broadcast(splitters, f"{label}/splitters", src=coord)
    routed = group.route(local, lambda t: bisect_right(splitters, t), f"{label}/shuffle")
    return [[uid for _ok, uid in sorted(part)] for part in routed], splitters


def check_against_oracle(p, keys, sort_keys):
    """Run the kernel on ``sort_keys``; compare with the oracle on ``keys``."""
    cluster, ref = Cluster(p), Cluster(p)
    parts, splitters, _charges = psrs(cluster.root_group(), sort_keys, "t")
    want_parts, want_splitters = oracle_pass(ref, keys, "t")

    # Per-destination membership and global (key, uid) order.
    got_parts = [list(zip(srcs, js)) for _ks, srcs, js in parts]
    assert got_parts == want_parts
    for (ks, srcs, js) in parts:
        assert ks == [sort_keys[s][j] for s, j in zip(srcs, js)]
    flat = [(orderable(keys[s][j]), (s, j)) for part in got_parts for s, j in part]
    assert flat == sorted(flat)
    assert sorted(uid for _ok, uid in flat) == [
        (s, j) for s, part in enumerate(keys) for j in range(len(part))
    ]
    # Splitters are items' (key, uid); in the oracle's key space they agree.
    by_uid = {(s, j): k for s, part in enumerate(keys) for j, k in enumerate(part)}
    assert [(orderable(by_uid[uid]), uid) for _k, uid in splitters] == want_splitters
    assert [k for k, _uid in splitters] == [sort_keys[s][j] for _k, (s, j) in splitters]
    # Sample / splitters / shuffle: charged by count == delivered by message.
    assert cluster.snapshot() == ref.snapshot()
    return parts


_ATOM = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3, allow_nan=False).map(lambda x: round(x * 2) / 2),
    st.sampled_from(["", "a", "b", "ab"]),
    st.sampled_from([b"", b"a", b"b"]),
)
_KEY = st.recursive(_ATOM, lambda inner: st.tuples(inner) | st.tuples(inner, inner), max_leaves=4)


@st.composite
def spread(draw, key):
    """``p`` parts of keys: some empty, one key heavier than ``n/p``."""
    p = draw(st.integers(min_value=1, max_value=8))
    parts = [draw(st.lists(key, max_size=12)) for _ in range(p)]
    for part in parts:
        if draw(st.booleans()):
            part.clear()
    heavy = draw(key)
    n = sum(len(part) for part in parts)
    for i in range(n // p + draw(st.integers(min_value=1, max_value=6))):
        part = parts[draw(st.integers(min_value=0, max_value=p - 1))]
        part.insert(draw(st.integers(min_value=0, max_value=len(part))), heavy)
    return p, parts


@given(spread(_KEY))
@settings(max_examples=150, deadline=None)
def test_heterogeneous_keys_take_the_orderable_key_list(inst):
    """``1``, ``True`` and ``1.0`` stay distinct items under one order."""
    p, keys = inst
    check_against_oracle(p, keys, [[orderable(k) for k in part] for part in keys])


_NUM = st.integers(min_value=-3, max_value=3) | st.sampled_from([-0.5, 0.5, 1.0, 2.0])
_TAGGED_KEY = st.tuples(_NUM, st.sampled_from(["", "a", "b", "ab"]))


@given(spread(_TAGGED_KEY))
@settings(max_examples=150, deadline=None)
def test_raw_keys_order_like_their_encodings_on_tagged_columns(inst):
    """An int/float column and a str column: the raw tuples *are* the sort
    keys, and the arrangement equals the oracle's on ``orderable``."""
    p, keys = inst
    check_against_oracle(p, keys, keys)


@pytest.mark.parametrize("p", [2, 5, 8])
def test_heavy_key_spreads_over_servers_by_uid(p):
    n = 400 * p
    keys = [[("heavy",)] * 390 + [(f"k{s}-{i}",) for i in range(10)] for s in range(p)]
    parts = check_against_oracle(p, keys, keys)
    assert max(len(ks) for ks, _s, _j in parts) <= 2 * n // p
    holders = [d for d, (ks, _s, _j) in enumerate(parts) if ("heavy",) in ks]
    assert len(holders) >= p - 1


def test_empty_input_still_charges_its_three_steps():
    parts = check_against_oracle(4, [[], [], [], []], [[], [], [], []])
    assert parts == [([], [], [])] * 4
