"""Tests for the parallel-packing primitive."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError
from repro.mpc import Cluster
from repro.mpc.packing import parallel_packing


def spread(items, p):
    return [list(items[i::p]) for i in range(p)]


class TestParallelPacking:
    @pytest.mark.parametrize("p,n", [(1, 5), (4, 100), (8, 500), (16, 37)])
    def test_invariants(self, p, n):
        rng = random.Random(p * 1000 + n)
        items = [(f"i{i}", rng.uniform(0.001, 1.0)) for i in range(n)]
        cl = Cluster(p)
        assign, n_groups = parallel_packing(cl.root_group(), spread(items, p))
        w_of = dict(items)
        weights: dict[int, float] = {}
        seen = set()
        for part in assign:
            for iid, gid in part:
                assert iid not in seen
                seen.add(iid)
                weights[gid] = weights.get(gid, 0.0) + w_of[iid]
        # Every item assigned exactly once.
        assert seen == set(w_of)
        # Group capacity.
        assert all(w <= 1.0 + 1e-9 for w in weights.values())
        # All but at most one group at least half full (paper Section 2).
        assert sum(1 for w in weights.values() if w < 0.5) <= 1
        # Group count bound: m <= 1 + 2 * total weight.
        total = sum(w_of.values())
        assert n_groups == len(weights) <= 1 + 2 * total

    def test_all_heavy_items(self):
        items = [(i, 0.9) for i in range(20)]
        cl = Cluster(4)
        assign, n_groups = parallel_packing(cl.root_group(), spread(items, 4))
        assert n_groups == 20  # each heavy item in its own group

    def test_all_tiny_items(self):
        items = [(i, 0.01) for i in range(100)]
        cl = Cluster(4)
        _assign, n_groups = parallel_packing(cl.root_group(), spread(items, 4))
        assert n_groups <= 1 + 2 * 1.0 + 4  # ~1 unit of weight total

    def test_invalid_weight_raises(self):
        cl = Cluster(2)
        with pytest.raises(AllocationError):
            parallel_packing(cl.root_group(), [[("x", 1.5)], []])
        with pytest.raises(AllocationError):
            parallel_packing(cl.root_group(), [[("x", 0.0)], []])

    def test_empty(self):
        cl = Cluster(2)
        assign, n_groups = parallel_packing(cl.root_group(), [[], []])
        assert n_groups == 0
        assert all(not part for part in assign)

    def test_coordinator_load_is_bounded(self):
        p = 8
        items = [(i, 0.4) for i in range(800)]
        cl = Cluster(p)
        parallel_packing(cl.root_group(), spread(items, p))
        # Only O(p) coordination traffic: no data item ever moves.
        assert cl.snapshot().load <= 4 * p


@st.composite
def split_weights(draw):
    """Random weights on ``p`` servers, split at random: some draws put
    most items on one server, so its full bins pass the cap."""
    p = draw(st.integers(1, 8))
    weights = draw(st.lists(st.floats(0.001, 1.0, allow_nan=False), max_size=80))
    crowded = draw(st.integers(0, p - 1))
    servers = draw(st.lists(
        st.one_of(st.integers(0, p - 1), st.just(crowded)),
        min_size=len(weights), max_size=len(weights),
    ))
    parts = [[] for _ in range(p)]
    for i, (w, server) in enumerate(zip(weights, servers)):
        parts[server].append((i, w))
    return parts


class TestPlacement:
    """Each group's server, as :func:`parallel_packing`'s docstring bounds it."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(split_weights())
    def test_servers_keep_their_bins_up_to_the_cap(self, parts):
        p = len(parts)
        assign, n_groups = parallel_packing(Cluster(p).root_group(), parts)
        cap = math.ceil(n_groups / p)
        weight_of = {i: w for part in parts for i, w in part}
        placed: dict[int, int] = {}
        sources: dict[int, set[int]] = {}
        weights: dict[int, float] = {}
        for src, part in enumerate(assign):
            for item, (gid, dest) in part:
                assert 0 <= dest < p
                assert placed.setdefault(gid, dest) == dest  # one server per group
                sources.setdefault(gid, set()).add(src)
                weights[gid] = weights.get(gid, 0.0) + weight_of[item]
        assert sorted(placed) == list(range(n_groups))
        # O(1) groups per server in all: at most the cap plus one leftover.
        held = [0] * p
        for dest in placed.values():
            held[dest] += 1
        assert max(held, default=0) <= cap + 1
        for server in range(p):
            # A server's full bins: its own items only, weight >= 1/2 (a
            # leftover group is partial bins, each < 1/2, of one or more
            # servers).  The first ``cap`` stay on it, the rest leave.
            full = sorted(
                gid for gid, srcs in sources.items()
                if srcs == {server} and weights[gid] >= 0.5 - 1e-9
            )
            kept = [gid for gid in full if placed[gid] == server]
            assert kept == full[:cap]
