"""Tests for the parallel-packing primitive."""

import random

import pytest

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
