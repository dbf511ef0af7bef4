"""Tests for the cluster ledger and load reports."""

import pytest

from repro.errors import MPCError
from repro.mpc.cluster import Cluster


class TestTally:
    def test_basic_accounting(self):
        cl = Cluster(4)
        cl.tally_members([(0, 1, 2, 3)], [5, 3, 0, 2], "phase1")
        rep = cl.snapshot()
        assert rep.load == 5
        assert rep.totals == (5, 3, 0, 2)
        assert rep.total == 10
        assert rep.steps == 1

    def test_accumulation_across_steps(self):
        cl = Cluster(2)
        cl.tally_members([(0, 1)], [4, 1], "a")
        cl.tally_members([(0, 1)], [1, 7], "b")
        rep = cl.snapshot()
        assert rep.totals == (5, 8)
        assert rep.load == 8
        assert rep.max_step_load == 7
        assert rep.by_label == {"a": 5, "b": 8}

    def test_out_of_range_server(self):
        cl = Cluster(2)
        with pytest.raises(MPCError):
            cl.tally_members([(5,)], [1], "x")

    def test_negative_count(self):
        cl = Cluster(2)
        with pytest.raises(MPCError):
            cl.tally_members([(0,)], [-1], "x")

    def test_length_mismatch(self):
        cl = Cluster(2)
        with pytest.raises(MPCError):
            cl.tally_members([(0, 1)], [1], "x")

    def test_reset(self):
        cl = Cluster(2)
        cl.tally_members([(0, 1)], [3, 4], "x")
        before = cl.epoch
        cl.reset()
        rep = cl.snapshot()
        assert rep.load == 0 and rep.steps == 0
        # A reset ledger is a new execution; no two ever share an epoch.
        assert len({before, cl.epoch, Cluster(2).epoch}) == 3

    def test_invalid_p(self):
        with pytest.raises(MPCError):
            Cluster(0)


class TestReport:
    def test_average(self):
        cl = Cluster(4)
        cl.tally_members([(0, 1, 2, 3)], [4, 4, 4, 4], "x")
        assert cl.snapshot().average == 4.0

    def test_summary_mentions_load(self):
        cl = Cluster(2)
        cl.tally_members([(0, 1)], [9, 1], "shuffle")
        s = cl.snapshot().summary()
        assert "load=9" in s
        assert "shuffle" in s

    def test_root_group_spans_cluster(self):
        cl = Cluster(5)
        g = cl.root_group()
        assert g.size == 5
        assert g.members == ((0, 1, 2, 3, 4),)
