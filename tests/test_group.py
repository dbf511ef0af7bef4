"""Tests for server groups: exchange semantics, subgroups, families, and
the row-major grid every HyperCube route addresses."""

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MPCError
from repro.mpc.cluster import Cluster
from repro.mpc.group import Grid, Group


class TestExchange:
    def test_delivery_and_counting(self):
        cl = Cluster(3)
        g = cl.root_group()
        inboxes = g.exchange([[(1, "a")], [(2, "b")], [(0, "c")]], "x")
        assert inboxes == [["c"], ["a"], ["b"]]
        assert cl.snapshot().totals == (1, 1, 1)

    def test_self_messages_free_by_default(self):
        cl = Cluster(2)
        g = cl.root_group()
        g.exchange([[(0, "keep")], []], "x")
        assert cl.snapshot().load == 0

    def test_bad_destination(self):
        cl = Cluster(2)
        g = cl.root_group()
        with pytest.raises(MPCError):
            g.exchange([[(7, "a")], []], "x")

    def test_outbox_arity_checked(self):
        cl = Cluster(2)
        g = cl.root_group()
        with pytest.raises(MPCError):
            g.exchange([[]], "x")


class TestRoutingHelpers:
    def test_hash_route_deterministic(self):
        cl = Cluster(4)
        g = cl.root_group()
        parts = [[("k%d" % i, i)] for i in range(4)]
        a = g.hash_route(parts, lambda t: t[0], "x")
        cl2 = Cluster(4)
        b = cl2.root_group().hash_route(parts, lambda t: t[0], "x")
        assert a == b

    def test_hash_route_groups_equal_keys(self):
        cl = Cluster(4)
        g = cl.root_group()
        parts = [[("k", i)] for i in range(4)]
        routed = g.hash_route(parts, lambda t: t[0], "x")
        non_empty = [p for p in routed if p]
        assert len(non_empty) == 1 and len(non_empty[0]) == 4

    def test_broadcast_costs_everyone(self):
        cl = Cluster(3)
        g = cl.root_group()
        g.broadcast(["a", "b"], "x")
        # src keeps its copy free; the other two servers pay 2 each.
        assert cl.snapshot().totals == (0, 2, 2)

    def test_gather(self):
        cl = Cluster(3)
        g = cl.root_group()
        got = g.gather([["a"], ["b"], ["c"]], "x", dst=1)
        assert sorted(got) == ["a", "b", "c"]
        assert cl.snapshot().totals == (0, 2, 0)


class TestSubgroups:
    def test_subgroup_maps_indices(self):
        cl = Cluster(6)
        g = cl.root_group()
        sub = g.subgroup([2, 4])
        sub.exchange([[(1, "z")], []], "x")
        assert cl.snapshot().totals == (0, 0, 0, 0, 1, 0)

    def test_slice(self):
        cl = Cluster(6)
        g = cl.root_group()
        assert g.slice(1, 4).members == ((1, 2, 3),)

    def test_empty_subgroup_raises(self):
        cl = Cluster(2)
        with pytest.raises(MPCError):
            cl.root_group().subgroup([])

    def test_out_of_range_subgroup(self):
        cl = Cluster(2)
        with pytest.raises(MPCError):
            cl.root_group().subgroup([5])


class TestFamilies:
    def test_family_tallies_all_members(self):
        cl = Cluster(4)
        fam = Group(cl, [(0, 1), (2, 3)])
        fam.exchange([[(1, "m")], []], "x")
        # Local server 1 of both members receives one unit.
        assert cl.snapshot().totals == (0, 1, 0, 1)

    def test_member_size_mismatch(self):
        cl = Cluster(4)
        with pytest.raises(MPCError):
            Group(cl, [(0, 1), (2,)])

    def test_grid_line_groups_2x2(self):
        cl = Cluster(4)
        g = cl.root_group()
        fams = g.grid_line_groups([2, 2])
        assert len(fams) == 2
        # Dim 0 lines: columns of the row-major 2x2 grid.
        assert set(fams[0].members) == {(0, 2), (1, 3)}
        # Dim 1 lines: rows.
        assert set(fams[1].members) == {(0, 1), (2, 3)}

    def test_grid_too_big(self):
        cl = Cluster(3)
        with pytest.raises(MPCError):
            cl.root_group().grid_line_groups([2, 2])

    def test_grid_on_family_multiplies_members(self):
        cl = Cluster(8)
        fam = Group(cl, [(0, 1, 2, 3), (4, 5, 6, 7)])
        lines = fam.grid_line_groups([2, 2])
        assert len(lines[0].members) == 4  # 2 members x 2 lines each

    def test_subgroup_of_family(self):
        cl = Cluster(4)
        fam = Group(cl, [(0, 1), (2, 3)])
        sub = fam.subgroup([1])
        assert sub.members == ((1,), (3,))


@st.composite
def grids_and_fixed(draw):
    """1-4 dimensions of size 1-4, each fixed to a coordinate or free."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    fixed = tuple(draw(st.none() | st.integers(0, d - 1)) for d in dims)
    return dims, fixed


class TestGrid:
    @given(grids_and_fixed())
    def test_cells_are_the_row_major_enumeration(self, case):
        dims, fixed = case
        grid = Grid(dims)
        # Brute force: number every coordinate tuple in row-major order
        # (the last dimension fastest) and keep those that match.
        expected = tuple(
            cell
            for cell, coords in enumerate(itertools.product(*map(range, dims)))
            if all(f is None or f == c for f, c in zip(fixed, coords))
        )
        assert grid.cells(fixed) == expected
        assert grid.cells(fixed) is grid.cells(fixed)  # memoised
        assert grid.cells((None,) * len(dims)) == tuple(range(math.prod(dims)))
