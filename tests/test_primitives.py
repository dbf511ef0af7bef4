"""Tests for the Section 2 MPC primitives."""

import operator
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.relation import Relation
from repro.mpc import Cluster, DistRelation, distribute_relation
from repro.errors import MPCError
from repro.mpc.primitives import (
    attach_degrees,
    carry_left,
    fold_by_key,
    global_sum,
    match_keys,
    multi_numbering,
    multi_search,
    number_sorted,
    orderable,
    sample_sort,
    semi_join,
    sum_by_key,
)
from repro.mpc.substrate import coordinator_roundtrip, sorted_run


def spread(items, p):
    return [list(items[i::p]) for i in range(p)]


class TestOrderable:
    def test_mixed_types_sortable(self):
        vals = [3, "b", None, (1, "x"), 2.5, b"z", True]
        keys = sorted(orderable(v) for v in vals)
        assert len(keys) == len(vals)

    def test_unorderable_raises(self):
        with pytest.raises(TypeError):
            orderable({"a": 1})


class TestSampleSort:
    @pytest.mark.parametrize("p", [1, 2, 5, 16])
    def test_globally_sorted(self, p):
        rng = random.Random(p)
        items = [rng.randrange(1000) for _ in range(700)]
        cl = Cluster(p)
        parts = sample_sort(cl.root_group(), spread(items, p), lambda x: x, "s")
        flat = [it for part in parts for _ok, _uid, it in part]
        assert flat == sorted(items) or sorted(flat) == sorted(items)
        # Global order: max of part i <= min of part i+1.
        keys = [[ok for ok, _u, _i in part] for part in parts]
        for a, b in zip(keys, keys[1:]):
            if a and b:
                assert a[-1] <= b[0]

    def test_balanced_under_heavy_key(self):
        """Equal keys split across servers (uid tiebreak): no server gets
        everything even when one key dominates."""
        p = 8
        items = ["heavy"] * 4000 + [f"k{i}" for i in range(100)]
        cl = Cluster(p)
        parts = sample_sort(cl.root_group(), spread(items, p), lambda x: x, "s")
        sizes = [len(part) for part in parts]
        assert max(sizes) <= 2 * (len(items) // p) + 64

    def test_empty_input(self):
        cl = Cluster(4)
        parts = sample_sort(cl.root_group(), [[], [], [], []], lambda x: x, "s")
        assert all(not part for part in parts)

    def test_load_linear(self):
        p = 8
        n = 4000
        items = list(range(n))
        cl = Cluster(p)
        sample_sort(cl.root_group(), spread(items, p), lambda x: x, "s")
        # ~n/p per server plus O(p) sampling traffic.
        assert cl.snapshot().load <= 3 * (n // p) + 10 * p


class TestSumByKey:
    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_matches_reference(self, p):
        rng = random.Random(p)
        pairs = [(f"k{rng.randrange(40)}", rng.randrange(5)) for _ in range(900)]
        pairs += [("skew", 1)] * 700
        cl = Cluster(p)
        parts = sum_by_key(cl.root_group(), spread(pairs, p))
        got = {}
        for part in parts:
            for k, v in part:
                assert k not in got, "duplicate key emitted"
                got[k] = v
        expected = {}
        for k, v in pairs:
            expected[k] = expected.get(k, 0) + v
        assert got == expected

    def test_custom_operator_max(self):
        pairs = [("a", 3), ("a", 9), ("b", 1)]
        cl = Cluster(2)
        parts = sum_by_key(cl.root_group(), spread(pairs, 2), plus=max)
        got = dict(kv for part in parts for kv in part)
        assert got == {"a": 9, "b": 1}

    def test_single_spanning_key(self):
        """One key covering every server exercises the whole chain logic."""
        p = 6
        pairs = [("only", 1)] * 600
        cl = Cluster(p)
        parts = sum_by_key(cl.root_group(), spread(pairs, p))
        got = [kv for part in parts for kv in part]
        assert got == [("only", 600)]

    def test_empty(self):
        cl = Cluster(3)
        parts = sum_by_key(cl.root_group(), [[], [], []])
        assert all(not p_ for p_ in parts)


class TestMultiNumbering:
    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_consecutive_numbers_per_key(self, p):
        rng = random.Random(p)
        pairs = [(f"k{rng.randrange(6)}", i) for i in range(500)]
        cl = Cluster(p)
        parts = multi_numbering(cl.root_group(), spread(pairs, p))
        per_key = {}
        payloads = set()
        for part in parts:
            for k, payload, num in part:
                per_key.setdefault(k, []).append(num)
                payloads.add((k, payload))
        for k, nums in per_key.items():
            assert sorted(nums) == list(range(1, len(nums) + 1)), k
        assert payloads == set(pairs)

    def test_single_key_spanning_everything(self):
        p = 5
        pairs = [("x", i) for i in range(333)]
        cl = Cluster(p)
        parts = multi_numbering(cl.root_group(), spread(pairs, p))
        nums = sorted(n for part in parts for _k, _p, n in part)
        assert nums == list(range(1, 334))


class TestMultiSearch:
    @pytest.mark.parametrize("p", [1, 2, 7])
    def test_predecessor_semantics(self, p):
        rng = random.Random(p)
        ys = sorted(rng.sample(range(10000), 120))
        xs = rng.sample(range(10000), 300)
        cl = Cluster(p)
        res = multi_search(
            cl.root_group(),
            spread([(x, None) for x in xs], p),
            spread([(y, y) for y in ys], p),
        )
        import bisect

        found = {}
        for part in res:
            for xk, _xp, pk, _pv in part:
                found[xk] = pk
        for x in xs:
            i = bisect.bisect_right(ys, x)
            assert found[x] == (ys[i - 1] if i else None)

    def test_ties_resolve_to_y(self):
        cl = Cluster(2)
        res = multi_search(
            cl.root_group(),
            [[(5, "x")], []],
            [[(5, "y")], []],
        )
        rows = [r for part in res for r in part]
        assert rows == [(5, "x", 5, "y")]

    def test_no_y_gives_none(self):
        cl = Cluster(2)
        res = multi_search(cl.root_group(), [[(1, "x")], []], [[], []])
        rows = [r for part in res for r in part]
        assert rows == [(1, "x", None, None)]


class TestSemiJoin:
    def test_matches_ram(self):
        from repro.ram.joins import semi_join as ram_semi

        r1 = Relation("R1", ("A", "B"), [(i, i % 7) for i in range(200)])
        r2 = Relation("R2", ("B", "C"), [(b, 0) for b in (1, 3, 5)])
        cl = Cluster(4)
        g = cl.root_group()
        got = semi_join(g, distribute_relation(r1, g), distribute_relation(r2, g))
        assert set(got.all_rows()) == set(ram_semi(r1, r2).rows)

    def test_no_shared_attrs_empty_filter(self):
        r1 = Relation("R1", ("A",), [(1,), (2,)])
        r2 = Relation("R2", ("B",), [])
        cl = Cluster(2)
        g = cl.root_group()
        got = semi_join(g, distribute_relation(r1, g), distribute_relation(r2, g))
        assert got.total_size() == 0

    def test_no_shared_attrs_nonempty_filter(self):
        r1 = Relation("R1", ("A",), [(1,), (2,)])
        r2 = Relation("R2", ("B",), [(9,)])
        cl = Cluster(2)
        g = cl.root_group()
        got = semi_join(g, distribute_relation(r1, g), distribute_relation(r2, g))
        assert set(got.all_rows()) == {(1,), (2,)}

    def test_linear_load(self):
        n, p = 4000, 8
        r1 = Relation("R1", ("A", "B"), [(i, i % 100) for i in range(n)])
        r2 = Relation("R2", ("B", "C"), [(b, 0) for b in range(50)])
        cl = Cluster(p)
        g = cl.root_group()
        semi_join(g, distribute_relation(r1, g), distribute_relation(r2, g))
        assert cl.snapshot().load <= 4 * (n + 50) // p + 20 * p


class TestMatchKeys:
    """The equality match that ``semi_join`` and the Section 6 fold share."""

    # Mixed types: ``1``, ``True`` and ``1.0`` are one key, as in Python.
    XS = [(1,), ("b",), (True,), (2,), (None,), (0,), (2.5,), ("a",), (1.0,)]
    YS = [(True,), ("a",), (2,), (7,), (None,)]

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("xs, ys", [(XS, YS), (YS, XS)])
    def test_keys_match_exactly_where_python_equality_does(self, p, xs, ys):
        x_parts, y_parts = spread(xs, p), spread(ys, p)
        found = multi_search(
            Cluster(p).root_group(),
            [[(k, (s, j)) for j, k in enumerate(part)] for s, part in enumerate(x_parts)],
            [[(k, k) for k in part] for part in y_parts],
        )
        want = [[(xp, pk) for key, xp, pk, _ in part if pk == key] for part in found]

        x_at, y_at, cuts = match_keys(Cluster(p).root_group(), x_parts, y_parts, "m")
        ids = [(s, j) for s, part in enumerate(x_parts) for j in range(len(part))]
        flat_x = [k for part in x_parts for k in part]
        flat_y = [k for part in y_parts for k in part]
        got = [
            [(ids[i], flat_y[j]) for i, j in zip(x_at[a:b], y_at[a:b])]
            for a, b in zip(cuts, cuts[1:])
        ]
        assert got == want
        assert all(flat_x[i] == flat_y[j] for i, j in zip(x_at, y_at))
        assert sorted(x_at) == [i for i, x in enumerate(flat_x) if x in ys]

    @pytest.mark.parametrize("one, true", [(1, True), (True, 1), (1, 1.0), (1.0, True)])
    def test_semi_join_keeps_equal_keys_of_either_type(self, one, true):
        r1 = Relation("R1", ("A", "B"), [(0, one), (1, "a"), (2, 3), (3, None)])
        r2 = Relation("R2", ("B", "C"), [(true, 0), ("a", 1), (None, 2)])
        g = Cluster(2).root_group()
        got = semi_join(g, distribute_relation(r1, g), distribute_relation(r2, g))
        assert sorted(got.all_rows(), key=repr) == [(0, one), (1, "a"), (3, None)]


class TestGlobalSum:
    def test_basic(self):
        cl = Cluster(4)
        assert global_sum(cl.root_group(), [1, 2, 3, 4]) == 10

    def test_wrong_arity(self):
        cl = Cluster(4)
        with pytest.raises(MPCError):
            global_sum(cl.root_group(), [1, 2])

    def test_costs_one_gather_and_one_broadcast(self):
        p = 5
        cl = Cluster(p)
        assert global_sum(cl.root_group(), [2] * p, "gs") == 2 * p
        by_label = cl.snapshot().by_label
        assert by_label["gs/gather"] == p - 1
        assert by_label["gs/bcast"] == p - 1


class TestCoordinatorRoundtrip:
    """The one O(p) coordinator trip every stitch, carry and packing pass
    shares: ``p - 1`` units each way, replies in server order."""

    def test_replies_reach_their_servers(self):
        p = 5
        cl = Cluster(p)
        seen = []

        def compute(summaries):
            seen.append(list(summaries))
            return [10 * s for s in summaries]

        out = coordinator_roundtrip(cl.root_group(), [3, 1, 4, 1, 5], compute, "rt")
        assert seen == [[3, 1, 4, 1, 5]]  # the coordinator sees server order
        assert out == [30, 10, 40, 10, 50]
        by_label = cl.snapshot().by_label
        assert by_label["rt/gather"] == p - 1
        assert by_label["rt/reply"] == p - 1

    def test_coordinator_must_reply_to_every_server(self):
        g = Cluster(3).root_group()
        with pytest.raises(MPCError, match="reply to every server"):
            coordinator_roundtrip(g, [1, 2, 3], lambda s: s[:-1], "rt")

    def test_carry_left_hands_on_the_last_summary(self):
        """Each server gets the last non-``None`` summary to its left;
        empty servers pass the carry through."""
        p = 6
        cl = Cluster(p)
        out = carry_left(cl.root_group(), [None, "a", None, "b", None, "c"], "c")
        assert out == [None, None, "a", "a", "b", "b"]
        by_label = cl.snapshot().by_label
        assert by_label["c/gather"] == by_label["c/reply"] == p - 1


def check_one_stitch(parts, flags):
    """Run the stitch's three readers on ``R(K, U)`` (``U`` = flat position)
    and compare each with a brute-force oracle; returns the run's
    arrangement.  ``flags[u]`` is whether row ``u`` is numbered."""
    p = len(parts)
    cl = Cluster(p)
    g = cl.root_group()
    rel = DistRelation("R", ("K", "U"), parts)
    arr = sorted_run(g, rel, ("K",), "run").arr
    glob = sorted(row for part in parts for row in part)  # (key, uid) order
    assert arr.order.tolist() == [u for _k, u in glob]
    servers = [glob[lo:hi] for lo, hi in arr.slices()]
    first = {}
    for d, rows in enumerate(servers):
        for k, _u in rows:
            first.setdefault(k, d)
    degree = Counter(k for k, _u in glob)

    # Tuple concatenation is not commutative: totals must fold in order.
    folded = fold_by_key(
        g, rel, ("K",), plus=operator.add, label="f",
        values=[[(u,) for _k, u in part] for part in parts],
    )
    assert folded == [
        [((k,), tuple(u for kk, u in glob if kk == k)) for k in sorted(first)
         if first[k] == d]
        for d in range(p)
    ]
    assert attach_degrees(g, rel, ("K",), "d") == [
        [(row, degree[row[0]]) for row in rows] for rows in servers
    ]
    counted = np.array([flags[u] for _k, u in glob], bool)
    seen, want = Counter(), []
    for k, u in glob:
        seen[k] += flags[u]
        want.append(seen[k] if flags[u] else 0)
    assert number_sorted(g, arr, "n", counted) == want

    by_label = cl.snapshot().by_label
    for label in ("f", "d", "n"):
        for step in ("gather", "reply"):
            assert by_label.get(f"{label}/stitch/{step}", 0) == p - 1
    return arr


@st.composite
def stitch_instances(draw):
    """Rows ``(key, uid)`` over ``p`` sources, only ``live`` of them
    holding rows: few live sources leave trailing servers empty, and the
    one heavy key spreads over several servers, single-run inside."""
    p = draw(st.sampled_from([1, 3, 8, 16]))
    light = draw(st.lists(st.integers(1, 4), max_size=10))
    at = draw(st.integers(0, len(light)))
    counts = [*light[:at], draw(st.integers(0, 8 * p)), *light[at:]]
    keys = [k for k, c in enumerate(counts) for _ in range(c)]
    rng = draw(st.randoms(use_true_random=False))
    live = draw(st.integers(1, p))
    srcs = sorted(rng.randrange(live) for _ in keys)
    rng.shuffle(keys)
    parts = [[] for _ in range(p)]
    for s, k in zip(srcs, keys):
        parts[s].append(k)
    flat = [k for part in parts for k in part]
    uid = iter(range(len(flat)))
    parts = [[(k, next(uid)) for k in part] for part in parts]
    flags = draw(st.lists(st.booleans(), min_size=len(flat), max_size=len(flat)))
    return parts, flags


class TestOneStitch:
    """``fold_by_key``, ``attach_degrees`` and ``number_sorted`` read one
    boundary stitch: its ``(before, first, last)`` reply per server."""

    @given(stitch_instances())
    @settings(max_examples=60, deadline=None)
    def test_readers_match_the_oracle(self, inst):
        check_one_stitch(*inst)

    def test_forced_shapes(self):
        """Empty servers, a key over at least 3 servers, interior servers
        holding a single run.  Seven sources of at most 16 rows on 16
        servers sample one row each, their smallest, so the pass cuts seven
        ranges at those rows: nine servers stay empty, and key 3 spans the
        ranges of sources 1 to 5."""
        sources = [[0, 1, 2], [2] + [3] * 7, [3] * 8, [3] * 8, [3] * 8,
                   [3] * 7 + [4], [4, 5, 6]]
        keys = [k for src in sources for k in src]
        uid = iter(range(len(keys)))
        parts = [[(k, next(uid)) for k in src] for src in sources]
        parts += [[] for _ in range(16 - len(parts))]
        arr = check_one_stitch(parts, [u % 3 != 0 for u in range(len(keys))])
        held = [set(arr.ranks[lo:hi].tolist()) for lo, hi in arr.slices()]
        assert sum(not h for h in held) == 9
        spanning = [d for d, h in enumerate(held) if 3 in h]
        assert len(spanning) >= 3
        assert all(held[d] == {3} for d in spanning[1:-1])
