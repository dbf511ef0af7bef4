"""Tests for the performance substrate: the one key rule + sorted-run caching.

The contract under test (see DESIGN.md): the caches may only change
wall-clock time.  Outputs, loads, step-max, step counts, and per-label
ledger tallies must be bit-for-bit identical between

* the cached path and the cache-bypassed path on arbitrary instances;
* two executions (ledger epochs) of the same primitive on the same relation.

Within one execution a sorted arrangement is paid for once: the second
primitive on the same relation/keys posts only its own boundary steps.
"""

import random
from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.relation import Relation, project_row
from repro.mpc import Cluster, cache_disabled, distribute_relation
from repro.mpc.primitives import (
    attach_degrees,
    count_by_key,
    fold_by_key,
    multi_search,
    orderable,
    search_rows,
    semi_join,
)
from repro.mpc.substrate import (
    coordinator_for,
    projected_keys,
    psrs,
    rank_keys,
    sorted_run,
)


def make_rel(rows, attrs=("A", "B"), name="R"):
    return Relation(name, attrs, rows)


def dist(rel, p):
    cl = Cluster(p)
    g = cl.root_group()
    return cl, g, distribute_relation(rel, g)


def ledger_key(report):
    return (report.load, report.max_step_load, report.steps, report.totals,
            report.by_label)


def delta(before, after):
    """Per-call ledger increment between two snapshots."""
    totals = tuple(a - b for a, b in zip(after.totals, before.totals))
    labels = {
        k: v - before.by_label.get(k, 0)
        for k, v in after.by_label.items()
        if v != before.by_label.get(k, 0)
    }
    return (totals, after.steps - before.steps, labels)


INT = [(1, "a"), (2, "b"), (2, "c")]
NUM = [(1.5, "a"), (2, "b"), (-0.0, "c"), (0, "d")]
STR = [("x", "a"), ("b", "c")]
BOOL_INT = [(1, "a"), (True, "b")]
NONE = [(None, "a"), (1, "b")]
TUPLE = [((1, 2), "a"), ((0,), "b")]


@pytest.mark.parametrize("backing", ["rows", "columns"])
@pytest.mark.parametrize(
    "sides",
    [
        [(INT, (0,))],
        [(NUM, (0,))],
        [(STR, (0,))],
        [(INT, (0, 1))],
        [(BOOL_INT, (0,))],
        [(NONE, (0,))],
        [(TUPLE, (0,))],
        [(BOOL_INT, (1, 0))],
        [(INT, (0,)), (NUM, (0,))],
        [(STR, (1, 0)), (INT, (1, 1))],
        [(INT, (0,)), (STR, (0,))],
        [(INT, (0,)), (NONE, (0,))],
        [(INT, (0,)), (INT, (0, 1))],
    ],
    ids=[
        "int", "int-float", "str", "int-str", "bool-int", "none", "tuple",
        "str-bool-int", "pair-agree", "pair-agree-wide", "pair-disagree",
        "pair-int-none", "pair-widths-differ",
    ],
)
def test_projected_keys_rank_like_orderable(sides, backing):
    """Raw keys projected from any sides — one type or mixed, row- or
    column-backed — rank exactly like their :func:`orderable` encodings,
    with and without the substrate caches, and tie where ``==`` does."""
    g = Cluster(2).root_group()
    rels = []
    for rows, pos in sides:
        rel = distribute_relation(make_rel(rows), g)
        rels.append((rel.aligned(rel.attrs) if backing == "columns" else rel, pos))
    assert (rels[0][0].column_parts is None) == (backing == "rows")
    for ctx in (nullcontext(), cache_disabled()):
        with ctx:
            keys = [part for rel, pos in rels for part in projected_keys(rel, pos)]
            flat, ranks = rank_keys(keys)
        encoded = [list(map(orderable, part)) for part in keys]
        assert ranks.tolist() == rank_keys(encoded)[1].tolist()
        assert all(
            (a == b) == (ra == rb)
            for a, ra in zip(flat, ranks.tolist()) for b, rb in zip(flat, ranks.tolist())
        )


def charges_of(cl, call):
    """``call()``'s outputs and every ledger post it made, vectors and all."""
    posts = []
    post = cl.tally_members

    def spy(members, counts, label):
        posts.append((label, tuple(map(tuple, members)), tuple(counts)))
        post(members, counts, label)

    cl.tally_members = spy
    try:
        out = call()
    finally:
        del cl.tally_members
    return out, posts


def is_sort_step(charge):
    return charge[0].rsplit("/", 1)[-1] in ("sample", "splitters", "shuffle")


class TestRunPaidOncePerExecution:
    """A relation's sorted run is paid for once per execution (ledger epoch):
    a second primitive on the same key posts only its own boundary steps,
    and the next execution — after ``reset()``, or on another cluster — pays
    the whole pass again, vector for vector."""

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_each_primitive_twice(self, p):
        rng = random.Random(p)
        rows = [(rng.randrange(30), rng.randrange(10)) for _ in range(400)]
        cl, g, rel = dist(make_rel(rows), p)
        flt = distribute_relation(
            make_rel([(b, 0) for b in range(0, 10, 2)], attrs=("B", "C"), name="F"),
            g,
        )
        table = count_by_key(g, rel, ("B",), "tab")
        other = Cluster(p)

        calls = [
            lambda g: attach_degrees(g, rel, ("B",), "t-deg"),
            lambda g: count_by_key(g, rel, ("B",), "t-cnt"),
            lambda g: fold_by_key(g, rel, ("B",), plus=max, label="t-fold"),
            lambda g: search_rows(g, rel, ("B",), table, "t-sr"),
            lambda g: attach_degrees(g, rel, ("A",), "t-dega"),
        ]
        for call in calls:
            cl.reset()
            first, paid = charges_of(cl, lambda: call(g))
            own = [c for c in paid if not is_sort_step(c)]
            assert own and (p == 1 or len(paid) == len(own) + 3)
            # Same execution: the rows are where the first call left them.
            assert charges_of(cl, lambda: call(g)) == (first, own)
            with cache_disabled():  # re-sorted, and still not re-charged
                assert charges_of(cl, lambda: call(g)) == (first, own)
            # The next execution pays the recorded pass in full, once.
            cl.reset()
            assert charges_of(cl, lambda: call(g)) == (first, paid)
            assert charges_of(cl, lambda: call(g)) == (first, own)
            # So does another cluster handed the same relation.
            other.reset()
            g2 = other.root_group()
            assert charges_of(other, lambda: call(g2)) == (first, paid)
            assert charges_of(other, lambda: call(g2)) == (first, own)

        # A union sort belongs to no relation: semi_join pays it every time.
        sj = lambda: semi_join(g, rel, flt, "t-sj").parts
        assert charges_of(cl, sj) == charges_of(cl, sj)

    def test_every_new_cluster_pays_whatever_its_id(self):
        """Epochs come from one process-wide counter: CPython hands a dead
        cluster's ``id()`` to the next one, its epoch to nobody."""
        rel = dist(make_rel([(i, i % 5) for i in range(100)]), 4)[2]
        ledgers, epochs = [], set()
        for _ in range(200):
            cl = Cluster(4)
            sorted_run(cl.root_group(), rel, ("B",), "s")
            ledgers.append(cl.snapshot().as_dict())
            epochs.add(cl.epoch)
            del cl  # dropped before the next one is made: its id is free
        assert ledgers[0]["steps"] == 3 and ledgers[0]["total"] > 50
        assert ledgers == ledgers[:1] * 200
        assert len(epochs) == 200

    def test_run_object_is_reused(self):
        cl, g, rel = dist(make_rel([(i, i % 5) for i in range(100)]), 4)
        r1 = sorted_run(g, rel, ("B",), "warm")
        r2 = sorted_run(g, rel, ("B",), "warm")
        assert r1 is r2
        with cache_disabled():
            r3 = sorted_run(g, rel, ("B",), "warm")
        assert r3 is not r1
        # Both sort the raw keys: same keys, origins and splitters.
        assert r3.keys == r1.keys
        assert r3.arr.parts(r3.keys) == r1.arr.parts(r1.keys)
        assert r3.arr.splitters(r3.keys) == r1.arr.splitters(r1.keys)


_SHAPES = ("even", "skewed", "empty", "single", "heavy", "blocked")


@st.composite
def sort_inputs(draw):
    """``p`` key lists in one of the shapes sampling has to cope with."""
    p = draw(st.integers(min_value=2, max_value=10))
    shape = draw(st.sampled_from(_SHAPES))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    if shape == "even":
        sizes = [rng.randint(0, 150)] * p
    elif shape == "skewed":
        sizes = [rng.choice([0, 1, 2, 5, 50, 400]) for _ in range(p)]
    elif shape == "empty":
        sizes = [0] * p
    elif shape == "single":
        sizes = [0] * p
        sizes[rng.randrange(p)] = rng.randint(1, 600)
    else:
        sizes = [rng.randint(0, 120) for _ in range(p)]
    domain = rng.choice([3, 50, 10**6])
    if shape == "blocked":  # already range-partitioned, in server order
        return p, [[i * 1000 + rng.randrange(1000) for _ in range(n)]
                   for i, n in enumerate(sizes)]
    heavy = 0.8 if shape == "heavy" else 0.0
    return p, [[7 if rng.random() < heavy else rng.randrange(domain)
                for _ in range(n)] for n in sizes]


class TestSampleAndRangeRules:
    """Samples in proportion to data, ranges in proportion to samples."""

    @given(sort_inputs())
    @settings(max_examples=200, deadline=None)
    def test_traffic_scales_with_data_and_partitions_stay_bounded(self, inst):
        p, keys = inst
        cl = Cluster(p)
        parts, splitters, (sample_sizes, _received) = psrs(cl.root_group(), keys, "t")
        sizes = [len(part) for part in keys]
        n, gathered = sum(sizes), sum(sample_sizes)

        flat = [(k, (s, j)) for ks, srcs, js in parts for k, s, j in zip(ks, srcs, js)]
        assert flat == sorted((k, (s, j)) for s, part in enumerate(keys)
                              for j, k in enumerate(part))
        by_label = cl.snapshot().by_label
        assert by_label["t/sample"] <= gathered <= n / p + p
        ranges = min(p, gathered)
        assert len(splitters) == max(ranges - 1, 0)
        assert by_label["t/splitters"] == len(splitters) * (p - 1)
        if n:
            # The bound sample_indices states, from the per-source spacing.
            gaps = [-(-n_i // s_i) for n_i, s_i in zip(sizes, sample_sizes) if n_i]
            bound = (-(-gathered // ranges) + 1) * max(gaps) + sum(gaps)
            assert max(len(ks) for ks, _s, _j in parts) <= bound
        if n and len(set(sizes)) == 1:  # even parts: what the coordinator pays
            even = n / p + max(n / p, p * p)
            assert bound <= even * (1 + 1 / (2 * p)) + 2 * p + 1

    def test_a_two_item_sort_sends_one_splitter(self):
        cl = Cluster(16)
        parts, splitters, _ = psrs(cl.root_group(), [[2], [1]] + [[]] * 14, "t")
        assert [ks for ks, _s, _j in parts[:3]] == [[1], [2], []]
        assert len(splitters) == 1 and cl.snapshot().total <= 2 + 15 + 2


class TestStaggeredSampling:
    """Each source samples its own offset into the gaps, so the gathered
    samples sit at evenly spaced quantiles, not in clusters of ``p``."""

    @pytest.mark.parametrize("p, per_source, bound", [(16, 75, 1.7), (8, 50, 1.3)])
    def test_largest_range_stays_near_the_mean(self, p, per_source, bound):
        """Mean over seeded draws of largest range / mean range.  With every
        source sampling the same local positions it read 2.70 and 1.56."""
        ratios = []
        for seed in range(200):
            rng = random.Random(seed)
            keys = [[rng.random() for _ in range(per_source)] for _ in range(p)]
            parts, _spl, _charges = psrs(Cluster(p).root_group(), keys, "t")
            ratios.append(max(len(ks) for ks, _s, _j in parts) / per_source)
        assert sum(ratios) / len(ratios) <= bound


def gatherer(cl, g, label):
    """The global id of the server that gathered pass ``label``'s samples."""
    keys = [[(s * 7 + j) % 97 for j in range(40)] for s in range(g.size)]
    _out, posts = charges_of(cl, lambda: psrs(g, keys, label))
    (counts,) = [c for lab, _m, c in posts if lab == f"{label}/sample"]
    (coord,) = [i for i, c in enumerate(counts) if c]
    return g.members[0][coord]


class TestOneGatherPerServer:
    """Within one execution (ledger epoch) the sample gathers of distinct
    passes sit on distinct servers until every member holds one."""

    def test_distinct_until_every_server_holds_one(self):
        p = 8
        cl = Cluster(p)
        g = cl.root_group()
        labels = [f"pass{i}" for i in range(3 * p)]
        assert len({coordinator_for(g, lab) for lab in labels[:p]}) < p
        first = [gatherer(cl, g, lab) for lab in labels]
        for k in range(3):
            assert sorted(first[k * p:(k + 1) * p]) == list(range(p))
        # A label charged again in the epoch keeps its server.
        assert [gatherer(cl, g, lab) for lab in labels] == first
        # The next epoch starts over from the label hash.
        cl.reset()
        assert gatherer(cl, g, labels[5]) == coordinator_for(g, labels[5])

    def test_servers_are_taken_by_global_id(self):
        cl = Cluster(4)
        root = cl.root_group()
        sub = root.subgroup([2, 3])
        on_2 = next(lab for lab in map(str, range(100)) if coordinator_for(root, lab) == 2)
        on_sub_0 = next(lab for lab in map(str, range(100)) if coordinator_for(sub, lab) == 0)
        assert gatherer(cl, root, on_2) == 2
        assert gatherer(cl, sub, on_sub_0) == 3


# Hypothesis value pools: homogeneous and heterogeneous columns.
_VALUE = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.sampled_from(["a", "b", "cc", "d"]),
    st.none(),
    st.booleans(),
)


@st.composite
def instances(draw):
    p = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=0, max_value=50))
    homogeneous = draw(st.booleans())
    if homogeneous:
        rows = [
            (draw(st.integers(min_value=0, max_value=8)),
             draw(st.integers(min_value=0, max_value=4)))
            for _ in range(n)
        ]
    else:
        rows = [(draw(_VALUE), draw(_VALUE)) for _ in range(n)]
    t = draw(st.integers(min_value=0, max_value=6))
    table_keys = sorted({(draw(_VALUE),) for _ in range(t)}, key=repr)
    return p, rows, table_keys


class TestCachedEqualsBypassed:
    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_primitives_property(self, inst):
        p, rows, table_keys = inst
        rel_ram = make_rel(rows)

        def run_all(bypass):
            cl = Cluster(p)
            g = cl.root_group()
            rel = distribute_relation(rel_ram, g)
            out = []
            if bypass:
                with cache_disabled():
                    out.append(attach_degrees(g, rel, ("B",), "deg"))
                    tab = count_by_key(g, rel, ("B",), "cnt")
                    out.append(tab)
                    out.append(search_rows(g, rel, ("B",), tab, "sr"))
                    out.append(attach_degrees(g, rel, ("A", "B"), "deg2"))
                    out.append(
                        search_rows(
                            g, rel, ("B",),
                            [[(k, 1) for k in table_keys]] + [[]] * (p - 1),
                            "ext",
                        )
                    )
            else:
                out.append(attach_degrees(g, rel, ("B",), "deg"))
                tab = count_by_key(g, rel, ("B",), "cnt")
                out.append(tab)
                out.append(search_rows(g, rel, ("B",), tab, "sr"))
                out.append(attach_degrees(g, rel, ("A", "B"), "deg2"))
                out.append(
                    search_rows(
                        g, rel, ("B",),
                        [[(k, 1) for k in table_keys]] + [[]] * (p - 1),
                        "ext",
                    )
                )
            return out, cl.snapshot()

        got_c, rep_c = run_all(bypass=False)
        got_u, rep_u = run_all(bypass=True)
        assert got_c == got_u
        assert ledger_key(rep_c) == ledger_key(rep_u)

    @given(
        instances(),
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 4)), max_size=20)
        | st.lists(st.tuples(_VALUE, _VALUE), max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_search_primitives_on_a_two_relation_key(self, inst, filter_rows):
        """``semi_join`` / ``multi_search`` across two relations whose shared
        column may be one type on one side only, on both, or on neither:
        the cached path equals the bypassed reference, outputs and ledger."""
        p, rows, _table_keys = inst

        def run_all(bypass):
            cl = Cluster(p)
            g = cl.root_group()
            rel = distribute_relation(make_rel(rows), g)
            flt = distribute_relation(
                make_rel(filter_rows, attrs=("B", "C"), name="F"), g
            )
            pos_r, pos_f = rel.positions(("B",)), flt.positions(("B",))
            xs = [[(project_row(r, pos_r), r) for r in part] for part in rel.parts]
            ys = [[(project_row(r, pos_f), r[1]) for r in part] for part in flt.parts]
            with cache_disabled() if bypass else nullcontext():
                out = [
                    semi_join(g, rel, flt, "sj").parts,
                    multi_search(g, xs, ys, "ms"),
                ]
            return out, cl.snapshot()

        got_c, rep_c = run_all(bypass=False)
        got_u, rep_u = run_all(bypass=True)
        assert got_c == got_u
        assert ledger_key(rep_c) == ledger_key(rep_u)

    @given(instances())
    @settings(max_examples=30, deadline=None)
    def test_semantics_against_reference(self, inst):
        p, rows, _table_keys = inst
        rel_ram = make_rel(rows)
        cl = Cluster(p)
        g = cl.root_group()
        rel = distribute_relation(rel_ram, g)

        expected = {}
        for row in rel_ram.rows:
            k = (row[1],)
            expected[orderable(k)] = expected.get(orderable(k), 0) + 1

        counted = count_by_key(g, rel, ("B",), "cnt")
        got = {}
        for part in counted:
            for k, c in part:
                ok = orderable(k)
                assert ok not in got, "duplicate key emitted"
                got[ok] = c
        assert got == expected

        withdeg = attach_degrees(g, rel, ("B",), "deg")
        seen = []
        for part in withdeg:
            for row, deg in part:
                assert deg == expected[orderable((row[1],))]
                seen.append(row)
        assert sorted(seen, key=repr) == sorted(rel_ram.rows, key=repr)


class TestJoinLevelParity:
    def test_acyclic_join_cached_equals_bypassed(self):
        """The acceptance gate: the full acyclic join at p=8 produces
        identical outputs and identical ledger metrics with and without
        the substrate caches."""
        from repro.core.runner import mpc_join
        from repro.data.generators import line_trap_instance

        inst = line_trap_instance(4, 600, 4000, doubled=True)
        res_c = mpc_join(inst.query, inst, p=8, algorithm="acyclic")
        with cache_disabled():
            res_u = mpc_join(inst.query, inst, p=8, algorithm="acyclic")
        assert res_c.report.load == res_u.report.load
        assert res_c.report.max_step_load == res_u.report.max_step_load
        assert res_c.report.steps == res_u.report.steps
        assert res_c.report.by_label == res_u.report.by_label
        assert res_c.relation.attrs == res_u.relation.attrs
        assert res_c.relation.parts == res_u.relation.parts

    @pytest.mark.parametrize("algorithm", ["yannakakis", "line3", "binhc"])
    def test_other_algorithms_cached_equals_bypassed(self, algorithm):
        from repro.core.runner import mpc_join
        from repro.data.generators import line_trap_instance

        inst = line_trap_instance(3, 400, 1600)
        res_c = mpc_join(inst.query, inst, p=4, algorithm=algorithm)
        with cache_disabled():
            res_u = mpc_join(inst.query, inst, p=4, algorithm=algorithm)
        assert res_c.report.load == res_u.report.load
        assert res_c.report.steps == res_u.report.steps
        assert res_c.relation.attrs == res_u.relation.attrs
        assert res_c.relation.parts == res_u.relation.parts
