"""Tests for the output-optimal binary join."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.generators import binary_out_controlled, matching_instance, random_instance
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.mpc import Cluster, distribute_instance
from repro.mpc.distrel import DistRelation
from repro.mpc.primitives import arrange_sides
from repro.mpc.substrate import cache_disabled
from repro.core.binary_join import binary_join
from repro.core.common import local_hash_join
from repro.data.columns import ColumnBlock
from repro.query import catalog
from tests.conftest import deck_strings, oracle_rows, part_digest


def run_binary(inst, p=8):
    cl = Cluster(p)
    g = cl.root_group()
    rels = distribute_instance(inst, g)
    res = binary_join(g, rels["R1"], rels["R2"])
    # Canonicalize column order for oracle comparison.
    order = tuple(sorted(res.attrs))
    idx = [res.attrs.index(a) for a in order]
    got = {tuple(r[i] for i in idx) for r in res.all_rows()}
    return got, cl.snapshot()


class TestCorrectness:
    def test_matching(self):
        inst = matching_instance(catalog.binary_join(), 50)
        got, _ = run_binary(inst)
        assert got == oracle_rows(inst)

    @pytest.mark.parametrize("seed", range(5))
    def test_random(self, seed):
        inst = random_instance(catalog.binary_join(), 150, 12, seed=seed)
        got, _ = run_binary(inst)
        assert got == oracle_rows(inst)

    def test_controlled_output(self):
        inst = binary_out_controlled(500, 4000)
        got, _ = run_binary(inst)
        assert got == oracle_rows(inst)

    def test_empty_result(self):
        q = catalog.binary_join()
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), [(1, 2)]),
                "R2": Relation("R2", ("B", "C"), [(3, 4)]),
            },
        )
        got, rep = run_binary(inst)
        assert got == set()

    def test_single_heavy_key(self):
        """One join value produces the entire (quadratic) output."""
        q = catalog.binary_join()
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), [(i, "hot") for i in range(80)]),
                "R2": Relation("R2", ("B", "C"), [("hot", i) for i in range(80)]),
            },
        )
        got, rep = run_binary(inst)
        assert got == oracle_rows(inst)
        assert len(got) == 6400

    def test_cartesian_fallback(self):
        q = catalog.cartesian_product(2)
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("X1",), [(i,) for i in range(10)]),
                "R2": Relation("R2", ("X2",), [(j,) for j in range(7)]),
            },
        )
        cl = Cluster(4)
        g = cl.root_group()
        rels = distribute_instance(inst, g)
        res = binary_join(g, rels["R1"], rels["R2"])
        assert res.total_size() == 70


class TestLoadBounds:
    @pytest.mark.parametrize("out_target", [1000, 10000, 40000])
    def test_load_tracks_bound(self, out_target):
        """Load stays within a constant of IN/p + sqrt(OUT/p) (skew-free)."""
        p = 16
        inst = binary_out_controlled(2000, out_target)
        got, rep = run_binary(inst, p=p)
        out = len(got)
        bound = inst.input_size / p + math.sqrt(out / p)
        assert rep.load <= 12 * bound + 30 * p

    def test_skewed_instance_still_bounded(self):
        p = 16
        inst = skewed_instance()
        got, rep = run_binary(inst, p=p)
        assert got == oracle_rows(inst)
        bound = inst.input_size / p + math.sqrt(len(got) / p)
        assert rep.load <= 12 * bound + 30 * p

    @pytest.mark.parametrize("p", [4, 8, 16])
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_zipf_heavy_keys_and_a_light_key_over_three_servers(self, p, data):
        """Both sides carry Zipf-distributed heavy keys, and one light key
        holds up to ``2 IN / p`` rows (the input budget, so still light): it
        spans at least three server ranges, so its group id reaches the
        servers after its first one only through the carry."""
        inst, light_key = data.draw(zipf_instance(p))
        cl = Cluster(p)
        g = cl.root_group()
        rels = distribute_instance(inst, g)
        assert len(servers_holding(g, rels, light_key)) >= 3
        cl.reset()
        res = binary_join(g, rels["R1"], rels["R2"])
        rows = res.all_rows()
        assert len(rows) == len(set(rows))
        order = tuple(sorted(res.attrs))
        idx = [res.attrs.index(a) for a in order]
        assert {tuple(r[i] for i in idx) for r in rows} == oracle_rows(inst)
        bound = inst.input_size / p + math.sqrt(len(rows) / p)
        assert cl.snapshot().load <= 12 * bound + 30 * p

    def test_no_duplicate_emissions(self):
        inst = binary_out_controlled(600, 5000)
        cl = Cluster(8)
        g = cl.root_group()
        rels = distribute_instance(inst, g)
        res = binary_join(g, rels["R1"], rels["R2"])
        rows = res.all_rows()
        assert len(rows) == len(set(rows))


def skewed_instance():
    """One heavy key (500 x 500) beside 50 light ones: every step runs."""
    rows1 = [(i, "hot") for i in range(500)] + [(i, f"b{i % 50}") for i in range(500)]
    rows2 = [("hot", i) for i in range(500)] + [(f"b{i % 50}", i) for i in range(500)]
    return Instance(catalog.binary_join(), {
        "R1": Relation("R1", ("A", "B"), rows1),
        "R2": Relation("R2", ("B", "C"), rows2),
    })


class TestOneSort:
    """Degrees, light lookup and heavy numbering all read one arrangement
    of ``R1 ⊎ R2``: one PSRS pass per call, posted afresh every call."""

    #: Steps one call posted when each side's run fed the degree counts and
    #: a third pass merged the two degree tables (deg1, deg2, degmerge).
    THREE_PASS_STEPS = 32

    @staticmethod
    def ledger(p, disabled=False):
        cl = Cluster(p)
        g = cl.root_group()
        rels = distribute_instance(skewed_instance(), g)
        cl.reset()
        if disabled:
            with cache_disabled():
                res = binary_join(g, rels["R1"], rels["R2"])
        else:
            res = binary_join(g, rels["R1"], rels["R2"])
        return res.parts, cl.snapshot().as_dict()

    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_one_pass_and_fewer_steps(self, p):
        _parts, report = self.ledger(p)
        labels = set(report["by_label"])
        assert [lb for lb in labels if lb.endswith("/sample")] == ["binjoin/sort/sample"]
        assert not any(
            part in ("deg1", "deg2", "degmerge")
            for lb in labels for part in lb.split("/")
        )
        assert report["steps"] < self.THREE_PASS_STEPS

    @pytest.mark.parametrize("p", [1, 4, 8])
    def test_cache_disabled_ledger_equals_the_cached_one(self, p):
        parts, report = self.ledger(p)
        assert self.ledger(p, disabled=True) == (parts, report)

    def test_a_second_call_pays_the_pass_again(self):
        cl = Cluster(8)
        g = cl.root_group()
        rels = distribute_instance(skewed_instance(), g)
        cl.reset()
        binary_join(g, rels["R1"], rels["R2"])
        once = cl.snapshot()
        binary_join(g, rels["R1"], rels["R2"])
        twice = cl.snapshot()
        assert twice.steps == 2 * once.steps and twice.total == 2 * once.total


#: Mid-domain names for the spanning light key, middle first: ``"l4~"``
#: sorts after every ``l4…`` key and before ``"l5"``.
_MID_KEYS = ["l4~", "l5~", "l3~", "l6~", "l2~", "l7~", "l1~", "l8~"]


@st.composite
def zipf_instance(draw, p):
    """``R1(A,B) ⋈ R2(B,C)``: a few Zipf-skewed heavy keys on both sides,
    single-row light keys, and one light key on up to ``2 IN / p`` rows.

    At that budget the key's rows fill about two ranges of the balanced
    sort, so whether they span three depends on where its run starts.
    The key is named to sort mid-domain among the light keys, at the
    first of :data:`_MID_KEYS` whose run spans at least three servers.
    Returns the instance and the key."""
    skew = draw(st.floats(0.8, 1.6))
    heavy = draw(st.integers(2, 4))
    top1, top2 = draw(st.integers(40, 90)), draw(st.integers(40, 90))
    keys1 = [f"h{i}" for i in range(heavy) for _ in range(max(1, int(top1 / (i + 1) ** skew)))]
    keys2 = [f"h{i}" for i in range(heavy) for _ in range(max(1, int(top2 / (i + 1) ** skew)))]
    n_light = draw(st.integers(8 * p, 24 * p))
    keys1 += [f"l{i}" for i in range(n_light)]
    keys2 += [f"l{i}" for i in range(0, n_light, 2)]
    # c1 + c2 <= 2 IN / p, IN counting the key's own rows: the input budget.
    base = len(keys1) + len(keys2)
    c1 = 2 * base // (p - 2) - 1
    keys1 += [None] * c1
    keys2 += [None]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rng.shuffle(keys1)
    rng.shuffle(keys2)
    for light_key in _MID_KEYS:
        rows1 = [(i, light_key if k is None else k) for i, k in enumerate(keys1)]
        rows2 = [(light_key if k is None else k, i) for i, k in enumerate(keys2)]
        inst = Instance(catalog.binary_join(), {
            "R1": Relation("R1", ("A", "B"), rows1),
            "R2": Relation("R2", ("B", "C"), rows2),
        })
        g = Cluster(p).root_group()
        if len(servers_holding(g, distribute_instance(inst, g), light_key)) >= 3:
            break
    # The key stays light on both budgets: rows and output.
    n_in = len(rows1) + len(rows2)
    out = len(oracle_rows(inst))
    assert c1 + 1 <= 2 * n_in / p and c1 <= out / p
    return inst, light_key


def servers_holding(group, rels, key):
    """The servers the binary join's one arrangement puts ``key``'s rows on."""
    scratch = Cluster(group.size).root_group()
    arr = arrange_sides(scratch, rels["R1"], rels["R2"], ("B",), "probe")
    rows = [row for pair in zip(rels["R1"].parts, rels["R2"].parts) for part in pair for row in part]
    dest = np.repeat(np.arange(group.size), np.diff(arr.cuts)).tolist()
    sides = (arr.ranks & 1).tolist()
    # An R1 row is (A, B), an R2 row (B, C).
    return {
        d for f, side, d in zip(arr.order.tolist(), sides, dest)
        if rows[f][1 - side] == key
    }


def rows_hash_join(attrs1, rows1, attrs2, rows2):
    """The row-emitting ``local_hash_join`` of the last row-based commit,
    kept as the oracle of the emission order: side-1 rows in order, each
    followed by its side-2 matches in arrival order."""
    shared = [a for a in attrs1 if a in attrs2]
    extra2 = [a for a in attrs2 if a not in attrs1]
    index = {}
    for r in rows2:
        key = tuple(r[attrs2.index(a)] for a in shared)
        index.setdefault(key, []).append(tuple(r[attrs2.index(a)] for a in extra2))
    out = [
        r + extra
        for r in rows1
        for extra in index.get(tuple(r[attrs1.index(a)] for a in shared), ())
    ]
    return tuple(attrs1) + tuple(extra2), out


def emit_deck_instance(n=120):
    """``cold_emit``'s binary join at test size: string cells, OUT >> IN."""
    return deck_strings(random_instance(
        catalog.binary_join(), n, {"A": 600, "B": 6, "C": 600}, seed=7
    ))


class TestEmissionOrder:
    """Per-part output as row *lists*: what the gather kernel must keep."""

    @pytest.mark.parametrize("mixed", [False, True])
    def test_block_kernel_equals_the_row_oracle(self, mixed):
        inst = emit_deck_instance()
        rows1, rows2 = list(inst["R1"].rows), list(inst["R2"].rows)
        if mixed:  # 1 / True / 1.0 are one join key, three distinct cells
            rows1 += [("a", 1), ("b", True), ("c", 1.0)]
            rows2 += [(1.0, "x"), (True, "y")]
        attrs, block = local_hash_join(
            ("A", "B"), ColumnBlock.from_rows(rows1, 2),
            ("B", "C"), ColumnBlock.from_rows(rows2, 2),
        )
        want_attrs, want = rows_hash_join(("A", "B"), rows1, ("B", "C"), rows2)
        assert attrs == want_attrs
        got = block.rows()
        assert got == want and len(got) > 10 * len(rows1)
        assert [tuple(map(type, r)) for r in got] == [tuple(map(type, r)) for r in want]

    def test_cartesian_product_is_side_one_major(self):
        _attrs, block = local_hash_join(
            ("A",), ColumnBlock.from_rows([(1,), (2,)], 1),
            ("B",), ColumnBlock.from_rows([("x",), ("y",), ("z",)], 1),
        )
        assert block.rows() == rows_hash_join(
            ("A",), [(1,), (2,)], ("B",), [("x",), ("y",), ("z",)]
        )[1]

    def test_cell_joins_equal_the_row_loops(self):
        """The array cell joins emit, part by part, what the per-cell row
        loops emitted over the shuffle's inboxes on p = 4 (digest pinned
        from the last commit that routed rows as messages; p = 8 is the
        next test)."""
        def binary(group, query, rels):
            return binary_join(group, rels["R1"], rels["R2"])

        assert part_digest(emit_deck_instance(), binary, p=4) == "1ee3e28a24b097e4"

    def test_per_part_output_equals_the_row_emitting_commit(self):
        # Re-pinned once, when light groups began to stay on the server the
        # sort put them on: rows changed parts, the emission order did not.
        def binary(group, query, rels):
            return binary_join(group, rels["R1"], rels["R2"])

        assert part_digest(emit_deck_instance(), binary) == "841d6d718a1ca7da"


class TestRowsOnlyAtTheEdge:
    """Two column-backed intermediates join without building a row view:
    keys come off the key columns and cells are gathered from the input
    column parts.  Pinned from the last commit that routed row tuples."""

    @staticmethod
    def intermediates(p):
        # Key B: values 0 and 1 are heavy, the rest light; ``#w:R1`` is an
        # int payload and ``tag`` an object-kind column (lists).
        rows1 = [
            (i, 0 if i % 3 == 0 else (1 if i % 5 == 0 else 2 + i % 40), i % 7)
            for i in range(600)
        ]
        rows2 = [
            (0 if j % 4 == 0 else (1 if j % 6 == 0 else 2 + j % 55), f"c{j}", [j % 3])
            for j in range(500)
        ]

        def blocks(rows):
            return [ColumnBlock.from_rows(rows[s::p], 3) for s in range(p)]

        return (
            DistRelation.from_column_parts("R12", ("A", "B", "#w:R1"), blocks(rows1)),
            DistRelation.from_column_parts("R34", ("B", "C", "tag"), blocks(rows2)),
        )

    def test_output_and_ledger_equal_the_row_routing_commit(self, monkeypatch):
        p = 8
        r1, r2 = self.intermediates(p)
        assert {c.kind for b in r2.column_parts for c in b.columns} == {"d", "i", "o"}

        def refuse(_self):
            raise AssertionError("binary_join built a row view")

        monkeypatch.setattr(DistRelation, "parts", property(refuse))
        cl = Cluster(p)
        res = binary_join(cl.root_group(), r1, r2)
        monkeypatch.undo()
        digest = hashlib.sha256(repr((res.attrs, res.parts)).encode()).hexdigest()[:16]
        assert (digest, res.total_size()) == ("ebfa757ccb2c2a49", 30300)
        report = cl.snapshot().as_dict()
        assert {k: report[k] for k in ("load", "total", "steps", "max_step_load")} == {
            "load": 504, "total": 2380, "steps": 16, "max_step_load": 353,
        }
        assert report["totals"] == [240, 237, 504, 369, 249, 206, 362, 213]
        assert report["by_label"] == {
            "binjoin/deg/stitch/gather": 7, "binjoin/deg/stitch/reply": 7,
            "binjoin/heavy-bcast": 7, "binjoin/heavy-gather": 1,
            "binjoin/heavy-number/stitch/gather": 7, "binjoin/heavy-number/stitch/reply": 7,
            "binjoin/light/carry/gather": 7, "binjoin/light/carry/reply": 7,
            "binjoin/out/bcast": 7, "binjoin/out/gather": 7,
            "binjoin/pack/gather": 7, "binjoin/pack/reply": 7,
            "binjoin/shuffle": 1223, "binjoin/sort/sample": 56,
            "binjoin/sort/shuffle": 974, "binjoin/sort/splitters": 49,
        }
