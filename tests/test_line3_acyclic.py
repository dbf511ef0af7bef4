"""Tests for the line-3 (Section 4.2) and general acyclic (5.1) algorithms."""

import math

import pytest

from repro.core.acyclic import acyclic_join
from repro.core.line3 import line3_join
from repro.data.generators import (
    add_dangling,
    line_trap_instance,
    matching_instance,
    random_instance,
)
from repro.data.hard_instances import (
    embed_line3,
    line3_random_hard,
    yannakakis_trap_doubled,
)
from repro.data.instance import Instance
from repro.errors import QueryError
from repro.query import catalog
from repro.query.hypergraph import Hypergraph
from repro.theory.bounds import theorem5_bound, theorem7_bound
from tests.conftest import assert_matches_oracle, deck_strings, part_digest


class TestLine3Correctness:
    def test_matching(self):
        assert_matches_oracle(matching_instance(catalog.line3(), 40), line3_join)

    @pytest.mark.parametrize("seed", range(4))
    def test_random(self, seed):
        inst = random_instance(catalog.line3(), 120, 10, seed=seed)
        assert_matches_oracle(inst, line3_join)

    def test_trap_both_directions(self):
        for direction in ("forward", "backward"):
            inst = line_trap_instance(3, 900, 9000, direction=direction)
            assert_matches_oracle(inst, line3_join)

    def test_doubled_trap(self):
        inst = line_trap_instance(3, 900, 5400, doubled=True)
        assert_matches_oracle(inst, line3_join)

    def test_random_hard_instance(self):
        inst = line3_random_hard(900, 2700, seed=43)
        assert_matches_oracle(inst, line3_join)

    def test_with_dangling(self):
        inst = add_dangling(matching_instance(catalog.line3(), 60), 25, seed=44)
        assert_matches_oracle(inst, line3_join)

    def test_empty_output(self):
        from repro.data.instance import Instance
        from repro.data.relation import Relation

        q = catalog.line3()
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), [(1, 2)]),
                "R2": Relation("R2", ("B", "C"), [(8, 9)]),
                "R3": Relation("R3", ("C", "D"), [(9, 1)]),
            },
        )
        assert_matches_oracle(inst, line3_join)

    def test_rejects_non_line3(self):
        inst = matching_instance(catalog.star_join(3), 5)
        from repro.mpc import Cluster, distribute_instance

        cl = Cluster(2)
        g = cl.root_group()
        with pytest.raises(QueryError):
            line3_join(g, inst.query, distribute_instance(inst, g))

    def test_detects_renamed_line3(self):
        """Shape detection is structural, not name-based."""
        from repro.query.hypergraph import Hypergraph
        from repro.data.instance import Instance
        from repro.data.relation import Relation

        q = Hypergraph({"mid": ("V", "W"), "left": ("U", "V"), "right": ("W", "Y")})
        inst = Instance(
            q,
            {
                "left": Relation("left", ("U", "V"), [(1, 2)]),
                "mid": Relation("mid", ("V", "W"), [(2, 3)]),
                "right": Relation("right", ("W", "Y"), [(3, 4)]),
            },
        )
        assert_matches_oracle(inst, line3_join)


class TestLine3Load:
    def test_load_beats_yannakakis_on_large_out(self):
        """Theorem 5 vs Section 4.1: sqrt(IN*OUT)/p << OUT/p when OUT >> IN."""
        from repro.core.yannakakis import yannakakis_mpc

        p = 8
        inst = line_trap_instance(3, 1200, 43200, doubled=True)
        new_rep = assert_matches_oracle(inst, line3_join, p=p)
        yan_rep = assert_matches_oracle(
            inst, yannakakis_mpc, p=p, plan=("R1", "R2", "R3")
        )
        assert new_rep.load < yan_rep.load

    @pytest.mark.parametrize("out_target", [6000, 24000, 54000])
    def test_load_tracks_theorem5(self, out_target):
        p = 8
        inst = line_trap_instance(3, 1200, out_target, doubled=True)
        rep = assert_matches_oracle(inst, line3_join, p=p)
        out = inst.output_size()
        bound = theorem5_bound(inst.input_size, out, p)
        assert rep.load <= 25 * bound + 30 * p


class TestAcyclicCorrectness:
    @pytest.mark.parametrize(
        "name", ["line3", "line4", "line5", "fork", "broom", "two_ears"]
    )
    def test_random(self, name):
        q = catalog.CATALOG[name]
        inst = random_instance(q, 80, 8, seed=45)
        assert_matches_oracle(inst, acyclic_join)

    @pytest.mark.parametrize(
        "name", ["binary", "star3", "q1_tall_flat", "q2_r_hierarchical"]
    )
    def test_also_handles_r_hierarchical(self, name):
        """Section 5.1 works on all acyclic joins, including r-hier ones."""
        q = catalog.CATALOG[name]
        inst = random_instance(q, 50, 5, seed=46)
        assert_matches_oracle(inst, acyclic_join)

    def test_trap(self):
        assert_matches_oracle(line_trap_instance(3, 900, 9000), acyclic_join)

    def test_longer_trap_chain(self):
        assert_matches_oracle(line_trap_instance(4, 1200, 9000), acyclic_join)

    def test_embedded_hard_instance(self):
        inst = embed_line3(catalog.fork_join(), 600, 1800, seed=47)
        assert_matches_oracle(inst, acyclic_join)

    def test_with_dangling(self):
        inst = add_dangling(random_instance(catalog.fork_join(), 60, 6, seed=48), 20, seed=49)
        assert_matches_oracle(inst, acyclic_join)

    def test_cyclic_rejected(self):
        from repro.mpc import Cluster, distribute_instance

        inst = random_instance(catalog.triangle(), 20, 4, seed=50)
        cl = Cluster(2)
        g = cl.root_group()
        with pytest.raises(QueryError):
            acyclic_join(g, inst.query, distribute_instance(inst, g))

    @pytest.mark.parametrize("p", [1, 2, 4, 16])
    def test_various_cluster_sizes(self, p):
        inst = random_instance(catalog.fork_join(), 60, 6, seed=51)
        assert_matches_oracle(inst, acyclic_join, p=p)

    def test_disconnected_query(self):
        from repro.query.hypergraph import Hypergraph
        from repro.data.instance import Instance
        from repro.data.relation import Relation

        q = Hypergraph(
            {"R1": ("A", "B"), "R2": ("B", "C"), "R3": ("C", "D"), "R4": ("X", "Y")}
        )
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), [(i, i % 5) for i in range(20)]),
                "R2": Relation("R2", ("B", "C"), [(i % 5, i % 3) for i in range(20)]),
                "R3": Relation("R3", ("C", "D"), [(i % 3, i) for i in range(20)]),
                "R4": Relation("R4", ("X", "Y"), [(i, i) for i in range(4)]),
            },
        )
        assert_matches_oracle(inst, acyclic_join)


class TestAcyclicLoad:
    @pytest.mark.parametrize("out_target", [9000, 36000])
    def test_load_tracks_theorem7(self, out_target):
        p = 8
        inst = line_trap_instance(4, 1600, out_target, doubled=True)
        rep = assert_matches_oracle(inst, acyclic_join, p=p)
        out = inst.output_size()
        bound = theorem7_bound(inst.input_size, out, p)
        assert rep.load <= 30 * bound + 30 * p


def _fork(names=slice(None)):
    """``cold_emit``'s fork join (or a sub-join of it) at test size."""
    fork = random_instance(
        catalog.fork_join(), 60, {"A": 600, "B": 5, "C": 5, "D": 600, "E": 600}, seed=17
    )
    keep = sorted(fork.relations)[names]
    query = Hypergraph({n: fork.query.attrs_of(n) for n in keep}, name="fork")
    return Instance(query, {n: fork.relations[n] for n in keep})


class TestEmissionOrder:
    """Per-part output (row lists, in order) on the decks' generators equals
    the last row-emitting commit's: every piece a gather over encoded inbox
    sides, pieces concatenated as blocks, one alignment at the end."""

    CASES = {
        "line3/random": (lambda: add_dangling(
            random_instance(catalog.line3(), 80, 40, seed=3), 160, seed=5),
            line3_join, 8, "92d67665f5024456"),
        "line3/hard": (lambda: line3_random_hard(72, 576, seed=1), line3_join, 16,
                       "41e99405a664568c"),
        "line3/trap": (lambda: yannakakis_trap_doubled(72, 288), line3_join, 16,
                       "d0c01ec7a72b8a38"),
        "line3/fork-prefix": (lambda: _fork(slice(0, 3)), line3_join, 8,
                              "7688290505bb0793"),
        "acyclic/fork": (_fork, acyclic_join, 8, "f98a4fe1fb19ff00"),
        # Its one-row R6 is broadcast into the Cartesian product, where the
        # row-emitting commit numbered and re-shuffled the other side: the
        # per-part order is the broadcast product's.
        "acyclic/broom": (lambda: embed_line3(catalog.broom_join(), 72, 288, seed=2),
                          acyclic_join, 16, "29466279dd73ad0c"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_per_part_output_equals_the_row_emitting_commit(self, case):
        build, algorithm, p, digest = self.CASES[case]
        assert part_digest(deck_strings(build()), algorithm, p) == digest
