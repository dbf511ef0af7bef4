"""Tests for the public dispatch API."""

import pytest

from repro.core.planner import choose
from repro.core.runner import ALGORITHMS, auto_algorithm, mpc_join
from repro.data.generators import (
    line_trap_instance,
    matching_instance,
    random_instance,
    star_instance,
)
from repro.errors import QueryError
from repro.query import catalog


class TestAutoDispatch:
    def test_r_hierarchical_gets_instance_optimal(self):
        assert auto_algorithm(catalog.star_join(3)) == "rhierarchical"
        assert auto_algorithm(catalog.q1_tall_flat()) == "rhierarchical"
        assert auto_algorithm(catalog.q2_r_hierarchical()) == "rhierarchical"

    def test_line3_gets_specialized(self):
        assert auto_algorithm(catalog.line3()) == "line3"

    def test_general_acyclic(self):
        assert auto_algorithm(catalog.fork_join()) == "acyclic"
        assert auto_algorithm(catalog.line_join(4)) == "acyclic"

    def test_triangle_gets_worst_case(self):
        assert auto_algorithm(catalog.triangle()) == "wc-triangle"


class TestMpcJoin:
    @pytest.mark.parametrize(
        "algorithm", ["auto", "yannakakis", "line3", "acyclic", "binhc", "wc-line3"]
    )
    def test_all_algorithms_on_line3(self, algorithm):
        inst = line_trap_instance(3, 600, 3000)
        res = mpc_join(inst.query, inst, p=8, algorithm=algorithm, validate=True)
        assert res.meta["algorithm"] != "auto"
        assert res.output_size == inst.output_size()

    def test_unknown_algorithm_rejected(self):
        inst = matching_instance(catalog.line3(), 5)
        with pytest.raises(QueryError):
            mpc_join(inst.query, inst, p=4, algorithm="quantum")

    def test_meta_fields(self):
        inst = star_instance(3, 4, 3)
        res = mpc_join(inst.query, inst, p=8)
        assert res.meta["p"] == 8
        assert res.meta["in_size"] == inst.input_size
        # The chooser's pick, measured against the class's paper algorithm.
        assert res.meta["algorithm"] == choose(inst.query, inst, 8).algorithm
        class_pick = mpc_join(inst.query, inst, p=8, algorithm="rhierarchical")
        assert res.report.load <= class_pick.report.load

    def test_validate_catches_mismatch(self):
        """The validation hook runs the oracle (sanity-check the checker)."""
        inst = random_instance(catalog.fork_join(), 40, 5, seed=81)
        res = mpc_join(inst.query, inst, p=4, validate=True)
        assert res.output_size == inst.output_size()

    def test_report_labels_present(self):
        inst = matching_instance(catalog.line3(), 40)
        res = mpc_join(inst.query, inst, p=4, algorithm="line3")
        assert res.report.steps > 0
        assert any("line3" in k for k in res.report.by_label)

    def test_p1_degenerate(self):
        inst = matching_instance(catalog.line3(), 20)
        res = mpc_join(inst.query, inst, p=1, validate=True)
        assert res.output_size == 20

    def test_rows_and_rowset(self):
        inst = matching_instance(catalog.binary_join(), 10)
        res = mpc_join(inst.query, inst, p=4)
        assert len(res.rows()) == 10
        assert len(res.row_set()) == 10

    def test_algorithms_tuple_stable(self):
        assert "auto" in ALGORITHMS and "rhierarchical" in ALGORITHMS
