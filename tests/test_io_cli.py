"""Tests for CSV I/O and the command-line interface."""

import pytest

from repro.cli import main
from repro.core.planner import choose
from repro.data.generators import matching_instance, random_instance
from repro.data.hard_instances import embed_line3
from repro.data.relation import Relation
from repro.errors import SchemaError
from repro.io import (
    infer_query,
    read_instance_dir,
    read_relation_csv,
    write_instance_dir,
    write_relation_csv,
)
from repro.query import catalog
from repro.semiring import COUNT


class TestRelationCsv:
    def test_round_trip(self, tmp_path):
        rel = Relation("R", ("A", "B"), [("x", "1"), ("y", "2")])
        path = tmp_path / "R.csv"
        write_relation_csv(rel, path)
        back = read_relation_csv(path)
        assert back.attrs == ("A", "B")
        assert set(back.rows) == set(rel.rows)
        assert back.name == "R"

    def test_annotated_round_trip(self, tmp_path):
        rel = Relation(
            "R", ("A",), [("x",), ("y",)], annotations=[2.0, 3.0], semiring=COUNT
        )
        path = tmp_path / "R.csv"
        write_relation_csv(rel, path)
        back = read_relation_csv(path, semiring=COUNT)
        assert back.annotated
        assert back.annotation_map() == {("x",): 2.0, ("y",): 3.0}

    def test_weight_column_ignored_without_semiring(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("A,__weight__\nx,5\n")
        back = read_relation_csv(path)
        assert not back.annotated
        assert back.rows == (("x",),)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            read_relation_csv(path)

    def test_empty_file_in_a_directory_raises_on_inference(self, tmp_path):
        (tmp_path / "R1.csv").write_text("A,B\n1,2\n")
        (tmp_path / "R2.csv").write_text("")
        with pytest.raises(SchemaError, match="R2.csv is empty"):
            infer_query(tmp_path)

    def test_ragged_row_raises(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("A,B\nx\n")
        with pytest.raises(SchemaError):
            read_relation_csv(path)


class TestInstanceDir:
    def test_round_trip(self, tmp_path):
        inst = matching_instance(catalog.line3(), 10)
        write_instance_dir(inst, tmp_path / "data")
        back = read_instance_dir(tmp_path / "data")
        assert set(back.query.edge_names) == set(inst.query.edge_names)
        assert back.input_size == inst.input_size
        # CSV stringifies values, so compare sizes + join sizes.
        assert back.output_size() == inst.output_size()

    def test_infer_query(self, tmp_path):
        inst = matching_instance(catalog.fork_join(), 4)
        write_instance_dir(inst, tmp_path / "d")
        q = infer_query(tmp_path / "d")
        assert q == inst.query or set(q.edge_names) == set(inst.query.edge_names)

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(SchemaError):
            read_instance_dir(tmp_path)


class TestCli:
    @pytest.fixture
    def data_dir(self, tmp_path):
        inst = random_instance(catalog.line3(), 60, 8, seed=121)
        write_instance_dir(inst, tmp_path / "data")
        return str(tmp_path / "data")

    def test_classify(self, data_dir, capsys):
        assert main(["classify", data_dir]) == 0
        out = capsys.readouterr().out
        assert "ACYCLIC" in out
        assert "minimal 3-path" in out

    def test_join(self, data_dir, capsys, tmp_path):
        out_file = str(tmp_path / "results.csv")
        assert main(["join", data_dir, "-p", "4", "--validate", "--out", out_file]) == 0
        out = capsys.readouterr().out
        inst = read_instance_dir(data_dir)
        assert f"algorithm: {choose(inst.query, inst, 4).algorithm} " in out
        back = read_relation_csv(out_file)
        assert len(back) > 0

    def test_count(self, data_dir, capsys):
        assert main(["count", data_dir, "-p", "4"]) == 0
        assert "|Q(R)|" in capsys.readouterr().out

    def test_aggregate_total(self, data_dir, capsys):
        assert main(["aggregate", data_dir, "-p", "4"]) == 0
        assert "total aggregate" in capsys.readouterr().out

    def test_aggregate_group_by(self, data_dir, capsys):
        assert main(["aggregate", data_dir, "-p", "4", "--group-by", "A"]) == 0
        assert "groups" in capsys.readouterr().out

    def test_plan(self, data_dir, capsys):
        assert main(["plan", data_dir, "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert "best order" in out
        assert "contained:" not in out

    def test_plan_query_and_explain_name_the_contained_relations(self, tmp_path, capsys):
        """Q2's R4(x3,x5) and R5(x5) sit inside R3(x1,x3,x5): Yannakakis
        drops them, and only the reduced query's 4 orders are priced."""
        inst = random_instance(catalog.q2_r_hierarchical(), 60, 6, seed=1)
        write_instance_dir(inst, tmp_path / "q2")
        data = str(tmp_path / "q2")
        contained = "contained: R4 in R3, R5 in R3"
        assert main(["plan", data, "-p", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [contained, "orders considered: 4"]
        text = (
            "Q(x1,x2,x3,x4,x5) :- R1(x1,x2), R2(x1,x3,x4), R3(x1,x3,x5), "
            "R4(x3,x5), R5(x5)"
        )
        for command in ("query", "explain"):
            assert main([command, text, data, "-p", "8", "--algorithm", "yannakakis"]) == 0
            lines = capsys.readouterr().out.splitlines()
            at = next(i for i, line in enumerate(lines) if line.startswith("plan order: "))
            assert lines[at + 1] == contained, command

    def test_plan_names_the_components(self, tmp_path, capsys):
        """The broom's R6(H) is a component of its own: only the orders of
        R0, R1, R4, R5 are priced, and every priced prefix stays inside it."""
        inst = embed_line3(catalog.broom_join(), 72, 288, seed=2)
        write_instance_dir(inst, tmp_path / "broom")
        assert main(["plan", str(tmp_path / "broom"), "-p", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == [
            "contained: R2 in R0, R3 in R0",
            "components: R0,R1,R4,R5 x R6",
            "orders considered: 8",
            "best order:  R0 -> R4 -> R1 -> R5 -> R6",
        ]
        assert lines[4:6] == ["  |R0 * R4| = 23", "  |R0 * R4 * R1| = 69"]

    def test_cli_agreement_with_oracle(self, tmp_path, capsys):
        """count via CLI == RAM oracle on a fresh instance."""
        from repro.ram.yannakakis import join_size

        inst = random_instance(catalog.star_join(3), 30, 5, seed=122)
        write_instance_dir(inst, tmp_path / "d")
        main(["count", str(tmp_path / "d"), "-p", "4"])
        out = capsys.readouterr().out
        assert f"|Q(R)| = {join_size(inst)}" in out
