"""Backend selection precedence across the engine-backed CLI commands.

The contract (DESIGN.md, the registry docstring): an explicit
``--backend`` flag beats the ``REPRO_BACKEND`` environment variable,
which beats the built-in ``serial`` default — for every subcommand that
builds an engine (``query``, ``serve``, ``explain``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import repro.cli as cli
from repro.data.generators import random_instance
from repro.io import write_instance_dir
from repro.mpc.backends import FaultInjectingBackend, shutdown_backends
from repro.query import catalog

QUERY = "Q(A,B,C,D) :- R1(A,B), R2(B,C), R3(C,D)"


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    inst = random_instance(catalog.line3(), 40, 6, seed=7)
    path = tmp_path_factory.mktemp("cli") / "data"
    write_instance_dir(inst, path)
    return str(path)


@pytest.fixture
def queries_file(tmp_path):
    path = tmp_path / "queries.txt"
    path.write_text(f"# workload\n{QUERY}\n")
    return str(path)


@pytest.fixture
def capture_engine(monkeypatch):
    """Run the real CLI but record the engine each command builds."""
    captured: dict = {}
    original = cli._load_engine

    def spy(args, **kwargs):
        engine = original(args, **kwargs)
        captured["backend_arg"] = args.backend
        captured["engine"] = engine
        return engine

    monkeypatch.setattr(cli, "_load_engine", spy)
    yield captured
    shutdown_backends()


def _run(command, data_dir, extra=(), queries_file=None):
    if command == "serve":
        argv = ["serve", data_dir, "--queries", queries_file, *extra]
    else:
        argv = [command, QUERY, data_dir, *extra]
    assert cli.main(argv) == 0


ENGINE_COMMANDS = ("query", "explain", "serve")


class TestBackendPrecedence:
    @pytest.mark.parametrize("command", ENGINE_COMMANDS)
    def test_default_is_serial(
        self, command, data_dir, queries_file, capture_engine, monkeypatch
    ):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        _run(command, data_dir, queries_file=queries_file)
        assert capture_engine["backend_arg"] == "serial"
        assert capture_engine["engine"].backend_name == "serial"

    @pytest.mark.parametrize("command", ENGINE_COMMANDS)
    def test_env_var_overrides_default(
        self, command, data_dir, queries_file, capture_engine, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BACKEND", "multiprocess")
        _run(command, data_dir, queries_file=queries_file)
        assert capture_engine["backend_arg"] == "multiprocess"
        assert capture_engine["engine"].backend_name == "multiprocess"

    @pytest.mark.parametrize("command", ENGINE_COMMANDS)
    def test_flag_overrides_env_var(
        self, command, data_dir, queries_file, capture_engine, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BACKEND", "multiprocess")
        _run(
            command, data_dir,
            extra=["--backend", "serial"],
            queries_file=queries_file,
        )
        assert capture_engine["backend_arg"] == "serial"
        assert capture_engine["engine"].backend_name == "serial"

    def test_unknown_backend_flag_is_rejected(self, data_dir, capsys):
        with pytest.raises(SystemExit):
            cli.main(["query", QUERY, data_dir, "--backend", "bogus"])
        assert "invalid choice" in capsys.readouterr().err

    def test_shm_is_not_a_backend_choice(self, data_dir, capsys):
        with pytest.raises(SystemExit):
            cli.main(["query", QUERY, data_dir, "--backend", "shm"])
        assert "invalid choice: 'shm'" in capsys.readouterr().err


SERVE_WORKLOAD = Path(__file__).resolve().parents[1] / "examples" / "serve_workload"


class TestServeChaosSeed:
    @pytest.mark.parametrize("before", [None, "7"])
    def test_replica_chaos_seed_leaves_the_environment_as_it_was(
        self, before, monkeypatch, capsys
    ):
        """``serve --replicas K --chaos --chaos-seed N`` seeds every
        replica's chaos backend, then restores ``REPRO_CHAOS_SEED`` (or
        its absence) for the rest of the process."""
        monkeypatch.setenv("REPRO_CHAOS_INNER", "serial")
        if before is None:
            monkeypatch.delenv("REPRO_CHAOS_SEED", raising=False)
        else:
            monkeypatch.setenv("REPRO_CHAOS_SEED", before)
        seeds = []
        original = FaultInjectingBackend.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            seeds.append(self.seed)

        monkeypatch.setattr(FaultInjectingBackend, "__init__", spy)
        env = dict(os.environ)
        assert cli.main([
            "serve", str(SERVE_WORKLOAD), "-p", "4",
            "--queries", str(SERVE_WORKLOAD / "queries.txt"),
            "--replicas", "2", "--chaos", "--chaos-seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("on backend=chaos") == 2 and "FAILED" not in out
        assert seeds == [3, 3]
        assert dict(os.environ) == env
