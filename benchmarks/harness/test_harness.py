"""Smoke test of the benchmark harness (tier-1 collects it).

Checks names and shapes only: what ``run.py --smoke`` prints is what
``BENCHMARK.json`` declares, for every workload, untraced and traced.
There are no timing assertions; smoke sizes make no timing claim.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent
ROOT = HARNESS.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
INTERACTIONS = {
    k: v for k, v in json.loads((HARNESS / "interactions.json").read_text()).items()
    if not k.startswith("_")
}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_declared_names_are_well_formed_and_unique():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert SPEC["paths"] == ["benchmarks/harness"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert "setup_s" in bounds
    assert all(0 < b <= 0.25 for b in bounds.values())
    # The simulated numbers are gated exactly: a bound far below one load unit.
    assert bounds["load_L"] <= 1e-9 and bounds["optimality_gap"] <= 1e-9


def test_every_layer_metric_says_what_it_should_move():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(INTERACTIONS) == {m["name"] for m in SPEC["per_layer"]}
    for name, entry in INTERACTIONS.items():
        assert entry["what"], name
        for metric, workload in entry["moves"]:
            assert metric in end_to_end, (name, metric)
            assert workload in WORKLOADS, (name, workload)


@pytest.fixture(scope="module")
def smoke_results():
    proc = subprocess.run(
        [sys.executable, str(HARNESS / "run.py"), "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    results = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith('{"correct"')]
    jobs = [(w, kind) for w in WORKLOADS for kind in ("end_to_end", "per_layer")]
    assert len(results) == len(jobs)
    return dict(zip(jobs, results))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_smoke_prints_exactly_the_declared_metrics(smoke_results, workload, kind):
    result = smoke_results[workload, kind]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
