"""Export the experiment series as JSON (figure-data artifact).

Not a pytest benchmark: a straight script that re-runs the headline sweeps
and writes machine-readable series to ``results/`` so the tables in
EXPERIMENTS.md can be regenerated or re-plotted without scraping stdout.

Run:  python benchmarks/export_results.py [output_dir]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.core.runner import mpc_join, mpc_output_size
from repro.data.generators import forest_instance, line_trap_instance
from repro.data.hard_instances import line3_random_hard
from repro.query import catalog
from repro.query.classify import classify
from repro.theory.bounds import l_instance, theorem5_bound, yannakakis_bound
from repro.theory.lower_bounds import line3_lower_bound

P = 8


def thm5_sweep() -> list[dict]:
    series = []
    for out_target in (6000, 24000, 96000, 180000):
        inst = line_trap_instance(3, 3000, out_target, doubled=True)
        out = inst.output_size()
        new = mpc_join(inst.query, inst, p=P, algorithm="line3")
        yan = mpc_join(inst.query, inst, p=P, algorithm="yannakakis")
        series.append(
            {
                "out": out,
                "in": inst.input_size,
                "line3_load": new.report.load,
                "yannakakis_load": yan.report.load,
                "thm5_bound": theorem5_bound(inst.input_size, out, P),
                "yannakakis_bound": yannakakis_bound(inst.input_size, out, P),
            }
        )
    return series


def thm6_sweep() -> list[dict]:
    series = []
    for mult in (1, 4, P, 4 * P):
        inst = line3_random_hard(3000, mult * 3000, seed=19)
        out = inst.output_size()
        rows = {"out": out, "in": inst.input_size,
                "thm6_lb": line3_lower_bound(inst.input_size, out, P)}
        for algo in ("line3", "wc-line3"):
            res = mpc_join(inst.query, inst, p=P, algorithm=algo)
            rows[f"{algo}_load"] = res.report.load
        rows["l_instance"] = l_instance(inst.query, inst, P)
        series.append(rows)
    return series


def thm3_sweep() -> list[dict]:
    series = []
    q = catalog.q2_hierarchical()
    for skew in (1.0, 3.0, 9.0):
        inst = forest_instance(q, 4, skew=skew)
        bound = inst.input_size / P + l_instance(q, inst, P)
        res = mpc_join(q, inst, p=P, algorithm="rhierarchical")
        series.append(
            {
                "skew": skew,
                "in": inst.input_size,
                "out": inst.output_size(),
                "bound": bound,
                "load": res.report.load,
                "ratio": res.report.load / bound,
            }
        )
    return series


def corollary4_sweep() -> list[dict]:
    series = []
    for out_target in (12000, 96000, 360000):
        inst = line_trap_instance(3, 3000, out_target)
        cnt, rep = mpc_output_size(inst.query, inst, P)
        series.append({"in": inst.input_size, "out": cnt, "load": rep.load})
    return series


def classification_census() -> list[dict]:
    return [
        {
            "query": name,
            "class": classify(q).name,
            "edges": len(q.edge_names),
            "attributes": len(q.attributes),
        }
        for name, q in sorted(catalog.CATALOG.items())
    ]


EXPORTS = {
    "fig1_census": classification_census,
    "thm3_ratio_sweep": thm3_sweep,
    "thm5_out_sweep": thm5_sweep,
    "thm6_crossover": thm6_sweep,
    "cor4_linear_count": corollary4_sweep,
}


def main(out_dir: str = "results") -> None:
    path = Path(out_dir)
    path.mkdir(exist_ok=True)
    for name, fn in EXPORTS.items():
        data = fn()
        target = path / f"{name}.json"
        target.write_text(json.dumps({"p": P, "series": data}, indent=2))
        print(f"wrote {target} ({len(data)} rows)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "results")
