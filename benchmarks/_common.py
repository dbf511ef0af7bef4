"""Shared helpers for the paper-reproduction benchmarks.

Every benchmark regenerates one of the paper's tables/figures: it sweeps
workloads, runs the simulated algorithms, and prints the series the paper's
claim is about (measured load vs bound, who wins, where crossovers fall).
Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.runner import mpc_join
from repro.data.instance import Instance
from repro.query.hypergraph import Hypergraph

__all__ = ["run_join", "print_table", "fmt"]


def run_join(
    query: Hypergraph,
    instance: Instance,
    p: int,
    algorithm: str,
    **kwargs: Any,
) -> dict[str, Any]:
    """Execute one simulated join and collect the numbers benches report."""
    result = mpc_join(query, instance, p=p, algorithm=algorithm, **kwargs)
    return {
        "algorithm": result.meta["algorithm"],
        "backend": result.meta["backend"],
        "p": p,
        "in": instance.input_size,
        "out": result.output_size,
        "load": result.report.load,
        "step_max": result.report.max_step_load,
        "steps": result.report.steps,
    }


def fmt(value: Any) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    """Render a fixed-width table to stdout (shown with ``pytest -s``)."""
    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in str_rows:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))
