"""Render one traced execution for ``repro explain``: where the load went.

:meth:`Engine.explain <repro.engine.session.Engine.explain>` runs a query
once under a collecting tracer; this module turns the span records into
text.  Every ``prim.<Kind>`` span (:func:`repro.mpc.cluster.prim_span`)
is one line with the ledger units posted inside it, nested as the
primitives nested.  The top-level lines plus one line for the units
posted outside any primitive sum to the run's ``LoadReport.total``; under
that line, the outside units are split by the ledger label they were
posted under (each primitive span carries its own units by label).  With
timings each line also reads its wall time and the wire bytes shipped
inside it, and the ``backend.round`` spans a primitive issued show under
it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Sequence

from repro.mpc.cluster import LEDGER_ATTR, LoadReport, kind_split

__all__ = ["render"]


def _fmt_seconds(seconds: float) -> str:
    """Compact duration: 1.23s / 4.56ms / 789us."""
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _fmt_bytes(n: int) -> str:
    """Compact byte count: 1.5MiB / 2.0KiB / 37B."""
    if n >= 1 << 20:
        return f"{n / (1 << 20):.1f}MiB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f}KiB"
    return f"{n}B"


def render(
    records: Sequence[dict[str, Any]],
    report: LoadReport,
    head: str,
    timings: bool,
) -> str:
    """The span tree under the one root of ``records``, one line a span.

    ``records`` are one trace's finished span records (children end, and
    are emitted, before their parents; siblings in the order they ran).
    ``head`` is the line under the title; ``timings`` adds the
    ``wall=``/``wire=`` columns.
    """
    children: dict[str | None, list[dict]] = defaultdict(list)
    for rec in records:
        children[rec["parent"]].append(rec)
    (root,) = children[None]

    def cols(dur: float, wire: int) -> str:
        if not timings:
            return ""
        return f"  wall={_fmt_seconds(dur)}" + (
            f" wire={_fmt_bytes(wire)}" if wire else ""
        )

    lines = [
        f"explain: {root['attrs']['query']}",
        f"  {head}",
        (
            f"  ledger: {report.total} units over {report.steps} steps: "
            + kind_split(report.by_label.items())
        ),
    ]
    if timings:
        lines.append(
            f"  timings: {_fmt_seconds(root['dur'])} wall, "
            f"{_fmt_bytes(root['attrs']['wire'])} shipped"
        )

    def walk(span: dict, depth: int) -> None:
        pad = "  " * depth
        attrs = span["attrs"]
        name = span["name"]
        if name.startswith("prim."):
            kind = name[len("prim."):]
            detail = attrs["detail"]
            # A sorted run paid for earlier in this execution moves nothing.
            reused = (
                not attrs["units"] and report.p > 1
                and kind == "SampleSort" and detail.startswith("run ")
            )
            lines.append(
                f"{pad}[{kind}] {detail}  "
                + ("reused" if reused else f"units={attrs['units']}")
                + cols(span["dur"], attrs["wire"])
            )
        elif name == "backend.round":
            workers = [w["attrs"] for w in children[span["span"]]]
            compute = sum(w.get("compute_seconds", 0.0) for w in workers)
            hits = sum(w.get("cache_hits", 0) for w in workers)
            lines.append(
                f"{pad}backend.round workers={len(workers)}"
                + cols(span["dur"], 0)
                + f" compute={_fmt_seconds(compute)} memo_hits={hits}"
            )
            return
        for child in children[span["span"]]:
            walk(child, depth + 1)

    top = children[root["span"]]
    for span in top:
        walk(span, 1)
    prims = [s for s in top if s["name"].startswith("prim.")]
    # The ledger's labels less what the top-level primitives posted under
    # each: the steps no primitive scopes, by the label they posted.
    outside = dict(report.by_label)
    for span in prims:
        for key, units in span["attrs"].items():
            if key.startswith(LEDGER_ATTR):
                outside[key[len(LEDGER_ATTR):]] -= units
    lines.append(
        f"  (outside primitives)  units={sum(outside.values())}"
        + cols(
            root["dur"] - sum(s["dur"] for s in top),
            root["attrs"]["wire"] - sum(s["attrs"]["wire"] for s in prims),
        )
    )
    lines.extend(
        f"    {label}  units={units}" for label, units in outside.items() if units
    )
    return "\n".join(lines)
