"""Instance statistics: degrees, skew, and the paper's difficulty measures.

A small diagnostic layer used by the examples and benchmarks: given an
instance, summarize the quantities the paper's analysis revolves around —
per-attribute degree distributions, heavy-value counts at the theorems'
thresholds, and the IN/OUT-derived bound values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.data.instance import Instance
from repro.query.classify import classify

__all__ = [
    "DegreeSummary",
    "InstanceReport",
    "degree_summary",
    "instance_report",
]


@dataclass(frozen=True)
class DegreeSummary:
    """Degree distribution of one attribute within one relation.

    Attributes:
        relation: Relation name.
        attr: Attribute name.
        distinct: Number of distinct values.
        max_degree: Largest value frequency.
        mean_degree: Average value frequency.
        skew: ``max/mean`` — 1.0 means perfectly uniform.
    """

    relation: str
    attr: str
    distinct: int
    max_degree: int
    mean_degree: float

    @property
    def skew(self) -> float:
        return self.max_degree / self.mean_degree if self.mean_degree else 0.0


def degree_summary(instance: Instance, relation: str, attr: str) -> DegreeSummary:
    """Summarize one attribute's degree distribution in one relation."""
    degs = instance.degrees(relation, (attr,))
    if not degs:
        return DegreeSummary(relation, attr, 0, 0, 0.0)
    values = list(degs.values())
    return DegreeSummary(
        relation=relation,
        attr=attr,
        distinct=len(values),
        max_degree=max(values),
        mean_degree=sum(values) / len(values),
    )


@dataclass
class InstanceReport:
    """A one-stop difficulty profile of an instance.

    Attributes:
        query_class: Figure 1 class name.
        in_size / out_size: The IN/OUT parameters.
        degrees: Degree summaries for every (relation, join attribute).
        heavy_counts: For the paper's thresholds tau, how many join-attr
            values are heavy: keyed by ``(relation, attr)``.
        tau_line3: sqrt(OUT/IN), the Section 4.2 threshold.
    """

    query_class: str
    in_size: int
    out_size: int
    degrees: list[DegreeSummary] = field(default_factory=list)
    heavy_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    tau_line3: float = 1.0

    def max_skew(self) -> float:
        return max((d.skew for d in self.degrees), default=0.0)

    def summary(self) -> str:
        lines = [
            f"class={self.query_class} IN={self.in_size} OUT={self.out_size} "
            f"tau={self.tau_line3:.1f} max_skew={self.max_skew():.1f}"
        ]
        for d in self.degrees:
            heavy = self.heavy_counts.get((d.relation, d.attr), 0)
            lines.append(
                f"  {d.relation}.{d.attr}: distinct={d.distinct} "
                f"max_deg={d.max_degree} skew={d.skew:.1f} heavy@tau={heavy}"
            )
        return "\n".join(lines)


def instance_report(instance: Instance) -> InstanceReport:
    """Profile an instance: class, IN/OUT, join-attribute degrees, skew.

    OUT is computed by the RAM oracle (cached on the instance), so this is
    a diagnostic for experiment setup, not an MPC-costed operation.
    """
    query = instance.query
    in_size = instance.input_size
    out_size = instance.output_size()
    tau = max(1.0, math.sqrt(out_size / in_size)) if in_size else 1.0
    report = InstanceReport(
        query_class=classify(query).name,
        in_size=in_size,
        out_size=out_size,
        tau_line3=tau,
    )
    for name in query.edge_names:
        for attr in sorted(query.attrs_of(name)):
            if len(query.edges_with(attr)) < 2:
                continue  # only join attributes drive difficulty
            summary = degree_summary(instance, name, attr)
            report.degrees.append(summary)
            degs = instance.degrees(name, (attr,))
            report.heavy_counts[(name, attr)] = sum(
                1 for d in degs.values() if d > tau
            )
    return report
