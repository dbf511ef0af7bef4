"""The MPC cost ledger: servers, exchanges, and load accounting.

The paper's model (Section 1.1): ``p`` servers, data initially distributed
evenly, computation in rounds; the cost of an algorithm is its *load* ``L``,
the maximum number of tuples received by any server in any round (a tuple
and an O(log IN)-bit integer both count as one unit).

:class:`Cluster` implements exactly that ledger.  Every communication
step (:meth:`Cluster.tally_members`) records how many units each server
received.  Two load statistics are exposed:

* :attr:`LoadReport.load` — the maximum over servers of *total* units
  received across the whole algorithm.  For O(1)-round algorithms this is
  within a constant factor of the paper's per-round ``L`` and is robust to
  how a simulation slices rounds, so it is the headline metric.
* :attr:`LoadReport.max_step_load` — the maximum units received by any
  server in any single exchange step (a lower bound on the per-round ``L``).

Initial data placement is free, matching the model.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.errors import DeadlineExceeded, MPCError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mpc.backends import Backend

__all__ = ["Cluster", "LEDGER_ATTR", "LoadReport", "kind_split", "prim_span"]

# One process-wide source of ledger epochs: a value is never handed out
# twice, so an epoch names one execution on one cluster (ids get recycled).
_EPOCHS = count(1)


def kind_split(units_by_label: Iterable[tuple[str, int]]) -> str:
    """Where the load went, by what a step moved: a label's last component,
    with the stitch/carry gather+reply trips as ``boundary``."""
    split = dict.fromkeys(("sample", "splitters", "shuffle", "boundary", "other"), 0)
    for label, units in units_by_label:
        *_, prev, kind = ("", "", *label.split("/"))
        if kind in ("gather", "reply") and prev in ("stitch", "carry"):
            kind = "boundary"
        split[kind if kind in split else "other"] += units
    return " ".join(f"{k}={v}" for k, v in split.items())


@dataclass
class LoadReport:
    """Summary of communication observed by a :class:`Cluster`.

    Attributes:
        p: Number of servers.
        totals: Per-server total units received (length ``p``).
        load: ``max(totals)`` — the headline load metric.
        max_step_load: Max units received by one server in one exchange.
        steps: Number of exchange steps performed.
        by_label: Total units received per step label (algorithm phase).
    """

    p: int
    totals: tuple[int, ...]
    load: int
    max_step_load: int
    steps: int
    by_label: dict[str, int]

    @property
    def average(self) -> float:
        """Mean units received per server."""
        return sum(self.totals) / self.p if self.p else 0.0

    @property
    def total(self) -> int:
        """Total units communicated."""
        return int(sum(self.totals))

    def summary(self) -> str:
        top = sorted(self.by_label.items(), key=lambda kv: -kv[1])[:6]
        labels = ", ".join(f"{k}={v}" for k, v in top)
        return (
            f"load={self.load} (avg {self.average:.1f}, step-max "
            f"{self.max_step_load}, {self.steps} steps; "
            f"{kind_split(self.by_label.items())}) [{labels}]"
        )

    def as_dict(self) -> dict:
        """Every ledger field as plain JSON-able data.

        The conformance harness diffs two of these dicts, so a backend
        divergence shows up as a readable field-by-field delta rather than
        an opaque dataclass inequality.
        """
        return {
            "p": self.p,
            "load": self.load,
            "max_step_load": self.max_step_load,
            "steps": self.steps,
            "total": self.total,
            "average": self.average,
            "totals": list(self.totals),
            "by_label": dict(sorted(self.by_label.items())),
        }

    def __str__(self) -> str:
        return self.summary()


class Cluster:
    """A simulated MPC cluster of ``p`` servers with a load ledger.

    Args:
        p: Number of servers (>= 1).
        backend: Execution backend — a :class:`~repro.mpc.backends.Backend`
            instance, a registered name (``"serial"``, ``"multiprocess"``),
            or ``None`` for the process default (``REPRO_BACKEND`` env var,
            else serial).  The backend decides *where* per-server compute
            runs; message delivery (:meth:`Group.exchange
            <repro.mpc.group.Group.exchange>`) and the ledger never
            change with it (see ``tests/conformance/``).

    The cluster itself holds no data — distributed relations live in
    :class:`~repro.mpc.distrel.DistRelation` parts — it only records who
    received how much.  :class:`~repro.mpc.group.Group` objects route data
    over subsets of this cluster and report received counts here.
    """

    def __init__(self, p: int, backend: "Backend | str | None" = None) -> None:
        from repro.mpc.backends import get_backend

        if p < 1:
            raise MPCError(f"cluster needs p >= 1, got {p}")
        self.p = p
        self.backend = get_backend(backend)
        #: Optional absolute ``time.monotonic()`` cutoff.  Checked at every
        #: ledger post — i.e. between simulated communication rounds, the
        #: natural cancellation points of the MPC model — so a caller's
        #: deadline cancels a query *mid-execution* without backends or
        #: algorithms knowing deadlines exist.  The engine sets and clears
        #: it around each query.
        self.deadline: float | None = None
        #: Optional :class:`~repro.obs.metrics.WireMeter` attributing this
        #: execution's shipped wire bytes to its query.  Set (with
        #: ``obs_span``) by the engine around one cold execution and
        #: cleared in a ``finally``; :meth:`Group.map_parts` forwards both
        #: into every ``Backend.run_ops`` call.  Telemetry only — the
        #: load ledger below never reads either.
        self.wire_meter = None
        #: Optional recording :class:`~repro.obs.tracing.Span` under which
        #: this execution's primitive spans (:func:`prim_span`) and backend
        #: rounds parent theirs; ``None`` means untraced.
        self.obs_span = None
        #: The execution this ledger is recording: advanced by :meth:`reset`,
        #: unique across clusters.  A sorted arrangement paid for in this
        #: epoch is not paid for again (:func:`~repro.mpc.substrate.sorted_run`).
        self.epoch = next(_EPOCHS)
        self._totals: list[int] = [0] * p
        self._step_max: int = 0
        self._steps: int = 0
        self._by_label: dict[str, int] = {}

    # ------------------------------------------------------------------
    def tally_members(
        self,
        members: Sequence[Sequence[int]],
        counts: Sequence[int],
        label: str,
    ) -> None:
        """Record one exchange step on every member of a group family:
        ``counts[i]`` units arrive at ``member[i]`` for each member.

        The only ledger post.  Each member is its own ledger step, but the
        per-step aggregates are hoisted out of the member loop — the
        replicas are deterministic copies, so their step total and step
        max are identical by construction.

        Args:
            members: Tuples of global server indices, each as long as
                ``counts`` (ids may repeat across calls but not within one
                member).
            counts: Units received per local server.
            label: Phase label for the report breakdown.
        """
        self.check_deadline()
        step_total = 0
        step_max = self._step_max
        for c in counts:
            if c < 0:
                raise MPCError("negative message count")
            step_total += c
            if c > step_max:
                step_max = c
        totals = self._totals
        p = self.p
        for member in members:
            if len(member) != len(counts):
                raise MPCError("server_ids and counts length mismatch")
            for sid, c in zip(member, counts):
                if sid < 0 or sid >= p:
                    raise MPCError(f"server id {sid} out of range [0, {p})")
                totals[sid] += c
        n = len(members)
        self._step_max = step_max
        self._steps += n
        self._by_label[label] = self._by_label.get(label, 0) + step_total * n

    def check_deadline(self) -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` past the cutoff."""
        dl = self.deadline
        if dl is not None and time.monotonic() > dl:
            raise DeadlineExceeded(
                f"query exceeded its deadline ({self._steps} ledger steps in)"
            )

    def snapshot(self) -> LoadReport:
        """Current ledger as an immutable report."""
        return LoadReport(
            p=self.p,
            totals=tuple(self._totals),
            load=max(self._totals) if self.p else 0,
            max_step_load=self._step_max,
            steps=self._steps,
            by_label=dict(self._by_label),
        )

    def reset(self) -> None:
        """Clear the ledger and start a new epoch: the next execution pays
        for its own sorts (data placement is unaffected)."""
        self.epoch = next(_EPOCHS)
        self._totals = [0] * self.p
        self._step_max = 0
        self._steps = 0
        self._by_label.clear()

    # ------------------------------------------------------------------
    def root_group(self):
        """The group spanning all ``p`` servers (single member)."""
        from repro.mpc.group import Group

        return Group(self, [tuple(range(self.p))])

    def __repr__(self) -> str:
        return f"Cluster<p={self.p}, load={max(self._totals) if self.p else 0}>"


_UNTRACED = nullcontext()

#: Prefix of a primitive span's per-label attrs: ``ledger.<label>`` is the
#: units posted under ``label`` inside the span.
LEDGER_ATTR = "ledger."


def prim_span(cluster: Cluster, kind: str, detail: str = ""):
    """Scope a Section-2 primitive's body in a ``prim.<kind>`` span.

    Untraced (``cluster.obs_span`` is ``None``) this costs one attribute
    read.  Traced, the span is a child of ``cluster.obs_span`` and becomes
    it for the body, so nested primitives and the backend rounds the body
    issues parent under it; on exit it carries the ledger units and steps
    posted inside it, those units split by label (one
    ``ledger.<label>`` attr each) and the wire bytes the cluster's meter
    counted.
    """
    if cluster.obs_span is None:
        return _UNTRACED
    return _ledger_span(cluster, kind, detail)


@contextmanager
def _ledger_span(cluster: Cluster, kind: str, detail: str) -> Iterator[None]:
    parent, meter = cluster.obs_span, cluster.wire_meter
    units, steps = sum(cluster._totals), cluster._steps
    labels = dict(cluster._by_label)
    wire = meter.bytes if meter is not None else 0
    span = cluster.obs_span = parent.child(f"prim.{kind}", detail=detail)
    with span:
        try:
            yield
        finally:
            cluster.obs_span = parent
            span.set(
                units=sum(cluster._totals) - units,
                steps=cluster._steps - steps,
                wire=(meter.bytes if meter is not None else 0) - wire,
                **{
                    LEDGER_ATTR + label: n - labels.get(label, 0)
                    for label, n in cluster._by_label.items()
                    if n != labels.get(label, 0)
                },
            )
