"""A persistent serving session: warm cluster, prepared plans, batches.

Everything else in the repo is one-shot: :func:`repro.core.runner.mpc_join`
builds a fresh :class:`~repro.mpc.cluster.Cluster` per call, so the
substrate caches attached to distributed relations never amortize across
queries.  :class:`Engine` is the serving-side answer:

* **Registered base relations** — named :class:`~repro.data.relation.
  Relation` objects.  :meth:`Engine.register` is the engine's one
  invalidation: it drops every plan entry, recording and distributed
  relation that read the relation.
* **One warm cluster/backend** held across queries.  Distributed (and
  annotated) variants of each registered relation are cached keyed by
  ``(name, binding)``, so the per-relation substrate caches (sorted
  runs, key encodings) and the multiprocess workers' content-addressed
  memos keep paying off query after query.
* **``prepare()``** — parse, classify, check the bindings and cache the
  plan entry keyed by the query's canonical form + bindings.  It prices
  nothing: an entry's one data-dependent decision — which algorithm runs
  (under ``auto``, :func:`~repro.core.planner.choose`'s least predicted
  load) along which Section 4.1 fold order
  (:func:`~repro.core.planner.price_fold_orders`, exact, in RAM, no
  backend round) — is priced on the entry's data when first read,
  normally by its first execution.  An entry lives until a relation it
  reads is registered again; the next request compiles a new one.
* **``execute()``** — a request takes one of two paths: a result-cache
  hit (the recorded outputs and ledger of an earlier execution), or a cold
  execution that drives the entry's algorithm through the same
  :func:`~repro.core.runner.run_join_algorithm` /
  :func:`~repro.core.runner.run_aggregate_algorithm` seams the one-shot
  entry points use, and records it.  Either way, outputs and the
  per-query :class:`~repro.mpc.cluster.LoadReport` are bit-identical to
  ``mpc_join`` / ``mpc_join_aggregate`` (see ``tests/test_engine_parity``).
  The serving path records no physical plan: :meth:`Engine.explain`
  traces one on a scratch serial cluster when asked.  A cold execution
  that raises is recorded once as failed and re-raised unchanged: fault
  recovery belongs to the backend (DESIGN.md section 8), and the next
  call drives it afresh.
* **``export_plan()`` / ``install_plan()``** — a plan travels between
  engines as a *prepared statement*: the query text plus the algorithm
  request as a JSON record, which the receiver prepares on its own data.
* **``submit_batch()``** — run many queries against the shared backend
  in submission order, aggregating per-query metrics into an
  :class:`EngineStats` report.

Thread-safety: the engine serializes cluster use behind an internal lock
(per-query ledgers require exclusive access to the shared ledger), so
``execute`` may be called concurrently from many threads; executions are
correct and metrics are per-query, but they do not overlap in time.
"""

from __future__ import annotations

import difflib
import json
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain
from typing import Any, Callable, Sequence

from repro.core.planner import Choice, choose, price_fold_orders
from repro.core.runner import (
    AGG_ALGORITHMS,
    ALGORITHMS,
    auto_algorithm,
    run_aggregate_algorithm,
    run_join_algorithm,
)
from repro.core.yannakakis import Plan
from repro.data.instance import Instance
from repro.data.relation import Relation, Row
from repro.engine.parser import Binding, ParsedQuery, parse_query
from repro.errors import DeadlineExceeded, EngineError, PlanShipError, ReproError
from repro.mpc.backends import Backend
from repro.mpc.cluster import Cluster, LoadReport
from repro.mpc.distrel import DistRelation, distribute_relation
from repro.obs import MetricsRegistry, NULL_TRACER, WireMeter, percentiles
from repro.plan import Executor, PhysicalPlan, TraceRecorder
from repro.query.classify import classify

__all__ = [
    "BatchReport",
    "Engine",
    "EngineStats",
    "ExecutionResult",
    "PreparedQuery",
    "QueryMetrics",
]


def _lazy_copy(rel: Any) -> Any:
    """A fresh lazy relation over a distributed result's (shared) blocks."""
    return rel.aligned(rel.attrs) if isinstance(rel, DistRelation) else rel


#: Bounds on the recordings LRU (``None`` = unbounded): entries, and
#: resident bytes (:meth:`Engine._recording_nbytes`).  Evicting a
#: recording falls the next execution of its query back to a
#: (re-recording) cold drive.
RESULT_CACHE_ENTRIES: int | None = 256
RESULT_CACHE_BYTES: int | None = 128 * 1024 * 1024


@dataclass
class _CachedResult:
    """A recorded execution, servable until a relation it read changes.

    The simulation is deterministic: re-running an unchanged plan over
    unchanged registered relations reproduces the same outputs and the
    same ledger bit for bit, so serving the recording *is* the execution
    (the same argument by which a sorted run is billed from its recorded
    counts).  A recording lives under its plan entry's key, and
    :meth:`Engine.register` drops it with the entry.

    A distributed result is held as a column-backed :class:`DistRelation`
    nobody reads rows from: every serve hands out a *fresh* lazy relation
    over the same immutable blocks, so a caller that materializes rows
    does so on its own copy, which dies with the caller instead of
    pinning a row view (per-row tuples, pure GC ballast) in the cache.
    """

    relation: Any
    scalar: Any
    report: LoadReport
    meta: dict[str, Any]
    out_size: int
    #: Resident bytes (:meth:`Engine._recording_nbytes`) — the unit the
    #: engine's recording LRU budgets against.
    stored_bytes: int = 0


@dataclass(slots=True)
class _Call:
    """One :meth:`Engine.execute` call's bookkeeping.

    Handed to every serving path in place of positional flags;
    :meth:`Engine._finish` turns it into the call's
    :class:`QueryMetrics`.  ``hit`` is the :meth:`Engine._resolve`
    plan-cache outcome.  The last four fields are armed only once the
    call is past the result cache, so a served recording pays for none
    of them.
    """

    entry: "PreparedQuery"
    hit: bool
    t0: float
    span: Any
    deadline_at: float | None = None
    faults_before: int = 0
    requests_before: int = 0
    meter: WireMeter | None = None


@dataclass
class PreparedQuery:
    """A compiled, cached query plan.

    Attributes:
        parsed: The parsed query structure.
        key: Plan-cache key (canonical form + bindings + algorithm request).
        kind: ``"join"`` | ``"project"`` | ``"aggregate"``.
        query_class: Figure-1 class name of the body hypergraph.
        uses: Number of executions served by this entry.

    An entry belongs to one version of the data it reads:
    :meth:`Engine.register` drops it.  Its one data-dependent decision is
    :attr:`choice`: which algorithm runs along which Section 4.1 fold
    order, priced on that data when first read.  An acyclic join under
    ``auto`` holds :func:`~repro.core.planner.choose`'s pricing; under
    ``yannakakis`` the fold orders' (``units`` empty).  Any other request
    holds no decision (``choice`` is ``None``): a cyclic query, an
    aggregate (its downstream join folds its residual query its own way)
    or another pinned algorithm.  ``algorithm``, ``plan``, ``plan_order``,
    ``plan_quality`` and ``units`` read the decision.
    """

    parsed: ParsedQuery
    key: tuple
    kind: str
    query_class: str
    uses: int = 0
    # The decision, or until first read a thunk that prices it on the
    # entry's data (``None`` where there is nothing to decide).
    _choice: Choice | Callable[[], Choice] | None = field(default=None, repr=False)

    @property
    def choice(self) -> Choice | None:
        if callable(self._choice):
            with _SETTLING:
                if callable(self._choice):
                    self._choice = self._choice()
        return self._choice

    @property
    def algorithm(self) -> str:
        """The algorithm an execution runs: the decision's pick, else the
        request (a cyclic join's ``auto`` resolved by shape; an
        aggregate's ``auto`` resolves per the residual query)."""
        choice = self.choice
        return self._requested if choice is None else choice.algorithm

    @cached_property
    def _requested(self) -> str:
        request = self.key[2]
        if self.kind == "join" and request == "auto":
            return auto_algorithm(self.parsed.query)
        return request

    @property
    def plan(self) -> Plan | None:
        """The priced Yannakakis fold plan, run when ``algorithm`` is
        ``yannakakis``."""
        choice = self.choice
        return None if choice is None else choice.plan.plan

    @property
    def plan_order(self) -> tuple[str, ...] | None:
        """The fold order the plan encodes: the reduced query's relations
        (contained ones are dropped after the full reducer)."""
        choice = self.choice
        return None if choice is None else choice.plan.order

    @property
    def plan_quality(self) -> dict[str, int] | None:
        """Section 4.1 best/worst max-intermediate sizes — the Figure-3
        planned-vs-decomposition gap, exact for the entry's data."""
        choice = self.choice
        return None if choice is None else choice.quality

    @property
    def units(self) -> dict[str, int] | None:
        """Every ``auto`` candidate's predicted ``LoadReport.total``."""
        choice = self.choice
        return None if choice is None else choice.units


#: Serialises taking a pending choice, so it is priced once (readers of
#: ``choice`` need not hold the engine lock).
_SETTLING = threading.Lock()


@dataclass(frozen=True)
class QueryMetrics:
    """Per-execution serving metrics.

    ``cache_hit`` — the plan cache held an entry for this query (a
    ``register`` of a relation it reads drops the entry, so the next
    request is a miss).  ``plan_quality`` is the pricing of the data this
    execution ran on.  ``result_cached`` — the recorded execution was
    served instead of re-simulated (identical outputs and ledger).
    """

    text: str
    kind: str
    algorithm: str
    cache_hit: bool
    result_cached: bool
    load: int
    max_step_load: int
    steps: int
    out_size: int
    wall_seconds: float
    plan_quality: dict[str, int] | None
    #: Physical bytes the backend shipped across processes for this query
    #: (0 for in-process backends and served recordings).  Observational
    #: only — the load fields above count logical tuples, never bytes.
    wire_bytes: int = 0
    #: Backend request rounds this execution issued (map dispatches on the
    #: cold path; 0 for result serves).
    backend_requests: int = 0
    #: The execution failed (its :class:`ExecutionResult`, if any, carries
    #: the error); the load fields above are zero.
    failed: bool = False
    #: ``"ErrorType: message"`` when ``failed``.
    error: str | None = None
    #: The failure was a missed per-query deadline (or batch budget).
    deadline_exceeded: bool = False
    #: Worker faults (deaths + round timeouts) the backend absorbed while
    #: serving this query — recovered, not failures.
    fault_events: int = 0
    #: Root trace id of this execution's span tree (``None`` when tracing
    #: is disabled — the engine's default ``NULL_TRACER``).
    trace_id: str | None = None

    # Read by benchmarks/harness/measure.py (warm-or-cold test).
    plan_replayed = property(lambda self: False)
    # Read by benchmarks/harness/measure.py (the engine.repriced count).
    plan_reused = property(lambda self: self.cache_hit)
    # Read by benchmarks/harness/probes.py (the plan.ops probe).
    plan_ops = property(lambda self: 0)
    # Read by benchmarks/harness/probes.py (the plan.fused_groups probe).
    fused_groups = property(lambda self: 0)

    def as_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class EngineStats:
    """Aggregated serving metrics for a session or a batch.

    Counters aggregate over the whole lifetime; ``per_query`` keeps the
    most recent ``max_per_query`` records (unbounded when ``None``) so a
    long-lived serving session does not grow memory per request.
    """

    p: int
    backend: str
    queries: int = 0
    prepares: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    result_hits: int = 0
    #: Shipped statements installed into this engine's plan cache (the
    #: serving tier's cross-replica plan index feeds this; a local prepare
    #: does not count).
    plans_installed: int = 0
    total_load: int = 0
    max_load: int = 0
    total_wall_seconds: float = 0.0
    total_wire_bytes: int = 0
    total_backend_requests: int = 0
    failures: int = 0
    deadline_misses: int = 0
    fault_events: int = 0
    per_query: list[QueryMetrics] = field(default_factory=list)
    max_per_query: int | None = None

    def record(self, metrics: QueryMetrics) -> None:
        self.queries += 1
        if metrics.failed:
            self.failures += 1
        if metrics.deadline_exceeded:
            self.deadline_misses += 1
        self.fault_events += metrics.fault_events
        if metrics.cache_hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        if metrics.result_cached:
            self.result_hits += 1
        self.total_load += metrics.load
        self.max_load = max(self.max_load, metrics.load)
        self.total_wall_seconds += metrics.wall_seconds
        self.total_wire_bytes += metrics.wire_bytes
        self.total_backend_requests += metrics.backend_requests
        self.per_query.append(metrics)
        if self.max_per_query is not None and len(self.per_query) > self.max_per_query:
            del self.per_query[: len(self.per_query) - self.max_per_query]

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 wall seconds over the retained per-query window.

        Exact sample percentiles (:func:`repro.obs.percentiles`) over
        ``per_query`` — bounded by ``max_per_query``, so a long session
        reports its *recent* latency distribution — failed executions
        excluded.  All zero when nothing qualifies.
        """
        return percentiles(
            m.wall_seconds for m in self.per_query if not m.failed
        )

    def plan_gaps(self) -> dict[str, dict[str, float]]:
        """Per distinct query text: the Figure-3 planned-vs-worst gap of
        its newest retained pricing."""
        gaps: dict[str, dict[str, float]] = {}
        for m in self.per_query:
            if m.plan_quality is None:
                continue
            best = m.plan_quality["best"]
            worst = m.plan_quality["worst"]
            gaps[m.text] = {
                "best": best,
                "worst": worst,
                "orders": m.plan_quality["orders"],
                "gap": worst / best if best else 1.0,
            }
        return gaps

    def summary(self) -> str:
        lines = [
            f"{self.queries} queries on backend={self.backend} p={self.p}: "
            f"{self.cache_hits} plan hits / {self.cache_misses} misses / "
            f"{self.result_hits} result hits, total load "
            f"{self.total_load} (max {self.max_load}), "
            f"{self.total_wire_bytes} wire bytes, "
            f"{self.total_backend_requests} backend requests, "
            f"{self.total_wall_seconds:.3f}s wall"
        ]
        lat = self.latency_percentiles()
        if any(lat.values()):
            lines.append(
                f"  latency: p50={lat['p50'] * 1e3:.2f}ms "
                f"p95={lat['p95'] * 1e3:.2f}ms p99={lat['p99'] * 1e3:.2f}ms"
            )
        if self.failures or self.fault_events:
            lines.append(
                f"  faults: {self.fault_events} absorbed, {self.failures} "
                f"failures ({self.deadline_misses} deadline)"
            )
        for text, gap in self.plan_gaps().items():
            lines.append(
                f"  plan gap {gap['gap']:.2f}x (best {gap['best']} / worst "
                f"{gap['worst']} over {gap['orders']} orders): {text}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("per_query", "max_per_query")
        }
        out["latency_percentiles"] = self.latency_percentiles()
        out["plan_gaps"] = self.plan_gaps()
        out["per_query"] = [m.as_dict() for m in self.per_query]
        return out


@dataclass
class ExecutionResult:
    """Outcome of one engine execution.

    ``relation`` is a :class:`~repro.mpc.distrel.DistRelation` for full
    joins (distributed, exactly as :func:`~repro.core.runner.mpc_join`
    emits it), a :class:`~repro.data.relation.Relation` for join-project /
    group-by aggregates, or ``None`` for total aggregates (see ``scalar``).

    ``error`` is ``None`` on success.  A direct :meth:`Engine.execute`
    raises instead of returning a failed result; only
    :meth:`Engine.submit_batch` embeds failures (so batch results stay
    aligned with the submitted queries) — check :attr:`ok` before using
    the payload of a batch result.
    """

    prepared: PreparedQuery | None
    relation: DistRelation | Relation | None
    scalar: Any
    report: LoadReport
    metrics: QueryMetrics
    meta: dict[str, Any] = field(default_factory=dict)
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def rows(self) -> list[Row]:
        if isinstance(self.relation, DistRelation):
            return self.relation.all_rows()
        if isinstance(self.relation, Relation):
            return list(self.relation.rows)
        return []

    @property
    def output_size(self) -> int:
        return self.metrics.out_size


@dataclass
class BatchReport:
    """Results and aggregated metrics of one :meth:`Engine.submit_batch`."""

    results: list[ExecutionResult]
    stats: EngineStats


def _run_algorithm(
    entry: PreparedQuery, group: Any, rels: dict[str, DistRelation]
) -> tuple[DistRelation | Relation | None, Any, dict[str, Any], int]:
    """Drive the entry's resolved algorithm over ``rels`` on ``group``.

    The one join/aggregate dispatch behind cold executions and scratch
    traces; returns ``(relation, scalar, meta, out_size)``.
    """
    parsed = entry.parsed
    if entry.kind == "join":
        result = run_join_algorithm(
            group, parsed.query, rels, entry.algorithm, plan=entry.plan
        )
        out_size = result.total_size()
        return result, None, {"out_size": out_size}, out_size
    relation, scalar, meta = run_aggregate_algorithm(
        group, parsed.query, parsed.output_attrs or (), rels,
        parsed.semiring, algorithm=entry.algorithm,
    )
    return relation, scalar, meta, len(relation) if relation is not None else 1


class Engine:
    """A concurrent serving session over one warm cluster.

    Args:
        p: Number of simulated servers for every query.
        backend: Execution backend (instance, registered name, or ``None``
            for the process default) — held warm for the session lifetime.
        result_cache: Serve recorded executions until a relation they
            read is registered again (default).  The simulation is
            deterministic, so a served recording is bit-identical to a
            re-run — outputs and ledger alike; pass ``False`` to re-drive
            every execution cold on the warm cluster.  Recordings are
            held under an LRU bounded by :data:`RESULT_CACHE_ENTRIES` and
            :data:`RESULT_CACHE_BYTES`.
        registry: :class:`~repro.obs.MetricsRegistry` to instrument into
            (``None`` = a private registry per engine).  The engine
            registers its query counters/latency histograms plus *views*
            over :class:`EngineStats` and the backend's wire/fault
            counters, so one scrape (:meth:`metrics_text`) shows the
            whole session.
        tracer: :class:`~repro.obs.Tracer` minting one root ``query``
            span per execution, threaded engine → backend → worker
            rounds.  ``None`` (default) installs the no-op
            ``NULL_TRACER``: spans cost one attribute read on the hot
            path.

    Example::

        engine = Engine(p=8)
        engine.register(Relation("R1", ("A", "B"), rows1))
        engine.register(Relation("R2", ("B", "C"), rows2))
        res = engine.execute("Q(A,B) :- R1(A,B), R2(B,C)")
        print(res.rows(), res.report.load, res.metrics.cache_hit)
    """

    def __init__(
        self,
        p: int = 8,
        backend: Backend | str | None = None,
        result_cache: bool = True,
        registry: MetricsRegistry | None = None,
        tracer: Any = None,
    ) -> None:
        self.p = p
        self.result_cache = result_cache
        self._cluster = Cluster(p, backend=backend)
        self._group = self._cluster.root_group()
        self._lock = threading.RLock()
        self._relations: dict[str, Relation] = {}
        self._plans: dict[tuple, PreparedQuery] = {}
        # (name, edge, variables, aggregate|None) -> DistRelation
        self._dist_cache: dict[tuple, DistRelation] = {}
        # Recording LRU: plan key -> recording, least recent first.
        self._recordings: OrderedDict[tuple, _CachedResult] = OrderedDict()
        self._recording_bytes = 0
        self._stats = EngineStats(
            p=p, backend=self._cluster.backend.name, max_per_query=1024
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # EngineStats and the backend's wire/fault counters join the
        # registry as views (no storage migration — their locking stays
        # where it lives); every scrape shows the merged picture.
        self.registry.register_view(self._engine_view)
        self.registry.register_view(self._backend_view)

    # ------------------------------------------------------------------
    # Base-relation registry
    # ------------------------------------------------------------------
    @property
    def backend_name(self) -> str:
        return self._cluster.backend.name

    def register(self, relation: Relation, name: str | None = None) -> None:
        """Register (or update) a named base relation.

        The engine's one validity rule: every plan entry whose bindings
        read ``name``, the recording under its key and every distributed
        variant of ``name`` are dropped, under the engine lock.  The next
        request for such a query compiles a new entry, priced on the new
        data when its decision is first read.
        """
        name = name or relation.name
        with self._lock:
            self._relations[name] = relation
            stale = [
                key for key, entry in self._plans.items()
                if any(b.relation == name for b in entry.parsed.bindings)
            ]
            for key in stale:
                del self._plans[key]
                self._drop_recording(key)
            for key in [k for k in self._dist_cache if k[0] == name]:
                del self._dist_cache[key]

    def relation_names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._relations))

    def _base(self, name: str) -> Relation:
        rel = self._relations.get(name)
        if rel is None:
            if not self._relations:
                # Nothing to fuzzy-match or enumerate: say what is
                # actually wrong instead of printing an empty list.
                raise EngineError(
                    f"no registered relation {name!r}; the catalog is "
                    f"empty — register relations before querying"
                )
            close = difflib.get_close_matches(name, self._relations, n=3, cutoff=0.5)
            hint = (
                f"; did you mean {' or '.join(close)}?"
                if close
                else f"; registered: {sorted(self._relations)}"
            )
            raise EngineError(f"no registered relation {name!r}{hint}")
        return rel

    def _bound(self, binding: Binding) -> Relation:
        """The base relation renamed to the binding's edge key + variables.

        Binding is a rename: rows are already deduplicated (and
        annotations combined) in the base relation, so the bound variant
        shares rows, annotations and the ``column_codes`` memo with it.
        """
        base = self._base(binding.relation)
        if binding.variables is None:
            return base if base.name == binding.edge else base.renamed(binding.edge)
        if len(binding.variables) != len(base.attrs):
            raise EngineError(
                f"atom {binding.edge}({','.join(binding.variables)}) has "
                f"arity {len(binding.variables)} but relation "
                f"{binding.relation!r} has columns {base.attrs}"
            )
        return base.renamed(binding.edge, binding.variables)

    def instance_for(self, parsed: ParsedQuery) -> Instance:
        """Materialize the query's instance from registered relations.

        Public so conformance/parity tests and benchmarks can hand the
        *identical* instance to the one-shot entry points.
        """
        with self._lock:
            return Instance(
                parsed.query, {b.edge: self._bound(b) for b in parsed.bindings}
            )

    def _dist_rels(
        self, entry: PreparedQuery, group: Any, cache: dict[tuple, DistRelation]
    ) -> dict[str, DistRelation]:
        """The entry's bound relations distributed on ``group`` per edge,
        annotated in the query's semiring for an aggregate.

        A relation's stored annotations are read only when they were stored
        in that semiring; otherwise every row is annotated with its ``one``.

        The serving path passes ``_dist_cache``, so a distributed variant
        (and the substrate caches on it) outlives the query; explain's
        scratch group passes a fresh dict.
        """
        parsed = entry.parsed
        aggregate = None if entry.kind == "join" else (parsed.aggregate or "bool")
        rels: dict[str, DistRelation] = {}
        for b in parsed.bindings:
            key = (b.relation, b.edge, b.variables, aggregate)
            dist = cache.get(key)
            if dist is None:
                rel = self._bound(b)
                if aggregate is not None and rel.semiring is not parsed.semiring:
                    rel = rel.with_annotations(parsed.semiring)
                dist = cache[key] = distribute_relation(
                    rel, group, annotate=aggregate is not None
                )
            rels[b.edge] = dist
        return rels

    # ------------------------------------------------------------------
    # Recording LRU (backs the result cache)
    # ------------------------------------------------------------------
    def _recording_nbytes(self, stored: Any) -> int:
        """Resident bytes of a recording's payload, never by encoding it.

        A join result is priced from block metadata,
        ``ColumnBlock.approx_nbytes``: typed arrays at itemsize x length
        plus the dictionary values each column references — O(dictionary),
        no pass over the rows.  An aggregate result is a row-backed
        ``Relation`` and is priced as held: the row container, each row
        tuple, every cell value (shared values once per reference, an
        overcount) and the annotations.  Wire size is the wrong unit for a
        bound on residency: a compressed narrow blob can be two orders of
        magnitude under what the LRU actually keeps.
        """
        if isinstance(stored, DistRelation):
            return 256 + sum(b.approx_nbytes() for b in stored.column_parts)
        if isinstance(stored, Relation):
            rows, anns = stored.rows, stored.annotations or ()
            held = chain((rows, anns), rows, chain.from_iterable(rows), anns)
            return 256 + sum(map(sys.getsizeof, held))
        return 256

    def _store_recording(self, key: tuple, recording: _CachedResult) -> None:
        """Hold a recording under its plan-cache key, within the LRU bounds.

        The LRU budgets resident sizes (:meth:`_recording_nbytes`)
        alongside an entry count, so a long serving session cannot grow
        recording memory without limit.
        """
        self._drop_recording(key)
        cap_e, cap_b = RESULT_CACHE_ENTRIES, RESULT_CACHE_BYTES
        if cap_b is not None and recording.stored_bytes > cap_b:
            # The recording alone exceeds the byte budget: it is not
            # retained (every execution of this query re-drives) — and it
            # must not flush everyone else's recordings on its way out.
            return
        self._recordings[key] = recording
        self._recording_bytes += recording.stored_bytes
        while (cap_e is not None and len(self._recordings) > cap_e) or (
            cap_b is not None and self._recording_bytes > cap_b
        ):
            _key, victim = self._recordings.popitem(last=False)
            self._recording_bytes -= victim.stored_bytes

    def _drop_recording(self, key: tuple) -> None:
        old = self._recordings.pop(key, None)
        if old is not None:
            self._recording_bytes -= old.stored_bytes

    # ------------------------------------------------------------------
    # Prepare: classify and cache; the decision is priced on first read
    # ------------------------------------------------------------------
    def prepare(
        self, query: str | ParsedQuery, algorithm: str = "auto"
    ) -> PreparedQuery:
        """Compile (or fetch from cache) the plan for a query.

        Compiling classifies the query and checks its bindings against
        the registered relations; it prices nothing.  The entry's
        decision (:class:`PreparedQuery`) is priced on the same data when
        first read — normally by its first execution.  Pricing issues no
        backend round on any backend (so it cannot fault) and is exact
        for the entry's data.  The entry is cached until a ``register``
        of a relation it reads drops it.

        Args:
            query: Datalog-style text, a catalog name, or a parsed query.
            algorithm: ``"auto"`` runs an acyclic join's applicable
                candidate with the least predicted load
                (:func:`~repro.core.planner.choose`), a cyclic one's
                :func:`~repro.core.runner.auto_algorithm` and an
                aggregate's per the residual-query classification; a
                concrete name pins the algorithm (``"yannakakis"`` follows
                the priced Section 4.1 plan).
        """
        parsed = query if isinstance(query, ParsedQuery) else parse_query(query)
        with self._lock:
            entry, _hit = self._resolve(parsed, algorithm)
            return entry

    def _plan_key(self, parsed: ParsedQuery, algorithm: str) -> tuple:
        # Bindings are keyed order-insensitively (atom order is irrelevant)
        # but participate in the key: two queries with one canonical form
        # can still bind a base relation's columns to different variables
        # (``R(A,B)`` vs ``R(B,A)``), and those must not share a plan.
        return (
            parsed.canonical(),
            tuple(sorted(parsed.bindings, key=lambda b: b.edge)),
            algorithm,
        )

    def _decide(
        self, parsed: ParsedQuery, algorithm: str
    ) -> Callable[[], Choice] | None:
        """A thunk that prices an entry's decision on the current data, or
        ``None`` when no execution reads a fold order (see
        :class:`PreparedQuery`).  Checks the request and the bindings."""
        if parsed.kind == "join":
            if algorithm not in ALGORITHMS:
                raise EngineError(
                    f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}"
                )
        elif algorithm not in AGG_ALGORITHMS:
            raise EngineError(
                f"unknown downstream algorithm {algorithm!r}; pick from "
                f"{AGG_ALGORITHMS}"
            )
        query = parsed.query
        instance = self.instance_for(parsed)
        if (
            parsed.kind != "join"
            or algorithm not in ("auto", "yannakakis")
            or not query.is_acyclic()
        ):
            return None
        if algorithm == "yannakakis":
            return lambda: Choice(
                "yannakakis", *price_fold_orders(query, instance), units={}
            )
        p = self.p
        return lambda: choose(query, instance, p)

    def _resolve(
        self, parsed: ParsedQuery, algorithm: str
    ) -> tuple[PreparedQuery, bool]:
        """Fetch the plan entry, compiling it on a miss; returns the entry
        and whether the plan cache held it.

        A held entry is valid by construction: :meth:`register` drops every
        entry that read the relation it updates.  Compiling classifies the
        query and checks its bindings; the decision is priced on first read.
        """
        key = self._plan_key(parsed, algorithm)
        entry = self._plans.get(key)
        if entry is not None:
            return entry, True
        entry = self._plans[key] = PreparedQuery(
            parsed=parsed,
            key=key,
            kind=parsed.kind,
            query_class=classify(parsed.query).name,
            _choice=self._decide(parsed, algorithm),
        )
        self._stats.prepares += 1
        return entry, False

    # ------------------------------------------------------------------
    # Execute: serve the recording, or run the prepared plan cold
    # ------------------------------------------------------------------
    def execute(
        self,
        query: str | ParsedQuery | PreparedQuery,
        algorithm: str = "auto",
        deadline: float | None = None,
    ) -> ExecutionResult:
        """Run a query, preparing (or reusing the cached plan) as needed.

        Outputs and the per-query :class:`~repro.mpc.cluster.LoadReport`
        are bit-identical to the one-shot entry points run on the same
        instance with the same resolved algorithm.

        Args:
            deadline: Seconds this call may spend executing (``None`` =
                unbounded).  Checked cooperatively at every ledger post,
                so an expired deadline cancels the query *between
                simulated communication rounds* and raises
                :class:`~repro.errors.DeadlineExceeded`; partial ledger
                state is discarded.

        Raises:
            DeadlineExceeded: The deadline expired mid-execution.
            Exception: Whatever else a cold execution raised (a
                :class:`~repro.errors.FaultError` the backend could not
                recover, an :class:`~repro.errors.MPCError` from a worker,
                ...), unchanged, after recording the call as failed.  The
                next call drives the backend again.
        """
        if isinstance(query, PreparedQuery):
            parsed, algorithm = query.parsed, query.key[2]
        else:
            parsed = query if isinstance(query, ParsedQuery) else parse_query(query)
        # Root of this execution's span tree; costs ~nothing when tracing
        # is off (NULL_TRACER hands out the no-op NULL_SPAN singleton).
        span = self.tracer.span("query", query=parsed.text, algorithm=algorithm)
        try:
            result = self._execute_traced(parsed, algorithm, deadline, span)
        except Exception as exc:
            span.end(error=f"{type(exc).__name__}: {exc}")
            raise
        if span.recording:
            m = result.metrics
            span.set(
                path="cached" if m.result_cached else "cold",
                wire_bytes=m.wire_bytes,
                load=m.load,
            )
        span.end()
        return result

    def _execute_traced(
        self,
        parsed: ParsedQuery,
        algorithm: str,
        deadline: float | None,
        span: Any,
    ) -> ExecutionResult:
        """The :meth:`execute` body under one root span.

        ``span`` parents the ``cold_execute`` child span.  Past the
        result cache the call gets its own :class:`~repro.obs.WireMeter`,
        which travels into every backend round this query issues, so
        ``wire_bytes`` is per-query by construction — deltas of the
        backend's *shared* cumulative counters would double-count
        concurrent submitters.
        """
        with self._lock:
            entry, hit = self._resolve(parsed, algorithm)
            call = _Call(entry=entry, hit=hit, t0=time.perf_counter(), span=span)
            if deadline is not None and deadline <= 0:
                exc = DeadlineExceeded(
                    "deadline expired before execution began"
                )
                self._finish(call, "failed", error=exc)
                raise exc
            cached = self._recordings.get(entry.key) if self.result_cache else None
            if cached is not None:
                entry.uses += 1
                self._recordings.move_to_end(entry.key)
                metrics = self._finish(
                    call, "cached", cached.report, cached.out_size
                )
                return ExecutionResult(
                    prepared=entry,
                    relation=_lazy_copy(cached.relation),
                    scalar=cached.scalar,
                    report=cached.report,
                    metrics=metrics,
                    meta=dict(cached.meta),
                )
            if deadline is not None:
                call.deadline_at = time.monotonic() + deadline
            call.faults_before = self._fault_level()
            call.requests_before = self._cluster.backend.requests
            call.meter = WireMeter()
            # Cold path: owns the serving cluster, so it runs under the
            # engine lock end to end.
            self._cluster.deadline = call.deadline_at
            try:
                return self._execute_on_cluster(call)
            except Exception as exc:
                # A deadline miss, a fault the backend could not recover,
                # a worker's error: the partial ledger is discarded, the
                # call is recorded failed, and the next call on the same
                # data drives the backend afresh.
                self._cluster.reset()
                self._finish(call, "failed", error=exc)
                raise
            finally:
                self._cluster.deadline = None

    def _execute_on_cluster(self, call: _Call) -> ExecutionResult:
        """One cold execution on the warm serving cluster.

        The failure path lives in :meth:`_execute_traced`; this method
        only runs, records the result, and reports.  Caller holds the
        lock and has already armed ``self._cluster.deadline``.
        """
        entry = call.entry
        cspan = call.span.child("cold_execute", algorithm=entry.algorithm)
        # Meter and span ride on the cluster from *before* relation
        # distribution: dist-cache misses ship parts to the workers, and
        # those bytes belong to this query.  Cleared in the finally no
        # matter how the execution ends — the serving cluster is shared.
        self._cluster.wire_meter = call.meter
        self._cluster.obs_span = cspan
        try:
            with cspan:
                rels = self._dist_rels(entry, self._group, self._dist_cache)
                self._cluster.reset()
                relation, scalar, meta, out_size = _run_algorithm(
                    entry, self._group, rels
                )
        finally:
            self._cluster.wire_meter = None
            self._cluster.obs_span = None
        report = self._cluster.snapshot()
        entry.uses += 1
        self._stamp_meta(meta, entry, call.meter.bytes)
        # Record the execution in columnar form.  Every join algorithm
        # emits column blocks, so the recording is a second lazy relation
        # over the result's own blocks: nothing is encoded here, and the
        # caller's row view stays on the caller's object.  (Aggregates
        # return a ``Relation``, recorded as is.)  The recording backs
        # the result cache (serve without executing) under the LRU.
        stored = _lazy_copy(relation)
        self._store_recording(
            entry.key,
            _CachedResult(
                relation=stored,
                scalar=scalar,
                report=report,
                meta=dict(meta),
                out_size=out_size,
                stored_bytes=self._recording_nbytes(stored),
            ),
        )
        # The clock stops after the recording: sizing the result blocks
        # is part of what a cold request costs its caller.
        metrics = self._finish(call, "cold", report, out_size)
        return ExecutionResult(
            prepared=entry,
            relation=relation,
            scalar=scalar,
            report=report,
            metrics=metrics,
            meta=meta,
        )

    def _stamp_meta(
        self, meta: dict[str, Any], entry: PreparedQuery, wire_bytes: int
    ) -> None:
        """The serving facts every executed result's ``meta`` carries."""
        meta.update(
            algorithm=entry.algorithm,
            p=self.p,
            backend=self.backend_name,
            query_class=entry.query_class,
            wire_bytes=wire_bytes,
        )

    # ------------------------------------------------------------------
    # Reporting: every serving path records through _finish
    # ------------------------------------------------------------------
    def _fault_level(self) -> int:
        """Cumulative faults the backend has absorbed (deltas per query)."""
        fs = self._cluster.backend.fault_stats()
        return fs.get("worker_deaths", 0) + fs.get("round_timeouts", 0)

    def _finish(
        self,
        call: _Call,
        path: str,
        report: LoadReport | None = None,
        out_size: int = 0,
        error: Exception | None = None,
    ) -> QueryMetrics:
        """Build and record one call's :class:`QueryMetrics`.

        Every serving path reports through here.  ``path`` is the
        registry label — ``cold`` | ``cached`` | ``failed`` — and
        decides which counters apply: only ``cold`` touched the warm
        backend (wire bytes, request delta, faults absorbed on the way),
        and a failure counts as a plan-cache miss (it served nothing
        from the cache).
        """
        entry = call.entry
        failed = path == "failed"
        # Reading the decision prices it: a call that failed before its
        # execution read the decision reports the request instead.
        if callable(entry._choice):
            algorithm, quality = entry.key[2], None
        else:
            algorithm, quality = entry.algorithm, entry.plan_quality
        load = max_step_load = steps = 0
        if report is not None:
            load = report.load
            max_step_load = report.max_step_load
            steps = report.steps
        # Beyond what every path reports, a field keeps its dataclass
        # default unless the path touched it (a cached hit touches none).
        extra: dict[str, Any] = {}
        if path == "cold":
            extra.update(
                wire_bytes=call.meter.bytes,
                backend_requests=(
                    self._cluster.backend.requests - call.requests_before
                ),
                fault_events=self._fault_level() - call.faults_before,
            )
        elif failed:
            extra.update(
                failed=True,
                error=f"{type(error).__name__}: {error}",
                deadline_exceeded=isinstance(error, DeadlineExceeded),
            )
        metrics = QueryMetrics(
            text=entry.parsed.text,
            kind=entry.kind,
            algorithm=algorithm,
            cache_hit=call.hit and not failed,
            result_cached=path == "cached",
            load=load,
            max_step_load=max_step_load,
            steps=steps,
            out_size=out_size,
            wall_seconds=time.perf_counter() - call.t0,
            plan_quality=quality,
            trace_id=call.span.trace_id,
            **extra,
        )
        self._record(metrics, path)
        return metrics

    # ------------------------------------------------------------------
    # Explain: trace a plan without executing on the serving cluster
    # ------------------------------------------------------------------
    def trace_plan(
        self, query: str | ParsedQuery, algorithm: str = "auto"
    ) -> PhysicalPlan:
        """The physical op schedule a cold execution of ``query`` runs.

        Performs one traced execution on a *scratch* serial cluster (same
        ``p``, freshly distributed copies of the bound relations) so
        neither the serving ledger nor the warm backend is touched.  The
        op schedule is backend-independent — ledgers are, by the
        conformance contract — so the scratch trace is exactly what the
        serving cluster executes.
        """
        parsed = query if isinstance(query, ParsedQuery) else parse_query(query)
        with self._lock:
            entry, _hit = self._resolve(parsed, algorithm)
            scratch = Cluster(self.p, backend="serial")
            group = scratch.root_group()
            rels = self._dist_rels(entry, group, {})
            rec = scratch.recorder = TraceRecorder()
            _run_algorithm(entry, group, rels)
            return rec.finish(
                query=entry.parsed.text,
                kind=entry.kind,
                algorithm=entry.algorithm,
                p=self.p,
                backend=self.backend_name,
            )

    def explain(
        self,
        query: str | ParsedQuery,
        algorithm: str = "auto",
        timings: bool = False,
    ) -> str:
        """Render :meth:`trace_plan` — ops and per-op ledger units.

        With ``timings=True`` the plan is additionally *measured*: the
        query executes once (warming worker memos and distributed caches
        into their serving state), then the trace replays per-op on the
        serving backend (:meth:`timed_replay`), and every Charge/MapParts
        row gains measured ``wall=``/``wire=`` columns — the ledger's
        load story and the wall-clock/bytes story, row by row.  Under
        ``auto`` an acyclic join's last line names the algorithm with
        every candidate's predicted units.
        """
        if timings:
            trace, op_timings = self.timed_replay(query, algorithm)
            text = trace.explain(timings=op_timings)
        else:
            text = self.trace_plan(query, algorithm).explain()
        entry = self.prepare(query, algorithm)
        if entry.units:
            priced = ", ".join(f"{a}={u}" for a, u in entry.units.items())
            text += f"\nalgorithm: {entry.algorithm} (priced: {priced})"
        return text

    def timed_replay(
        self, query: str | ParsedQuery, algorithm: str = "auto"
    ) -> tuple[PhysicalPlan, dict[int, dict[str, float]]]:
        """Measure one per-op replay of the query's physical plan.

        Executes the query once first — warming the backend exactly the
        way serving would — then traces it (:meth:`trace_plan`) and
        replays the trace one round per op on a scratch ledger over the
        *serving* backend with per-op wall/wire measurement
        (:meth:`Executor.replay <repro.plan.executor.Executor.replay>`).
        The scratch ledger is discarded; the serving ledger and session
        stats see only the warming execution.  Returns ``(plan,
        op_timings)`` with ``op_timings`` keyed by op index (the shape
        :meth:`PhysicalPlan.explain` accepts).
        """
        parsed = query if isinstance(query, ParsedQuery) else parse_query(query)
        self.execute(parsed, algorithm)
        trace = self.trace_plan(parsed, algorithm)
        scratch = Cluster(self.p, backend=self._cluster.backend)
        stats = Executor(scratch).replay(trace)
        return trace, stats["op_timings"]

    # ------------------------------------------------------------------
    # Plan shipping (DESIGN.md section 10): prepared statements
    # ------------------------------------------------------------------
    def export_plan(
        self, query: str | ParsedQuery, algorithm: str = "auto"
    ) -> bytes:
        """This engine's plan for a query, as a portable prepared statement.

        The statement is the query text plus the algorithm request, one
        JSON object: ``{"algorithm": ..., "query": ...}``.  Another
        engine :meth:`install_plan`\\ s it, preparing the query on its
        own data, so its first execution is a plan-cache hit.

        Raises:
            PlanShipError: This engine has no plan-cache entry for the
                query (prepare or execute it first).
        """
        parsed = query if isinstance(query, ParsedQuery) else parse_query(query)
        with self._lock:
            entry = self._plans.get(self._plan_key(parsed, algorithm))
        if entry is None:
            raise PlanShipError(
                f"nothing to export for {parsed.text!r}: prepare or execute "
                f"the query on this engine first"
            )
        return json.dumps(
            {"algorithm": algorithm, "query": entry.parsed.text},
            sort_keys=True,
        ).encode()

    def install_plan(self, blob: bytes) -> PreparedQuery:
        """Prepare a shipped statement (:meth:`export_plan`) on this engine.

        The blob comes from another process and is read as untrusted
        data: it must decode as a JSON object with exactly the string
        fields ``algorithm`` and ``query``, and the query is then
        prepared here — parsed and bound to this engine's registered
        relations, its decision to be priced on this engine's data —
        exactly as :meth:`prepare` would.  Nothing else in the blob is believed.

        Raises:
            PlanShipError: The blob is not such a record, or its query
                cannot be prepared here (parse error, unknown relation,
                unknown algorithm).  The plan cache is left as it was.
        """
        try:
            record = json.loads(blob)
            entry = (
                self.prepare(record["query"], record["algorithm"])
                if isinstance(record, dict)
                and record.keys() == {"algorithm", "query"}
                and all(isinstance(v, str) for v in record.values())
                else None
            )
        except (ValueError, RecursionError, ReproError) as exc:
            raise PlanShipError(f"cannot install shipped plan: {exc}") from exc
        if entry is None:
            raise PlanShipError(
                "a shipped plan is a JSON object with exactly the string "
                "fields 'algorithm' and 'query'"
            )
        with self._lock:
            self._stats.plans_installed += 1
        return entry

    # ------------------------------------------------------------------
    # Batch submission front
    # ------------------------------------------------------------------
    def submit_batch(
        self,
        queries: Sequence[str | ParsedQuery | PreparedQuery],
        budget: float | None = None,
    ) -> BatchReport:
        """Run many queries against the shared backend, one after another.

        Args:
            queries: Query texts / parsed / prepared queries, executed in
                submission order (results align with the input).
            budget: Wall-clock seconds for the *whole batch* (``None`` =
                unbounded).  Each query executes under the remaining
                budget as its deadline; once the budget is spent, the
                rest of the batch fast-fails with
                :class:`~repro.errors.DeadlineExceeded`.

        Returns:
            :class:`BatchReport` with per-query results and aggregated
            :class:`EngineStats` for just this batch.  Unlike a direct
            :meth:`execute`, a failed query does not abort the batch:
            its :class:`ExecutionResult` carries the error (``ok`` is
            False, the report is empty) so one poisoned query cannot
            take the whole submission down.
        """
        if not queries:
            raise EngineError("empty batch")
        cutoff = time.monotonic() + budget if budget is not None else None
        results: list[ExecutionResult] = []
        stats = EngineStats(p=self.p, backend=self.backend_name)
        for q in queries:
            remaining = cutoff - time.monotonic() if cutoff is not None else None
            try:
                res = self.execute(q, deadline=remaining)
            except ReproError as exc:
                res = self._failed_result(q, exc)
            results.append(res)
            stats.record(res.metrics)
        stats.prepares = sum(
            1 for r in results if r.ok and not r.metrics.cache_hit
        )
        return BatchReport(results=results, stats=stats)

    def _failed_result(
        self, query: str | ParsedQuery | PreparedQuery, exc: ReproError
    ) -> ExecutionResult:
        """An error embedded as a result (batch alignment; empty ledger)."""
        if isinstance(query, PreparedQuery):
            text = query.parsed.text
        elif isinstance(query, ParsedQuery):
            text = query.text
        else:
            text = str(query)
        metrics = QueryMetrics(
            text=text,
            kind="?",
            algorithm="?",
            cache_hit=False,
            result_cached=False,
            load=0,
            max_step_load=0,
            steps=0,
            out_size=0,
            wall_seconds=0.0,
            plan_quality=None,
            failed=True,
            error=f"{type(exc).__name__}: {exc}",
            deadline_exceeded=isinstance(exc, DeadlineExceeded),
        )
        return ExecutionResult(
            prepared=None,
            relation=None,
            scalar=None,
            report=LoadReport(
                p=self.p, totals=(0,) * self.p, load=0,
                max_step_load=0, steps=0, by_label={},
            ),
            metrics=metrics,
            error=exc,
        )

    # ------------------------------------------------------------------
    # Observability: registry recording, views, exposition
    # ------------------------------------------------------------------
    def _record(self, metrics: QueryMetrics, path: str) -> None:
        """Record one execution into the session stats and the registry.

        ``path`` labels the serving path that handled the query:
        ``cold`` | ``cached`` | ``failed``.
        """
        self._stats.record(metrics)
        reg = self.registry
        reg.counter(
            "repro_queries_total",
            help="Queries executed, by serving path.",
            path=path,
        ).inc()
        reg.histogram(
            "repro_query_seconds",
            help="Query wall-clock seconds, by serving path.",
            path=path,
        ).observe(metrics.wall_seconds)

    def _engine_view(self) -> dict[str, float]:
        """:class:`EngineStats` counters as registry gauges (a view —
        the stats object stays the storage)."""
        s = self._stats
        return {
            "repro_engine_queries": s.queries,
            "repro_engine_prepares": s.prepares,
            "repro_engine_cache_hits": s.cache_hits,
            "repro_engine_cache_misses": s.cache_misses,
            "repro_engine_result_hits": s.result_hits,
            "repro_engine_plans_installed": s.plans_installed,
            "repro_engine_total_load": s.total_load,
            "repro_engine_wire_bytes": s.total_wire_bytes,
            "repro_engine_backend_requests": s.total_backend_requests,
            "repro_engine_failures": s.failures,
            "repro_engine_deadline_misses": s.deadline_misses,
            "repro_engine_fault_events": s.fault_events,
        }

    def _backend_view(self) -> dict[str, float]:
        """The warm backend's wire/fault counters as registry gauges.

        Both snapshots are lock-protected copies on the backend side, so
        a scrape mid-round sees a consistent picture.
        """
        backend = self._cluster.backend
        out: dict[str, float] = {}
        for k, v in backend.wire_stats().items():
            out[f"repro_wire_{k}"] = v
        for k, v in backend.fault_stats().items():
            out[f"repro_fault_{k}"] = v
        return out

    def metrics_snapshot(self) -> dict[str, Any]:
        """The unified registry (instruments + views) as JSON-able data."""
        return self.registry.snapshot()

    def metrics_text(self) -> str:
        """The unified registry in the Prometheus text exposition format."""
        return self.registry.render_prometheus()

    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """Cumulative session statistics (live object; treat as read-only)."""
        with self._lock:
            return self._stats

    def backend_fault_stats(self) -> dict:
        """The warm backend's cumulative fault/recovery counters."""
        with self._lock:
            return self._cluster.backend.fault_stats()

    def prepared_queries(self) -> list[PreparedQuery]:
        with self._lock:
            return list(self._plans.values())

    def clear_caches(self) -> None:
        """Drop prepared plans, cached relations and recordings."""
        with self._lock:
            self._plans.clear()
            self._dist_cache.clear()
            self._recordings.clear()
            self._recording_bytes = 0

    def __repr__(self) -> str:
        return (
            f"Engine<p={self.p}, backend={self.backend_name}, "
            f"{len(self._relations)} relations, {len(self._plans)} plans>"
        )
