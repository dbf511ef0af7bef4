"""A persistent serving session: warm cluster, prepared plans, batches.

Everything else in the repo is one-shot: :func:`repro.core.runner.mpc_join`
builds a fresh :class:`~repro.mpc.cluster.Cluster` per call, so the
substrate caches attached to distributed relations never amortize across
queries.  :class:`Engine` is the serving-side answer:

* **Registered base relations** — named :class:`~repro.data.relation.
  Relation` objects, versioned on every update.
* **One warm cluster/backend** held across queries.  Distributed (and
  annotated) variants of each registered relation are cached keyed by
  ``(name, version, binding)``, so the per-relation substrate caches
  (sorted runs, key encodings) and the multiprocess workers'
  content-addressed memos keep paying off query after query.
* **``prepare()``** — parse, classify, resolve the algorithm
  (:func:`~repro.core.runner.auto_algorithm`), price the Yannakakis fold
  orders (:func:`~repro.core.planner.price_fold_orders`, Section 4.1 —
  exact, in RAM, no backend round) once, and cache
  the compiled plan keyed by the query's canonical form + bindings.  When
  a registered relation changes, the orders are re-priced on the new data
  and the plan is revalidated (the same order wins) or recompiled (another
  does) — a stale plan never serves, and stale *data* never
  serves because the distributed-relation caches are version-keyed.
* **``execute()``** — cold executions drive the resolved algorithm
  through the same :func:`~repro.core.runner.run_join_algorithm` /
  :func:`~repro.core.runner.run_aggregate_algorithm` seams the one-shot
  entry points use, *tracing the physical op schedule as they go*
  (:mod:`repro.plan`); warm executions replay that schedule through the
  :class:`~repro.plan.executor.Executor` — ledger re-charged bit-exactly,
  worker-local compute re-issued in one ``run_ops`` round — instead of
  re-driving Python control flow.  Either way, outputs and the
  per-query :class:`~repro.mpc.cluster.LoadReport` are bit-identical to
  ``mpc_join`` / ``mpc_join_aggregate`` (see ``tests/test_engine_parity``).
* **``submit_batch()``** — run many queries against the shared backend,
  optionally from multiple submitter threads, aggregating per-query
  metrics into an :class:`EngineStats` report.

Thread-safety: the engine serializes cluster use behind an internal lock
(per-query ledgers require exclusive access to the shared ledger), so
``execute`` may be called concurrently from many threads; executions are
correct and metrics are per-query, but they do not overlap in time.
"""

from __future__ import annotations

import difflib
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Any, Sequence

from repro.core.planner import PlanChoice, price_fold_orders
from repro.data.columns import pack_blob, unpack_blob
from repro.core.runner import (
    ALGORITHMS,
    auto_algorithm,
    run_aggregate_algorithm,
    run_join_algorithm,
)
from repro.core.yannakakis import Plan
from repro.data.instance import Instance
from repro.data.relation import Relation, Row
from repro.engine.parser import Binding, ParsedQuery, parse_query
from repro.errors import (
    DeadlineExceeded,
    EngineError,
    FaultError,
    PlanShipError,
    QueryQuarantined,
    ReproError,
)
from repro.mpc.backends import Backend
from repro.mpc.cluster import Cluster, LoadReport
from repro.mpc.distrel import DistRelation, distribute_relation
from repro.obs import MetricsRegistry, NULL_TRACER, WireMeter, percentiles
from repro.plan import Executor, PhysicalPlan, TraceRecorder
from repro.plan.ship import (
    decode_ops,
    decode_plan,
    encode_ops,
    encode_plan,
    plan_digest,
    relation_digest,
    resolve_fn,
)
from repro.query.classify import classify
from repro.semiring.semirings import ALL_SEMIRINGS

__all__ = [
    "BatchReport",
    "Engine",
    "EngineStats",
    "ExecutionResult",
    "PreparedQuery",
    "QueryMetrics",
]

#: Downstream algorithms accepted for aggregate/project queries.
_AGG_ALGORITHMS = ("auto", "rhierarchical", "acyclic", "yannakakis")


def _lazy_copy(rel: Any) -> Any:
    """A fresh lazy relation over a distributed result's (shared) blocks."""
    return rel.aligned(rel.attrs) if isinstance(rel, DistRelation) else rel


@dataclass
class _CachedResult:
    """A recorded execution, replayable while its data versions hold.

    The simulation is deterministic: re-running an unchanged plan over
    unchanged registered relations reproduces the same outputs and the
    same ledger bit for bit, so serving the recording *is* the execution
    (the same argument by which a sorted run is billed from its recorded
    counts).  Version mismatch ⇒ the recording is unservable.

    A distributed result is held as a column-backed :class:`DistRelation`
    nobody reads rows from: every serve hands out a *fresh* lazy relation
    over the same immutable blocks, so a caller that materializes rows
    does so on its own copy, which dies with the caller instead of
    pinning a row view (per-row tuples, pure GC ballast) in the cache.
    """

    relation_versions: dict[str, int]
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
    :class:`QueryMetrics`.  ``status`` is the :meth:`Engine._resolve`
    plan-cache status.  The last four fields are armed only once the
    call is past the result cache, so a cached hit pays for none of them.
    """

    entry: "PreparedQuery"
    status: str
    t0: float
    versions: dict[str, int]
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
        algorithm: Resolved join algorithm (joins) or downstream algorithm
            (aggregates; ``"auto"`` resolves per the residual query).
        plan: Priced Yannakakis fold plan (acyclic joins), consulted when
            ``algorithm == "yannakakis"``.
        plan_order: The fold order the plan encodes.
        plan_quality: Section 4.1 best/worst max-intermediate sizes — the
            Figure-3 planned-vs-decomposition gap, observable per query;
            exact for the data at ``relation_versions`` (refreshed on
            every revalidation).
        relation_versions: Registered-relation versions the entry was
            compiled or last revalidated against.
        prepare_seconds: Wall time spent compiling.
        uses: Number of executions served by this entry.
        trace: The traced :class:`~repro.plan.ir.PhysicalPlan` of this
            entry's last cold execution — the op schedule warm executions
            replay through the :class:`~repro.plan.executor.Executor`
            instead of re-driving the algorithm's Python control flow.
            ``None`` until first executed; refreshed whenever versions
            move.
    """

    parsed: ParsedQuery
    key: tuple
    kind: str
    query_class: str
    algorithm: str
    plan: Plan | None
    plan_order: tuple[str, ...] | None
    plan_quality: dict[str, int] | None
    relation_versions: dict[str, int]
    prepare_seconds: float
    uses: int = 0
    cached_result: _CachedResult | None = None
    trace: PhysicalPlan | None = None


@dataclass(frozen=True)
class QueryMetrics:
    """Per-execution serving metrics.

    ``cache_hit`` — the plan cache served this query without looking at
    the data.  ``plan_reused`` — the compiled plan was not recompiled
    (includes revalidation after a data update: re-priced, same fold order
    wins).  ``invalidated`` — a cached plan existed but was recompiled
    because another fold order wins on the new data.  ``plan_quality`` is
    the pricing of the data this execution ran on.  ``result_cached`` —
    the recorded execution was replayed instead of re-simulated (identical
    outputs and ledger).
    ``plan_replayed`` — the traced physical plan was replayed through the
    op executor (one backend request, ledger re-charged bit-exactly)
    instead of re-driving Python control flow.
    """

    text: str
    kind: str
    algorithm: str
    cache_hit: bool
    plan_reused: bool
    invalidated: bool
    result_cached: bool
    load: int
    max_step_load: int
    steps: int
    out_size: int
    wall_seconds: float
    plan_quality: dict[str, int] | None
    #: Physical bytes the backend shipped across processes for this query
    #: (0 for in-process backends and replayed recordings).  Observational
    #: only — the load fields above count logical tuples, never bytes.
    wire_bytes: int = 0
    #: The traced physical plan was replayed through the Executor.
    plan_replayed: bool = False
    #: Ops in the physical plan that served (or was traced by) this query.
    plan_ops: int = 0
    #: Worker-local (MapParts) ops among them.
    map_ops: int = 0
    #: ``run_ops`` batches the replay dispatched: 1 when the plan has
    #: worker-local ops, else 0 (always 0 off-replay).
    fused_groups: int = 0
    #: Backend request rounds this execution issued (map dispatches on the
    #: cold path; the run_ops round on the replay path; 0 for result
    #: serves).
    backend_requests: int = 0
    #: The execution failed (its :class:`ExecutionResult`, if any, carries
    #: the error); the load fields above are zero.
    failed: bool = False
    #: ``"ErrorType: message"`` when ``failed``.
    error: str | None = None
    #: The failure was a missed per-query deadline (or batch budget).
    deadline_exceeded: bool = False
    #: The query was re-run to completion on the serial backend after the
    #: warm backend faulted (degradation ladder, second-to-last rung).
    degraded_serial: bool = False
    #: Worker faults (deaths + round timeouts) the backend absorbed while
    #: serving this query — recovered, not failures.
    fault_events: int = 0
    #: Root trace id of this execution's span tree (``None`` when tracing
    #: is disabled — the engine's default ``NULL_TRACER``).
    trace_id: str | None = None

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
    invalidations: int = 0
    result_hits: int = 0
    plan_replays: int = 0
    #: Shipped plans installed into this engine's plan cache (the serving
    #: tier's cross-replica plan index feeds this; a local cold trace does
    #: not count).
    plans_installed: int = 0
    total_load: int = 0
    max_load: int = 0
    total_wall_seconds: float = 0.0
    total_wire_bytes: int = 0
    total_backend_requests: int = 0
    failures: int = 0
    deadline_misses: int = 0
    #: Quarantine events (a query entered quarantine) and subsequent
    #: fast-fails served from it.
    quarantined: int = 0
    quarantine_fast_fails: int = 0
    degraded_serial: int = 0
    fault_events: int = 0
    per_query: list[QueryMetrics] = field(default_factory=list)
    max_per_query: int | None = None

    def record(self, metrics: QueryMetrics) -> None:
        self.queries += 1
        if metrics.failed:
            self.failures += 1
        if metrics.deadline_exceeded:
            self.deadline_misses += 1
        if metrics.degraded_serial:
            self.degraded_serial += 1
        self.fault_events += metrics.fault_events
        if metrics.plan_reused:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        if metrics.invalidated:
            self.invalidations += 1
        if metrics.result_cached:
            self.result_hits += 1
        if metrics.plan_replayed:
            self.plan_replays += 1
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
        """Per distinct query text: the Figure-3 planned-vs-worst gap."""
        gaps: dict[str, dict[str, float]] = {}
        for m in self.per_query:
            if m.plan_quality is None or m.text in gaps:
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
            f"{self.invalidations} invalidations / {self.result_hits} "
            f"result replays / {self.plan_replays} op replays, total load "
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
        if (
            self.failures or self.fault_events or self.quarantined
            or self.quarantine_fast_fails or self.degraded_serial
        ):
            lines.append(
                f"  faults: {self.fault_events} absorbed, {self.failures} "
                f"failures ({self.deadline_misses} deadline), "
                f"{self.degraded_serial} serial degradations, "
                f"{self.quarantined} quarantined "
                f"(+{self.quarantine_fast_fails} fast-fails)"
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

    The one join/aggregate dispatch behind cold executions, serial
    degradation and scratch traces; returns ``(relation, scalar, meta,
    out_size)``.
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
        result_cache: Serve recorded executions while the touched
            relations' versions are unchanged (default).  The simulation
            is deterministic, so a replayed recording is bit-identical to
            a re-run — outputs and ledger alike; pass ``False`` to force
            every warm execution back onto the backend: the traced
            physical plan replays (ledger re-charged bit-exactly, the
            worker-local compute re-issued in one
            :meth:`~repro.mpc.backends.Backend.run_ops` round) instead of
            re-driving the algorithm's Python control flow.
        result_cache_entries: LRU bound on recorded executions held by
            the session (``None`` = unbounded).  Recordings back both the
            result cache and plan replay; evicting one falls the next
            warm execution back to a (re-recording) full drive.
        result_cache_bytes: Byte bound on the same LRU, measured as the
            resident size of each recording's column blocks: typed arrays
            plus the dictionary values they reference (``None`` =
            unbounded).
        degrade_to_serial: When the warm backend faults past its own
            recovery (a :class:`~repro.errors.FaultError` escapes), re-run
            the query to completion on a scratch serial cluster — the
            second-to-last rung of the degradation ladder — verifying the
            result against any valid cached recording (determinism is the
            oracle).  ``False`` skips straight to quarantine: the failure
            is recorded and subsequent submissions of the same query
            fast-fail with :class:`~repro.errors.QueryQuarantined` until
            its input relations change version.
        registry: :class:`~repro.obs.MetricsRegistry` to instrument into
            (``None`` = a private registry per engine).  The engine
            registers its query counters/latency histograms plus *views*
            over :class:`EngineStats` and the backend's wire/fault
            counters, so one scrape (:meth:`metrics_text`) shows the
            whole session.
        tracer: :class:`~repro.obs.Tracer` minting one root ``query``
            span per execution, threaded engine → executor → backend →
            worker rounds.  ``None`` (default) installs the no-op
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
        result_cache_entries: int | None = 256,
        result_cache_bytes: int | None = 128 * 1024 * 1024,
        degrade_to_serial: bool = True,
        registry: MetricsRegistry | None = None,
        tracer: Any = None,
    ) -> None:
        self.p = p
        self.result_cache = result_cache
        self.result_cache_entries = result_cache_entries
        self.result_cache_bytes = result_cache_bytes
        self.degrade_to_serial = degrade_to_serial
        self._cluster = Cluster(p, backend=backend)
        self._group = self._cluster.root_group()
        self._lock = threading.RLock()
        self._relations: dict[str, Relation] = {}
        self._versions: dict[str, int] = {}
        self._plans: dict[tuple, PreparedQuery] = {}
        # (name, version, edge, variables) -> positionally-renamed Relation
        self._bound_cache: dict[tuple, Relation] = {}
        # (name, version, edge, variables, aggregate|None) -> DistRelation
        self._dist_cache: dict[tuple, DistRelation] = {}
        # Recording LRU: plan key -> approx bytes, least recent first.
        self._recordings: OrderedDict[tuple, int] = OrderedDict()
        self._recording_bytes = 0
        # plan key -> {"versions", "error"}: queries that exhausted the
        # degradation ladder; paroled when their input versions move.
        self._quarantine: dict[tuple, dict[str, Any]] = {}
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

    def register(self, relation: Relation, name: str | None = None) -> int:
        """Register (or update) a named base relation; returns its version.

        Updating bumps the version: cached distributed variants of the old
        version are dropped, and prepared plans that touch the relation are
        re-priced on the new data on their next use.
        """
        name = name or relation.name
        with self._lock:
            version = self._versions.get(name, 0) + 1
            self._versions[name] = version
            self._relations[name] = relation
            for cache in (self._bound_cache, self._dist_cache):
                stale = [k for k in cache if k[0] == name and k[1] != version]
                for k in stale:
                    del cache[k]
            # A trace or recording touching the updated relation can never
            # serve again (its versions no longer match) — drop both now
            # rather than on next execution, so traces stop pinning the
            # old-version distributed parts and dead recordings stop
            # occupying (and evicting from) the recording LRU.
            for entry in self._plans.values():
                trace = entry.trace
                if trace is not None and name in trace.relation_versions:
                    entry.trace = None
                cached = entry.cached_result
                if cached is not None and name in cached.relation_versions:
                    entry.cached_result = None
                    self._drop_recording(entry.key)
            return version

    def relation_names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._relations))

    def relation_version(self, name: str) -> int:
        with self._lock:
            return self._versions.get(name, 0)

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
        """The base relation renamed to the binding's edge key + variables."""
        base = self._base(binding.relation)
        version = self._versions[binding.relation]
        key = (binding.relation, version, binding.edge, binding.variables)
        cached = self._bound_cache.get(key)
        if cached is None:
            # Binding is a rename: rows are already deduplicated (and
            # annotations combined) in the base relation, so the bound
            # variant shares rows *and* the columnar backing — distributed
            # variants slice the same encoded columns for every binding.
            if binding.variables is None:
                cached = (
                    base if base.name == binding.edge
                    else base.renamed(binding.edge)
                )
            else:
                if len(binding.variables) != len(base.attrs):
                    raise EngineError(
                        f"atom {binding.edge}({','.join(binding.variables)}) has "
                        f"arity {len(binding.variables)} but relation "
                        f"{binding.relation!r} has columns {base.attrs}"
                    )
                cached = base.renamed(binding.edge, binding.variables)
            self._bound_cache[key] = cached
        return cached

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
        self, parsed: ParsedQuery, aggregate: str | None = None
    ) -> dict[str, DistRelation]:
        """Cached distributed (and possibly annotated) relations per edge."""
        rels: dict[str, DistRelation] = {}
        semiring = parsed.semiring
        for b in parsed.bindings:
            version = self._versions.get(b.relation, 0)
            key = (b.relation, version, b.edge, b.variables, aggregate)
            dist = self._dist_cache.get(key)
            if dist is None:
                rel = self._bound(b)
                if aggregate is not None:
                    if not rel.annotated:
                        rel = rel.with_annotations(semiring)
                    dist = distribute_relation(rel, self._group, annotate=True)
                else:
                    dist = distribute_relation(rel, self._group)
                self._dist_cache[key] = dist
            rels[b.edge] = dist
        return rels

    # ------------------------------------------------------------------
    # Recording LRU (backs the result cache AND plan replay)
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

    def _store_recording(self, entry: PreparedQuery, recording: _CachedResult) -> None:
        """Attach a recording to its plan entry under the LRU bounds.

        The LRU is keyed by plan-cache key and budgets resident sizes
        (:meth:`_recording_nbytes`) alongside an entry count, so a long
        serving session cannot grow recording memory without limit.
        Evicting a recording drops both the result-cache serve and the
        plan-replay fast path for that entry; the next execution
        re-drives and re-records.
        """
        key = entry.key
        old = self._recordings.pop(key, None)
        if old is not None:
            self._recording_bytes -= old
        cap_e = self.result_cache_entries
        cap_b = self.result_cache_bytes
        if cap_b is not None and recording.stored_bytes > cap_b:
            # The recording alone exceeds the byte budget: it is not
            # retained (every execution of this query re-drives) — and it
            # must not flush everyone else's recordings on its way out.
            # The trace goes with it (trace lifetime == recording
            # lifetime): unreplayable, it would only pin its inputs.
            entry.cached_result = None
            entry.trace = None
            return
        entry.cached_result = recording
        self._recordings[key] = recording.stored_bytes
        self._recording_bytes += recording.stored_bytes
        while self._recordings and (
            (cap_e is not None and len(self._recordings) > cap_e)
            or (cap_b is not None and self._recording_bytes > cap_b)
        ):
            victim, size = self._recordings.popitem(last=False)
            self._recording_bytes -= size
            ventry = self._plans.get(victim)
            if ventry is not None:
                ventry.cached_result = None
                # A trace without its recording can never replay (the
                # replay path serves outputs from the recording), so it
                # would only pin its MapParts input parts — drop it too:
                # trace lifetime is bounded by recording lifetime, and
                # the LRU's entry cap therefore bounds both.
                ventry.trace = None

    def _touch_recording(self, key: tuple) -> None:
        if key in self._recordings:
            self._recordings.move_to_end(key)

    def _drop_recording(self, key: tuple) -> None:
        size = self._recordings.pop(key, None)
        if size is not None:
            self._recording_bytes -= size

    # ------------------------------------------------------------------
    # Prepare: classify -> auto_algorithm -> priced plan, cached
    # ------------------------------------------------------------------
    def prepare(
        self, query: str | ParsedQuery, algorithm: str = "auto"
    ) -> PreparedQuery:
        """Compile (or fetch from cache) the plan for a query.

        Pricing an acyclic query's fold orders happens here, in RAM on the
        registered relations: ``prepare`` issues no backend round on any
        backend (so it cannot fault), and the entry's ``plan_quality`` is
        exact for the current data.

        Args:
            query: Datalog-style text, a catalog name, or a parsed query.
            algorithm: ``"auto"`` resolves via
                :func:`~repro.core.runner.auto_algorithm` for joins and the
                residual-query classification for aggregates; a concrete
                name pins the algorithm (``"yannakakis"`` replays the
                priced Section 4.1 plan).
        """
        parsed = query if isinstance(query, ParsedQuery) else parse_query(query)
        with self._lock:
            entry, _status = self._resolve(parsed, algorithm)
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

    def _current_versions(self, parsed: ParsedQuery) -> dict[str, int]:
        return {
            b.relation: self._versions.get(b.relation, 0)
            for b in parsed.bindings
        }

    def _resolve(
        self, parsed: ParsedQuery, algorithm: str
    ) -> tuple[PreparedQuery, str]:
        """Fetch/compile the plan; returns the entry and its cache status.

        Status is ``"hit"`` (versions unchanged — served without looking
        at the data), ``"revalidated"`` (data changed but the decision the
        entry holds did not: the fold orders were re-priced in RAM, the
        same one wins, and ``plan_quality`` now describes the new data;
        a cyclic query has no such decision and is never re-priced),
        ``"invalidated"`` (another order wins on the new data —
        recompiled), or ``"miss"`` (first compile).
        """
        key = self._plan_key(parsed, algorithm)
        entry = self._plans.get(key)
        status, priced = "miss", None
        if entry is not None:
            versions = self._current_versions(parsed)
            if versions == entry.relation_versions:
                return entry, "hit"
            # Data changed since compile: a stale plan must never serve.
            # All the entry decided from the data is which fold order wins
            # (nothing, for a cyclic query), so that is what is re-checked;
            # fresh data is picked up regardless via the version-keyed
            # distributed-relation caches.
            still_wins = True
            if entry.plan_quality is not None:
                priced = choice, quality = price_fold_orders(
                    parsed.query, self.instance_for(parsed)
                )
                still_wins = entry.plan_order in (None, choice.order)
                if still_wins:
                    entry.plan_quality = quality
            if still_wins:
                entry.relation_versions = versions
                return entry, "revalidated"
            status = "invalidated"
            self._drop_recording(key)
        entry = self._compile(parsed, algorithm, key, priced)
        self._plans[key] = entry
        return entry, status

    def _compile(
        self,
        parsed: ParsedQuery,
        algorithm: str,
        key: tuple,
        priced: tuple[PlanChoice, dict[str, int]] | None = None,
    ) -> PreparedQuery:
        """Build the plan entry; ``priced`` is the current data's pricing
        when the caller already holds it."""
        t0 = time.perf_counter()
        kind = parsed.kind
        if kind == "join":
            if algorithm not in ALGORITHMS:
                raise EngineError(
                    f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}"
                )
            resolved = (
                auto_algorithm(parsed.query) if algorithm == "auto" else algorithm
            )
        else:
            if algorithm not in _AGG_ALGORITHMS:
                raise EngineError(
                    f"unknown downstream algorithm {algorithm!r}; pick from "
                    f"{_AGG_ALGORITHMS}"
                )
            resolved = algorithm

        instance = self.instance_for(parsed)  # also validates the bindings
        if priced is None and parsed.query.is_acyclic():
            priced = price_fold_orders(parsed.query, instance)
        plan = plan_order = quality = None
        if priced is not None:
            choice, quality = priced
            if kind == "join":
                plan, plan_order = choice.plan, choice.order

        entry = PreparedQuery(
            parsed=parsed,
            key=key,
            kind=kind,
            query_class=classify(parsed.query).name,
            algorithm=resolved,
            plan=plan,
            plan_order=plan_order,
            plan_quality=quality,
            relation_versions=self._current_versions(parsed),
            prepare_seconds=time.perf_counter() - t0,
        )
        self._stats.prepares += 1
        return entry

    # ------------------------------------------------------------------
    # Execute: replay the prepared plan on the warm cluster
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
                state is discarded.  A deadline miss is a failure of this
                call only — it never quarantines the query.

        Raises:
            QueryQuarantined: The query previously exhausted the
                degradation ladder and its input relations are unchanged.
            DeadlineExceeded: The deadline expired mid-execution.
            FaultError: The backend faulted past recovery and
                ``degrade_to_serial`` is off (quarantines the query).
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
                path=(
                    "cached" if m.result_cached
                    else "replay" if m.plan_replayed
                    else "degraded" if m.degraded_serial
                    else "cold"
                ),
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

        ``span`` parents the path-level child spans (``cold_execute`` /
        ``replay`` / ``degrade_serial``).  Past the result cache the call
        gets its own :class:`~repro.obs.WireMeter`, which travels into
        every backend round this query issues, so ``wire_bytes`` is
        per-query by construction — deltas of the backend's *shared*
        cumulative counters would double-count concurrent submitters.
        """
        with self._lock:
            entry, status = self._resolve(parsed, algorithm)
            call = _Call(
                entry=entry,
                status=status,
                t0=time.perf_counter(),
                versions=self._current_versions(parsed),
                span=span,
            )
            versions = call.versions
            held = self._quarantine.get(entry.key)
            if held is not None:
                if held["versions"] == versions:
                    self._stats.quarantine_fast_fails += 1
                    exc: ReproError = QueryQuarantined(
                        "query is quarantined until its relations change: "
                        + held["error"]
                    )
                    self._finish(call, "failed", error=exc)
                    raise exc
                # Data moved since the failure: parole and retry for real.
                del self._quarantine[entry.key]
            if deadline is not None and deadline <= 0:
                exc = DeadlineExceeded(
                    "deadline expired before execution began"
                )
                self._finish(call, "failed", error=exc)
                raise exc
            cached = entry.cached_result
            if cached is not None and cached.relation_versions != versions:
                cached = None
            if self.result_cache and cached is not None:
                entry.uses += 1
                self._touch_recording(entry.key)
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
            trace = entry.trace
            if (
                cached is None
                or trace is None
                or trace.relation_versions != versions
            ):
                # Cold path: owns the serving cluster and its recorder,
                # so it runs under the engine lock end to end.
                self._cluster.deadline = call.deadline_at
                try:
                    return self._execute_on_cluster(call)
                except DeadlineExceeded as exc:
                    # Cooperative cancellation fired between rounds; the
                    # partial ledger is discarded.  A miss never
                    # quarantines — the same query with a looser deadline
                    # is fine.
                    self._cluster.reset()
                    self._finish(call, "failed", error=exc)
                    raise
                except FaultError as exc:
                    self._cluster.reset()
                    return self._handle_fault(call, exc)
                finally:
                    self._cluster.deadline = None
        # Warm path: replay the traced schedule on a scratch ledger over
        # the shared backend, OUTSIDE the engine lock.  Charges are
        # replay-pure and outputs come from the recording, so nothing
        # per-query touches the serving cluster — concurrent submitters
        # overlap whole replays, and the backend serializes its rounds
        # internally (I/O lock).
        try:
            return self._replay_warm(call, trace, cached)
        except DeadlineExceeded as exc:
            with self._lock:
                self._finish(call, "failed", error=exc)
            raise
        except FaultError as exc:
            with self._lock:
                return self._handle_fault(call, exc)

    def _handle_fault(self, call: _Call, exc: Exception) -> ExecutionResult:
        """The backend faulted past its own recovery: next rungs of the
        ladder — re-run on a scratch serial cluster; if that is off (or
        itself fails), quarantine the query.  Caller holds the lock.
        """
        if self.degrade_to_serial:
            try:
                return self._serial_degrade(call, exc)
            except DeadlineExceeded as exc2:
                self._finish(call, "failed", error=exc2)
                raise
            except ReproError as exc2:
                self._quarantine_entry(call, exc2)
                self._finish(call, "failed", error=exc2)
                raise
        self._quarantine_entry(call, exc)
        self._finish(call, "failed", error=exc)
        raise exc

    def _replay_warm(
        self, call: _Call, trace: PhysicalPlan, cached: _CachedResult
    ) -> ExecutionResult:
        """One warm execution: replay the traced op schedule, serve the
        recording.

        Charges re-post the recorded count vectors (ledger bit-identical
        by construction) onto a per-call scratch ledger over the shared
        backend, worker-local ops re-issue in one ``run_ops`` round, and
        the outputs are served from the recording — no Python control
        flow of the algorithm re-runs and the engine lock is NOT held.
        Wire bytes are attributed exactly per query (the meter travels
        with the round); the request/fault deltas still read shared
        monotone counters, so under concurrent submitters those two stay
        approximate.
        """
        entry = call.entry
        scratch = Cluster(self.p, backend=self._cluster.backend)
        scratch.deadline = call.deadline_at
        rspan = call.span.child("replay", ops=len(trace.ops))
        with rspan:
            Executor(scratch, meter=call.meter, span=rspan).replay(trace)
        report = scratch.snapshot()
        relation = _lazy_copy(cached.relation)
        meta: dict[str, Any] = dict(cached.meta)
        meta["plan_replayed"] = True
        self._stamp_meta(meta, entry, call.meter.bytes)
        with self._lock:
            entry.uses += 1
            self._touch_recording(entry.key)
            metrics = self._finish(
                call, "replay", report, cached.out_size, plan=trace
            )
        return ExecutionResult(
            prepared=entry,
            relation=relation,
            scalar=cached.scalar,
            report=report,
            metrics=metrics,
            meta=meta,
        )

    def _execute_on_cluster(self, call: _Call) -> ExecutionResult:
        """One cold execution on the warm serving cluster.

        The fault/deadline/degradation policy lives in
        :meth:`_execute_traced`; this method only runs, records a trace +
        recording, and reports.  Caller holds the lock and has already
        armed ``self._cluster.deadline``.
        """
        entry = call.entry
        rec = TraceRecorder()
        aggregate = (
            None if entry.kind == "join"
            else (entry.parsed.aggregate or "bool")
        )
        cspan = call.span.child("cold_execute", algorithm=entry.algorithm)
        # Meter and span ride on the cluster from *before* relation
        # distribution: dist-cache misses ship parts to the workers, and
        # those bytes belong to this query.  Cleared in the finally no
        # matter how the execution ends — the serving cluster is shared.
        self._cluster.wire_meter = call.meter
        self._cluster.obs_span = cspan
        try:
            with cspan:
                rels = self._dist_rels(entry.parsed, aggregate=aggregate)
                self._cluster.reset()
                self._cluster.recorder = rec
                try:
                    relation, scalar, meta, out_size = _run_algorithm(
                        entry, self._group, rels
                    )
                finally:
                    self._cluster.recorder = None
        finally:
            self._cluster.wire_meter = None
            self._cluster.obs_span = None
        report = self._cluster.snapshot()
        entry.trace = self._finish_trace(rec, entry, call.versions)
        entry.uses += 1
        self._stamp_meta(meta, entry, call.meter.bytes)
        # Record the execution in columnar form.  Every join algorithm
        # emits column blocks, so the recording is a second lazy relation
        # over the result's own blocks: nothing is encoded here, and the
        # caller's row view stays on the caller's object.  (Aggregates
        # return a ``Relation``, recorded as is.)  The recording backs
        # the result cache (serve without executing) AND the plan-replay
        # path (outputs while the Executor re-charges the ledger); the
        # LRU bounds both.
        stored = _lazy_copy(relation)
        self._store_recording(
            entry,
            _CachedResult(
                relation_versions=call.versions,
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
        # (An over-budget recording took its trace with it — then the
        # metrics report no plan, as nothing can replay.)
        metrics = self._finish(
            call, "cold", report, out_size, plan=entry.trace
        )
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

    def _finish_trace(
        self, rec: TraceRecorder, entry: PreparedQuery, versions: dict[str, int]
    ) -> PhysicalPlan:
        return rec.finish(
            query=entry.parsed.text,
            kind=entry.kind,
            algorithm=entry.algorithm,
            p=self.p,
            backend=self.backend_name,
            relation_versions=versions,
        )

    def _scratch_rels(
        self, entry: PreparedQuery, group: Any
    ) -> dict[str, DistRelation]:
        """Fresh distributed copies of the bound relations on a scratch
        group (the serving caches stay warm-backend-shaped)."""
        annotate = entry.kind != "join"
        rels: dict[str, DistRelation] = {}
        for b in entry.parsed.bindings:
            rel = self._bound(b)
            if annotate and not rel.annotated:
                rel = rel.with_annotations(entry.parsed.semiring)
            rels[b.edge] = distribute_relation(rel, group, annotate=annotate)
        return rels

    # ------------------------------------------------------------------
    # Failure policy: record, quarantine, degrade (DESIGN.md section 8)
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
        plan: PhysicalPlan | None = None,
        error: Exception | None = None,
    ) -> QueryMetrics:
        """Build and record one call's :class:`QueryMetrics`.

        Every serving path reports through here.  ``path`` is the
        registry label — ``cold`` | ``replay`` | ``cached`` |
        ``degraded`` | ``failed`` — and decides which counters apply:
        only ``cold``/``replay`` touched the warm backend (wire bytes,
        request delta), those two and ``degraded`` report the faults
        absorbed on the way, and a failure counts as a plan-cache miss
        (it served nothing from the cache).  ``plan`` is the physical
        plan that served or was traced by the call, if one is held.
        """
        entry = call.entry
        failed = path == "failed"
        status = "" if failed else call.status
        load = max_step_load = steps = 0
        if report is not None:
            load = report.load
            max_step_load = report.max_step_load
            steps = report.steps
        # Beyond what every path reports, a field keeps its dataclass
        # default unless the path touched it (a cached hit touches none).
        extra: dict[str, Any] = {}
        if plan is not None:
            extra.update(plan_ops=len(plan.ops), map_ops=len(plan.map_ops()))
        if path in ("cold", "replay"):
            extra.update(
                wire_bytes=call.meter.bytes,
                backend_requests=(
                    self._cluster.backend.requests - call.requests_before
                ),
            )
        if path in ("cold", "replay", "degraded"):
            extra["fault_events"] = self._fault_level() - call.faults_before
        if path == "replay":
            extra.update(
                plan_replayed=True, fused_groups=1 if extra["map_ops"] else 0
            )
        elif path == "degraded":
            extra["degraded_serial"] = True
        elif failed:
            extra.update(
                failed=True,
                error=f"{type(error).__name__}: {error}",
                deadline_exceeded=isinstance(error, DeadlineExceeded),
            )
        metrics = QueryMetrics(
            text=entry.parsed.text,
            kind=entry.kind,
            algorithm=entry.algorithm,
            cache_hit=status == "hit",
            plan_reused=status in ("hit", "revalidated"),
            invalidated=status == "invalidated",
            result_cached=path == "cached",
            load=load,
            max_step_load=max_step_load,
            steps=steps,
            out_size=out_size,
            wall_seconds=time.perf_counter() - call.t0,
            plan_quality=entry.plan_quality,
            trace_id=call.span.trace_id,
            **extra,
        )
        self._record(metrics, path)
        return metrics

    def _quarantine_entry(self, call: _Call, exc: Exception) -> None:
        """Mark the query unservable until its input versions move.

        The original failure text is kept so fast-fails carry it; the
        version snapshot is the parole condition (new data genuinely
        changes the execution, so it deserves a fresh attempt).
        """
        self._quarantine[call.entry.key] = {
            "versions": dict(call.versions),
            "error": f"{type(exc).__name__}: {exc}",
        }
        self._stats.quarantined += 1

    def quarantined_queries(self) -> dict[str, str]:
        """Currently quarantined query texts and their original errors."""
        with self._lock:
            out: dict[str, str] = {}
            for key, held in self._quarantine.items():
                entry = self._plans.get(key)
                text = entry.parsed.text if entry is not None else str(key[0])
                out[text] = held["error"]
            return out

    def _serial_degrade(self, call: _Call, fault: Exception) -> ExecutionResult:
        """Re-run a faulted query to completion on a scratch serial cluster.

        The scratch cluster inherits the remaining deadline and gets
        freshly distributed copies of the bound relations.  Because
        ledgers and outputs are backend-independent (the conformance
        contract), the rerun is *the same execution* — and when a
        recording of this query is still valid, that is checked, not
        assumed: a ledger or size mismatch means a determinism violation,
        which must surface, never serve.
        """
        entry = call.entry
        scratch = Cluster(self.p, backend="serial")
        scratch.deadline = call.deadline_at
        group = scratch.root_group()
        with call.span.child("degrade_serial", fault=type(fault).__name__):
            relation, scalar, meta, out_size = _run_algorithm(
                entry, group, self._scratch_rels(entry, group)
            )
        report = scratch.snapshot()
        cached = entry.cached_result
        if (
            cached is not None
            and cached.relation_versions == call.versions
            and (
                report.as_dict() != cached.report.as_dict()
                or out_size != cached.out_size
            )
        ):
            raise EngineError(
                "serial degradation diverged from the cached recording "
                "(determinism violation); refusing to serve"
            )
        entry.uses += 1
        self._stamp_meta(meta, entry, 0)
        meta["degraded_serial"] = True
        meta["degraded_from"] = f"{type(fault).__name__}: {fault}"
        metrics = self._finish(call, "degraded", report, out_size)
        return ExecutionResult(
            prepared=entry,
            relation=relation,
            scalar=scalar,
            report=report,
            metrics=metrics,
            meta=meta,
        )

    # ------------------------------------------------------------------
    # Explain: trace a plan without executing on the serving cluster
    # ------------------------------------------------------------------
    def trace_plan(
        self, query: str | ParsedQuery, algorithm: str = "auto"
    ) -> PhysicalPlan:
        """The physical plan a warm execution of ``query`` would replay.

        Reuses the serving entry's trace when one is valid for the
        current data versions; otherwise performs one traced execution on
        a *scratch* serial cluster (same ``p``, freshly distributed
        copies of the bound relations) so neither the serving ledger nor
        the warm backend is touched.  The op schedule is
        backend-independent — ledgers are, by the conformance contract —
        so the scratch trace is exactly what the serving session would
        record.
        """
        parsed = query if isinstance(query, ParsedQuery) else parse_query(query)
        with self._lock:
            entry, _status = self._resolve(parsed, algorithm)
            versions = self._current_versions(parsed)
            trace = entry.trace
            if trace is not None and trace.relation_versions == versions:
                return trace
            scratch = Cluster(self.p, backend="serial")
            group = scratch.root_group()
            rels = self._scratch_rels(entry, group)
            rec = TraceRecorder()
            scratch.recorder = rec
            _run_algorithm(entry, group, rels)
            return self._finish_trace(rec, entry, versions)

    def explain(
        self,
        query: str | ParsedQuery,
        algorithm: str = "auto",
        timings: bool = False,
    ) -> str:
        """Render :meth:`trace_plan` — ops, ledger units, replay cost.

        With ``timings=True`` the plan is additionally *measured*: the
        query executes once (warming worker memos and distributed caches
        into their serving state), then the trace replays per-op on the
        serving backend (:meth:`timed_replay`), and every Charge/MapParts
        row gains measured ``wall=``/``wire=`` columns — the ledger's
        load story and the wall-clock/bytes story, row by row.
        """
        if timings:
            trace, op_timings = self.timed_replay(query, algorithm)
            return trace.explain(timings=op_timings)
        return self.trace_plan(query, algorithm).explain()

    def timed_replay(
        self, query: str | ParsedQuery, algorithm: str = "auto"
    ) -> tuple[PhysicalPlan, dict[int, dict[str, float]]]:
        """Measure one per-op replay of the query's physical plan.

        Executes the query once first — recording a trace and warming the
        backend exactly the way serving would — then replays that trace
        one round per op on a scratch ledger over the *serving* backend
        with per-op wall/wire measurement
        (``Executor.replay(timed=True)``).  The scratch ledger is
        discarded; the serving ledger and session stats see only the
        warming execution.  Returns ``(plan, op_timings)`` with
        ``op_timings`` keyed by op index (the shape
        :meth:`PhysicalPlan.explain` accepts).
        """
        parsed = query if isinstance(query, ParsedQuery) else parse_query(query)
        self.execute(parsed, algorithm)
        # The entry's own trace — or, when its recording was over budget
        # and took the trace with it, a scratch re-trace.
        trace = self.trace_plan(parsed, algorithm)
        scratch = Cluster(self.p, backend=self._cluster.backend)
        stats = Executor(scratch).replay(trace, timed=True)
        return trace, stats["op_timings"]

    # ------------------------------------------------------------------
    # Plan shipping (DESIGN.md section 10): export/install warm state
    # ------------------------------------------------------------------
    def export_plan(
        self, query: str | ParsedQuery, algorithm: str = "auto"
    ) -> bytes:
        """Encode this engine's warm state for a query into portable bytes.

        The blob (wire format: :mod:`repro.plan.ship`) carries the traced
        op schedule, the recorded outputs + ledger, and per-relation
        content digests.  Another engine
        over the same data :meth:`install_plan`\\ s it and serves the
        query warm — zero re-traces — exactly as if it had executed the
        query itself.

        Raises:
            PlanShipError: The query has no current trace + recording on
                this engine (execute it first), or a payload value
                resists serialization.
        """
        parsed = query if isinstance(query, ParsedQuery) else parse_query(query)
        with self._lock:
            entry = self._plans.get(self._plan_key(parsed, algorithm))
            versions = self._current_versions(parsed)
            trace = entry.trace if entry is not None else None
            cached = entry.cached_result if entry is not None else None
            if (
                entry is None
                or trace is None
                or cached is None
                or trace.relation_versions != versions
                or cached.relation_versions != versions
            ):
                raise PlanShipError(
                    f"nothing to export for {parsed.text!r}: a shippable "
                    f"plan needs a current trace and recording — execute "
                    f"the query on this engine first"
                )
            digests = {
                b.relation: relation_digest(self._relations[b.relation])
                for b in parsed.bindings
            }

            # Identity-match each MapParts op back to the distributed
            # relation it ran over; mid-execution intermediates (parts
            # born inside the driver) find no match and ship unbound.
            dist_items = list(self._dist_cache.items())

            def source_of(op: Any) -> "tuple | None":
                for k, dist in dist_items:
                    if op.owner is dist and op.parts is dist.parts:
                        name, _version, edge, variables, aggregate = k
                        return ("base", name, edge, variables, aggregate)
                return None

            stored = cached.relation
            if isinstance(stored, DistRelation):
                result: tuple = (
                    "dist", stored.name, stored.attrs,
                    [pack_blob((), b) for b in stored.column_parts],
                )
            elif isinstance(stored, Relation):
                result = (
                    "rel", stored.name, stored.attrs, list(stored.rows),
                    (
                        list(stored.annotations)
                        if stored.annotations is not None else None
                    ),
                    getattr(stored.semiring, "name", None),
                )
            elif stored is None:
                result = ("none",)
            else:  # pragma: no cover - no other recording payloads exist
                raise PlanShipError(
                    f"recording payload {type(stored).__name__} is not "
                    f"shippable"
                )
            rep = cached.report
            payload = {
                "query": entry.parsed.text,
                "kind": entry.kind,
                "algorithm": entry.algorithm,
                "algorithm_request": algorithm,
                "p": self.p,
                "backend": self.backend_name,
                "relation_digests": digests,
                "ops": encode_ops(trace.ops, source_of),
                "result": result,
                "report": {
                    "p": rep.p,
                    "totals": tuple(rep.totals),
                    "load": rep.load,
                    "max_step_load": rep.max_step_load,
                    "steps": rep.steps,
                    "by_label": dict(rep.by_label),
                },
                "meta": dict(cached.meta),
                "out_size": cached.out_size,
                "scalar": cached.scalar,
            }
            return encode_plan(payload)

    def install_plan(self, blob: bytes) -> str:
        """Install a shipped plan into this engine's caches; returns its digest.

        Revalidates before touching anything: envelope digest, cluster
        size, per-relation *content* digests (the recorded outputs are
        only the truth over byte-identical data — on which this engine's
        own compile of the query prices the same plan), and the resolved
        algorithm.  On success the entry
        holds a rebuilt trace + recording under this engine's relation
        versions, so its next execution replays warm — zero re-traces.
        Any mismatch raises and leaves the engine as it was: the next
        execution simply traces cold.

        Raises:
            PlanShipError: Corrupt blob, incompatible cluster size,
                missing/mismatched relations, or an fn reference outside
                the allowlisted registry.
        """
        payload = decode_plan(blob)
        try:
            parsed = parse_query(payload["query"])
            algorithm_request = payload["algorithm_request"]
            ship_p = payload["p"]
            ship_digests = payload["relation_digests"]
            ship_algorithm = payload["algorithm"]
            ship_kind = payload["kind"]
            op_records = payload["ops"]
            result_desc = payload["result"]
            rep = payload["report"]
        except KeyError as exc:
            raise PlanShipError(f"plan payload missing field {exc}") from exc
        with self._lock:
            if ship_p != self.p:
                raise PlanShipError(
                    f"plan was traced at p={ship_p}; this engine serves "
                    f"p={self.p}"
                )
            for name, digest in ship_digests.items():
                rel = self._relations.get(name)
                if rel is None:
                    raise PlanShipError(
                        f"plan touches relation {name!r}, not registered "
                        f"on this engine"
                    )
                if relation_digest(rel) != digest:
                    raise PlanShipError(
                        f"content digest mismatch for relation {name!r}: "
                        f"this engine's data differs from the tracing "
                        f"engine's"
                    )
            entry, _status = self._resolve(parsed, algorithm_request)
            if ship_algorithm != entry.algorithm or ship_kind != entry.kind:
                raise PlanShipError(
                    f"plan resolved to {ship_kind}/{ship_algorithm} on the "
                    f"tracing engine but {entry.kind}/{entry.algorithm} "
                    f"here"
                )
            versions = self._current_versions(parsed)
            aggregate = (
                None if entry.kind == "join"
                else (parsed.aggregate or "bool")
            )
            bindings = {b.edge: b for b in parsed.bindings}
            # Deterministic and coordinator-side only (stride partition of
            # the registered rows, no backend rounds), so the receiver's
            # parts match the tracing engine's by construction.
            dists = self._dist_rels(parsed, aggregate=aggregate)

            def bind(fn_ref: str, source: tuple) -> "tuple | None":
                tag, name, edge, variables, src_aggregate = source
                if tag != "base":
                    raise PlanShipError(
                        f"unknown MapParts source kind {tag!r}"
                    )
                binding = bindings.get(edge)
                if (
                    binding is None
                    or binding.relation != name
                    or binding.variables != variables
                    or src_aggregate != aggregate
                ):
                    raise PlanShipError(
                        f"MapParts source {edge!r} does not match this "
                        f"engine's binding of the same query"
                    )
                dist = dists[edge]
                return (resolve_fn(fn_ref), dist.parts, dist)

            ops = decode_ops(op_records, bind)
            stored = self._decode_shipped_result(result_desc)
            report = LoadReport(
                p=rep["p"], totals=tuple(rep["totals"]), load=rep["load"],
                max_step_load=rep["max_step_load"], steps=rep["steps"],
                by_label=dict(rep["by_label"]),
            )
            recording = _CachedResult(
                relation_versions=dict(versions),
                relation=stored,
                scalar=payload["scalar"],
                report=report,
                meta=dict(payload["meta"]),
                out_size=payload["out_size"],
                stored_bytes=self._recording_nbytes(stored),
            )
            plan = PhysicalPlan(
                query=entry.parsed.text,
                kind=entry.kind,
                algorithm=ship_algorithm,
                p=self.p,
                backend=self.backend_name,
                relation_versions=dict(versions),
                ops=ops,
            )
            entry.trace = plan
            self._store_recording(entry, recording)
            self._stats.plans_installed += 1
            return plan_digest(blob)

    def _decode_shipped_result(self, desc: tuple) -> Any:
        """A shipped result descriptor back to a recording payload."""
        tag = desc[0]
        if tag == "none":
            return None
        if tag == "dist":
            _tag, name, attrs, blobs = desc
            parts = [unpack_blob(b) for b in blobs]
            return DistRelation(name, attrs, parts, owned=True).aligned(attrs)
        if tag == "rel":
            _tag, name, attrs, rows, annotations, semiring_name = desc
            semiring = next(
                (s for s in ALL_SEMIRINGS if s.name == semiring_name), None
            )
            return Relation(
                name, tuple(attrs), rows,
                annotations=annotations, semiring=semiring,
            )
        raise PlanShipError(f"unknown result descriptor kind {tag!r}")

    # ------------------------------------------------------------------
    # Batch submission front
    # ------------------------------------------------------------------
    def submit_batch(
        self,
        queries: Sequence[str | ParsedQuery | PreparedQuery],
        threads: int = 1,
        budget: float | None = None,
    ) -> BatchReport:
        """Run many queries against the shared backend.

        Args:
            queries: Query texts / parsed / prepared queries, executed in
                submission order (results align with the input).
            threads: Number of submitter threads.  Cold executions
                serialize on the shared serving cluster (per-query
                ledgers need exclusive access), but *warm replays* run
                on per-query scratch ledgers outside the engine lock —
                with >1 threads many queries' replays flow through the
                one shared backend concurrently, interleaving at round
                granularity behind its I/O lock.
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

        def run(q: str | ParsedQuery | PreparedQuery) -> ExecutionResult:
            try:
                remaining = (
                    cutoff - time.monotonic() if cutoff is not None else None
                )
                return self.execute(q, deadline=remaining)
            except ReproError as exc:
                return self._failed_result(q, exc)

        if threads <= 1:
            results = [run(q) for q in queries]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(run, queries))
        stats = EngineStats(p=self.p, backend=self.backend_name)
        for res in results:
            stats.record(res.metrics)
        stats.prepares = sum(
            1 for r in results if r.ok and not r.metrics.plan_reused
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
            plan_reused=False,
            invalidated=False,
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
        ``cold`` | ``replay`` | ``cached`` | ``degraded`` | ``failed``.
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
            "repro_engine_invalidations": s.invalidations,
            "repro_engine_result_hits": s.result_hits,
            "repro_engine_plan_replays": s.plan_replays,
            "repro_engine_plans_installed": s.plans_installed,
            "repro_engine_total_load": s.total_load,
            "repro_engine_wire_bytes": s.total_wire_bytes,
            "repro_engine_backend_requests": s.total_backend_requests,
            "repro_engine_failures": s.failures,
            "repro_engine_deadline_misses": s.deadline_misses,
            "repro_engine_quarantined": s.quarantined,
            "repro_engine_degraded_serial": s.degraded_serial,
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
        """Drop prepared plans, cached relations, recordings, quarantine."""
        with self._lock:
            self._plans.clear()
            self._bound_cache.clear()
            self._dist_cache.clear()
            self._recordings.clear()
            self._recording_bytes = 0
            self._quarantine.clear()

    def __repr__(self) -> str:
        return (
            f"Engine<p={self.p}, backend={self.backend_name}, "
            f"{len(self._relations)} relations, {len(self._plans)} plans>"
        )
