"""Command-line interface: run the paper's algorithms on CSV data.

Usage (after ``pip install -e .``)::

    python -m repro classify DATA_DIR
    python -m repro join DATA_DIR -p 16 [--algorithm auto] [--out results.csv]
    python -m repro count DATA_DIR -p 16
    python -m repro aggregate DATA_DIR -p 16 --group-by A,B [--semiring count]
    python -m repro plan DATA_DIR -p 16
    python -m repro catalog
    python -m repro query 'Q(A,B) :- R1(A,B), R2(B,C)' DATA_DIR -p 16
    python -m repro explain 'Q(A,B) :- R1(A,B), R2(B,C)' DATA_DIR -p 16
    python -m repro serve DATA_DIR --queries queries.txt -p 16
    python -m repro stats DATA_DIR --queries queries.txt --format prom

``DATA_DIR`` holds one ``<relation>.csv`` per relation (header = attribute
names); the query hypergraph is inferred from the headers.  ``query`` and
``serve`` go through the persistent engine (:mod:`repro.engine`): the CSV
relations are registered as base relations and datalog-style query text
binds to them by name (atom variables rename columns positionally).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.runner import (
    ALGORITHMS,
    mpc_join,
    mpc_join_aggregate,
    mpc_output_size,
)
from repro.io import read_instance_dir, write_relation_csv
from repro.query.classify import classify
from repro.query.paths import minimal_path_of_length_3
from repro.semiring import BOOLEAN, COUNT, MAX_TROPICAL, MIN_TROPICAL, SUM_PRODUCT

SEMIRINGS = {
    "count": COUNT,
    "sum": SUM_PRODUCT,
    "min": MIN_TROPICAL,
    "max": MAX_TROPICAL,
    "bool": BOOLEAN,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Instance/output-optimal MPC joins (Hu & Yi, PODS 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        from repro.mpc.backends import available_backends, default_backend_name

        p.add_argument("data_dir", help="directory of <relation>.csv files")
        p.add_argument("-p", "--servers", type=int, default=8)
        p.add_argument(
            "--backend",
            choices=available_backends(),
            default=default_backend_name(),
            help="execution backend (default: REPRO_BACKEND env or serial)",
        )

    c = sub.add_parser("classify", help="classify the query (Figure 1)")
    c.add_argument("data_dir")

    j = sub.add_parser("join", help="compute the full join")
    add_common(j)
    j.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    j.add_argument("--out", help="write results to this CSV file")
    j.add_argument("--validate", action="store_true",
                   help="cross-check against the RAM oracle")

    n = sub.add_parser("count", help="compute |Q(R)| with linear load")
    add_common(n)

    a = sub.add_parser("aggregate", help="join-aggregate (Section 6)")
    add_common(a)
    a.add_argument("--group-by", default="",
                   help="comma-separated output attributes (empty = total)")
    a.add_argument("--semiring", choices=sorted(SEMIRINGS), default="count")
    a.add_argument("--out", help="write results to this CSV file")

    pl = sub.add_parser(
        "plan", help="price Yannakakis join orders (Sec 4.1) and every candidate"
    )
    add_common(pl)

    sub.add_parser("catalog", help="list named catalog queries (Figure 1)")

    q = sub.add_parser("query", help="run one datalog-style query (engine)")
    q.add_argument("text", help="e.g. 'Q(A,B) :- R1(A,B), R2(B,C)'")
    add_common(q)
    q.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    q.add_argument("--out", help="write results to this CSV file")

    x = sub.add_parser(
        "explain",
        help="run the query once on a scratch cluster and print the ledger "
        "units each primitive posted",
    )
    x.add_argument("text", help="e.g. 'Q(A,B) :- R1(A,B), R2(B,C)'")
    add_common(x)
    x.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    x.add_argument("--timings", action="store_true",
                   help="run on the serving backend instead of a serial "
                        "scratch one: wall=/wire= columns and the backend "
                        "rounds")

    s = sub.add_parser("serve", help="serve a query workload (engine session)")
    add_common(s)
    s.add_argument("--queries", required=True,
                   help="file with one query per line ('#' comments)")
    s.add_argument("--repeat", type=int, default=1,
                   help="serve the workload this many times (warm-path demo)")
    s.add_argument("--budget", type=float, default=None,
                   help="wall-clock seconds per workload round; queries "
                        "past the budget fast-fail (DeadlineExceeded)")
    s.add_argument("--chaos", action="store_true",
                   help="serve on the fault-injecting 'chaos' backend "
                        "(recovery demo: results stay bit-identical)")
    s.add_argument("--chaos-seed", type=int, default=None,
                   help="fault-schedule seed for --chaos (default: "
                        "REPRO_CHAOS_SEED env or 1)")
    s.add_argument("--replicas", type=int, default=1,
                   help="serve through the front door with this many "
                        "engine replicas, each holding every relation "
                        "(routing by query text, admission, "
                        "micro-batching); --budget applies to "
                        "single-replica mode only")
    s.add_argument("--shed-after", type=int, default=64,
                   help="per-replica backlog bound before admission sheds "
                        "(front-door mode only)")
    s.add_argument("--trace", metavar="JSONL",
                   help="write the session's span records (engine -> "
                        "backend -> worker rounds) to this "
                        "JSONL file")
    s.add_argument("--metrics-out", metavar="PROM",
                   help="write the final metrics registry in Prometheus "
                        "text format to this file")

    st = sub.add_parser(
        "stats",
        help="serve a workload and print the unified metrics registry "
        "(counters, latency histograms, engine/backend stat views)",
    )
    add_common(st)
    st.add_argument("--queries", required=True,
                    help="file with one query per line ('#' comments)")
    st.add_argument("--repeat", type=int, default=2,
                    help="workload rounds (default 2: cold then warm)")
    st.add_argument("--format", choices=("json", "prom"), default="json",
                    help="output format (default json)")
    return parser


def _load_engine(args, tracer=None) -> "Engine":
    """Build an engine session with every CSV in the data dir registered."""
    from pathlib import Path

    from repro.engine import Engine
    from repro.io import read_relation_csv

    engine = Engine(p=args.servers, backend=args.backend, tracer=tracer)
    for path in sorted(Path(args.data_dir).glob("*.csv")):
        engine.register(read_relation_csv(path))
    return engine


def _serve_frontdoor(args, workload, tracer=None) -> int:
    """Serve a workload through the multi-replica front door."""
    import os
    from pathlib import Path

    from repro.errors import AdmissionRejected
    from repro.io import read_relation_csv
    from repro.mpc.backends.chaos import CHAOS_SEED_ENV
    from repro.serve import Frontdoor

    backend = args.backend
    saved_seed = os.environ.get(CHAOS_SEED_ENV)
    if args.chaos:
        backend = "chaos"
        if args.chaos_seed is not None:
            # Each replica builds its own chaos backend, which reads the
            # seed from the environment when it is constructed.
            os.environ[CHAOS_SEED_ENV] = str(args.chaos_seed)
    try:
        door = Frontdoor(
            p=args.servers,
            replicas=args.replicas,
            backend=backend,
            shed_after=args.shed_after,
            tracer=tracer,
        )
    finally:
        if saved_seed is None:
            os.environ.pop(CHAOS_SEED_ENV, None)
        else:
            os.environ[CHAOS_SEED_ENV] = saved_seed
    with door:
        for path in sorted(Path(args.data_dir).glob("*.csv")):
            door.register(read_relation_csv(path))
        for rnd in range(max(1, args.repeat)):
            if rnd:
                # Per-round percentiles: drop last round's counters and
                # histograms, keep the registered stat views.
                door.registry.reset()
            futures = []
            for text in workload:
                try:
                    futures.append(door.submit(text))
                except AdmissionRejected as exc:
                    print(f"REJECTED: {exc}")
            for fut in futures:
                res = fut.result()
                if not res.ok:
                    print(f"FAILED {res.metrics.text!r}: {res.metrics.error}")
        print("front door:")
        stats = door.stats().as_dict()
        print("  " + " ".join(f"{k}={stats[k]}" for k in sorted(stats)))
        print("per-replica session totals:")
        for i, eng in enumerate(door.engines):
            print(f"  replica {i}: {eng.stats().summary()}")
        if tracer is not None:
            tracer.close()
            print(f"trace written to {args.trace} "
                  f"({tracer.sink.emitted} spans)")
        if args.metrics_out:
            with open(args.metrics_out, "w") as fh:
                fh.write(door.metrics_text())
            print(f"metrics written to {args.metrics_out}")
    return 0


def _print_contained(query) -> None:
    """``contained: R2 in R0, ...``: the relations Yannakakis drops after
    its full reducer, each with the relation that contains it; then, for a
    disconnected query, ``components: R0,R1 x R6``: the reduced query's
    components, each folded on its own before their one product."""
    reduced, witness = query.reduce()
    if witness:
        print("contained: " + ", ".join(f"{n} in {w}" for n, w in sorted(witness.items())))
    components = sorted(map(sorted, reduced.connected_components()))
    if len(components) > 1:
        print("components: " + " x ".join(map(",".join, components)))


def _print_plan_order(prepared) -> None:
    if prepared.plan_order:
        print(f"plan order: {' -> '.join(prepared.plan_order)}")
        _print_contained(prepared.parsed.query)


def _print_execution(res) -> None:
    m = res.metrics
    print(
        f"kind={m.kind} algorithm={m.algorithm} class="
        f"{res.prepared.query_class} load={m.load} out={m.out_size} "
        f"{'hit' if m.cache_hit else 'miss'}"
    )
    _print_plan_order(res.prepared)
    if res.prepared.plan_quality:
        q = res.prepared.plan_quality
        print(
            f"plan quality: best={q['best']} worst={q['worst']} "
            f"({q['orders']} orders priced)"
        )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "catalog":
        from repro.query.catalog import CATALOG

        width = max(len(n) for n in CATALOG)
        for name, query in CATALOG.items():
            shape = ", ".join(
                f"{e}({','.join(sorted(query.attrs_of(e)))})"
                for e in query.edge_names
            )
            print(f"{name:<{width}}  {classify(query).name:<14}  {shape}")
        return 0

    if args.command == "query":
        engine = _load_engine(args)
        res = engine.execute(args.text, algorithm=args.algorithm)
        _print_execution(res)
        if res.scalar is not None:
            print(f"scalar = {res.scalar}")
        elif args.out and res.relation is not None:
            rel = res.relation
            if hasattr(rel, "to_relation"):  # DistRelation
                rel = rel.to_relation()
            write_relation_csv(rel, args.out)
            print(f"results written to {args.out}")
        else:
            for row in res.rows()[:20]:
                print(f"  {row}")
        return 0

    if args.command == "explain":
        engine = _load_engine(args)
        print(
            engine.explain(
                args.text, algorithm=args.algorithm, timings=args.timings
            )
        )
        _print_plan_order(engine.prepare(args.text, algorithm=args.algorithm))
        return 0

    if args.command == "serve":
        with open(args.queries) as fh:
            workload = [
                line.strip() for line in fh
                if line.strip() and not line.lstrip().startswith("#")
            ]
        tracer = None
        if args.trace:
            from repro.obs import SpanSink, Tracer

            # Truncate up front: the sink appends on every flush.
            open(args.trace, "w").close()
            tracer = Tracer(SpanSink(path=args.trace))
        if args.replicas > 1:
            return _serve_frontdoor(args, workload, tracer=tracer)
        if args.chaos:
            from repro.mpc.backends.chaos import FaultInjectingBackend

            args.backend = FaultInjectingBackend(seed=args.chaos_seed)
        engine = _load_engine(args, tracer=tracer)
        report = None
        for rnd in range(max(1, args.repeat)):
            if rnd:
                # Per-round percentiles: drop last round's counters and
                # histograms, keep the registered stat views.
                engine.registry.reset()
            report = engine.submit_batch(workload, budget=args.budget)
        assert report is not None
        for res in report.results:
            if not res.ok:
                print(f"FAILED {res.metrics.text!r}: {res.metrics.error}")
        print("last round:")
        print(report.stats.summary())
        print("session totals:")
        print(engine.stats().summary())
        fault_stats = engine.backend_fault_stats()
        if any(fault_stats.values()):
            print("backend faults: " + ", ".join(
                f"{k}={v}" for k, v in sorted(fault_stats.items()) if v
            ))
        if tracer is not None:
            tracer.close()
            print(f"trace written to {args.trace} "
                  f"({tracer.sink.emitted} spans)")
        if args.metrics_out:
            with open(args.metrics_out, "w") as fh:
                fh.write(engine.metrics_text())
            print(f"metrics written to {args.metrics_out}")
        if args.chaos:
            args.backend.close()
        return 0

    if args.command == "stats":
        import json as _json

        with open(args.queries) as fh:
            workload = [
                line.strip() for line in fh
                if line.strip() and not line.lstrip().startswith("#")
            ]
        engine = _load_engine(args)
        for _ in range(max(1, args.repeat)):
            engine.submit_batch(workload)
        if args.format == "prom":
            sys.stdout.write(engine.metrics_text())
        else:
            print(_json.dumps(engine.metrics_snapshot(), indent=2))
        return 0

    if args.command == "classify":
        instance = read_instance_dir(args.data_dir)
        query = instance.query
        cls = classify(query)
        print(f"query: {query}")
        print(f"class: {cls.name}")
        if cls.name == "ACYCLIC":
            path = minimal_path_of_length_3(query)
            print(f"Lemma 2 witness (minimal 3-path): {' -> '.join(path or ())}")
        return 0

    instance = read_instance_dir(
        args.data_dir,
        semiring=SEMIRINGS[args.semiring] if args.command == "aggregate" else None,
    )
    query = instance.query

    if args.command == "join":
        result = mpc_join(
            query, instance, p=args.servers,
            algorithm=args.algorithm, validate=args.validate,
            backend=args.backend,
        )
        print(f"algorithm: {result.meta['algorithm']} "
              f"(backend: {result.meta['backend']})")
        print(f"IN={instance.input_size} OUT={result.output_size} "
              f"p={args.servers} load={result.report.load}")
        if args.out:
            write_relation_csv(result.relation.to_relation(), args.out)
            print(f"results written to {args.out}")
        return 0

    if args.command == "count":
        count, report = mpc_output_size(
            query, instance, args.servers, backend=args.backend
        )
        print(f"|Q(R)| = {count}  (load={report.load}, IN/p="
              f"{instance.input_size / args.servers:.0f})")
        return 0

    if args.command == "aggregate":
        outputs = {a for a in args.group_by.split(",") if a}
        semiring = SEMIRINGS[args.semiring]
        if not instance.annotated:
            instance = instance.with_uniform_annotations(semiring)
        res = mpc_join_aggregate(
            query, outputs, instance, semiring, p=args.servers,
            backend=args.backend,
        )
        if not outputs:
            print(f"total aggregate = {res.scalar}  (load={res.report.load})")
        else:
            print(f"{len(res.relation)} groups  (load={res.report.load})")
            for row, w in list(
                zip(res.relation.rows, res.relation.annotations or ())
            )[:20]:
                print(f"  {row} -> {w}")
            if args.out:
                write_relation_csv(res.relation, args.out)
                print(f"results written to {args.out}")
        return 0

    if args.command == "plan":
        from repro.core.planner import choose

        choice = choose(query, instance, args.servers)
        plan, quality = choice.plan, choice.quality
        _print_contained(query)
        print(f"orders considered: {quality['orders']}")
        print(f"best order:  {' -> '.join(plan.order)}")
        for prefix, size in zip(plan.prefixes, plan.intermediates):
            print(f"  |{' * '.join(prefix)}| = {size}")
        print(f"max intermediate: best={quality['best']} worst={quality['worst']}")
        print(f"predicted load on p={args.servers}:")
        for name, units in choice.units.items():
            print(f"  {name}: {units}")
        print(f"chosen: {choice.algorithm}")
        return 0

    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
