"""The benchmark's one command.

    python3 benchmarks/harness/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in this (fresh) interpreter and prints, as the last
line of stdout, ``{"correct", "attempted", "failed", "metrics"}`` with
every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``).  Without ``--workload`` it runs all
four, both ways, one subprocess each; ``--smoke`` does that at tiny
sizes, ``--aa K`` runs K untraced sets twice and compares them.
See README.md.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HARNESS = Path(__file__).resolve().parent
ROOT = HARNESS.parents[1]
OUT = HARNESS / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Timed set-up repetitions, after one untimed (a single shot moved +-25 %
#: between identical runs, the median of 8 moved 7 %).  Short set-ups
#: repeat further, up to ``4 * SETUP_REPS``, while ``SETUP_BUDGET_S`` lasts.
SETUP_REPS = 8
SETUP_BUDGET_S = 3.0
#: Timed passes of a cold deck at ``--seconds`` = ``run_seconds``; the
#: count scales with ``--seconds`` and never with how fast a pass was, so
#: two commits are measured over the same schedule.
PASSES = 25
#: Traced cycles (set-up + pass) and untraced reference passes per traced run.
CYCLES = 5


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has ended.

    ``import repro`` probes shared memory (``shm_supported``), and the
    first ``SharedMemory`` starts the tracker: a helper process that only
    ends once it sees this one gone, so it outlives the run unless it is
    stopped here.  Called right after the import (nothing it tracks is
    left by then, and no timed window shares the box with it) and again at
    exit, for whatever a process-pool probe started in between.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()      # closes its pipe, then waitpid


def import_repro() -> None:
    """Put this checkout's ``src/`` first; refuse any other ``repro``."""
    sys.path[:0] = [str(ROOT / "src"), str(HARNESS)]
    atexit.register(stop_resource_tracker)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))     # so that atexit runs
    import repro

    stop_resource_tracker()
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def prepare_inputs(args):
    """The deck, its CSV files, and the schedule as a list of passes:
    ``PASSES`` closed-loop passes of a cold deck, or the one open-loop
    pass of ``serve_churn`` (``SERVE_RATE`` x ``--seconds`` requests)."""
    from decks import EPOCH, SERVE_RATE, build_deck, closed_schedule, serve_schedule
    from measure import write_csvs

    deck = build_deck(args.workload, small=args.smoke)
    paths = write_csvs(deck, OUT / f"{args.workload}.{args.trace}.data")
    if deck.open_loop:
        total = max(EPOCH, round(SERVE_RATE * args.seconds))
        schedule = [serve_schedule(deck, args.seed, total)]
    else:
        passes = 2 if args.smoke else max(5, round(PASSES * args.seconds / SPEC["run_seconds"]))
        schedule = closed_schedule(deck, args.seed, passes)
    return deck, paths, schedule


def verified(deck, paths, schedule) -> dict:
    """Check every cell against the oracle; return the expected pairs.

    Runs in a forked child (this process has no threads yet), so the
    oracle's row sets never count towards ``peak_rss_mb``.  A failed
    verification ends the run without metrics.
    """
    from measure import setup_once, verify

    sys.stdout.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            truth = verify(deck, setup_once(deck, paths), [r for p in schedule for r in p])
            with os.fdopen(write_end, "w") as fh:
                json.dump(truth, fh)
            status = 0
        except BaseException:  # noqa: BLE001 - reported, then the child must die here
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        with os.fdopen(read_end) as fh:
            payload = fh.read()
    except BaseException:       # interrupted or terminated: take the child along
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if os.waitpid(pid, 0)[1] != 0:
        raise SystemExit(f"verification of {deck.name} failed; no metrics")
    return json.loads(payload)


def warmed_setups(deck, paths, schedule, expected, reps: int, budget: float) -> list:
    """Timed set-ups, after one untimed set-up and one untimed warm-up
    pass on it: this process has just sat idle behind the verification
    child, and an idle vCPU comes back slow for about a second."""
    from measure import clock, reload, run_pass, setup_once

    first = setup_once(deck, paths)
    reload(first)
    run_pass(first, deck, schedule[0][:40], expected, realtime=False)
    del first
    setups: list = []
    begun = clock()
    while len(setups) < reps or (len(setups) < 4 * reps and clock() - begun < budget):
        if setups:
            setups[-1].engine = setups[-1].relations = None    # keep the timings only
        gc.collect()
        setups.append(setup_once(deck, paths))
    return setups


def busy(served: list) -> float:
    return sum(s.service for s in served)


def end_to_end(args, deck, paths, schedule, truth) -> tuple[dict, list, dict]:
    """The untraced run: ``(metrics, served requests, detail)``."""
    import resource

    from measure import reload, run_pass
    from stats import fastest_fifth, percentile, quartiles, tail_percentile

    expected = truth["cells"]
    setups = warmed_setups(
        deck, paths, schedule, expected, *((2, 0.0) if args.smoke else (SETUP_REPS, SETUP_BUDGET_S))
    )
    setup = setups[-1]

    passes: list[list] = []
    for requests in schedule:
        if deck.open_loop:
            gc.collect()
        else:
            reload(setup)
        passes.append(run_pass(setup, deck, requests, expected, require_cold=not deck.open_loop))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    served = [s for p in passes for s in p]

    # Passes of a cold deck are alike by construction, so a slow one is
    # interference, which only ever adds time: pass_s is the mean of the
    # fastest fifth.  The one open-loop pass is its own fastest fifth.
    busy_s = list(map(busy, passes))
    latencies = [1e3 * s.latency for s in served]
    tail = tail_percentile(len(latencies))
    p50_all, tail_all = percentile(latencies, 50), percentile(latencies, tail)
    if deck.open_loop:
        p50, tail_ms = p50_all, tail_all
    else:
        # Likewise per query: a cold deck's 125 requests are 25 repetitions
        # of 5 queries, so its p50 / p90 over all requests are the middle
        # and the slowest query's typical time.  Taken over each query's
        # fastest-fifth mean, the same two queries are read through quiet
        # repetitions only (over all requests, two ten-seed sets of the
        # same code differed by 12-21 %, pass_s by 7-11 %).
        by_query: dict[str, list[float]] = {}
        for requests, got in zip(schedule, passes):
            for req, s in zip(requests, got):
                by_query.setdefault(req.query, []).append(1e3 * s.latency)
        per_query = [fastest_fifth(v) for v in by_query.values()]
        p50, tail_ms = percentile(per_query, 50), percentile(per_query, tail)
    metrics = {
        "setup_s": statistics.median(s.total_s for s in setups),
        "pass_s": fastest_fifth(busy_s),
        "req_p50_ms": p50,
        "req_tail_ms": tail_ms,
        "peak_rss_mb": rss_mb,
        "load_L": truth["sim"]["load_L"],
        "optimality_gap": truth["sim"]["optimality_gap"],
    }
    detail = {
        "pass_s_each": busy_s,
        "pass_s_quartiles": quartiles(busy_s),
        "req_p50_all_ms": p50_all,
        "req_tail_all_ms": tail_all,
        "setup_s_each": [s.total_s for s in setups],
        "latencies_ms": [[1e3 * s.latency for s in p] for p in passes],
        "passes": len(passes),
        "tail_percentile": tail,
        "cold_requests": sum(s.cold for s in served),
        "drain_s": served[-1].latency,
    }
    return metrics, served, detail


def traced(args, deck, paths, schedule, truth) -> tuple[dict, list, dict]:
    """The traced run: untraced reference passes, traced cycles, probes."""
    import probes
    import spans as tracing
    from decks import ROTATION
    from measure import clock, cold_pass_s, reload, run_pass, setup_once
    from stats import percentile

    expected = truth["cells"]
    cycles = 1 if args.smoke else CYCLES
    cold = not deck.open_loop
    # An open-loop deck is traced on a time-compressed prefix of its
    # schedule (three epochs: every relation swapped once): layer busy
    # time does not need the idle gaps, lateness does and is read from one
    # real-time pass below.
    unit = schedule[0] if cold else schedule[0][:ROTATION]

    setups = warmed_setups(
        deck, paths, schedule, expected, *((1, 0.0) if args.smoke else (3, 0.0))
    )
    setup = setups[-1]

    served: list = []
    reference: list[float] = []
    late: list[float] = []
    for _ in range(cycles):
        if cold:
            on = setup
            reload(on)
        else:
            on = setup_once(deck, paths)
        got = run_pass(on, deck, unit, expected, realtime=False, require_cold=cold)
        served += got
        reference.append(busy(got))
    if deck.open_loop:
        realtime = run_pass(
            setup, deck, schedule[0][: max(ROTATION, len(schedule[0]) // 3)], expected
        )
        served += realtime
        late = [s.late for s in realtime if s.late is not None]

    rec = tracing.Recorder()
    uninstall = tracing.install(rec)
    traced_s: list[float] = []
    cold_requests = repriced = 0
    try:
        for _ in range(cycles):
            gc.collect()
            root = rec.begin("harness.setup")
            cycle = setup_once(deck, paths)
            rec.end(root)
            if cold:
                reload(cycle)
            root = rec.begin("harness.pass")
            got = run_pass(
                cycle, deck, unit, expected, realtime=False, require_cold=cold, rec=rec
            )
            rec.end(root)
            served += got
            traced_s.append(busy(got))
            cold_requests += sum(s.cold for s in got)
            repriced += sum(s.repriced for s in got)
        # Warm plan replay only runs with the result cache off; give the
        # ``plan.replay`` span a few rounds of its own.
        replayer = setup_once(deck, paths, result_cache=False).engine
        for q in deck.queries:
            replayer.execute(q)
        root = rec.begin("harness.replay")
        for _ in range(cycles):
            for q in deck.queries:
                replayer.execute(q)
        rec.end(root)
    finally:
        uninstall()
    spans = rec.finish()
    tracing.write_spans(spans, str(OUT / f"{args.workload}.spans.jsonl"))

    metrics = tracing.layer_table(spans, cycles, roots=("harness.setup", "harness.pass"))
    replay_ms, replays = tracing.totals(spans, roots=("harness.replay",))
    metrics["plan.replays"] = replays["plan.replay"] / cycles
    metrics["plan.replay_ms"] = replay_ms["plan.replay"] / max(1, replays["plan.replay"])
    metrics["engine.cold_requests"] = cold_requests / cycles
    metrics["engine.repriced"] = repriced / cycles
    untraced_s = min(reference)
    metrics["trace.overhead_x"] = min(traced_s) / untraced_s
    # Closed loops have no due times, hence no lateness: 0 by definition.
    metrics["gen.late_p95_ms"] = 1e3 * percentile(late, 95) if late else 0.0
    for name in ("cluster.steps", "cluster.total_units", "cluster.max_step_load",
                 "theory.bound_units", "theory.l_instance_units"):
        metrics[name] = truth["sim"][name]
    metrics["io.read_csv_ms"] = 1e3 * statistics.median(s.read_s for s in setups)
    metrics["engine.register_ms"] = 1e3 * statistics.median(s.register_s for s in setups)
    metrics["engine.prepare_ms"] = 1e3 * statistics.median(s.prepare_s for s in setups)

    if not cold:
        # The probes' ratios are against a cold pass over the distinct
        # queries; a cold deck's reference passes are exactly that.
        untraced_s = min(cold_pass_s(setup, deck, expected) for _ in range(cycles))
    t0 = clock()
    metrics.update(probes.run_probes(
        deck, paths, setup, expected, untraced_s, reps=1 if args.smoke else 3
    ))
    detail = {
        "cycles": cycles,
        "spans": len(spans),
        "untraced_pass_s": reference,
        "traced_pass_s": traced_s,
        "probes_s": clock() - t0,
    }
    return metrics, served, detail


def run_workload(args) -> int:
    """One workload in this interpreter.  Exit status 1 if any timed
    request failed (the result line says how many)."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(
            sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"}
        )
    import_repro()
    deck, paths, schedule = prepare_inputs(args)
    truth = verified(deck, paths, schedule)
    kind = "per_layer" if args.trace else "end_to_end"
    values, served, detail = (traced if args.trace else end_to_end)(
        args, deck, paths, schedule, truth
    )
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    if set(values) != set(declared):
        raise SystemExit(
            f"metric names drifted from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(values))}, "
            f"undeclared {sorted(set(values) - set(declared))}"
        )
    failed = sum(not s.ok for s in served)
    result = {
        "correct": failed == 0,
        "attempted": len(served),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in declared.items()},
    }
    detail["fail_frac"] = failed / len(served)
    (OUT / f"{args.workload}.{kind}.json").write_text(
        json.dumps({"args": vars(args), "detail": detail, **result}, indent=1)
    )
    for name, unit in declared.items():
        print(f"{args.workload:12s} {name:34s} {values[name]:16.6f} {unit}")
    print(f"{args.workload:12s} {'fail_frac':34s} {detail['fail_frac']:16.6f} ({failed} of {len(served)})")
    print(json.dumps(result))
    return 1 if failed else 0


# ----------------------------------------------------------------------
# Many workloads, one subprocess each
# ----------------------------------------------------------------------
def child_command(args, workload: str, seed: int, trace: int) -> list[str]:
    cmd = [
        sys.executable, __file__, "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    return cmd + ["--smoke"] if args.smoke else cmd


def parse_result(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


def run_all(args) -> int:
    """Every workload untraced and traced.  Smoke runs overlap (it makes
    no timing claim); full runs are strictly one at a time."""
    commands = [child_command(args, w, args.seed, t) for w in WORKLOADS for t in (0, 1)]
    if args.smoke:
        procs = [subprocess.Popen(c, stdout=subprocess.PIPE, text=True) for c in commands]
        done = [(p.communicate()[0], p.returncode) for p in procs]
    else:
        done = []
        for c in commands:
            proc = subprocess.run(c, stdout=subprocess.PIPE, text=True)
            done.append((proc.stdout, proc.returncode))
    for out, _ in done:
        sys.stdout.write(out)
    return int(any(code != 0 for _, code in done))


#: What ``--aa`` allows two alternating sets of the same code to differ by:
#: the issue's 10 %, or the metric's own bound where that is tighter.
#: ``BENCHMARK.json``'s time bounds are wider because they have to hold
#: between *sequential* sets, which this host's speed changes fall between;
#: alternation puts those on both sides (measured drift: at most 3.5 %).
AA_LIMIT = 0.10
#: Per-layer counts that must repeat exactly between two traced runs of
#: the same code at the same seed.
EXACT_LAYER = ("cluster.steps", "cluster.total_units", "cluster.max_step_load", "runtime.gc_gen2")


def run_aa(args) -> int:
    """``--aa K``: K untraced sets, twice, alternating which side goes
    first; the two sides' medians must agree within ``AA_LIMIT`` or the
    metric's bound if tighter (``load_L`` and ``optimality_gap``:
    exactly), every run must be correct, and one traced run per side must
    repeat ``EXACT_LAYER``.  If a timing fails here, raise pass counts; do
    not loosen ``AA_LIMIT``."""
    from stats import quartiles

    def run(workload: str, seed: int, trace: int) -> dict:
        proc = subprocess.run(
            child_command(args, workload, seed, trace), stdout=subprocess.PIPE, text=True
        )
        result = parse_result(proc.stdout) if proc.returncode == 0 else {"correct": False}
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed} trace {trace}: failed or incorrect run")
        return result["metrics"]

    limits = {m["name"]: min(m["bound"], AA_LIMIT) for m in SPEC["end_to_end"]}
    sides: dict[tuple[str, str], tuple[list, list]] = {}
    for k in range(args.aa):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            for w in WORKLOADS:
                for name, m in run(w, args.seed + k, 0).items():
                    sides.setdefault((w, name), ([], []))[side].append(m["value"])
    status = 0
    for (w, name), (a, b) in sides.items():
        ma, mb = statistics.median(a), statistics.median(b)
        drift = abs(ma - mb) / min(ma, mb)
        verdict = "ok" if drift <= limits[name] else "DIFFER"
        status |= verdict != "ok"
        print(
            f"{w:12s} {name:16s} A {ma:12.5f} {quartiles(a)[0]:12.5f}..{quartiles(a)[2]:<12.5f} "
            f"B {mb:12.5f} {quartiles(b)[0]:12.5f}..{quartiles(b)[2]:<12.5f} "
            f"drift {drift:7.4f} limit {limits[name]:.2g} {verdict}"
        )
    for w in WORKLOADS:
        a, b = run(w, args.seed, 1), run(w, args.seed, 1)
        for name in EXACT_LAYER:
            verdict = "ok" if a[name]["value"] == b[name]["value"] else "DIFFER"
            status |= verdict != "ok"
            print(f"{w:12s} {name:24s} A {a[name]['value']:12.1f} B {b[name]['value']:12.1f} {verdict}")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, no timing claim")
    ap.add_argument("--aa", type=int, nargs="?", const=5, help="A/A check over K sets")
    args = ap.parse_args()
    if args.smoke:
        args.seconds = min(args.seconds, 0.2)
    if args.workload:
        return run_workload(args)
    sys.path.insert(0, str(HARNESS))
    if args.aa:
        return run_aa(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
