"""Run one histra benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload member|empty|cover --seed N \
        --seconds S --trace 0|1

The library is imported from `src/` of the checkout this file sits in.
One client sends requests in a closed loop: the next request goes out when
the previous answer is back and checked.  Requests come in rounds (every
case once, shuffled by the seed); a run measures whole rounds until at
least `--seconds` have passed and at least MIN_REQUESTS requests were
made, so at least ten latencies lie above the 90th percentile.

With `--trace 0` the run prints the end-to-end metrics.  With `--trace 1`
it replays the workload's fixed traced rounds twice, untraced and then with
spans around every layer's public functions, and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.  A wrong answer or a
raised error counts as failed and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5  # at least, and until SETUP_MIN_S of builds
SETUP_MIN_S = 0.5
MIN_REQUESTS = 110
REFERENCE_S = 0.001  # a reference_loop() at reference speed
REFERENCE_EVERY_S = 0.05
REFERENCE_WINDOW = 4  # samples on each side of a timing that scale it


def import_histra() -> None:
    """Put this checkout's `src/` first on the path; fail if it is missing."""
    src = ROOT / "src"
    if not (src / "histra" / "__init__.py").is_file():
        raise SystemExit(f"error: no histra sources under {src}")
    sys.path.insert(0, str(src))
    import histra

    if Path(histra.__file__).resolve().parent != src / "histra":
        raise SystemExit(f"error: imported histra from {histra.__file__}, not from {src}")


def reference_loop() -> int:
    """Fixed interpreter work that does not touch histra: small frozensets,
    tuples, sorting and dict updates, the kind of work the library does."""
    table: dict = {}
    for i in range(500):
        key = frozenset((i % 97, i % 89, i % 83, i % 7))
        table[key] = table.get(key, 0) + 1
        row = tuple(sorted(key))
        table[row] = len(row)
    return len(table)


class ReferenceClock:
    """Reference-loop timings interleaved with the measured work.

    The speed of a shared machine drifts by a quarter or more over seconds,
    and the drift moves the reference loop with the measured code.  Each
    timing is scaled by REFERENCE_S over the median of the reference
    samples taken around it, so it reads as if the machine ran at
    reference speed.  Raw timings go into the run record.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = perf_counter()

    def sample(self) -> None:
        t0 = perf_counter()
        reference_loop()
        self.last = perf_counter()
        self.samples.append(self.last - t0)

    def due(self) -> bool:
        return perf_counter() - self.last >= REFERENCE_EVERY_S

    def scale(self, mark: int) -> float:
        """Factor for a timing made after the first `mark` samples."""
        around = self.samples[max(0, mark - REFERENCE_WINDOW):mark + REFERENCE_WINDOW]
        return REFERENCE_S / statistics.median(around)


def _run_request(workloads, req, failures: list) -> tuple[float, object]:
    """Time one request; return (seconds, result or None on error)."""
    t0 = perf_counter()
    try:
        result = workloads.execute(req)
    except Exception:  # the loop must go on: count it and show the traceback
        dt = perf_counter() - t0
        failures.append(f"{req.case} ({req.op}) raised:\n{traceback.format_exc()}")
        return dt, None
    dt = perf_counter() - t0
    if not workloads.check(req, result):
        failures.append(f"{req.case} ({req.op}): expected {req.expected} "
                        f"[{req.evidence}], got {workloads.answer_of(req, result)}")
    return dt, result


def _run_pass(workloads, reqs, failures: list, clock: ReferenceClock,
              engines: dict, tracer=None) -> list[tuple[float, int]]:
    """Run `reqs` in order, taking a reference sample after any request once
    one is due; return each request's (seconds, samples taken before it)."""
    timings = []
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request_id = i
        mark = len(clock.samples)
        dt, result = _run_request(workloads, req, failures)
        timings.append((dt, mark))
        if req.op == "emptiness" and result is not None:
            engines[result.engine] = engines.get(result.engine, 0) + 1
        if clock.due():
            clock.sample()
    return timings


def closed_loop(workloads, wl, seconds: float) -> dict:
    rng = random.Random(wl.seed)
    clock = ReferenceClock()
    timings: list[tuple[float, int]] = []
    sent: list[int] = []  # index of each request in the round
    failures: list[str] = []
    engines: dict[str, int] = {}
    rounds = 0
    begin = perf_counter()
    clock.sample()
    while True:
        order = list(range(len(wl.requests)))
        rng.shuffle(order)
        sent += order
        timings += _run_pass(workloads, [wl.requests[k] for k in order], failures, clock, engines)
        rounds += 1
        wall = perf_counter() - begin
        if wall >= seconds and len(timings) >= MIN_REQUESTS:
            break
    clock.sample()
    scaled = [dt * clock.scale(mark) for dt, mark in timings]
    # every round repeats each request unchanged: its latency is the median
    # of its scaled timings over the rounds
    by_request: dict[int, list[float]] = {}
    for k, dt in zip(sent, scaled):
        by_request.setdefault(k, []).append(dt)
    typical = {k: statistics.median(v) for k, v in by_request.items()}
    return {"latencies": [dt for dt, _ in timings], "scaled": scaled,
            "typical": [typical[k] for k in sent], "failures": failures, "wall": wall,
            "rounds": rounds, "engines": engines, "reference_s": clock.samples}


def _scaled_pass(workloads, reqs, failures: list, tracer=None) -> tuple[float, float]:
    """Run `reqs` once; return (request seconds, the same at reference speed)."""
    clock = ReferenceClock()
    clock.sample()
    timings = _run_pass(workloads, reqs, failures, clock, {}, tracer)
    clock.sample()
    return sum(dt for dt, _ in timings), sum(dt * clock.scale(mark) for dt, mark in timings)


def traced_rounds(workloads, tracing, wl) -> dict:
    """The same fixed requests untraced, then traced."""
    rng = random.Random(wl.seed)
    reqs = []
    for _ in range(wl.trace_rounds):
        order = list(wl.requests)
        rng.shuffle(order)
        reqs += order
    failures: list[str] = []
    untraced, untraced_scaled = _scaled_pass(workloads, reqs, failures)
    tracer = tracing.Tracer()
    tracer.install([workloads])
    try:
        traced, traced_scaled = _scaled_pass(workloads, reqs, failures, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(len(reqs), traced_scaled / untraced_scaled - 1)
    return {"tracer": tracer, "metrics": metrics, "failures": failures,
            "attempted": 2 * len(reqs), "untraced_s": untraced, "traced_s": traced}


def machine_record() -> dict:
    u = platform.uname()
    return {
        "machine": u.machine,
        "system": f"{u.system} {u.release}",
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_histra()
    import workloads

    if args.workload not in workloads.NAMES:
        p.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    clock = ReferenceClock()
    setups, marks = [], []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        gc.collect()
        for _ in range(REFERENCE_WINDOW):
            clock.sample()
        marks.append(len(clock.samples))
        t0 = perf_counter()
        wl = workloads.build(args.workload, args.seed)
        setups.append(perf_counter() - t0)
    for _ in range(REFERENCE_WINDOW):
        clock.sample()
    scaled_setups = [dt * clock.scale(mark) for dt, mark in zip(setups, marks)]
    # the inputs live for the whole run: keep the collector from rescanning them
    gc.collect()
    gc.freeze()

    record = {
        **machine_record(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests_per_round": len(wl.requests),
        "cases": len({r.case for r in wl.requests}),
        "seeded_draws_skipped": wl.skipped,
        "setup_runs_s": setups,
    }
    if args.trace:
        import tracing

        run = traced_rounds(workloads, tracing, wl)
        attempted, failures = run["attempted"], run["failures"]
        metrics = {name: (run["metrics"][name], unit) for name, unit in tracing.METRICS}
        record.update({
            "traced_requests": run["metrics"]["trace.requests"],
            "untraced_s": run["untraced_s"],
            "traced_s": run["traced_s"],
            "spans": len(run["tracer"].start),
            "engine_mix": {e: run["metrics"][f"reductions.engine.{e}.calls"]
                           for e in tracing.ENGINES},
        })
        OUT.mkdir(exist_ok=True)
        run["tracer"].write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    else:
        run = closed_loop(workloads, wl, args.seconds)
        lat, typical, failures = run["latencies"], run["typical"], run["failures"]
        attempted = len(lat)
        p90 = statistics.quantiles(typical, n=10)[8]
        metrics = {
            "decisions_per_s": (attempted / sum(run["scaled"]), "1/s"),
            "latency_p50_ms": (1000 * statistics.median(typical), "ms"),
            "latency_p90_ms": (1000 * p90, "ms"),
            "correct_frac": ((attempted - len(failures)) / attempted, "ratio"),
            "setup_s": (statistics.median(scaled_setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record.update({
            "requests": attempted,
            "above_p90": sum(x > p90 for x in typical),
            "rounds": run["rounds"],
            "wall_s": run["wall"],
            "failed_frac": len(failures) / attempted,
            "engine_mix": run["engines"],
            "raw": {
                "decisions_per_s": attempted / run["wall"],
                "latency_p50_ms": 1000 * statistics.median(lat),
                "latency_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
                "setup_s": statistics.median(setups),
            },
            "reference_loop_ms": {"median": 1000 * statistics.median(run["reference_s"]),
                                  "min": 1000 * min(run["reference_s"]),
                                  "max": 1000 * max(run["reference_s"]),
                                  "samples": len(run["reference_s"])},
        })

    gc.unfreeze()
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:38} {value:>14.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps({"record": record, **result}, indent=1) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
