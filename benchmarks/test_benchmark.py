"""Self-test of the benchmark: seeded inputs, traced spans, metric names.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import json
from pathlib import Path
from time import perf_counter

import run

run.import_histra()

import tracing  # noqa: E402  (needs histra on the path)
import workloads  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_same_seed_gives_same_requests_and_another_seed_differs():
    for name in workloads.NAMES:
        first = workloads.build(name, 7).requests
        assert workloads.build(name, 7).requests == first, name
        assert workloads.build(name, 8).requests != first, name


def test_traced_spans_nest_and_self_times_fit_in_wall_time():
    member = workloads.build("member", 3).requests
    cheap = ("star_distinct0", "distinct0_then_distinct1", "two_tracks_in_all_distinct")
    empty = [r for r in workloads.build("empty", 3).requests
             if r.case.startswith("random") or r.case in cheap]
    cover = [r for r in workloads.build("cover", 3).requests if r.case.startswith("random")]
    reqs = member + tuple(empty) + tuple(cover)

    tracer = tracing.Tracer()
    tracer.install([workloads])
    try:
        begin = perf_counter()
        for i, req in enumerate(reqs):
            tracer.request_id = i
            assert workloads.check(req, workloads.execute(req)), req.case
        wall = perf_counter() - begin
    finally:
        tracer.uninstall()
    assert not hasattr(workloads.core.membership, "__wrapped__")

    start, end, parent, request = tracer.start, tracer.end, tracer.parent, tracer.request
    n = len(start)
    assert n > len(reqs)
    last_child_end: dict[int, float] = {}
    for i in range(n):
        p = parent[i]
        assert start[i] <= end[i]
        if p >= 0:
            assert p < i and start[p] <= start[i] and end[i] <= end[p]
            assert request[i] == request[p]
        # siblings, and top-level spans, follow one another without overlap
        assert last_child_end.get(p, start[i]) <= start[i]
        last_child_end[p] = end[i]
    own = tracer.self_times()
    assert min(own) >= -1e-9
    assert sum(own) <= wall

    metrics = tracer.metrics(len(reqs), 0.0)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert [u for _, u in tracing.METRICS] == [m["unit"] for m in SPEC["per_layer"]]
    for layer in ("core.step.calls", "cli.parse.calls", "constructions.calls",
                  "reductions.emptiness.calls", "counters.backward.calls"):
        assert metrics[layer] > 0, layer


def test_timed_run_prints_every_end_to_end_metric(capsys):
    code = run.main(["--workload", "member", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REQUESTS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
