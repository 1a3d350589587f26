"""Spans around the public functions of each histra layer, recorded from
outside the library.

`Tracer.install` replaces every binding of a traced function -- on its own
module, on every histra module that imported it, and on the benchmark's
workload module -- with a wrapper that records a span: name, start, end,
parent span and request id.  Spans live in flat arrays until the run ends.
A span's self time is its duration minus the time its child spans cover;
because spans come from one thread and nest strictly, that is the
duration minus the sum of the children's durations.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter
from types import ModuleType

import histra.counters as counters

# (module, function, span name)
TARGETS = [
    ("histra.core", "step", "core.step"),
    ("histra.core", "eps_closure", "core.eps_closure"),
    ("histra.core", "membership", "core.membership"),
    ("histra.core", "trace", "core.trace"),
    ("histra.core", "classify", "core.classify"),
    ("histra.cli", "parse_hra_document", "cli.parse"),
] + [
    ("histra.constructions", fn, "constructions." + fn)
    for fn in ("union", "intersection", "concatenation", "kleene_star", "fix_names",
               "pad_type", "registers_to_histories", "to_packed", "unpack",
               "complement_deterministic", "packed_determinism_witness",
               "containment_deterministic")
] + [
    ("histra.reductions", "emptiness", "reductions.emptiness"),
] + [
    ("histra.reductions", fn, "reductions.translate." + fn)
    for fn in ("hra_to_trvass", "restricted_hra_to_rvass", "unary_to_one_rvass",
               "nonreset_to_vass", "eliminate_registers_colouring")
] + [
    ("histra.skeletons", fn, "skeletons." + fn)
    for fn in ("skeleton_of", "skel_at", "skel_move", "skel_reset")
] + [
    ("histra.counters", "backward_coverability", "counters.backward"),
    ("histra.counters", "pre_basis", "counters.pre_basis"),
    ("histra.counters", "one_dim_rvass_reachability", "counters.one_dim"),
]
UPSET_INSERT = "counters.upset.insert"

# translations that build a counter machine (unary_to_one_rvass delegates
# to restricted_hra_to_rvass, so it is not counted twice)
MACHINE_BUILDERS = {"reductions.translate." + fn
                    for fn in ("hra_to_trvass", "restricted_hra_to_rvass", "nonreset_to_vass")}
ENGINES = ("one_rvass", "vass", "restricted", "trvass")

# every per-layer metric the traced run reports, with its unit
METRICS = [
    ("core.step.calls", "count"), ("core.step.self_s", "s"), ("core.step.hit_ratio", "ratio"),
    ("core.eps_closure.calls", "count"), ("core.eps_closure.self_s", "s"),
    ("core.frontier.peak", "count"), ("core.frontier.mean", "count"),
    ("core.membership.self_s", "s"), ("core.trace.self_s", "s"), ("core.classify.self_s", "s"),
    ("cli.parse.calls", "count"), ("cli.parse.self_s", "s"), ("cli.parse.bytes", "bytes"),
    ("constructions.calls", "count"), ("constructions.self_s", "s"),
    ("constructions.out_states", "count"), ("constructions.out_transitions", "count"),
    ("constructions.containment.self_s", "s"),
    ("reductions.emptiness.calls", "count"), ("reductions.translate.self_s", "s"),
    ("reductions.dims.max", "count"), ("reductions.dims.sum", "count"),
    ("reductions.control_states.sum", "count"), ("reductions.counter_transitions.sum", "count"),
] + [(f"reductions.engine.{e}.calls", "count") for e in ENGINES] + [
    ("skeletons.calls", "count"), ("skeletons.self_s", "s"),
    ("counters.backward.calls", "count"), ("counters.backward.covered_s", "s"),
    ("counters.backward.uncovered_s", "s"),
    ("counters.pre_basis.calls", "count"), ("counters.pre_basis.self_s", "s"),
    ("counters.upset.inserts", "count"), ("counters.upset.accepted", "count"),
    ("counters.upset.accept_ratio", "ratio"), ("counters.antichain.peak", "count"),
    ("trace.requests", "count"), ("trace_overhead_frac", "ratio"),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # outcomes read off arguments and results at the layer boundaries
        self.step_hits = 0
        self.frontier_sum = 0
        self.frontier_peak = 0
        self.parse_bytes = 0
        self.out_states = 0
        self.out_transitions = 0
        self.dims_max = self.dims_sum = self.control_states = self.counter_transitions = 0
        self.engines = {e: 0 for e in ENGINES}
        self.covered_s = self.uncovered_s = 0.0
        self.upset_accepted = 0
        self._upset = None  # the antichain being grown; one lives at a time
        self._antichain: dict = {}
        self._antichain_size = 0
        self.antichain_peak = 0

    # -- installing ------------------------------------------------------

    def install(self, extra_modules: list[ModuleType]) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "histra" or k.startswith("histra."))]
        modules += extra_modules
        for module_name, attr, span in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)
        original = counters.UpSet.insert
        self._patches.append((counters.UpSet, "insert", original))
        counters.UpSet.insert = self._wrap(UPSET_INSERT, original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, span: str, fn):
        self.names.append(span)
        nid = len(self.names) - 1
        observe = self._observer(span)
        name_id, start, end = self.name_id, self.start, self.end
        parent, request, open_spans = self.parent, self.request, self._open
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            request.append(tracer.request_id)
            end.append(0.0)
            open_spans.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                open_spans.pop()
            if observe is not None:
                observe(args, result, end[i] - start[i])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def _observer(self, span: str):
        if span == "core.step":
            def observe(args, result, dur):
                self.step_hits += bool(result)
        elif span == "core.eps_closure":
            def observe(args, result, dur):
                self.frontier_sum += len(result)
                self.frontier_peak = max(self.frontier_peak, len(result))
        elif span == "cli.parse":
            def observe(args, result, dur):
                self.parse_bytes += len(args[0].encode())
        elif span.startswith("constructions."):
            def observe(args, result, dur):
                if hasattr(result, "transitions"):
                    self.out_states += len(result.states)
                    self.out_transitions += len(result.transitions)
        elif span in MACHINE_BUILDERS:
            def observe(args, result, dur):
                mc = result.machine
                self.dims_max = max(self.dims_max, mc.dims)
                self.dims_sum += mc.dims
                self.control_states += len(mc.states)
                self.counter_transitions += len(mc.transitions)
        elif span == "reductions.emptiness":
            def observe(args, result, dur):
                self.engines[result.engine] = self.engines.get(result.engine, 0) + 1
        elif span == "counters.backward":
            def observe(args, result, dur):
                if result:
                    self.covered_s += dur
                else:
                    self.uncovered_s += dur
        elif span == UPSET_INSERT:
            def observe(args, result, dur):
                upset, state = args[0], args[1]
                if upset is not self._upset:
                    self._upset, self._antichain, self._antichain_size = upset, {}, 0
                # per-state basis length, read off the private store: len(upset)
                # would walk every state on every insert
                size = len(upset._bases[state])
                self._antichain_size += size - self._antichain.get(state, 0)
                self._antichain[state] = size
                self.antichain_peak = max(self.antichain_peak, self._antichain_size)
                self.upset_accepted += result
        else:
            observe = None
        return observe

    # -- reading ---------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - covered[i] for i in range(n)]

    def per_name(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds)."""
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for nid, s in zip(self.name_id, self.self_times()):
            calls[nid] += 1
            own[nid] += s
        return {name: (calls[i], own[i]) for i, name in enumerate(self.names)}

    def metrics(self, requests: int, overhead: float) -> dict[str, float]:
        by = self.per_name()

        def calls(prefix: str) -> int:
            return sum(c for n, (c, _) in by.items() if n == prefix or n.startswith(prefix + "."))

        def own(prefix: str) -> float:
            return sum(s for n, (_, s) in by.items() if n == prefix or n.startswith(prefix + "."))

        steps, closures = calls("core.step"), calls("core.eps_closure")
        inserts = calls(UPSET_INSERT)
        out = {
            "core.step.calls": steps,
            "core.step.self_s": own("core.step"),
            "core.step.hit_ratio": self.step_hits / steps if steps else 0.0,
            "core.eps_closure.calls": closures,
            "core.eps_closure.self_s": own("core.eps_closure"),
            "core.frontier.peak": self.frontier_peak,
            "core.frontier.mean": self.frontier_sum / closures if closures else 0.0,
            "core.membership.self_s": own("core.membership"),
            "core.trace.self_s": own("core.trace"),
            "core.classify.self_s": own("core.classify"),
            "cli.parse.calls": calls("cli.parse"),
            "cli.parse.self_s": own("cli.parse"),
            "cli.parse.bytes": self.parse_bytes,
            "constructions.calls": calls("constructions"),
            "constructions.self_s": own("constructions"),
            "constructions.out_states": self.out_states,
            "constructions.out_transitions": self.out_transitions,
            "constructions.containment.self_s": own("constructions.containment_deterministic"),
            "reductions.emptiness.calls": calls("reductions.emptiness"),
            "reductions.translate.self_s": own("reductions.translate"),
            "reductions.dims.max": self.dims_max,
            "reductions.dims.sum": self.dims_sum,
            "reductions.control_states.sum": self.control_states,
            "reductions.counter_transitions.sum": self.counter_transitions,
        }
        for e in ENGINES:
            out[f"reductions.engine.{e}.calls"] = self.engines[e]
        out.update({
            "skeletons.calls": calls("skeletons"),
            "skeletons.self_s": own("skeletons"),
            "counters.backward.calls": calls("counters.backward"),
            "counters.backward.covered_s": self.covered_s,
            "counters.backward.uncovered_s": self.uncovered_s,
            "counters.pre_basis.calls": calls("counters.pre_basis"),
            "counters.pre_basis.self_s": own("counters.pre_basis"),
            "counters.upset.inserts": inserts,
            "counters.upset.accepted": self.upset_accepted,
            "counters.upset.accept_ratio": self.upset_accepted / inserts if inserts else 0.0,
            "counters.antichain.peak": self.antichain_peak,
            "trace.requests": requests,
            "trace_overhead_frac": overhead,
        })
        return out

    def write_spans(self, path) -> None:
        """One CSV line per span, in start order: request,name,start,end,parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("request,name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.request[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f},{self.parent[i]}\n")
