"""The three benchmark workloads and their answer checking.

A workload is one *round* of requests: every case exactly once.  The
runner replays shuffled rounds, so the mix of a run is the same whatever
the seed, and only the seeded inputs (words, random automata, random
counter machines) change with it.

Every request carries its expected answer and a note saying where that
answer came from.  Expected answers never come from the engine under
test: they come from the word-level oracles in `histra.oracles`, from
`bounded_emptiness` / `forward_witness_search`, or from the language
definition, and every witness word is checked with `membership` here at
set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Sequence

import histra.cli as cli
import histra.constructions as constructions
import histra.core as core
import histra.counters as counters
import histra.reductions as reductions
from histra.core import Accept, Hra, Reset
from histra.counters import CounterMachine
from histra.oracles import (
    Lang,
    bounded_emptiness,
    oracle_membership,
    random_counter_machine,
    random_hra,
)
from histra.zoo import (
    all_distinct_hra,
    alternating_pair_hras,
    anchored_blocks_hra,
    anchored_distinct_hra,
    generate_then_consume_hra,
    no_immediate_repeat_history_hra,
    not_all_twice_hra,
    two_step_distinct_hra,
    two_tracks_hra,
)

NAMES = ("member", "empty", "cover")


@dataclass(frozen=True)
class Request:
    """One call of the user-facing API with its independently known answer."""

    case: str
    op: str  # membership | trace | emptiness | containment | cover
    inputs: tuple
    expected: bool
    evidence: str


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    requests: tuple[Request, ...]  # one round
    trace_rounds: int  # rounds the traced run replays
    skipped: int = 0  # seeded draws dropped for lack of independent evidence


# ---------------------------------------------------------------------------
# executing and checking requests
#
# Library functions are looked up on their modules at call time, so the
# traced run sees every call through the bindings it patches.


def execute(req: Request):
    if req.op == "membership":
        return core.membership(*req.inputs)
    if req.op == "trace":
        return core.trace(*req.inputs)
    if req.op == "cover":
        return counters.backward_coverability(*req.inputs)
    construction, texts = req.inputs
    names = cli.NameTable()
    operands = [cli.parse_hra_document(text, names).hra for text in texts]
    if req.op == "containment":
        return constructions.containment_deterministic(*operands)
    a = getattr(constructions, construction)(*operands) if construction else operands[0]
    return reductions.emptiness(a)


def answer_of(req: Request, result) -> Optional[bool]:
    """The verdict a result stands for (emptiness results carry an engine too)."""
    if req.op == "trace":
        a, word = req.inputs
        if result is None:
            return False
        return True if replays(a, word, result) else None
    if req.op == "emptiness":
        return result.is_empty
    return result


def check(req: Request, result) -> bool:
    return answer_of(req, result) is req.expected


def replays(a: Hra, word: Sequence[int], steps) -> bool:
    """Does `steps` spell out an accepting run of `a` over `word`?"""
    q, h = core.initial_config(a)
    consumed = []
    for s in steps:
        t = s.transition
        if t.src != q or t not in a.transitions:
            return False
        if s.letter is None:
            if not isinstance(t.label, Reset):
                return False
            h = h.reset_places(t.label.targets)
        else:
            if not isinstance(t.label, Accept) or h.placeset_of(s.letter) != t.label.pre:
                return False
            h = h.move_name(s.letter, t.label.post, a.m)
            consumed.append(s.letter)
        q = t.dst
        if (q, h) != s.config:
            return False
    return tuple(consumed) == tuple(word) and q in a.finals


def build(name: str, seed: int) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return {"member": build_member, "empty": build_empty, "cover": build_cover}[name](seed)


# ---------------------------------------------------------------------------
# member: membership and run extraction on pre-built closures


def _two_track_word(rng: random.Random, length: int, all_distinct: bool = False) -> tuple:
    half = length // 2
    if all_distinct:
        letters = rng.sample(range(1, 10_000), 2 * half)
        odd, even = letters[:half], letters[half:]
    else:
        odd, even = rng.sample(range(1, 400), half), rng.sample(range(1, 400), half)
    return tuple(x for pair in zip(odd, even) for x in pair)


def _blocks_word(rng: random.Random, length: int) -> tuple:
    """Anchored blocks of 1..8 letters in turn; only the names are drawn."""
    w: list[int] = []
    size = 0
    while len(w) < length:
        w += [0] + rng.sample(range(1, 50), size)
        size = (size + 1) % 8
    return tuple(w[:length])


def _anchored_word(rng: random.Random, length: int) -> tuple:
    return (0,) + tuple(rng.sample(range(1, 10_000), length - 1))


def _spoil(w: tuple) -> tuple:
    """Repeat, three quarters in, the letter two places back (same track of
    a two-track word); the oracle decides the verdict."""
    i = 3 * len(w) // 4
    return w[:i] + (w[i - 2],) + w[i + 1:]


def _in_two_tracks(w) -> bool:
    return oracle_membership(Lang.TWO_TRACKS_DISTINCT, w)


def _in_anchored_distinct(w) -> bool:
    return oracle_membership(Lang.ANCHORED_DISTINCT, w, anchor=0)


def _in_blocks(w) -> bool:
    return oracle_membership(Lang.ANCHORED_BLOCKS, w, anchor=0)


def _split(left: Callable, right: Callable, w) -> bool:
    return any(left(w[:k]) and right(w[k:]) for k in range(len(w) + 1))


# (case, automaton, word generator, oracle, where the oracle comes from)
def _long_word_cases():
    return [
        ("two_tracks_product", lambda: constructions.intersection(*alternating_pair_hras()),
         _two_track_word, _in_two_tracks, "oracle TWO_TRACKS_DISTINCT"),
        ("star_anchored_distinct", lambda: constructions.kleene_star(anchored_distinct_hra(0)),
         _blocks_word, _in_blocks, "oracle ANCHORED_BLOCKS(0), the star of ANCHORED_DISTINCT(0)"),
        ("concat_two_tracks_anchored",
         lambda: constructions.concatenation(two_tracks_hra(), anchored_distinct_hra(0)),
         lambda rng, n: _two_track_word(rng, n - 8) + _anchored_word(rng, 8),
         lambda w: _split(_in_two_tracks, _in_anchored_distinct, w),
         "split of oracles TWO_TRACKS_DISTINCT . ANCHORED_DISTINCT(0)"),
        ("three_way_product",
         lambda: constructions.intersection(
             constructions.intersection(*alternating_pair_hras()), all_distinct_hra()),
         lambda rng, n: _two_track_word(rng, n, all_distinct=True),
         lambda w: _in_two_tracks(w) and oracle_membership(Lang.ALL_DISTINCT, w),
         "oracles TWO_TRACKS_DISTINCT and ALL_DISTINCT"),
        ("union_two_tracks_blocks",
         lambda: constructions.union(two_tracks_hra(), anchored_blocks_hra(0)),
         lambda rng, n: _two_track_word(rng, n) if n % 32 == 0 else _blocks_word(rng, n),
         lambda w: _in_two_tracks(w) or _in_blocks(w),
         "oracles TWO_TRACKS_DISTINCT or ANCHORED_BLOCKS(0)"),
    ]


# Lengths and shapes are fixed and only the letters are drawn from the
# seed, so a round costs about the same whatever the seed.
LONG_WORD_LENGTHS = (32, 48, 64, 96, 112, 128)  # the last two are spoiled
# Name multiplicities of the not_all_twice words, at 14 letters or fewer.
# After a third occurrence of the witness name every name may move between
# both histories, so the frontier grows exponentially with the distinct
# names; the one word with a third occurrence has it as its last letter.
NOT_ALL_TWICE_SHAPES = ((2, 2, 2, 2, 2), (2, 2, 2, 2, 1, 1), (2, 2, 2, 2, 2, 2),
                        (2, 2, 2, 2, 2, 1, 1), (2, 2, 2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 1))
THIRD_OCCURRENCE_LAST = (False, False, False, False, False, True)
# operand pairs as in the closure acceptance test: random_hra(2p), random_hra(2p+1)
RANDOM_CONCAT_PAIRS = (1, 2, 3, 5)


def build_member(seed: int) -> Workload:
    """Long words keep frontiers small, so the work is step-bound; short
    words on nondeterministic automata make wide frontiers."""
    rng = random.Random(seed)
    reqs: list[Request] = []
    for case, make, gen, oracle, source in _long_word_cases():
        a = make()
        for k, length in enumerate(LONG_WORD_LENGTHS):
            w = gen(rng, length)
            if k >= 4:
                w = _spoil(w)
            expected = oracle(w)
            reqs.append(Request(case, "membership", (a, w), expected, source))
            if k in (0, 4):
                reqs.append(Request(case, "trace", (a, w), expected, source + "; run replayed"))

    nat = not_all_twice_hra()
    for counts, third_last in zip(NOT_ALL_TWICE_SHAPES, THIRD_OCCURRENCE_LAST):
        names = rng.sample(range(100), len(counts))
        w = [x for x, c in zip(names, counts) for _ in range(c)]
        rng.shuffle(w)
        w = tuple(w) + ((names[0],) if third_last else ())
        reqs.append(Request("not_all_twice", "membership", (nat, w),
                            oracle_membership(Lang.NOT_ALL_TWICE, w), "oracle NOT_ALL_TWICE"))

    for pair in RANDOM_CONCAT_PAIRS:
        left = random_hra(2 * pair, max_m=1, max_n=1, max_states=3)
        right = random_hra(2 * pair + 1, max_m=1, max_n=1, max_states=3)
        a = constructions.concatenation(left, right)
        for length in (4, 6, 8):
            w = tuple(rng.randrange(4) for _ in range(length))
            expected = _split(lambda u: core.membership(left, u),
                              lambda u: core.membership(right, u), w)
            reqs.append(Request(f"random_concat_{pair}", "membership", (a, w), expected,
                                "split of operand memberships"))
    return Workload("member", seed, tuple(reqs), trace_rounds=8)


# ---------------------------------------------------------------------------
# empty: text -> parse -> optional construction -> emptiness


def _bounded_evidence(a: Hra) -> tuple[Optional[bool], str]:
    """(is_empty, note) from the bounded prober, or (None, reason) when it
    gives no verdict."""
    probe = bounded_emptiness(a, 8)
    if probe.kind == "nonempty":
        if not core.membership(a, probe.witness):
            raise AssertionError(f"bounded witness {probe.witness} rejected by membership")
        return False, f"witness {list(probe.witness)} accepted by membership"
    if probe.kind == "empty_within_bound":
        return True, "bounded_emptiness exhausted the reachable orbits"
    return None, "bounded_emptiness ran out of bound"


def _texts(*automata: Hra) -> tuple[str, ...]:
    names = cli.NameTable()  # shared, so initial names stay distinct across operands
    return tuple(cli.print_hra(a, names) for a in automata)


AB0, AB1 = (lambda: anchored_blocks_hra(0)), (lambda: anchored_blocks_hra(1))
AD0, AD1 = (lambda: anchored_distinct_hra(0)), (lambda: anchored_distinct_hra(1))
TT, GC = two_tracks_hra, generate_then_consume_hra
ANCHOR_CLASH = "anchors 0 and 1 cannot both open a word, and one side has no empty word"


def _pair():
    return constructions.intersection(*alternating_pair_hras())


def _inter(*parts: Callable[[], Hra]) -> Callable[[], Hra]:
    def make():
        out = parts[0]()
        for p in parts[1:]:
            out = constructions.intersection(out, p())
        return out
    return make


# (case, construction, operand builders, note on the verdict).  The cases
# fall in three cost bands: cheap ones below a millisecond, a middle band
# of 0.8-1.6 ms, and dearer ones from 2 ms up, with as many cases below the
# middle band (the random automata included) as above it.  The median then
# lies inside the middle band whatever the seed draws.
EMPTINESS_CASES = [
    ("distinct0_and_distinct1", "intersection", [AD0, AD1], ANCHOR_CLASH),
    ("star_distinct0", "kleene_star", [AD0], ""),
    ("two_tracks_and_all_distinct", "intersection", [TT, all_distinct_hra], ""),
    ("distinct0_distinct1_two_tracks", "intersection", [_inter(AD0, AD1), TT], ANCHOR_CLASH),
    ("star_of_product", "kleene_star", [_pair], ""),
    # middle band
    ("distinct0_then_distinct1", "concatenation", [AD0, AD1], ""),
    ("all_distinct_or_two_tracks", "union", [all_distinct_hra, TT], ""),
    ("all_distinct_then_distinct0", "concatenation", [all_distinct_hra, AD0], ""),
    ("star_blocks0", "kleene_star", [AB0], ""),
    ("two_tracks_and_generate_consume", "intersection", [TT, GC], ""),
    ("generate_consume_or_two_tracks", "union", [GC, TT], ""),
    ("distinct0_then_two_tracks", "concatenation", [AD0, TT], ""),
    # dearer
    ("two_tracks_then_distinct0", "concatenation", [TT, AD0], ""),
    ("no_repeat_and_two_tracks", "intersection", [no_immediate_repeat_history_hra, TT], ""),
    ("blocks0_and_generate_consume", "intersection", [AB0, GC], ""),
    ("two_tracks_or_blocks0", "union", [TT, AB0], ""),
    ("blocks0_and_distinct0", "intersection", [AB0, AD0], ""),
    ("blocks0_and_distinct1", "intersection", [AB0, AD1], ANCHOR_CLASH),
    ("distinct0_or_distinct1", "union", [AD0, AD1], ""),
    ("distinct0_or_blocks0", "union", [AD0, AB0], ""),
    ("blocks1_distinct0_generate_consume", "intersection", [_inter(AB1, AD0), GC], ANCHOR_CLASH),
    # the tail routed to the trvass engine
    ("blocks0_two_tracks_generate_consume", "intersection", [_inter(AB0, TT), GC], ""),
    ("blocks0_distinct1_two_tracks", "intersection", [_inter(AB0, AD1), TT], ANCHOR_CLASH),
]

# (case, left, right, left oracle, right oracle, counterexample or None, note)
CONTAINMENT_CASES = [
    ("distinct0_in_blocks0", AD0, AB0,
     lambda w: oracle_membership(Lang.ANCHORED_DISTINCT, w, anchor=0),
     lambda w: oracle_membership(Lang.ANCHORED_BLOCKS, w, anchor=0),
     None, "an anchored-distinct word is a single anchored block"),
    ("distinct0_in_distinct1", AD0, AD1,
     lambda w: oracle_membership(Lang.ANCHORED_DISTINCT, w, anchor=0),
     lambda w: oracle_membership(Lang.ANCHORED_DISTINCT, w, anchor=1),
     (0,), ""),
    ("two_tracks_in_all_distinct", TT, all_distinct_hra,
     lambda w: oracle_membership(Lang.TWO_TRACKS_DISTINCT, w),
     lambda w: oracle_membership(Lang.ALL_DISTINCT, w),
     (0, 0), ""),
    ("two_step_in_all_distinct", two_step_distinct_hra, all_distinct_hra,
     lambda w: len(w) <= 2 and oracle_membership(Lang.ALL_DISTINCT, w),
     lambda w: oracle_membership(Lang.ALL_DISTINCT, w),
     None, "distinct words of length at most two are distinct words"),
]

RANDOM_SUBCLASSES = (None, "non_reset", "unary", "restricted", "colouring")


def build_empty(seed: int) -> Workload:
    rng = random.Random(seed)
    reqs: list[Request] = []
    skipped = 0
    for subclass in RANDOM_SUBCLASSES:
        kept = 0
        while kept < 2:
            a = random_hra(rng.randrange(10**6), subclass=subclass)
            verdict, note = _bounded_evidence(a)
            if verdict is None:
                skipped += 1
                continue
            kept += 1
            reqs.append(Request(f"random_{subclass or 'any'}", "emptiness",
                                (None, _texts(a)), verdict, note))

    for case, construction, parts, definition in EMPTINESS_CASES:
        operands = [p() for p in parts]
        built = getattr(constructions, construction)(*operands)
        verdict, note = _bounded_evidence(built)
        if verdict is None:
            raise AssertionError(f"{case}: no independent verdict ({note})")
        if definition:
            note += "; " + definition
        reqs.append(Request(case, "emptiness", (construction, _texts(*operands)), verdict, note))

    short_words = [w for k in range(5) for w in product(range(3), repeat=k)]
    for case, left, right, in_left, in_right, counterexample, definition in CONTAINMENT_CASES:
        gaps = [w for w in short_words if in_left(w) and not in_right(w)]
        if counterexample is None:
            if gaps:
                raise AssertionError(f"{case}: oracles disagree with the definition on {gaps[0]}")
            expected = True
            note = f"{definition}; oracles agree on all {len(short_words)} words of <= 4 letters"
        else:
            if counterexample not in gaps:
                raise AssertionError(f"{case}: {counterexample} is not a counterexample")
            expected = False
            note = f"oracles: {list(counterexample)} is in the left language only"
        reqs.append(Request(case, "containment", (None, _texts(left(), right())), expected, note))
    return Workload("empty", seed, tuple(reqs), trace_rounds=1, skipped=skipped)


# ---------------------------------------------------------------------------
# cover: backward coverability on machines the reductions produce


# (case, automaton builder, note on the verdict)
COVER_CASES = [
    ("blocks0_and_blocks0", _inter(AB0, AB0), ""),
    ("blocks0_and_distinct0", _inter(AB0, AD0), ""),
    ("blocks0_and_two_tracks", _inter(AB0, TT), ""),
    ("blocks0_two_tracks_generate_consume", _inter(AB0, TT, GC), ""),
    ("star_distinct0", lambda: constructions.kleene_star(AD0()), ""),
    ("two_tracks_or_blocks0", lambda: constructions.union(TT(), AB0()), ""),
    ("distinct0_then_distinct1", lambda: constructions.concatenation(AD0(), AD1()), ""),
    ("star_distinct0_and_distinct0", lambda: constructions.intersection(
        constructions.kleene_star(AD0()), AD0()), ""),
    ("blocks0_and_generate_consume", _inter(AB0, GC), ""),
    ("star_distinct0_and_distinct1", lambda: constructions.intersection(
        constructions.kleene_star(AD0()), AD1()), ANCHOR_CLASH),
    ("blocks0_and_distinct1", _inter(AB0, AD1), ANCHOR_CLASH),
    ("blocks0_distinct1_two_tracks", _inter(AB0, AD1, TT), ANCHOR_CLASH),
    ("distinct0_and_distinct1", _inter(AD0, AD1), ANCHOR_CLASH),
    ("blocks1_distinct0_generate_consume", _inter(AB1, AD0, GC), ANCHOR_CLASH),
    ("distinct0_distinct1_two_tracks", _inter(AD0, AD1, TT), ANCHOR_CLASH),
]

RANDOM_MACHINES = 8


def _replays_counter_path(mc: CounterMachine, path) -> bool:
    return all(b in counters.counter_step(mc, a) for a, b in zip(path, path[1:]))


def build_cover(seed: int) -> Workload:
    rng = random.Random(seed)
    reqs: list[Request] = []
    for case, make, definition in COVER_CASES:
        a = make()
        empty, note = _bounded_evidence(a)
        if empty is None:
            raise AssertionError(f"{case}: no independent verdict ({note})")
        if definition:
            note += "; " + definition
        red = reductions.hra_to_trvass(constructions.registers_to_histories(a))
        reqs.append(Request(case, "cover", (red.machine, red.init, red.target), not empty,
                            "source automaton: " + note))

    skipped = kept = 0
    while kept < RANDOM_MACHINES:
        dims = rng.randint(3, 6)
        mc = random_counter_machine(rng.randrange(10**6), dims=dims, max_states=6,
                                    max_transitions=24, klass="trvass")
        states = sorted(mc.states)
        init = (states[0], tuple(rng.randint(0, 2) for _ in range(dims)))
        probe = counters.forward_witness_search(mc, init, states[-1],
                                                step_budget=20_000, counter_cap=16)
        if probe.kind == "reachable":
            if not _replays_counter_path(mc, probe.path):
                raise AssertionError("forward witness path does not replay")
            expected, note = True, f"forward path of {len(probe.path) - 1} steps replayed"
        elif probe.kind == "not_reachable_within_bounds":
            expected, note = False, "forward search exhausted the space without clipping"
        else:
            skipped += 1
            continue
        kept += 1
        reqs.append(Request(f"random_trvass_{dims}d", "cover", (mc, init, states[-1]),
                            expected, note))
    return Workload("cover", seed, tuple(reqs), trace_rounds=1, skipped=skipped)
