"""Reference implementations the test-suite trusts.

The language predicates here are written straight from the word-level
definitions, with no automata involved, so they can serve as independent
ground truth for the machinery in the rest of the library.  The bounded
engines (emptiness, bisimulation, determinism) only use the one-step
semantics from `core`, never the constructions under test.  On one counter,
`one_counter_coverable` decides coverability exactly with its own fixpoint.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterator, Optional, Sequence

from .core import (
    Accept,
    Assignment,
    Configuration,
    Hra,
    Name,
    Reset,
    Word,
    eps_closure,
    initial_config,
    make_hra,
    step,
)
from .counters import Add, CounterConfig, CounterMachine, ResetDim, Transfer, _check_init
from .errors import WrongDimension


# ---------------------------------------------------------------------------
# word-level language predicates


class Lang(Enum):
    ALL_DISTINCT = "all_distinct"
    ANCHORED_BLOCKS = "anchored_blocks"
    TWO_TRACKS_DISTINCT = "two_tracks_distinct"
    ODD_TRACK_DISTINCT = "odd_track_distinct"
    EVEN_TRACK_DISTINCT = "even_track_distinct"
    GENERATE_CONSUME = "generate_consume"
    NOT_ALL_TWICE = "not_all_twice"
    ALL_EXACTLY_TWICE = "all_exactly_twice"
    NO_IMMEDIATE_REPEAT = "no_immediate_repeat"
    ANCHORED_DISTINCT = "anchored_distinct"


def _all_distinct(w: Sequence[Name]) -> bool:
    return len(set(w)) == len(w)


def oracle_membership(lang: Lang, word: Sequence[Name], anchor: Name = 0) -> bool:
    w = tuple(word)
    if lang is Lang.ALL_DISTINCT:
        return _all_distinct(w)
    if lang is Lang.ANCHORED_DISTINCT:
        return bool(w) and w[0] == anchor and _all_distinct(w)
    if lang is Lang.ANCHORED_BLOCKS:
        # concatenations of anchored-distinct blocks; the anchor cannot recur
        # inside a block, so blocks start exactly at anchor positions
        if not w:
            return True
        if w[0] != anchor:
            return False
        starts = [i for i, x in enumerate(w) if x == anchor] + [len(w)]
        return all(_all_distinct(w[i:j]) for i, j in zip(starts, starts[1:]))
    if lang is Lang.TWO_TRACKS_DISTINCT:
        return len(w) % 2 == 0 and _all_distinct(w[0::2]) and _all_distinct(w[1::2])
    if lang is Lang.ODD_TRACK_DISTINCT:
        return len(w) % 2 == 0 and _all_distinct(w[0::2])
    if lang is Lang.EVEN_TRACK_DISTINCT:
        return len(w) % 2 == 0 and _all_distinct(w[1::2])
    if lang is Lang.GENERATE_CONSUME:
        return any(
            _all_distinct(w[:k]) and _all_distinct(w[k:]) and set(w[k:]) <= set(w[:k])
            for k in range(len(w) + 1)
        )
    if lang is Lang.NOT_ALL_TWICE:
        return bool(w) and any(c != 2 for c in Counter(w).values())
    if lang is Lang.ALL_EXACTLY_TWICE:
        return all(c == 2 for c in Counter(w).values())
    if lang is Lang.NO_IMMEDIATE_REPEAT:
        return all(x != y for x, y in zip(w, w[1:]))
    raise ValueError(f"unknown language {lang!r}")


def enumerate_words(alphabet: Sequence[Name], max_len: int) -> Iterator[Word]:
    """All words over `alphabet` up to length `max_len`, shortest first."""
    for k in range(max_len + 1):
        yield from product(alphabet, repeat=k)


# ---------------------------------------------------------------------------
# bounded emptiness by explicit search


@dataclass(frozen=True)
class EmptinessProbe:
    kind: str  # "nonempty" | "empty_within_bound" | "bound_exhausted"
    witness: Optional[Word] = None


def _orbit_key(q, h: Assignment):
    # configurations that differ only by a renaming share this key
    groups = Counter(h.placeset_of(a) for a in h.names())
    return (q, tuple(sorted((tuple(sorted(ps)), c) for ps, c in groups.items())))


def bounded_emptiness(a: Hra, max_letters: int = 8) -> EmptinessProbe:
    """Breadth-first word search up to `max_letters`.

    Explores one configuration per renaming orbit: names sharing a place-set
    are interchangeable, and any fresh letter is as good as the least unused
    one, so the quotient search is exhaustive.  A verdict of
    empty_within_bound means the whole (quotient) reachable space was seen.

    The search runs on `a._numbered`: states are ints there, so every set
    iterates in the same order in every process and the witness does not
    depend on the hash seed.
    """
    a = a._numbered
    layer = eps_closure(a, [initial_config(a)])
    seen = {_orbit_key(q, h) for q, h in layer}
    words: dict = {c: () for c in layer}
    for _ in range(max_letters + 1):
        hit = next((c for c in layer if c[0] in a.finals), None)
        if hit is not None:
            return EmptinessProbe("nonempty", words[hit])
        nxt: dict = {}
        for q, h in layer:
            letters = {h.fresh_name()}
            for t in a._outgoing.get(q, ()):
                if isinstance(t.label, Accept) and t.label.pre:
                    pool = h.at(t.label.pre)
                    if pool:
                        letters.add(min(pool))
            for letter in sorted(letters):
                for c2 in step(a, [(q, h)], letter):
                    for c3 in eps_closure(a, [c2]):
                        key = _orbit_key(*c3)
                        if key not in seen:
                            seen.add(key)
                            nxt[c3] = words[(q, h)] + (letter,)
        if not nxt:
            return EmptinessProbe("empty_within_bound")
        layer = frozenset(nxt)
        words = nxt
    return EmptinessProbe("bound_exhausted")


# ---------------------------------------------------------------------------
# silent-then-letter moves: bounded bisimulation and determinism


def moves(a: Hra, c: Configuration, letter: Name) -> set[Configuration]:
    """Every configuration reached from `c` by resets and then `letter`,
    as a new set."""
    return step(a, eps_closure(a, [c]), letter)


def bounded_bisimulation(a1: Hra, a2: Hra, depth: int) -> bool:
    """Play the mutual-step game for `depth` rounds from the initial
    configurations.

    A round: both sides must agree on silent-reachable finality, and every
    silent-then-letter move of one machine must be answered by the other.
    Letters range over the names held by either current configuration plus
    one canonical fresh name: any other letter is fresh for both sides and
    behaves identically to the canonical one up to renaming.
    """
    memo: dict = {}  # recursion lowers the depth in the key, so no key is re-entered

    def can_final(a: Hra, c: Configuration) -> bool:
        return any(q in a.finals for q, _ in eps_closure(a, [c]))

    def related(c1: Configuration, c2: Configuration, d: int) -> bool:
        key = (c1, c2, d)
        if key in memo:
            return memo[key]
        ok = can_final(a1, c1) == can_final(a2, c2)
        if ok and d > 0:
            present = c1[1].names() | c2[1].names()
            fresh = 0
            while fresh in present:
                fresh += 1
            for letter in sorted(present) + [fresh]:
                s1, s2 = moves(a1, c1, letter), moves(a2, c2, letter)
                if not all(any(related(x, y, d - 1) for y in s2) for x in s1):
                    ok = False
                    break
                if not all(any(related(x, y, d - 1) for x in s1) for y in s2):
                    ok = False
                    break
        memo[key] = ok
        return ok

    return related(initial_config(a1), initial_config(a2), depth)


def bounded_determinism_check(
    a: Hra, depth: int
) -> tuple[bool, Optional[tuple[Configuration, Name, tuple[Configuration, ...]]]]:
    """Search configurations reachable within `depth` letters for a state,
    letter pair admitting two distinct silent-then-letter successors.

    Names are drawn from the initial assignment plus `depth` canonical fresh
    ones, which suffices up to renaming.
    """
    base = sorted(a.initial_assignment.names())
    fresh, k = [], 0
    while len(fresh) < depth:
        if k not in a.initial_assignment.names():
            fresh.append(k)
        k += 1
    supply = base + fresh

    seen = set()
    work = deque([(initial_config(a), 0)])
    while work:
        c, used = work.popleft()
        if c in seen:
            continue
        seen.add(c)
        for letter in supply:
            succs = moves(a, c, letter)
            if len(succs) > 1:
                return False, (c, letter, tuple(sorted(succs, key=repr)))
            if used < depth:
                for s in succs:
                    if s not in seen:
                        work.append((s, used + 1))
        # silent successors are reachable configurations in their own right
        for c2 in eps_closure(a, [c]):
            if c2 not in seen:
                work.append((c2, used))
    return True, None


# ---------------------------------------------------------------------------
# coverability on one counter


def one_counter_coverable(mc: CounterMachine, init: CounterConfig, target_state) -> bool:
    """Exact coverability on one counter, without `pre_basis` or `UpSet`.
    Every upward-closed set of ℕ is a ray, so the target is covered from
    (q, v) exactly when v ≥ need[q].  From need[target] = 0, each edge
    lowers need at its source until nothing changes; values only fall in
    ℕ, so the loop stops."""
    if mc.dims != 1:
        raise WrongDimension(f"expected one counter, got {mc.dims}")
    _check_init(mc, init)
    need = {target_state: 0}
    changed = True
    while changed:
        changed = False
        for t in mc.transitions:
            if t.dst not in need:
                continue
            pre, post = (dict(units).get(1, 0) for units in (t.effect.pre, t.effect.post))
            reset = (1, 0) in t.effect.dest  # the counter is zeroed before `post`
            if reset and post < need[t.dst]:
                continue
            n = pre if reset else pre + max(need[t.dst] - post, 0)
            if n < need.get(t.src, n + 1):
                need[t.src], changed = n, True
    q0, (v0,) = init
    return q0 in need and v0 >= need[q0]


# ---------------------------------------------------------------------------
# seeded generators


_NAME_POOL = (0, 1, 2)  # the names a drawn automaton's initial assignment uses


def random_hra(
    seed: int,
    *,
    max_m: int = 2,
    max_n: int = 1,
    max_states: int = 4,
    max_transitions: int = 6,
    subclass: Optional[str] = None,
) -> Hra:
    """A structurally valid automaton drawn deterministically from `seed`.

    `subclass` constrains the draw: "non_reset", "unary", "restricted"
    (resets touch either no history or all of them), or "colouring"
    (non-reset, registers start empty, at most one register per label side).
    """
    rng = random.Random(seed)
    m = rng.randint(0, max_m)
    n = rng.randint(0, max_n)
    if subclass == "unary":
        m = 1
    if m + n == 0:
        m = 1
    nstates = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(nstates)]
    places = list(range(1, m + n + 1))
    histories = list(range(1, m + 1))
    registers = list(range(m + 1, m + n + 1))

    def rand_subset(pool, cap=None):
        k = rng.randint(0, len(pool) if cap is None else min(cap, len(pool)))
        return frozenset(rng.sample(pool, k))

    transitions = []
    for _ in range(rng.randint(1, max_transitions)):
        src, dst = rng.choice(states), rng.choice(states)
        use_reset = subclass not in ("non_reset", "colouring") and rng.random() < 0.25
        if use_reset:
            if subclass == "restricted":
                targets = rand_subset(registers) | (
                    frozenset(histories) if rng.random() < 0.5 else frozenset()
                )
            else:
                targets = rand_subset(places)
            transitions.append((src, Reset(targets), dst))
        else:
            if subclass == "colouring":
                pre = rand_subset(histories) | rand_subset(registers, cap=1)
                post = rand_subset(histories) | rand_subset(registers, cap=1)
            else:
                pre = rand_subset(places)
                post = rand_subset(places)
            transitions.append((src, Accept(pre, post), dst))

    contents: dict[int, list[Name]] = {}
    for i in histories:
        picks = rand_subset(_NAME_POOL)
        if picks:
            contents[i] = sorted(picks)
    if subclass != "colouring":
        for i in registers:
            if rng.random() < 0.5:
                contents[i] = [rng.choice(_NAME_POOL)]
    finals = [q for q in states if rng.random() < 0.5]
    return make_hra(m, n, states, states[0], transitions, finals, contents)


def random_counter_machine(
    seed: int,
    *,
    dims: int = 2,
    max_states: int = 4,
    max_transitions: int = 6,
    klass: str = "trvass",
    unit_effects: bool = False,
    deterministic: bool = False,
) -> CounterMachine:
    """A seeded counter machine of the requested class.

    With deterministic=True (and unit effects), each state either owns a
    single increment edge or a family of decrement/reset edges with pairwise
    distinct effects -- one target per effect.
    """
    rng = random.Random(seed)
    nstates = rng.randint(2, max_states)
    states = [f"c{i}" for i in range(nstates)]

    def rand_add():
        if unit_effects:
            v = [0] * dims
            v[rng.randrange(dims)] = rng.choice([-1, 1])
            return Add(tuple(v))
        return Add(tuple(rng.choice([-1, 0, 1]) for _ in range(dims)))

    transitions = []
    if deterministic:
        for q in states:
            if rng.random() < 0.4:
                v = [0] * dims
                v[rng.randrange(dims)] = 1
                transitions.append((q, Add(tuple(v)), rng.choice(states)))
            else:
                effects: list = []
                for i in range(1, dims + 1):
                    if rng.random() < 0.4:
                        v = [0] * dims
                        v[i - 1] = -1
                        effects.append(Add(tuple(v)))
                    if klass != "vass" and rng.random() < 0.3:
                        effects.append(ResetDim(i))
                for eff in effects:
                    transitions.append((q, eff, rng.choice(states)))
    else:
        for _ in range(rng.randint(1, max_transitions)):
            src, dst = rng.choice(states), rng.choice(states)
            roll = rng.random()
            if klass == "trvass" and roll < 0.2 and dims >= 2:
                i = rng.randrange(1, dims + 1)
                j = rng.randrange(1, dims + 1)
                while j == i:
                    j = rng.randrange(1, dims + 1)
                transitions.append((src, Transfer(i, j), dst))
            elif klass in ("trvass", "rvass") and roll < 0.4:
                transitions.append((src, ResetDim(rng.randrange(1, dims + 1)), dst))
            else:
                transitions.append((src, rand_add(), dst))
    return CounterMachine.make(dims, states, transitions)
