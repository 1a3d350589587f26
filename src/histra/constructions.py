"""Closure constructions and normal forms.

Everything here is a pure function from automata to automata.  Constructed
states are `StateTag` values so the provenance of a state (product pair,
tracking function, sink, ...) stays inspectable; a translation that spells
one step as two tags the state between them "mid".  The constructions that
pair or annotate states (intersection, name fixing, register doubling)
build only the pairs `core.explore` reaches from the initial one.

A construction makes one `StateTag` per state it creates, kept in a dict,
and every transition endpoint, initial state or final naming that state is
that very object.  A dict or set lookup of a state then stops at identity
instead of comparing nested payloads; equal states built separately are
still equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import (
    Accept,
    Assignment,
    Hra,
    Label,
    Name,
    Reset,
    State,
    Transition,
    _outgoing,
    by_src,
    explore,
    reset_summaries,
    subsets,
)
from .errors import DuplicateFixName, NotDeterministic, RegistersPresent


@dataclass(frozen=True)
class StateTag:
    """Constructed-state annotation; `payload` is construction-specific.

    Tags nest (a "copies" tag of a product pair, a "mid" tag holding a
    whole transition), so the hash of `(kind, payload)` is computed on
    first use and kept.  The kept value is not a field: `==` and `repr`
    ignore it, and it is left out of the pickled state, so an unpickled
    tag rehashes under its own process's hash seed."""

    kind: str
    payload: tuple
    _hash = None  # not a field: no annotation

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.kind, self.payload))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        return {"kind": self.kind, "payload": self.payload}

    def __repr__(self) -> str:
        inner = ",".join(repr(p) for p in self.payload)
        return f"<{self.kind}:{inner}>"


# ---------------------------------------------------------------------------
# place plumbing


def _remap_set(s: frozenset[int], mp: dict[int, int]) -> frozenset[int]:
    return frozenset(mp[i] for i in s)


def _remap_label(lab: Label, mp: dict[int, int]) -> Label:
    if isinstance(lab, Reset):
        return Reset(_remap_set(lab.targets, mp))
    return Accept(_remap_set(lab.pre, mp), _remap_set(lab.post, mp))


def pad_type(a: Hra, m: int, n: int) -> Hra:
    """Embed `a` into type (m, n) by adding unused places.

    Histories keep their indices; registers shift up to the new band.
    Unused places never occur in labels, so the language is unchanged.
    """
    if m < a.m or n < a.n:
        raise ValueError(f"cannot pad ({a.m},{a.n}) down to ({m},{n})")
    if (m, n) == (a.m, a.n):
        return a
    mp = {i: i for i in range(1, a.m + 1)}
    mp.update({a.m + j: m + j for j in range(1, a.n + 1)})
    contents = {}
    for i in range(1, a.m + a.n + 1):
        if a.initial_assignment.place(i):
            contents[mp[i]] = a.initial_assignment.place(i)
    return Hra(
        m=m,
        n=n,
        states=a.states,
        initial=a.initial,
        initial_assignment=Assignment.of(m + n, contents),
        transitions=frozenset(
            Transition(t.src, _remap_label(t.label, mp), t.dst) for t in a.transitions
        ),
        finals=a.finals,
    )


def _band_maps(a1: Hra, a2: Hra) -> tuple[dict[int, int], dict[int, int], int, int]:
    """Disjoint reindexing for two-automaton constructions: histories of a1,
    then of a2, then registers of a1, then of a2."""
    m, n = a1.m + a2.m, a1.n + a2.n
    mp1 = {i: i for i in range(1, a1.m + 1)}
    mp1.update({a1.m + j: m + j for j in range(1, a1.n + 1)})
    mp2 = {i: a1.m + i for i in range(1, a2.m + 1)}
    mp2.update({a2.m + j: m + a1.n + j for j in range(1, a2.n + 1)})
    return mp1, mp2, m, n


def _merge_contents(a1: Hra, a2: Hra, mp1, mp2) -> dict[int, frozenset[Name]]:
    contents: dict[int, frozenset[Name]] = {}
    for src, mp in ((a1, mp1), (a2, mp2)):
        for i in range(1, src.m + src.n + 1):
            names = src.initial_assignment.place(i)
            if names:
                contents[mp[i]] = names
    return contents


# ---------------------------------------------------------------------------
# union and intersection


def union(a1: Hra, a2: Hra) -> Hra:
    """Accepts L(a1) ∪ L(a2).

    Both automata live in disjoint place bands of a joint assignment; a
    fresh start reaches either original start by silently clearing the
    other band first, so each side runs against exactly its own initial
    names.
    """
    mp1, mp2, m, n = _band_maps(a1, a2)
    t1 = {s: StateTag("left", (s,)) for s in a1.states}
    t2 = {s: StateTag("right", (s,)) for s in a2.states}
    start = StateTag("start", ())
    band1 = frozenset(mp1.values())
    band2 = frozenset(mp2.values())
    transitions = [
        Transition(t1[t.src], _remap_label(t.label, mp1), t1[t.dst]) for t in a1.transitions
    ] + [
        Transition(t2[t.src], _remap_label(t.label, mp2), t2[t.dst]) for t in a2.transitions
    ] + [
        Transition(start, Reset(band2), t1[a1.initial]),
        Transition(start, Reset(band1), t2[a2.initial]),
    ]
    return Hra(
        m=m,
        n=n,
        states=frozenset([start, *t1.values(), *t2.values()]),
        initial=start,
        initial_assignment=Assignment.of(m + n, _merge_contents(a1, a2, mp1, mp2)),
        transitions=frozenset(transitions),
        finals=frozenset([t1[s] for s in a1.finals] + [t2[s] for s in a2.finals]),
    )


def intersection(a1: Hra, a2: Hra) -> Hra:
    """Accepts L(a1) ∩ L(a2): a synchronous product over disjoint place
    bands -- letter transitions pair up, resets interleave silently.  Only
    the pairs `explore` reaches from the initial pair are built.

    The search follows a1's transitions from the first state p of a pair
    (p, q), with q as the annotation.  A reset of a2 leaves p put, so every
    p also gets a stand-still step p → p, labelled None, that carries the
    resets of a2 leaving q."""
    mp1, mp2, m, n = _band_maps(a1, a2)
    out1, out2 = _outgoing(a1), _outgoing(a2)
    adj = {p: [*out1.get(p, ()), Transition(p, None, p)] for p in a1.states}

    def moves(p, q, t):
        if t.label is None:
            return [(_remap_label(v.label, mp2), v.dst)
                    for v in out2.get(q, ()) if isinstance(v.label, Reset)]
        if isinstance(t.label, Reset):
            return [(_remap_label(t.label, mp1), q)]
        pre, post = _remap_set(t.label.pre, mp1), _remap_set(t.label.post, mp1)
        return [
            (Accept(pre | _remap_set(v.label.pre, mp2),
                    post | _remap_set(v.label.post, mp2)), v.dst)
            for v in out2.get(q, ()) if isinstance(v.label, Accept)
        ]

    start = (a1.initial, a2.initial)
    reached, edges = explore(adj, start, moves)
    pair = {pq: StateTag("pair", pq) for pq in reached}
    return Hra(
        m=m,
        n=n,
        states=frozenset(pair.values()),
        initial=pair[start],
        initial_assignment=Assignment.of(m + n, _merge_contents(a1, a2, mp1, mp2)),
        transitions=frozenset(Transition(pair[s], lab, pair[d]) for s, lab, d in edges),
        finals=frozenset(pair[p, q] for p, q in reached if p in a1.finals and q in a2.finals),
    )


# ---------------------------------------------------------------------------
# the fix construction


def fix_names(a: Hra, w: Sequence[Name]) -> Hra:
    """Pin the names of `w` into k fresh registers that never change.

    The result simulates `a` exactly, with each state carrying the intended
    place-set of every pinned name (None of them actually sits in the old
    places).  Language is preserved.
    """
    w = tuple(w)
    if len(set(w)) != len(w):
        raise DuplicateFixName(f"fix names must be pairwise distinct, got {w!r}")
    m, n, k = a.m, a.n, len(w)
    size = m + n
    h0 = a.initial_assignment
    f0 = tuple(h0.placeset_of(x) for x in w)
    tag = lambda q, f: StateTag("fix", (q, f))
    overwritten = lambda post: frozenset(i for i in post if i > m)

    def moves(q, f, t):
        if isinstance(t.label, Reset):
            return [(t.label, tuple(fj - t.label.targets for fj in f))]
        wiped = overwritten(t.label.post)
        out = [(t.label, tuple(fj - wiped for fj in f))]
        for j in range(k):
            if f[j] == t.label.pre:
                pinned = frozenset({size + 1 + j})
                f_move = tuple(t.label.post if l == j else f[l] - wiped for l in range(k))
                out.append((Accept(pinned, pinned), f_move))
        return out

    reached, edges = explore(_outgoing(a), (a.initial, f0), moves)
    tags = {p: tag(*p) for p in reached}

    contents: dict[int, Iterable[Name]] = {}
    for i in range(1, size + 1):
        kept = h0.place(i) - set(w)
        if kept:
            contents[i] = kept
    for j, x in enumerate(w):
        contents[size + 1 + j] = [x]
    return Hra(
        m=m,
        n=n + k,
        states=frozenset(tags.values()),
        initial=tags[a.initial, f0],
        initial_assignment=Assignment.of(size + k, contents),
        transitions=frozenset(Transition(tags[p], lab, tags[d]) for p, lab, d in edges),
        finals=frozenset(tags[p] for p in reached if p[0] in a.finals),
    )


# ---------------------------------------------------------------------------
# concatenation and star


def _enlist_initial_names(a: Hra) -> tuple[Name, ...]:
    return tuple(sorted(a.initial_assignment.names()))


def concatenation(a1: Hra, a2: Hra) -> Hra:
    """Accepts L(a1)·L(a2): both sides are fixed over a2's initial names,
    then finals of the first are bridged to the second's start by a silent
    full reset of the shared original places."""
    m, n = max(a1.m, a2.m), max(a1.n, a2.n)
    p1, p2 = pad_type(a1, m, n), pad_type(a2, m, n)
    w = _enlist_initial_names(p2)
    f1, f2 = fix_names(p1, w), fix_names(p2, w)
    left = {s: StateTag("left", (s,)) for s in f1.states}
    right = {s: StateTag("right", (s,)) for s in f2.states}
    old_places = frozenset(range(1, m + n + 1))
    transitions = [
        Transition(left[t.src], t.label, left[t.dst]) for t in f1.transitions
    ] + [
        Transition(right[t.src], t.label, right[t.dst]) for t in f2.transitions
    ] + [
        Transition(left[qf], Reset(old_places), right[f2.initial]) for qf in f1.finals
    ]
    return Hra(
        m=f1.m,
        n=f1.n,
        states=frozenset([*left.values(), *right.values()]),
        initial=left[f1.initial],
        initial_assignment=f1.initial_assignment,
        transitions=frozenset(transitions),
        finals=frozenset(right[s] for s in f2.finals),
    )


def kleene_star(a: Hra) -> Hra:
    """Accepts L(a)*.

    The machine is fixed over its own initial names so a silent full reset
    of the original places restores the initial assignment exactly; a fresh
    final start (accepting ε) borrows the fixed start's out-transitions.
    """
    w = _enlist_initial_names(a)
    f = fix_names(a, w)
    qs = StateTag("star", ())
    old_places = frozenset(range(1, a.m + a.n + 1))
    transitions = list(f.transitions)
    transitions += [
        Transition(qs, t.label, t.dst) for t in f.transitions if t.src == f.initial
    ]
    transitions += [Transition(qf, Reset(old_places), qs) for qf in f.finals]
    return Hra(
        m=f.m,
        n=f.n,
        states=f.states | {qs},
        initial=qs,
        initial_assignment=f.initial_assignment,
        transitions=frozenset(transitions),
        finals=f.finals | {qs},
    )


# ---------------------------------------------------------------------------
# register elimination (doubling construction)


def registers_to_histories(a: Hra) -> Hra:
    """Re-express an (m,n) automaton as an (m+2n,0) one.

    Every register gets two history copies; a per-state selector says which
    copy is live.  Each letter transition first silently clears the dead
    copies, then fires the relocated label through a hidden midpoint,
    flipping the copies it touched.  The result is bisimilar to the source.
    """
    if a.n == 0:
        return a
    m, n = a.m, a.n
    size = m + 2 * n
    copy_places = frozenset(range(m + 1, size + 1))

    def fd(x: frozenset[int], f: tuple[int, ...]) -> frozenset[int]:
        return frozenset(i if i <= m else f[i - m - 1] for i in x)

    def flip(f: tuple[int, ...], j: int) -> int:
        return m + n + (j + 1) if f[j] == m + (j + 1) else m + (j + 1)

    f0 = tuple(m + j for j in range(1, n + 1))
    tag = lambda q, f: StateTag("copies", (q, f))

    def moves(q, f, t):
        if isinstance(t.label, Reset):
            return [((Reset(fd(t.label.targets, f)), None, None), f)]
        fbar = tuple(
            flip(f, j) if (m + j + 1) in (t.label.pre | t.label.post) else f[j]
            for j in range(n)
        )
        letter = Accept(fd(t.label.pre, f), fd(t.label.post, fbar))
        return [((Reset(copy_places - frozenset(f)), StateTag("mid", (q, f, t)), letter), fbar)]

    reached, edges = explore(_outgoing(a), (a.initial, f0), moves)
    tags = {p: tag(*p) for p in reached}
    states = set(tags.values())
    transitions: list[Transition] = []
    for p, (reset, mid, letter), d in edges:
        if mid is None:
            transitions.append(Transition(tags[p], reset, tags[d]))
        else:
            states.add(mid)
            transitions += [Transition(tags[p], reset, mid), Transition(mid, letter, tags[d])]

    contents: dict[int, Iterable[Name]] = {}
    for i in range(1, m + n + 1):
        if a.initial_assignment.place(i):
            contents[i] = a.initial_assignment.place(i)
    return Hra(
        m=size,
        n=0,
        states=frozenset(states),
        initial=tags[a.initial, f0],
        initial_assignment=Assignment.of(size, contents),
        transitions=frozenset(transitions),
        finals=frozenset(tags[p] for p in reached if p[0] in a.finals),
    )


# ---------------------------------------------------------------------------
# packed form


@dataclass(frozen=True)
class PackedTransition:
    src: State
    reset_first: frozenset[int]
    pre: frozenset[int]
    post: frozenset[int]
    dst: State


@dataclass(frozen=True)
class PackedHra:
    """History-only automaton whose transitions fold a reset prefix into
    the letter step; it has no silent moves at all."""

    m: int
    states: frozenset[State]
    initial: State
    initial_assignment: Assignment
    transitions: frozenset[PackedTransition]
    finals: frozenset[State]


def to_packed(a: Hra) -> PackedHra:
    """Fold every reset chain into the letter transition that follows it."""
    if a.n > 0:
        raise RegistersPresent("packing needs a history-only automaton")
    summaries = reset_summaries(a)
    accepts = by_src(t for t in a.transitions if isinstance(t.label, Accept))
    packed = set()
    finals = set()
    for q in a.states:
        for y, p in summaries[q]:
            if p in a.finals:
                finals.add(q)
            for t in accepts.get(p, ()):
                packed.add(PackedTransition(q, y, t.label.pre, t.label.post, t.dst))
    return PackedHra(
        m=a.m,
        states=a.states,
        initial=a.initial,
        initial_assignment=a.initial_assignment,
        transitions=frozenset(packed),
        finals=frozenset(finals),
    )


def packed_determinism_witness(p: PackedHra) -> Optional[tuple[State, frozenset[int]]]:
    """A (state, place-set) with two matching transitions, or None."""
    adj = by_src(p.transitions)
    for q in sorted(p.states, key=repr):
        for x in subsets(range(1, p.m + 1)):
            hits = [t for t in adj.get(q, ()) if x - t.reset_first == t.pre]
            if len(hits) > 1:
                return (q, x)
    return None


def complement_deterministic(p: PackedHra) -> PackedHra:
    """Complement a deterministic packed automaton by completing it with a
    sink and swapping final and non-final states.  One scan, in the order of
    `packed_determinism_witness`, raises `NotDeterministic` at the first
    state and place-set that two transitions match and sends each one that
    none matches to the sink."""
    sink = StateTag("sink", ())
    adj = by_src(p.transitions)
    extra = [PackedTransition(sink, frozenset(range(1, p.m + 1)), frozenset(), frozenset(), sink)]
    for q in sorted(p.states, key=repr):
        for x in subsets(range(1, p.m + 1)):
            hits = sum([x - t.reset_first == t.pre for t in adj.get(q, ())])
            if hits > 1:
                raise NotDeterministic(
                    f"two transitions match state {q!r} on place-set {sorted(x)}")
            if not hits:
                extra.append(PackedTransition(q, frozenset(), x, frozenset(), sink))
    return PackedHra(
        m=p.m,
        states=p.states | {sink},
        initial=p.initial,
        initial_assignment=p.initial_assignment,
        transitions=p.transitions | frozenset(extra),
        finals=(p.states - p.finals) | {sink},
    )


def unpack(p: PackedHra) -> Hra:
    """Expand each folded transition back into reset-then-accept."""
    states = set(p.states)
    transitions = []
    for t in p.transitions:
        if t.reset_first:
            mid = StateTag("mid", (t,))
            states.add(mid)
            transitions.append(Transition(t.src, Reset(t.reset_first), mid))
            transitions.append(Transition(mid, Accept(t.pre, t.post), t.dst))
        else:
            transitions.append(Transition(t.src, Accept(t.pre, t.post), t.dst))
    return Hra(
        m=p.m,
        n=0,
        states=frozenset(states),
        initial=p.initial,
        initial_assignment=p.initial_assignment,
        transitions=frozenset(transitions),
        finals=p.finals,
    )


def containment_deterministic(a1: Hra, a2: Hra) -> bool:
    """Decide L(a1) ⊆ L(a2) for a2 with a deterministic packed form."""
    from .reductions import emptiness  # local import: reductions builds on this module

    comp = complement_deterministic(to_packed(registers_to_histories(a2)))
    gap = intersection(a1, unpack(comp))
    return bool(emptiness(gap).is_empty)
