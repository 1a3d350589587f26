"""Closure constructions and normal forms.

Everything here is a pure function from automata to automata.  Constructed
states are `StateTag` values so the provenance of a state (product pair,
tracking function, sink, ...) stays inspectable; a translation that spells
one step as two tags the state between them "mid".  The constructions that
pair or annotate states build only the pairs `core.explore` reaches from
the initial one: intersection, name fixing and the colouring elimination
(in `reductions`) through `_explored`, one tag per pair and one transition
per edge; register doubling keeps its own tail for its "mid" states.
Complementation, the one operation that needs a deterministic input, works
on the `Hra` itself: it reads the reset summaries and accept index, cached
properties of the automaton, and its input states are tagged so that the
states it adds are always new.

A construction makes one `StateTag` per state it creates, kept in a dict,
and every transition endpoint, initial state or final naming that state is
that very object.  A dict or set lookup of a state then stops at identity
instead of comparing nested payloads; equal states built separately are
still equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    Accept,
    Assignment,
    Hra,
    Label,
    Name,
    Reset,
    Transition,
    explore,
    reset_summaries,
    subsets,
)
from .errors import DuplicateFixName, NotDeterministic, retired


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
    return Hra(
        m=m,
        n=n,
        states=a.states,
        initial=a.initial,
        initial_assignment=_moved_names(m + n, (a, mp)),
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


def _moved_names(size: int, *sides: tuple[Hra, dict[int, int]]) -> Assignment:
    """An assignment over `size` places holding each side's initial names at
    the places its map sends them to; every other place is empty."""
    slots = [frozenset()] * size
    for a, mp in sides:
        for i, names in enumerate(a.initial_assignment.contents, 1):
            slots[mp[i] - 1] = names
    return Assignment(tuple(slots))


def _explored(kind: str, adj, start: tuple, moves, is_final, m: int, n: int,
              initial_assignment: Assignment) -> Hra:
    """The (m, n) automaton of the pairs `explore(adj, start, moves)`
    reaches: one `StateTag(kind, pair)` per reached pair, the start's tag
    initial, one transition per edge labelled with the edge's payload, and
    final the pairs that `is_final` picks."""
    reached, edges = explore(adj, start, moves)
    tags = {p: StateTag(kind, p) for p in reached}
    return Hra(
        m=m,
        n=n,
        states=frozenset(tags.values()),
        initial=tags[start],
        initial_assignment=initial_assignment,
        transitions=frozenset(Transition(tags[p], x, tags[d]) for p, x, d in edges),
        finals=frozenset(tags[p] for p in reached if is_final(p)),
    )


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
        initial_assignment=_moved_names(m + n, (a1, mp1), (a2, mp2)),
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
    out1, out2 = a1._outgoing, a2._outgoing
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

    return _explored("pair", adj, (a1.initial, a2.initial), moves,
                     lambda pq: pq[0] in a1.finals and pq[1] in a2.finals,
                     m, n, _moved_names(m + n, (a1, mp1), (a2, mp2)))


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

    contents = tuple(s.difference(w) for s in h0.contents) + tuple(frozenset([x]) for x in w)
    return _explored("fix", a._outgoing, (a.initial, f0), moves,
                     lambda p: p[0] in a.finals, m, n + k, Assignment(contents))


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

    def moves(q, f, t):
        if isinstance(t.label, Reset):
            return [((Reset(fd(t.label.targets, f)), None, None), f)]
        fbar = tuple(
            flip(f, j) if (m + j + 1) in (t.label.pre | t.label.post) else f[j]
            for j in range(n)
        )
        letter = Accept(fd(t.label.pre, f), fd(t.label.post, fbar))
        return [((Reset(copy_places - frozenset(f)), StateTag("mid", (q, f, t)), letter), fbar)]

    reached, edges = explore(a._outgoing, (a.initial, f0), moves)
    tags = {p: StateTag("copies", p) for p in reached}
    states = set(tags.values())
    transitions: list[Transition] = []
    for p, (reset, mid, letter), d in edges:
        if mid is None:
            transitions.append(Transition(tags[p], reset, tags[d]))
        else:
            states.add(mid)
            transitions += [Transition(tags[p], reset, mid), Transition(mid, letter, tags[d])]
    return Hra(
        m=size,
        n=0,
        states=frozenset(states),
        initial=tags[a.initial, f0],
        initial_assignment=Assignment(a.initial_assignment.contents + (frozenset(),) * n),
        transitions=frozenset(transitions),
        finals=frozenset(tags[p] for p in reached if p[0] in a.finals),
    )


# ---------------------------------------------------------------------------
# complementation


def complement_deterministic(a: Hra) -> Hra:
    """Accepts the words `a` rejects, for a deterministic `a` of any type.

    Registers are first turned into histories (`registers_to_histories`).
    A move of the history-only automaton from state q is a reset-then-accept:
    resets from q to some p whose targets union to Y (a reset summary
    (Y, p) of q), then a letter transition p --ACC pre : post--> dst.  It is
    written (Y, pre, post, dst); moves that differ only in p are one move.
    A move matches q on place-set x when x - Y = pre, and the automaton is
    deterministic when no state and place-set are matched by two moves.

    The complement keeps every move, sends each state and place-set that no
    move matches to a final sink, and makes final exactly the states none of
    whose reset summaries reaches a final state.  Each input state q becomes
    `StateTag("co", (q,))`, so the sink and the "mid" state that each move
    with a reset passes through are new even when `a` is itself a
    complement.  One scan, states in `repr` order and place-sets in `subsets`
    order, raises `NotDeterministic` at the first pair two moves match, in
    the terms of `a`: every move first resets the dead copies of registers,
    so that place-set holds only live ones, which map back to registers."""
    b = registers_to_histories(a)
    summaries, index = reset_summaries(b), b._accept_index
    places = frozenset(range(1, b.m + 1))
    co = {q: StateTag("co", (q,)) for q in b.states}
    sink = StateTag("sink", ())
    states = [sink, *co.values()]
    transitions = []

    def emit(src, y, pre, post, dst):
        if y:
            mid = StateTag("mid", (src, y, pre, post, dst))
            states.append(mid)
            transitions.append(Transition(src, Reset(y), mid))
            src = mid
        transitions.append(Transition(src, Accept(pre, post), dst))

    emit(sink, places, frozenset(), frozenset(), sink)
    for q in sorted(b.states, key=repr):
        moves = {(y, pre, post, dst) for y, p in summaries[q]
                 for pre, outs in index.get(p, {}).items() for post, dst in outs}
        for x in subsets(places):
            hits = sum([x - y == pre for y, pre, _, _ in moves])
            if hits > 1:
                if b is not a:  # back to a's state; live copy f[j] is place m + j + 1
                    q, f = q.payload
                    x = [i if i <= a.m else a.m + 1 + f.index(i) for i in x]
                raise NotDeterministic(
                    f"two transitions match state {q!r} on place-set {sorted(x)}")
            if not hits:
                transitions.append(Transition(co[q], Accept(x, frozenset()), sink))
        for y, pre, post, dst in moves:
            emit(co[q], y, pre, post, co[dst])
    return Hra(
        m=b.m,
        n=0,
        states=frozenset(states),
        initial=co[b.initial],
        initial_assignment=b.initial_assignment,
        transitions=frozenset(transitions),
        finals=frozenset([sink, *(co[q] for q in b.states
                                  if not any(p in b.finals for _, p in summaries[q]))]),
    )


def containment_deterministic(a1: Hra, a2: Hra) -> bool:
    """Decide L(a1) ⊆ L(a2) for a deterministic a2 (see
    `complement_deterministic`): L(a1) ∩ L(complement of a2) is empty."""
    from .reductions import emptiness  # local import: reductions builds on this module

    gap = intersection(a1, complement_deterministic(a2))
    return bool(emptiness(gap).is_empty)


# the removed packed form, kept as names for `benchmarks/tracing.py`
to_packed, unpack, packed_determinism_witness = (
    retired(name, "complement_deterministic on the automaton itself")
    for name in ("to_packed", "unpack", "packed_determinism_witness"))
