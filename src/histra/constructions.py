"""Closure constructions and normal forms.

Everything here is a pure function from automata to automata.  Constructed
states are `StateTag` values so the provenance of a state (product pair,
tracking function, sink, ...) stays inspectable.  Union and intersection
place each operand once in its own band of places (`_placed`, which
`pad_type` uses too), so a product edge only joins two placed labels and
renames no place.  One helper, `_path`, spells a move as several
transitions through "mid" states: register doubling's clear-then-read,
complementation's reset-then-accept and both counter encodings in
`reductions`.  The constructions that pair or annotate states build only
the pairs `core.explore` reaches from the initial one: intersection, name
fixing, register doubling and the colouring elimination (in `reductions`)
through `_explored`, one tag per pair and one transition, or one `_path`,
per edge.  Complementation, the one operation that needs a deterministic
input, works on the `Hra` itself, registers included, and keeps its type:
it reads the reset summaries, accept index and produced place-sets, cached
properties of the automaton, judges determinism and builds only for the
states reachable from the initial one and for letters at ∅ or at a
place-set a run can produce, and its input states are tagged so that the
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
    Name,
    Reset,
    Transition,
    explore,
)
from .errors import DuplicateFixName, NotDeterministic, WrongDimension, retired


@dataclass(frozen=True)
class StateTag:
    """Constructed-state annotation; `payload` is construction-specific.

    Tags nest (a "copies" tag of a product pair, a "mid" tag holding a
    whole transition and the "copies" tag it leads to), so the hash of
    `(kind, payload)` and the repr `<kind:p1,p2,...>` are each computed
    on first use and kept: the counter searches sort states by repr.
    The kept values are not fields: `==` and `hash` ignore them, and
    they are left out of the pickled state, so an unpickled tag rehashes
    under its own process's hash seed and rebuilds the same repr."""

    kind: str
    payload: tuple
    _hash = None  # not fields: no annotation
    _repr = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.kind, self.payload))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        return {"kind": self.kind, "payload": self.payload}

    def __repr__(self) -> str:
        r = self._repr
        if r is None:
            r = f"<{self.kind}:{','.join(map(repr, self.payload))}>"
            object.__setattr__(self, "_repr", r)
        return r


# ---------------------------------------------------------------------------
# place plumbing


def _placed(a: Hra, m: int, n: int, hist: int, reg: int) -> Hra:
    """`a` as an (m, n) automaton whose history i sits at place hist + i
    and whose register j at place m + reg + j; its labels and initial
    names move with their places, every other place is unused."""
    mp = {i: hist + i for i in range(1, a.m + 1)}
    mp.update({a.m + j: m + reg + j for j in range(1, a.n + 1)})
    # a label is a tuple of place-sets: `targets`, or `pre` and `post`
    move = lambda lab: lab._make(frozenset([mp[i] for i in x]) for x in lab)
    slots = [frozenset()] * (m + n)
    for i, names in enumerate(a.initial_assignment.contents, 1):
        slots[mp[i] - 1] = names
    return Hra(
        m=m,
        n=n,
        states=a.states,
        initial=a.initial,
        initial_assignment=Assignment(tuple(slots)),
        transitions=frozenset(Transition(t.src, move(t.label), t.dst) for t in a.transitions),
        finals=a.finals,
    )


def pad_type(a: Hra, m: int, n: int) -> Hra:
    """Embed `a` into type (m, n) by adding unused places.

    Histories keep their indices; registers shift up to the new band.
    Unused places never occur in labels, so the language is unchanged.
    """
    if m < a.m or n < a.n:
        raise WrongDimension(f"cannot pad ({a.m},{a.n}) down to ({m},{n})")
    if (m, n) == (a.m, a.n):
        return a
    return _placed(a, m, n, 0, 0)


def _side_by_side(a1: Hra, a2: Hra) -> tuple[Hra, Hra, Assignment]:
    """Both operands placed in disjoint bands of one type for the
    two-automaton constructions (histories of a1, then of a2, then
    registers of a1, then of a2), and their joint initial assignment,
    the place-wise union of theirs."""
    m, n = a1.m + a2.m, a1.n + a2.n
    b1, b2 = _placed(a1, m, n, 0, 0), _placed(a2, m, n, a1.m, a1.n)
    return b1, b2, Assignment(tuple(
        x | y for x, y in zip(b1.initial_assignment.contents, b2.initial_assignment.contents)))


def _tagged(kind: str, a: Hra) -> tuple[dict, list[Transition]]:
    """One `StateTag(kind, (q,))` per state q of `a`, and the transitions
    of `a` between those tags."""
    tags = {q: StateTag(kind, (q,)) for q in a.states}
    return tags, [Transition(tags[t.src], t.label, tags[t.dst]) for t in a.transitions]


def _path(src, labels: tuple, dst, key, mids: dict) -> list[Transition]:
    """A move from `src` to `dst` read as `labels` in turn: between two
    labels it passes a "mid" state named by `key`, the labels still to
    come and `dst`.  Each name is one `StateTag` in `mids`, keyed by the
    tag itself, so moves that share a key share the mids of their common
    suffix, and a name is hashed once: the tag keeps its hash."""
    out = []
    for i in range(1, len(labels)):
        mid = StateTag("mid", (key, labels[i:], dst))
        mid = mids.setdefault(mid, mid)
        out.append(Transition(src, labels[i - 1], mid))
        src = mid
    out.append(Transition(src, labels[-1], dst))
    return out


def _explored(kind: str, adj, start: tuple, moves, is_final, m: int, n: int,
              initial_assignment: Assignment) -> Hra:
    """The (m, n) automaton of the pairs `explore(adj, start, moves)`
    reaches: one `StateTag(kind, pair)` per reached pair, the start's tag
    initial, and final the pairs that `is_final` picks.  An edge whose
    payload is a label is one transition; any other payload is a pair
    `(key, labels)`, built as the `_path` of those labels (a label is a
    tuple too, so the test names the label types)."""
    reached, edges = explore(adj, start, moves)
    tags = {p: StateTag(kind, p) for p in reached}
    mids: dict = {}
    transitions = []
    for p, x, d in edges:
        if isinstance(x, (Accept, Reset)):
            transitions.append(Transition(tags[p], x, tags[d]))
        else:
            transitions += _path(tags[p], x[1], tags[d], x[0], mids)
    return Hra(
        m=m,
        n=n,
        states=frozenset([*tags.values(), *mids.values()]),
        initial=tags[start],
        initial_assignment=initial_assignment,
        transitions=frozenset(transitions),
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
    b1, b2, names = _side_by_side(a1, a2)
    t1, moves1 = _tagged("left", b1)
    t2, moves2 = _tagged("right", b2)
    start = StateTag("start", ())
    band1 = frozenset([*range(1, a1.m + 1), *range(b1.m + 1, b1.m + a1.n + 1)])
    band2 = frozenset(b1.places) - band1
    transitions = moves1 + moves2 + [
        Transition(start, Reset(band2), t1[a1.initial]),
        Transition(start, Reset(band1), t2[a2.initial]),
    ]
    return Hra(
        m=b1.m,
        n=b1.n,
        states=frozenset([start, *t1.values(), *t2.values()]),
        initial=start,
        initial_assignment=names,
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
    b1, b2, names = _side_by_side(a1, a2)
    out1, out2 = b1._outgoing, b2._outgoing
    adj = {p: [*out1.get(p, ()), Transition(p, None, p)] for p in a1.states}

    def moves(p, q, t):
        if t.label is None:
            return [(v.label, v.dst) for v in out2.get(q, ()) if isinstance(v.label, Reset)]
        if isinstance(t.label, Reset):
            return [(t.label, q)]
        pre, post = t.label
        return [(Accept(pre | v.label.pre, post | v.label.post), v.dst)
                for v in out2.get(q, ()) if isinstance(v.label, Accept)]

    return _explored("pair", adj, (a1.initial, a2.initial), moves,
                     lambda pq: pq[0] in a1.finals and pq[1] in a2.finals,
                     b1.m, b1.n, names)


# ---------------------------------------------------------------------------
# the fix construction


def fix_names(a: Hra, w: Sequence[Name]) -> Hra:
    """Pin the names of `w` into k fresh registers that never change.

    The result simulates `a` exactly, with each state carrying the intended
    place-set of every pinned name (None of them actually sits in the old
    places).  Language is preserved.  A pinned letter that `a` writes into
    a register still evicts the name that register holds: where an
    unpinned name can be there, the move is a `_path` that first resets
    those registers, then reads the pinned register.  An unpinned name
    enters a register only from the initial assignment or by a letter
    that writes the register from outside it, so only those are reset.
    """
    w = tuple(w)
    if len(set(w)) != len(w):
        raise DuplicateFixName(f"fix names must be pairwise distinct, got {w!r}")
    m, n, k = a.m, a.n, len(w)
    size = m + n
    h0 = a.initial_assignment
    f0 = tuple(h0.placeset_of(x) for x in w)
    overwritten = lambda post: frozenset(i for i in post if i > m)
    held = {i for i in range(m + 1, size + 1) if h0.place(i).difference(w)}
    held.update(*(overwritten(t.label.post - t.label.pre)
                  for t in a.transitions if isinstance(t.label, Accept)))

    def moves(q, f, t):
        if isinstance(t.label, Reset):
            return [(t.label, tuple(fj - t.label.targets for fj in f))]
        wiped = overwritten(t.label.post)
        out = [(t.label, tuple(fj - wiped for fj in f))]
        for j in range(k):
            if f[j] == t.label.pre:
                pinned = frozenset({size + 1 + j})
                f_move = tuple(t.label.post if l == j else f[l] - wiped for l in range(k))
                read, evict = Accept(pinned, pinned), wiped & held
                move = ((q, f, t, j), (Reset(evict), read)) if evict else read
                out.append((move, f_move))
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
    left, moves1 = _tagged("left", f1)
    right, moves2 = _tagged("right", f2)
    old_places = frozenset(range(1, m + n + 1))
    transitions = moves1 + moves2 + [
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
    transitions += [Transition(qs, t.label, t.dst) for t in f._outgoing.get(f.initial, ())]
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
            return [(Reset(fd(t.label.targets, f)), f)]
        fbar = tuple(
            flip(f, j) if (m + j + 1) in (t.label.pre | t.label.post) else f[j]
            for j in range(n)
        )
        letter = Accept(fd(t.label.pre, f), fd(t.label.post, fbar))
        return [(((q, f, t), (Reset(copy_places - frozenset(f)), letter)), fbar)]

    return _explored("copies", a._outgoing, (a.initial, f0), moves,
                     lambda p: p[0] in a.finals, size, 0,
                     Assignment(a.initial_assignment.contents + (frozenset(),) * n))


# ---------------------------------------------------------------------------
# complementation


def complement_deterministic(a: Hra) -> Hra:
    """Accepts the words `a` rejects, for a deterministic `a` of any type
    (m, n); the complement has type (m, n) too.

    A move of `a` from state q is a reset-then-accept: resets from q to
    some p whose targets union to Y (a reset summary (Y, p) of q), then a
    letter transition p --ACC pre : post--> dst.  It is written
    (Y, pre, post, dst); moves that differ only in p are one move.  A move
    matches q on place-set x when x - Y = pre, and the automaton is
    deterministic when no state reachable from the initial one and
    place-set are matched by two moves.

    Only place-sets x in {∅} ∪ P are judged, where P is `a._produced`,
    the non-empty place-sets a run can produce.  The complement keeps
    every move of the reachable states, sends each reachable state and
    such x that no move matches to a final sink, and makes final exactly
    the reachable states none of whose reset summaries reaches a final
    state.  Each input state q becomes `StateTag("co", (q,))`, so the sink
    and the "mid" state that each move with a reset passes through are
    new even when `a` is itself a complement.  One scan, states in `repr`
    order and place-sets in `subsets` order, raises `NotDeterministic` at
    the first pair two moves match.

    Why this is exact with registers, over the m + n places of `a`:

    - A move fires on a letter whose place-set is x exactly when x - Y =
      pre: the resets empty the places of Y, register places as well as
      history places, so after them the letter sits at x - Y.  So a
      deterministic `a` has at most one move per reached configuration
      and letter, and the complement, which keeps that move, has the
      same one.
    - A move writing the letter into a register evicts the name the
      register held.  That happens inside the move's own letter
      transition, which the complement keeps label for label, so from
      the same configuration both automata reach the same assignment:
      the complement's run follows the run of `a` configuration for
      configuration until `a` has no move.
    - When no move matches, the letter's place-set x is ∅ or in P (see
      the last case), so the edge Accept(x, ∅) to the sink fires.  It
      removes the letter from every place it held, registers included,
      and writes no register, so it evicts nothing; the sink then
      empties every place and takes each letter as a fresh name, so it
      accepts whatever follows, whatever the registers held.
    - A state unreachable from the initial one lies on no run of `a`.
      Its co-state would lie on no run of the complement either: every
      transition into it would come from the co-state of a state with a
      transition to it, so of another unreachable state.  Leaving them
      out changes neither language, and a conflict at such a state is
      met by no run.
    - By induction on the length of a run of `a`, every name sits at ∅
      or at a place-set in P: a letter puts its name at its `post` and
      takes other names out of the registers of `post`, a reset of Y
      takes a name at X to X∖Y, and P holds the initial names'
      place-sets and every `post` and is closed under both cuts.  The
      complement's run follows that of `a` up to the sink, so it too
      reads every letter at ∅ or in P.  So a conflict, or a missing
      move, at a place-set outside P meets no run, just as one at an
      unreachable state does."""
    closure, index = a._closure, a._accept_index
    places = frozenset(a.places)
    reached, _ = explore(a._outgoing, (a.initial, None), lambda q, f, t: [(None, None)])
    co = {q: StateTag("co", (q,)) for q, _ in reached}
    summaries = {q: [(frozenset(), q), *closure.get(q, ())] for q in co}
    sink = StateTag("sink", ())
    mids: dict = {}
    transitions = []

    def emit(src, y, pre, post, dst):
        labels = (Reset(y), Accept(pre, post)) if y else (Accept(pre, post),)
        transitions.extend(_path(src, labels, dst, (src, y), mids))

    emit(sink, places, frozenset(), frozenset(), sink)
    for q in sorted(co, key=repr):
        moves = {(y, pre, post, dst) for y, p in summaries[q]
                 for pre, outs in index.get(p, {}).items() for post, dst, *_ in outs}
        for x in (frozenset(), *a._produced):
            hits = sum([x - y == pre for y, pre, _, _ in moves])
            if hits > 1:
                raise NotDeterministic(
                    f"two transitions match state {q!r} on place-set {sorted(x)}")
            if not hits:
                transitions.append(Transition(co[q], Accept(x, frozenset()), sink))
        for y, pre, post, dst in moves:
            emit(co[q], y, pre, post, co[dst])
    return Hra(
        m=a.m,
        n=a.n,
        states=frozenset([sink, *co.values(), *mids.values()]),
        initial=co[a.initial],
        initial_assignment=a.initial_assignment,
        transitions=frozenset(transitions),
        finals=frozenset([sink, *(co[q] for q in co
                                  if not any(p in a.finals for _, p in summaries[q]))]),
    )


def containment_deterministic(a1: Hra, a2: Hra) -> bool:
    """Decide L(a1) ⊆ L(a2) for a deterministic a2 (see
    `complement_deterministic`): L(a1) ∩ L(complement of a2) is empty."""
    from .reductions import emptiness  # local import: reductions builds on this module

    gap = intersection(a1, complement_deterministic(a2))
    return emptiness(gap).is_empty


# the removed packed form, kept as names for `benchmarks/tracing.py`
to_packed, unpack, packed_determinism_witness = (
    retired(name, "complement_deterministic on the automaton itself")
    for name in ("to_packed", "unpack", "packed_determinism_witness"))
