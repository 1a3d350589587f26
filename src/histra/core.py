"""History-register automata: data model and exact operational semantics.

An automaton of type (m, n) owns m history places and n register places,
numbered 1..m+n with histories first.  Histories hold arbitrary finite sets
of names, registers hold at most one name.  A transition either accepts a
letter -- consuming a name whose current place-set is exactly the label's
first component and re-placing it at the second component -- or resets a
set of places to empty without consuming input.

Names are plain ints; words are sequences of ints.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain, combinations
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .errors import (
    BadPlaceIndex,
    DanglingState,
    RegisterOverfull,
    ValidationError,
)

Name = int
State = Hashable
Word = tuple[Name, ...]


# ---------------------------------------------------------------------------
# labels and transitions


@dataclass(frozen=True)
class Accept:
    """Letter label: consume a name placed at exactly `pre`, move it to exactly `post`."""

    pre: frozenset[int]
    post: frozenset[int]

    def __repr__(self) -> str:
        return f"Acc({_fmt(self.pre)}->{_fmt(self.post)})"


@dataclass(frozen=True)
class Reset:
    """Silent label: empty every place in `targets`."""

    targets: frozenset[int]

    def __repr__(self) -> str:
        return f"Rst({_fmt(self.targets)})"


Label = Accept | Reset


def _fmt(places: frozenset[int]) -> str:
    return "{" + ",".join(map(str, sorted(places))) + "}" if places else "{}"


@dataclass(frozen=True)
class Transition:
    src: State
    label: Label
    dst: State

    def __repr__(self) -> str:
        return f"({self.src!r} {self.label!r} {self.dst!r})"


# ---------------------------------------------------------------------------
# assignments


@dataclass(frozen=True)
class Assignment:
    """Contents of all places; index i-1 holds place i."""

    contents: tuple[frozenset[Name], ...]

    @staticmethod
    def of(size: int, filled: Mapping[int, Iterable[Name]] | None = None) -> "Assignment":
        """Build an assignment over `size` places, empty except for `filled` (1-based)."""
        slots = [frozenset()] * size
        for place, names in (filled or {}).items():
            if not 1 <= place <= size:
                raise BadPlaceIndex(f"place {place} out of range 1..{size}")
            slots[place - 1] = frozenset(names)
        return Assignment(tuple(slots))

    def place(self, i: int) -> frozenset[Name]:
        if not 1 <= i <= len(self.contents):
            raise BadPlaceIndex(f"place {i} out of range 1..{len(self.contents)}")
        return self.contents[i - 1]

    def names(self) -> frozenset[Name]:
        return frozenset(chain.from_iterable(self.contents))

    def placeset_of(self, a: Name) -> frozenset[int]:
        """The set of places currently holding `a` (empty means fresh)."""
        return frozenset(i + 1 for i, s in enumerate(self.contents) if a in s)

    def at(self, x: frozenset[int] | Iterable[int]) -> frozenset[Name]:
        """Names lying in every place of `x` and nowhere else.

        `x` must be non-empty; the x = {} case is the freshness predicate,
        available as is_fresh / fresh_name.  A place outside 1..size raises
        BadPlaceIndex, as in `place`.
        """
        x = frozenset(x)
        if not x:
            raise ValueError("at() needs a non-empty place-set; use is_fresh for freshness")
        inside = frozenset.intersection(*(self.place(i) for i in x))
        outside = frozenset(
            chain.from_iterable(s for i, s in enumerate(self.contents) if i + 1 not in x)
        )
        return inside - outside

    def is_fresh(self, a: Name) -> bool:
        return all(a not in s for s in self.contents)

    def fresh_name(self) -> Name:
        """Least natural not occurring anywhere in the assignment."""
        used = self.names()
        a = 0
        while a in used:
            a += 1
        return a

    def move_name(self, a: Name, post: frozenset[int], m: int) -> "Assignment":
        """Remove `a` everywhere, then insert it at exactly `post`.

        Insertion adds `a` to history places (index <= m) and overwrites
        register places (index > m) to hold just `a`.  Only the places the
        name leaves or enters are copied: every other place is the same
        frozenset object as in `self`.
        """
        slots = list(self.contents)
        for i, s in enumerate(slots):
            if a in s and i + 1 not in post:
                slots[i] = s - {a}
        for i in post:
            if i > m:
                slots[i - 1] = frozenset({a})
            elif a not in slots[i - 1]:
                slots[i - 1] = slots[i - 1] | {a}
        return Assignment(tuple(slots))

    def reset_places(self, targets: frozenset[int]) -> "Assignment":
        slots = list(self.contents)
        for i in targets:
            slots[i - 1] = frozenset()
        return Assignment(tuple(slots))

    def __repr__(self) -> str:
        parts = []
        for i, s in enumerate(self.contents):
            if s:
                parts.append(f"{i + 1}:{{{','.join(map(str, sorted(s)))}}}")
        return "H[" + " ".join(parts) + "]"


Configuration = tuple[State, Assignment]


# ---------------------------------------------------------------------------
# automata


@dataclass(frozen=True)
class Hra:
    """An automaton of type (m, n).

    It keeps its reset summaries (`reset_summaries`) and the part of them
    the silent closure reads, computed on first use.  They are not a field:
    `==`, `hash` and `repr` ignore them, and the pickled state leaves them out."""

    m: int
    n: int
    states: frozenset[State]
    initial: State
    initial_assignment: Assignment
    transitions: frozenset[Transition]
    finals: frozenset[State]
    _summaries = None  # not a field: no annotation

    @property
    def places(self) -> range:
        return range(1, self.m + self.n + 1)

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def make_hra(
    m: int,
    n: int,
    states: Iterable[State],
    initial: State,
    transitions: Iterable[tuple[State, Label, State]],
    finals: Iterable[State],
    initial_contents: Mapping[int, Iterable[Name]] | None = None,
) -> Hra:
    """Convenience constructor taking plain tuples for transitions; validates the result."""
    a = Hra(
        m=m,
        n=n,
        states=frozenset(states),
        initial=initial,
        initial_assignment=Assignment.of(m + n, initial_contents),
        transitions=frozenset(Transition(s, lab, d) for s, lab, d in transitions),
        finals=frozenset(finals),
    )
    validate(a)
    return a


def initial_config(a: Hra) -> Configuration:
    return (a.initial, a.initial_assignment)


def validate(a: Hra) -> None:
    """Check structural well-formedness; raise ValidationError listing every violation."""
    bad = []
    size = a.m + a.n
    if size < 1 or a.m < 0 or a.n < 0:
        bad.append(BadPlaceIndex(f"type ({a.m},{a.n}) has no places"))
    if len(a.initial_assignment.contents) != size:
        bad.append(BadPlaceIndex(
            f"initial assignment covers {len(a.initial_assignment.contents)} places, expected {size}"))
    else:
        for i in range(a.m + 1, size + 1):
            if len(a.initial_assignment.place(i)) > 1:
                bad.append(RegisterOverfull(f"register place {i} holds more than one name"))
    if a.initial not in a.states:
        bad.append(DanglingState(f"initial state {a.initial!r} not in state set"))
    for q in a.finals:
        if q not in a.states:
            bad.append(DanglingState(f"final state {q!r} not in state set"))
    for t in a.transitions:
        if t.src not in a.states:
            bad.append(DanglingState(f"transition source {t.src!r} not in state set"))
        if t.dst not in a.states:
            bad.append(DanglingState(f"transition target {t.dst!r} not in state set"))
        sets = (t.label.targets,) if isinstance(t.label, Reset) else (t.label.pre, t.label.post)
        for s in sets:
            for i in s:
                if not 1 <= i <= size:
                    bad.append(BadPlaceIndex(f"place {i} out of range in {t!r}"))
    if bad:
        raise ValidationError(bad)


# ---------------------------------------------------------------------------
# operational semantics


def by_src(transitions: Iterable) -> dict[State, list]:
    """Group transitions of any kind (anything with a `src`) by source state,
    keeping their iteration order.  A state with no outgoing transition has
    no key, so look states up with `.get(q, ())`."""
    adj: dict[State, list] = {}
    for t in transitions:
        adj.setdefault(t.src, []).append(t)
    return adj


def explore(adj: Mapping[State, Sequence], start: tuple, moves) -> tuple[dict, list]:
    """Breadth-first search over (state, annotation) pairs, from `start`: the
    one search behind the reset summaries (so the silent closure), the
    constructions, the skeleton reduction and run extraction.

    A reached pair (q, f) follows every transition t in `adj.get(q, ())`;
    `moves(q, f, t)` lists the pairs (x, f2) that t allows from there, each
    one an edge ((q, f), x, (t.dst, f2)) whose payload x is the caller's.
    Returns the reached pairs in discovery order, each mapped to the
    (previous pair, payload) of the edge that discovered it (`start` to
    None), and every edge in the order it was found."""
    reached = {start: None}
    queue = [start]
    edges = []
    for node in queue:  # the list grows behind the loop: a FIFO queue
        q, f = node
        for t in adj.get(q, ()):
            for x, f2 in moves(q, f, t):
                nxt = (t.dst, f2)
                edges.append((node, x, nxt))
                if nxt not in reached:
                    reached[nxt] = (node, x)
                    queue.append(nxt)
    return reached, edges


def subsets(items: Iterable[int]) -> list[frozenset[int]]:
    """Every subset of `items`, ordered by size and then in `combinations`
    order over the sorted items; the empty set comes first."""
    pool = sorted(items)
    return [frozenset(c) for r in range(len(pool) + 1) for c in combinations(pool, r)]


def step(a: Hra, config: Configuration, letter: Name) -> frozenset[Configuration]:
    """All single-letter successors of `config` (no silent moves).

    The letter's place-set belongs to the configuration, so it is read once
    per call.  Each transition is then tested cheapest first: its label
    kind, then its `pre` against that place-set, and only then its source
    against the current state, which can be a costly nested comparison."""
    q, h = config
    x = h.placeset_of(letter)
    out = set()
    for t in a.transitions:
        if isinstance(t.label, Accept) and x == t.label.pre and t.src == q:
            out.add((t.dst, h.move_name(letter, t.label.post, a.m)))
    return frozenset(out)


def eps_closure(a: Hra, configs: Iterable[Configuration]) -> frozenset[Configuration]:
    """Close a configuration set under reset (silent) transitions.

    Resets only empty places, so a chain of resets from q to p whose targets
    union to Y takes (q, h) to exactly (p, h minus Y): the closure reads the
    automaton's kept reset summaries.  A state with no reset closes to
    itself."""
    closure = _kept_summaries(a)[1]
    closed = frozenset(configs)
    return closed.union([(p, h.reset_places(y) if y else h)
                         for q, h in closed for y, p in closure.get(q, ())])


def membership(a: Hra, word: Sequence[Name]) -> bool:
    frontier = eps_closure(a, {initial_config(a)})
    for letter in word:
        nxt = set()
        for c in frontier:
            nxt.update(step(a, c, letter))
        if not nxt:
            return False
        frontier = eps_closure(a, nxt)
    return any(q in a.finals for q, _ in frontier)


@dataclass(frozen=True)
class TraceStep:
    """One move of a run: `letter` is None for silent reset steps."""

    transition: Transition
    letter: Optional[Name]
    config: Configuration


def trace(a: Hra, word: Sequence[Name]) -> Optional[tuple[TraceStep, ...]]:
    """An accepting run over `word`, or None.

    membership(a, w) is true exactly when this returns a run.  The search
    is `explore` over (state, (assignment, letters read)), so the run is
    the first-discovered path to the first accepting pair discovered: no
    accepting run has fewer moves, resets and letters alike.
    """
    word = tuple(word)

    def moves(q, f, t):
        h, k = f
        if isinstance(t.label, Reset):
            return [((t, None), (h.reset_places(t.label.targets), k))]
        if k < len(word) and h.placeset_of(word[k]) == t.label.pre:
            return [((t, word[k]), (h.move_name(word[k], t.label.post, a.m), k + 1))]
        return []

    reached, _ = explore(by_src(a.transitions), (a.initial, (a.initial_assignment, 0)), moves)
    goal = next((p for p in reached if p[0] in a.finals and p[1][1] == len(word)), None)
    if goal is None:
        return None
    steps = []
    node = goal
    while reached[node] is not None:
        prev, (t, letter) = reached[node]
        steps.append(TraceStep(t, letter, (node[0], node[1][0])))
        node = prev
    return tuple(reversed(steps))


# ---------------------------------------------------------------------------
# subclass recognition


@dataclass(frozen=True)
class SubclassFlags:
    unary: bool
    non_reset: bool
    ra: bool
    fra: bool


def classify(a: Hra) -> SubclassFlags:
    """Syntactic subclass membership.

    A Reset with empty target set consumes nothing and clears nothing, so it
    does not count against the reset-free classes.
    """
    real_resets = [t for t in a.transitions
                   if isinstance(t.label, Reset) and t.label.targets]
    non_reset = not real_resets
    unary = a.m == 1
    ra = a.m == 0 and non_reset
    fra = unary and non_reset and _fra_shape(a)
    return SubclassFlags(unary=unary, non_reset=non_reset, ra=ra, fra=fra)


def _fra_shape(a: Hra) -> bool:
    h0 = a.initial_assignment
    if h0.place(1) != h0.names():
        return False
    accepts = [t for t in a.transitions if isinstance(t.label, Accept)]
    for t in accepts:
        if 1 not in t.label.post:
            return False
        if t.label.pre == frozenset({1}):
            twin = Transition(t.src, Accept(frozenset(), t.label.post), t.dst)
            if twin not in a.transitions:
                return False
    return True


# ---------------------------------------------------------------------------
# reset summaries


def reset_summaries(a: Hra) -> dict[State, frozenset[tuple[frozenset[int], State]]]:
    """For each state q, all pairs (Y, p) with q reaching p through resets
    whose targets union to Y (includes (empty, q)).  Computed on the first
    call and kept on the automaton (see `Hra`); do not mutate it."""
    return _kept_summaries(a)[0]


def _kept_summaries(a: Hra) -> tuple[dict, dict]:
    """The reset summaries and, for the silent closure, each state's
    summaries other than (∅, q), keyed only by the sources of resets: a
    lookup that hits costs a recursive comparison of nested `StateTag`s."""
    kept = a._summaries
    if kept is None:
        resets = by_src(t for t in a.transitions if isinstance(t.label, Reset))

        def moves(p, y, t):
            return [(None, y | t.label.targets)]

        # every pair reached but the first, (q, ∅) itself
        closure = {q: [(y, p) for p, y in list(explore(resets, (q, frozenset()), moves)[0])[1:]]
                   for q in resets}
        table = {q: frozenset([(frozenset(), q), *closure.get(q, ())]) for q in a.states}
        kept = (table, closure)
        object.__setattr__(a, "_summaries", kept)
    return kept


# ---------------------------------------------------------------------------
# words under renaming


def permute_word(word: Sequence[Name], perm: Mapping[Name, Name]) -> Word:
    """Apply a (finite-support) name permutation letter-wise."""
    return tuple(perm.get(x, x) for x in word)
