"""History-register automata: data model and exact operational semantics.

An automaton of type (m, n) owns m history places and n register places,
numbered 1..m+n with histories first.  Histories hold arbitrary finite sets
of names, registers hold at most one name.  A transition either accepts a
letter -- consuming a name whose current place-set is exactly the label's
first component and re-placing it at the second component -- or resets a
set of places to empty without consuming input.

Names are plain ints; words are sequences of ints.  Labels, transitions,
assignments and trace steps are NamedTuples: each equals the plain tuple of
its fields and hashes as that tuple, so hashing and comparing them runs in
C.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cache
from itertools import chain, combinations
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Optional, Sequence

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


class Accept(NamedTuple):
    """Letter label: consume a name placed at exactly `pre`, move it to exactly `post`."""

    pre: frozenset[int]
    post: frozenset[int]

    def __repr__(self) -> str:
        return f"Acc({_fmt(self.pre)}->{_fmt(self.post)})"


class Reset(NamedTuple):
    """Silent label: empty every place in `targets`."""

    targets: frozenset[int]

    def __repr__(self) -> str:
        return f"Rst({_fmt(self.targets)})"


Label = Accept | Reset


@cache
def _fmt(places: frozenset[int]) -> str:
    """The text of a place-set in a label's `repr`, made once per set."""
    return "{" + ",".join(map(str, sorted(places))) + "}" if places else "{}"


class Transition(NamedTuple):
    src: State
    label: Label
    dst: State

    def __repr__(self) -> str:
        return f"({self.src!r} {self.label!r} {self.dst!r})"


# ---------------------------------------------------------------------------
# assignments


class Assignment(NamedTuple):
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
        return frozenset([i + 1 for i, s in enumerate(self.contents) if a in s])

    def at(self, x: frozenset[int] | Iterable[int]) -> frozenset[Name]:
        """Names lying in every place of `x` and nowhere else.

        `x` must be non-empty; the x = {} case is the freshness predicate,
        available as is_fresh / fresh_name.  An empty `x`, or a place
        outside 1..size as in `place`, raises BadPlaceIndex.
        """
        x = frozenset(x)
        if not x:
            raise BadPlaceIndex("at() needs a non-empty place-set; use is_fresh for freshness")
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

    def forget_name(self, a: Name, post: frozenset[int], m: int) -> "Assignment":
        """`move_name(a, post, m)`, then remove `a` from every place.

        Writing `a` into a register still evicts the name the register held,
        so each register in `post` ends up empty, while `a` occurs nowhere.
        As in `move_name`, only the places touched are copied."""
        slots = list(self.contents)
        for i, s in enumerate(slots):
            if a in s:
                slots[i] = s - {a}
        for i in post:
            if i > m:
                slots[i - 1] = frozenset()
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


class _cached:
    """A property computed on its first read and stored in the instance's
    `__dict__`, where later reads find it first, since this descriptor has
    no `__set__`.  Unlike `functools.cached_property` before Python 3.12, a
    first read takes no lock shared by every instance of the class."""

    def __init__(self, func: Callable) -> None:
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Hra:
    """An automaton of type (m, n).

    Its derived indices are cached (`_cached`), built on first use: the
    transitions grouped by source in iteration order (`_outgoing`, where a
    state with no outgoing transition has no key, so look states up with
    `.get(q, ())`), which every search over it reads; the accept index
    (`_accept_index`, each letter transition a row with its slot edits
    worked out), which `step` reads once for each configuration of a
    frontier; the one table of reset summaries (`_closure`, without
    the pair (∅, q) of each state q), which the silent closure
    (`eps_closure`, also once for each configuration), `reset_summaries`
    and complementation read; the place-sets a run can produce
    (`_produced`), which complementation reads; and the same automaton
    with its states numbered (`_numbered`, `_states`), which
    `membership`, `trace` and `oracles.bounded_emptiness` walk; the copy
    comes with its `_outgoing` only, so it is no reference cycle.  None is
    a field, so `==`, `hash`, `repr` and the pickled state ignore them.
    Do not mutate them."""

    m: int
    n: int
    states: frozenset[State]
    initial: State
    initial_assignment: Assignment
    transitions: frozenset[Transition]
    finals: frozenset[State]

    @property
    def places(self) -> range:
        return range(1, self.m + self.n + 1)

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @_cached
    def _outgoing(self) -> dict[State, list[Transition]]:
        adj: dict[State, list[Transition]] = {}
        for t in self.transitions:
            adj.setdefault(t.src, []).append(t)
        return adj

    @_cached
    def _accept_index(self) -> dict[State, dict[frozenset[int], list]]:
        """For each state with a letter transition, those transitions keyed
        by `pre`, each as its row (`post`, `dst`, `leave`, `enter`, `regs`).
        The last three are the slot edits (0-based) that move a name from
        exactly `pre` to exactly `post`: the places of `pre`∖`post` it
        leaves, the history places of `post`∖`pre` it enters, and the
        registers of `post`, which it overwrites."""
        m, index = self.m, {}
        for t in self.transitions:
            if isinstance(t.label, Accept):
                pre, post = t.label
                row = (post, t.dst, tuple(i - 1 for i in sorted(pre - post)),
                       tuple(i - 1 for i in sorted(post - pre) if i <= m),
                       tuple(i - 1 for i in sorted(post) if i > m))
                index.setdefault(t.src, {}).setdefault(pre, []).append(row)
        return index

    @_cached
    def _closure(self) -> dict[State, list[tuple[frozenset[int], State]]]:
        """Each state's reset summaries other than (∅, q), keyed only by the
        sources of resets, so a reset-free automaton gets an empty table:
        the fast path of `eps_closure`.  Every reader adds (∅, q) itself."""
        def moves(p, y, t):
            return [(None, y | t.label.targets)] if isinstance(t.label, Reset) else []

        out = self._outgoing
        sources = dict.fromkeys([t.src for t in self.transitions if isinstance(t.label, Reset)])
        # every pair reached but the first, (q, ∅) itself
        return {q: [(y, p) for p, y in list(explore(out, (q, frozenset()), moves)[0])[1:]]
                for q in sources}

    @_cached
    def _numbered(self) -> "Hra":
        """This automaton with its states renamed 0..N-1 in `repr` order
        (`_states`), its transitions and finals with them, its type and
        initial assignment (the same object) kept.  A language ignores state
        names, so word walks run here, on ints; every index iterates alike
        in every process, and `_outgoing` lists each state's transitions in
        the originals' `repr` order.  Only that `_outgoing` is stored on the
        copy, so the copy holds no reference to itself and goes with this
        automaton, not at the next run of the cyclic collector."""
        number = {q: i for i, q in enumerate(self._states)}
        labels = {lab: repr(lab) for lab in {t.label for t in self.transitions}}
        # `repr(t)` is "(src label dst)": from one source, it orders as this key
        key = lambda t: f"{labels[t.label]} {t.dst!r})"
        out = {i: [Transition(i, t.label, number[t.dst]) for t in sorted(ts, key=key)]
               for i, ts in enumerate([self._outgoing.get(q, ()) for q in self._states]) if ts}
        numbered = replace(self, states=frozenset(number.values()), initial=number[self.initial],
                           transitions=frozenset(chain.from_iterable(out.values())),
                           finals=frozenset([number[q] for q in self.finals]))
        numbered.__dict__["_outgoing"] = out
        return numbered

    @_cached
    def _states(self) -> tuple[State, ...]:
        """The states in `repr` order: number i of `_numbered` is `_states[i]`."""
        return tuple(sorted(self.states, key=repr))

    @_cached
    def _produced(self) -> tuple[frozenset[int], ...]:
        """The non-empty place-sets a name can sit at, in `subsets` order:
        those of the initial names and every `post`, closed under losing
        each reset's targets and the registers each `post` writes (a write
        evicts the register's old name).  By induction on the length of a
        run, every name sits at ∅ or at one of these."""
        h0, labels = self.initial_assignment, [t.label for t in self.transitions]
        posts = [lab.post for lab in labels if isinstance(lab, Accept)]
        cuts = [lab.targets if isinstance(lab, Reset)
                else frozenset(i for i in lab.post if i > self.m) for lab in labels]
        produced = _cut_closure([*map(h0.placeset_of, h0.names()), *posts], cuts)
        return tuple(sorted(produced, key=lambda x: (len(x), sorted(x))))


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


def _cut_closure(seeds: Iterable[frozenset[int]],
                 cuts: Iterable[frozenset[int]]) -> set[frozenset[int]]:
    """The non-empty sets of `seeds`, closed under X ↦ X∖Y for each Y in
    `cuts`, where an empty X∖Y is dropped: the forward closure behind
    `Hra._produced` and the skeleton translation's produced sets."""
    cuts = {y for y in cuts if y}
    produced = {x for x in seeds if x}
    todo = list(produced)
    while todo:
        x = todo.pop()
        for y in cuts:
            z = x - y
            if z and z not in produced:
                produced.add(z)
                todo.append(z)
    return produced


def subsets(items: Iterable[int]) -> list[frozenset[int]]:
    """Every subset of `items`, ordered by size and then in `combinations`
    order over the sorted items; the empty set comes first."""
    pool = sorted(items)
    return [frozenset(c) for r in range(len(pool) + 1) for c in combinations(pool, r)]


def step(a: Hra, configs: Iterable[Configuration], letter: Name,
         forget: bool = False) -> set[Configuration]:
    """Every single-letter successor of the frontier `configs` (no silent
    moves), as a new set.

    `configs` is any iterable of configurations, a one-shot iterator too;
    it is read once and left unchanged.  A letter fires exactly the
    transitions that leave a configuration's state with `pre` equal to the
    letter's place-set, so the automaton's accept index (see `Hra`) finds
    them with one lookup on the state and one on that place-set per
    configuration; no transition is tested on its own.  Each successor is
    `Assignment.move_name`, made by applying the row's slot edits to a copy
    of the contents: only those places change.

    With `forget`, each successor holds the letter nowhere: it is
    `move_name` followed by removing the letter from every place
    (`Assignment.forget_name`), so the letter leaves every place of `pre`
    and a register it is written to is still emptied of the name it held."""
    index, new = a._accept_index, tuple.__new__  # skips the NamedTuple's Python `__new__`
    single = frozenset((letter,))
    written = frozenset() if forget else single  # what each register of `post` then holds
    out = set()
    for q, h in configs:
        moves = index.get(q)
        if moves is not None:
            contents = h.contents  # `placeset_of`, inlined
            pre = frozenset([i + 1 for i, s in enumerate(contents) if letter in s])
            moves = moves.get(pre)
            if moves:
                slots = list(contents)
                if forget:
                    for i in pre:
                        slots[i - 1] -= single
                for _, dst, leave, enter, regs in moves:
                    edited = slots.copy()
                    if not forget:
                        for i in leave:
                            edited[i] -= single
                        for i in enter:
                            edited[i] |= single
                    for i in regs:
                        edited[i] = written
                    out.add((dst, new(Assignment, (tuple(edited),))))
    return out


def eps_closure(a: Hra, configs: Iterable[Configuration]) -> set[Configuration]:
    """Close the frontier `configs` under reset (silent) transitions, into
    a new set.

    Resets only empty places, so a chain of resets from q to p whose targets
    union to Y takes (q, h) to exactly (p, h minus Y): the closure reads the
    automaton's reset summaries, once per configuration, in one pass over
    `configs` (any iterable, read once and left unchanged).  A state with
    no reset closes to itself."""
    closure = a._closure
    if not closure:  # the automaton has no reset
        return set(configs)
    closed = set()
    for c in configs:
        closed.add(c)
        summaries = closure.get(c[0])
        if summaries:
            h = c[1]
            for y, p in summaries:
                closed.add((p, h.reset_places(y) if y else h))
    return closed


def membership(a: Hra, word: Sequence[Name]) -> bool:
    """Does `a` accept `word`?  A frontier walk: the silent closure of the
    configurations that the letters read so far reach.  Each letter costs
    one `step` call over the whole frontier and, unless that step finds no
    successor and the word is rejected, one `eps_closure` call over the
    successors.

    Each name is forgotten at its last occurrence in the word: that letter
    is stepped with `forget`, so no successor holds the name.  This is
    exact.  A step reads only the place-set of the letter it consumes, and
    a reset empties places whatever they hold, so a name that never occurs
    again cannot change a later step; the step that forgets it still
    evicts whatever a register it is written to held.  On words of
    distinct names the frontier no longer doubles with each letter.

    The walk runs on `a._numbered`, whose states are ints: the language
    is the same, and each frontier lookup hashes an int, not a
    constructed state."""
    a = a._numbered
    word = tuple(word)  # read twice below
    last = {letter: i for i, letter in enumerate(word)}
    frontier = eps_closure(a, [initial_config(a)])
    for i, letter in enumerate(word):
        nxt = step(a, frontier, letter, last[letter] == i)
        if not nxt:
            return False
        frontier = eps_closure(a, nxt)
    return any(q in a.finals for q, _ in frontier)


class TraceStep(NamedTuple):
    """One move of a run: `letter` is None for silent reset steps."""

    transition: Transition
    letter: Optional[Name]
    config: Configuration


def trace(a: Hra, word: Sequence[Name]) -> Optional[tuple[TraceStep, ...]]:
    """An accepting run over `word`, or None.

    membership(a, w) is true exactly when this returns a run.  The search
    is `explore` over (state, (assignment, letters read, place-set of the
    next letter)), so the run is the first-discovered path to the first
    accepting pair discovered: no accepting run has fewer moves, resets and
    letters alike.  It runs on `a._numbered`, which lists each state's
    transitions in `repr` order, so every process finds the same run, and
    names the run's states as `a` does.

    As in `membership`, each name is forgotten at its last occurrence in
    the word.  Forgetting maps the search over full assignments onto this
    one edge for edge, so the fewest moves are the same, and on words of
    distinct names the search no longer doubles with each letter.  The
    configurations of the run are rebuilt with every name by replaying its
    transitions from the initial configuration.
    """
    word = tuple(word)
    last = {letter: i for i, letter in enumerate(word)}

    def at(h, k):
        """A pair's annotation: the assignment, the letters read and the
        place-set of the next letter (None once the word is read)."""
        return h, k, h.placeset_of(word[k]) if k < len(word) else None

    def moves(q, f, t):
        h, k, x = f
        if isinstance(t.label, Reset):
            y = t.label.targets  # the next letter leaves the places a reset empties
            return [((t, None), (h.reset_places(y), k, None if x is None else x - y))]
        if x == t.label.pre:
            put = h.forget_name if last[word[k]] == k else h.move_name
            return [((t, word[k]), at(put(word[k], t.label.post, a.m), k + 1))]
        return []

    b = a._numbered
    reached, _ = explore(b._outgoing, (b.initial, at(b.initial_assignment, 0)), moves)
    goal = next((p for p in reached if p[0] in b.finals and p[1][1] == len(word)), None)
    if goal is None:
        return None
    chosen, node = [], goal
    while reached[node] is not None:
        node, move = reached[node]
        chosen.append(move)
    steps, h, state = [], a.initial_assignment, a._states
    for t, letter in reversed(chosen):
        t = Transition(state[t.src], t.label, state[t.dst])
        h = (h.reset_places(t.label.targets) if letter is None
             else h.move_name(letter, t.label.post, a.m))
        steps.append(TraceStep(t, letter, (t.dst, h)))
    return tuple(steps)


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
    whose targets union to Y (includes (empty, q)).  Each call builds a new
    dict from the automaton's cached table `Hra._closure`."""
    closure = a._closure
    return {q: frozenset([(frozenset(), q), *closure.get(q, ())]) for q in a.states}


# ---------------------------------------------------------------------------
# words under renaming


def permute_word(word: Sequence[Name], perm: Mapping[Name, Name]) -> Word:
    """Apply a (finite-support) name permutation letter-wise."""
    return tuple(perm.get(x, x) for x in word)
