"""Translations between automata and counter machines, and the emptiness
pipeline built on one of them.

The common shape: a non-empty place-set X ⊆ histories corresponds to a
counter whose value tracks how many names sit at exactly X, and a name
whose place-set becomes empty is forgotten, since no later step can read
it.  Register structure, being finite, is folded into the control state as
a skeleton.  Every translation to a counter machine emits at most one edge
per automaton transition (per reached skeleton pair in the skeleton
translation): taking a name from X, the pours and wipes of a reset, names
released from registers and putting a name at X′ together form one
`Effect`, since its takes come first, then its moves, then its puts.  Each
translation ends the same way: zero-effect edges lead from the images of
the final states to one target control state, so the language is
non-empty exactly when that state is coverable from the initial
configuration.

There is one skeleton translation, `restricted_hra_to_rvass`, and it gives
a counter only to the place-sets that a later step can read: a name parked
anywhere else is dropped, which is exact since it is never consumed again.
On a unary automaton its machine is the paper's one-counter R-VASS, and
`nonreset_to_vass` is the same translation behind a check of its class.
`hra_to_trvass` keeps a counter for every non-empty history subset; it is
the unpruned reference the others are checked against.

`emptiness` decides every automaton the same way: the skeleton reduction
`restricted_hra_to_rvass`, then backward coverability.  On the paper's
restricted class the machine has resets only (an R-VASS); a reset that
wipes some histories but not all becomes transfers, which backward
coverability decides just as well, since transfers and resets are both
monotone.  The other translations are kept as library results and
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Optional

from .constructions import StateTag, _explored
from .core import (
    Accept, Assignment, Hra, Reset, State, Transition, by_src, classify, explore,
    subsets,
)
from .counters import (
    CounterConfig, CounterMachine, CTransition, Effect, Vector, backward_coverability,
)
from .errors import (
    DanglingState,
    NonUnitEffect,
    RegistersPresent,
    ResetsPresent,
    ScopeViolation,
    TransfersOrResetsPresent,
    WrongDimension,
    retired,
)
from .skeletons import Skeleton, skel_at, skel_move, skel_reset, skeleton_of


# ---------------------------------------------------------------------------
# dimension bookkeeping


def _mask(x: frozenset[int]) -> int:
    return sum([1 << p for p in x])


@dataclass(frozen=True)
class DimensionMap:
    """Which place-set each counter dimension stands for.  No translation
    gives ∅ a counter: a name whose place-set becomes empty is forgotten.
    The place-set → dimension index, the same index keyed by place bitmask
    (bit p for place p) and the moves of each reset are built once per map;
    none is a field, so equality, hashing and repr see `placesets` only."""

    placesets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        index = {x: d for d, x in enumerate(self.placesets, 1)}
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_masks", {_mask(x): d for x, d in index.items()})
        object.__setattr__(self, "_resets", {})

    def dim_of(self, x: frozenset[int]) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise ValueError(f"place-set {sorted(x)} has no dimension") from None

    def reset_moves(self, y: frozenset[int]) -> tuple[tuple[int, int], ...]:
        """The moves of a reset of `y`: every counter whose place-set X
        meets `y` goes to the counter of X∖Y, or is zeroed (0) when X∖Y has
        no counter.  X∖Y never meets `y`, so no counter both moves and
        receives."""
        moves = self._resets.get(y)
        if moves is None:
            masks, my = self._masks, _mask(y)
            moves = self._resets[y] = tuple(
                [(d, masks.get(mx & ~my, 0)) for mx, d in masks.items() if mx & my]
            )
        return moves

    def vector(self, xs: Iterable[frozenset[int]]) -> Vector:
        """One unit at the dimension of each place-set in `xs`."""
        v = [0] * len(self.placesets)
        for x in xs:
            v[self.dim_of(x) - 1] += 1
        return tuple(v)


@dataclass(frozen=True)
class CounterReduction:
    """A counter machine in which the one control state `target` is
    coverable from `init` exactly when the source automaton accepts a word."""

    machine: CounterMachine
    init: CounterConfig
    target: State
    dimension_map: DimensionMap


def _reduction(
    dmap: DimensionMap,
    states: Iterable[State],
    transitions: list,
    finals: Iterable[State],
    init: CounterConfig,
) -> CounterReduction:
    """Close a translation: a zero-effect edge from every final control
    state to the target `StateTag("target", ())`, then the machine.
    `states` are the control states, edgeless ones included."""
    goal = StateTag("target", ())
    edges = transitions + [(q, Effect((), (), ()), goal) for q in finals]
    mc = CounterMachine.make(len(dmap.placesets), {goal, *states}, edges)
    return CounterReduction(mc, init, goal, dmap)


# ---------------------------------------------------------------------------
# full emptiness: history automata to transfer machines


def hra_to_trvass(a: Hra) -> CounterReduction:
    """One counter per non-empty subset of histories.  Each transition is
    one edge: a letter takes a unit from the counter of its pre-set and
    puts one on the counter of its post-set, and a reset of Y pours every
    counter X that meets Y into the counter of X∖Y, or zeroes it when
    X ⊆ Y.

    A name whose place-set becomes ∅ is forgotten, and this is exact: no
    edge could take from a ∅ counter, since a letter whose pre is ∅ reads
    a fresh name, which no counter holds, and no reset moves ∅.  So a ∅
    count would never enable or block an edge.  With no counter to pour
    into, a reset that wipes every history only zeroes, and the machine
    of a history-only automaton of the restricted class is an R-VASS.
    Unlike `restricted_hra_to_rvass`, nothing is pruned: this is the
    reference the other translations are checked against.  With no
    history at all, one inert counter stands in, since a machine needs a
    dimension."""
    if a.n > 0:
        raise RegistersPresent("translation expects a history-only automaton")
    dmap = DimensionMap(tuple(subsets(range(1, a.m + 1))[1:]) or (frozenset(),))
    transitions: list[tuple[State, object, State]] = []
    for t in a.transitions:
        if isinstance(t.label, Accept):
            x, x2 = t.label.pre, t.label.post
            eff = Effect(dmap.vector([x] if x else []), (), dmap.vector([x2] if x2 else []))
        else:
            eff = Effect((), dmap.reset_moves(t.label.targets), ())
        transitions.append((t.src, eff, t.dst))
    h0 = a.initial_assignment
    init = (a.initial, dmap.vector(map(h0.placeset_of, h0.names())))
    return _reduction(dmap, a.states, transitions, a.finals, init)


# ---------------------------------------------------------------------------
# converse: unit-effect reset machines back to automata


def _neigh(i: int, m: int) -> frozenset[int]:
    prev = (i - 2) % m + 1
    nxt = i % m + 1
    return frozenset({prev, i, nxt})


def rvass_to_hra(mc: CounterMachine, init: CounterConfig, target_state: State) -> Hra:
    """Encode counter i as the number of names sitting in exactly history i.

    Each dimension also keeps a persistent code name spread over the
    three-place neighborhood {i-1, i, i+1} (cyclically), which a reset
    consumes and rebuilds while wiping the counter names.  Machines are
    padded with inert dimensions: to at least 3 so the neighborhoods exist,
    and to 4 when some state carries resets on two distinct dimensions
    (with only 3, those neighborhoods collide and determinism would break).
    """
    if not mc.is_rvass():
        raise NonUnitEffect("transfers cannot be encoded")
    by_state_resets: dict[State, set[int]] = {}
    for t in mc.transitions:
        e = t.effect
        if sum(e.pre) + len(e.dest) + sum(e.post) > 1:
            raise NonUnitEffect(f"{e!r} is more than one unit step")
        by_state_resets.setdefault(t.src, set()).update(i for i, _ in e.dest)
    multi = any(len(d) >= 2 for d in by_state_resets.values())
    m = max(mc.dims, 4 if multi else 3)

    q0, v0 = init
    if len(v0) != mc.dims:
        raise WrongDimension(f"initial vector has arity {len(v0)}, expected {mc.dims}")
    if not {q0, target_state} <= mc.states:
        raise DanglingState(f"{q0!r} or {target_state!r} is not a state of the machine")

    transitions: list[tuple[State, object, State]] = []
    states: set[State] = set(mc.states)
    for t in mc.transitions:
        take = frozenset(i + 1 for i, x in enumerate(t.effect.pre) if x)
        put = frozenset(i + 1 for i, x in enumerate(t.effect.post) if x)
        if not t.effect.dest:
            lab = Accept(take, put) if take or put else Reset(frozenset())
            transitions.append((t.src, lab, t.dst))
        else:
            ((i, _),) = t.effect.dest
            hops = [_neigh((i - 2) % m + 1, m), _neigh(i, m), _neigh(i % m + 1, m)]
            labels = [Reset(frozenset({i}))] + [Accept(nb - {i}, nb) for nb in hops]
            path = [t.src] + [StateTag("mid", ("reset", t, k)) for k in range(3)] + [t.dst]
            transitions += zip(path, labels, path[1:])
            states.update(path)

    contents: dict[int, set[int]] = {i: set() for i in range(1, m + 1)}
    name = count()
    for i in range(1, m + 1):
        budget = v0[i - 1] if i <= mc.dims else 0
        for _ in range(budget):
            contents[i].add(next(name))
    for i in range(1, m + 1):
        code = next(name)
        for p in _neigh(i, m):
            contents[p].add(code)
    return Hra(
        m=m,
        n=0,
        states=frozenset(states),
        initial=q0,
        initial_assignment=Assignment.of(m, {k: v for k, v in contents.items() if v}),
        transitions=frozenset(Transition(s, lab, d) for s, lab, d in transitions),
        finals=frozenset({target_state}),
    )


# ---------------------------------------------------------------------------
# the restricted discipline: skeleton-enriched reset machines


def restriction_ok(a: Hra) -> bool:
    """Every reset either avoids all histories or wipes them all."""
    hist = frozenset(range(1, a.m + 1))
    for t in a.transitions:
        if isinstance(t.label, Reset) and t.label.targets & hist:
            if not hist <= t.label.targets:
                return False
    return True


def _readable_placesets(initial, steps) -> list[frozenset[int]]:
    """The place-sets that get a counter, in `subsets` order.

    `initial` lists the pure place-sets of the initial names; each of
    `steps` is one machine edge's (take, reset targets, puts), a missing
    take or reset being None.  The produced sets P are `initial` and every
    put, closed under X ↦ X∖Y for each reset target Y.  The readable sets
    R ⊆ P are the takes in P, closed backward: X is in R when X∖Y is in R
    for some reset target Y that meets X."""
    resets = {y for _, y, _ in steps if y}
    produced = set(initial).union(*(puts for _, _, puts in steps))
    todo = list(produced)
    while todo:
        x = todo.pop()
        for y in resets:
            z = x - y
            if z and z not in produced:
                produced.add(z)
                todo.append(z)
    readable = {x for x, _, _ in steps if x in produced}
    while more := {x for x in produced - readable
                   if any(x & y and x - y in readable for y in resets)}:
        readable |= more
    return sorted(readable, key=lambda x: (len(x), sorted(x)))


def restricted_hra_to_rvass(a: Hra) -> CounterReduction:
    """The skeleton translation: register structure rides along in the
    control state as a skeleton, the set of place-sets of the names the
    registers hold, and a counter for a pure history place-set X counts the
    names that sit at exactly X.  A name is taken from its counter when its
    place-set is pure history, and looked up in the skeleton when it meets
    a register; a register name that loses its last register is released
    into the counter of the history places it keeps.  A reset pours every
    counter whose place-set X meets the targets Y into the counter for X∖Y
    (a transfer), or zeroes it when X ⊆ Y.

    Only the readable place-sets R of `_readable_placesets` get a counter,
    computed over the edges the skeleton search reaches.  A put into a set
    outside R is dropped, a reset move into one becomes a zeroing, and an
    edge whose take lies outside the produced sets P is dropped (with the
    control states only it led to).  This is exact.  By induction on the
    length of a run: every name that sits at a pure place-set sits at one
    in P, and a pure name at X ∉ R is never read again.  A letter reads a
    pure name only at its pre, which is in R when it is in P.  A letter
    that reads another name leaves it where it is.  A reset of Y either
    misses X, or moves the name to X∖Y, which is empty (the name is
    forgotten) or again in P∖R, since R is closed backward.  So the
    counters of R count exactly the names at each X ∈ R, and dropping the
    rest changes no step that can fire.

    On the restricted class (`restriction_ok`) every reset wipes all
    histories, so no move has a target and the machine is an R-VASS; any
    other reset whose moved set stays readable makes it a TR-VASS."""
    m, n = a.m, a.n
    hist = frozenset(range(1, m + 1))

    def pure(x: frozenset[int]) -> bool:
        return bool(x) and x <= hist

    def evictions(phi: Skeleton, moved: frozenset[int], wiped: frozenset[int]) -> list:
        """The pure history sets that register names other than `moved` are
        released into when `wiped` is emptied."""
        return [y - wiped for y in phi.placesets
                if y != moved and y & wiped and pure(y - wiped)]

    def moves(q, phi, t):
        """One (take, reset targets, puts) step per transition."""
        if isinstance(t.label, Reset):
            y = t.label.targets
            return [((None, y, evictions(phi, frozenset(), y)), skel_reset(phi, y))]
        x, x2 = t.label.pre, t.label.post
        if x and not x <= hist and not skel_at(phi, x):
            return []  # no register name can sit at exactly x here
        puts = evictions(phi, x, x2 - hist) + ([x2] if pure(x2) else [])
        return [((x if pure(x) else None, None, puts), skel_move(phi, x, x2))]

    h0 = a.initial_assignment
    start = (a.initial, skeleton_of(h0, m, n))
    _, edges = explore(a._outgoing, start, moves)
    initial = [x for x in map(h0.placeset_of, h0.names()) if pure(x)]
    readable = _readable_placesets(initial, [step for _, step, _ in edges])
    dmap = DimensionMap(tuple(readable) or (frozenset(),))
    kept = set(readable)

    def effect(take, y, puts) -> Effect:
        return Effect(dmap.vector([take] if take else []),
                      dmap.reset_moves(y) if y else (),
                      dmap.vector([z for z in puts if z in kept]))

    adj = by_src(CTransition(p, effect(take, y, puts), d) for p, (take, y, puts), d in edges
                 if take is None or take in kept)  # a take outside R is outside P
    # the pairs still reachable over the kept edges
    reached, out = explore(adj, (start, None), lambda p, _, t: [(t.effect, None)])
    tags = {p: StateTag("st", p) for p, _ in reached}
    transitions = [(tags[p], eff, tags[d]) for (p, _), eff, (d, _) in out]
    finals = [tags[p] for p in tags if p[0] in a.finals]
    init = (tags[start], dmap.vector([x for x in initial if x in kept]))
    return _reduction(dmap, tags.values(), transitions, finals, init)


# the removed check for one history, kept as a name for `benchmarks/tracing.py`
unary_to_one_rvass = retired("unary_to_one_rvass", "restricted_hra_to_rvass")


# ---------------------------------------------------------------------------
# non-reset automata and plain vector addition


def nonreset_to_vass(a: Hra) -> CounterReduction:
    """The paper's reduction of emptiness for non-reset automata to VASS
    coverability.  With no proper reset, the skeleton machine of `restricted_hra_to_rvass`
    only takes and puts, so it is a VASS, registers or not.  Its counters
    are the pure label pres that some step fills: a name parked at any
    other place-set can never be consumed again."""
    if not classify(a).non_reset:
        raise ResetsPresent("automaton has proper resets")
    return restricted_hra_to_rvass(a)


def vass_to_nonreset_hra(mc: CounterMachine, init: CounterConfig, target_state: State) -> Hra:
    """Counter i becomes the population of the place-set with bit pattern i
    over ceil(log2(m+1)) histories.  An edge stages through shared suffixes
    as one single-name step per unit: its `pre` first, then its `post`."""
    if not mc.is_vass():
        raise TransfersOrResetsPresent("input must be a plain addition machine")
    q0, v0 = init
    if len(v0) != mc.dims:
        raise WrongDimension(f"initial vector has arity {len(v0)}, expected {mc.dims}")
    if not {q0, target_state} <= mc.states:
        raise DanglingState(f"{q0!r} or {target_state!r} is not a state of the machine")
    mprime = max(1, math.ceil(math.log2(mc.dims + 1)))

    def code(i: int) -> frozenset[int]:
        return frozenset(p + 1 for p in range(mprime) if i >> p & 1)

    nodes = {q: StateTag("v", (q,)) for q in mc.states}
    stages: dict[tuple, StateTag] = {}  # shared suffixes: one tag per (state, rest)

    def stage(q, rest):
        return stages.setdefault((q, rest), StateTag("vstage", (q, rest)))

    transitions: list[tuple[State, object, State]] = []
    for t in mc.transitions:
        e = t.effect
        pending = tuple((i + 1, -1) for i, x in enumerate(e.pre) for _ in range(x))
        pending += tuple((i + 1, +1) for i, x in enumerate(e.post) for _ in range(x))
        if not pending:
            transitions.append((nodes[t.src], Accept(frozenset(), frozenset()), nodes[t.dst]))
            continue
        cur = nodes[t.src]
        for idx, (d, sign) in enumerate(pending):
            rest = pending[idx + 1:]
            nxt = nodes[t.dst] if not rest else stage(t.dst, rest)
            lab = (
                Accept(frozenset(), code(d)) if sign > 0 else Accept(code(d), frozenset())
            )
            transitions.append((cur, lab, nxt))
            cur = nxt

    contents: dict[int, set[int]] = {}
    fresh = count()
    for i in range(1, mc.dims + 1):
        for _ in range(v0[i - 1]):
            a_name = next(fresh)
            for p in code(i):
                contents.setdefault(p, set()).add(a_name)
    return Hra(
        m=mprime,
        n=0,
        states=frozenset([*(nodes[q] for q in mc.states), *stages.values()]),
        initial=nodes[q0],
        initial_assignment=Assignment.of(mprime, contents),
        transitions=frozenset(Transition(s, lab, d) for s, lab, d in transitions),
        finals=frozenset({nodes[target_state]}),
    )


# ---------------------------------------------------------------------------
# register elimination by colouring (non-reset scope)


_COLOURS = ("r", "b", "y")


def colouring_scope_ok(a: Hra) -> bool:
    if not classify(a).non_reset:
        return False
    for i in range(a.m + 1, a.m + a.n + 1):
        if a.initial_assignment.place(i):
            return False
    for t in a.transitions:
        if isinstance(t.label, Accept):
            if len(t.label.pre - frozenset(range(1, a.m + 1))) > 1:
                return False
            if len(t.label.post - frozenset(range(1, a.m + 1))) > 1:
                return False
    return True


def eliminate_registers_colouring(a: Hra) -> Hra:
    """Replace each register with three history pools (one "live-read"
    colour and two stale pools) so that a non-reset automaton needs no
    registers at all.  Language-preserving on the proof's scope: non-reset,
    registers initially empty, at most one register per label side."""
    if a.n == 0:
        return a
    if not colouring_scope_ok(a):
        raise ScopeViolation(
            "needs a non-reset automaton with empty initial registers and "
            "at most one register on each label side"
        )
    m, n = a.m, a.n
    hist = frozenset(range(1, m + 1))
    size = m + 3 * n

    def pool(reg: int, colour: str) -> int:
        return m + 3 * (reg - 1) + 1 + _COLOURS.index(colour)

    def moves(q, f, t):
        if isinstance(t.label, Reset):  # scope guarantees it is empty
            return [(t.label, f)]
        xh, xr = t.label.pre & hist, t.label.pre - hist
        x2h, x2r = t.label.post & hist, t.label.post - hist
        reads: list[tuple[frozenset[int], tuple]] = []
        if xr:
            i = next(iter(xr)) - m
            if f[i - 1] == "r":
                f_read = f[: i - 1] + ("",) + f[i:]
                reads.append((xh | {pool(i, "r")}, f_read))
        else:
            reads.append((xh, f))
            for i in range(1, n + 1):
                for c in ("b", "y"):
                    if c != f[i - 1]:
                        reads.append((xh | {pool(i, c)}, f))
        out = []
        for pre, f2 in reads:
            if not x2r:
                out.append((Accept(pre, x2h), f2))
                continue
            j = next(iter(x2r)) - m
            if f2[j - 1] == "r":
                continue  # would overwrite a name promised to a read
            for c in _COLOURS:
                out.append((Accept(pre, x2h | {pool(j, c)}), f2[: j - 1] + (c,) + f2[j:]))
        return out

    return _explored("col", a._outgoing, (a.initial, ("",) * n), moves,
                     lambda p: p[0] in a.finals, size, 0,
                     Assignment(a.initial_assignment.contents[:m] + (frozenset(),) * (3 * n)))


# ---------------------------------------------------------------------------
# emptiness


@dataclass(frozen=True)
class EmptinessResult:
    is_empty: Optional[bool]  # None only from the bounded engine
    engine: str


def emptiness(a: Hra, engine: str = "auto", bound: int = 8) -> EmptinessResult:
    """Is the language empty?

    engine="auto" (reported as "restricted") is exact on every automaton:
    `restricted_hra_to_rvass`, whose machine is an R-VASS on the restricted
    class and turns other resets into transfers, then backward
    coverability.  engine="bounded" runs `bounded_emptiness` with `bound`
    letters and answers None when that proves nothing."""
    if engine == "auto":
        red = restricted_hra_to_rvass(a)
        covered = backward_coverability(red.machine, red.init, red.target)
        return EmptinessResult(not covered, "restricted")
    if engine == "bounded":
        from .oracles import bounded_emptiness

        verdicts = {"nonempty": False, "empty_within_bound": True}
        return EmptinessResult(verdicts.get(bounded_emptiness(a, bound).kind), engine)
    raise ValueError(f"unknown engine {engine!r}")
