"""Translations between automata and counter machines, and the emptiness
pipeline built on one of them.

The common shape: a non-empty place-set X corresponds to a counter whose
value tracks how many names sit at exactly X, and a name whose place-set
becomes empty is forgotten, since no later step can read it.  Every
translation to a counter machine emits at most one edge per automaton
transition (per reached skeleton pair in the skeleton translation): taking
a name from X, the pours and wipes of a reset, names evicted from
registers and putting a name at X′ together form one `Effect`
(`DimensionMap.effect`), since its takes come first, then its moves, then
its puts.  Each translation ends the same way: zero-effect edges lead from
the images of the final states to one target control state, so the
language is non-empty exactly when that state is coverable from the
initial configuration.  The map builds each distinct effect once, valid by
construction, and shares one object per distinct value, so `_reduction`
builds the machine without `CounterMachine.make`, which would validate
every effect a second time; `make` is for machines built by hand.

There is one skeleton translation, `restricted_hra_to_rvass`.  It folds
register structure, being finite, into the control state as a skeleton,
and gives a counter only to the history place-sets that a later step can
read: a name parked anywhere else is dropped, which is exact since it is
never consumed again.  One search over (state, skeleton) pairs gives its
control states and edges, so a pair that only edges with a dead take
reach is a control state that no run from the initial one enters.  On a
unary automaton its machine is the paper's one-counter R-VASS, and
`nonreset_to_vass` is the same translation behind a check of its class.
`hra_to_trvass` keeps the automaton's own states and a counter for every
non-empty place-set, registers included, a register write moving the
name it evicts; it is the unpruned reference the skeleton translation is
checked against.

`emptiness` has one pipeline: `restricted_hra_to_rvass`, then backward
coverability, which is exact on every automaton.  On the paper's
restricted class the machine has resets only (an R-VASS); a reset that
wipes some histories but not all becomes transfers, which backward
coverability decides just as well, since transfers and resets are both
monotone.  It takes no options: the bounded word search of
`oracles.bounded_emptiness` is the tests' oracle, not a second path here.
The other translations are kept as library results and cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Iterable

from .constructions import StateTag, _explored, _path
from .core import (
    Accept, Assignment, Hra, Reset, State, Transition, _cut_closure, classify, explore, subsets,
)
from .counters import (
    CounterConfig, CounterMachine, CTransition, Effect, Units, Vector, _check_init,
    backward_coverability,
)
from .errors import (
    NonUnitEffect,
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
    """Which place-set each counter dimension stands for.  No counter
    counts the names at ∅: a name whose place-set becomes empty is
    forgotten.  Only `restricted_hra_to_rvass` gives ∅ a counter, its one
    inert counter when no place-set is readable, since a machine needs a
    dimension; no edge touches it.
    The place-set → dimension index, the same index keyed by place bitmask
    (bit p for place p), the moves of each reset and the effect of each
    edge spelling are built once per map; none is a field, so equality,
    hashing and repr see `placesets` only.  Both translations to a counter
    machine spell their edges through `effect`, and nothing validates
    those effects again: `effect` builds only canonical ones."""

    placesets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        index = {x: d for d, x in enumerate(self.placesets, 1)}
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_masks", {_mask(x): d for x, d in index.items()})
        object.__setattr__(self, "_resets", {})
        object.__setattr__(self, "_effects", {})  # one build per distinct spelling
        object.__setattr__(self, "_shared", {})  # one object per distinct effect

    def dim_of(self, x: frozenset[int]) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise WrongDimension(f"place-set {sorted(x)} has no dimension") from None

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

    def units(self, xs: Iterable[frozenset[int] | None]) -> Units:
        """One unit at the dimension of each place-set in `xs`, as an
        effect's sorted (dimension, amount) pairs.  An entry ∅ (a forgotten
        name) or None (a name no counter holds) adds nothing."""
        count: dict[int, int] = {}
        for x in filter(None, xs):
            d = self.dim_of(x)
            count[d] = count.get(d, 0) + 1
        return tuple(sorted(count.items()))

    def effect(self, take: frozenset[int] | None, moved: frozenset[int] | None,
               puts: Iterable[frozenset[int]]) -> Effect:
        """The one spelling of a counter edge: take a unit from the counter
        of `take`, then make the moves of a reset of `moved`, then put a
        unit on the counter of each of `puts`.  A take or moved set that is
        None or ∅ does nothing, and a put at a place-set with no counter is
        dropped: its name is never read again.

        The result is canonical by construction, what `Effect.canonical`
        would return: `units` sorts its pairs, `reset_moves` lists its
        sources in dimension order, and a reset of Y sends X to X∖Y ≠ X,
        which no move takes from.  Each spelling is built once, and equal
        effects of different spellings are one object."""
        key = (take, moved, tuple(puts))
        eff = self._effects.get(key)
        if eff is None:
            eff = Effect(self.units([take]), self.reset_moves(moved) if moved else (),
                         self.units(filter(self._index.__contains__, key[2])))
            eff = self._effects[key] = self._shared.setdefault(eff, eff)
        return eff

    def vector(self, xs: Iterable[frozenset[int]]) -> Vector:
        """`units(xs)` spelled out over every dimension: a configuration's
        vector."""
        v = [0] * len(self.placesets)
        for d, x in self.units(xs):
            v[d - 1] = x
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
    transitions: list[CTransition],
    finals: Iterable[State],
    init: CounterConfig,
) -> CounterReduction:
    """Close a translation: a zero-effect edge from every final control
    state to the target `StateTag("target", ())`, then the machine.
    `states` are the control states, edgeless ones and ones that `init`
    cannot reach included.  Every effect, the zero one too, comes from
    `dmap.effect`, so it is canonical and shared already, and the machine
    is built by its constructor, which still rejects a map with no
    dimension."""
    goal = StateTag("target", ())
    zero = dmap.effect(None, None, ())
    edges = transitions + [CTransition(q, zero, goal) for q in finals]
    mc = CounterMachine(len(dmap.placesets), frozenset({goal, *states}), frozenset(edges))
    return CounterReduction(mc, init, goal, dmap)


# ---------------------------------------------------------------------------
# full emptiness: history automata to transfer machines


def hra_to_trvass(a: Hra) -> CounterReduction:
    """One counter per non-empty subset of all m + n places, registers
    included, and one edge per transition.  A letter X → X′ takes a unit
    from the counter of X, pours every counter that meets the registers
    R′ of X′ into the counter of its place-set without R′, and puts a unit
    on the counter of X′.  The take comes first, so the pour evicts only
    the other names that R′ held, as `Assignment.move_name` does.  A reset
    of Y pours every counter X that meets Y into the counter of X∖Y, or
    zeroes it when X ⊆ Y.  Without registers no letter pours, and the
    machine of a history-only automaton of the restricted class is an
    R-VASS.

    This is exact.  By induction on the length of a run, counter X counts
    the names at exactly X.  A letter moves the name it reads from X to
    X′, and its write to R′ moves every other name at a Z that meets R′
    to Z∖R′; a reset of Y moves every name at Z to Z∖Y.  The edge does
    just that to the counts, and the automaton's own semantics keeps each
    register at one name or none, so the machine needs no bound of its
    own.  A name whose place-set becomes ∅ is forgotten: no edge takes
    from ∅, since a letter whose pre is ∅ reads a fresh name, so a ∅
    count would never enable or block an edge.  Unlike
    `restricted_hra_to_rvass`, nothing is pruned: this is the reference
    the other translations are checked against."""
    regs = frozenset(range(a.m + 1, a.m + a.n + 1))
    dmap = DimensionMap(tuple(subsets(a.places)[1:]))
    transitions: list[CTransition] = []
    for t in a.transitions:
        if isinstance(t.label, Accept):
            x, x2 = t.label.pre, t.label.post
            eff = dmap.effect(x, x2 & regs, [x2])
        else:
            eff = dmap.effect(None, t.label.targets, ())
        transitions.append(CTransition(t.src, eff, t.dst))
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
        if sum(x for _, x in e.pre + e.post) + len(e.dest) > 1:
            raise NonUnitEffect(f"{e!r} is more than one unit step")
        by_state_resets.setdefault(t.src, set()).update(i for i, _ in e.dest)
    multi = any(len(d) >= 2 for d in by_state_resets.values())
    m = max(mc.dims, 4 if multi else 3)

    _check_init(mc, init, target_state)
    q0, v0 = init

    transitions: list[Transition] = []
    mids: dict = {}
    for t in mc.transitions:
        take = frozenset(i for i, _ in t.effect.pre)
        put = frozenset(i for i, _ in t.effect.post)
        if not t.effect.dest:
            lab = Accept(take, put) if take or put else Reset(frozenset())
            transitions.append(Transition(t.src, lab, t.dst))
        else:
            ((i, _),) = t.effect.dest
            hops = [_neigh((i - 2) % m + 1, m), _neigh(i, m), _neigh(i % m + 1, m)]
            labels = (Reset(frozenset({i})), *(Accept(nb - {i}, nb) for nb in hops))
            transitions += _path(t.src, labels, t.dst, ("reset", t), mids)

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
        states=frozenset([*mc.states, *mids.values()]),
        initial=q0,
        initial_assignment=Assignment.of(m, {k: v for k, v in contents.items() if v}),
        transitions=frozenset(transitions),
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
    produced = _cut_closure(set(initial).union(*(puts for _, _, puts in steps)), resets)
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

    One search over (state, skeleton) pairs gives the machine: every pair
    it reaches is a control state, and each of its edges is one counter
    edge.  Only the readable place-sets R of `_readable_placesets` get a
    counter, computed over the edges of that search.  A put into a set
    outside R is dropped, a reset move into one becomes a zeroing, and an
    edge whose take lies outside the produced sets P is dropped.  A pair
    that only such dead edges reach stays as a control state that `init`
    cannot reach.

    This is exact.  By induction on the length of a run: every name that
    sits at a pure place-set sits at one in P, and a pure name at X ∉ R is
    never read again.  A letter reads a pure name only at its pre, which
    is in R when it is in P; a take outside P never fires, so neither its
    edge nor a pair only such edges reach lies on any run.  A letter that
    reads another name leaves it where it is.  A reset of Y either misses
    X, or moves the name to X∖Y, which is empty (the name is forgotten) or
    again in P∖R, since R is closed backward.  So the counters of R count
    exactly the names at each X ∈ R, and dropping the rest changes no step
    that can fire.

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
    reached, edges = explore(a._outgoing, start, moves)
    initial = [x for x in map(h0.placeset_of, h0.names()) if pure(x)]
    readable = _readable_placesets(initial, [step for _, step, _ in edges])
    dmap = DimensionMap(tuple(readable) or (frozenset(),))
    kept = set(readable)
    tags = {p: StateTag("st", p) for p in reached}
    transitions = [CTransition(tags[p], dmap.effect(take, y, puts), tags[d])
                   for p, (take, y, puts), d in edges
                   if take is None or take in kept]  # a take outside R is outside P
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
    over ceil(log2(m+1)) histories.  An edge is a `_path` of one
    single-name step per unit, its `pre` first, then its `post`; its mids
    are named without the source, so edges into one state share the mids
    of their common suffix."""
    if not mc.is_vass():
        raise TransfersOrResetsPresent("input must be a plain addition machine")
    _check_init(mc, init, target_state)
    q0, v0 = init
    mprime = max(1, math.ceil(math.log2(mc.dims + 1)))

    def code(i: int) -> frozenset[int]:
        return frozenset(p + 1 for p in range(mprime) if i >> p & 1)

    nodes = {q: StateTag("v", (q,)) for q in mc.states}
    mids: dict = {}
    transitions: list[Transition] = []
    for t in mc.transitions:
        e = t.effect
        labels = tuple(Accept(code(i), frozenset()) for i, x in e.pre for _ in range(x))
        labels += tuple(Accept(frozenset(), code(i)) for i, x in e.post for _ in range(x))
        transitions += _path(nodes[t.src], labels or (Accept(frozenset(), frozenset()),),
                             nodes[t.dst], "v", mids)

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
        states=frozenset([*nodes.values(), *mids.values()]),
        initial=nodes[q0],
        initial_assignment=Assignment.of(mprime, contents),
        transitions=frozenset(transitions),
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
    is_empty: bool
    engine: str  # always "restricted"


def emptiness(a: Hra) -> EmptinessResult:
    """Is the language empty?  Exact on every automaton: the machine of
    `restricted_hra_to_rvass` (an R-VASS on the restricted class, with
    other resets turned into transfers), then backward coverability of its
    target."""
    red = restricted_hra_to_rvass(a)
    covered = backward_coverability(red.machine, red.init, red.target)
    return EmptinessResult(not covered, "restricted")
