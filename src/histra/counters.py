"""Counter machines whose edges are reset/transfer-net steps, and backward
coverability, the one procedure that decides them for the reductions.

Configurations are (state, vector) pairs over non-negative ints.  Every
edge carries one `Effect`, the affine step v ↦ M(v − pre) + post of
Finkel, McKenzie and Picaronny (*A well-structured framework for analysing
Petri net extensions*, Inf. Comput. 2004): take `pre` away, move or zero
some counters all at once, add `post`.  An effect is sparse: `pre`, `dest`
and `post` list only the counters it touches, numbered from 1, so its size
follows those counters and not the machine's width.  `Add`, `Transfer` and
`ResetDim` build the three classic special cases.  The machine class
follows from the moves: none gives a plain VASS, zeroing only an R-VASS,
and transfers a TR-VASS.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Hashable, Iterable, NamedTuple, Optional

from .errors import DanglingState, SelfTransfer, ValidationError, WrongDimension, retired

State = Hashable
Vector = tuple[int, ...]
Units = tuple[tuple[int, int], ...]
CounterConfig = tuple[State, Vector]


class Effect(NamedTuple):
    """Subtract `pre`, which must leave every counter ≥ 0; then, all at
    once, send counter i to counter j for each pair (i, j) of `dest`, or
    zero it when j = 0, while the counters not listed stay put; then add
    `post`.  `pre` and `post` are sparse: sorted (counter, amount) pairs
    with a positive amount, every other counter taking or getting 0.  All
    three number counters from 1, and none knows the machine's width, so
    () is the zero step of any arity."""

    pre: Units
    dest: tuple[tuple[int, int], ...]
    post: Units

    def canonical(self, dims: int) -> "Effect":
        """This effect as an edge of a `dims`-counter machine, `dest`
        sorted.  Raises when it is no such edge."""
        if dims < 1:
            raise WrongDimension("a counter machine needs at least one dimension")
        for units in (self.pre, self.post):
            last = 0
            for i, x in units:
                if not 1 <= i <= dims:
                    raise WrongDimension(f"counter {i} out of range for {dims} dims")
                if x <= 0:
                    raise ValidationError([f"{self!r}: pre and post amounts must be positive"])
                if i <= last:
                    raise ValidationError([f"{self!r}: pre and post counters must increase"])
                last = i
        dest = self.dest
        sources = {i for i, _ in dest}
        for i, j in dest:
            out = i if not 1 <= i <= dims else j if not 0 <= j <= dims else None
            if out is not None:
                raise WrongDimension(f"counter {out} out of range for {dims} dims")
            if i == j:
                raise SelfTransfer(f"{self!r}: source and destination must differ")
            if j and j in sources:
                raise ValidationError([f"{self!r}: counter {j} is moved and also receives"])
        if len(sources) < len(dest):
            raise ValidationError([f"{self!r}: a counter is moved twice"])
        return Effect(self.pre, tuple(sorted(dest)), self.post)


def Add(vector: Iterable[int]) -> Effect:
    """Component-wise addition of a dense vector, entry k for counter k + 1
    (counters past its end get 0); the result must stay non-negative."""
    v = tuple(vector)
    return Effect(tuple([(i, -x) for i, x in enumerate(v, 1) if x < 0]), (),
                  tuple([(i, x) for i, x in enumerate(v, 1) if x > 0]))


def Transfer(src: int, dst: int) -> Effect:
    """Pour counter `src` into counter `dst`, zeroing `src`.  A `dst` below
    1 is no counter and raises WrongDimension: `ResetDim` zeroes one."""
    if dst < 1:
        raise WrongDimension(f"transfer destination {dst} is no counter; ResetDim zeroes one")
    return Effect((), ((src, dst),), ())


def ResetDim(dim: int) -> Effect:
    """Zero one counter."""
    return Effect((), ((dim, 0),), ())


@dataclass(frozen=True)
class CTransition:
    src: State
    effect: Effect
    dst: State


@dataclass(frozen=True)
class CounterMachine:
    """Its states are the given ones together with every transition
    endpoint.  The constructor checks only that there is a dimension and
    takes the edges as they are: for callers whose effects are canonical
    already, the translations (`reductions.DimensionMap.effect`) and the
    counter-file reader.  `make` validates them first."""

    dims: int
    states: frozenset[State]
    transitions: frozenset[CTransition]

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise WrongDimension("a counter machine needs at least one dimension")
        ends = {q for t in self.transitions for q in (t.src, t.dst)}
        object.__setattr__(self, "states", frozenset(self.states) | ends)

    @staticmethod
    def make(
        dims: int,
        states: Iterable[State],
        transitions: Iterable[tuple[State, Effect, State]],
    ) -> "CounterMachine":
        """Validate the effects and build the machine: the entry point for
        a machine built by hand, whose effects may be in any order or
        invalid.

        Each distinct effect is validated once, and every edge whose effect
        is equal (before or after `Effect.canonical`) shares one canonical
        object.  An invalid effect raises at its first edge, so the error is
        that of the first invalid edge in input order; a machine with no
        dimension raises at its first edge or in the constructor."""
        shared: dict[Effect, Effect] = {}
        ts = []
        for src, eff, dst in transitions:
            canon = shared.get(eff)
            if canon is None:
                canon = eff.canonical(dims)
                canon = shared.setdefault(canon, canon)  # `dest` in another order
                shared[eff] = canon
            ts.append(CTransition(src, canon, dst))
        return CounterMachine(dims, frozenset(states), frozenset(ts))

    def is_vass(self) -> bool:
        return not any(t.effect.dest for t in self.transitions)

    def is_rvass(self) -> bool:
        return not any(j for t in self.transitions for _, j in t.effect.dest)


def _check_range(effect: Effect, dims: int) -> None:
    """Raise WrongDimension, naming the counter as `Effect.canonical`
    does, when `pre` or `post` names a counter outside 1..dims (each is
    sorted, so its first and last pairs bound it), or a move of `dest` has
    its source outside 1..dims or its destination outside 0..dims."""
    pre, dest, post = effect
    bad = (pre and (pre[0][0] < 1 or pre[-1][0] > dims)
           or post and (post[0][0] < 1 or post[-1][0] > dims))
    for i, j in dest:  # a loop: `all` over a generator costs twice as much per call
        if not (0 < i <= dims and 0 <= j <= dims):
            bad = True
    if bad:
        ends = [(units[k][0], 1) for units in (pre, post) if units for k in (0, -1)]
        ends += [end for i, j in dest for end in ((i, 1), (j, 0))]
        i = next(i for i, least in ends if not least <= i <= dims)
        raise WrongDimension(f"counter {i} out of range for {dims} dims")


def _check_init(mc: CounterMachine, init: CounterConfig, *target: State) -> None:
    """Raise WrongDimension unless the vector of `init` has the machine's
    arity, and ValidationError when it has a negative entry; given a
    target state, raise DanglingState unless it and the state of `init` are
    both states of the machine."""
    q0, v0 = init
    if len(v0) != mc.dims:
        raise WrongDimension(f"initial vector has arity {len(v0)}, expected {mc.dims}")
    if min(v0, default=0) < 0:
        raise ValidationError([f"initial vector {tuple(v0)!r} has a negative entry"])
    if target and not {q0, *target} <= mc.states:
        raise DanglingState(f"{q0!r} or {target[0]!r} is not a state of the machine")


def apply_effect(effect: Effect, v: Vector) -> Optional[Vector]:
    """The successor vector, or None when taking `pre` away goes negative.
    Raises WrongDimension when the effect names a counter outside `v`."""
    _check_range(effect, len(v))
    pre, dest, post = effect
    out = list(v)
    for i, x in pre:
        if out[i - 1] < x:
            return None
        out[i - 1] -= x
    if dest:
        moved = [(j, out[i - 1]) for i, j in dest]
        for i, _ in dest:
            out[i - 1] = 0
        for j, x in moved:
            if j:
                out[j - 1] += x
    for i, x in post:
        out[i - 1] += x
    return tuple(out)


def _successors(edges: Iterable[tuple[Effect, State]], v: Vector) -> set[CounterConfig]:
    """The configurations that the (effect, target) pairs `edges` lead to
    from vector `v`."""
    out = set()
    for effect, dst in edges:
        v2 = apply_effect(effect, v)
        if v2 is not None:
            out.add((dst, v2))
    return out


def counter_step(mc: CounterMachine, config: CounterConfig) -> frozenset[CounterConfig]:
    q, v = config
    return frozenset(_successors(((t.effect, t.dst) for t in mc.transitions if t.src == q), v))


# ---------------------------------------------------------------------------
# backward coverability


def _splits(n: int, parts: int) -> list[tuple[int, ...]]:
    """Every way to write n as an ordered sum of `parts` naturals, in
    lexicographic order: the gaps between `parts` − 1 sorted cuts of 0..n.
    No recursion, so a transfer may pour any number of counters."""
    return [tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
            for cuts in combinations_with_replacement(range(n + 1), parts - 1)]


def pre_basis(effect: Effect, b: Vector) -> frozenset[Vector]:
    """Minimal vectors whose successors under `effect` dominate `b`.

    The returned set is a basis of the upward-closed predecessor set of
    the upward closure of `b`.  After the moves, counter k must hold
    need[k] = max(b[k] − post[k], 0).  A counter that no pair of `dest`
    touches holds what it held, so it needs need[k] + pre[k] before.  Any
    other counter holds the sum of the counters sent to it (itself
    included, unless it moves): its need is split in every way over them,
    or has no predecessor when nothing is sent to it, and `pre` is added
    back.  Raises WrongDimension when the effect names a counter outside
    `b`.
    """
    _check_range(effect, len(b))
    pre, dest, post = effect
    need = list(b)
    for i, x in post:
        need[i - 1] = max(need[i - 1] - x, 0)
    v = need[:]
    for i, x in pre:
        v[i - 1] += x
    into: dict[int, list[int]] = {i - 1: [] for i, _ in dest}
    for i, j in dest:
        if j:
            into.setdefault(j - 1, [j - 1]).append(i - 1)
    spread = []
    for k, sources in into.items():
        v[k] -= need[k]  # what `pre` takes from it
        if need[k]:
            if not sources:
                return frozenset()
            spread.append((sources, _splits(need[k], len(sources))))
    out = set()
    for choice in product(*(splits for _, splits in spread)):
        u = v[:]
        for (sources, _), split in zip(spread, choice):
            for i, x in zip(sources, split):
                u[i] += x
        out.add(tuple(u))
    return frozenset(out)


class UpSet:
    """An upward-closed set of configurations, kept as per-state antichains
    of minimal vectors."""

    def __init__(self) -> None:
        self._bases: dict[State, list[Vector]] = {}

    def insert(self, state: State, v: Vector) -> bool:
        """Add the upward cone of (state, v); False if already covered."""
        basis = self._bases.setdefault(state, [])
        if any(all(x <= y for x, y in zip(b, v)) for b in basis):
            return False
        basis[:] = [b for b in basis if not all(x <= y for x, y in zip(v, b))]
        basis.append(v)
        return True

    def covers(self, state: State, v: Vector) -> bool:
        return any(
            all(x <= y for x, y in zip(b, v)) for b in self._bases.get(state, ())
        )

    def __len__(self) -> int:
        return sum(len(b) for b in self._bases.values())


def _live_counters(mc: CounterMachine, init_vec: Vector) -> list[int]:
    """The 0-based counters that can ever be non-zero from `init_vec`, in
    order: those non-zero in `init_vec` or raised by some `post`, closed
    under the moves into their destinations."""
    live = {i for i, x in enumerate(init_vec) if x}
    moves = []
    for t in mc.transitions:
        live.update(i - 1 for i, _ in t.effect.post)
        moves.extend((i - 1, j - 1) for i, j in t.effect.dest if j)
    grown = True
    while grown:
        grown = False
        for i, j in moves:
            if i in live and j not in live:
                live.add(j)
                grown = True
    return sorted(live)


def _pump(eff: Effect) -> Optional[tuple[tuple[int, int, int], ...]]:
    """For an effect with no moves that adds at least what it takes on
    every counter, its (0-based counter, pre, post) triples over the
    counters it adds to; None for any other effect."""
    pre, dest, post = eff
    if dest:
        return None
    taken = dict(pre)
    pump = tuple([(i - 1, taken.pop(i, 0), y) for i, y in post])
    return None if taken or any(y < x for _, x, y in pump) else pump


def _pump_limit(pump: tuple[tuple[int, int, int], ...], b: Vector) -> Vector:
    """The limit L of f(b) = pre + max(b − post, 0) iterated, for the
    triples of a `_pump` effect: L_k = pre_k where post_k > pre_k, else
    max(b_k, pre_k)."""
    v = list(b)
    for k, x, y in pump:
        v[k] = x if y > x else max(v[k], x)
    return tuple(v)


def _named_first(pair: tuple[State, tuple]) -> tuple[str, tuple]:
    """Both counter searches' order: the state's `repr`, then the numbers.

    A constructed state is a `StateTag`, which keeps its repr after the
    first call, so this reads the kept string."""
    return repr(pair[0]), pair[1]


def backward_coverability(mc: CounterMachine, init: CounterConfig, target_state: State) -> bool:
    """Can some configuration with control state `target_state` be covered
    from `init`?  Complete for TR-VASS: transfers and resets are compatible
    with the component-wise order.

    The search runs on the live counters L only (`_live_counters`).  By
    induction on run length, every configuration reachable from `init` is
    zero outside L: a counter outside L starts at zero, no `post` raises
    it, and moves into it come only from counters outside L.  On such
    configurations an edge whose `pre` takes from a counter outside L is
    never enabled, so it is dropped; moving or zeroing a counter outside L
    changes nothing, so that pair is dropped; everything else reads and
    writes L alone (a move out of L lands in L).  The machine projected
    onto L therefore covers `target_state` from the projected `init`
    exactly when the original machine does.  The search starts at
    `target_state` and stops as soon as a basis element inserted at the
    initial state lies below the initial vector.

    Effects are sparse, so set-up reads only the counters each edge
    touches.  It projects each effect object once per call and gives every
    edge that carries it the same projection.  `CounterMachine.make`, the
    translations' `DimensionMap.effect` and the counter-file reader each
    share one object per distinct effect, so that is once per distinct
    effect; a machine built by the constructor from separate equal effect
    objects gets the same answers from more projections.  A state's
    predecessors are sorted by `_named_first`: source, then projected
    effect.  Nothing is kept on the machine between calls.

    A self-loop is accelerated when its projected effect has no moves and
    adds at least what it takes on every counter (`_pump`).  Its
    pre-image of b is f(b) = pre + max(b − post, 0), and iterating f
    reaches the limit L of `_pump_limit` in finitely many steps: a counter
    with post > pre falls by post − pre per step until it reaches pre, and
    one with post = pre is max(b, pre) after one step.  The search inserts
    L in place of f(b).  This is exact.  L is an iterate, so the loop
    taken that many times covers b from L; and f(b) ≥ L while f is
    monotone and fixes L, so ↑L holds every later iterate, each of which
    the search would otherwise insert one pass at a time.
    """
    _check_init(mc, init)
    init_state, init_vec = init
    if init_state == target_state:
        return True
    live = _live_counters(mc, init_vec)
    slot = {d + 1: k for k, d in enumerate(live, 1)}  # counter → live counter, from 1

    def project(eff: Effect) -> Optional[Effect]:
        pre, dest, post = eff
        if any(i not in slot for i, _ in pre):
            return None
        dest = tuple((slot[i], slot[j] if j else 0) for i, j in dest if i in slot)
        # every counter some `post` raises is live
        return Effect(tuple([(slot[i], x) for i, x in pre]), dest,
                      tuple([(slot[i], x) for i, x in post]))

    by_dst: dict[State, set[tuple[State, Effect, Optional[tuple]]]] = {}
    projected: dict[int, Optional[Effect]] = {}  # by id(effect), for this call only
    for t in mc.transitions:
        key = id(t.effect)
        if key not in projected:
            projected[key] = project(t.effect)
        eff = projected[key]
        if eff is not None:
            pump = _pump(eff) if t.src == t.dst else None
            by_dst.setdefault(t.dst, set()).add((t.src, eff, pump))
    preds = {
        dst: sorted(group, key=_named_first) if len(group) > 1 else list(group)
        for dst, group in by_dst.items()
    }

    start = tuple(init_vec[d] for d in live)
    seen = UpSet()
    zero = (0,) * len(live)
    seen.insert(target_state, zero)
    work = deque([(target_state, zero)])
    while work:
        q, b = work.popleft()
        for src, eff, pump in preds.get(q, ()):
            basis = (_pump_limit(pump, b),) if pump is not None else sorted(pre_basis(eff, b))
            for c in basis:
                if seen.insert(src, c):
                    if src == init_state and all(x <= y for x, y in zip(c, start)):
                        return True
                    work.append((src, c))
    return False


# the removed one-counter engine, kept as a name for `benchmarks/tracing.py`
one_dim_rvass_reachability = retired("one_dim_rvass_reachability", "backward_coverability")


# ---------------------------------------------------------------------------
# forward search (a semi-decision; exact when the caps are known to suffice)


@dataclass(frozen=True)
class ForwardProbe:
    kind: str  # "reachable" | "not_reachable_within_bounds" | "bound_exhausted"
    path: Optional[tuple[CounterConfig, ...]] = None


def forward_witness_search(
    mc: CounterMachine,
    init: CounterConfig,
    target_state: State,
    *,
    step_budget: int = 100_000,
    counter_cap: int = 64,
) -> ForwardProbe:
    """Plain breadth-first exploration with explicit caps.

    Only reports not_reachable_within_bounds when the whole capped space
    was exhausted without ever clipping a successor, so that verdict is
    definite.
    """
    _check_init(mc, init)
    out_edges: dict[State, list[tuple[Effect, State]]] = {}
    for t in mc.transitions:
        out_edges.setdefault(t.src, []).append((t.effect, t.dst))
    parents: dict[CounterConfig, Optional[CounterConfig]] = {init: None}

    def path_to(c: CounterConfig) -> tuple[CounterConfig, ...]:
        out = []
        node: Optional[CounterConfig] = c
        while node is not None:
            out.append(node)
            node = parents[node]
        return tuple(reversed(out))

    if init[0] == target_state:
        return ForwardProbe("reachable", path_to(init))
    work = deque([init])
    clipped = False
    expanded = 0
    while work:
        if expanded >= step_budget:
            return ForwardProbe("bound_exhausted")
        c = work.popleft()
        expanded += 1
        for nxt in sorted(_successors(out_edges.get(c[0], ()), c[1]), key=_named_first):
            if nxt in parents:
                continue
            if any(x > counter_cap for x in nxt[1]):
                clipped = True
                continue
            parents[nxt] = c
            if nxt[0] == target_state:
                return ForwardProbe("reachable", path_to(nxt))
            work.append(nxt)
    if clipped:
        return ForwardProbe("bound_exhausted")
    return ForwardProbe("not_reachable_within_bounds")
