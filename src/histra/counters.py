"""Counter machines whose edges are reset/transfer-net steps, and backward
coverability, the one procedure that decides them for the reductions.

Configurations are (state, vector) pairs over non-negative ints.  Every
edge carries one `Effect`, the affine step v ↦ M(v − pre) + post of
Finkel, McKenzie and Picaronny (*A well-structured framework for analysing
Petri net extensions*, Inf. Comput. 2004): take `pre` away, move or zero
some counters all at once, add `post`.  `Add`, `Transfer` and `ResetDim`
build the three classic special cases.  The machine class follows from the
moves: none gives a plain VASS, zeroing only an R-VASS, and transfers a
TR-VASS.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Hashable, Iterable, NamedTuple, Optional

from .errors import SelfTransfer, ValidationError, WrongDimension, retired

State = Hashable
Vector = tuple[int, ...]
CounterConfig = tuple[State, Vector]


class Effect(NamedTuple):
    """Subtract `pre`, which must leave every counter ≥ 0; then, all at
    once, send counter i to counter j for each pair (i, j) of `dest`, or
    zero it when j = 0, while the counters not listed stay put; then add
    `post`.  Counters are numbered from 1 in `dest`.  `pre` and `post` are
    non-negative vectors; () stands for the zero vector of any arity, and
    `CounterMachine.make` spells it out."""

    pre: Vector
    dest: tuple[tuple[int, int], ...]
    post: Vector

    def canonical(self, dims: int) -> "Effect":
        """This effect as an edge of a `dims`-counter machine: both vectors
        spelled out and `dest` sorted.  Raises when it is no such edge."""
        if dims < 1:
            raise WrongDimension("a counter machine needs at least one dimension")
        (pre, post), dest = _vectors(self, dims), self.dest
        if min(pre) < 0 or min(post) < 0:
            raise ValidationError([f"{self!r}: pre and post must be non-negative"])
        sources = {i for i, _ in dest}
        for i, j in dest:
            if not (1 <= i <= dims and 0 <= j <= dims):
                raise WrongDimension(f"{self!r} out of range for {dims} dims")
            if i == j:
                raise SelfTransfer(f"{self!r}: source and destination must differ")
            if j and j in sources:
                raise ValidationError([f"{self!r}: counter {j} is moved and also receives"])
        if len(sources) < len(dest):
            raise ValidationError([f"{self!r}: a counter is moved twice"])
        return Effect(pre, tuple(sorted(dest)), post)


def _vectors(effect: Effect, dims: int) -> tuple[Vector, Vector]:
    """`pre` and `post` spelled out over `dims` counters; raises
    WrongDimension when either is spelled out at another arity."""
    zero = (0,) * dims
    pre, post = effect.pre or zero, effect.post or zero
    if len(pre) != dims or len(post) != dims:
        raise WrongDimension(f"{effect!r} does not have arity {dims}")
    return pre, post


def Add(vector: Iterable[int]) -> Effect:
    """Component-wise addition; the result must stay non-negative."""
    v = tuple(vector)
    pre = tuple([-x if x < 0 else 0 for x in v])
    return Effect(pre, (), tuple([x if x > 0 else 0 for x in v]))


def Transfer(src: int, dst: int) -> Effect:
    """Pour counter `src` into counter `dst`, zeroing `src`."""
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
    endpoint.  The constructor takes the edges as they are; `make`
    validates them first."""

    dims: int
    states: frozenset[State]
    transitions: frozenset[CTransition]

    def __post_init__(self) -> None:
        ends = {q for t in self.transitions for q in (t.src, t.dst)}
        object.__setattr__(self, "states", frozenset(self.states) | ends)

    @staticmethod
    def make(
        dims: int,
        states: Iterable[State],
        transitions: Iterable[tuple[State, Effect, State]],
    ) -> "CounterMachine":
        """Validate the effects and build the machine.

        Each distinct effect is validated once, and every edge whose effect
        is equal (before or after `Effect.canonical`) shares one canonical
        object.  An invalid effect raises at its first edge, so the error is
        that of the first invalid edge in input order."""
        if dims < 1:
            raise WrongDimension("a counter machine needs at least one dimension")
        shared: dict[Effect, Effect] = {}
        ts = []
        for src, eff, dst in transitions:
            canon = shared.get(eff)
            if canon is None:
                canon = eff.canonical(dims)
                canon = shared.setdefault(canon, canon)  # () and (0, …) spell one vector
                shared[eff] = canon
            ts.append(CTransition(src, canon, dst))
        return CounterMachine(dims, frozenset(states), frozenset(ts))

    def is_vass(self) -> bool:
        return not any(t.effect.dest for t in self.transitions)

    def is_rvass(self) -> bool:
        return not any(j for t in self.transitions for _, j in t.effect.dest)


def apply_effect(effect: Effect, v: Vector) -> Optional[Vector]:
    """The successor vector, or None when taking `pre` away goes negative.
    Raises WrongDimension when `pre` or `post` has another arity than `v`."""
    pre, post = _vectors(effect, len(v))
    out = [x - y for x, y in zip(v, pre)]
    if min(out, default=0) < 0:
        return None
    moved = [(j, out[i - 1]) for i, j in effect.dest]
    for i, _ in effect.dest:
        out[i - 1] = 0
    for j, x in moved:
        if j:
            out[j - 1] += x
    return tuple(x + y for x, y in zip(out, post))


def counter_step(mc: CounterMachine, config: CounterConfig) -> frozenset[CounterConfig]:
    q, v = config
    out = set()
    for t in mc.transitions:
        if t.src == q:
            v2 = apply_effect(t.effect, v)
            if v2 is not None:
                out.add((t.dst, v2))
    return frozenset(out)


# ---------------------------------------------------------------------------
# backward coverability


def _splits(n: int, parts: int) -> list[tuple[int, ...]]:
    """Every way to write n as an ordered sum of `parts` naturals."""
    if parts == 1:
        return [(n,)]
    return [(k,) + rest for k in range(n + 1) for rest in _splits(n - k, parts - 1)]


def pre_basis(effect: Effect, b: Vector) -> frozenset[Vector]:
    """Minimal vectors whose successors under `effect` dominate `b`.

    The returned set is a basis of the upward-closed predecessor set of
    the upward closure of `b`.  After the moves, counter k must hold
    need[k] = max(b[k] − post[k], 0).  A counter that no pair of `dest`
    touches holds what it held, so it needs need[k] + pre[k] before.  Any
    other counter holds the sum of the counters sent to it (itself
    included, unless it moves): its need is split in every way over them,
    or has no predecessor when nothing is sent to it, and `pre` is added
    back.  Raises WrongDimension when `pre` or `post` has another arity
    than `b`.
    """
    pre, post = _vectors(effect, len(b))
    v = [(x - y if x > y else 0) + p for x, y, p in zip(b, post, pre)]
    into: dict[int, list[int]] = {i - 1: [] for i, _ in effect.dest}
    for i, j in effect.dest:
        if j:
            into.setdefault(j - 1, [j - 1]).append(i - 1)
    spread = []
    for k, sources in into.items():
        need = max(b[k] - post[k], 0)
        v[k] = pre[k]
        if need:
            if not sources:
                return frozenset()
            spread.append((sources, _splits(need, len(sources))))
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
        live.update(i for i, x in enumerate(t.effect.post) if x)
        moves.extend((i - 1, j - 1) for i, j in t.effect.dest if j)
    grown = True
    while grown:
        grown = False
        for i, j in moves:
            if i in live and j not in live:
                live.add(j)
                grown = True
    return sorted(live)


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
    exactly when the original machine does.  The search stops as soon as a
    basis element inserted at the initial state lies below the initial
    vector.

    Set-up projects each effect object once per call and gives every edge
    that carries it the same projection.  `CounterMachine.make` shares one
    object per distinct effect, so that is once per distinct effect; a
    machine built by the constructor, whose equal effects may be separate
    objects, gets the same answers from more projections.  Nothing is kept
    on the machine between calls.
    """
    init_state, init_vec = init
    if len(init_vec) != mc.dims:
        raise WrongDimension(f"initial vector has arity {len(init_vec)}, expected {mc.dims}")
    if init_state == target_state:
        return True
    live = _live_counters(mc, init_vec)
    slot = {d: k + 1 for k, d in enumerate(live)}
    dead = [d for d in range(mc.dims) if d not in slot]

    def project(eff: Effect) -> Optional[Effect]:
        pre, dest, post = eff
        if any(pre[d] for d in dead):
            return None
        dest = tuple((slot[i - 1], slot[j - 1] if j else 0) for i, j in dest if i - 1 in slot)
        return Effect(tuple([pre[d] for d in live]), dest, tuple([post[d] for d in live]))

    # states become ints, the initial state 0 and the target 1; predecessor
    # groups are sorted by name so the search order is the same in every
    # process
    ids: dict[State, int] = {init_state: 0, target_state: 1}
    by_dst: dict[int, set[tuple[int, Effect]]] = {}
    projected: dict[int, Optional[Effect]] = {}  # by id(effect), for this call only
    for t in mc.transitions:
        key = id(t.effect)
        if key not in projected:
            projected[key] = project(t.effect)
        eff = projected[key]
        if eff is not None:
            src = ids.setdefault(t.src, len(ids))
            dst = ids.setdefault(t.dst, len(ids))
            by_dst.setdefault(dst, set()).add((src, eff))
    names = {i: q for q, i in ids.items()}
    preds = {
        dst: sorted(group, key=lambda e: (repr(names[e[0]]), e[1]))
        if len(group) > 1 else list(group)
        for dst, group in by_dst.items()
    }

    start = tuple(init_vec[d] for d in live)
    seen = UpSet()
    zero = (0,) * len(live)
    seen.insert(1, zero)
    work = deque([(1, zero)])
    while work:
        q, b = work.popleft()
        for src, eff in preds.get(q, ()):
            for c in sorted(pre_basis(eff, b)):
                if seen.insert(src, c):
                    if src == 0 and all(x <= y for x, y in zip(c, start)):
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
    if len(init[1]) != mc.dims:
        raise WrongDimension(f"initial vector has arity {len(init[1])}, expected {mc.dims}")
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
        for nxt in sorted(counter_step(mc, c), key=repr):
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
