"""Counter machines with vector-addition, transfer, and reset effects,
plus the decision engines used by the automata reductions.

Configurations are (state, vector) pairs over non-negative ints.  The
machine class is determined by which effects appear: additions only give a
plain VASS, additions+resets an R-VASS, and all three a TR-VASS.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional

from .errors import NonUnitEffect, SelfTransfer, TransfersPresent, WrongDimension

State = Hashable
Vector = tuple[int, ...]
CounterConfig = tuple[State, Vector]


@dataclass(frozen=True)
class Add:
    """Component-wise addition; entries restricted to -1, 0, 1."""

    vector: Vector

    def __repr__(self) -> str:
        return f"Add({','.join(map(str, self.vector))})"


@dataclass(frozen=True)
class Transfer:
    """Pour counter `src` into counter `dst`, zeroing `src`."""

    src: int
    dst: int

    def __repr__(self) -> str:
        return f"Transfer({self.src}->{self.dst})"


@dataclass(frozen=True)
class ResetDim:
    """Zero one counter."""

    dim: int

    def __repr__(self) -> str:
        return f"Reset({self.dim})"


Effect = Add | Transfer | ResetDim


@dataclass(frozen=True)
class CTransition:
    src: State
    effect: Effect
    dst: State


@dataclass(frozen=True)
class CounterMachine:
    dims: int
    states: frozenset[State]
    transitions: frozenset[CTransition]

    @staticmethod
    def make(
        dims: int,
        states: Iterable[State],
        transitions: Iterable[tuple[State, Effect, State]],
    ) -> "CounterMachine":
        """Validate the effects and build the machine; its states are
        `states` together with every transition endpoint."""
        if dims < 1:
            raise WrongDimension("a counter machine needs at least one dimension")
        ts = []
        for src, eff, dst in transitions:
            if isinstance(eff, Add):
                if len(eff.vector) != dims:
                    raise WrongDimension(f"{eff!r} has arity {len(eff.vector)}, expected {dims}")
                if any(x not in (-1, 0, 1) for x in eff.vector):
                    raise NonUnitEffect(f"{eff!r} must have entries in -1,0,1")
            elif isinstance(eff, Transfer):
                if not (1 <= eff.src <= dims and 1 <= eff.dst <= dims):
                    raise WrongDimension(f"{eff!r} out of range for {dims} dims")
                if eff.src == eff.dst:
                    raise SelfTransfer(f"{eff!r}: source and destination must differ")
            elif isinstance(eff, ResetDim):
                if not 1 <= eff.dim <= dims:
                    raise WrongDimension(f"{eff!r} out of range for {dims} dims")
            ts.append(CTransition(src, eff, dst))
        ends = {q for t in ts for q in (t.src, t.dst)}
        return CounterMachine(dims, frozenset(states) | ends, frozenset(ts))

    def is_vass(self) -> bool:
        return all(isinstance(t.effect, Add) for t in self.transitions)

    def is_rvass(self) -> bool:
        return all(not isinstance(t.effect, Transfer) for t in self.transitions)


def apply_effect(effect: Effect, v: Vector) -> Optional[Vector]:
    """The successor vector, or None when an addition would go negative."""
    if isinstance(effect, Add):
        out = tuple(a + b for a, b in zip(v, effect.vector))
        return out if all(x >= 0 for x in out) else None
    if isinstance(effect, Transfer):
        i, j = effect.src - 1, effect.dst - 1
        slots = list(v)
        slots[j] = v[i] + v[j]
        slots[i] = 0
        return tuple(slots)
    slots = list(v)
    slots[effect.dim - 1] = 0
    return tuple(slots)


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


def pre_basis(effect: Effect, b: Vector) -> frozenset[Vector]:
    """Minimal vectors whose successors under `effect` dominate `b`.

    The returned set is a basis of the upward-closed predecessor set of
    the upward closure of `b`.
    """
    if isinstance(effect, Add):
        return frozenset({tuple(max(x - d, 0) for x, d in zip(b, effect.vector))})
    if isinstance(effect, ResetDim):
        if b[effect.dim - 1] > 0:
            return frozenset()
        return frozenset({b})
    i, j = effect.src - 1, effect.dst - 1
    if b[i] > 0:
        return frozenset()
    out = set()
    for k in range(b[j] + 1):
        slots = list(b)
        slots[i] = k
        slots[j] = b[j] - k
        out.add(tuple(slots))
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

    def basis(self, state: State) -> tuple[Vector, ...]:
        return tuple(sorted(self._bases.get(state, ())))

    def __len__(self) -> int:
        return sum(len(b) for b in self._bases.values())


def _live_counters(mc: CounterMachine, init_vec: Vector) -> list[int]:
    """The 0-based counters that can ever be non-zero from `init_vec`, in
    order: those non-zero in `init_vec` or incremented by some addition,
    closed under transfers into their destinations."""
    live = {i for i, x in enumerate(init_vec) if x}
    transfers = []
    for t in mc.transitions:
        eff = t.effect
        if isinstance(eff, Add):
            live.update(i for i, x in enumerate(eff.vector) if x > 0)
        elif isinstance(eff, Transfer):
            transfers.append((eff.src - 1, eff.dst - 1))
    grown = True
    while grown:
        grown = False
        for i, j in transfers:
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
    zero outside L: a counter outside L starts at zero, no addition
    increments it, and transfers into it come only from counters outside L.
    On such configurations an addition that decrements a counter outside L
    is never enabled, so it is dropped; a reset of a counter outside L, or
    a transfer out of one, changes nothing, so it becomes the zero
    addition; every other effect reads and writes L alone (a transfer out
    of L lands in L).  The machine projected onto L therefore covers
    `target_state` from the projected `init` exactly when the original
    machine does.  The search stops as soon as a basis element inserted at
    the initial state lies below the initial vector.
    """
    init_state, init_vec = init
    if len(init_vec) != mc.dims:
        raise WrongDimension(f"initial vector has arity {len(init_vec)}, expected {mc.dims}")
    if init_state == target_state:
        return True
    live = _live_counters(mc, init_vec)
    slot = {d: k + 1 for k, d in enumerate(live)}
    dead = [d for d in range(mc.dims) if d not in slot]
    no_op = Add((0,) * len(live))

    def project(eff: Effect) -> Optional[Effect]:
        if isinstance(eff, Add):
            v = eff.vector
            if any(v[d] < 0 for d in dead):
                return None
            return Add(tuple(v[d] for d in live))
        if isinstance(eff, ResetDim):
            k = slot.get(eff.dim - 1)
            return no_op if k is None else ResetDim(k)
        k = slot.get(eff.src - 1)
        return no_op if k is None else Transfer(k, slot[eff.dst - 1])

    # states become ints, the initial state 0 and the target 1; predecessor
    # groups are sorted by name so the search order is the same in every
    # process
    ids: dict[State, int] = {init_state: 0, target_state: 1}
    by_dst: dict[int, set[tuple[int, Effect]]] = {}
    for t in mc.transitions:
        eff = project(t.effect)
        if eff is not None:
            src = ids.setdefault(t.src, len(ids))
            dst = ids.setdefault(t.dst, len(ids))
            by_dst.setdefault(dst, set()).add((src, eff))
    names = {i: q for q, i in ids.items()}
    preds = {
        dst: sorted(group, key=lambda e: (repr(names[e[0]]), repr(e[1])))
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


# ---------------------------------------------------------------------------
# one-dimensional R-VASS state reachability


def one_dim_rvass_witness(
    mc: CounterMachine, init: CounterConfig, target_state: State
) -> Optional[tuple[CounterConfig, ...]]:
    """A reaching path for the one-dimensional case, or None.

    The initial counter is truncated to |Q|^2 - 1 (larger values are
    interchangeable for state reachability), intermediate counters are
    capped at that plus |Q|^2, and paths are cut off at |Q|^2 edges;
    within those bounds the search is exhaustive.
    """
    if mc.dims != 1:
        raise WrongDimension(f"expected 1 dimension, got {mc.dims}")
    if any(isinstance(t.effect, Transfer) for t in mc.transitions):
        raise TransfersPresent("one-dimensional engine handles additions and resets only")
    q0, vec = init
    nsq = len(mc.states) ** 2
    n0 = min(vec[0], nsq - 1)
    cap = n0 + nsq
    start = (q0, (n0,))
    parents: dict[CounterConfig, Optional[CounterConfig]] = {start: None}
    depth = {start: 0}
    work = deque([start])
    goal = None
    if q0 == target_state:
        goal = start
    while work and goal is None:
        c = work.popleft()
        if depth[c] >= nsq:
            continue
        for nxt in sorted(counter_step(mc, c), key=repr):
            if nxt[1][0] > cap or nxt in parents:
                continue
            parents[nxt] = c
            depth[nxt] = depth[c] + 1
            if nxt[0] == target_state:
                goal = nxt
                break
            work.append(nxt)
    if goal is None:
        return None
    path = []
    node: Optional[CounterConfig] = goal
    while node is not None:
        path.append(node)
        node = parents[node]
    return tuple(reversed(path))


def one_dim_rvass_reachability(
    mc: CounterMachine, init: CounterConfig, target_state: State
) -> bool:
    return one_dim_rvass_witness(mc, init, target_state) is not None


# ---------------------------------------------------------------------------
# forward search (semi-decision, used for cross-checks)


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
