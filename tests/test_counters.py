"""Counter machines: effect semantics, the backward coverability engine,
and its cross-check on one counter against an exact oracle."""

import os
import random
import subprocess
import sys
from itertools import product

import pytest

from histra import (
    Add,
    CounterMachine,
    DimensionMap,
    Effect,
    HistraError,
    ResetDim,
    SelfTransfer,
    Transfer,
    UpSet,
    ValidationError,
    WrongDimension,
    apply_effect,
    backward_coverability,
    counter_step,
    forward_witness_search,
    pre_basis,
    rvass_to_hra,
    vass_to_nonreset_hra,
)
from histra.cli import CounterDocument, print_counters
from histra.core import subsets
import histra
import histra.constructions as constructions
import histra.counters as counters
import histra.reductions as reductions
from histra.counters import CTransition
from histra.oracles import one_counter_coverable, random_counter_machine


# ---------------------------------------------------------------------------
# effects


def test_apply_add_guards_negativity():
    assert apply_effect(Add((1, -1)), (0, 1)) == (1, 0)
    assert apply_effect(Add((0, -1)), (3, 0)) is None


def test_apply_rejects_a_counter_out_of_range():
    with pytest.raises(WrongDimension, match="out of range for 1 dims"):
        apply_effect(Effect(((2, 1),), (), ()), (5,))
    with pytest.raises(WrongDimension, match="out of range for 3 dims"):
        apply_effect(Effect((), (), ((4, 1),)), (5, 0, 0))
    # () is the zero step of any arity
    assert apply_effect(Effect((), (), ()), (5,)) == (5,)
    assert apply_effect(Effect((), (), ((2, 2),)), (5, 1)) == (5, 3)


def test_apply_transfer_pours_and_zeroes():
    assert apply_effect(Transfer(1, 2), (3, 4)) == (0, 7)


def test_apply_reset_zeroes_one_dim():
    assert apply_effect(ResetDim(2), (3, 4)) == (3, 0)


def test_make_validates_arity_and_ranges():
    with pytest.raises(WrongDimension, match="at least one dimension"):
        CounterMachine.make(0, ["q"], [])
    with pytest.raises(WrongDimension, match="at least one dimension"):
        CounterMachine(0, frozenset({"q"}), frozenset())  # the constructor checks it too
    with pytest.raises(WrongDimension, match="at least one dimension"):
        Effect((), (), ()).canonical(0)
    with pytest.raises(WrongDimension):
        CounterMachine.make(2, ["q"], [("q", Add((0, 0, 1)), "q")])
    with pytest.raises(WrongDimension):
        CounterMachine.make(2, ["q"], [("q", ResetDim(3), "q")])
    with pytest.raises(SelfTransfer):
        CounterMachine.make(2, ["q"], [("q", Transfer(1, 1), "q")])
    # wide entries are one edge; rvass_to_hra is what rejects them
    wide = CounterMachine.make(1, ["q"], [("q", Add((2,)), "q")])
    assert [t.effect for t in wide.transitions] == [Add((2,))]
    # Add's vector may stop short: the counters it leaves out get 0
    assert CounterMachine.make(2, ["q"], [("q", Add((1,)), "q")]) == CounterMachine.make(
        2, ["q"], [("q", Add((1, 0)), "q")])
    with pytest.raises(WrongDimension):
        CounterMachine.make(2, ["q"], [("q", Effect(((3, 1),), (), ()), "q")])
    with pytest.raises(ValidationError):
        CounterMachine.make(1, ["q"], [("q", Effect(((1, -1),), (), ()), "q")])
    with pytest.raises(ValidationError):
        CounterMachine.make(2, ["q"], [("q", Effect((), ((1, 2), (2, 0)), ()), "q")])
    with pytest.raises(ValidationError):
        CounterMachine.make(2, ["q"], [("q", Effect((), ((1, 2), (1, 0)), ()), "q")])


@pytest.mark.parametrize("dest, error, message", [
    # each pair is checked in order (range, self-transfer, moved and also
    # receives) before any counter is reported as moved twice
    (((1, 2), (1, 3), (4, 4)), SelfTransfer, "source and destination must differ"),
    (((1, 2), (1, 3), (5, 1)), WrongDimension, "out of range for 4 dims"),
    (((1, 2), (1, 3)), ValidationError, "a counter is moved twice"),
    (((1, 2), (3, 1)), ValidationError, "counter 1 is moved and also receives"),
])
def test_canonical_reports_the_first_fault_in_a_fixed_order(dest, error, message):
    with pytest.raises(HistraError, match=message) as err:
        Effect((), dest, ()).canonical(4)
    assert type(err.value) is error


def test_a_transfer_pours_into_a_counter():
    # destination 0 would be a reset under another name
    with pytest.raises(WrongDimension, match="destination 0 is no counter"):
        Transfer(1, 0)
    assert Transfer(1, 2) == Effect((), ((1, 2),), ())


@pytest.mark.parametrize("effect, counter", [
    (Effect((), ((0, 1),), ()), 0),
    (Effect((), ((1, 3),), ()), 3),
    (Effect((), ((1, -1),), ()), -1),
    (ResetDim(0), 0),
    (Effect(((3, 1),), (), ()), 3),
])
def test_canonical_names_the_counter_out_of_range(effect, counter):
    with pytest.raises(WrongDimension) as err:
        effect.canonical(2)
    assert str(err.value) == f"counter {counter} out of range for 2 dims"


def test_canonical_sorts_a_wide_reset():
    # the reset of every history on eight zeroes all 255 counters
    dmap = DimensionMap(tuple(subsets(range(1, 9))[1:]))
    dest = dmap.reset_moves(frozenset(range(1, 9)))
    assert len(dest) == 255 and {j for _, j in dest} == {0}
    eff = Effect((), tuple(reversed(dest)), ()).canonical(255)
    assert eff.dest == tuple(sorted(dest)) and eff.pre == eff.post == ()


def test_make_shares_one_canonical_object_per_effect():
    # equal before canonical form (two separate objects) or only after it
    # (the moves listed in another order): one object on every edge
    edges = [
        ("a", Effect((), ((2, 1), (3, 0)), ()), "b"),
        ("b", Effect((), ((2, 1), (3, 0)), ()), "c"),
        ("c", Effect((), ((3, 0), (2, 1)), ()), "a"),
        ("a", Add((1, -1, 0)), "c"),
        ("b", Add((1, -1, 0)), "a"),
    ]
    mc = CounterMachine.make(3, [], edges)
    by_src_dst = {(t.src, t.dst): t.effect for t in mc.transitions}
    moved = [by_src_dst[k] for k in [("a", "b"), ("b", "c"), ("c", "a")]]
    assert moved[0] == Effect((), ((2, 1), (3, 0)), ())
    assert moved[0] is moved[1] is moved[2]
    assert by_src_dst["a", "c"] is by_src_dst["b", "a"] == Add((1, -1, 0))


def test_make_raises_the_error_of_the_first_invalid_edge():
    ok = ("q", Add((1, 0)), "q")
    wrong_dim = ("q", Effect((), ((3, 1),), ()), "r")  # counter 3 of 2
    self_transfer = ("r", Transfer(2, 2), "q")
    with pytest.raises(HistraError) as err:
        CounterMachine.make(2, [], [ok, wrong_dim, ok, ok, self_transfer])
    assert type(err.value) is WrongDimension
    with pytest.raises(HistraError) as err:
        CounterMachine.make(2, [], [ok, self_transfer, ok, ok, wrong_dim])
    assert type(err.value) is SelfTransfer


def test_make_adds_transition_endpoints_to_the_states():
    mc = CounterMachine.make(1, ["a"], [("a", Add((1,)), "b"), ("b", Add((-1,)), "c")])
    assert mc.states == {"a", "b", "c"}
    assert one_counter_coverable(mc, ("a", (0,)), "c")
    printed = print_counters(CounterDocument(mc, ("a", (0,), "c")))
    assert "TRANS b c ADD -1" in printed


def test_counter_step_enumerates_enabled_edges():
    mc = CounterMachine.make(
        1,
        ["a", "b"],
        [("a", Add((-1,)), "b"), ("a", Add((1,)), "a")],
    )
    assert counter_step(mc, ("a", (0,))) == frozenset({("a", (1,))})
    assert counter_step(mc, ("a", (1,))) == frozenset({("a", (2,)), ("b", (0,))})


# ---------------------------------------------------------------------------
# pre_basis: exhaustive soundness/completeness on capped boxes


def _box(dims, cap):
    return [tuple(v) for v in product(range(cap + 1), repeat=dims)]


def _all_effects(dims):
    effects = [Add(v) for v in product((-1, 0, 1), repeat=dims)]
    effects += [ResetDim(i) for i in range(1, dims + 1)]
    effects += [
        Transfer(i, j)
        for i in range(1, dims + 1)
        for j in range(1, dims + 1)
        if i != j
    ]
    return effects


def _dominates(u, v):
    return all(a >= b for a, b in zip(u, v))


@pytest.mark.parametrize("dims,cap", [(1, 4), (2, 3)])
def test_pre_basis_exhaustive(dims, cap):
    for eff in _all_effects(dims):
        for b in _box(dims, cap):
            basis = pre_basis(eff, b)
            # soundness: every basis vector steps to a vector dominating b
            for v in basis:
                out = apply_effect(eff, v)
                assert out is not None and _dominates(out, b), (eff, b, v)
            # completeness + upward closure: u covers b's successors
            # exactly when u dominates some basis vector
            for u in _box(dims, cap + 1):
                out = apply_effect(eff, u)
                hits = out is not None and _dominates(out, b)
                assert hits == any(_dominates(u, v) for v in basis), (eff, b, u)


def test_pre_basis_rejects_a_counter_out_of_range():
    with pytest.raises(WrongDimension, match="out of range for 1 dims"):
        pre_basis(Effect(((2, 1),), (), ()), (3,))
    with pytest.raises(WrongDimension, match="out of range for 3 dims"):
        pre_basis(Effect((), (), ((4, 1),)), (3, 0, 0))
    # () is the zero step of any arity
    assert pre_basis(Effect((), (), ()), (3,)) == {(3,)}
    assert pre_basis(Effect(((1, 1),), (), ()), (3,)) == {(4,)}


@pytest.mark.parametrize("step", [apply_effect, pre_basis])
@pytest.mark.parametrize("effect, vector, message", [
    (Effect(((2, 1),), (), ()), (5,), "counter 2 out of range for 1 dims"),
    (Effect((), (), ((4, 1),)), (5, 0, 0), "counter 4 out of range for 3 dims"),
    (Effect(((1, 1), (3, 1)), (), ((5, 2),)), (1, 1), "counter 3 out of range for 2 dims"),
    # counter 0 is no counter: `v[-1]` would read the last one
    (Effect(((0, 1),), (), ()), (5, 3), "counter 0 out of range for 2 dims"),
    (Effect((), ((0, 1),), ()), (5, 3), "counter 0 out of range for 2 dims"),
    (Effect((), ((2, 5),), ()), (5, 3), "counter 5 out of range for 2 dims"),
])
def test_range_check_names_the_counter(step, effect, vector, message):
    with pytest.raises(WrongDimension) as err:
        step(effect, vector)
    assert str(err.value) == message


def test_pre_basis_splits_a_need_over_a_thousand_sources():
    # 1,000 counters poured into counter 1,001: one unit there comes from
    # any one of the 1,001 counters that reach it
    pour = Effect((), tuple((i, 1001) for i in range(1, 1001)), ())
    basis = pre_basis(pour, (0,) * 1000 + (1,))
    assert len(basis) == 1001
    assert all(sorted(v) == [0] * 1000 + [1] for v in basis)


def _sparse(v):
    """A vector as an effect's (counter, amount) pairs."""
    return tuple((i, x) for i, x in enumerate(v, 1) if x)


def _dense(units, dims):
    """An effect's (counter, amount) pairs spelled out over `dims` counters."""
    v = [0] * dims
    for i, x in units:
        v[i - 1] += x
    return tuple(v)


def _random_dense_effect(rng, dims):
    """A compound effect as `CounterMachine.make` accepts it, with `pre`
    and `post` spelled out: some counters move to a counter that does not
    move, or are zeroed."""
    moved = [i for i in range(1, dims + 1) if rng.random() < 0.5]
    still = [j for j in range(1, dims + 1) if j not in moved]
    dest = tuple(sorted((i, rng.choice([0] + still)) for i in moved))
    pre, post = (tuple(rng.randint(0, 3) for _ in range(dims)) for _ in "ab")
    return pre, dest, post


def _random_effect(rng, dims):
    pre, dest, post = _random_dense_effect(rng, dims)
    return Effect(_sparse(pre), dest, _sparse(post)).canonical(dims)


@pytest.mark.parametrize("pre, post, error", [
    (((1, 0),), (), ValidationError),  # a zero amount
    ((), ((2, 0),), ValidationError),
    (((1, 1), (1, 2)), (), ValidationError),  # a repeated counter
    ((), ((3, 1), (2, 1)), ValidationError),  # counters out of order
    (((0, 1),), (), WrongDimension),  # counters are numbered from 1
    ((), ((5, 1),), WrongDimension),  # counter 5 of 4
    (((2, -1),), (), ValidationError),  # a negative amount
])
def test_canonical_rejects_a_malformed_sparse_vector(pre, post, error):
    with pytest.raises(HistraError) as err:
        Effect(pre, (), post).canonical(4)
    assert type(err.value) is error


def _dense_apply(effect, v):
    """The step of a spelled-out (pre, dest, post) on `v`, phase by phase."""
    pre, dest, post = effect
    out = [x - y for x, y in zip(v, pre)]
    if min(out, default=0) < 0:
        return None
    poured = [(j, out[i - 1]) for i, j in dest]
    for i, _ in dest:
        out[i - 1] = 0
    for j, x in poured:
        if j:
            out[j - 1] += x
    return tuple(x + y for x, y in zip(out, post))


def test_sparse_effects_step_and_invert_as_their_dense_spelling():
    # the minimal vectors of the brute-forced predecessor set in [0, 6]^d
    # are the whole basis when b and the entries are at most 3
    rng = random.Random(13)
    for _ in range(120):
        dims = rng.randint(1, 4)
        dense = _random_dense_effect(rng, dims)
        eff = Effect(_sparse(dense[0]), dense[1], _sparse(dense[2])).canonical(dims)
        for v in _box(dims, 3):
            assert apply_effect(eff, v) == _dense_apply(dense, v), (dense, v)
        b = tuple(rng.randint(0, 3) for _ in range(dims))
        hits = {
            u for u in _box(dims, 6)
            if (out := _dense_apply(dense, u)) is not None and _dominates(out, b)
        }
        minimal = {u for u in hits if not any(
            u[i] and u[:i] + (u[i] - 1,) + u[i + 1:] in hits for i in range(dims))}
        assert pre_basis(eff, b) == minimal, (dense, b)


def test_pre_basis_is_the_minimal_predecessors_of_random_compound_effects():
    # every basis vector lies in [0, 6]^d when b and the entries are at most
    # 3, so the minimal elements found in that box are the whole basis
    rng = random.Random(11)
    for _ in range(200):
        dims = rng.randint(1, 4)
        eff = _random_effect(rng, dims)
        b = tuple(rng.randint(0, 3) for _ in range(dims))
        hits = {
            v for v in _box(dims, 6)
            if (out := apply_effect(eff, v)) is not None and _dominates(out, b)
        }
        minimal = {
            v for v in hits
            if not any(v[i] and v[:i] + (v[i] - 1,) + v[i + 1:] in hits for i in range(dims))
        }
        assert pre_basis(eff, b) == minimal, (eff, b)


def test_compound_effect_is_its_phases_one_at_a_time():
    rng = random.Random(12)
    for _ in range(300):
        dims = rng.randint(1, 4)
        eff = _random_effect(rng, dims)
        phases = [Add(tuple(-x for x in _dense(eff.pre, dims)))]
        phases += [Transfer(i, j) if j else ResetDim(i) for i, j in eff.dest]
        phases.append(Add(_dense(eff.post, dims)))
        v = tuple(rng.randint(0, 4) for _ in range(dims))
        w = v
        for phase in phases:
            w = apply_effect(phase, w) if w is not None else None
        assert apply_effect(eff, v) == w, (eff, v)


def test_upset_antichain_behaviour():
    up = UpSet()
    assert up.insert("q", (2, 2))
    assert not up.insert("q", (3, 3))  # dominated, not new
    assert up.insert("q", (0, 5))
    assert up.covers("q", (2, 3)) and not up.covers("q", (1, 1))
    assert not up.covers("r", (9, 9))  # other states untouched
    assert len(up) == 2
    assert up.insert("q", (0, 0))  # subsumes everything at q
    assert len(up) == 1


# ---------------------------------------------------------------------------
# backward coverability vs forward search


def test_coverability_simple_pump():
    mc = CounterMachine.make(
        1,
        ["p", "q"],
        [("p", Add((1,)), "p"), ("p", Add((-1,)), "q"), ("q", Add((-1,)), "q")],
    )
    assert backward_coverability(mc, ("p", (0,)), "q")
    mc2 = CounterMachine.make(1, ["p", "q"], [("p", Add((-1,)), "q")])
    assert not backward_coverability(mc2, ("p", (0,)), "q")
    assert backward_coverability(mc2, ("p", (1,)), "q")


def test_transfer_collects_both_counters():
    # q needs 2 in dim2; only a transfer can merge the two units
    mc = CounterMachine.make(
        2,
        ["p", "mid", "q"],
        [
            ("p", Transfer(1, 2), "mid"),
            ("mid", Add((0, -1)), "mid2"),
            ("mid2", Add((0, -1)), "q"),
        ]
        + [("mid2", Add((0, 0)), "mid2")],
    )
    assert backward_coverability(mc, ("p", (1, 1)), "q")
    assert not backward_coverability(mc, ("p", (1, 0)), "q")


def test_reset_erases_progress():
    mc = CounterMachine.make(
        1,
        ["p", "r", "q"],
        [("p", Add((1,)), "p"), ("p", ResetDim(1), "r"), ("r", Add((-1,)), "q")],
    )
    # after the reset the counter is 0, so q is unreachable from (p,0)
    assert not backward_coverability(mc, ("p", (0,)), "q")
    assert backward_coverability(mc, ("p", (1,)), "q") is False  # reset still wipes
    mc2 = CounterMachine.make(
        1, ["p", "r", "q"], [("p", ResetDim(1), "r"), ("r", Add((1,)), "q")]
    )
    assert backward_coverability(mc2, ("p", (0,)), "q")


def test_backward_agrees_with_forward_on_100_random_trvass():
    rng = random.Random(99)
    checked = 0
    for seed in range(100):
        mc = random_counter_machine(seed, dims=3, klass="trvass", max_states=4)
        init = ("c0", tuple(rng.randint(0, 2) for _ in range(mc.dims)))
        target = rng.choice(sorted(mc.states))
        probe = forward_witness_search(mc, init, target)
        back = backward_coverability(mc, init, target)
        if probe.kind == "reachable":
            assert back, (seed, init, target)
            checked += 1
        elif probe.kind == "not_reachable_within_bounds":
            assert not back, (seed, init, target)
            checked += 1
    assert checked >= 80  # most instances must be decided forward too


def test_forward_search_refuses_a_wrong_initial_arity():
    # a one-entry vector for two counters is an input error, not a vector
    # whose missing entry the search may ignore
    mc = CounterMachine.make(2, [], [("p", Add((1, 0)), "q"), ("q", Add((0, -1)), "r")])
    with pytest.raises(WrongDimension):
        forward_witness_search(mc, ("p", (0,)), "r")
    with pytest.raises(WrongDimension):
        backward_coverability(mc, ("p", (0,)), "r")


def _forward_by_counter_step(mc, init, target, step_budget, counter_cap):
    """The breadth-first search of `forward_witness_search`, with each
    configuration's successors from `counter_step`: (kind, path)."""
    parents = {init: None}

    def path_to(c):
        out = []
        while c is not None:
            out.append(c)
            c = parents[c]
        return tuple(reversed(out))

    if init[0] == target:
        return "reachable", path_to(init)
    work, clipped, expanded = [init], False, 0
    while work:
        if expanded >= step_budget:
            return "bound_exhausted", None
        c = work.pop(0)
        expanded += 1
        for nxt in sorted(counter_step(mc, c), key=lambda n: (repr(n[0]), n[1])):
            if nxt in parents:
                continue
            if any(x > counter_cap for x in nxt[1]):
                clipped = True
                continue
            parents[nxt] = c
            if nxt[0] == target:
                return "reachable", path_to(nxt)
            work.append(nxt)
    return ("bound_exhausted" if clipped else "not_reachable_within_bounds"), None


def test_forward_search_probes_and_paths_follow_counter_step():
    # grouping the edges by source once per call changes no probe and no path
    rng = random.Random(17)
    kinds = set()
    for seed in range(150):
        mc = random_counter_machine(seed, dims=1 + seed % 4, klass="trvass", max_states=5,
                                    max_transitions=12)
        init = ("c0", tuple(rng.randint(0, 2) for _ in range(mc.dims)))
        target = rng.choice(sorted(mc.states))
        budget, cap = rng.choice([(30, 4), (2_000, 6)])
        probe = forward_witness_search(mc, init, target, step_budget=budget, counter_cap=cap)
        want = _forward_by_counter_step(mc, init, target, budget, cap)
        assert (probe.kind, probe.path) == want, seed
        kinds.add(probe.kind)
    assert len(kinds) == 3


def test_forward_search_orders_successors_by_state_then_numbers():
    # numbers compare as numbers: (9,) comes before (10,), whose text sorts first
    mc = CounterMachine.make(1, [], [("p", Add((9,)), "q"), ("p", Add((10,)), "q")])
    assert forward_witness_search(mc, ("p", (0,)), "q").path[-1] == ("q", (9,))


def _live(mc, init_vec):
    """Counters (0-based) that some run from init_vec can make non-zero."""
    live = {i for i, x in enumerate(init_vec) if x}
    for t in mc.transitions:
        live |= {i - 1 for i, _ in t.effect.post}
    while True:
        grown = live | {
            j - 1
            for t in mc.transitions
            for i, j in t.effect.dest
            if j and i - 1 in live
        }
        if grown == live:
            return live
        live = grown


@pytest.mark.parametrize("klass", ["vass", "rvass", "trvass"])
def test_backward_agrees_with_forward_on_unit_effect_machines(klass):
    rng = random.Random(5)
    checked = pruned = 0
    for seed in range(200):
        dims = 1 + seed % 8
        mc = random_counter_machine(seed, dims=dims, klass=klass, unit_effects=True)
        init = ("c0", tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(dims)))
        target = rng.choice(sorted(mc.states))
        pruned += len(_live(mc, init[1])) < dims
        probe = forward_witness_search(mc, init, target, step_budget=20_000, counter_cap=8)
        back = backward_coverability(mc, init, target)
        if probe.kind == "reachable":
            assert back, (seed, init, target)
            checked += 1
        elif probe.kind == "not_reachable_within_bounds":
            assert not back, (seed, init, target)
            checked += 1
    assert checked >= 160
    assert pruned >= 100  # most machines have a counter no run can raise


# ---------------------------------------------------------------------------
# the projection onto live counters: one hand-built machine per rule


def _decide(mc, init, target):
    """backward_coverability, checked against an exhaustive forward search."""
    back = backward_coverability(mc, init, target)
    probe = forward_witness_search(mc, init, target)
    assert probe.kind != "bound_exhausted"
    assert back == (probe.kind == "reachable"), (init, target)
    return back


def test_transfer_from_a_dead_counter_adds_nothing():
    # counter 1 is never positive; pouring it into live counter 2 is a no-op
    mc = CounterMachine.make(
        2,
        ["p", "q"],
        [
            ("p", Add((0, 1)), "a"),
            ("a", Transfer(1, 2), "b"),
            ("b", Add((0, -1)), "q"),
            ("p", Transfer(1, 2), "c"),
            ("c", Add((0, -1)), "r"),
        ],
    )
    assert _live(mc, (0, 0)) == {1}
    assert _decide(mc, ("p", (0, 0)), "q")
    assert not _decide(mc, ("p", (0, 0)), "r")


def test_reset_of_a_dead_counter_still_fires():
    mc = CounterMachine.make(
        2,
        ["p", "q"],
        [("p", Add((1, 0)), "a"), ("a", ResetDim(2), "b"), ("b", Add((-1, 0)), "q")],
    )
    assert _live(mc, (0, 0)) == {0}
    assert _decide(mc, ("p", (0, 0)), "q")


def test_decrement_of_a_dead_counter_never_fires():
    mc = CounterMachine.make(2, ["p", "q"], [("p", Add((1, -1)), "q")])
    assert _live(mc, (0, 0)) == {0}
    assert not _decide(mc, ("p", (0, 0)), "q")


def test_initial_entry_alone_makes_a_counter_live():
    # counter 2 is never incremented: only init can make it, and through the
    # transfer counter 1, positive
    mc = CounterMachine.make(
        2,
        ["p", "q"],
        [("p", Transfer(2, 1), "a"), ("a", Add((-1, 0)), "q"), ("p", Add((0, -1)), "r")],
    )
    assert _live(mc, (0, 1)) == {0, 1}
    assert _decide(mc, ("p", (0, 1)), "q")
    assert _decide(mc, ("p", (0, 1)), "r")
    assert _live(mc, (0, 0)) == set()
    assert not _decide(mc, ("p", (0, 0)), "q")
    assert not _decide(mc, ("p", (0, 0)), "r")


def test_machine_without_live_counters_is_graph_reachability():
    mc = CounterMachine.make(
        2,
        ["p", "island"],
        [
            ("p", Add((0, 0)), "a"),
            ("a", ResetDim(1), "b"),
            ("b", Transfer(1, 2), "q"),
            ("p", Add((-1, 0)), "r"),
        ],
    )
    assert _live(mc, (0, 0)) == set()
    assert _decide(mc, ("p", (0, 0)), "q")
    assert not _decide(mc, ("p", (0, 0)), "r")
    assert not _decide(mc, ("p", (0, 0)), "island")


def test_set_up_projects_each_distinct_effect_once(monkeypatch):
    # 40 edges over 10 states share 3 effect objects on 8 counters; a token
    # of counters 1-3 goes round, so the forward search is exhaustive, and
    # without it only the transfers fire
    dims = 8
    unit = lambda k: tuple(int(i == k) for i in range(dims))
    effects = [Effect(((1, 1),), (), ((2, 1),)), Transfer(2, 3), Effect(((3, 1),), (), ((1, 1),))]
    rng = random.Random(20)
    states = [f"s{i}" for i in range(10)]
    edges = set()
    while len(edges) < 40:
        edges.add((rng.choice(states), rng.choice(effects), rng.choice(states)))
    mc = CounterMachine.make(dims, states, sorted(edges, key=repr))
    assert len({id(t.effect) for t in mc.transitions}) == 3
    # the same edges with every effect a separate, equal object: more
    # projections, the same answers
    copies = CounterMachine(dims, frozenset(states), frozenset(
        CTransition(t.src, Effect(*t.effect), t.dst) for t in mc.transitions))

    built = []
    real = counters.Effect

    def counting(*fields):
        built.append(fields)
        return real(*fields)

    monkeypatch.setattr(counters, "Effect", counting)
    verdicts = []
    for init, target in product([("s0", unit(0)), ("s0", (0,) * dims)], states[1:]):
        built.clear()
        verdicts.append(_decide(mc, init, target))
        assert len(built) == 3, (init, target)
        assert backward_coverability(copies, init, target) == verdicts[-1]
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# search order and early exit


def test_search_stops_once_the_initial_configuration_is_covered(monkeypatch):
    # init reaches the target in one edge; a chain of 200 other states also
    # leads there, and none of it needs to be explored
    chain = [f"c{i}" for i in range(200)]
    edges = [("init", Add((0,)), "target")]
    edges += [(a, Add((0,)), b) for a, b in zip(chain, chain[1:] + ["target"])]
    mc = CounterMachine.make(1, [], edges)
    inserts = []
    insert = UpSet.insert

    def counting(self, q, v):
        inserts.append(q)
        return insert(self, q, v)

    monkeypatch.setattr(UpSet, "insert", counting)
    assert backward_coverability(mc, ("init", (0,)), "target")
    assert len(inserts) <= 3


_RECORD_INSERTS = """
from histra import UpSet, backward_coverability, hra_to_trvass, kleene_star
from histra.zoo import anchored_distinct_hra

red = hra_to_trvass(kleene_star(anchored_distinct_hra(0)))
inserted = []
insert = UpSet.insert
def recording(self, q, v):
    inserted.append(v)
    return insert(self, q, v)
UpSet.insert = recording
print(backward_coverability(red.machine, red.init, red.target), len(inserted))
print(inserted)
"""


def test_search_order_does_not_depend_on_the_hash_seed():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _RECORD_INSERTS],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    verdict, inserts = outputs[0].split()[:2]
    assert verdict == "True" and int(inserts) > 1


# ---------------------------------------------------------------------------
# one counter: backward coverability against the exact oracle


def _wide_one_counter_machine(seed: int) -> CounterMachine:
    """A seeded one-counter machine whose edges take up to 20, may zero the
    counter and add up to 5, all in one effect: wider and more mixed steps
    than `random_counter_machine` draws."""
    rng = random.Random(seed)
    states = [f"c{i}" for i in range(rng.randint(2, 5))]
    edges = []
    for _ in range(rng.randint(1, 8)):
        pre = rng.choice((0, 0, 1, 2, 5, 20))
        dest = ((1, 0),) if rng.random() < 0.25 else ()
        post = rng.choice((0, 0, 1, 3, 5))
        eff = Effect(_sparse((pre,)), dest, _sparse((post,)))
        edges.append((rng.choice(states), eff, rng.choice(states)))
    return CounterMachine.make(1, states, edges)


def test_one_dim_rejects_wrong_inputs():
    mc = CounterMachine.make(2, ["q"], [("q", Add((0, 0)), "q")])
    with pytest.raises(WrongDimension):
        one_counter_coverable(mc, ("q", (0, 0)), "q")
    one = CounterMachine.make(1, ["q"], [("q", Add((-1,)), "r")])
    for cover in (one_counter_coverable, backward_coverability):
        with pytest.raises(WrongDimension):
            cover(one, ("q", (1, 0)), "r")


def test_one_dim_witness_counts_the_initial_state():
    # an edgeless machine with no states: the initial state alone is
    # reached, with its counter as given
    mc = CounterMachine.make(1, [], [])
    assert forward_witness_search(mc, ("p", (3,)), "p").path == (("p", (3,)),)
    for cover in (one_counter_coverable, backward_coverability):
        assert cover(mc, ("p", (3,)), "p")
        assert not cover(mc, ("p", (3,)), "q")


def test_one_dim_agrees_with_backward_on_100_random():
    rng = random.Random(7)
    covered = 0
    for seed in range(100):
        mc = random_counter_machine(seed, dims=1, klass="rvass", unit_effects=True)
        init = ("c0", (rng.randint(0, 3),))
        target = rng.choice(sorted(mc.states))
        verdict = one_counter_coverable(mc, init, target)
        assert backward_coverability(mc, init, target) == verdict, seed
        covered += verdict
    assert 20 <= covered <= 80, covered  # both verdicts are common


def test_one_dim_agrees_with_backward_on_1000_wide_machines():
    rng = random.Random(9)
    covered = decided = 0
    for seed in range(1000):
        mc = _wide_one_counter_machine(seed)
        init = ("c0", (rng.choice((0, 0, 1, 4, 20, 10_000)),))
        target = rng.choice(sorted(mc.states - {"c0"}))
        verdict = one_counter_coverable(mc, init, target)
        assert backward_coverability(mc, init, target) == verdict, seed
        covered += verdict
        # the forward search is a third opinion wherever it is definite
        probe = forward_witness_search(mc, init, target, step_budget=200, counter_cap=10_050)
        if probe.kind != "bound_exhausted":
            assert (probe.kind == "reachable") == verdict, seed
            decided += 1
    assert 200 <= covered <= 800, covered  # both verdicts are common
    assert decided >= 800, decided


def test_one_dim_wide_pumps_feed_a_wide_take():
    # q needs four pumps of +5 before the -20 edge
    mc = CounterMachine.make(1, [], [("p", Add((5,)), "p"), ("p", Add((-20,)), "q")])
    for cover in (one_counter_coverable, backward_coverability):
        assert cover(mc, ("p", (0,)), "q")
    path = forward_witness_search(mc, ("p", (0,)), "q").path
    assert [v for _, (v,) in path] == [0, 5, 10, 15, 20, 0]
    # zeroing before the +3 leaves too little for the -4, however long p
    # pumps: exact for both procedures, out of the forward search's reach
    zeroed = CounterMachine.make(1, [], [
        ("p", Add((5,)), "p"),
        ("p", Effect((), ((1, 0),), ((1, 3),)), "q"),
        ("q", Add((-4,)), "r"),
    ])
    for cover in (one_counter_coverable, backward_coverability):
        assert cover(zeroed, ("p", (0,)), "q")
        assert not cover(zeroed, ("p", (100,)), "r")
    assert forward_witness_search(zeroed, ("p", (0,)), "r").kind == "bound_exhausted"


def test_forward_search_spends_a_small_budget_on_a_long_pump():
    # q needs 101 pumps: more nodes than a budget of 50, so the forward
    # search gives up where both exact procedures decide
    mc = CounterMachine.make(1, [], [("p", Add((1,)), "p"), ("p", Add((-101,)), "q")])
    init = ("p", (0,))
    for budget, kind in ((50, "bound_exhausted"), (200, "reachable")):
        probe = forward_witness_search(mc, init, "q", step_budget=budget, counter_cap=200)
        assert probe.kind == kind, budget
    assert backward_coverability(mc, init, "q")
    assert one_counter_coverable(mc, init, "q")


def test_one_dim_large_initial_counter():
    mc = CounterMachine.make(
        1,
        ["p", "q"],
        [("p", Add((-1,)), "p"), ("p", Add((-1,)), "q")],
    )
    for cover in (one_counter_coverable, backward_coverability):
        assert cover(mc, ("p", (10_000,)), "q")
        assert cover(mc, ("p", (1,)), "q")
        assert not cover(mc, ("p", (0,)), "q")


def _pump_machine(k: int, take: int = 0) -> CounterMachine:
    """p loops taking `take` and adding take + 1, then p --−k--> q."""
    pump = Effect(_sparse((take,)), (), _sparse((take + 1,)))
    return CounterMachine.make(1, [], [("p", pump, "p"), ("p", Add((-k,)), "q")])


def test_a_pumping_self_loop_is_inserted_at_its_limit(monkeypatch):
    inserts = []
    insert = UpSet.insert

    def counting(self, q, v):
        inserts.append(v)
        return insert(self, q, v)

    monkeypatch.setattr(UpSet, "insert", counting)
    # target, then p at 10^9, then the loop's limit p at 0, which is init
    assert backward_coverability(_pump_machine(10**9), ("p", (0,)), "q")
    assert inserts == [(0,), (10**9,), (0,)]
    # a loop that takes 1 before it adds 2 stops at 1, which 0 lies below;
    # the limit is its own pre-image, so the search ends there
    inserts.clear()
    assert not backward_coverability(_pump_machine(10**9, take=1), ("p", (0,)), "q")
    assert inserts == [(0,), (10**9,), (1,), (1,)]
    # a counter the loop takes and gives back in equal amounts keeps what
    # the cone needs, at least what the loop takes; the other falls to 0
    loop = Effect(((1, 2),), (), ((1, 2), (2, 1)))
    mc = CounterMachine.make(2, [], [("p", loop, "p"), ("p", Add((-5, -10**9)), "q")])
    inserts.clear()
    assert backward_coverability(mc, ("p", (5, 0)), "q")
    assert inserts == [(0, 0), (5, 10**9), (5, 0)]
    assert not backward_coverability(mc, ("p", (4, 10**9)), "q")


def test_pumping_verdicts_agree_with_the_one_counter_oracle():
    for k, take, v0 in product((1, 2, 7, 100, 10**4), (0, 1, 3), (0, 1, 3, 10**4)):
        mc = _pump_machine(k, take)
        verdict = one_counter_coverable(mc, ("p", (v0,)), "q")
        assert backward_coverability(mc, ("p", (v0,)), "q") == verdict, (k, take, v0)
        assert verdict == (v0 >= min(k, take)), (k, take, v0)


@pytest.mark.parametrize("query", [backward_coverability, forward_witness_search,
                                   one_counter_coverable, rvass_to_hra, vass_to_nonreset_hra])
def test_a_negative_initial_entry_is_an_input_error(query):
    # states stay implicit: q is a state because an edge ends there
    mc = CounterMachine.make(1, [], [("p", Add((1,)), "q")])
    with pytest.raises(ValidationError):
        query(mc, ("p", (-1,)), "q")
    query(mc, ("p", (0,)), "q")  # the same query with 0 is fine


@pytest.mark.parametrize("module, name, replacement", [
    (counters, "one_dim_rvass_reachability", "backward_coverability"),
    (reductions, "unary_to_one_rvass", "restricted_hra_to_rvass"),
    (constructions, "to_packed", "complement_deterministic"),
    (constructions, "unpack", "complement_deterministic"),
    (constructions, "packed_determinism_witness", "complement_deterministic"),
])
def test_retired_names_stay_bound_and_raise(module, name, replacement):
    # the benchmark's tracer looks these names up on their modules
    gone = getattr(module, name)
    assert gone.__name__ == name
    with pytest.raises(NotImplementedError, match=replacement):
        gone(None)
    assert name not in histra.__all__ and not hasattr(histra, name)
