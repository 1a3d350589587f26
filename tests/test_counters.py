"""Counter machines: effect semantics, the backward coverability engine,
and the special-cased one-dimensional procedure."""

import random
from itertools import product

import pytest

from histra import (
    Add,
    CounterMachine,
    NonUnitEffect,
    ResetDim,
    SelfTransfer,
    Transfer,
    UpSet,
    WrongDimension,
    apply_effect,
    backward_coverability,
    counter_step,
    forward_witness_search,
    one_dim_rvass_reachability,
    pre_basis,
)
from histra.cli import CounterDocument, print_counters
from histra.counters import one_dim_rvass_witness
from histra.errors import TransfersPresent
from histra.oracles import random_counter_machine


# ---------------------------------------------------------------------------
# effects


def test_apply_add_guards_negativity():
    assert apply_effect(Add((1, -1)), (0, 1)) == (1, 0)
    assert apply_effect(Add((0, -1)), (3, 0)) is None


def test_apply_transfer_pours_and_zeroes():
    assert apply_effect(Transfer(1, 2), (3, 4)) == (0, 7)


def test_apply_reset_zeroes_one_dim():
    assert apply_effect(ResetDim(2), (3, 4)) == (3, 0)


def test_make_validates_arity_and_ranges():
    with pytest.raises(WrongDimension):
        CounterMachine.make(2, ["q"], [("q", Add((1,)), "q")])
    with pytest.raises(WrongDimension):
        CounterMachine.make(2, ["q"], [("q", ResetDim(3), "q")])
    with pytest.raises(SelfTransfer):
        CounterMachine.make(2, ["q"], [("q", Transfer(1, 1), "q")])
    with pytest.raises(NonUnitEffect):
        CounterMachine.make(1, ["q"], [("q", Add((2,)), "q")])


def test_make_adds_transition_endpoints_to_the_states():
    mc = CounterMachine.make(1, ["a"], [("a", Add((1,)), "b"), ("b", Add((-1,)), "c")])
    assert mc.states == {"a", "b", "c"}
    assert one_dim_rvass_reachability(mc, ("a", (0,)), "c")
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


# ---------------------------------------------------------------------------
# the one-dimensional engine


def test_one_dim_rejects_wrong_inputs():
    mc = CounterMachine.make(2, ["q"], [("q", Add((0, 0)), "q")])
    with pytest.raises(WrongDimension):
        one_dim_rvass_reachability(mc, ("q", (0, 0)), "q")
    # a transfer smuggled past make() must still be refused
    from histra.counters import CTransition

    smuggled = CounterMachine(
        1, frozenset({"q"}), frozenset({CTransition("q", Transfer(1, 1), "q")})
    )
    with pytest.raises(TransfersPresent):
        one_dim_rvass_reachability(smuggled, ("q", (0,)), "q")


def test_one_dim_agrees_with_backward_on_100_random():
    rng = random.Random(7)
    for seed in range(100):
        mc = random_counter_machine(seed, dims=1, klass="rvass", unit_effects=True)
        init = ("c0", (rng.randint(0, 3),))
        target = rng.choice(sorted(mc.states))
        assert one_dim_rvass_reachability(mc, init, target) == backward_coverability(
            mc, init, target
        ), seed


def test_one_dim_witness_length_bound():
    rng = random.Random(8)
    for seed in range(100):
        mc = random_counter_machine(seed, dims=1, klass="rvass", unit_effects=True)
        init = ("c0", (rng.randint(0, 3),))
        target = rng.choice(sorted(mc.states))
        w = one_dim_rvass_witness(mc, init, target)
        if w is not None:
            assert w[0] == init and w[-1][0] == target
            assert len(w) - 1 <= len(mc.states) ** 2, seed


def test_one_dim_large_initial_counter_is_clipped_soundly():
    # an initial value far above the cap must not break the decision
    mc = CounterMachine.make(
        1,
        ["p", "q"],
        [("p", Add((-1,)), "p"), ("p", Add((-1,)), "q")],
    )
    assert one_dim_rvass_reachability(mc, ("p", (10_000,)), "q")
    assert one_dim_rvass_reachability(mc, ("p", (1,)), "q")
    assert not one_dim_rvass_reachability(mc, ("p", (0,)), "q")
