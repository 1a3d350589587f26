"""Counter machines: effect semantics, the backward coverability engine,
and the special-cased one-dimensional procedure."""

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
    one_dim_rvass_reachability,
    pre_basis,
)
from histra.cli import CounterDocument, print_counters
from histra.core import subsets
import histra.counters as counters
from histra.counters import CTransition, one_dim_rvass_witness
from histra.errors import TransfersPresent
from histra.oracles import random_counter_machine


# ---------------------------------------------------------------------------
# effects


def test_apply_add_guards_negativity():
    assert apply_effect(Add((1, -1)), (0, 1)) == (1, 0)
    assert apply_effect(Add((0, -1)), (3, 0)) is None


def test_apply_rejects_a_spelled_out_vector_of_another_arity():
    with pytest.raises(WrongDimension, match="does not have arity 1"):
        apply_effect(Effect((1, 0), (), (0, 0)), (5,))
    with pytest.raises(WrongDimension, match="does not have arity 3"):
        apply_effect(Effect((), (), (1, 0)), (5, 0, 0))
    # () is the zero vector of any arity
    assert apply_effect(Effect((), (), ()), (5,)) == (5,)
    assert apply_effect(Effect((), (), (0, 2)), (5, 1)) == (5, 3)


def test_apply_transfer_pours_and_zeroes():
    assert apply_effect(Transfer(1, 2), (3, 4)) == (0, 7)


def test_apply_reset_zeroes_one_dim():
    assert apply_effect(ResetDim(2), (3, 4)) == (3, 0)


def test_make_validates_arity_and_ranges():
    with pytest.raises(WrongDimension, match="at least one dimension"):
        CounterMachine.make(0, ["q"], [])
    with pytest.raises(WrongDimension, match="at least one dimension"):
        Effect((), (), ()).canonical(0)
    with pytest.raises(WrongDimension):
        CounterMachine.make(2, ["q"], [("q", Add((1,)), "q")])
    with pytest.raises(WrongDimension):
        CounterMachine.make(2, ["q"], [("q", ResetDim(3), "q")])
    with pytest.raises(SelfTransfer):
        CounterMachine.make(2, ["q"], [("q", Transfer(1, 1), "q")])
    # wide entries are one edge; rvass_to_hra is what rejects them
    wide = CounterMachine.make(1, ["q"], [("q", Add((2,)), "q")])
    assert [t.effect for t in wide.transitions] == [Add((2,))]
    with pytest.raises(WrongDimension):
        CounterMachine.make(2, ["q"], [("q", Effect((1,), (), ()), "q")])
    with pytest.raises(ValidationError):
        CounterMachine.make(1, ["q"], [("q", Effect((-1,), (), ()), "q")])
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


def test_canonical_sorts_a_wide_reset():
    # the reset of every history on eight zeroes all 255 counters
    dmap = DimensionMap(tuple(subsets(range(1, 9))[1:]))
    dest = dmap.reset_moves(frozenset(range(1, 9)))
    assert len(dest) == 255 and {j for _, j in dest} == {0}
    eff = Effect((), tuple(reversed(dest)), ()).canonical(255)
    assert eff.dest == tuple(sorted(dest)) and eff.pre == eff.post == (0,) * 255


def test_make_shares_one_canonical_object_per_effect():
    # equal before canonical form (two separate objects) or only after it
    # (the zero vector spelled () or in full): one object on every edge
    edges = [
        ("a", Effect((), ((2, 1),), ()), "b"),
        ("b", Effect((), ((2, 1),), ()), "c"),
        ("c", Effect((0, 0), ((2, 1),), (0, 0)), "a"),
        ("a", Add((1, -1)), "c"),
        ("b", Add((1, -1)), "a"),
    ]
    mc = CounterMachine.make(2, [], edges)
    by_src_dst = {(t.src, t.dst): t.effect for t in mc.transitions}
    moved = [by_src_dst[k] for k in [("a", "b"), ("b", "c"), ("c", "a")]]
    assert moved[0] == Effect((0, 0), ((2, 1),), (0, 0))
    assert moved[0] is moved[1] is moved[2]
    assert by_src_dst["a", "c"] is by_src_dst["b", "a"] == Add((1, -1))


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


def test_pre_basis_rejects_a_spelled_out_vector_of_another_arity():
    with pytest.raises(WrongDimension, match="does not have arity 1"):
        pre_basis(Effect((1, 0), (), (0, 0)), (3,))
    with pytest.raises(WrongDimension, match="does not have arity 3"):
        pre_basis(Effect((), (), (1, 0)), (3, 0, 0))
    # () is the zero vector of any arity
    assert pre_basis(Effect((), (), ()), (3,)) == {(3,)}
    assert pre_basis(Effect((1,), (), ()), (3,)) == {(4,)}


def _random_effect(rng, dims):
    """A compound effect as `CounterMachine.make` accepts it: some counters
    move to a counter that does not move, or are zeroed."""
    moved = [i for i in range(1, dims + 1) if rng.random() < 0.5]
    still = [j for j in range(1, dims + 1) if j not in moved]
    dest = tuple((i, rng.choice([0] + still)) for i in moved)
    pre, post = (tuple(rng.randint(0, 3) for _ in range(dims)) for _ in "ab")
    return Effect(pre, dest, post).canonical(dims)


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
        phases = [Add(tuple(-x for x in eff.pre))]
        phases += [Transfer(i, j) if j else ResetDim(i) for i, j in eff.dest]
        phases.append(Add(eff.post))
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


def _live(mc, init_vec):
    """Counters (0-based) that some run from init_vec can make non-zero."""
    live = {i for i, x in enumerate(init_vec) if x}
    for t in mc.transitions:
        live |= {i for i, x in enumerate(t.effect.post) if x > 0}
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
    effects = [Effect(unit(0), (), unit(1)), Transfer(2, 3), Effect(unit(2), (), unit(0))]
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
from histra.constructions import registers_to_histories
from histra.zoo import anchored_distinct_hra

red = hra_to_trvass(registers_to_histories(kleene_star(anchored_distinct_hra(0))))
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
# the one-dimensional engine


def test_one_dim_rejects_wrong_inputs():
    mc = CounterMachine.make(2, ["q"], [("q", Add((0, 0)), "q")])
    with pytest.raises(WrongDimension):
        one_dim_rvass_reachability(mc, ("q", (0, 0)), "q")
    one = CounterMachine.make(1, ["q"], [("q", Add((-1,)), "r")])
    with pytest.raises(WrongDimension):
        one_dim_rvass_witness(one, ("q", (1, 0)), "r")
    # a transfer smuggled past make() must still be refused
    from histra.counters import CTransition

    smuggled = CounterMachine(
        1, frozenset({"q"}), frozenset({CTransition("q", Transfer(1, 1), "q")})
    )
    with pytest.raises(TransfersPresent):
        one_dim_rvass_reachability(smuggled, ("q", (0,)), "q")


def test_one_dim_witness_counts_the_initial_state():
    # an edgeless machine with no states: the initial state alone makes
    # |Q| = 1, so the counter is truncated to 0, not to |Q|^2 - 1 = -1
    path = one_dim_rvass_witness(CounterMachine.make(1, [], []), ("p", (3,)), "p")
    assert path is not None and path[0][0] == "p"
    assert all(x >= 0 for _, v in path for x in v)


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


def test_one_dim_caps_count_the_unit_steps_of_wide_edges():
    # two states, but q needs four pumps of +5: the caps must be those of
    # the machine spelled as unit steps (25 states), not of this one
    mc = CounterMachine.make(1, [], [("p", Add((5,)), "p"), ("p", Add((-20,)), "q")])
    assert backward_coverability(mc, ("p", (0,)), "q")
    assert one_dim_rvass_reachability(mc, ("p", (0,)), "q")
    path = one_dim_rvass_witness(mc, ("p", (0,)), "q")
    assert [v for _, (v,) in path] == [0, 5, 10, 15, 20, 0]


def test_one_dim_search_budget_comes_from_the_caps():
    # q needs 100,001 pumps: more nodes than the forward search's default
    # budget, but well inside the capped space the one-counter caps give
    mc = CounterMachine.make(1, [], [("p", Add((1,)), "p"), ("p", Add((-100_001,)), "q")])
    assert forward_witness_search(mc, ("p", (0,)), "q").kind == "bound_exhausted"
    assert backward_coverability(mc, ("p", (0,)), "q")
    assert one_dim_rvass_reachability(mc, ("p", (0,)), "q")


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
