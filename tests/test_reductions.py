"""Automata-to-counter-machine translations and the emptiness pipeline."""

import dataclasses
import random

import pytest

from histra import (
    Accept,
    Add,
    DanglingState,
    DimensionMap,
    Effect,
    NonUnitEffect,
    RegistersPresent,
    Reset,
    ResetDim,
    ResetsPresent,
    ScopeViolation,
    StateTag,
    Transfer,
    TransfersOrResetsPresent,
    WrongDimension,
    backward_coverability,
    classify,
    colouring_scope_ok,
    eliminate_registers_colouring,
    emptiness,
    fix_names,
    hra_to_trvass,
    make_hra,
    membership,
    nonreset_to_vass,
    registers_to_histories,
    restricted_hra_to_rvass,
    restriction_ok,
    rvass_to_hra,
    validate,
    vass_to_nonreset_hra,
)
from histra.core import initial_config, subsets
from histra.cli import parse_counters
from histra.counters import CounterMachine, counter_step
from histra.oracles import (
    Lang,
    bounded_emptiness,
    enumerate_words,
    one_counter_coverable,
    oracle_membership,
    random_counter_machine,
    random_hra,
)
from histra.skeletons import skeleton_of
from histra.zoo import (
    all_distinct_hra,
    anchored_blocks_hra,
    generate_then_consume_hra,
    no_immediate_repeat_register_hra,
    not_all_twice_hra,
    two_tracks_hra,
)

from conftest import deterministic


def s(*xs):
    return frozenset(xs)


def _strip_finals(a):
    return dataclasses.replace(a, finals=frozenset())


# ---------------------------------------------------------------------------
# full translation (histories only -> transfer machines)


def test_trvass_dimensions_are_the_nonempty_history_subsets():
    red = hra_to_trvass(generate_then_consume_hra())
    assert red.machine.dims == 1  # c_{1}: ∅ has no counter
    assert red.dimension_map.placesets == (s(1),)
    assert [f.name for f in dataclasses.fields(red.dimension_map)] == ["placesets"]


def test_trvass_has_no_empty_counter_and_is_rvass_on_the_restricted_class():
    # a reset of every history zeroes counters instead of pouring them into ∅
    for seed in range(800):
        a = random_hra(seed, max_m=3, max_n=0, max_states=5, subclass="restricted")
        red = hra_to_trvass(a)
        assert s() not in red.dimension_map.placesets, seed
        assert len(red.dimension_map.placesets) == 2 ** a.m - 1, seed
        assert red.machine.is_rvass(), seed


@pytest.mark.parametrize("pruned", [False, True], ids=["all", "pruned"])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 8])
def test_reset_moves_match_their_definition(m, pruned):
    # the map of hra_to_trvass (every non-empty history subset) and a pruned
    # one, as restricted_hra_to_rvass builds, with no singleton counters, so
    # that some X∖Y ≠ ∅ has no counter; every reset set up to m = 4, and 20
    # seeded ones on the 255 counters of m = 8
    hist = range(1, m + 1)
    placesets = tuple(x for x in subsets(hist)[1:] if not pruned or len(x) > 1)
    dmap = DimensionMap(placesets or (s(),))
    n = len(dmap.placesets)
    ys = subsets(hist)
    if m > 4:
        rng = random.Random(m)
        ys = [frozenset(p for p in hist if rng.random() < 0.5) for _ in range(20)]
    for y in ys:
        for targets in (y, y | {m + 1}):  # a register place changes nothing
            moves = dmap.reset_moves(targets)
            expected = {
                (dmap.dim_of(x), dmap.dim_of(x - y) if x - y in dmap.placesets else 0)
                for x in dmap.placesets if x & y
            }
            assert len(moves) == len(expected) and set(moves) == expected, (m, y)
            assert Effect((), moves, ()).canonical(n).dest == tuple(sorted(moves))
            assert dmap.reset_moves(targets) is moves  # one list per reset set


def test_dimension_map_value_is_its_fields():
    p = (s(1), s(2), s(1, 2))
    a, b = DimensionMap(p), DimensionMap(p)
    a.reset_moves(s(1))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == f"DimensionMap(placesets={p!r})"
    assert [a.dim_of(x) for x in p] == [1, 2, 3]
    with pytest.raises(ValueError, match="no dimension"):
        a.dim_of(s(3))


def test_trvass_initial_vector_counts_placesets():
    a = make_hra(
        2,
        0,
        states=["q"],
        initial="q",
        transitions=[],
        finals=[],
        initial_contents={1: [1, 2], 2: [2, 3]},
    )
    red = hra_to_trvass(a)
    counts = dict(zip(red.dimension_map.placesets, red.init[1]))
    assert counts == {s(1): 1, s(2): 1, s(1, 2): 1}  # no counter for ∅


def test_trvass_rejects_registers():
    with pytest.raises(RegistersPresent):
        hra_to_trvass(anchored_blocks_hra(0))


def test_trvass_no_finals_is_uncoverable():
    red = hra_to_trvass(_strip_finals(generate_then_consume_hra()))
    assert not backward_coverability(red.machine, red.init, red.target)


def test_trvass_on_ten_histories_agrees_with_emptiness():
    # six histories and two registers become ten histories: 1,023 counters
    a = random_hra(6, max_m=6, max_n=2, max_states=12, max_transitions=40)
    red = hra_to_trvass(registers_to_histories(a))
    assert red.machine.dims == 1023
    covered = backward_coverability(red.machine, red.init, red.target)
    assert covered == (not emptiness(a).is_empty)


def test_trvass_decides_l3():
    red = hra_to_trvass(generate_then_consume_hra())
    assert backward_coverability(red.machine, red.init, red.target)


# ---------------------------------------------------------------------------
# co-simulation: the counters track |H@X| exactly, one machine edge per
# automaton transition


def _random_walk(a, rng, steps):
    """A random fireable run; yields (config, transition, letter, config')."""
    cfg = initial_config(a)
    for _ in range(steps):
        q, h = cfg
        options = []
        for t in sorted(a.transitions, key=repr):
            if t.src != q:
                continue
            if isinstance(t.label, Accept):
                if t.label.pre:
                    pool = h.at(t.label.pre)
                    if pool:
                        options.append((t, min(pool)))
                else:
                    options.append((t, h.fresh_name()))
            else:
                options.append((t, None))
        if not options:
            return
        t, letter = rng.choice(options)
        if letter is None:
            h2 = h.reset_places(t.label.targets)
        else:
            h2 = h.move_name(letter, t.label.post, a.m)
        yield cfg, t, letter, (t.dst, h2)
        cfg = (t.dst, h2)


def _counts(h, placesets):
    return tuple(len(h.at(x)) if x else 0 for x in placesets)  # ∅ pads an empty map


@pytest.mark.parametrize("seed", range(25))
def test_trvass_cosimulation_random_walks(seed):
    a = random_hra(seed, max_m=2, max_n=0, max_states=4)
    red = hra_to_trvass(a)
    tracked = red.dimension_map.placesets  # every counter
    rng = random.Random(seed)
    mcfg = red.init
    assert mcfg[1] == _counts(a.initial_assignment, tracked)
    for _cfg, t, _letter, (q2, h2) in _random_walk(a, rng, 12):
        want = _counts(h2, tracked)
        hops = counter_step(red.machine, mcfg)
        matches = [hop for hop in hops if hop[0] == q2 and hop[1] == want]
        assert matches, (seed, t, q2, want, hops)
        mcfg = matches[0]


def _partial_resets():
    """Names land on mixes of both histories and the register; resets wipe
    one history, or one history and the register."""
    return make_hra(
        2,
        1,
        states=["q"],
        initial="q",
        transitions=[
            ("q", Accept(s(), s(1)), "q"),
            ("q", Accept(s(), s(1, 2)), "q"),
            ("q", Accept(s(), s(1, 3)), "q"),
            ("q", Accept(s(1), s(2, 3)), "q"),
            ("q", Accept(s(3), s(1, 2, 3)), "q"),
            ("q", Accept(s(1, 2), s(2)), "q"),
            ("q", Reset(s(1)), "q"),
            ("q", Reset(s(2)), "q"),
            ("q", Reset(s(1, 3)), "q"),
        ],
        finals=["q"],
    )


@pytest.mark.parametrize("seed", range(25))
def test_restricted_cosimulation_tracks_skeleton_and_counts(seed):
    # resets that wipe some histories but not all become transfers: the
    # counts after one must still match a machine hop
    for a in (
        random_hra(seed, max_m=2, max_n=1, max_states=3, subclass="restricted"),
        random_hra(seed, max_m=2, max_n=1, max_states=3),
        _partial_resets(),
    ):
        red = restricted_hra_to_rvass(a)
        rng = random.Random(seed)
        mcfg = red.init
        for _cfg, t, _letter, (q2, h2) in _random_walk(a, rng, 16):
            want_state = StateTag("st", (q2, skeleton_of(h2, a.m, a.n)))
            want = _counts(h2, red.dimension_map.placesets)
            hops = counter_step(red.machine, mcfg)
            matches = [hop for hop in hops if hop == (want_state, want)]
            assert matches, (seed, t, want_state, want, hops)
            mcfg = matches[0]


def test_skeleton_machine_is_rvass_on_restricted_automata():
    # restriction_ok => R-VASS; the converse no longer holds, since a
    # partial reset of place-sets that no later step reads becomes zeroings
    transfers = 0
    for seed in range(300):
        a = random_hra(seed, max_m=2, max_n=1, max_states=4)
        red = restricted_hra_to_rvass(a)
        # resets at states the skeleton search never reaches emit nothing
        reached = {q.payload[0] for q in red.machine.states if q.kind == "st"}
        live = dataclasses.replace(
            a, transitions=frozenset(t for t in a.transitions if t.src in reached)
        )
        if restriction_ok(live):
            assert red.machine.is_rvass(), seed
        transfers += not red.machine.is_rvass()
    assert transfers  # some partial reset still pours a readable set


_SUBCLASSES = (None, "non_reset", "unary", "restricted", "colouring")


def test_readable_counters_are_exact_and_pruned():
    # the pruned skeleton machine against the unpruned full translation
    zeroed = dropped = 0
    for seed in range(600):
        a = random_hra(seed, max_m=3, max_n=1, max_states=5,
                       subclass=_SUBCLASSES[seed % len(_SUBCLASSES)])
        red = restricted_hra_to_rvass(a)
        covered = backward_coverability(red.machine, red.init, red.target)
        full = hra_to_trvass(registers_to_histories(a))
        assert covered == backward_coverability(full.machine, full.init, full.target), seed
        probe = bounded_emptiness(a, 6).kind
        if probe == "nonempty":
            assert covered, seed
        elif probe == "empty_within_bound":
            assert not covered, seed
        # never more counters than the parent rules gave
        placesets = red.dimension_map.placesets
        assert len(placesets) <= max(1, 2 ** a.m - 1), seed
        hist = frozenset(range(1, a.m + 1))
        if classify(a).non_reset:
            labels = {x for t in a.transitions if isinstance(t.label, Accept)
                      for x in (t.label.pre, t.label.post) if x and x <= hist}
            assert set(placesets) <= labels | {s()}, seed
        # a reset move the full map would transfer, zeroed here
        resets = {t.label.targets for t in a.transitions if isinstance(t.label, Reset)}
        zeroed += any(
            not j and placesets[i - 1] - y
            for e in red.machine.transitions if e.effect.dest
            for y in resets if set(red.dimension_map.reset_moves(y)) == set(e.effect.dest)
            for i, j in e.effect.dest
        )
        # a pure put from a reached state, dropped here
        reached = {q.payload[0] for q in red.machine.states if q.kind == "st"}
        dropped += any(
            t.src in reached and t.label.post <= hist and t.label.post not in placesets
            for t in a.transitions if isinstance(t.label, Accept) and t.label.post
        )
    assert zeroed and dropped, (zeroed, dropped)


# ---------------------------------------------------------------------------
# unit-effect reset machines back to automata


def test_rvass_to_hra_rejects_wide_effects():
    mc = CounterMachine.make(2, ["q"], [("q", Add((1, 1)), "q")])
    with pytest.raises(NonUnitEffect):
        rvass_to_hra(mc, ("q", (0, 0)), "q")
    mc2 = CounterMachine.make(2, ["q"], [("q", Transfer(1, 2), "q")])
    with pytest.raises(NonUnitEffect):
        rvass_to_hra(mc2, ("q", (0, 0)), "q")
    mc3 = parse_counters("RVASS 2\nTRANS q q ADD 2 -3\n").machine
    with pytest.raises(NonUnitEffect):
        rvass_to_hra(mc3, ("q", (0, 3)), "q")


def test_rvass_to_hra_rejects_a_wrong_initial_arity():
    mc = CounterMachine.make(2, ["q"], [("q", Add((1, 0)), "q")])
    with pytest.raises(WrongDimension):
        rvass_to_hra(mc, ("q", (0,)), "q")


def test_rvass_to_hra_rejects_query_states_outside_the_machine():
    mc = CounterMachine.make(1, ["q"], [("q", Add((1,)), "q")])
    for init, target in ((("ghost", (0,)), "q"), (("q", (0,)), "elsewhere")):
        with pytest.raises(DanglingState):
            rvass_to_hra(mc, init, target)


def test_rvass_to_hra_simple_pump():
    mc = CounterMachine.make(
        1, ["q0", "q1", "qf"], [("q0", Add((1,)), "q1"), ("q1", Add((-1,)), "qf")]
    )
    a = rvass_to_hra(mc, ("q0", (0,)), "qf")
    validate(a)
    assert a.m >= 3 and a.n == 0
    assert not emptiness(a).is_empty


def test_rvass_to_hra_isolated_target_is_empty():
    mc = CounterMachine.make(1, ["q0", "island"], [("q0", Add((1,)), "q0")])
    a = rvass_to_hra(mc, ("q0", (0,)), "island")
    assert emptiness(a).is_empty


def test_rvass_to_hra_reset_semantics():
    # counter must be wiped: decrement after reset fails from (q0, 5)
    mc = CounterMachine.make(
        1,
        ["q0", "q1", "qf"],
        [("q0", ResetDim(1), "q1"), ("q1", Add((-1,)), "qf")],
    )
    a = rvass_to_hra(mc, ("q0", (5,)), "qf")
    assert emptiness(a).is_empty
    mc2 = CounterMachine.make(
        1,
        ["q0", "q1", "q2", "qf"],
        [
            ("q0", ResetDim(1), "q1"),
            ("q1", Add((1,)), "q2"),
            ("q2", Add((-1,)), "qf"),
        ],
    )
    assert not emptiness(rvass_to_hra(mc2, ("q0", (5,)), "qf")).is_empty


@pytest.mark.parametrize("seed", range(50))
def test_rvass_round_trip_50_random(seed):
    mc = random_counter_machine(seed, dims=2, klass="rvass", unit_effects=True)
    rng = random.Random(seed + 1000)
    init = ("c0", tuple(rng.randint(0, 2) for _ in range(mc.dims)))
    target = rng.choice(sorted(mc.states))
    direct = backward_coverability(mc, init, target)
    a = rvass_to_hra(mc, init, target)
    validate(a)
    assert (not emptiness(a).is_empty) == direct


@pytest.mark.parametrize("seed", range(25))
def test_rvass_to_hra_strong_determinism_for_deterministic_sources(seed):
    mc = random_counter_machine(
        seed, dims=2, klass="rvass", unit_effects=True, deterministic=True
    )
    a = rvass_to_hra(mc, ("c0", (1, 0)), sorted(mc.states)[-1])
    assert deterministic(a), seed


# ---------------------------------------------------------------------------
# restricted discipline


def _partial_reset_then_read():
    """A name at {1,2}, a reset of history 1 that moves it to {2}, and a
    letter that reads {2}: the partial reset is a transfer."""
    return make_hra(
        2,
        0,
        states=["q"],
        initial="q",
        transitions=[("q", Reset(s(1)), "q"), ("q", Accept(s(2), s()), "q")],
        finals=["q"],
        initial_contents={1: [1], 2: [1]},
    )


def test_restriction_predicate():
    assert restriction_ok(generate_then_consume_hra())
    assert restriction_ok(anchored_blocks_hra(0))  # m=1: any reset covers [m]
    bad = _partial_reset_then_read()
    assert not restriction_ok(bad)
    assert not restricted_hra_to_rvass(bad).machine.is_rvass()  # the reset became transfers


def test_restricted_on_l3_matches_trvass():
    a = generate_then_consume_hra()
    red = restricted_hra_to_rvass(a)
    assert red.machine.is_rvass()
    covered = backward_coverability(red.machine, red.init, red.target)
    assert covered == backward_coverability(
        hra_to_trvass(a).machine, hra_to_trvass(a).init, hra_to_trvass(a).target
    )


def test_restricted_handles_full_history_reset():
    a = anchored_blocks_hra(0)  # resets history 1, i.e. all of [m]
    red = restricted_hra_to_rvass(a)
    assert backward_coverability(red.machine, red.init, red.target)


# ---------------------------------------------------------------------------
# non-reset <-> plain vector addition


def test_nonreset_dims_are_label_occurring_sets():
    red = nonreset_to_vass(not_all_twice_hra())
    assert red.machine.is_vass()
    assert set(red.dimension_map.placesets) == {s(1), s(2)}


def _resetful():
    return make_hra(
        1,
        0,
        states=["q"],
        initial="q",
        transitions=[("q", Reset(s(1)), "q")],
        finals=["q"],
    )


def test_nonreset_rejects_resets_and_translates_registers():
    with pytest.raises(ResetsPresent):
        nonreset_to_vass(_resetful())
    a = no_immediate_repeat_register_hra()
    red = nonreset_to_vass(a)
    assert red.machine.is_vass()
    assert red == restricted_hra_to_rvass(a)
    covered = backward_coverability(red.machine, red.init, red.target)
    assert covered == (not emptiness(a).is_empty) == (bounded_emptiness(a, 4).kind == "nonempty")


def test_nonreset_pure_graph_reachability_with_zero_dims():
    a = make_hra(
        1,
        0,
        states=["p", "q"],
        initial="p",
        transitions=[("p", Accept(s(), s()), "q")],
        finals=["q"],
    )
    red = nonreset_to_vass(a)
    assert red.machine.dims == 1  # padded inert dimension
    assert backward_coverability(red.machine, red.init, red.target)


def test_vass_to_nonreset_hra_bijection_onto_bit_patterns():
    mc = CounterMachine.make(3, ["q"], [("q", Add((0, 0, 0)), "q")])
    a = vass_to_nonreset_hra(mc, ("q", (1, 1, 1)), "q")
    assert a.m == 2  # ceil(log2(4))
    h0 = a.initial_assignment
    assert len(h0.at(s(1))) == 1
    assert len(h0.at(s(2))) == 1
    assert len(h0.at(s(1, 2))) == 1


def test_vass_to_nonreset_hra_rejects_resets():
    mc = CounterMachine.make(1, ["q"], [("q", __import__("histra").ResetDim(1), "q")])
    with pytest.raises(TransfersOrResetsPresent):
        vass_to_nonreset_hra(mc, ("q", (0,)), "q")


def test_vass_to_nonreset_hra_rejects_a_wrong_initial_arity():
    mc = CounterMachine.make(2, ["q"], [("q", Add((1, -1)), "q")])
    with pytest.raises(WrongDimension):
        vass_to_nonreset_hra(mc, ("q", (0, 0, 0)), "q")


def test_vass_to_nonreset_hra_rejects_query_states_outside_the_machine():
    mc = CounterMachine.make(1, ["q"], [("q", Add((1,)), "q")])
    for init, target in ((("ghost", (0,)), "q"), (("q", (0,)), "elsewhere")):
        with pytest.raises(DanglingState):
            vass_to_nonreset_hra(mc, init, target)


def test_vass_staging_consumes_dims_in_order():
    # one transition touching three dims must still respect the guard on each
    mc = CounterMachine.make(
        3,
        ["p", "q"],
        [("p", Add((1, -1, 1)), "q")],
    )
    a = vass_to_nonreset_hra(mc, ("p", (0, 1, 0)), "q")
    assert not emptiness(a).is_empty
    a2 = vass_to_nonreset_hra(mc, ("p", (0, 0, 0)), "q")
    assert emptiness(a2).is_empty


def test_vass_to_nonreset_hra_stages_wide_entries_unit_by_unit():
    # a -> b needs three units of counter 2 and leaves two of counter 1,
    # which b -> c then needs
    mc = parse_counters("VASS 2\nTRANS a b ADD 2 -3\nTRANS b c ADD -2 0\n").machine
    for init in [(x, y) for x in range(2) for y in range(5)]:
        for target in ("b", "c"):
            a = vass_to_nonreset_hra(mc, ("a", init), target)
            validate(a)
            covered = backward_coverability(mc, ("a", init), target)
            assert covered == (init[1] >= 3), (init, target)
            assert emptiness(a).is_empty == (not covered), (init, target)


@pytest.mark.parametrize("seed", range(50))
def test_vass_round_trip_50_random(seed):
    mc = random_counter_machine(seed, dims=3, klass="vass")
    rng = random.Random(seed + 2000)
    init = ("c0", tuple(rng.randint(0, 2) for _ in range(mc.dims)))
    target = rng.choice(sorted(mc.states))
    direct = backward_coverability(mc, init, target)
    a = vass_to_nonreset_hra(mc, init, target)
    validate(a)
    assert (not emptiness(a).is_empty) == direct


# ---------------------------------------------------------------------------
# unary


def test_unary_l3_machine_shape_and_verdicts():
    # one history: the skeleton machine is the paper's one-counter R-VASS
    red = restricted_hra_to_rvass(generate_then_consume_hra())
    assert red.machine.dims == 1 and red.machine.is_rvass()
    assert backward_coverability(red.machine, red.init, red.target)
    assert one_counter_coverable(red.machine, red.init, red.target)


def test_unary_initial_counter_counts_pure_history_names():
    # names also held by a register must not count toward the history counter
    a = make_hra(
        1,
        1,
        states=["q", "f"],
        initial="q",
        transitions=[("q", Accept(s(1), s()), "f")],
        finals=["f"],
        initial_contents={1: [4, 5], 2: [5]},
    )
    red = restricted_hra_to_rvass(a)
    assert red.init[1] == (1,)  # only name 4 is at exactly {1}


# ---------------------------------------------------------------------------
# colouring


def test_colouring_scope_checks():
    assert colouring_scope_ok(no_immediate_repeat_register_hra())
    assert not colouring_scope_ok(anchored_blocks_hra(0))  # nonempty reset
    filled = make_hra(
        0,
        1,
        states=["q"],
        initial="q",
        transitions=[],
        finals=["q"],
        initial_contents={1: [3]},
    )
    assert not colouring_scope_ok(filled)
    with pytest.raises(ScopeViolation):
        eliminate_registers_colouring(filled)


def test_colouring_returns_register_free_input_unchanged():
    a = two_tracks_hra()
    assert eliminate_registers_colouring(a) is a


def test_colouring_l5_agrees_with_oracle_to_length_7():
    col = eliminate_registers_colouring(no_immediate_repeat_register_hra())
    assert (col.m, col.n) == (3, 0)
    for w in enumerate_words((0, 1, 2), 7):
        assert membership(col, w) == oracle_membership(Lang.NO_IMMEDIATE_REPEAT, w), w


@pytest.mark.parametrize("seed", range(20))
def test_colouring_random_in_scope_agreement(seed):
    a = random_hra(seed, max_m=1, max_n=1, max_states=3, subclass="colouring")
    col = eliminate_registers_colouring(a)
    validate(col)
    for w in enumerate_words((0, 1, 2), 5):
        assert membership(a, w) == membership(col, w), (seed, w)


# ---------------------------------------------------------------------------
# explored outputs


def _reachable(initial, arcs):
    """The states reachable from `initial` along the (src, dst) pairs `arcs`."""
    succ = {}
    for src, dst in arcs:
        succ.setdefault(src, []).append(dst)
    seen, todo = {initial}, [initial]
    while todo:
        for q in succ.get(todo.pop(), ()):
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return seen


@pytest.mark.parametrize("subclass", [None, "restricted", "colouring"])
def test_explored_outputs_reach_every_state(subclass):
    # the constructions and the skeleton reduction emit only what a search
    # from the initial pair reaches (the reduction's target is reachable
    # only when a final state is)
    for seed in range(150):
        a = random_hra(seed, max_m=2, max_n=2, max_states=4, max_transitions=8,
                       subclass=subclass)
        built = [fix_names(a, (0, 1))]
        if a.n:
            built.append(registers_to_histories(a))
            if colouring_scope_ok(a):
                built.append(eliminate_registers_colouring(a))
        for b in built:
            reached = _reachable(b.initial, [(t.src, t.dst) for t in b.transitions])
            assert reached == b.states, (seed, b)
        red = restricted_hra_to_rvass(a)
        mc = red.machine
        reached = _reachable(red.init[0], [(t.src, t.dst) for t in mc.transitions])
        assert reached | {red.target} == mc.states, seed


# ---------------------------------------------------------------------------
# the orchestrator


def test_auto_routing_by_class():
    # every class takes the one pipeline
    for a in (generate_then_consume_hra(), two_tracks_hra(), no_immediate_repeat_register_hra()):
        assert emptiness(a).engine == "restricted"
    mixed = make_hra(
        2,
        0,
        states=["q"],
        initial="q",
        transitions=[("q", Reset(s(1, 2)), "q")],
        finals=["q"],
    )
    assert emptiness(mixed).engine == "restricted"
    assert restricted_hra_to_rvass(mixed).machine.is_rvass()
    unrestricted = _partial_reset_then_read()
    res = emptiness(unrestricted)
    assert res.engine == "restricted"
    moves = {m for t in restricted_hra_to_rvass(unrestricted).machine.transitions
             for m in t.effect.dest}
    assert any(j for _, j in moves)  # the reset of history 1 pours {1,2} into {2}
    assert bounded_emptiness(unrestricted, 8).kind == "nonempty"
    assert res.is_empty is False


def test_bounded_engine_definite_and_indeterminate():
    res = emptiness(generate_then_consume_hra(), engine="bounded")
    assert res.is_empty is False
    hopeless = _strip_finals(all_distinct_hra())
    res2 = emptiness(hopeless, engine="bounded", bound=3)
    assert res2.is_empty is None


def test_unknown_engine_is_rejected():
    with pytest.raises(ValueError):
        emptiness(two_tracks_hra(), engine="trvass")


@pytest.mark.parametrize("seed", range(50))
def test_engines_agree_on_random_automata(seed, translation_verdicts):
    a = random_hra(seed, max_m=2, max_n=1, max_states=4)
    verdict = emptiness(a).is_empty
    verdicts = translation_verdicts(a)
    assert set(verdicts.values()) == {verdict}, (seed, verdict, verdicts)
    probe = bounded_emptiness(a, 8)
    if probe.kind == "nonempty":
        assert verdict is False, (seed, verdicts)
    elif probe.kind == "empty_within_bound":
        assert verdict is True, (seed, verdicts)
