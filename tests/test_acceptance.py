"""End-to-end acceptance suite.

Each test is one verdict line under ``pytest -v``: the automaton catalogue
against definitional oracles, the closure identities, the translation round
trips, the decision-procedure cross-checks, and the symmetry property.
"""

import dataclasses
import math
import random
import time

from histra import (
    Add,
    ResetDim,
    Transfer,
    backward_coverability,
    bounded_bisimulation,
    complement_deterministic,
    concatenation,
    containment_deterministic,
    eliminate_registers_colouring,
    emptiness,
    fix_names,
    forward_witness_search,
    intersection,
    kleene_star,
    membership,
    pre_basis,
    registers_to_histories,
    rvass_to_hra,
    union,
)
from histra.constructions import _enlist_initial_names
from histra.core import Assignment, eps_closure, initial_config, step
from histra.counters import apply_effect
from histra.oracles import (
    Lang,
    enumerate_words,
    one_counter_coverable,
    oracle_membership,
    random_counter_machine,
    random_hra,
)
from histra.skeletons import (
    Skeleton,
    enumerate_skeletons,
    skel_move,
    skel_reset,
    skeleton_of,
)
from histra.zoo import (
    all_distinct_hra,
    alternating_pair_hras,
    anchored_blocks_hra,
    anchored_distinct_hra,
    generate_then_consume_hra,
    no_immediate_repeat_history_hra,
    no_immediate_repeat_register_hra,
    not_all_twice_hra,
    two_step_distinct_hra,
    two_tracks_hra,
)

from conftest import deterministic

ALPHA = (0, 1, 2)


def s(*xs):
    return frozenset(xs)


def _agree(a, predicate, max_len, alphabet=ALPHA):
    mism = [
        w
        for w in enumerate_words(alphabet, max_len)
        if membership(a, w) != predicate(w)
    ]
    assert not mism, f"{len(mism)} mismatches, first: {mism[:5]}"


def _zoo():
    a1, a2 = alternating_pair_hras()
    return [
        all_distinct_hra(),
        generate_then_consume_hra(),
        anchored_blocks_hra(0),
        anchored_distinct_hra(0),
        two_tracks_hra(),
        not_all_twice_hra(),
        no_immediate_repeat_register_hra(),
        no_immediate_repeat_history_hra(),
        a1,
        a2,
        two_step_distinct_hra(),
    ]


# ---------------------------------------------------------------------------


def test_catalogue_automata_match_their_oracles_exhaustively():
    started = time.monotonic()
    a1, a2 = alternating_pair_hras()
    cases = [
        (generate_then_consume_hra(), Lang.GENERATE_CONSUME, 6),
        (anchored_blocks_hra(0), Lang.ANCHORED_BLOCKS, 6),
        (two_tracks_hra(), Lang.TWO_TRACKS_DISTINCT, 6),
        (not_all_twice_hra(), Lang.NOT_ALL_TWICE, 6),
        (no_immediate_repeat_register_hra(), Lang.NO_IMMEDIATE_REPEAT, 7),
        (no_immediate_repeat_history_hra(), Lang.NO_IMMEDIATE_REPEAT, 7),
        (a1, Lang.ODD_TRACK_DISTINCT, 6),
        (a2, Lang.EVEN_TRACK_DISTINCT, 6),
    ]
    for a, lang, max_len in cases:
        _agree(a, lambda w: oracle_membership(lang, w), max_len)
    assert time.monotonic() - started < 120


# ---------------------------------------------------------------------------


def test_intersecting_the_alternating_pair_gives_the_two_track_language():
    a1, a2 = alternating_pair_hras()
    _agree(
        intersection(a1, a2),
        lambda w: oracle_membership(Lang.TWO_TRACKS_DISTINCT, w),
        6,
    )


# ---------------------------------------------------------------------------


def test_starring_the_anchored_word_language_gives_the_block_language():
    _agree(
        kleene_star(anchored_distinct_hra(0)),
        lambda w: oracle_membership(Lang.ANCHORED_BLOCKS, w),
        6,
    )


# ---------------------------------------------------------------------------


def test_boolean_and_concatenation_closures_match_composed_oracles():
    words = list(enumerate_words(ALPHA, 5))
    for pair in range(20):
        left = random_hra(2 * pair, max_m=1, max_n=1, max_states=3)
        right = random_hra(2 * pair + 1, max_m=1, max_n=1, max_states=3)
        in_left = {w for w in words if membership(left, w)}
        in_right = {w for w in words if membership(right, w)}
        u = union(left, right)
        i = intersection(left, right)
        c = concatenation(left, right)
        for w in words:
            assert membership(u, w) == (w in in_left or w in in_right), (pair, w)
            assert membership(i, w) == (w in in_left and w in in_right), (pair, w)
            split = any(
                w[:k] in in_left and w[k:] in in_right for k in range(len(w) + 1)
            )
            assert membership(c, w) == split, (pair, w)


# ---------------------------------------------------------------------------


def test_register_elimination_is_bounded_bisimilar():
    automata = _zoo()
    for seed in range(500):
        a = random_hra(seed, max_m=1, max_n=1, max_states=3, subclass="unary")
        if (a.m, a.n) == (1, 1):
            automata.append(a)
            if len(automata) == len(_zoo()) + 20:
                break
    assert len(automata) == len(_zoo()) + 20
    for a in automata:
        assert bounded_bisimulation(a, registers_to_histories(a), 6)


# ---------------------------------------------------------------------------


def test_fixing_names_preserves_membership_and_pins_the_new_registers():
    for a, w in [(anchored_blocks_hra(0), (7, 8)), (two_tracks_hra(), (9,))]:
        f = fix_names(a, w)
        for word in enumerate_words((0, 1) + w, 4):
            assert membership(a, word) == membership(f, word), word
        pinned = range(a.m + a.n + 1, f.m + f.n + 1)
        expect = {p: f.initial_assignment.place(p) for p in pinned}
        frontier = eps_closure(f, {initial_config(f)})
        seen = set(frontier)
        for depth in range(8):
            nxt = set()
            for q, h in frontier:
                letters = {h.fresh_name(), 50 + depth}
                for p in f.places:
                    if h.place(p):
                        letters.add(min(h.place(p)))
                for letter in letters:
                    for cfg in step(f, (q, h), letter):
                        nxt |= eps_closure(f, {cfg})
            frontier = {c for c in nxt if c not in seen}
            seen |= nxt
            for _q, h in frontier:
                for p in pinned:
                    assert h.place(p) == expect[p], (depth, p)


# ---------------------------------------------------------------------------


def test_every_applicable_engine_decides_emptiness_consistently(translation_verdicts):
    live = generate_then_consume_hra()
    dead = dataclasses.replace(live, finals=frozenset())
    for a, empty in ((live, False), (dead, True)):
        assert emptiness(a).is_empty is empty
        verdicts = translation_verdicts(a)
        assert set(verdicts) == {"trvass", "vass", "one_counter"}
        assert set(verdicts.values()) == {empty}, verdicts


# ---------------------------------------------------------------------------


def test_coverability_backward_forward_and_one_counter_engines_cross_check():
    # predecessor bases: exact against brute force on a capped grid
    span = range(-2, 3)
    effects = [Add((x, y)) for x in span for y in span]
    effects += [ResetDim(1), ResetDim(2), Transfer(1, 2), Transfer(2, 1)]
    box = [(x, y) for x in range(7) for y in range(7)]
    for eff in effects:
        for b in [(x, y) for x in range(5) for y in range(5)]:
            basis = pre_basis(eff, b)
            for v in box:
                in_up = any(all(x >= y for x, y in zip(v, mn)) for mn in basis)
                img = apply_effect(eff, v)
                truth = img is not None and all(x >= y for x, y in zip(img, b))
                assert in_up == truth, (eff, b, v)

    rng = random.Random(5)
    decided = 0
    for seed in range(100):
        mc = random_counter_machine(seed, dims=3, klass="trvass", max_states=4)
        init = ("c0", tuple(rng.randint(0, 2) for _ in range(mc.dims)))
        target = rng.choice(sorted(mc.states))
        probe = forward_witness_search(mc, init, target)
        back = backward_coverability(mc, init, target)
        if probe.kind == "reachable":
            assert back, seed
            decided += 1
        elif probe.kind == "not_reachable_within_bounds":
            assert not back, seed
            decided += 1
    assert decided >= 80

    rng = random.Random(6)
    for seed in range(100):
        mc = random_counter_machine(seed, dims=1, klass="rvass", unit_effects=True)
        init = ("c0", (rng.randint(0, 3),))
        target = rng.choice(sorted(mc.states))
        assert one_counter_coverable(mc, init, target) == backward_coverability(
            mc, init, target
        ), seed


# ---------------------------------------------------------------------------


def test_counter_machine_to_automaton_round_trip_preserves_verdicts():
    for seed in range(50):
        mc = random_counter_machine(seed, dims=2, klass="rvass", unit_effects=True)
        rng = random.Random(seed + 1000)
        init = ("c0", tuple(rng.randint(0, 2) for _ in range(mc.dims)))
        target = rng.choice(sorted(mc.states))
        a = rvass_to_hra(mc, init, target)
        assert (not emptiness(a).is_empty) == backward_coverability(
            mc, init, target
        ), seed
    for seed in range(50):
        mc = random_counter_machine(
            seed, dims=2, klass="rvass", unit_effects=True, deterministic=True
        )
        a = rvass_to_hra(mc, ("c0", (1, 0)), sorted(mc.states)[-1])
        assert deterministic(a), seed


# ---------------------------------------------------------------------------


def test_register_skeletons_enumerate_and_commute_with_moves_and_resets():
    assert all(len(list(enumerate_skeletons(m, 0))) == 1 for m in range(4))
    assert len(list(enumerate_skeletons(1, 1))) == 3
    assert len(list(enumerate_skeletons(0, 2))) == 5
    for m in range(4):
        for n in range(4):
            count = len(list(enumerate_skeletons(m, n)))
            assert count <= 2 ** (m * n + n * (math.log2(n) if n else 0) + 1)

    h1 = Assignment.of(5, {1: [7], 2: [5], 3: [], 4: [7], 5: [5]})
    h2 = Assignment.of(5, {1: [7, 1, 2], 2: [5], 3: [], 4: [7], 5: [5]})
    expected = Skeleton(1, 4, frozenset({s(2, 5), s(1, 4)}))
    assert skeleton_of(h1, 1, 4) == expected
    assert skeleton_of(h2, 1, 4) == expected
    assert len(h1.at(s(1))) == 0 and len(h2.at(s(1))) == 2

    def representative(sk):
        ys = sorted(sk.placesets, key=sorted)
        return Assignment.of(
            sk.m + sk.n,
            {i: {100 + j for j, y in enumerate(ys) if i in y}
             for i in range(1, sk.m + sk.n + 1)},
        )

    def random_case(rng):
        m, n = rng.randint(0, 2), rng.randint(1, 2)
        sk = rng.choice(list(enumerate_skeletons(m, n)))
        h = representative(sk)
        for extra in range(rng.randint(0, 2)):
            if m:
                h = h.move_name(200 + extra, s(rng.randint(1, m)), m)
        return m, n, sk, h

    rng = random.Random(42)
    for _ in range(200):
        m, n, sk, h = random_case(rng)
        x = rng.choice([s()] + sorted(sk.placesets, key=sorted))
        name = next(iter(h.at(x))) if x else h.fresh_name()
        post = frozenset(p for p in range(1, m + n + 1) if rng.random() < 0.4)
        assert skeleton_of(h.move_name(name, post, m), m, n) == skel_move(sk, x, post)
    for _ in range(200):
        m, n, sk, h = random_case(rng)
        targets = frozenset(p for p in range(1, m + n + 1) if rng.random() < 0.4)
        assert skeleton_of(h.reset_places(targets), m, n) == skel_reset(sk, targets)


# ---------------------------------------------------------------------------


def test_colouring_register_elimination_matches_oracle_and_hand_built_automaton():
    col = eliminate_registers_colouring(no_immediate_repeat_register_hra())
    hand = no_immediate_repeat_history_hra()
    for w in enumerate_words(ALPHA, 7):
        want = oracle_membership(Lang.NO_IMMEDIATE_REPEAT, w)
        assert membership(col, w) == want, w
        assert membership(hand, w) == want, w
    for seed in range(20):
        a = random_hra(seed, max_m=1, max_n=1, max_states=3, subclass="colouring")
        b = eliminate_registers_colouring(a)
        for w in enumerate_words(ALPHA, 6):
            assert membership(a, w) == membership(b, w), (seed, w)


# ---------------------------------------------------------------------------


def test_deterministic_complementation_and_containment():
    sources = [all_distinct_hra(), two_step_distinct_hra(), generate_then_consume_hra()]
    for seed in range(2000):
        if len(sources) == 10:
            break
        cand = random_hra(seed, max_m=2, max_n=0, max_states=3)
        if deterministic(cand):
            sources.append(cand)
    assert len(sources) == 10
    for a in sources:
        comp = complement_deterministic(a)
        for w in enumerate_words(ALPHA, 5):
            assert membership(a, w) != membership(comp, w), w
        assert containment_deterministic(a, a)
    assert containment_deterministic(two_step_distinct_hra(), all_distinct_hra())
    assert not containment_deterministic(all_distinct_hra(), two_step_distinct_hra())


# ---------------------------------------------------------------------------


def test_membership_is_invariant_under_permutations_fixing_initial_names():
    pool = list(range(6))
    for seed in range(500):
        a = random_hra(seed, max_m=2, max_n=1, max_states=4)
        rng = random.Random(seed + 9999)
        word = tuple(rng.choice(pool) for _ in range(rng.randint(0, 5)))
        fixed = _enlist_initial_names(a)
        movable = [x for x in pool if x not in fixed]
        shuffled = movable[:]
        rng.shuffle(shuffled)
        perm = dict(zip(movable, shuffled))
        image = tuple(perm.get(x, x) for x in word)
        assert membership(a, word) == membership(a, image), (seed, word, image)
