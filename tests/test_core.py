"""One-step semantics, membership, classification, determinism."""

import copy
import dataclasses
import gc
import os
import pickle
import random
import subprocess
import sys
import types
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histra import (
    Accept,
    Assignment,
    BadPlaceIndex,
    DanglingState,
    Hra,
    Reset,
    TraceStep,
    Transition,
    NotDeterministic,
    ValidationError,
    bounded_determinism_check,
    complement_deterministic,
    classify,
    make_hra,
    membership,
    permute_word,
    reset_summaries,
    trace,
    validate,
)
from histra import constructions, core
from histra.constructions import fix_names
from histra.core import eps_closure, explore, initial_config, step
from histra.oracles import enumerate_words, random_hra
from histra.zoo import (
    all_distinct_hra,
    alternating_pair_hras,
    anchored_blocks_hra,
    anchored_distinct_hra,
    generate_then_consume_hra,
    no_immediate_repeat_history_hra,
    no_immediate_repeat_register_hra,
    two_tracks_hra,
)

from conftest import assert_is_its_fields, deterministic, zoo_automata


def s(*places):
    return frozenset(places)


# ---------------------------------------------------------------------------
# assignments


def test_assignment_placeset_partition():
    h = Assignment.of(3, {1: [10, 11], 2: [11], 3: []})
    assert h.placeset_of(10) == s(1)
    assert h.placeset_of(11) == s(1, 2)
    assert h.at(s(1)) == frozenset({10})
    assert h.at(s(1, 2)) == frozenset({11})
    assert h.at(s(3)) == frozenset()
    assert h.is_fresh(12) and not h.is_fresh(10)


def test_assignment_at_rejects_empty_set():
    h = Assignment.of(2)
    with pytest.raises(BadPlaceIndex):
        h.at(frozenset())


def test_fresh_name_is_least_unused():
    h = Assignment.of(1, {1: [0, 1, 3]})
    assert h.fresh_name() == 2


def test_move_name_overwrites_registers_and_adds_to_histories():
    # type (1,1): place 1 history, place 2 register
    h = Assignment.of(2, {1: [5], 2: [6]})
    moved = h.move_name(7, s(1, 2), m=1)
    assert moved.place(1) == frozenset({5, 7})  # history accumulates
    assert moved.place(2) == frozenset({7})  # register overwritten
    assert moved.placeset_of(6) == frozenset()  # evicted name is gone


def test_move_name_removes_from_everywhere_first():
    h = Assignment.of(2, {1: [5], 2: [5]})
    moved = h.move_name(5, s(1), m=2)
    assert moved.placeset_of(5) == s(1)


def _move_name_by_the_definition(h, a, post, m):
    # take `a` out of every place, then insert it at exactly `post`
    slots = [p - {a} for p in h.contents]
    for i in post:
        slots[i - 1] = (slots[i - 1] | {a}) if i <= m else frozenset({a})
    return Assignment(tuple(slots))


def _random_moves(seed):
    """A seeded assignment with the names and `post` place-sets to move
    them to: fresh names, names in several places, registers."""
    rng = random.Random(seed)
    m, n = rng.randint(0, 3), rng.randint(0, 2)
    if m + n == 0:
        m = 1
    size = m + n
    pool = range(6)
    filled = {i: rng.sample(pool, rng.randint(0, 4)) for i in range(1, m + 1)}
    filled.update({i: rng.sample(pool, rng.randint(0, 1)) for i in range(m + 1, size + 1)})
    h = Assignment.of(size, filled)
    held = [a for a in pool if len(h.placeset_of(a)) > 1]
    places = range(1, size + 1)
    posts = [s(), s(*places), s(*rng.sample(places, rng.randint(1, size)))]
    posts += [h.placeset_of(a) | s(rng.choice(places)) for a in pool if h.placeset_of(a)]
    if n:
        posts.append(s(m + 1))  # a register: overwritten, not accumulated
    names = [6, rng.choice(pool)] + held  # fresh, any, and in several places
    return h, m, places, names, posts


@pytest.mark.parametrize("seed", range(40))
def test_move_name_copies_only_the_places_it_touches(seed):
    h, m, places, names, posts = _random_moves(seed)
    for a in names:
        for post in posts:
            moved = h.move_name(a, post, m)
            assert moved == _move_name_by_the_definition(h, a, post, m), (a, post)
            for i in places:
                if i not in post and a not in h.place(i):
                    assert moved.place(i) is h.place(i), (a, post, i)


def _removed(h, a):
    return Assignment(tuple(p - {a} for p in h.contents))


@pytest.mark.parametrize("seed", range(40))
def test_forget_name_is_move_name_then_removal_everywhere(seed):
    h, m, places, names, posts = _random_moves(seed)
    for a in names:
        for post in posts:
            forgotten = h.forget_name(a, post, m)
            assert forgotten == _removed(h.move_name(a, post, m), a), (a, post)
            assert not forgotten.placeset_of(a)
            for i in places:
                if (i not in post or i <= m) and a not in h.place(i):
                    assert forgotten.place(i) is h.place(i), (a, post, i)


def test_forgetting_a_name_still_evicts_the_register_it_is_written_to():
    # type (1,2): history 1, registers 2 and 3; 5 is written to register 3,
    # which holds 7, and forgotten at once
    h = Assignment.of(3, {1: [5], 2: [6], 3: [7]})
    assert h.forget_name(5, s(1, 3), m=1) == Assignment.of(3, {2: [6]})
    # moving 5 nowhere would have kept 7 in register 3
    assert h.move_name(5, s(), m=1) == Assignment.of(3, {2: [6], 3: [7]})
    a = make_hra(1, 2, ["p", "q"], "p", [("p", Accept(s(1), s(1, 3)), "q")], ["q"],
                 initial_contents={1: [5], 2: [6], 3: [7]})
    assert step(a, [initial_config(a)], 5, forget=True) == {("q", Assignment.of(3, {2: [6]}))}
    assert step(a, [initial_config(a)], 5) == {("q", Assignment.of(3, {1: [5], 2: [6], 3: [5]}))}


def test_step_edits_match_move_name_and_forget_name_on_every_small_label():
    # every type with m + n <= 3 and every (pre, post) over its places; the
    # letter 5 sits at exactly `pre`, every history also holds 9, and every
    # register outside `pre` holds a name of its own
    cases = dict.fromkeys(["register rewritten", "history kept", "register to history",
                           "forgotten over a name"], 0)
    for m, n in [(m, size - m) for size in (1, 2, 3) for m in range(size + 1)]:
        places = range(1, m + n + 1)
        for pre in core.subsets(places):
            filled = {i: {9} if i <= m else {10 + i} for i in places}
            for i in pre:
                filled[i] = filled[i] | {5} if i <= m else {5}
            for post in core.subsets(places):
                a = make_hra(m, n, ["p", "q"], "p", [("p", Accept(pre, post), "q")], ["q"],
                             initial_contents=filled)
                h = a.initial_assignment
                for forget, want in [(False, h.move_name(5, post, m)),
                                     (True, h.forget_name(5, post, m))]:
                    (got,) = step(a, [initial_config(a)], 5, forget)
                    assert got == ("q", want) and type(got[1]) is Assignment, (m, n, pre, post)
                    for i in places:
                        if i not in pre | post:
                            assert got[1].place(i) is h.place(i), (m, n, pre, post, i)
                regs, hists = {i for i in post if i > m}, {i for i in post if i <= m}
                cases["register rewritten"] += bool(regs & pre)
                cases["history kept"] += bool(hists & pre)
                cases["register to history"] += bool(hists - pre and {i for i in pre if i > m})
                cases["forgotten over a name"] += bool(regs - pre)
    assert all(cases.values()), cases


def test_reset_places_empties_targets_only():
    h = Assignment.of(3, {1: [1], 2: [1, 2], 3: [3]})
    r = h.reset_places(s(2))
    assert r.place(1) == frozenset({1})
    assert r.place(2) == frozenset()
    assert r.place(3) == frozenset({3})


def test_assignment_rejects_places_out_of_range():
    with pytest.raises(BadPlaceIndex):
        make_hra(1, 1, ["q"], "q", [], ["q"], initial_contents={0: [7]})
    with pytest.raises(BadPlaceIndex):
        Assignment.of(2, {3: [5]})
    h = Assignment.of(2, {1: [5], 2: [6]})
    for i in (0, 3, -1):
        with pytest.raises(BadPlaceIndex):
            h.place(i)
        with pytest.raises(BadPlaceIndex):
            h.at({i})
        with pytest.raises(BadPlaceIndex):
            h.at({1, i})


# ---------------------------------------------------------------------------
# value semantics


_ACC = Accept(s(), s(1, 2))
_VALUES = [
    _ACC,
    Reset(s(2)),
    Transition("p", _ACC, ("q", 1)),
    Assignment.of(3, {1: [0, 4], 3: [7]}),
    TraceStep(Transition("p", _ACC, "q"), 5, ("q", Assignment.of(2, {1: [5], 2: [5]}))),
    TraceStep(Transition("q", Reset(s(1)), "q"), None, ("q", Assignment.of(2, {2: [5]}))),
]


@pytest.mark.parametrize("v", _VALUES, ids=lambda v: type(v).__name__)
def test_labels_transitions_assignments_and_steps_are_their_fields(v):
    assert_is_its_fields(v)


def test_a_letter_label_is_never_a_reset():
    for x, y in [(s(), s()), (s(1), s(1)), (s(1), s(2))]:
        assert Accept(x, y) != Reset(x) and Reset(x) != Accept(x, y)
        assert len({Accept(x, y), Reset(x), Reset(y)}) == 2 + (x != y)


# ---------------------------------------------------------------------------
# validation


def test_validate_collects_bad_place_and_overfull_register():
    a = Hra(
        m=1,
        n=1,
        states=frozenset({"q"}),
        initial="q",
        initial_assignment=Assignment.of(2, {2: [1, 2]}),  # register holds two names
        transitions=frozenset({Transition("q", Accept(s(5), s(1)), "q")}),
        finals=frozenset(),
    )
    with pytest.raises(ValidationError) as err:
        validate(a)
    text = str(err.value)
    assert "place" in text and "register" in text


def test_validate_flags_dangling_transition_endpoint():
    a = Hra(
        m=1,
        n=0,
        states=frozenset({"q"}),
        initial="q",
        initial_assignment=Assignment.of(1),
        transitions=frozenset({Transition("q", Accept(s(), s(1)), "ghost")}),
        finals=frozenset(),
    )
    with pytest.raises(ValidationError):
        validate(a)


@pytest.mark.parametrize("changes, error, message", [
    (dict(m=0, initial_assignment=Assignment.of(0)), BadPlaceIndex, "type (0,0) has no places"),
    (dict(initial_assignment=Assignment.of(2)), BadPlaceIndex,
     "initial assignment covers 2 places, expected 1"),
    (dict(initial="ghost"), DanglingState, "initial state 'ghost' not in state set"),
    (dict(finals=frozenset({"ghost"})), DanglingState, "final state 'ghost' not in state set"),
    (dict(transitions=frozenset({Transition("ghost", Reset(s()), "q")})), DanglingState,
     "transition source 'ghost' not in state set"),
    (dict(transitions=frozenset({Transition("q", Reset(s()), "ghost")})), DanglingState,
     "transition target 'ghost' not in state set"),
])
def test_validate_names_each_violation(changes, error, message):
    fields = dict(m=1, n=0, states=frozenset({"q"}), initial="q",
                  initial_assignment=Assignment.of(1), transitions=frozenset(), finals=frozenset())
    with pytest.raises(ValidationError) as err:
        validate(Hra(**{**fields, **changes}))
    (violation,) = err.value.violations
    assert type(violation) is error and str(violation) == message


def test_make_hra_validates_label_places():
    # type (1, 1): place 0 and place m+n+1 = 3 are out of range in either label
    for label in (Accept(s(0), s(1)), Accept(s(), s(3)), Reset(s(0)), Reset(s(1, 3))):
        with pytest.raises(ValidationError):
            make_hra(1, 1, ["q"], "q", [("q", label, "q")], ["q"])


# ---------------------------------------------------------------------------
# one-step semantics


def test_step_requires_exact_placeset():
    a = two_tracks_hra()
    q0 = a.initial
    h = a.initial_assignment.move_name(9, s(1), m=2)
    # the (∅,{1}) transition from q0 must not fire on a name already in 1
    assert not step(a, [(q0, h)], 9)
    # but it fires on a fresh one
    assert step(a, [(q0, h)], 10)


class _CountedState:
    """A state that counts the comparisons made against it."""

    eq_calls = 0

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        _CountedState.eq_calls += 1
        return isinstance(other, _CountedState) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


def test_step_compares_states_at_most_once():
    # each configuration's state is an equal copy, not the automaton's own
    # object, so finding its transitions costs a comparison: at most one,
    # though 40 transitions between other states carry the same labels
    p, q, r = _CountedState("p"), _CountedState("q"), _CountedState("r")
    others = [_CountedState(f"o{i}") for i in range(40)]
    labels = [Accept(s(1), s(2)), Accept(s(), s(1))]
    a = make_hra(
        1, 1, [p, q, r, *others], p,
        [(p, Accept(s(1), s(2)), q), (q, Accept(s(2), s()), p),
         (q, Accept(s(), s(1)), r), (p, Reset(s(1)), q),
         *[(o, labels[i % 2], others[i - 1]) for i, o in enumerate(others)]],
        [q], initial_contents={1: [5], 2: [6]},
    )
    h = Assignment.of(2, {1: [5, 8], 2: [8]})
    for state, assignment, letter, fires in [
        (p, h, 8, False),  # {1, 2}: no label has it
        (p, h, 7, False),  # fresh: only q's label has ∅ among p and q
        (p, a.initial_assignment, 5, True),  # {1}: p's label
        (q, h, 7, True),  # fresh: q's label
        (r, h, 7, False),  # r has no outgoing transition
        (_CountedState("z"), h, 7, False),  # not a state of the automaton
    ]:
        _CountedState.eq_calls = 0
        got = step(a, [(_CountedState(state.name), assignment)], letter)
        assert _CountedState.eq_calls <= 1, (state.name, letter, _CountedState.eq_calls)
        assert type(got) is set and bool(got) == fires


def _step_by_scan(a, config, letter):
    """`step` as first written: the source state is tested first, and the
    letter's place-set is recomputed for every transition."""
    q, h = config
    out = set()
    for t in a.transitions:
        if t.src == q and isinstance(t.label, Accept) and h.placeset_of(letter) == t.label.pre:
            out.add((t.dst, h.move_name(letter, t.label.post, a.m)))
    return frozenset(out)


def test_step_agrees_with_the_transition_scan():
    letters = (0, 1, 2, 3)
    with_registers = fired = 0
    for seed in range(100):
        a = random_hra(seed, max_m=2, max_n=2, max_states=4)
        with_registers += a.n > 0
        # every configuration that a word of at most 3 letters reaches
        layer = eps_closure(a, {initial_config(a)})
        reached = set(layer)
        for _ in range(3):
            nxt = set()
            for x in letters:
                nxt |= step(a, layer, x)
            layer = eps_closure(a, nxt)
            reached |= layer
        for c in reached:
            for x in letters:
                got = step(a, [c], x)
                assert got == _step_by_scan(a, c, x), (seed, c, x)
                fired += bool(got)
    assert with_registers >= 30 and fired >= 1000, (with_registers, fired)


def _scan_index(a):
    """A stand-in for the accept index that scans every transition of the
    automaton on each lookup, testing its source, its label kind and its
    `pre`, as `step` first did.  Each row's slot edits are worked out here
    from the label, place by place."""

    def row(t):
        pre, post = t.label
        edits = ([], [], [], [])  # leave, enter, regs, drop
        for i in a.places:
            if i > a.m and i in post:
                edits[2].append(i - 1)
            elif i in pre and i not in post:
                edits[0].append(i - 1)
            elif i in post and i not in pre:
                edits[1].append(i - 1)
            if i in pre:
                edits[3].append(i - 1)
        return (pre, t.dst, t, *map(tuple, edits))

    class From:
        def __init__(self, q):
            self.q = q

        def get(self, x):
            return [row(t) for t in a.transitions
                    if t.src == self.q and isinstance(t.label, Accept) and t.label.pre == x]

    return types.SimpleNamespace(get=From)


def _reached(a, letters, length):
    """Every configuration that a word of at most `length` letters reaches."""
    layer = eps_closure(a, {initial_config(a)})
    reached = set(layer)
    for _ in range(length):
        layer = eps_closure(a, [c2 for x in letters for c2 in step(a, layer, x)])
        reached |= layer
    return reached


SUBCLASSES = [None, "non_reset", "unary", "restricted", "colouring"]


@pytest.mark.parametrize("subclass", SUBCLASSES)
def test_step_agrees_with_the_transition_scan_patched_in(subclass, monkeypatch):
    letters = (0, 1, 2, 3)
    probes = []
    for seed in range(40):
        a = random_hra(seed, max_m=2, max_n=2, max_states=4, subclass=subclass)
        for c in _reached(a, letters, 3):
            for x in letters:
                kept, forgotten = step(a, [c], x), step(a, [c], x, forget=True)
                # forgetting is the step, then the letter removed everywhere
                assert forgotten == {(q, _removed(h, x)) for q, h in kept}, (seed, c, x)
                probes.append((seed, c, x, kept, forgotten))
    monkeypatch.setattr(Hra, "_accept_index", property(_scan_index))
    for seed, c, x, kept, forgotten in probes:
        a = random_hra(seed, max_m=2, max_n=2, max_states=4, subclass=subclass)
        assert step(a, [c], x) == kept, (seed, c, x)
        assert step(a, [c], x, forget=True) == forgotten, (seed, c, x)
    assert sum(bool(p[3]) for p in probes) >= 200


def _frontiers(a, letters, length):
    """Every frontier, as a frozenset, that a word of at most `length`
    letters reaches keeping every name, and the successor sets of the
    letter steps between them, before their silent closure."""
    frontiers = layer = {frozenset(eps_closure(a, [initial_config(a)]))}
    stepped = set()
    for _ in range(length):
        nxt = set()
        for frontier in layer:
            for x in letters:
                successors = frozenset(step(a, frontier, x))
                stepped.add(successors)
                nxt.add(frozenset(eps_closure(a, successors)))
        layer = nxt - frontiers
        frontiers = frontiers | nxt
    return frontiers, stepped


def _check_frontier_call(call, frontier, want):
    """`call` on `frontier` gives `want` from a set and from a generator,
    leaves its argument as it was, and returns a new set each time."""
    arg = set(frontier)
    got = call(arg)
    assert type(got) is set and got == want and got is not arg
    assert arg == frontier
    got.add("mutated")
    got2 = call(c for c in frontier)
    assert got2 == want and got2 is not got
    got2.clear()
    assert call(arg) == want and arg == frontier


@pytest.mark.parametrize("subclass", SUBCLASSES)
def test_a_frontier_steps_and_closes_as_its_configurations_do(subclass):
    letters = (0, 1, 2, 3)
    wide = closing = 0
    for seed in range(40):
        a = random_hra(seed, max_m=2, max_n=2, max_states=4, max_transitions=8,
                       subclass=subclass)
        frontiers, stepped = _frontiers(a, letters, 3)
        for frontier in frontiers:
            wide += len(frontier) > 1
            for x in letters:
                for forget in (False, True):
                    want = set().union(*(step(a, [c], x, forget) for c in frontier))
                    _check_frontier_call(lambda s: step(a, s, x, forget), frontier, want)
        for frontier in frontiers | stepped:
            want = set().union(*(eps_closure(a, [c]) for c in frontier))
            closing += want != frontier
            _check_frontier_call(lambda s: eps_closure(a, s), frontier, want)
    assert wide >= 100, wide
    if subclass in ("non_reset", "colouring"):
        assert closing == 0  # with no reset, every set closes to itself
    else:
        assert closing >= 50, closing


def _frontier_walk(a, word, forget=True):
    """`membership`'s walk on the original configurations, the loop as it
    read before the walk moved to `Hra._numbered`; without `forget`, it
    keeps every name."""
    word = tuple(word)
    last = {x: i for i, x in enumerate(word)}
    frontier = eps_closure(a, [initial_config(a)])
    for i, x in enumerate(word):
        frontier = eps_closure(a, step(a, frontier, x, forget and last[x] == i))
    return any(q in a.finals for q, _ in frontier)


@pytest.mark.parametrize("subclass", SUBCLASSES)
def test_forgetting_names_keeps_every_membership_answer(subclass):
    # the names 0-2 may lie in the initial assignment; 3 never does
    words = list(enumerate_words((0, 1, 2, 3), 4))
    accepted = 0
    for seed in range(12):
        a = random_hra(seed, max_m=2, max_n=2, max_states=4, max_transitions=8,
                       subclass=subclass)
        for w in words:
            got = membership(a, w)
            assert got == _frontier_walk(a, w, forget=False), (seed, w)
            accepted += got
    assert accepted >= 100


def _zoo_and_constructions():
    """The zoo automata and, for each one and the next, their union,
    intersection and concatenation, and the star of each: tagged states,
    and resets from the constructions."""
    zoo = zoo_automata()
    built = [op(a1, a2) for a1, a2 in zip(zoo, zoo[1:] + zoo[:1])
             for op in (constructions.union, constructions.intersection,
                        constructions.concatenation)]
    return zoo + built + [constructions.kleene_star(a) for a in zoo]


def _assert_membership_is_the_frontier_walk(automata):
    words = list(enumerate_words((0, 1, 2, 3), 3))
    accepted = rejected = 0
    for k, a in enumerate(automata):
        for w in words:
            got = membership(a, w)
            assert got == _frontier_walk(a, w), (k, a, w)
            accepted += got
            rejected += not got
    return accepted, rejected


def test_membership_on_the_numbered_copy_is_the_frontier_walk_on_the_zoo():
    accepted, rejected = _assert_membership_is_the_frontier_walk(_zoo_and_constructions())
    assert accepted >= 500 and rejected >= 500, (accepted, rejected)


@pytest.mark.parametrize("subclass", SUBCLASSES)
def test_membership_on_the_numbered_copy_is_the_frontier_walk_on_random_automata(subclass):
    automata = [random_hra(seed, max_m=2, max_n=2, max_states=4, max_transitions=8,
                           subclass=subclass) for seed in range(40)]
    accepted, rejected = _assert_membership_is_the_frontier_walk(automata)
    assert accepted >= 100 and rejected >= 100, (accepted, rejected)


def test_the_numbered_copy_is_invisible():
    field_names = {f.name for f in dataclasses.fields(Hra)}
    assert "_numbered" not in field_names
    for a in _zoo_and_constructions() + [random_hra(seed) for seed in range(10)]:
        before = (a, hash(a), repr(a), pickle.dumps(a))
        b = a._numbered
        assert (a, hash(a), repr(a), pickle.dumps(a)) == before
        back = pickle.loads(pickle.dumps(a))
        assert back == a and "_numbered" not in vars(back)
        assert a._numbered is b and "_numbered" not in vars(b)
        assert type(b) is type(a) and b.m == a.m and b.n == a.n
        assert b.initial_assignment is a.initial_assignment
        assert b.states == frozenset(range(len(a.states)))
        assert len(b.transitions) == len(a.transitions)
        # state i of the copy is the i-th state of `a` in repr order
        order = sorted(a.states, key=repr)
        assert order[b.initial] == a.initial
        assert {order[q] for q in b.finals} == a.finals
        assert {Transition(order[t.src], t.label, order[t.dst])
                for t in b.transitions} == a.transitions
    # the copy holds no reference to itself: it goes with its automaton,
    # without waiting for the cyclic collector
    gc.disable()
    try:
        a = anchored_blocks_hra(0)
        copy_ref = weakref.ref(a._numbered)
        del a
        assert copy_ref() is None
    finally:
        gc.enable()


def test_the_numbered_copy_lists_each_states_transitions_in_repr_order():
    assert not hasattr(Hra, "_ordered")
    silent_states = 0
    for a in _zoo_and_constructions() + [random_hra(seed) for seed in range(10)]:
        b, order = a._numbered, sorted(a.states, key=repr)
        number = {q: i for i, q in enumerate(order)}
        # a state with no outgoing transition has no key, as in `_outgoing`
        assert b._outgoing == {
            number[q]: [Transition(number[q], t.label, number[t.dst]) for t in sorted(ts, key=repr)]
            for q, ts in a._outgoing.items()}
        assert list(b._outgoing) == sorted(b._outgoing)
        assert a._states == tuple(order)
        silent_states += len(a.states) - len(a._outgoing)
    assert silent_states > 0


def test_the_numbered_copy_is_built_alike_under_every_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "from histra.constructions import concatenation, intersection, kleene_star, union\n"
        "from histra.zoo import (anchored_blocks_hra, anchored_distinct_hra,\n"
        "                        no_immediate_repeat_history_hra, two_tracks_hra)\n"
        "ad0, ad1 = anchored_distinct_hra(0), anchored_distinct_hra(1)\n"
        "for a in (union(ad0, ad1), intersection(two_tracks_hra(), no_immediate_repeat_history_hra()),\n"
        "          concatenation(ad0, anchored_blocks_hra(0)), kleene_star(ad0)):\n"
        "    b = a._numbered\n"
        "    print(list(b._outgoing.items()))\n"
        "    print([(q, list(d.items())) for q, d in b._accept_index.items()])\n"
        "    print(list(b._rows.items()))\n"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            capture_output=True, timeout=120, check=True, text=True,
        ).stdout
        for seed in "1234"
    }
    assert len(outs) == 1, outs
    assert outs.pop().count("\n") == 12


def _trace_in_repr_order(a, word):
    """`trace` as it read before the search moved to `Hra._numbered`: the
    same search on the states of `a`, each state's transitions sorted by
    `repr`."""
    word = tuple(word)
    last = {x: i for i, x in enumerate(word)}

    def at(h, k):
        return h, k, h.placeset_of(word[k]) if k < len(word) else None

    def moves(q, f, t):
        h, k, x = f
        if isinstance(t.label, Reset):
            y = t.label.targets
            return [((t, None), (h.reset_places(y), k, None if x is None else x - y))]
        if x == t.label.pre:
            put = h.forget_name if last[word[k]] == k else h.move_name
            return [((t, word[k]), at(put(word[k], t.label.post, a.m), k + 1))]
        return []

    ordered = {q: sorted(ts, key=repr) for q, ts in a._outgoing.items()}
    reached, _ = explore(ordered, (a.initial, at(a.initial_assignment, 0)), moves)
    goal = next((p for p in reached if p[0] in a.finals and p[1][1] == len(word)), None)
    if goal is None:
        return None
    chosen, node = [], goal
    while reached[node] is not None:
        node, move = reached[node]
        chosen.append(move)
    steps, h = [], a.initial_assignment
    for t, letter in reversed(chosen):
        if letter is None:
            h = h.reset_places(t.label.targets)
        else:
            h = h.move_name(letter, t.label.post, a.m)
        steps.append(TraceStep(t, letter, (t.dst, h)))
    return tuple(steps)


def _assert_trace_is_the_repr_order_walk(automata, words=None):
    """`trace` equals `_trace_in_repr_order` on each automaton and each of
    `words`, by default every word of at most 3 letters over 0-3; returns
    how many runs were found."""
    words = list(enumerate_words((0, 1, 2, 3), 3)) if words is None else words
    runs = 0
    for k, a in enumerate(automata):
        for w in words:
            got = trace(a, w)
            assert got == _trace_in_repr_order(a, w), (k, a, w)
            runs += got is not None
    return runs


def test_trace_on_the_numbered_copy_is_the_repr_order_walk_on_the_zoo():
    assert _assert_trace_is_the_repr_order_walk(_zoo_and_constructions()) >= 500


@pytest.mark.parametrize("subclass", SUBCLASSES)
def test_trace_on_the_numbered_copy_is_the_repr_order_walk_on_random_automata(subclass):
    automata = [random_hra(seed, max_m=2, max_n=2, max_states=4, max_transitions=8,
                           subclass=subclass) for seed in range(40)]
    assert _assert_trace_is_the_repr_order_walk(automata) >= 100


def _two_track_word(rng, length):
    """Odd positions pairwise distinct, and even positions too."""
    odd, even = rng.sample(range(1, 400), length // 2), rng.sample(range(1, 400), length // 2)
    return tuple(x for pair in zip(odd, even) for x in pair)


def _blocks_word(rng, length):
    """Blocks of 1..8 letters, each the anchor 0 and then distinct names."""
    w, size = [], 0
    while len(w) < length:
        w += [0, *rng.sample(range(1, 50), size)]
        size = (size + 1) % 8
    return tuple(w[:length])


def _spoiled(w):
    """`w` with the letter three quarters in replaced by the one two back."""
    i = 3 * len(w) // 4
    return w[:i] + (w[i - 2],) + w[i + 1:]


def _pair_reset_hra():
    """`HRA 1 1`: a fresh name goes to history 1 and register 2, the same
    name again back to history 1 alone, and a reset of history 1 lets a
    name read before be fresh again: words of pairs `x x`."""
    return make_hra(1, 1, ["q", "r"], "q",
                    [("q", Accept(s(), s(1, 2)), "r"), ("r", Accept(s(1, 2), s(1)), "q"),
                     ("q", Reset(s(1)), "q")], ["q"])


def test_trace_on_long_words_is_the_repr_order_walk():
    rng = random.Random(45)
    cases = [
        (constructions.intersection(*alternating_pair_hras()), _two_track_word),
        (constructions.kleene_star(anchored_distinct_hra(0)), _blocks_word),
        (constructions.concatenation(two_tracks_hra(), anchored_distinct_hra(0)),
         lambda rng, n: _two_track_word(rng, n - 8) + (0, *rng.sample(range(400, 500), 7))),
        (constructions.union(two_tracks_hra(), anchored_blocks_hra(0)),
         lambda rng, n: (_two_track_word if n % 32 == 0 else _blocks_word)(rng, n)),
    ]
    rejected = 0
    for a, gen in cases:
        words = [gen(rng, n) for n in (48, 64, 96, 112)]
        words += [_spoiled(w) for w in words]
        found = _assert_trace_is_the_repr_order_walk([a], words)
        assert found >= 4, (a, found)
        rejected += len(words) - found
    assert rejected >= 4, rejected
    # resets between pairs whose names come back: name i mod `period`
    words = [tuple(i % period for i in range(1, pairs + 1) for _ in range(2))
             for period in (2, 3, 4, 5) for pairs in (12, 30)]
    words += [w[:-1] + (w[-1] + 1,) for w in words]  # the last pair spoiled
    words += [(1, 1, 1, 2), (1, 1, 1, 1), (1, 1, 2, 2, 1, 1, 2, 2, 1)]
    found = _assert_trace_is_the_repr_order_walk([_pair_reset_hra()], words)
    assert found == 9, found


def test_membership_steps_and_closes_through_the_module_bindings(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(core, "step", counting("step", step))
    monkeypatch.setattr(core, "eps_closure", counting("eps_closure", eps_closure))
    cases = [
        (all_distinct_hra(), tuple(range(1, 9))),
        (constructions.kleene_star(anchored_distinct_hra(0)), (0, 1, 2, 0, 3)),
        (constructions.intersection(two_tracks_hra(), no_immediate_repeat_history_hra()),
         (1, 2, 3, 4)),
    ]
    for a, word in cases:
        calls.clear()
        assert membership(a, word)
        assert calls == ["eps_closure"] + ["step", "eps_closure"] * len(word)


def _twofold_hra():
    """`HRA 2 0`: one initial and final state whose two letter loops put a
    fresh name into history 1 or into history 2."""
    return make_hra(2, 0, ["q"], "q",
                    [("q", Accept(s(), s(1)), "q"), ("q", Accept(s(), s(2)), "q")], ["q"])


@pytest.mark.parametrize("build", [
    _twofold_hra,
    lambda: constructions.intersection(two_tracks_hra(), no_immediate_repeat_history_hra()),
], ids=["twofold", "two_tracks_and_no_repeat"])
def test_distinct_name_frontiers_stay_bounded(build, monkeypatch):
    sizes = []

    def counting(a, configs):
        closed = eps_closure(a, configs)
        sizes.append(len(closed))
        return closed

    monkeypatch.setattr(core, "eps_closure", counting)
    a = build()
    # keeping every name, the frontier holds 2^12 = 4,096 configurations
    assert membership(a, range(1, 13))
    assert max(sizes) <= 2, max(sizes)
    assert membership(a, range(1, 201))
    assert max(sizes) <= 2, max(sizes)
    # an even-length word repeating a name at the same parity is rejected by
    # both automata: a name is kept until its last occurrence
    assert not membership(a, (*range(1, 12), 2))
    # the word is read twice (last occurrences, then the walk): an iterator
    # gives the same answers
    assert membership(a, iter(range(1, 13)))
    assert not membership(a, iter((*range(1, 12), 2)))


def test_eps_closure_includes_reset_chains():
    a = generate_then_consume_hra()
    closure = eps_closure(a, {initial_config(a)})
    assert len(closure) == 2  # both states reachable before any letter
    stray = ("not a state", a.initial_assignment)
    assert eps_closure(a, {stray}) == {stray}


def _replay(a, word, run):
    """Check an accepting run move by move: each letter against `step`, each
    silent move against the closure of the configuration it started from."""
    config = initial_config(a)
    closed = eps_closure(a, {config})
    letters = []
    for move in run:
        t = move.transition
        assert t.src == config[0]
        if move.letter is None:
            assert isinstance(t.label, Reset)
            assert move.config == (t.dst, config[1].reset_places(t.label.targets))
            assert move.config in closed
        else:
            letters.append(move.letter)
            assert move.config in step(a, [config], move.letter)
            closed = eps_closure(a, {move.config})
        config = move.config
    assert tuple(letters) == tuple(word)
    assert config[0] in a.finals


def _closure_by_search(a, configs):
    """The reset closure by a search that scans every transition at each step."""
    seen = set(configs)
    work = list(seen)
    while work:
        q, h = work.pop()
        for t in a.transitions:
            if t.src == q and isinstance(t.label, Reset):
                nxt = (t.dst, h.reset_places(t.label.targets))
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
    return frozenset(seen)


@pytest.mark.parametrize("chunk", range(4))
def test_closure_agrees_with_the_run_search(chunk):
    letters = (0, 1, 2, 3)
    words = list(enumerate_words(letters, 3))
    for seed in range(25 * chunk, 25 * chunk + 25):
        # the second, reset-heavy draw has reset cycles and overlapping targets
        for a in (random_hra(seed, max_m=2, max_n=1, max_states=4),
                  random_hra(seed, max_m=2, max_n=1, max_states=4, max_transitions=12)):
            for w in words:
                run = trace(a, w)
                assert membership(a, w) == (run is not None), (seed, w)
                if run is not None:
                    _replay(a, w, run)
            # every configuration that a word of at most 3 letters reaches
            reached = {initial_config(a)}
            for _ in range(3):
                closed = _closure_by_search(a, reached)
                reached |= {c2 for x in letters for c2 in step(a, closed, x)}
            for c in reached:
                assert eps_closure(a, {c}) == _closure_by_search(a, {c}), (seed, c)


def _moves_by_scan(a, node, word):
    """Every move from ((q, h), letters read) along `word`, found by scanning
    all transitions."""
    (q, h), k = node
    for t in a.transitions:
        if t.src != q:
            continue
        if isinstance(t.label, Reset):
            yield ((t.dst, h.reset_places(t.label.targets)), k)
        elif k < len(word) and h.placeset_of(word[k]) == t.label.pre:
            yield ((t.dst, h.move_name(word[k], t.label.post, a.m)), k + 1)


def _fewest_moves(a, word, cap):
    """The fewest moves of an accepting run over `word`, or None when no run
    of at most `cap` moves accepts: layer d holds every node that some
    sequence of exactly d moves reaches."""
    layer = {(initial_config(a), 0)}
    for d in range(cap + 1):
        if any(q in a.finals and k == len(word) for (q, _), k in layer):
            return d
        layer = {nxt for node in layer for nxt in _moves_by_scan(a, node, word)}
    return None


@pytest.mark.parametrize("chunk", range(2))
def test_trace_finds_an_accepting_run_with_the_fewest_moves(chunk):
    words = list(enumerate_words((0, 1, 2, 3), 3))
    for seed in range(50 * chunk, 50 * chunk + 50):
        a = random_hra(seed, max_m=2, max_n=1, max_states=4)
        for w in words:
            run = trace(a, w)
            if run is None:
                assert _fewest_moves(a, w, 8) is None, (seed, w)
            else:
                _replay(a, w, run)
                assert _fewest_moves(a, w, len(run)) == len(run), (seed, w)


def test_the_kept_reset_summaries_are_invisible():
    a, b = anchored_blocks_hra(), anchored_blocks_hra()
    eps_closure(a, {initial_config(a)})
    step(a, [initial_config(a)], 0)
    assert reset_summaries(a) == reset_summaries(a)
    assert a._outgoing is a._outgoing
    assert a._accept_index is a._accept_index
    assert a._rows is a._rows
    assert a._produced is a._produced
    fields = {f.name for f in dataclasses.fields(Hra)}
    assert set(vars(b)) == fields
    assert ({"_outgoing", "_accept_index", "_rows", "_closure", "_produced"}
            <= set(vars(a)) - fields)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert pickle.dumps(a) == pickle.dumps(b)
    a2, b2 = copy.deepcopy(a), copy.deepcopy(b)
    assert a2 == a and vars(a2) == vars(b2) and hash(a2) == hash(b2)
    assert pickle.dumps(a2) == pickle.dumps(b2)
    # an unpickled automaton keeps nothing, and builds the same again
    c = pickle.loads(pickle.dumps(a))
    assert set(vars(c)) == fields and c == a
    assert ({q: set(ts) for q, ts in c._outgoing.items()}
            == {q: set(ts) for q, ts in a._outgoing.items()})
    assert reset_summaries(c) == reset_summaries(a)
    assert c._accept_index == a._accept_index != {}
    assert ({q: set(rows) for q, rows in c._rows.items()}
            == {q: set(rows) for q, rows in a._rows.items()} != {})
    assert c._produced == a._produced != ()


def test_every_name_sits_at_a_produced_place_set():
    """By induction on the length of a run, every name sits at ∅ or at a
    place-set of `_produced`: walk every configuration up to five letters,
    each letter a name present or one fresh name."""
    placements = 0
    for seed in range(600):
        a = random_hra(seed, max_m=3, max_n=2, max_states=4, max_transitions=8)
        produced = {frozenset(), *a._produced}
        assert list(a._produced) == [x for x in core.subsets(a.places)[1:] if x in produced]
        seen = frontier = eps_closure(a, {initial_config(a)})
        for _ in range(5):
            frontier = eps_closure(a, {c2 for c in frontier
                                       for x in (*c[1].names(), c[1].fresh_name())
                                       for c2 in step(a, [c], x)})
            seen |= frontier
        for _, h in seen:
            for name in h.names():
                assert h.placeset_of(name) in produced, (seed, h, name)
                placements += 1
    assert placements > 10_000


def _search_by_scan(a, word):
    """`core._trace_search` spelled out on the numbered copy `a`: each pair
    tries every transition of its state in `_outgoing` order through
    `placeset_of`, `move_name`, `forget_name` and `reset_places`, and the
    search stops at the first accepting pair it discovers."""
    word = tuple(word)
    last = {x: k for k, x in enumerate(word)}
    start = (a.initial, a.initial_assignment, 0)
    reached, queue = {start: None}, [start]
    if a.initial in a.finals and not word:
        return reached, start
    for node in queue:
        q, h, k = node
        for t in a._outgoing.get(q, ()):
            if isinstance(t.label, Reset):
                nxt = (t.dst, h.reset_places(t.label.targets), k)
            elif k < len(word) and h.placeset_of(word[k]) == t.label.pre:
                put = h.forget_name if last[word[k]] == k else h.move_name
                nxt = (t.dst, put(word[k], t.label.post, a.m), k + 1)
            else:
                continue
            if nxt not in reached:
                reached[nxt] = (node, t)
                queue.append(nxt)
                if nxt[0] in a.finals and nxt[2] == len(word):
                    return reached, nxt
    return reached, None


def _recorded_trace_searches(monkeypatch):
    """What each call of `core._trace_search` returns, in order."""
    calls, search = [], core._trace_search

    def recorded(a, word):
        calls.append(search(a, word))
        return calls[-1]

    monkeypatch.setattr(core, "_trace_search", recorded)
    return calls


def _recorded(monkeypatch, owner, names):
    """Every value that the functions `names` of `owner` return, in order."""
    made = []
    for name in names:
        f = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, f=f: made.append(f(*args)) or made[-1])
    return made


def test_every_successor_is_made_by_the_one_edit_function(monkeypatch):
    """`step` with and without forgetting, the search of `trace` and its
    replay make each successor with one `core._edited` call, in the order
    the transition scans make it with `move_name`, `forget_name` and
    `reset_places`: a copy of the slot edits spelled out anywhere else
    makes successors that this count misses."""
    letters, words = (0, 1, 2), list(enumerate_words((0, 1, 2), 3))
    cases = []
    for seed in range(80):
        a = random_hra(seed, max_m=2, max_n=1, max_states=4, max_transitions=8)
        cases.append((a, _reached(a, letters, 3)))
    made = _recorded(monkeypatch, core, ["_edited"])
    want = _recorded(monkeypatch, Assignment, ["move_name", "forget_name", "reset_places"])
    stepped, searched, replayed = [0, 0], 0, 0  # stepped: keeping, forgetting
    for seed, (a, reached) in enumerate(cases):
        for (q, h), x, forget in [(c, x, f) for c in reached for x in letters for f in (False, True)]:
            del made[:]
            got = step(a, [(q, h)], x, forget)
            put = h.forget_name if forget else h.move_name
            fired = [put(x, t.label.post, a.m) for t in a._outgoing.get(q, ())
                     if isinstance(t.label, Accept) and t.label.pre == h.placeset_of(x)]
            assert sorted(map(repr, made)) == sorted(map(repr, fired)), (seed, q, h, x, forget)
            assert {h2 for _, h2 in got} == set(made)
            stepped[forget] += len(made)
        for w in words:
            del made[:], want[:]
            run = trace(a, w)
            _search_by_scan(a._numbered, w)
            replay = [] if run is None else [move.config[1] for move in run]
            assert made == want + replay, (seed, w)
            searched += len(want)
            replayed += len(replay)
    assert min(stepped) > 500 and searched > 5000 and replayed > 1000, (stepped, searched, replayed)


def test_the_accept_index_is_a_view_of_the_rows():
    resets = 0
    for a in _zoo_and_constructions() + [random_hra(seed) for seed in range(20)]:
        for b, rows_first in ((a, True), (a._numbered, False)):
            if rows_first:
                b._rows
            rows, index = b._rows, b._accept_index
            # one row per transition, in `_outgoing` order
            assert list(rows) == list(b._outgoing)
            for q, ts in b._outgoing.items():
                assert [row[2] for row in rows[q]] == ts
                for pre, dst, t, leave, enter, regs, drop in rows[q]:
                    assert dst == t.dst
                    if isinstance(t.label, Reset):
                        assert (pre, leave, enter, drop) == (None, (), (), t.label.targets)
                        assert sorted(regs) == [i - 1 for i in sorted(t.label.targets)]
                        resets += 1
                    else:
                        assert pre == t.label.pre and drop == tuple(i - 1 for i in sorted(pre))
            # the letter rows themselves, grouped by `pre` in `_rows` order
            want: dict = {}
            for q, rs in rows.items():
                for row in rs:
                    if row[0] is not None:
                        want.setdefault(q, {}).setdefault(row[0], []).append(row)
            assert list(index) == list(want)
            for q, by_pre in want.items():
                assert list(index[q]) == list(by_pre)
                for pre, rs in by_pre.items():
                    got = index[q][pre]
                    assert len(got) == len(rs) and all(r is w for r, w in zip(got, rs))
    assert resets > 0


def test_explore_maps_each_pair_to_the_edge_that_discovered_it(monkeypatch):
    calls = []

    def recording(adj, start, moves):
        reached, edges = explore(adj, start, moves)
        calls.append((start, reached, edges))
        return reached, edges

    monkeypatch.setattr(core, "explore", recording)
    monkeypatch.setattr(constructions, "explore", recording)
    searches = _recorded_trace_searches(monkeypatch)
    found = 0
    for seed in range(40):
        a = random_hra(seed, max_m=2, max_n=1, max_states=4, max_transitions=8)
        run = trace(a, (0, 1, 0))
        fix_names(a, (0, 1))
        # `trace` searches on its own: same pairs, same discovery order,
        # same discovering move, the same stop
        reached, goal = searches[-1]
        want, want_goal = _search_by_scan(a._numbered, (0, 1, 0))
        assert goal == want_goal, seed
        assert [(p, v if v is None else (v[0], v[1][2])) for p, v in reached.items()] \
            == list(want.items()), seed
        found += run is not None
    assert len(calls) == 40 and len(searches) == 40 and found >= 5, found
    for start, reached, edges in calls:
        first = {start: None}
        for src, x, dst in edges:
            first.setdefault(dst, (src, x))
        # same pairs, same discovery order, same discovering edge
        assert list(reached.items()) == list(first.items())


def test_trace_reads_the_next_letters_placeset_once_per_pair(monkeypatch):
    # at most one `placeset_of` call for each reached pair with a letter
    # still to read, not one per row tried
    searches = _recorded_trace_searches(monkeypatch)
    calls = []
    placeset_of = core.Assignment.placeset_of
    monkeypatch.setattr(core.Assignment, "placeset_of",
                        lambda h, name: calls.append(name) or placeset_of(h, name))
    words = list(enumerate_words((0, 1, 2), 3))
    read = tried = 0
    for seed in range(40):
        a = random_hra(seed, max_m=2, max_n=1, max_states=4, max_transitions=8)
        for w in words:
            calls.clear()
            trace(a, w)
            reached, _ = searches[-1]
            assert len(calls) <= sum(k < len(w) for _, _, k in reached), (seed, w)
            assert calls or not w
            read += len(calls)
            tried += sum(len(a._numbered._outgoing.get(q, ())) for q, _, _ in reached)
    # one read per row tried would be far more
    assert 2 * read < tried, (read, tried)


def test_trace_forgets_each_name_after_its_last_letter(monkeypatch):
    # on a word of distinct names the reached pairs grow with its length,
    # not with the subsets of its names
    searches = _recorded_trace_searches(monkeypatch)
    a = constructions.intersection(two_tracks_hra(), no_immediate_repeat_history_hra())
    w = tuple(range(12))
    run = trace(a, w)
    assert run is not None and len(searches) == 1
    reached, _ = searches[0]
    assert len(reached) <= len(a.states) * 13
    # no pair holds a name after its last letter: with distinct names, the
    # letters read are nowhere
    assert all(not set(w[:k]) & h.names() for _, h, k in reached)
    _replay(a, w, run)


def test_membership_epsilon_word():
    import dataclasses

    assert membership(generate_then_consume_hra(), ())
    stripped = dataclasses.replace(all_distinct_hra(), finals=frozenset())
    assert not membership(stripped, ())


def test_trace_returns_accepting_path():
    a = generate_then_consume_hra()
    steps = trace(a, (3, 4, 4, 3))
    assert steps is not None
    letters = [st.letter for st in steps if st.letter is not None]
    assert letters == [3, 4, 4, 3]
    assert steps[-1].transition.dst in a.finals or steps[-1].transition.dst is not None


def test_trace_none_for_rejected_word():
    assert trace(all_distinct_hra(), (1, 1)) is None


# ---------------------------------------------------------------------------
# classification


def test_classify_flags():
    flags = classify(anchored_blocks_hra())
    assert flags.unary and not flags.non_reset
    flags = classify(two_tracks_hra())
    assert not flags.unary and flags.non_reset
    flags = classify(no_immediate_repeat_register_hra())
    assert flags.ra and flags.non_reset and not flags.unary


def test_empty_reset_does_not_spoil_non_reset():
    assert classify(generate_then_consume_hra()).non_reset


def test_reset_summaries_fixpoint():
    a = anchored_blocks_hra()
    rr = reset_summaries(a)
    # q1 --RST{1}--> q0, so q1 reaches q0 with reset set {1}
    assert (s(1), "q0") in rr["q1"]
    assert (s(), "q1") in rr["q1"]


# ---------------------------------------------------------------------------
# strong determinism


def test_strong_determinism_of_deterministic_automaton():
    assert deterministic(all_distinct_hra())


def test_strong_determinism_rejects_double_edge():
    a = make_hra(
        1,
        0,
        states=["q", "r", "t"],
        initial="q",
        transitions=[
            ("q", Accept(s(), s(1)), "r"),
            ("q", Accept(s(), s()), "t"),
        ],
        finals=["r"],
    )
    with pytest.raises(NotDeterministic, match=r"state 'q' on place-set \[\]$"):
        complement_deterministic(a)
    ok, witness = bounded_determinism_check(a, 3)
    assert not ok and witness is not None


def test_bounded_determinism_agrees_on_zoo():
    for a in (all_distinct_hra(), two_tracks_hra(), generate_then_consume_hra()):
        ok, _ = bounded_determinism_check(a, 4)
        assert ok == deterministic(a)


# ---------------------------------------------------------------------------
# equivariance: membership only sees equality patterns


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    word=st.lists(st.integers(0, 4), max_size=6),
    swap=st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
def test_membership_invariant_under_initial_fixing_permutations(seed, word, swap):
    a = random_hra(seed, max_m=2, max_n=1, max_states=3)
    fixed = a.initial_assignment.names()
    x, y = swap
    if x in fixed or y in fixed:
        return
    perm = {x: y, y: x}
    w = tuple(word)
    assert membership(a, w) == membership(a, permute_word(w, perm))


def test_package_exports_no_modules():
    import histra

    assert histra.__all__
    for name in histra.__all__:
        assert not isinstance(getattr(histra, name), types.ModuleType), name
