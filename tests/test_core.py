"""One-step semantics, membership, classification, determinism."""

import copy
import pickle
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histra import (
    Accept,
    Assignment,
    BadPlaceIndex,
    Hra,
    Reset,
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
    anchored_blocks_hra,
    generate_then_consume_hra,
    no_immediate_repeat_history_hra,
    no_immediate_repeat_register_hra,
    two_tracks_hra,
)

from conftest import deterministic


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
    with pytest.raises(ValueError):
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
    assert step(a, initial_config(a), 5, forget=True) == {("q", Assignment.of(3, {2: [6]}))}
    assert step(a, initial_config(a), 5) == {("q", Assignment.of(3, {1: [5], 2: [6], 3: [5]}))}


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
    assert not step(a, (q0, h), 9)
    # but it fires on a fresh one
    assert step(a, (q0, h), 10)


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
        got = step(a, (_CountedState(state.name), assignment), letter)
        assert _CountedState.eq_calls <= 1, (state.name, letter, _CountedState.eq_calls)
        assert type(got) is frozenset and bool(got) == fires


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
            for c in layer:
                for x in letters:
                    nxt |= step(a, c, x)
            layer = eps_closure(a, nxt)
            reached |= layer
        for c in reached:
            for x in letters:
                got = step(a, c, x)
                assert got == _step_by_scan(a, c, x), (seed, c, x)
                fired += bool(got)
    assert with_registers >= 30 and fired >= 1000, (with_registers, fired)


def _scan_index(a):
    """A stand-in for the accept index that scans every transition of the
    automaton on each lookup, testing its source, its label kind and its
    `pre`, as `step` first did."""

    class From:
        def __init__(self, q):
            self.q = q

        def get(self, x):
            return [(t.label.post, t.dst) for t in a.transitions
                    if t.src == self.q and isinstance(t.label, Accept) and t.label.pre == x]

    return types.SimpleNamespace(get=From)


def _reached(a, letters, length):
    """Every configuration that a word of at most `length` letters reaches."""
    layer = eps_closure(a, {initial_config(a)})
    reached = set(layer)
    for _ in range(length):
        layer = eps_closure(a, {c2 for c in layer for x in letters for c2 in step(a, c, x)})
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
                kept, forgotten = step(a, c, x), step(a, c, x, forget=True)
                # forgetting is the step, then the letter removed everywhere
                assert forgotten == {(q, _removed(h, x)) for q, h in kept}, (seed, c, x)
                probes.append((seed, c, x, kept, forgotten))
    monkeypatch.setattr(core, "_accept_index", _scan_index)
    for seed, c, x, kept, forgotten in probes:
        a = random_hra(seed, max_m=2, max_n=2, max_states=4, subclass=subclass)
        assert step(a, c, x) == kept, (seed, c, x)
        assert step(a, c, x, forget=True) == forgotten, (seed, c, x)
    assert sum(bool(p[3]) for p in probes) >= 200


def _membership_keeping_every_name(a, word):
    frontier = eps_closure(a, {initial_config(a)})
    for x in word:
        frontier = eps_closure(a, {c2 for c in frontier for c2 in step(a, c, x)})
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
            assert got == _membership_keeping_every_name(a, w), (seed, w)
            accepted += got
    assert accepted >= 100


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
            assert move.config in step(a, config, move.letter)
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
                reached |= {c2 for c in _closure_by_search(a, reached)
                            for x in letters for c2 in step(a, c, x)}
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
    step(a, initial_config(a), 0)
    assert reset_summaries(a) is reset_summaries(a)
    assert core._outgoing(a) is core._outgoing(a)
    assert core._accept_index(a) is core._accept_index(a)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert pickle.dumps(a) == pickle.dumps(b)
    a2, b2 = copy.deepcopy(a), copy.deepcopy(b)
    assert a2 == a and vars(a2) == vars(b2) and hash(a2) == hash(b2)
    assert pickle.dumps(a2) == pickle.dumps(b2)
    # an unpickled automaton keeps nothing, and builds the same again
    c = pickle.loads(pickle.dumps(a))
    assert "_kept" not in vars(c) and c == a
    assert ({q: set(ts) for q, ts in core._outgoing(c).items()}
            == {q: set(ts) for q, ts in core._outgoing(a).items()})
    assert reset_summaries(c) == reset_summaries(a)
    assert core._accept_index(c) == core._accept_index(a) != {}


def test_explore_maps_each_pair_to_the_edge_that_discovered_it(monkeypatch):
    calls = []

    def recording(adj, start, moves):
        reached, edges = explore(adj, start, moves)
        calls.append((start, reached, edges))
        return reached, edges

    monkeypatch.setattr(core, "explore", recording)
    monkeypatch.setattr(constructions, "explore", recording)
    for seed in range(40):
        a = random_hra(seed, max_m=2, max_n=1, max_states=4, max_transitions=8)
        trace(a, (0, 1, 0))
        fix_names(a, (0, 1))
    assert len(calls) == 80
    for start, reached, edges in calls:
        first = {start: None}
        for src, x, dst in edges:
            first.setdefault(dst, (src, x))
        # same pairs, same discovery order, same discovering edge
        assert list(reached.items()) == list(first.items())


def test_trace_reads_the_next_letters_placeset_once_per_pair(monkeypatch):
    # one `placeset_of` call for the start and one for each edge's target,
    # not one per transition tried
    searched = []

    def recording(adj, start, moves):
        reached, edges = explore(adj, start, moves)
        searched.append(len(edges))
        return reached, edges

    calls = []
    placeset_of = core.Assignment.placeset_of
    monkeypatch.setattr(core, "explore", recording)
    monkeypatch.setattr(core.Assignment, "placeset_of",
                        lambda h, name: calls.append(name) or placeset_of(h, name))
    words = list(enumerate_words((0, 1, 2), 3))
    for seed in range(40):
        a = random_hra(seed, max_m=2, max_n=1, max_states=4, max_transitions=8)
        for w in words:
            searched.clear()
            calls.clear()
            trace(a, w)
            assert len(calls) <= searched[0] + 1, (seed, w)


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
