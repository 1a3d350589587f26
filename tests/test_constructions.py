"""Closure constructions: products, star, name fixing, register elimination,
complementation, containment."""

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest

from histra import (
    Accept,
    DuplicateFixName,
    NotDeterministic,
    Reset,
    WrongDimension,
    colouring_scope_ok,
    complement_deterministic,
    concatenation,
    containment_deterministic,
    eliminate_registers_colouring,
    fix_names,
    intersection,
    kleene_star,
    make_hra,
    membership,
    registers_to_histories,
    rvass_to_hra,
    union,
    validate,
    vass_to_nonreset_hra,
)
from histra.constructions import StateTag, _path, pad_type
from histra.core import eps_closure, explore, initial_config, step
from histra.oracles import (
    Lang,
    bounded_bisimulation,
    enumerate_words,
    oracle_membership,
    random_counter_machine,
    random_hra,
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


def sweep(a, predicate, max_len=5, alphabet=ALPHA):
    bad = [
        word
        for word in enumerate_words(alphabet, max_len)
        if membership(a, word) != predicate(word)
    ]
    assert not bad, f"first mismatches: {bad[:5]}"


# ---------------------------------------------------------------------------
# union / intersection / concatenation on known languages


def test_union_of_disjoint_shapes():
    a = union(all_distinct_hra(), anchored_distinct_hra(0))
    validate(a)
    sweep(
        a,
        lambda w: oracle_membership(Lang.ALL_DISTINCT, w)
        or oracle_membership(Lang.ANCHORED_DISTINCT, w),
    )


def test_union_keeps_anchored_constants_isolated():
    # a word starting with the anchor then a fresh name is only in the
    # anchored branch; the other branch's initial names must not leak
    a = union(anchored_distinct_hra(0), generate_then_consume_hra())
    assert membership(a, (0, 1))
    assert membership(a, (1, 1))
    assert not membership(a, (1, 2, 2, 3))


def test_intersection_is_the_two_track_language():
    a1, a2 = alternating_pair_hras()
    sweep(
        intersection(a1, a2),
        lambda w: oracle_membership(Lang.TWO_TRACKS_DISTINCT, w),
        max_len=6,
    )


def test_intersection_with_mixed_types():
    a = intersection(anchored_distinct_hra(0), all_distinct_hra())
    validate(a)
    sweep(a, lambda w: oracle_membership(Lang.ANCHORED_DISTINCT, w))


def test_concatenation_splits_words():
    a = concatenation(anchored_distinct_hra(0), anchored_distinct_hra(0))
    validate(a)

    def pred(w):
        return any(
            oracle_membership(Lang.ANCHORED_DISTINCT, w[:k])
            and oracle_membership(Lang.ANCHORED_DISTINCT, w[k:])
            for k in range(len(w) + 1)
        )

    sweep(a, pred)


def test_concatenation_resets_only_left_memory():
    # L0 . L0: every word splits into two all-distinct halves; repeats
    # across the split must be allowed
    a = concatenation(all_distinct_hra(), all_distinct_hra())

    def pred(w):
        return any(
            oracle_membership(Lang.ALL_DISTINCT, w[:k])
            and oracle_membership(Lang.ALL_DISTINCT, w[k:])
            for k in range(len(w) + 1)
        )

    sweep(a, pred)


def test_star_of_anchored_distinct_is_anchored_blocks():
    a = kleene_star(anchored_distinct_hra(0))
    sweep(a, lambda w: oracle_membership(Lang.ANCHORED_BLOCKS, w), max_len=6)


def test_star_accepts_epsilon():
    assert membership(kleene_star(all_distinct_hra()), ())


# ---------------------------------------------------------------------------
# random closure sweeps against boolean/split oracles


def _sampler(seed):
    a = random_hra(seed, max_m=2, max_n=1, max_states=3, max_transitions=5)

    def lang(word):
        return membership(a, word)

    return a, lang


@pytest.mark.parametrize("seed", range(10))
def test_random_pairs_union_intersection_concat(seed):
    a, la = _sampler(seed * 2 + 1)
    b, lb = _sampler(seed * 2 + 2)
    words = list(enumerate_words(ALPHA, 4))
    u = union(a, b)
    i = intersection(a, b)
    c = concatenation(a, b)
    # the product builds only the pairs it reaches from the initial one
    reached, _ = explore(i._outgoing, (i.initial, None), lambda q, f, t: [(None, None)])
    assert {q for q, _ in reached} == i.states
    for w in words:
        assert membership(u, w) == (la(w) or lb(w)), ("union", w)
        assert membership(i, w) == (la(w) and lb(w)), ("inter", w)
    for w in enumerate_words(ALPHA, 4):
        expect = any(la(w[:k]) and lb(w[k:]) for k in range(len(w) + 1))
        assert membership(c, w) == expect, ("concat", w)


def test_pad_type_adds_unused_places_and_moves_the_registers_up():
    a = anchored_blocks_hra(0)
    p = pad_type(a, 3, 2)
    assert (p.m, p.n) == (3, 2)
    assert a.initial_assignment.place(2) == p.initial_assignment.place(4) == {0}
    assert not any(p.initial_assignment.place(i) for i in (1, 2, 3, 5))
    for w in enumerate_words((0, 1, 2, 3), 4):
        assert membership(p, w) == membership(a, w), w
    assert pad_type(a, 1, 1) is a
    with pytest.raises(WrongDimension):
        pad_type(a, 0, 2)


# ---------------------------------------------------------------------------
# fix_names


def test_fix_names_rejects_duplicates():
    with pytest.raises(DuplicateFixName):
        fix_names(all_distinct_hra(), (3, 3))


def test_fix_names_preserves_membership():
    a = generate_then_consume_hra()
    f = fix_names(a, (5, 7))
    assert (f.m, f.n) == (a.m, a.n + 2)
    for w in enumerate_words((5, 7, 1), 5):
        assert membership(f, w) == membership(a, w), w


def test_fix_names_pins_registers_forever():
    a = anchored_blocks_hra(0)
    f = fix_names(a, (0, 9))
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
                for cfg in step(f, [(q, h)], letter):
                    nxt |= eps_closure(f, {cfg})
        frontier = {c for c in nxt if c not in seen}
        seen |= nxt
        for q, h in frontier:
            for p in pinned:
                assert h.place(p) == expect[p], (depth, p)


def _evicting_hra():
    """`HRA 0 1`: two fresh names in turn into the register, then the name
    the register holds; L = {x y y : x ≠ y}."""
    e, r = frozenset(), frozenset({1})
    return make_hra(0, 1, ["q0", "q1", "q2", "q3"], "q0",
                    [("q0", Accept(e, r), "q1"), ("q1", Accept(e, r), "q2"),
                     ("q2", Accept(r, e), "q3")], ["q3"])


def test_a_pinned_letter_still_evicts_the_register_it_is_written_to():
    a = _evicting_hra()
    f = fix_names(a, (5,))
    # 5 is written over 7, so 7 is fresh again and not in the register
    assert not membership(a, (7, 5, 7)) and not membership(f, (7, 5, 7))
    assert membership(a, (7, 5, 5)) and membership(f, (7, 5, 5))
    for w in enumerate_words((5, 7, 1), 4):
        assert membership(f, w) == membership(a, w), w
    # L(b) = {ε}, with 5 in b's register: a·b is a, with 5 pinned
    b = make_hra(0, 1, ["p"], "p", [], ["p"], {1: [5]})
    c = concatenation(a, b)
    assert not membership(c, (7, 5, 7)) and membership(c, (7, 5, 5))
    # the pinned move is a reset of the register, then the read
    assert {t.label for t in f.transitions if isinstance(t.label, Reset)} == {Reset(frozenset({1}))}
    # a register written only from itself never holds an unpinned name: no reset
    for anchored in (anchored_blocks_hra(0), anchored_distinct_hra(0)):
        fixed = fix_names(anchored, (0,))
        assert not [q for q in fixed.states if isinstance(q, StateTag) and q.kind == "mid"]


def _blocks(lang, w):
    """Does `w` split into non-empty blocks, each in `lang`?"""
    ends = {0}
    for j in range(1, len(w) + 1):
        if any(lang(w[i:j]) for i in ends):
            ends.add(j)
    return len(w) in ends


@pytest.mark.parametrize("seeds, max_len", [
    (range(50), 3),
    ((7, 20, 83, 93, 132), 4),
], ids=["first_50_draws", "longer_words"])
def test_concatenation_and_star_of_register_writers_split_their_words(seeds, max_len):
    """Pairs of random automata that write their registers, over every word
    of at most `max_len` letters.  Without eviction by pinned letters, the
    concatenation accepts words outside its language at draws 42 and 46
    (3 letters) and 7, 20, 93 and 132 (4 letters), the star at 83 and 93."""
    words = list(enumerate_words((0, 1, 2, 3), max_len))
    for seed in seeds:
        a = random_hra(2 * seed, max_m=2, max_n=2, max_states=3, max_transitions=7)
        b = random_hra(2 * seed + 1, max_m=1, max_n=2, max_states=3, max_transitions=7)
        la = {w: membership(a, w) for w in words}
        lb = {w: membership(b, w) for w in words}
        c, star = concatenation(a, b), kleene_star(a)
        for w in words:
            split = any(la[w[:k]] and lb[w[k:]] for k in range(len(w) + 1))
            assert membership(c, w) == split, ("concat", seed, w)
            assert membership(star, w) == _blocks(la.get, w), ("star", seed, w)


# ---------------------------------------------------------------------------
# state tags


def _nested_states():
    # "copies" tags of product pairs, and "mid" tags holding a transition
    return registers_to_histories(
        intersection(kleene_star(anchored_distinct_hra(0)), anchored_distinct_hra(0))
    ).states


def test_equal_state_tags_hash_equal():
    one, two = _nested_states(), _nested_states()
    assert one == two and {t.kind for t in one} == {"copies", "mid"}
    by_repr = {repr(t): t for t in two}
    for t in one:
        twin = by_repr[repr(t)]
        assert t == twin and t is not twin and hash(t) == hash(twin)
    tag = StateTag("pair", ("p", 1))
    assert hash(tag) == hash(StateTag("pair", ("p", 1))) == hash(("pair", ("p", 1)))


def test_deepcopy_of_a_state_tag_is_equal_and_hashes_equal():
    fresh = {t: t for t in _nested_states()}
    for t in _nested_states():
        hash(t)
        kept = repr(t)
        assert repr(t) is kept
        assert kept == f"<{t.kind}:{','.join(map(repr, t.payload))}>"
        # the kept hash and repr are not pickled: a read tag pickles as an unread twin
        twin = fresh[t]
        assert twin is not t and twin._repr is None
        assert pickle.dumps(t) == pickle.dumps(twin)
        twin = copy.deepcopy(t)
        assert twin == t and hash(twin) == hash(t) and repr(twin) == kept


_PICKLE_STATES = """
import pickle, sys
from histra import intersection, kleene_star, registers_to_histories
from histra.zoo import anchored_distinct_hra

def states():
    a = intersection(kleene_star(anchored_distinct_hra(0)), anchored_distinct_hra(0))
    return registers_to_histories(a).states

if sys.argv[1] == "dump":
    tags = sorted(states(), key=repr)  # every tag keeps its repr
    set(tags)  # and its hash under this seed
    sys.stdout.buffer.write(pickle.dumps(tags))
else:
    tags = pickle.loads(sys.stdin.buffer.read())
    fresh = {t: t for t in states()}
    same = [t for t in tags if t in fresh and repr(t) == repr(fresh[t]) and repr(t) is repr(t)]
    print(len(tags), sum(t in fresh for t in tags), len(same))
"""


def test_a_pickled_state_tag_rehashes_under_the_loading_seed():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")

    def run(seed, mode, data=None):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", _PICKLE_STATES, mode], input=data, env=env,
            capture_output=True, timeout=120, check=True,
        ).stdout

    n, found, same_repr = run("1", "load", run("0", "dump")).split()
    assert int(n) == 43 and found == same_repr == n


def _unshared_states(a):
    """Endpoints, the initial state and finals that are not the very object
    held in `a.states` (equal is not enough)."""
    held = {id(q) for q in a.states}
    ends = [a.initial, *a.finals, *(q for t in a.transitions for q in (t.src, t.dst))]
    return [q for q in ends if id(q) not in held]


_ZOO = [all_distinct_hra(), two_tracks_hra(), anchored_distinct_hra(0), anchored_blocks_hra(1),
        no_immediate_repeat_history_hra(), no_immediate_repeat_register_hra(),
        generate_then_consume_hra(), not_all_twice_hra(), two_step_distinct_hra(),
        *alternating_pair_hras()]


@pytest.mark.parametrize("seed", range(len(_ZOO) + 5))
def test_each_constructed_state_is_one_object(seed):
    if seed < len(_ZOO):
        a, b = _ZOO[seed], _ZOO[(seed + 1) % len(_ZOO)]
    else:
        a, b = _sampler(seed)[0], _sampler(seed + 100)[0]
    built = {
        "intersection": intersection(a, b),
        "union": union(a, b),
        "concatenation": concatenation(a, b),
        "kleene_star": kleene_star(a),
        "fix_names": fix_names(a, (0, 5)),
        "registers_to_histories": registers_to_histories(b),
        "nested": intersection(concatenation(a, b), kleene_star(union(b, a))),
    }
    mc = random_counter_machine(seed, dims=3, klass="vass")
    first, last = sorted(mc.states)[0], sorted(mc.states)[-1]
    built["vass_to_nonreset_hra"] = vass_to_nonreset_hra(mc, (first, (1, 0, 2)), last)
    in_scope = random_hra(seed, max_n=2, subclass="colouring")
    for k, x in enumerate((a, b, in_scope)):
        built[f"pad_type {k}"] = pad_type(x, x.m + 1, x.n + 2)
        if colouring_scope_ok(x):
            built[f"eliminate_registers_colouring {k}"] = eliminate_registers_colouring(x)
        if deterministic(x):
            built[f"complement_deterministic {k}"] = complement_deterministic(x)
    for name, out in built.items():
        assert not _unshared_states(out), name


@pytest.mark.parametrize("chunk", range(10))
def test_a_mid_state_lies_inside_one_move(chunk):
    """Every "mid" state has one outgoing transition and is neither initial
    nor final; outside the VASS encoding, whose edges into one state share
    their suffixes, it also has exactly one incoming transition.  Over the
    zoo and 300 seeded draws of automata and of counter machines."""
    automata = [random_hra(s, max_m=2, max_n=2, max_states=4, max_transitions=8)
                for s in range(30 * chunk, 30 * chunk + 30)] + (_ZOO if chunk == 0 else [])
    with_mids = set()
    for seed, a in enumerate(automata, 30 * chunk):
        built = {"registers_to_histories": registers_to_histories(a)}
        if deterministic(a):
            built["complement_deterministic"] = complement_deterministic(a)
        mc = random_counter_machine(seed, dims=3, klass="rvass", unit_effects=True)
        first, last = sorted(mc.states)[0], sorted(mc.states)[-1]
        built["rvass_to_hra"] = rvass_to_hra(mc, (first, (1, 0, 2)), last)
        mc = random_counter_machine(seed, dims=3, klass="vass")
        first, last = sorted(mc.states)[0], sorted(mc.states)[-1]
        built["vass_to_nonreset_hra"] = vass_to_nonreset_hra(mc, (first, (1, 0, 2)), last)
        for name, out in built.items():
            mids = {q for q in out.states if isinstance(q, StateTag) and q.kind == "mid"}
            assert out.initial not in mids and not mids & out.finals, (name, seed)
            for q in mids:
                with_mids.add(name)
                assert len(out._outgoing[q]) == 1, (name, seed, q)
                if name != "vass_to_nonreset_hra":
                    assert sum(t.dst == q for t in out.transitions) == 1, (name, seed, q)
    assert len(with_mids) == 4, with_mids


class _CountedKey:
    """A `_path` key that counts the calls of its `__hash__`."""

    def __init__(self):
        self.hashes = 0

    def __hash__(self):
        self.hashes += 1
        return 7


def test_a_mid_name_is_hashed_once():
    """`_path` keys its mids by the tag, which keeps its hash: building a
    mid hashes its name once, and hashing the mids afterwards, as a
    construction's state set does, hashes no name again.  A second move
    with the same key, labels and target builds no new mid."""
    key, mids = _CountedKey(), {}
    labels = (Reset(frozenset({1})), Accept(frozenset(), frozenset({1})),
              Accept(frozenset({1}), frozenset()))
    path = _path("p", labels, "q", key, mids)
    frozenset(mids.values())
    assert len(path) == 3 and len(mids) == 2
    assert key.hashes == 2
    again = _path("r", labels, "q", key, mids)
    assert len(mids) == 2 and all(u.dst is t.dst for u, t in zip(again, path))


# ---------------------------------------------------------------------------
# register elimination


def test_registers_to_histories_type_and_language():
    a = anchored_blocks_hra(0)
    b = registers_to_histories(a)
    assert (b.m, b.n) == (a.m + 2 * a.n, 0)
    for w in enumerate_words(ALPHA, 5):
        assert membership(a, w) == membership(b, w), w


def test_registers_to_histories_is_bounded_bisimilar():
    for a in (anchored_blocks_hra(0), no_immediate_repeat_register_hra(), anchored_distinct_hra(0)):
        assert bounded_bisimulation(a, registers_to_histories(a), 6)


def test_registers_to_histories_identity_without_registers():
    a = two_tracks_hra()
    assert registers_to_histories(a) is a


# ---------------------------------------------------------------------------
# complementation and containment


def test_complement_requires_determinism():
    with pytest.raises(NotDeterministic):
        complement_deterministic(no_immediate_repeat_history_hra())


# p writes a fresh name into the register, then q reads it twice: into the
# register alone, or into the history and the register too
_READ_TWICE = [("p", Accept(frozenset(), frozenset({2})), "q"),
               ("q", Accept(frozenset({2}), frozenset({2})), "r"),
               ("q", Accept(frozenset({2}), frozenset({1, 2})), "t")]
# q takes a fresh name into the register, or a fresh name it drops at once
_FRESH_TWICE = [("q", Accept(frozenset(), frozenset({2})), "r"),
                ("q", Accept(frozenset(), frozenset()), "t")]


@pytest.mark.parametrize("initial, transitions, placeset", [
    ("p", _READ_TWICE, "[2]"), ("q", _FRESH_TWICE, "[]"),
], ids=["read-twice", "fresh-twice"])
def test_nondeterminism_with_registers_names_the_input_state_and_places(
        initial, transitions, placeset):
    """The error speaks of the input's own state and places: state q, and
    register place 2."""
    a = make_hra(1, 1, states=["p", "q", "r", "t"], initial=initial,
                 transitions=transitions, finals=["r"])
    with pytest.raises(NotDeterministic) as err:
        complement_deterministic(a)
    assert str(err.value) == f"two transitions match state 'q' on place-set {placeset}"


def test_determinism_counts_moves_not_the_states_between():
    assert deterministic(all_distinct_hra())
    assert not deterministic(no_immediate_repeat_history_hra())
    # q wipes place 1 on the way to p1 or to p2, and either then puts a fresh
    # name in it and goes to f: one reset-then-accept move, reached twice
    one, fresh = frozenset({1}), Accept(frozenset(), frozenset({1}))
    a = make_hra(1, 0, states=["q", "p1", "p2", "f"], initial="q",
                 transitions=[("q", Reset(one), "p1"), ("q", Reset(one), "p2"),
                              ("p1", fresh, "f"), ("p2", fresh, "f")],
                 finals=["f"])
    assert deterministic(a)
    comp = complement_deterministic(a)
    for w in enumerate_words(ALPHA, 3):
        assert membership(comp, w) != (len(w) == 1), w


def test_complement_is_exact_xor():
    for a in (all_distinct_hra(), generate_then_consume_hra(), two_step_distinct_hra()):
        comp = complement_deterministic(a)
        validate(comp)
        for w in enumerate_words(ALPHA, 5):
            assert membership(comp, w) != membership(a, w), w


def test_complement_takes_register_automata():
    """Registers are complemented in place: the type is kept, and no history
    copies or mid states of the register-free form are built."""
    a = anchored_blocks_hra(0)
    comp = complement_deterministic(a)
    assert (comp.m, comp.n) == (a.m, a.n)
    for w in enumerate_words(ALPHA, 5):
        assert membership(comp, w) != membership(a, w), w
    assert len(comp.states) < len(complement_deterministic(registers_to_histories(a)).states)


def test_complement_judges_only_reachable_states():
    """A conflict at an unreachable state is no conflict of any run: the
    automaton is complemented, as is its padding with an unused register.
    It accepts words of distinct names, as q loops on a fresh name; the
    unreachable state u has two moves on a fresh name."""
    fresh = Accept(frozenset(), frozenset({1}))
    a = make_hra(1, 0, states=["q", "u", "v", "w"], initial="q",
                 transitions=[("q", fresh, "q"), ("u", fresh, "v"), ("u", fresh, "w")],
                 finals=["q"])
    for b in (a, pad_type(a, 1, 1)):
        comp = complement_deterministic(b)
        assert (comp.m, comp.n) == (b.m, b.n)
        assert not any(s.kind == "co" and s.payload[0] == "u" for s in comp.states)
        for w in enumerate_words(ALPHA, 5):
            assert membership(comp, w) == (len(set(w)) < len(w)), (b, w)


def test_complement_judges_only_produced_place_sets():
    """No run puts a name at [1, 2] and then reaches p, so the two moves of q
    that both match there (read [1, 2], or wipe 2 and read [1]) meet no
    run: the automaton complements."""
    one, two, both = frozenset({1}), frozenset({2}), frozenset({1, 2})
    a = make_hra(2, 0, states=["s", "t", "q", "p", "f"], initial="s",
                 transitions=[("s", Accept(frozenset(), one), "t"),
                              ("t", Accept(frozenset(), two), "q"),
                              ("q", Accept(both, frozenset()), "f"),
                              ("q", Reset(two), "p"),
                              ("p", Accept(one, frozenset()), "f")],
                 finals=["f"])
    assert both not in a._produced
    comp = complement_deterministic(a)
    for w in enumerate_words((0, 1, 2, 3), 4):
        assert membership(comp, w) != membership(a, w), w


def _round_robin(m, finals=None):
    """q_i takes a fresh name into history i + 1 and moves on to q_(i+1 mod m):
    it accepts exactly the words of distinct names."""
    states = [f"q{i}" for i in range(m)]
    return make_hra(m, 0, states=states, initial="q0",
                    transitions=[(q, Accept(frozenset(), frozenset({i + 1})), states[(i + 1) % m])
                                 for i, q in enumerate(states)],
                    finals=states if finals is None else finals)


def test_complement_of_a_wide_automaton_stays_small():
    """Twelve histories give 2^12 place-sets, but a run produces only the
    twelve singletons.  Each state reads ∅ and gets a sink edge for each
    singleton: with the sink's own two, 158 transitions in all."""
    a = _round_robin(12)
    assert len(complement_deterministic(a).transitions) == 158
    assert containment_deterministic(a, a)
    assert not containment_deterministic(a, _round_robin(12, finals=[f"q{i}" for i in range(1, 12)]))


def test_determinism_is_kept_by_padding():
    """An unused register changes no language, so it changes no verdict."""
    for seed in range(200):
        a = random_hra(seed, max_m=2, max_n=1, max_states=4)
        assert deterministic(a) == deterministic(pad_type(a, a.m, a.n + 1)), seed


def test_complement_of_register_automaton_via_elimination():
    comp = complement_deterministic(registers_to_histories(anchored_distinct_hra(0)))
    for w in enumerate_words(ALPHA, 5):
        assert membership(comp, w) != oracle_membership(Lang.ANCHORED_DISTINCT, w), w


def _deterministic_draws():
    drawn = [random_hra(seed, max_m=2, max_n=1, max_states=4) for seed in range(40)]
    return [a for a in drawn if deterministic(a)]


def test_complement_twice_gives_back_the_language():
    zoo = [all_distinct_hra(), generate_then_consume_hra(), two_step_distinct_hra(),
           anchored_distinct_hra(0)]
    draws = _deterministic_draws()
    assert len(draws) >= 20
    for a in zoo + draws:
        c = complement_deterministic(a)
        cc = complement_deterministic(c)
        validate(cc)
        assert not _unshared_states(cc)
        for w in enumerate_words((0, 1, 2, 3), 4):
            assert membership(cc, w) == membership(a, w) != membership(c, w), (a, w)


def test_complement_of_a_complement_adds_new_states():
    """The sink and the mid states a complement adds are new even when its
    input is itself a complement.  Seed 0 rejects ε; reusing the sink of
    its complement (final there) as the next sink made the complement of
    the complement accept ε too, and reflexive containment fail."""
    a = random_hra(0, max_m=2, max_n=1, max_states=4)
    c = complement_deterministic(a)
    assert not membership(a, ()) and membership(c, ())
    assert not membership(complement_deterministic(c), ())
    for a in _deterministic_draws():
        c = complement_deterministic(a)
        cc = complement_deterministic(c)
        assert all(s.payload[0] in c.states for s in cc.states if s.kind == "co")
        assert containment_deterministic(c, c)


def test_containment_reflexive_and_proper():
    a = all_distinct_hra()
    two = two_step_distinct_hra()
    assert containment_deterministic(a, a)
    assert containment_deterministic(two, two)
    assert containment_deterministic(two, a)
    assert not containment_deterministic(a, two)


def test_containment_with_register_bearing_right_side():
    frag = anchored_distinct_hra(0)
    full = all_distinct_hra()
    assert containment_deterministic(frag, full)
    assert not containment_deterministic(full, frag)
    # an anchored-distinct word is a single anchored block; the product
    # with the complement of the blocks automaton holds only the pairs it
    # reaches, fewer than |Q1|·|Q2|
    blocks = anchored_blocks_hra(0)
    assert containment_deterministic(frag, blocks)
    comp = complement_deterministic(blocks)
    gap = intersection(frag, comp)
    assert len(gap.states) < len(frag.states) * len(comp.states)
    assert not any(membership(gap, w) for w in enumerate_words(ALPHA, 4))
