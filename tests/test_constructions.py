"""Closure constructions: products, star, name fixing, register elimination,
packing, complementation, containment."""

import copy
import os
import random
import subprocess
import sys

import pytest

from histra import (
    Accept,
    DuplicateFixName,
    NotDeterministic,
    RegistersPresent,
    complement_deterministic,
    concatenation,
    containment_deterministic,
    fix_names,
    intersection,
    kleene_star,
    make_hra,
    membership,
    registers_to_histories,
    to_packed,
    union,
    unpack,
    validate,
    vass_to_nonreset_hra,
)
from histra.constructions import StateTag, packed_determinism_witness
from histra.core import _outgoing, eps_closure, explore, initial_config, step
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
    reached, _ = explore(_outgoing(i), (i.initial, None), lambda q, f, t: [(None, None)])
    assert {q for q, _ in reached} == i.states
    for w in words:
        assert membership(u, w) == (la(w) or lb(w)), ("union", w)
        assert membership(i, w) == (la(w) and lb(w)), ("inter", w)
    for w in enumerate_words(ALPHA, 4):
        expect = any(la(w[:k]) and lb(w[k:]) for k in range(len(w) + 1))
        assert membership(c, w) == expect, ("concat", w)


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
                for cfg in step(f, (q, h), letter):
                    nxt |= eps_closure(f, {cfg})
        frontier = {c for c in nxt if c not in seen}
        seen |= nxt
        for q, h in frontier:
            for p in pinned:
                assert h.place(p) == expect[p], (depth, p)


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
    for t in _nested_states():
        hash(t)
        twin = copy.deepcopy(t)
        assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)


_PICKLE_STATES = """
import pickle, sys
from histra import intersection, kleene_star, registers_to_histories
from histra.zoo import anchored_distinct_hra

def states():
    a = intersection(kleene_star(anchored_distinct_hra(0)), anchored_distinct_hra(0))
    return registers_to_histories(a).states

if sys.argv[1] == "dump":
    tags = sorted(states(), key=repr)
    set(tags)  # every tag keeps its hash under this seed
    sys.stdout.buffer.write(pickle.dumps(tags))
else:
    tags = pickle.loads(sys.stdin.buffer.read())
    fresh = set(states())
    print(len(tags), sum(t in fresh for t in tags))
"""


def test_a_pickled_state_tag_rehashes_under_the_loading_seed():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")

    def run(seed, mode, data=None):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", _PICKLE_STATES, mode], input=data, env=env,
            capture_output=True, timeout=120, check=True,
        ).stdout

    n, found = run("1", "load", run("0", "dump")).split()
    assert int(n) == 43 and found == n


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
    for name, out in built.items():
        assert not _unshared_states(out), name


# ---------------------------------------------------------------------------
# register elimination and packing


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


def test_to_packed_requires_history_only():
    with pytest.raises(RegistersPresent):
        to_packed(anchored_blocks_hra(0))


def test_to_packed_and_unpack_preserve_language():
    for a in (
        all_distinct_hra(),
        generate_then_consume_hra(),
        two_tracks_hra(),
        not_all_twice_hra(),
    ):
        p = to_packed(a)
        u = unpack(p)
        validate(u)
        for w in enumerate_words(ALPHA, 4):
            assert membership(a, w) == membership(u, w), (a, w)


def test_unpack_is_bounded_bisimilar_to_source():
    for a in (all_distinct_hra(), generate_then_consume_hra(), two_tracks_hra()):
        assert bounded_bisimulation(a, unpack(to_packed(a)), 6)


# ---------------------------------------------------------------------------
# complementation and containment


def test_packed_determinism_witness():
    det = to_packed(all_distinct_hra())
    assert packed_determinism_witness(det) is None
    nondet = to_packed(no_immediate_repeat_history_hra())
    assert packed_determinism_witness(nondet) is not None


def test_complement_requires_determinism():
    with pytest.raises(NotDeterministic):
        complement_deterministic(to_packed(no_immediate_repeat_history_hra()))


def test_complement_is_exact_xor():
    for a in (all_distinct_hra(), generate_then_consume_hra(), two_step_distinct_hra()):
        comp = unpack(complement_deterministic(to_packed(a)))
        validate(comp)
        for w in enumerate_words(ALPHA, 5):
            assert membership(comp, w) != membership(a, w), w


def test_complement_of_register_automaton_via_elimination():
    a = registers_to_histories(anchored_distinct_hra(0))
    comp = unpack(complement_deterministic(to_packed(a)))
    for w in enumerate_words(ALPHA, 5):
        assert membership(comp, w) != oracle_membership(Lang.ANCHORED_DISTINCT, w), w


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
    comp = unpack(complement_deterministic(to_packed(registers_to_histories(blocks))))
    gap = intersection(frag, comp)
    assert len(gap.states) < len(frag.states) * len(comp.states)
    assert not any(membership(gap, w) for w in enumerate_words(ALPHA, 4))
