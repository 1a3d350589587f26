"""Skeleton abstraction: canonical forms, enumeration counts, and the
commuting squares against concrete representative assignments."""

import math
import random
from itertools import product

import pytest

from histra import Assignment, NoWitness, Skeleton
from histra.core import subsets
from histra.skeletons import (
    enumerate_skeletons,
    skel_at,
    skel_move,
    skel_reset,
    skeleton_of,
)

from conftest import assert_is_its_fields


def s(*xs):
    return frozenset(xs)


def sk(m, n, *placesets):
    return Skeleton(m, n, frozenset(map(frozenset, placesets)))


# ---------------------------------------------------------------------------
# abstraction and canonical form


def test_skeleton_of_register_partition():
    # type (1,4): one history, four registers (places 2..5)
    h1 = Assignment.of(5, {1: [7], 2: [5], 3: [], 4: [7], 5: [5]})
    h2 = Assignment.of(5, {1: [7, 1, 2], 2: [5], 3: [], 4: [7], 5: [5]})
    expected = sk(1, 4, {2, 5}, {1, 4})
    assert skeleton_of(h1, 1, 4) == expected
    assert skeleton_of(h2, 1, 4) == expected  # extra history-only names invisible


def test_worked_example_counter_values():
    h1 = Assignment.of(5, {1: [7], 2: [5], 3: [], 4: [7], 5: [5]})
    h2 = Assignment.of(5, {1: [7, 1, 2], 2: [5], 3: [], 4: [7], 5: [5]})
    assert len(h1.at(s(1))) == 0
    assert len(h2.at(s(1))) == 2


def test_history_only_names_are_anonymous():
    h = Assignment.of(3, {1: [1, 2], 2: [], 3: []})
    assert skeleton_of(h, 1, 2).placesets == frozenset()


def test_renamed_assignments_collide():
    # the same register contents written with different concrete names
    ha = Assignment.of(2, {1: [10], 2: [20]})
    hb = Assignment.of(2, {1: [99], 2: [3]})
    assert skeleton_of(ha, 0, 2) == skeleton_of(hb, 0, 2) == sk(0, 2, {1}, {2})


@pytest.mark.parametrize("v", [sk(0, 0), sk(1, 2, {3}, {1, 2}), sk(2, 1, {1, 3})], ids=repr)
def test_a_skeleton_is_its_fields(v):
    assert_is_its_fields(v)


def test_repr_lists_the_placesets_sorted():
    assert repr(sk(1, 2, {3}, {1, 2})) == "Sk[{1,2} {3}]"
    assert repr(sk(1, 2)) == "Sk[]"


# ---------------------------------------------------------------------------
# lookup and moves


def test_skel_at_matches_exact_placeset():
    k = sk(1, 2, {1, 2})
    assert skel_at(k, s(1, 2))
    assert not skel_at(k, s(2))
    assert not skel_at(k, s())  # a fresh name is no register name


def test_skel_move_unknown_register_set_raises():
    k = sk(1, 1)
    with pytest.raises(NoWitness):
        skel_move(k, s(2), s(1))
    # a history-only name is never in the skeleton, so nothing to look up
    assert skel_move(k, s(1), s(1, 2)) == sk(1, 1, {1, 2})


def test_skel_move_eviction():
    # one name sits in both the history and the register of a (1,1) type
    k = sk(1, 1, {1, 2})
    out = skel_move(k, s(), s(2))  # fresh name overwrites the register
    # the evicted name keeps only its history place, so it drops out of the
    # skeleton entirely (history-only names are invisible)
    assert out == sk(1, 1, {2})


def test_skel_move_symmetric_eviction_is_invisible():
    # overwriting the lone occupant of a register with a fresh name lands in
    # the same shape: skeletons cannot tell renamed twins apart
    k = sk(0, 2, {1}, {2})
    assert skel_move(k, s(), s(1)) == k


def test_skel_reset_clears_cells():
    k = sk(1, 2, {1, 2}, {3})
    # the name at {1,2} survives only in the history, so it drops out
    assert skel_reset(k, s(2)) == sk(1, 2, {3})
    assert skel_reset(k, s(1)) == sk(1, 2, {2}, {3})


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_history_only_types_have_single_skeleton(m):
    assert len(list(enumerate_skeletons(m, 0))) == 1


def test_enumeration_counts_for_small_types():
    assert len(list(enumerate_skeletons(1, 1))) == 3
    assert len(list(enumerate_skeletons(0, 2))) == 5


def test_enumeration_is_duplicate_free_and_canonical():
    for m, n in [(0, 2), (1, 1), (1, 2), (2, 1)]:
        sks = list(enumerate_skeletons(m, n))
        assert len(sks) == len(set(sks))
        for k in sks:
            # abstracting a representative gives the skeleton back
            assert skeleton_of(_representative(k), m, n) == k


def test_enumeration_within_exponential_bound():
    for m in range(4):
        for n in range(4):
            got = len(list(enumerate_skeletons(m, n)))
            bound = 2 ** (m * n + n * (math.log2(n) if n else 0) + 1)
            assert got <= bound, (m, n, got, bound)


# ---------------------------------------------------------------------------
# commuting squares: abstract op after abstraction == abstraction after
# concrete op, checked on representative assignments


def _sorted_sets(k: Skeleton) -> list:
    return sorted(k.placesets, key=sorted)


def _representative(k: Skeleton) -> Assignment:
    """A concrete assignment whose skeleton is `k`: the i-th place-set in
    sorted order is held by name 100+i."""
    names = {100 + i: y for i, y in enumerate(_sorted_sets(k))}
    contents = {p: {a for a, y in names.items() if p in y}
                for p in range(1, k.m + k.n + 1)}
    return Assignment.of(k.m + k.n, contents)


def _random_case(rng: random.Random):
    m = rng.randint(0, 2)
    n = rng.randint(1, 2)
    sks = list(enumerate_skeletons(m, n))
    k = rng.choice(sks)
    h = _representative(k)
    # sprinkle anonymous history-only names; the skeleton must not see them
    for name in range(rng.randint(0, 2)):
        if m:
            h = h.move_name(200 + name, s(rng.randint(1, m)), m)
    return m, n, k, h


def test_move_square_200_randomized_cases():
    rng = random.Random(4242)
    for _ in range(200):
        m, n, k, h = _random_case(rng)
        x = rng.choice([s()] + _sorted_sets(k))
        name = next(iter(h.at(x))) if x else h.fresh_name()
        post = frozenset(
            p for p in range(1, m + n + 1) if rng.random() < 0.4
        )
        assert skeleton_of(h.move_name(name, post, m), m, n) == skel_move(k, x, post)


def test_reset_square_200_randomized_cases():
    rng = random.Random(2424)
    for _ in range(200):
        m, n, k, h = _random_case(rng)
        targets = frozenset(p for p in range(1, m + n + 1) if rng.random() < 0.4)
        assert skeleton_of(h.reset_places(targets), m, n) == skel_reset(k, targets)


def test_move_and_reset_squares_exhaustive_on_small_types():
    """Every type up to two histories and two registers, every skeleton,
    every target set; the moved name is fresh, a register name, or the
    history-only name put at each pure history set."""
    for m, n in product(range(3), repeat=2):
        places = range(1, m + n + 1)
        for k in enumerate_skeletons(m, n):
            h = _representative(k)
            for i, y in enumerate(subsets(range(1, m + 1))[1:]):
                h = h.move_name(200 + i, y, m)
            movers = [s()] + _sorted_sets(k) + subsets(range(1, m + 1))[1:]
            for post in subsets(places):
                assert skeleton_of(h.reset_places(post), m, n) == skel_reset(k, post)
                for x in movers:
                    name = next(iter(h.at(x))) if x else h.fresh_name()
                    got = skeleton_of(h.move_name(name, post, m), m, n)
                    assert got == skel_move(k, x, post), (k, x, post)
