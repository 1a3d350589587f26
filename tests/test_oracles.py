"""The reference machinery itself: language predicates, word enumeration,
bounded emptiness, bounded bisimulation, random generators."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histra import Hra, membership, validate
from histra.oracles import (
    Lang,
    bounded_bisimulation,
    bounded_emptiness,
    enumerate_words,
    oracle_membership,
    random_counter_machine,
    random_hra,
)
from histra.zoo import (
    all_distinct_hra,
    alternating_pair_hras,
    anchored_distinct_hra,
    generate_then_consume_hra,
    no_immediate_repeat_history_hra,
    no_immediate_repeat_register_hra,
    two_tracks_hra,
)


def w(*names):
    return tuple(names)


# ---------------------------------------------------------------------------
# language predicates


def test_all_distinct():
    assert oracle_membership(Lang.ALL_DISTINCT, w(0, 1, 2))
    assert not oracle_membership(Lang.ALL_DISTINCT, w(0, 1, 0))
    assert oracle_membership(Lang.ALL_DISTINCT, w())


def test_counting_languages():
    assert oracle_membership(Lang.ALL_EXACTLY_TWICE, w(0, 1, 0, 1))
    assert not oracle_membership(Lang.NOT_ALL_TWICE, w(0, 1, 0, 1))
    assert oracle_membership(Lang.NOT_ALL_TWICE, w(0))
    assert oracle_membership(Lang.ALL_EXACTLY_TWICE, w())
    assert not oracle_membership(Lang.NOT_ALL_TWICE, w())


def test_two_tracks():
    assert not oracle_membership(Lang.TWO_TRACKS_DISTINCT, w(0, 1, 0, 1))
    assert oracle_membership(Lang.TWO_TRACKS_DISTINCT, w(0, 1, 2, 3))
    assert oracle_membership(Lang.TWO_TRACKS_DISTINCT, w(0, 1, 1, 0))
    assert not oracle_membership(Lang.TWO_TRACKS_DISTINCT, w(0, 1, 2))  # odd length


def test_single_tracks_compose_to_both():
    for word in enumerate_words((0, 1, 2), 6):
        both = oracle_membership(Lang.ODD_TRACK_DISTINCT, word) and oracle_membership(
            Lang.EVEN_TRACK_DISTINCT, word
        )
        assert both == oracle_membership(Lang.TWO_TRACKS_DISTINCT, word)


def test_generate_consume():
    assert oracle_membership(Lang.GENERATE_CONSUME, w())
    assert oracle_membership(Lang.GENERATE_CONSUME, w(0, 1, 1, 0))
    assert oracle_membership(Lang.GENERATE_CONSUME, w(1, 1))  # u=1, v=1
    assert not oracle_membership(Lang.GENERATE_CONSUME, w(1, 1, 1))
    assert not oracle_membership(Lang.GENERATE_CONSUME, w(0, 1, 1, 1))


def test_anchored_languages():
    assert oracle_membership(Lang.ANCHORED_DISTINCT, w(0, 1, 2), anchor=0)
    assert not oracle_membership(Lang.ANCHORED_DISTINCT, w(1, 2), anchor=0)
    assert not oracle_membership(Lang.ANCHORED_DISTINCT, w(), anchor=0)
    assert oracle_membership(Lang.ANCHORED_BLOCKS, w(), anchor=0)
    assert oracle_membership(Lang.ANCHORED_BLOCKS, w(0, 1, 0, 1, 2), anchor=0)
    assert not oracle_membership(Lang.ANCHORED_BLOCKS, w(0, 1, 1), anchor=0)


def test_no_immediate_repeat():
    assert oracle_membership(Lang.NO_IMMEDIATE_REPEAT, w(0, 1, 0))
    assert not oracle_membership(Lang.NO_IMMEDIATE_REPEAT, w(0, 0))
    assert oracle_membership(Lang.NO_IMMEDIATE_REPEAT, w())


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_words_count():
    assert len(list(enumerate_words((0, 1), 2))) == 7  # eps + 2 + 4
    assert list(enumerate_words((0, 1), 0)) == [()]
    words = list(enumerate_words((0, 1, 2), 3))
    assert len(words) == len(set(words)) == 1 + 3 + 9 + 27


# ---------------------------------------------------------------------------
# bounded emptiness


def test_bounded_emptiness_finds_witness():
    probe = bounded_emptiness(anchored_distinct_hra(0), 4)
    assert probe.kind == "nonempty"
    assert probe.witness is not None and membership(anchored_distinct_hra(0), probe.witness)


def test_bounded_emptiness_exhausts_finite_space():
    stripped = dataclasses.replace(all_distinct_hra(), finals=frozenset())
    probe = bounded_emptiness(stripped, 3)
    assert probe.kind == "bound_exhausted"  # fresh supply never dries up
    dead = dataclasses.replace(
        generate_then_consume_hra(),
        finals=frozenset(),
    )
    assert bounded_emptiness(dead, 3).kind == "bound_exhausted"


def test_bounded_emptiness_definitely_empty_without_cycles():
    from histra import Accept, make_hra

    a = make_hra(
        1,
        0,
        states=["p", "q"],
        initial="p",
        transitions=[("p", Accept(frozenset({1}), frozenset()), "q")],
        finals=["q"],
    )
    # the only transition needs a name in history 1, which starts empty
    assert bounded_emptiness(a, 5).kind == "empty_within_bound"


class _ScanEveryTransition:
    """The letter scan of `bounded_emptiness` as first written: every
    transition of the automaton, tested on its source."""

    def __init__(self, a):
        self.transitions = a.transitions

    def get(self, q, default):
        return [t for t in self.transitions if t.src == q]


@pytest.mark.parametrize("subclass", [None, "non_reset", "unary", "restricted", "colouring"])
def test_bounded_emptiness_agrees_with_the_transition_scan(subclass, monkeypatch):
    probes = []
    for seed in range(60):
        a = random_hra(seed, max_m=2, max_n=1, max_states=4, subclass=subclass)
        probes.append(bounded_emptiness(a, 4))
    monkeypatch.setattr(Hra, "_outgoing", property(_ScanEveryTransition))
    for seed, probe in enumerate(probes):
        a = random_hra(seed, max_m=2, max_n=1, max_states=4, subclass=subclass)
        assert bounded_emptiness(a, 4) == probe, (subclass, seed)
    assert any(p.kind == "nonempty" for p in probes)


def test_bounded_emptiness_finds_the_same_witness_under_every_hash_seed():
    # a union's operands each offer a one-letter witness, and which one the
    # search meets first must not depend on how states hash
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "from histra.constructions import concatenation, union\n"
        "from histra.oracles import bounded_emptiness\n"
        "from histra.zoo import anchored_blocks_hra, anchored_distinct_hra, two_tracks_hra\n"
        "ad0, ad1, ab0 = anchored_distinct_hra(0), anchored_distinct_hra(1), anchored_blocks_hra(0)\n"
        "for a in (union(ad0, ad1), union(ad0, ab0), union(two_tracks_hra(), ab0),\n"
        "          concatenation(ad0, ad1)):\n"
        "    print(bounded_emptiness(a, 8))\n"
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
    assert outs.pop().count("nonempty") == 4


# ---------------------------------------------------------------------------
# bounded bisimulation


def test_bisimulation_identity_and_renamed_twin():
    a = two_tracks_hra()
    assert bounded_bisimulation(a, a, 5)


def test_bisimulation_distinguishes_languages():
    assert not bounded_bisimulation(all_distinct_hra(), two_tracks_hra(), 3)
    a1, a2 = alternating_pair_hras()
    assert not bounded_bisimulation(a1, a2, 3)


def test_bisimulation_stricter_than_language_equality():
    a = no_immediate_repeat_register_hra()
    b = no_immediate_repeat_history_hra()
    # same language, but b resolves a guess the game can expose
    for word in enumerate_words((0, 1), 4):
        assert membership(a, word) == membership(b, word)
    assert not bounded_bisimulation(a, b, 4)


# ---------------------------------------------------------------------------
# generators


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_random_hra_always_validates(seed):
    a = random_hra(seed, max_m=2, max_n=2, max_states=4)
    validate(a)


@pytest.mark.parametrize("subclass", ["non_reset", "unary", "restricted", "colouring"])
def test_random_hra_subclasses(subclass):
    from histra import classify
    from histra.reductions import colouring_scope_ok, restriction_ok

    for seed in range(25):
        a = random_hra(seed, subclass=subclass)
        validate(a)
        flags = classify(a)
        if subclass == "non_reset":
            assert flags.non_reset
        elif subclass == "unary":
            assert flags.unary
        elif subclass == "restricted":
            assert restriction_ok(a)
        else:
            assert colouring_scope_ok(a)


@pytest.mark.parametrize("klass", ["trvass", "rvass", "vass"])
def test_random_counter_machines_respect_class(klass):
    for seed in range(25):
        mc = random_counter_machine(seed, dims=2, klass=klass)
        if klass == "vass":
            assert mc.is_vass()
        if klass == "rvass":
            assert mc.is_rvass()


def test_random_counter_machine_unit_effects():
    for seed in range(25):
        mc = random_counter_machine(seed, dims=3, klass="rvass", unit_effects=True)
        for t in mc.transitions:
            e = t.effect
            assert sum(x for _, x in e.pre + e.post) + len(e.dest) <= 1
