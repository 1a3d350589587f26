"""Shared cross-checks for the emptiness tests, the determinism test
that complementation applies, the value semantics of the NamedTuple
types, and the catalogue automata."""

import copy
import pickle

import pytest

from histra import (
    NotDeterministic,
    backward_coverability,
    classify,
    colouring_scope_ok,
    complement_deterministic,
    eliminate_registers_colouring,
    hra_to_trvass,
    nonreset_to_vass,
    restricted_hra_to_rvass,
)
from histra.oracles import one_counter_coverable
import histra.zoo as zoo


def zoo_automata():
    """Every automaton of `histra.zoo`, the anchored ones at name 0."""
    singles = [zoo.all_distinct_hra, zoo.generate_then_consume_hra, zoo.anchored_blocks_hra,
               zoo.two_tracks_hra, zoo.not_all_twice_hra, zoo.no_immediate_repeat_register_hra,
               zoo.no_immediate_repeat_history_hra, zoo.anchored_distinct_hra,
               zoo.two_step_distinct_hra]
    return [make() for make in singles] + list(zoo.alternating_pair_hras())


def _translation_verdicts(a):
    """Is L(a) empty, according to each of the paper's translations that
    applies to `a`?  Keyed by translation.  `emptiness` uses none of them
    but the one-counter machine, its own reduction on a unary automaton,
    which is decided here by the oracle instead of its solver."""
    red = hra_to_trvass(a)
    out = {"trvass": not backward_coverability(red.machine, red.init, red.target)}
    flags = classify(a)
    if flags.non_reset and (a.n == 0 or colouring_scope_ok(a)):
        red = nonreset_to_vass(eliminate_registers_colouring(a))
        out["vass"] = not backward_coverability(red.machine, red.init, red.target)
    if flags.unary:  # one history: the paper's one-counter R-VASS
        red = restricted_hra_to_rvass(a)
        out["one_counter"] = not one_counter_coverable(red.machine, red.init, red.target)
    return out


@pytest.fixture
def translation_verdicts():
    return _translation_verdicts


def deterministic(a):
    """Does `complement_deterministic` take `a`: is no state and place-set
    matched by two reset-then-accept moves?"""
    try:
        complement_deterministic(a)
    except NotDeterministic:
        return False
    return True


def assert_is_its_fields(v):
    """`v` hashes as the plain tuple of its fields (so every set and dict
    of such values iterates as the tuples would), equals any value built
    from equal fields, refuses assignment to a field and survives a pickle
    round trip."""
    assert hash(v) == hash(tuple(v))
    twin = type(v)(*copy.deepcopy(tuple(v)))
    assert twin == v and hash(twin) == hash(v)
    with pytest.raises(AttributeError):
        setattr(v, v._fields[0], None)
    back = pickle.loads(pickle.dumps(v))
    assert type(back) is type(v) and back == v
