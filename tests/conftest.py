"""Shared cross-checks for the emptiness tests, and the determinism test
that complementation applies."""

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
    registers_to_histories,
    restricted_hra_to_rvass,
)
from histra.oracles import one_counter_coverable


def _translation_verdicts(a):
    """Is L(a) empty, according to each of the paper's translations that
    applies to `a`?  Keyed by translation.  `emptiness` uses none of them
    but the one-counter machine, its own reduction on a unary automaton,
    which is decided here by the oracle instead of its solver."""
    red = hra_to_trvass(registers_to_histories(a))
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
