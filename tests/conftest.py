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
    one_dim_rvass_reachability,
    registers_to_histories,
    unary_to_one_rvass,
)


def _translation_verdicts(a):
    """Is L(a) empty, according to each of the paper's translations that
    applies to `a`?  Keyed by translation; `emptiness` uses none of them."""
    red = hra_to_trvass(registers_to_histories(a))
    out = {"trvass": not backward_coverability(red.machine, red.init, red.target)}
    flags = classify(a)
    if flags.non_reset and (a.n == 0 or colouring_scope_ok(a)):
        red = nonreset_to_vass(eliminate_registers_colouring(a))
        out["vass"] = not backward_coverability(red.machine, red.init, red.target)
    if flags.unary:
        red = unary_to_one_rvass(a)
        out["one_rvass"] = not one_dim_rvass_reachability(red.machine, red.init, red.target)
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
