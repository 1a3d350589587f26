"""History-register automata: exact semantics, closure constructions, and
emptiness/containment decision procedures via counter machines."""

from .constructions import (
    StateTag,
    complement_deterministic,
    concatenation,
    containment_deterministic,
    fix_names,
    intersection,
    kleene_star,
    pad_type,
    registers_to_histories,
    union,
)
from .core import (
    Accept,
    Assignment,
    Hra,
    Reset,
    SubclassFlags,
    TraceStep,
    Transition,
    classify,
    eps_closure,
    explore,
    initial_config,
    make_hra,
    membership,
    permute_word,
    reset_summaries,
    step,
    subsets,
    trace,
    validate,
)
from .counters import (
    Add,
    CounterMachine,
    CTransition,
    Effect,
    ForwardProbe,
    ResetDim,
    Transfer,
    UpSet,
    apply_effect,
    backward_coverability,
    counter_step,
    forward_witness_search,
    pre_basis,
)
from .errors import (
    BadPlaceIndex,
    DanglingState,
    DuplicateFixName,
    HistraError,
    NoWitness,
    NonUnitEffect,
    NotDeterministic,
    RegisterOverfull,
    ResetsPresent,
    ScopeViolation,
    SelfTransfer,
    TransfersOrResetsPresent,
    ValidationError,
    WrongDimension,
)
from .oracles import (
    EmptinessProbe,
    Lang,
    bounded_bisimulation,
    bounded_determinism_check,
    bounded_emptiness,
    enumerate_words,
    oracle_membership,
    random_counter_machine,
    random_hra,
)
from .reductions import (
    CounterReduction,
    DimensionMap,
    EmptinessResult,
    colouring_scope_ok,
    eliminate_registers_colouring,
    emptiness,
    hra_to_trvass,
    nonreset_to_vass,
    restricted_hra_to_rvass,
    restriction_ok,
    rvass_to_hra,
    vass_to_nonreset_hra,
)
from .skeletons import (
    Skeleton,
    enumerate_skeletons,
    skel_at,
    skel_move,
    skel_reset,
    skeleton_of,
)

__all__ = [
    # constructions
    "StateTag", "complement_deterministic", "concatenation", "containment_deterministic",
    "fix_names", "intersection", "kleene_star", "pad_type", "registers_to_histories", "union",
    # core
    "Accept", "Assignment", "Hra", "Reset", "SubclassFlags", "TraceStep", "Transition",
    "classify", "eps_closure", "explore", "initial_config", "make_hra", "membership",
    "permute_word", "reset_summaries", "step", "subsets", "trace", "validate",
    # counters
    "Add", "CounterMachine", "CTransition", "Effect", "ForwardProbe", "ResetDim", "Transfer",
    "UpSet", "apply_effect", "backward_coverability", "counter_step",
    "forward_witness_search", "pre_basis",
    # errors
    "BadPlaceIndex", "DanglingState", "DuplicateFixName", "HistraError", "NoWitness",
    "NonUnitEffect", "NotDeterministic", "RegisterOverfull", "ResetsPresent",
    "ScopeViolation", "SelfTransfer", "TransfersOrResetsPresent", "ValidationError",
    "WrongDimension",
    # oracles
    "EmptinessProbe", "Lang", "bounded_bisimulation", "bounded_determinism_check",
    "bounded_emptiness", "enumerate_words", "oracle_membership", "random_counter_machine",
    "random_hra",
    # reductions
    "CounterReduction", "DimensionMap", "EmptinessResult", "colouring_scope_ok",
    "eliminate_registers_colouring", "emptiness", "hra_to_trvass", "nonreset_to_vass",
    "restricted_hra_to_rvass", "restriction_ok", "rvass_to_hra", "vass_to_nonreset_hra",
    # skeletons
    "Skeleton", "enumerate_skeletons", "skel_at", "skel_move", "skel_reset",
    "skeleton_of",
]
__version__ = "0.1.0"
