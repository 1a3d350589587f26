"""Exception types shared across the library.

Every precondition failure raises one of these rather than a bare
ValueError so callers (and the CLI) can tell user errors apart from bugs.
"""


class HistraError(Exception):
    """Base class for all library-specific errors."""


class ValidationError(HistraError):
    """An automaton or machine failed structural validation.

    Carries the full list of violations, not just the first one found.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class BadPlaceIndex(HistraError):
    pass


class RegisterOverfull(HistraError):
    pass


class DanglingState(HistraError):
    pass


class DuplicateFixName(HistraError):
    pass


class RegistersPresent(HistraError):
    pass


class NotDeterministic(HistraError):
    pass


class WrongDimension(HistraError):
    pass


class NonUnitEffect(HistraError):
    pass


class SelfTransfer(HistraError):
    pass


class ResetsPresent(HistraError):
    pass


class TransfersOrResetsPresent(HistraError):
    pass


class ScopeViolation(HistraError):
    pass


class NoWitness(HistraError):
    pass


def retired(name: str, replacement: str):
    """A function called `name` that raises NotImplementedError naming
    `replacement`.  It keeps a removed name bound on its module, because
    `benchmarks/tracing.py` looks each of its targets up by name."""
    def gone(*args, **kwargs):
        raise NotImplementedError(f"{name} is gone: use {replacement}")
    gone.__name__ = name
    return gone
