"""Exception types raised across the package.

Every error condition has a named type so callers can tell validation
failures, unsupported constructs and infeasible planning apart. Each type
also declares what the command line does with it: ``exit_code`` is the
exit status and ``kind`` the prefix of the stderr line. They are 2
``error`` (an invalid program or inputs) unless a type overrides them,
3 ``unsupported`` for a construct outside what this implementation handles,
and 4 ``infeasible`` for a memory limit no plan meets.
"""

from __future__ import annotations


class GradflowError(Exception):
    """Base class for all package errors."""

    exit_code, kind = 2, "error"


class ProgramSyntaxError(GradflowError):
    """Malformed program text or expression. Carries a best-effort location."""

    def __init__(self, message: str, where: str | None = None):
        self.where = where
        super().__init__(message if where is None else f"{message} (at {where})")


class Diagnostic:
    """One validation finding: a stable code plus a human-readable message."""

    __slots__ = ("code", "message", "where")

    def __init__(self, code: str, message: str, where: str = ""):
        self.code = code
        self.message = message
        self.where = where

    def __repr__(self):
        loc = f" [{self.where}]" if self.where else ""
        return f"{self.code}: {self.message}{loc}"

    def __eq__(self, other):
        return (
            isinstance(other, Diagnostic)
            and (self.code, self.message, self.where)
            == (other.code, other.message, other.where)
        )


class ValidationFailed(GradflowError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(repr(d) for d in self.diagnostics)
        super().__init__(f"program failed validation: {lines}")


class UnboundName(GradflowError):
    """A name was referenced with no binding in scope."""


class DomainError(GradflowError):
    """Arithmetic outside an operation's domain (x/0, log of non-positive, ...).

    Raised eagerly; results are never a silent NaN.
    """


class ShapeMismatch(GradflowError):
    """Concrete array shapes incompatible with an operation."""


class OutOfBounds(GradflowError):
    """A subset expression evaluated outside the array's extent."""


class NonTermination(GradflowError):
    """A loop header never ends: it repeats an iterate, or yields more than
    ``ir.TRIP_LIMIT`` (10**9) of them."""


class MissingTapeValue(GradflowError):
    """The backward pass needed a recorded value the tape does not hold."""


class UnresolvableTripCount(GradflowError):
    """A trip count was required statically but parameters were missing."""

    exit_code, kind = 3, "unsupported"


class DependentUnreachable(GradflowError):
    """The dependent variable is never written; its gradient slice is empty."""


class UnsupportedLoop(GradflowError):
    """Loop shape outside the supported reversal classes."""

    exit_code, kind = 3, "unsupported"


class UnsupportedConstruct(GradflowError):
    """A recognized construct this implementation deliberately rejects."""

    exit_code, kind = 3, "unsupported"


class NoFixpoint(GradflowError):
    """Loop tracking analysis failed to stabilize within its bound."""

    exit_code, kind = 3, "unsupported"


class IrrecomputableValue(GradflowError):
    """A forwarded value cannot be rebuilt from program inputs (forced store)."""


class PathExplosion(GradflowError):
    """Control-flow path enumeration exceeded the 2**16 cap."""

    exit_code, kind = 3, "unsupported"


class Infeasible(GradflowError):
    """No store/recompute assignment satisfies the memory limit.
    ``min_peak_bytes`` is the least peak any plan reaches when ``exact``,
    otherwise only a lower bound on it."""

    exit_code, kind = 4, "infeasible"

    def __init__(self, message: str, min_peak_bytes: int | None = None, exact: bool = True):
        self.min_peak_bytes = min_peak_bytes
        self.exact = exact
        super().__init__(message)


class NegativeResident(GradflowError):
    """A memory timeline went below zero: the event model is inconsistent."""


class NonDifferentiableOp(UserWarning):
    """Almost-everywhere derivative convention applied (abs/min/max/mod/...)."""


class BatchDivergence(GradflowError):
    """A branch condition disagreed across the transparent batch axis."""

    exit_code, kind = 3, "unsupported"
