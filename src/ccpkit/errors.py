"""Exception hierarchy shared across the toolkit.

Every error below derives from CcpError so callers can catch the family with
one clause. The CLI maps subclasses onto exit codes (see cli module).
"""


class CcpError(Exception):
    """Base class for all toolkit errors."""


class ParseError(CcpError):
    """Instance document is not valid JSON or misses required keys."""


class ValidationError(CcpError):
    """Instance data violates a model invariant; message names the field."""


class UnsupportedSet(CcpError):
    """Operation asked to handle a feasible-set variant it does not support."""


class NoConvergence(CcpError):
    """Iterative routine failed to meet its tolerance within its budget.

    The best iterate reached is carried in ``best`` when available.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class CycleGuardTripped(CcpError):
    """Simplex iteration cap hit; signals a degeneracy bug, never silent."""


class BadStart(CcpError):
    """Start point cannot be projected into the working feasible set."""


class NonFinite(CcpError):
    """Objective or iterate became NaN/inf; signals bad data scaling."""


class BackendUnavailable(CcpError):
    """No backend can solve the requested problem/weight combination."""


class NoFeasibleT(CcpError):
    """No budget up to the cap yields a chance-feasible lower-level point."""


class Infeasible(CcpError):
    """The optimization problem itself has no feasible point."""


class CapExceeded(CcpError):
    """Enumeration size exceeds the configured cap."""


class ModeMismatch(CcpError):
    """Robustification mode incompatible with the norm or constraint model."""


class DomainError(CcpError):
    """Scalar function evaluated outside its domain."""


class NormMismatch(CcpError):
    """Operation requires a specific norm and got a different one."""
