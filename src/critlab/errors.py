"""Exception types raised by critlab solvers and utilities.

Bad input, such as an argument outside the paper's hypotheses or a
solver's range, raises ValueError; the CLI also raises ConfigError for a
config it cannot use.  Every other CritlabError is a solver or I/O outcome.
"""


class CritlabError(Exception):
    """Base class for all critlab errors."""


class ConfigError(CritlabError):
    """Invalid run configuration (unknown key, out-of-range value)."""


class BracketFailure(CritlabError):
    """No sign change of the shooting discriminant over the amplitude range."""


class SingularStartup(CritlabError):
    """Startup radius from (N, b), or the integrands near it, leave double
    precision (b too close to 2); there is no setting to change."""


class TailUnresolved(CritlabError):
    """Exponential tail contributes more than the requested accuracy (a moment's
    truncated tail, or the term the ground state's linear tail drops)."""


class IterationStall(CritlabError):
    """Inverse iteration failed to converge within max_iters."""


class MassViolation(CritlabError):
    """A solver result lost the unit-mass constraint."""


class NotConverged(CritlabError):
    """Gradient flow hit max_iters before reaching tolerance.

    Carries the partial result (if any) on the ``partial`` attribute.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NonPositive(CritlabError):
    """Flow iterate lost positivity even at the minimum time step."""


class IoFailure(CritlabError):
    """Filesystem error while writing a run archive."""
