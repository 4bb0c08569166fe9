"""Exception types shared across the package."""


class LeeModelError(Exception):
    """Base class for every error raised by this package."""


class StabilityViolation(LeeModelError, ValueError):
    """The requested V mass does not lie below the N+theta threshold.

    Energy denominators of the form (m_V - m_N - omega) must stay strictly
    negative; above the threshold m_N + mu they develop a pole and the
    bound-state formulas no longer apply.
    """


class NoConvergence(LeeModelError, RuntimeError):
    """An iterative scheme (quadrature refinement, the Newton solve for the
    physical mass, the secular root iteration) failed to reach its tolerance
    within the documented iteration cap."""


class DegenerateModel(LeeModelError, ValueError):
    """The model is degenerate: its form factor vanishes on the whole range, so
    no critical coupling exists, or an oracle grid's continuum energies
    m_N + omega_k coincide in floats (m_N = 1e102, say)."""


class PoleHit(LeeModelError, ValueError):
    """A secular-function evaluation landed on a continuum diagonal entry."""


class NoBoundState(LeeModelError, RuntimeError):
    """The bare parameters put no discrete eigenvalue below the threshold;
    the V particle dissolves into the N+theta continuum."""


class GhostRegime(LeeModelError, RuntimeError):
    """Raised when a renormalized point outside the Normal regime (Critical
    or Ghost) is mapped back to bare parameters: no real bare coupling
    reproduces it.

    Carries the diagnostic report (in the Ghost regime a negative standard Z
    and zero regularized Z) in the ``report`` attribute.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(LeeModelError, ValueError):
    """Invalid run configuration; ``field`` holds the offending field path."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason
