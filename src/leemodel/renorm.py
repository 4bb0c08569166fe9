"""Mass and wavefunction renormalization of the V particle, and the ghost regime.

Writing I1(m) and I2(m) for the two radial integrals (mass_shift_integral and
z_factor_integral in :mod:`leemodel.quadrature`), the one-V sector is governed
by four relations:

    m_V   = m_V0 + (g0^2/(2 pi)^3) I1(m_V)          physical-mass condition
    1/Z_V = 1 + (g0^2/(2 pi)^3) I2(m_V)             bare presentation, Z in (0, 1]
    g^2   = Z_V g0^2                                 coupling renormalization
    Z_V   = 1 - x,  x = (g^2/(2 pi)^3) I2(m_V)      renormalized presentation

The two presentations of Z_V agree identically for any bare input.  Trouble
starts when one *fixes* the renormalized pair (m_V, g): for x > 1 the second
presentation goes negative, which a probability cannot do: the ghost.  The
regularized reading expands 1/(1-x) as the geometric series 1 + x + x^2 + ...;
for x > 1 the series diverges, the inverse weight is infinite, and the bare-V
probability is assigned 0 instead of a negative number.  Both values are
reported side by side: ``z_standard`` (1 - x, possibly negative) and
``z_regularized`` (max(1 - x, 0)).

Since I2 = -dI1/dm, the slope of the mass residual m - m_V0 - (g0^2/(2 pi)^3) I1(m)
is exactly 1/Z_V: the physical mass is found by Newton steps on one quadrature
level, refined only to pick it and to confirm the root, and Z_V comes from the
confirming pass's I2.

The module's one piece of state is the solve's opening pass, at m_V0 or at
the threshold: it does not depend on g0, so the last OPENING_PASSES_KEPT of
them, each its moments and the read-only (q, rho) arrays of its level, are
kept (:func:`_opening_pass`) and the points of a g0 sweep share one.  A miss
recomputes it bit for bit, so nothing kept shows in a result.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .core import BareCoupling, ModelParams, Regime, RenCoupling
from .errors import DegenerateModel, GhostRegime, NoBoundState, NoConvergence, StabilityViolation
from .quadrature import (QuadSpec, _moment_pass, _moments_on, mass_shift_integral,
                         spectral_moments, z_factor_integral)

TWO_PI_CUBED = (2.0 * math.pi) ** 3

# Newton steps before the physical-mass solve gives up
NEWTON_CAP = 100
ROOT_TOL = 1e-12    # see solve_physical_mass
REGIME_TOL = 1e-12  # see classify_regime
# Opening passes kept, one per (model, tolerances, start point, orders): a g0
# sweep shares one, and a handful lets a few models used in turn keep theirs.
OPENING_PASSES_KEPT = 8

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class RenormReport:
    """Joint result of the renormalization chain at one parameter point.

    ``m_v0``, ``delta_m`` and ``g0_sq`` are None when the point was specified
    by renormalized quantities outside the Normal regime, where no real bare
    theory exists.  ``x`` is the dimensionless dressing strength
    (g^2/(2 pi)^3) I2(m_V) controlling the regime.
    """

    m_v: float
    m_v0: float | None
    delta_m: float | None
    g0_sq: float | None
    g_sq: float
    x: float
    z_standard: float
    z_regularized: float
    regime: Regime


def mass_shift(params: ModelParams, g0: float, m_v: float, spec: QuadSpec) -> float:
    """Self-energy shift delta m_V = (g0^2/(2 pi)^3) I1(m_V); always <= 0."""
    return g0 * g0 / TWO_PI_CUBED * mass_shift_integral(m_v, params, spec)


@functools.lru_cache(maxsize=OPENING_PASSES_KEPT)
def _opening_pass(m: float, params: ModelParams, spec: QuadSpec,
                  orders: tuple[int, ...]) -> tuple[tuple[float, ...], tuple]:
    """:func:`_moment_pass` at a solve's start, m_V0 or the threshold; errors are not kept."""
    return _moment_pass(m, params, spec, orders)


def _newton(params: ModelParams, bare: BareCoupling,
            spec: QuadSpec) -> tuple[float, float] | None:
    """Root m_V of F(m) = m - m_V0 - c I1(m), c = g0^2/(2 pi)^3, and s = c I2(m_V).

    F' = 1 + c I2 >= 1 and F is convex, so Newton steps from right of the root
    fall monotonically onto it; below the threshold they start at m_V0, where
    F >= 0.  At or above it a bound state exists iff F(threshold) > 0; the
    start threshold - F(threshold) lies left of the root, and a step that
    would reach the threshold takes the chord to (threshold, F(threshold)) or
    the midpoint of m and the threshold, whichever lies further right, so that
    delta at least halves instead of creeping along the chord.
    Steps after a refined pass run on its level; one that settles there is refined
    again at the same m; the opening pass is kept (:func:`_opening_pass`).
    A step settles when it moves m by at most
    ROOT_TOL * min(delta, max(1, |m|)), relative to delta = threshold - m so
    that delta, and Z and x through it, keep their accuracy near the
    threshold; or by at most 4 ulp(m) + 8 eps (|m - m_V0| + |c I1|) / (1 + s),
    the rounding floor of F itself.  Returns None when there is no bound state.
    An F or s that overflows raises StabilityViolation: no step is taken, or
    accepted, on an infinite residual.
    """
    thr = params.threshold
    if bare.g0 == 0.0:
        return (bare.m_v0, 0.0) if bare.m_v0 < thr else None
    c = bare.g0 * bare.g0 / TWO_PI_CUBED
    f_thr = None
    m, refine = bare.m_v0, _opening_pass
    if m >= thr:
        f_thr = thr - bare.m_v0 - c * _opening_pass(thr, params, spec, (1,))[0][0]
        if not math.isfinite(f_thr):
            raise _overflow(params, bare, thr, f"F = {f_thr!r}")
        if f_thr <= 0.0:
            return None
        m, refine = thr - f_thr, _moment_pass
    level = None
    for _ in range(NEWTON_CAP):
        held = level
        if held is None:
            (i1, i2), level = refine(m, params, spec, (1, 2))
            refine = _moment_pass
        else:
            i1, i2 = _moments_on(held, thr - m, (1, 2))
        f = m - bare.m_v0 - c * i1
        s = c * i2
        if not (math.isfinite(f) and math.isfinite(s)):
            raise _overflow(params, bare, m, f"F = {f!r}, c I2 = {s!r}")
        step = f / (1.0 + s)
        # relative to delta, down to the rounding floor below which F cannot
        # resolve a step (formed only when the relative test fails)
        if (abs(step) <= ROOT_TOL * min(thr - m, max(1.0, abs(m)))
                or abs(step) <= 4.0 * math.ulp(m)
                + 8.0 * _EPS * (abs(m - bare.m_v0) + abs(c * i1)) / (1.0 + s)):
            if held is None:
                return m, s
            level = None
            continue
        nxt = m - step
        if nxt >= thr:  # only from left of the root, so f_thr is set
            nxt = max(m - f * (thr - m) / (f_thr - f), thr - 0.5 * (thr - m))
        m = nxt
    ff = params.form_factor
    raise NoConvergence(
        f"Newton solve on moments (1, 2) of the {ff.kind} form factor (Lambda = "
        f"{ff.lam!r}, m_V0 = {bare.m_v0!r}, g0 = {bare.g0!r}) stopped after {NEWTON_CAP} "
        f"steps at m = {m!r}, delta = {thr - m!r} (last step changed m by {step:.3e})")


def _overflow(params: ModelParams, bare: BareCoupling, m: float,
              values: str) -> StabilityViolation:
    ff = params.form_factor
    return StabilityViolation(
        f"g0 = {bare.g0!r} (m_V0 = {bare.m_v0!r}) overflows the mass residual "
        f"F(m) = m - m_V0 - (g0^2/(2 pi)^3) I1(m) of the {ff.kind} form factor "
        f"(Lambda = {ff.lam!r}) at m = {m!r}: {values}; F and "
        f"(g0^2/(2 pi)^3) I2 must stay finite")


def solve_physical_mass(params: ModelParams, bare: BareCoupling,
                        spec: QuadSpec) -> float | None:
    """Physical V mass: the root of F(m) = m - m_V0 - mass_shift(m) below threshold.

    F is strictly increasing, so the root is unique when it exists; Newton
    steps stop once a refined one moves m by at most
    ROOT_TOL * min(delta, max(1, |m|)), delta = m_N + mu - m, or by no more
    than rounding in F allows (see :func:`_newton`); None means
    F(threshold) <= 0: the V state has dissolved into the continuum.
    """
    solved = _newton(params, bare, spec)
    return None if solved is None else solved[0]


def z_from_bare(params: ModelParams, g0: float, m_v: float, spec: QuadSpec) -> float:
    """Overlap probability of the dressed V with the bare V, from bare data.

    1 / (1 + (g0^2/(2 pi)^3) I2(m_V)); always in (0, 1], equal to 1 only in
    the free theory, and strictly decreasing in g0.
    """
    return 1.0 / (1.0 + g0 * g0 / TWO_PI_CUBED * z_factor_integral(m_v, params, spec))


def renormalize_coupling(g0: float, z: float) -> float:
    """Renormalized coupling g = sqrt(z) * g0."""
    if z <= 0.0:
        raise ValueError("wavefunction renormalization z must be positive")
    return math.sqrt(z) * g0


def dressing_strength(params: ModelParams, g: float, m_v: float, spec: QuadSpec) -> float:
    """Dimensionless strength x = (g^2/(2 pi)^3) I2(m_V) from renormalized data.

    x < 1 is the normal regime; x > 1 is the ghost regime where the standard
    presentation of Z_V turns negative.
    """
    return g * g / TWO_PI_CUBED * z_factor_integral(m_v, params, spec)


def standard_z(x: float) -> float:
    """Standard presentation Z_V = 1 - x; negative for x > 1 (the ghost value)."""
    if x < 0.0:
        raise ValueError("dressing strength x must be nonnegative")
    return 1.0 - x


def regularized_z(x: float) -> float:
    """Divergent-series reading of Z_V: max(1 - x, 0).

    For x > 1 the inverse weight 1/(1-x) is read as the geometric series
    1 + x + x^2 + ..., which diverges; an infinite inverse weight means zero
    probability, so Z_V is 0 rather than negative.  Continuous at x = 1.
    """
    if x < 0.0:
        raise ValueError("dressing strength x must be nonnegative")
    return 1.0 - x if x < 1.0 else 0.0


def geometric_partial_sum(x: float, n: int) -> float:
    """Partial sum 1 + x + ... + x^n; saturates to inf instead of overflowing.

    Uses the closed form (x^(n+1) - 1)/(x - 1) away from x = 1 and direct
    summation inside |x - 1| <= 1e-8 where the closed form loses precision.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if x < 0.0:
        raise ValueError("ratio x must be nonnegative")
    if x == 1.0:
        return float(n + 1)
    if abs(x - 1.0) <= 1e-8:
        return math.fsum(x ** j for j in range(n + 1))
    if x > 1.0 and (n + 1) * math.log(x) > _LOG_FLOAT_MAX:
        return math.inf
    return (x ** (n + 1) - 1.0) / (x - 1.0)


def classify_regime(x: float) -> Regime:
    """Normal / Critical / Ghost by position of x relative to 1.

    A band of half-width REGIME_TOL around x = 1 absorbs roundoff:
    Critical iff |x - 1| <= REGIME_TOL, Ghost iff x > 1 + REGIME_TOL.
    """
    if x < 0.0:
        raise ValueError("dressing strength x must be nonnegative")
    if abs(x - 1.0) <= REGIME_TOL:
        return Regime.CRITICAL
    if x > 1.0:
        return Regime.GHOST
    return Regime.NORMAL


def critical_coupling(params: ModelParams, m_v: float, spec: QuadSpec) -> float:
    """Renormalized coupling at which x = 1 and both Z presentations vanish."""
    integral = z_factor_integral(m_v, params, spec)
    if integral <= 0.0:
        raise DegenerateModel(
            "the form factor vanishes on the whole momentum range; "
            "every coupling is trivially sub-critical"
        )
    return math.sqrt(TWO_PI_CUBED / integral)


def _from_renormalized(params: ModelParams, ren: RenCoupling, spec: QuadSpec) -> RenormReport:
    """Report of a renormalized point from one moment pass at m_V; the
    bare-side fields exist iff the regime is Normal, where g0^2 = g^2 / (1 - x)."""
    i1, i2 = spectral_moments(ren.m_v, params, spec)
    g_sq = ren.g * ren.g
    x = g_sq / TWO_PI_CUBED * i2
    if not math.isfinite(x):  # g^2 is finite, but a large I2 can still overflow x
        raise StabilityViolation(
            f"g = {ren.g!r} at m_V = {ren.m_v!r} gives x = {x!r}; "
            f"the renormalized coupling must keep x finite")
    regime = classify_regime(x)
    m_v0 = delta_m = g0_sq = None
    if regime is Regime.NORMAL:
        g0_sq = g_sq / (1.0 - x)
        m_v0 = ren.m_v - g0_sq / TWO_PI_CUBED * i1
        delta_m = ren.m_v - m_v0
    return RenormReport(
        m_v=ren.m_v, m_v0=m_v0, delta_m=delta_m, g0_sq=g0_sq, g_sq=g_sq, x=x,
        z_standard=standard_z(x), z_regularized=regularized_z(x), regime=regime,
    )


def bare_from_renormalized(params: ModelParams, ren: RenCoupling,
                           spec: QuadSpec) -> BareCoupling:
    """Invert the renormalization maps: (m_V, g) -> (m_V0, g0).

    Only possible in the Normal regime: g0^2 = g^2 / (1 - x) needs x < 1, and
    classify_regime's Critical band around x = 1 counts as x = 1.  Outside
    the Normal regime no real bare coupling exists (the computational face of
    the ghost), and a GhostRegime error carrying the diagnostic report
    (in the Ghost regime z_standard < 0 and z_regularized = 0) is raised.
    """
    report = _from_renormalized(params, ren, spec)
    if report.g0_sq is None:
        raise GhostRegime(f"x = {report.x!r} is in the {report.regime.value} regime: no real "
                          f"bare coupling reproduces this renormalized point", report)
    return BareCoupling(m_v0=report.m_v0, g0=math.sqrt(report.g0_sq))


def full_report(params: ModelParams, coupling: "BareCoupling | RenCoupling",
                spec: QuadSpec) -> RenormReport:
    """Evaluate the whole renormalization chain at one parameter point.

    From a bare input the physical mass is solved first; s = (g0^2/(2 pi)^3) I2
    from its confirming pass gives Z_V = 1/(1 + s), g^2 = Z_V g0^2 and x = Z_V s, always
    in the normal regime.  From a renormalized input the strength decides the
    regime; outside the Normal regime (Critical or Ghost) the bare-side fields
    are absent (None) rather than an error, so ghost points remain reportable.
    A renormalized g whose x overflows raises StabilityViolation.
    """
    if isinstance(coupling, BareCoupling):
        solved = _newton(params, coupling, spec)
        if solved is None:
            raise NoBoundState(
                f"no V eigenvalue below the threshold {params.threshold!r} for "
                f"m_V0 = {coupling.m_v0!r}, g0 = {coupling.g0!r}")
        m_v, s = solved
        z = 1.0 / (1.0 + s)
        return RenormReport(
            m_v=m_v, m_v0=coupling.m_v0, delta_m=m_v - coupling.m_v0,
            g0_sq=coupling.g0 * coupling.g0, g_sq=z * coupling.g0 * coupling.g0,
            x=z * s, z_standard=z, z_regularized=max(z, 0.0),
            regime=classify_regime(z * s),
        )

    if isinstance(coupling, RenCoupling):
        return _from_renormalized(params, coupling, spec)

    raise TypeError(f"expected BareCoupling or RenCoupling, got {type(coupling).__name__}")
