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
is exactly 1/Z_V: the physical mass is found by steps in delta = m_N + mu - m to the root
of a one-pole model of I1 fitted to I1 and I2, on one quadrature level, refined only to pick
it and to confirm the root, and Z_V comes from the confirming pass's I2 at the reported m_V.

The solve runs on the model in units of mu and keeps no state: each refined pass is
one call to :func:`leemodel.quadrature._moment_pass`, which keeps the last few, so a g0
sweep with g0^2/(2 pi)^3 <= 1 shares its opening pass at m_V0; :func:`full_reports` solves
its points in lockstep, each round's held steps on one level evaluated as one grid.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Generator, Sequence
from dataclasses import dataclass

from .core import BareCoupling, ModelParams, Regime, RenCoupling, _ensure_coupling
from .errors import (DegenerateModel, GhostRegime, LeeModelError, NoBoundState, NoConvergence,
                     StabilityViolation)
from .quadrature import (LEAST_DELTA, QuadSpec, _moment_pass, _moments_on, mass_shift_integral,
                         spectral_moments, z_factor_integral)

TWO_PI_CUBED = (2.0 * math.pi) ** 3

# steps before the physical-mass solve gives up
NEWTON_CAP = 100
GRID_CELLS = 2 ** 16  # the most nodes, rows x level nodes, in one grid of held steps
ROOT_TOL = 1e-12    # see _newton
REGIME_TOL = 1e-12  # see classify_regime

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
    """Self-energy shift delta m_V = (g0^2/(2 pi)^3) I1(m_V); always <= 0.  ValueError unless
    g0 is nonnegative with a finite square, as :class:`BareCoupling` requires."""
    _ensure_coupling("bare coupling g0", g0)
    return g0 * g0 / TWO_PI_CUBED * mass_shift_integral(m_v, params, spec)


def _newton(params: ModelParams, bare: BareCoupling, spec: QuadSpec
            ) -> Generator[tuple[tuple, float], tuple[float, float], tuple[float, float] | None]:
    """Root m_V of F = delta0 - delta - c I1, c = g0^2/(2 pi)^3, and s = c I2(m_V), held in
    delta = m_N + mu - m, delta0 = m_N + mu - m_V0, on the model in units of mu.

    On a level |I1| = sum rho / (delta + q), so 1/|I1| is concave in delta; a step goes to
    the root of the model that puts c |I1| in one pole fitted to I1 and I2 at delta (Bunch,
    Nielsen & Sorensen, Numer. Math. 31 (1978) 31), which never overestimates it.  So steps
    from below the root's delta rise monotonically onto it, however many octaves away.  Every
    solve starts below its root: at delta0, or where that lies closer to the threshold or
    past it, at the least delta that both a pass (LEAST_DELTA, below which 1/delta^2 leaves
    the float range) and a mass below the threshold (the last float below it) resolve.  F >=
    0 at delta0; where F < 0 at the other start, the root lies closer to the threshold, if
    anywhere: F(threshold) <= 0 means no bound state, and otherwise StabilityViolation names
    the bound that hides it.  A refined pass runs at the delta of the mass a stop there
    reports (m = thr - delta, then delta = thr - m).  The solve maps its root back once
    (ModelParams._bare_in_units_of_mu); its passes (kept, :func:`_moment_pass`) refine I1 and
    I2 to abs_tol / max(1, c), since F and s take c times their error.  Steps after a refined
    pass run on its level; one that settles there is refined again at the same delta.  A
    step settles when it moves delta by at most ROOT_TOL * min(delta, max(1, |m|)), relative
    to delta so that delta, Z and x keep their accuracy near the threshold, or by at most 4
    ulp(m) + 8 eps (|delta0 - delta| + |c I1|) / (1 + s), the rounding floor of F; where c >
    1, F can be 1/Z times that step, so the root is the settled step taken, and s is taken
    from a pass at it.  None means no bound state.  An F that overflows, or at the root
    reported an s that overflows or a mass past the caller's float range, raises
    StabilityViolation.  A generator: each held step yields (level, delta) and is sent (I1,
    I2) there, so that :func:`_lockstep` evaluates the held steps of many solves at once.
    """
    if bare.g0 == 0.0:
        return (bare.m_v0, 0.0) if bare.m_v0 < params.threshold else None
    unit, unit_bare, scale = params._bare_in_units_of_mu(bare)
    thr, ff = unit.threshold, params.form_factor
    d0 = thr - unit_bare.m_v0
    c = bare.g0 * bare.g0 / TWO_PI_CUBED
    if c > 1.0:
        spec = QuadSpec(max(spec.abs_tol / c, math.ulp(0.0)), spec.rel_tol)
    # delta0, or the least delta that a pass and a mass below the threshold resolve; F < 0
    # only at the latter, where the root, if any, lies closer to the threshold
    delta = max(d0, LEAST_DELTA, thr - math.nextafter(thr, -math.inf))
    if delta > d0 and d0 - delta - c * _moment_pass(delta, unit, spec, (1, 2))[0][0] < 0.0:
        f_thr = d0 - c * _moment_pass(0.0, unit, spec, (1,))[0][0]
        if not math.isfinite(f_thr):
            raise _overflow(params, bare, params.threshold, f"F = {f_thr!r}")
        if f_thr <= 0.0:
            return None
        raise StabilityViolation(
            f"the mass root of the {ff.kind} form factor for m_V0 = {bare.m_v0!r}, g0 = "
            f"{bare.g0!r} lies " + (
                f"below delta = {delta / unit.mu!r} mu from the threshold {params.threshold!r}, "
                f"where 1/delta^2 leaves the float range" if delta == LEAST_DELTA else
                f"within rounding of the threshold {params.threshold!r} (F(threshold) = "
                f"{f_thr / scale!r}): no float below it resolves the root"))
    level = None
    for _ in range(NEWTON_CAP):
        held = level
        if held is None:
            delta = thr - (thr - delta)  # the delta of the mass a stop here reports
            (i1, i2), level = _moment_pass(delta, unit, spec, (1, 2))
        else:
            i1, i2 = yield held, delta
        f, s, m = d0 - delta - c * i1, c * i2, thr - delta
        if not math.isfinite(f):
            raise _overflow(params, bare, m / scale, f"F = {f / scale!r}, c I2 = {s!r}")
        # the root of r h^2 + (1 - d r) h - f, d = delta0 - delta, for the pole fitted at
        # delta: d r = (d / delta) (delta I2 / |I1|), the second factor in (0, 1), and r a = s,
        # its square root taken as sqrt(c) sqrt(I2) where s overflows (only the root's may not)
        e = 0.5 + 0.5 * (d0 - delta) / delta * (delta * i2 / -i1 if i1 < 0.0 else 0.0)
        if e > -math.inf:
            step = f / (1.0 - e + math.hypot(
                e, math.sqrt(s) if s < math.inf else math.sqrt(c) * math.sqrt(i2)))
        else:  # d r past the float range, where the step is f / |d r| to rounding
            step = f / (delta - d0) * (-i1 / i2)
        # relative to delta, down to the rounding floor below which F cannot
        # resolve a step (formed only when the relative test fails)
        if (abs(step) <= ROOT_TOL * min(delta, max(1.0, abs(m)))
                or abs(step) <= 4.0 * math.ulp(m)
                + 8.0 * _EPS * (abs(d0 - delta) + abs(c * i1)) / (1.0 + s)):
            if held is None:
                if c > 1.0 and m - step < thr:  # s from a pass at the mass reported
                    m -= step
                    s = c * _moment_pass(thr - m, unit, spec, (1, 2))[0][1]
                if not (s < math.inf and math.isfinite(m / scale)):
                    raise _overflow(params, bare, m / scale,
                                    f"root m = {m!r} in units of mu, c I2 = {s!r}")
                return m / scale, s
            level = None
            continue
        delta += step
    raise NoConvergence(
        f"Newton solve on moments (1, 2) of the {ff.kind} form factor (Lambda = "
        f"{ff.lam!r}, m_V0 = {bare.m_v0!r}, g0 = {bare.g0!r}) stopped after {NEWTON_CAP} "
        f"steps at m = {(thr - delta) / scale!r}, delta = {delta / scale!r} (last step "
        f"changed m by {step / scale:.3e})")


def _overflow(params: ModelParams, bare: BareCoupling, m: float,
              values: str) -> StabilityViolation:
    ff = params.form_factor
    return StabilityViolation(
        f"g0 = {bare.g0!r} (m_V0 = {bare.m_v0!r}) overflows the mass residual "
        f"F(m) = m - m_V0 - (g0^2/(2 pi)^3) I1(m) of the {ff.kind} form factor "
        f"(Lambda = {ff.lam!r}) at m = {m!r}: {values}; F, (g0^2/(2 pi)^3) I2 and "
        f"the root must stay finite")


def _lockstep(solves: Sequence[Generator]) -> list:
    """What each generator of held steps (:func:`_newton`) returns or the LeeModelError it raises,
    run in lockstep: each round evaluates the steps held on one level as one grid of rows."""
    outcomes, sends = [None] * len(solves), [(i, solve, None) for i, solve in enumerate(solves)]
    while sends:
        groups: dict = {}  # id(level): (level, [(index, solve, delta), ...])
        for i, solve, moments in sends:
            try:
                level, delta = solve.send(moments)
                groups.setdefault(id(level), (level, []))[1].append((i, solve, delta))
            except StopIteration as done:
                outcomes[i] = done.value
            except LeeModelError as exc:
                outcomes[i] = exc
        sends = []
        for level, group in groups.values():
            rows = max(1, GRID_CELLS // level[0].size)
            for part in (group[lo:lo + rows] for lo in range(0, len(group), rows)):
                moments = _moments_on(level, [delta for _, _, delta in part], (1, 2))
                sends += [(i, solve, values) for (i, solve, _), values in zip(part, moments)]
    return outcomes


def solve_physical_mass(params: ModelParams, bare: BareCoupling,
                        spec: QuadSpec) -> float | None:
    """Physical V mass: the root of F(m) = m - m_V0 - mass_shift(m) below threshold.

    F is strictly increasing, so the root is unique when it exists; one-pole steps rise onto it
    from below to ROOT_TOL (:func:`_newton`).  None means F(threshold) <= 0, the V state gone
    into the continuum; a root nearer the threshold than the start raises StabilityViolation.
    """
    solved = _lockstep([_newton(params, bare, spec)])[0]
    if isinstance(solved, LeeModelError):
        raise solved
    return None if solved is None else solved[0]


def z_from_bare(params: ModelParams, g0: float, m_v: float, spec: QuadSpec) -> float:
    """Overlap probability of the dressed V with the bare V, from bare data.

    1 / (1 + (g0^2/(2 pi)^3) I2(m_V)); always in (0, 1], equal to 1 only in
    the free theory, and strictly decreasing in g0.  g0 as for :func:`mass_shift`.
    """
    _ensure_coupling("bare coupling g0", g0)
    return 1.0 / (1.0 + g0 * g0 / TWO_PI_CUBED * z_factor_integral(m_v, params, spec))


def renormalize_coupling(g0: float, z: float) -> float:
    """Renormalized coupling g = sqrt(z) * g0, for z positive and finite and g0 as for
    :func:`mass_shift`."""
    _ensure_coupling("bare coupling g0", g0)
    if not 0.0 < z < math.inf:
        raise ValueError("wavefunction renormalization z must be positive and finite")
    return math.sqrt(z) * g0


def dressing_strength(params: ModelParams, g: float, m_v: float, spec: QuadSpec) -> float:
    """Dimensionless strength x = (g^2/(2 pi)^3) I2(m_V) from renormalized data.

    x < 1 is the normal regime; x > 1 is the ghost regime where the standard
    presentation of Z_V turns negative.  ValueError unless g is nonnegative with a finite
    square, as :class:`RenCoupling` requires.
    """
    _ensure_coupling("renormalized coupling g", g)
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

    Uses the closed form (x^(n+1) - 1)/(x - 1), written inside |x - 1| <= 1e-8,
    where it loses precision, as expm1((n+1) log1p(x - 1))/(x - 1), x - 1 exact.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if x < 0.0:
        raise ValueError("ratio x must be nonnegative")
    try:
        if x == 1.0:
            return float(n + 1)
        if abs(x - 1.0) <= 1e-8:
            return math.expm1((n + 1) * math.log1p(x - 1.0)) / (x - 1.0)
        return (x ** (n + 1) - 1.0) / (x - 1.0)
    except OverflowError:  # x^(n+1), or n + 1 itself, is past the float range
        return math.inf if x >= 1.0 else 1.0 / (1.0 - x)


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
        if not math.isfinite(delta_m):  # finite only where m_V0 and g0^2 are
            raise StabilityViolation(
                f"g = {ren.g!r} at m_V = {ren.m_v!r} gives x = {x!r}, whose bare side overflows: "
                f"g0^2 = {g0_sq!r}, m_V0 = {m_v0!r}, delta m = {delta_m!r}; g0^2 = g^2 / (1 - x), "
                f"m_V0 and delta m must stay finite")
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
    A renormalized g whose x, or in the Normal regime g0^2, m_V0 or delta m, overflows
    raises StabilityViolation.
    """
    if isinstance(coupling, RenCoupling):
        return _from_renormalized(params, coupling, spec)
    if not isinstance(coupling, BareCoupling):
        raise TypeError(f"expected BareCoupling or RenCoupling, got {type(coupling).__name__}")
    return _bare_report(params, coupling, _lockstep([_newton(params, coupling, spec)])[0])


def _bare_report(params: ModelParams, bare: BareCoupling, solved) -> RenormReport:
    """The report of :func:`_newton`'s outcome at a bare coupling, whose error it raises."""
    if isinstance(solved, LeeModelError):
        raise solved
    if solved is None:
        raise NoBoundState(
            f"no V eigenvalue below the threshold {params.threshold!r} for "
            f"m_V0 = {bare.m_v0!r}, g0 = {bare.g0!r}")
    m_v, s = solved
    z = 1.0 / (1.0 + s)
    return RenormReport(
        m_v=m_v, m_v0=bare.m_v0, delta_m=m_v - bare.m_v0,
        g0_sq=bare.g0 * bare.g0, g_sq=z * bare.g0 * bare.g0,
        x=z * s, z_standard=z, z_regularized=max(z, 0.0),
        regime=classify_regime(z * s),
    )


def full_reports(params: ModelParams, couplings: Sequence[BareCoupling | RenCoupling],
                 spec: QuadSpec) -> list[RenormReport | LeeModelError]:
    """:func:`full_report`'s report, or the LeeModelError it raises, at each coupling of one
    model; the bare couplings' mass solves run in lockstep (:func:`_lockstep`), bit for bit."""
    bare = [coupling for coupling in couplings if isinstance(coupling, BareCoupling)]
    solved = iter(_lockstep([_newton(params, coupling, spec) for coupling in bare]))
    reports: list = []
    for coupling in couplings:
        try:
            reports.append(_bare_report(params, coupling, next(solved))
                           if isinstance(coupling, BareCoupling)
                           else full_report(params, coupling, spec))
        except LeeModelError as exc:
            reports.append(exc)
    return reports
