import dataclasses
import math
import random

import numpy as np
import pytest

import leemodel.renorm
from leemodel import (
    FORM_FACTOR_KINDS,
    TWO_PI_CUBED,
    BareCoupling,
    DegenerateModel,
    FormFactor,
    GhostRegime,
    LeeModelError,
    ModelParams,
    NoBoundState,
    NoConvergence,
    QuadSpec,
    Regime,
    RenCoupling,
    RenormReport,
    StabilityViolation,
    bare_from_renormalized,
    classify_regime,
    critical_coupling,
    dressing_strength,
    full_report,
    full_reports,
    geometric_partial_sum,
    mass_shift,
    norm_integral,
    regularized_z,
    renormalize_coupling,
    solve_physical_mass,
    spectral_moments,
    standard_z,
    z_from_bare,
)
from leemodel.quadrature import NODES_PER_PANEL, PANEL_CAP, _moment_pass

from helpers import (
    ACC_BARE,
    ALL_MODELS,
    BFR_G0,
    BFR_M_V0,
    G_CRIT_15,
    MASS_SHIFT_G1,
    M_V_FROM_MV0_18,
    SPEC,
    X_AT_G1,
    Z_BARE_G1,
    exponential_model,
    forget_kept_state,
    record_refined_passes,
    sharp_model,
    sharp_moments,
)

PARAMS = sharp_model()


# --- mass renormalization ----------------------------------------------------

def test_mass_shift():
    assert mass_shift(PARAMS, 0.0, 1.5, SPEC) == 0.0
    value = mass_shift(PARAMS, 1.0, 1.5, SPEC)
    assert math.isclose(value, MASS_SHIFT_G1, rel_tol=1e-11)
    assert value < 0.0
    # quadratic coupling dependence, exactly proportional
    assert math.isclose(mass_shift(PARAMS, 2.0, 1.5, SPEC), 4.0 * value,
                        rel_tol=1e-15)


def test_mass_shift_stability():
    with pytest.raises(StabilityViolation):
        mass_shift(PARAMS, 1.0, 2.0, SPEC)


def test_solve_free_theory():
    assert solve_physical_mass(PARAMS, BareCoupling(1.3, 0.0), SPEC) == 1.3
    assert solve_physical_mass(PARAMS, BareCoupling(2.5, 0.0), SPEC) is None


def test_solve_golden_and_residual():
    bare = BareCoupling(m_v0=1.8, g0=1.0)
    m_v = solve_physical_mass(PARAMS, bare, SPEC)
    assert math.isclose(m_v, M_V_FROM_MV0_18, rel_tol=1e-11)
    residual = m_v - bare.m_v0 - mass_shift(PARAMS, bare.g0, m_v, SPEC)
    assert abs(residual) < 1e-10


def test_solve_round_trip():
    g0 = 0.8
    m_v = 1.3
    m_v0 = m_v - mass_shift(PARAMS, g0, m_v, SPEC)
    recovered = solve_physical_mass(PARAMS, BareCoupling(m_v0, g0), SPEC)
    assert math.isclose(recovered, m_v, rel_tol=1e-11)


def test_solve_no_bound_state_with_weak_coupling():
    # bare mass above threshold, coupling too weak to pull a state below it
    assert solve_physical_mass(PARAMS, BareCoupling(2.5, 0.05), SPEC) is None


def test_solve_acceptance_model():
    m_v = solve_physical_mass(PARAMS, ACC_BARE, SPEC)
    assert math.isclose(m_v, 1.5, rel_tol=0, abs_tol=1e-10)


def test_solve_bound_state_close_to_threshold():
    # x = 1/4 at 1e-10 mu below threshold; the bare mass lies above threshold
    m_v = PARAMS.threshold - 1e-10
    g = 0.5 * critical_coupling(PARAMS, m_v, SPEC)
    bare = bare_from_renormalized(PARAMS, RenCoupling(m_v=m_v, g=g), SPEC)
    assert bare.m_v0 > PARAMS.threshold
    solved = solve_physical_mass(PARAMS, bare, SPEC)
    # the root tolerance is 1e-12 * max(1, |m|)
    assert abs(solved - m_v) <= 3e-12
    report = full_report(PARAMS, bare, SPEC)
    assert report.m_v == solved
    assert report.regime is Regime.NORMAL
    assert abs(report.z_standard - z_from_bare(PARAMS, bare.g0, solved, SPEC)) < 1e-12


@pytest.mark.parametrize("make", ALL_MODELS)
@pytest.mark.parametrize("lam", (10.0, 40.0))
@pytest.mark.parametrize("delta", (1e-10, 1e-12))
def test_round_trip_close_to_threshold_recovers_m_v(make, lam, delta):
    # x = 1/4 at delta below threshold, mapped to the bare pair and solved
    # back: the stop is relative to delta, so m_V, and delta with it, returns
    # to a few ulp where a stop at 1e-12 * max(1, |m|) left delta 67% off
    params = make(lam=lam)
    m_v = params.threshold - delta
    g = 0.5 * critical_coupling(params, m_v, SPEC)
    bare = bare_from_renormalized(params, RenCoupling(m_v=m_v, g=g), SPEC)
    report = full_report(params, bare, SPEC)
    assert report.regime is Regime.NORMAL
    assert abs(report.m_v - m_v) <= 4.0 * math.ulp(m_v)


def test_solve_bare_mass_just_below_threshold_at_large_cutoff():
    # the first Newton step needs I2 at m_V0, 1e-12 mu below threshold, where
    # the integrand lives on k ~ sqrt(2 mu delta) ~ 1.4e-6 of a range 1600
    params = exponential_model(lam=40.0)
    bare = BareCoupling(m_v0=PARAMS.threshold - 1e-12, g0=1.0)
    m_v = solve_physical_mass(params, bare, SPEC)
    assert math.isclose(m_v, 1.4974071787, rel_tol=1e-10)
    residual = m_v - bare.m_v0 - mass_shift(params, bare.g0, m_v, SPEC)
    assert abs(residual) <= 1e-12
    report = full_report(params, bare, SPEC)
    assert report.m_v == m_v and report.regime is Regime.NORMAL
    assert math.isclose(report.z_standard, z_from_bare(params, 1.0, m_v, SPEC), rel_tol=1e-12)


# relative only: the moments to 1e-13 of their value, whatever c multiplies them by
FINE = QuadSpec(abs_tol=1e-300, rel_tol=1e-13)


def _solve_spec(g0: float) -> QuadSpec:
    """The spec a bare solve at g0 refines its passes to: F and Z take c = g0^2/(2 pi)^3
    times I1 and I2, so abs_tol is divided by max(1, c)."""
    return QuadSpec(SPEC.abs_tol / max(1.0, g0 * g0 / TWO_PI_CUBED), SPEC.rel_tol)


@pytest.mark.parametrize("m_n, mu, kind, lam, m_v0, g0", (
    (1.0, 0.10715163212068368, "exponential", 0.1851229980542, 28.735000474474038,
     282031.17324425746),
    (0.0, 0.00021682346309802333, "sharp", 0.0004567533446216621, 0.05828898241851116,
     977.21444868813),
    (0.0, 59.374727282669824, "dipole", 75.95644987807825, 14325.741786711471,
     101585.5095819998),
), ids=("exponential", "sharp", "dipole"))
def test_solve_strong_coupling_from_above_threshold(m_n, mu, kind, lam, m_v0, g0):
    # m_V0 lies above the threshold and the root far below it; from a start past
    # the root every Newton step overshot the threshold, and the chord alone moved
    # delta only linearly and hit NEWTON_CAP.
    # The stop rule holds at the spec the solve used, and the residual on a
    # relative-only spec is within 1e-9 of c I1 (at SPEC's abs_tol, which c
    # multiplies, the exponential case was 7.3e-11 off; it is now 1.0e-15)
    params, bare = ModelParams(m_n, mu, FormFactor(kind, lam)), BareCoupling(m_v0, g0)
    report = full_report(params, bare, SPEC)
    assert report.m_v < params.threshold and 0.0 < report.z_standard < 1.0
    i1, i2 = spectral_moments(report.m_v, params, _solve_spec(g0))
    c = g0 * g0 / TWO_PI_CUBED
    step = (report.m_v - m_v0 - c * i1) / (1.0 + c * i2)
    assert abs(step) <= leemodel.renorm.ROOT_TOL * max(1.0, abs(report.m_v))
    (i1,) = spectral_moments(report.m_v, params, FINE, orders=(1,))
    assert abs(report.m_v - m_v0 - c * i1) <= 1e-9 * abs(c * i1)
    if kind == "sharp":  # and on the closed form, which shares no code with the pass
        i1 = sharp_moments(params.threshold - report.m_v, mu, lam)[0]
        assert abs(report.m_v - m_v0 - c * i1) <= 1e-9 * abs(c * i1)


@pytest.mark.parametrize("make", ALL_MODELS)
@pytest.mark.parametrize("m_v0", (1.8, 1.999, 2.2))
@pytest.mark.parametrize("g0", (1e8, 1e20, 1e50, 1e100, 1e150, 1.3e154))
def test_strong_coupling_solves_in_a_few_steps(monkeypatch, make, m_v0, g0):
    # the root lies about g0 below the threshold, many octaves of delta from
    # any start; tangent steps about doubled delta each, so g0 = 1e20 took
    # about 70 and g0 >= 1e30 hit NEWTON_CAP, where the one-pole step lands
    # within a few single-level evaluations.  The solve runs in units of mu, so
    # at mu = 2^-1000 and 2^400 the report is the mu = 1 one with its masses
    # scaled, bit for bit; in absolute units the first raised NoConvergence
    # from g0 = 1e40 and the second overflowed the residual from g0 = 1e100.
    # The residual is checked at the spec the solve used, and on a relative-only
    # spec within 1e-9 (at SPEC's abs_tol, which c multiplies, it was 3.4e-6), and
    # for the sharp family within 1e-9 on the closed form too.  At m_V0 = 1.999 and
    # g0 = 1.3e154, c I2 overflows at the start, and the solve was refused there
    # though m_V0 = 2 solves: c I2 must be finite only at the root it reports.
    # levels counts the rows of the held steps' grids, one per point and step
    levels = []
    moments_on = leemodel.renorm._moments_on
    monkeypatch.setattr(leemodel.renorm, "_moments_on",
                        lambda *args: levels.extend(args[1]) or moments_on(*args))
    params = make(10.0)
    report = full_report(params, BareCoupling(m_v0=m_v0, g0=g0), SPEC)
    assert len(levels) <= 8, levels
    assert report.m_v < params.threshold and 0.0 < report.z_standard < 1.0
    c = g0 * g0 / TWO_PI_CUBED
    (i1,) = spectral_moments(report.m_v, params, _solve_spec(g0), orders=(1,))
    assert abs(report.m_v - m_v0 - c * i1) <= 1e-12 * abs(c * i1)
    (i1,) = spectral_moments(report.m_v, params, FINE, orders=(1,))
    assert abs(report.m_v - m_v0 - c * i1) <= 1e-9 * abs(c * i1)
    if make is sharp_model:
        i1 = sharp_moments(params.threshold - report.m_v, params.mu, params.form_factor.lam)[0]
        assert abs(report.m_v - m_v0 - c * i1) <= 1e-9 * abs(c * i1)
    for mu in (2.0 ** -1000, 2.0 ** 400):
        levels.clear()
        scaled = ModelParams(m_n=mu, mu=mu, form_factor=FormFactor(params.form_factor.kind, 10.0 * mu))
        assert repr(full_report(scaled, BareCoupling(m_v0=m_v0 * mu, g0=g0), SPEC)) == repr(
            dataclasses.replace(report, m_v=report.m_v * mu, m_v0=report.m_v0 * mu,
                                delta_m=report.delta_m * mu)), mu
        assert len(levels) <= 8, (mu, levels)


@pytest.mark.parametrize("m_v0", (1.8, 2.2))
def test_strong_coupling_keeps_a_positive_abs_tol(m_v0):
    # the solve refines to abs_tol / c, which underflows to 0 at abs_tol = 1e-20
    # and g0 = 1e154, a spec QuadSpec refuses; it keeps the least positive float,
    # so its passes settle on rel_tol, and the root is a relative-only spec's
    params, g0 = exponential_model(), 1e154
    report = full_report(params, BareCoupling(m_v0=m_v0, g0=g0), QuadSpec(1e-20, 1e-10))
    c = g0 * g0 / TWO_PI_CUBED
    (i1,) = spectral_moments(report.m_v, params, FINE, orders=(1,))
    assert abs(report.m_v - m_v0 - c * i1) <= 1e-9 * abs(c * i1)


def test_root_within_rounding_of_the_threshold_names_its_context():
    # F(threshold) = 1e-12 > 0, but the root lies within the last ulp below
    # the threshold, where no float resolves it; at mu = 2^-600, every value
    # scaled, the message still names the caller's values
    m_v0, g0 = 2.3278524825099502, 1.0
    (i1,) = spectral_moments(PARAMS.threshold, PARAMS, SPEC, orders=(1,))
    f_thr = PARAMS.threshold - m_v0 - g0 * g0 / TWO_PI_CUBED * i1
    assert repr(f_thr).startswith("1.00014")
    for mu in (1.0, 2.0 ** -600):
        params = ModelParams(m_n=mu, mu=mu, form_factor=FormFactor.sharp(10.0 * mu))
        with pytest.raises(StabilityViolation) as err:
            full_report(params, BareCoupling(m_v0=m_v0 * mu, g0=g0), SPEC)
        message = str(err.value)
        for part in ("sharp", f"m_V0 = {m_v0 * mu!r}", "g0 = 1.0",
                     f"F(threshold) = {f_thr * mu!r}", f"within rounding of the threshold {2.0 * mu!r}"):
            assert part in message, (part, message)


@pytest.mark.parametrize("g0, delta", ((1.0, 0.26753), (1e-3, 3.2779e-7), (1e-9, 3.2785e-19)))
def test_bare_mass_closer_than_the_least_delta_solves(g0, delta):
    # m_V0 lies 1e-160 mu below the threshold, closer than the least delta a pass takes I2
    # at (2^-511 mu), and was refused there; the root lies far above, so the solve starts
    # at that bound.  The residual holds on a relative-only spec and on the closed form
    params = ModelParams(m_n=-1.0, mu=1.0, form_factor=FormFactor.sharp(10.0))
    bare = BareCoupling(m_v0=-1e-160, g0=g0)
    report = full_report(params, bare, SPEC)
    assert math.isclose(params.threshold - report.m_v, delta, rel_tol=1e-4)
    assert 0.0 < report.z_standard < 1.0
    c = g0 * g0 / TWO_PI_CUBED
    (i1,) = spectral_moments(report.m_v, params, FINE, orders=(1,))
    assert abs(report.m_v - bare.m_v0 - c * i1) <= 1e-9 * abs(c * i1)
    i1 = sharp_moments(params.threshold - report.m_v, 1.0, 10.0)[0]
    assert abs(report.m_v - bare.m_v0 - c * i1) <= 1e-9 * abs(c * i1)


def test_bare_root_closer_than_the_least_delta_is_refused():
    # at g0 = 1e-80 the root itself lies below 2^-511 mu, where 1/delta^2 leaves the float range
    params = ModelParams(m_n=-1.0, mu=1.0, form_factor=FormFactor.sharp(10.0))
    with pytest.raises(StabilityViolation) as err:
        full_report(params, BareCoupling(m_v0=-1e-160, g0=1e-80), SPEC)
    message = str(err.value)
    for part in ("sharp", "m_V0 = -1e-160", "g0 = 1e-80", f"delta = {2.0 ** -511!r} mu",
                 "float range"):
        assert part in message, (part, message)


@pytest.mark.parametrize("g0", (1e20, 1e60, 1e114))
def test_far_root_matches_its_closed_form(g0):
    # at m_N = -1e10 mu and m_V0 = threshold + mu the root lies about g0 below the
    # threshold, where delta^2 + delta = c I1 delta -> c I0, so delta = sqrt(c I0) (1 +
    # O(Lambda / delta)) with I0 = pi (K Lambda - mu^2 asinh(K / mu)), K = sqrt(Lambda^2 -
    # mu^2), and Z = x = 1/2; holding m, the overshoot guard rounded onto the threshold
    # and g0 = 1e114 was refused as a root within rounding of it
    lam = 300.0
    params = ModelParams(m_n=-1e10, mu=1.0, form_factor=FormFactor.sharp(lam))
    k = math.sqrt(lam * lam - 1.0)
    c = g0 * g0 / TWO_PI_CUBED
    delta = math.sqrt(c * math.pi * (k * lam - math.asinh(k)))
    report = full_report(params, BareCoupling(m_v0=params.threshold + 1.0, g0=g0), SPEC)
    assert math.isclose(params.threshold - report.m_v, delta, rel_tol=1e-14, abs_tol=0.0)
    assert abs(report.z_standard - 0.5) <= 1e-15 and abs(report.x - 0.5) <= 1e-15


def test_far_dipole_root_is_a_result():
    # the dipole at the same far threshold and g0 = 4.2e143 was refused the same way
    params = ModelParams(m_n=-1e10, mu=1.0, form_factor=FormFactor.dipole(8.0))
    m_v0, g0 = params.threshold + 1.0, 4.2e143
    report = full_report(params, BareCoupling(m_v0=m_v0, g0=g0), SPEC)
    c = g0 * g0 / TWO_PI_CUBED
    (i1,) = spectral_moments(report.m_v, params, FINE, orders=(1,))
    assert abs(report.m_v - m_v0 - c * i1) <= 1e-12 * abs(c * i1)


def test_settled_step_keeps_the_root_below_the_threshold():
    # the root lies 2.69e5 mu below the threshold, inside the last float below it
    # (8.07e7 mu away), and its Z is 0.501 on the closed form; started from above,
    # the solve settled on that float and reported Z = 0.99999 and x = 1.1e-5.
    # Every solve starts below its root, at that float at the latest, so this
    # root is refused as within rounding of the threshold
    mu = 1.3760925572983534e-24
    params = ModelParams(m_n=1.0, mu=mu, form_factor=FormFactor.sharp(2.293225019729352e-21))
    with pytest.raises(StabilityViolation, match="within rounding of the threshold 1.0"):
        full_report(params, BareCoupling(m_v0=1.0, g0=1438.2444684421982), SPEC)


@pytest.mark.parametrize("m_n", (-1.0, 1.0))
def test_start_far_below_the_root_from_far_above_the_threshold(m_n):
    # m_V0 = 1e155 mu above the threshold and the root 1226 mu below it.  At m_N = -mu
    # the start is LEAST_DELTA, and d r = (delta0 - delta) I2 / |I1|, formed as
    # (delta0 - delta) / delta times delta I2 / |I1|, overflows there: the step is
    # f / |d r| instead.  Started from above, the solve returned Z = 1 at both
    # thresholds, with a residual of 4.6e129 (m_N = -mu) and 0.99 (m_N = mu) times c |I1|
    params = ModelParams(m_n=m_n, mu=1.0, form_factor=FormFactor.dipole(10.0))
    m_v0, g0 = params.threshold + 1e155, 1e79
    report = full_report(params, BareCoupling(m_v0=m_v0, g0=g0), SPEC)
    c = g0 * g0 / TWO_PI_CUBED
    (i1,) = spectral_moments(report.m_v, params, FINE, orders=(1,))
    assert abs(report.m_v - m_v0 - c * i1) <= 1e-12 * abs(c * i1)
    assert math.isclose(params.threshold - report.m_v, 1225.8, rel_tol=1e-4)


@pytest.mark.parametrize("mu, form_factor, m_v0, g0", (
    (1.044119002012209e-14, FormFactor.sharp(7.936036094193958e-13),
     1.0000000000000107, 1404.1874257771178),
    (3.5915056231147165e-27, FormFactor.exponential(4.175825406018368e-24),
     1.0, 3200420316585.662),
))
def test_settled_step_takes_z_at_the_reported_mass(mu, form_factor, m_v0, g0):
    # where c > 1 the root is the settled step taken, here one that moves m at the
    # rounding floor; Z must be that of a pass at this m_V, not at the m before the step
    params = ModelParams(m_n=1.0, mu=mu, form_factor=form_factor)
    report = full_report(params, BareCoupling(m_v0=m_v0, g0=g0), SPEC)
    forget_kept_state()
    c = g0 * g0 / TWO_PI_CUBED
    solve_spec = QuadSpec(max(SPEC.abs_tol / c, math.ulp(0.0)), SPEC.rel_tol)
    (i2,) = spectral_moments(report.m_v, params, solve_spec, (2,))
    assert abs(report.z_standard * (1.0 + c * i2) - 1.0) <= 1e-12


def test_solve_iteration_cap_names_its_context(monkeypatch):
    monkeypatch.setattr(leemodel.renorm, "NEWTON_CAP", 1)
    with pytest.raises(NoConvergence) as err:
        solve_physical_mass(PARAMS, BareCoupling(m_v0=1.8, g0=1.0), SPEC)
    message = str(err.value)
    for part in ("moments (1, 2)", "sharp", "Lambda = 10.0", "m = ", "delta = ",
                 "after 1 steps", "last step changed m by"):
        assert part in message, (part, message)


@pytest.mark.parametrize("make", ALL_MODELS)
@pytest.mark.parametrize("lam", (1.5, 10.0, 40.0))
@pytest.mark.parametrize("m_v0", (1.5, 2.0 - 1e-6, 2.01))
def test_bare_solve_is_confirmed_by_a_fresh_pass(make, lam, m_v0):
    # the steps between refinements run on a held rule; the returned root and
    # Z must still be those of a fully refined pass at m_V
    params, bare = make(lam), BareCoupling(m_v0=m_v0, g0=3.0)
    report = full_report(params, bare, SPEC)
    forget_kept_state()
    i1, i2 = spectral_moments(report.m_v, params, SPEC)
    c = bare.g0 * bare.g0 / TWO_PI_CUBED
    step = (report.m_v - bare.m_v0 - c * i1) / (1.0 + c * i2)
    assert abs(step) <= leemodel.renorm.ROOT_TOL * max(1.0, abs(report.m_v))
    assert report.z_standard == 1.0 / (1.0 + c * i2)


def test_bare_sweep_refines_once_per_point(monkeypatch):
    # the opening pass at m_V0, which picks the rule, is kept and shared by
    # the sweep, and each point refines once more to confirm its root; a pass
    # at every Newton step made 5.6 per point on this sweep, and an unshared
    # opening pass about 2
    deltas = record_refined_passes(monkeypatch)
    params = exponential_model()
    g0s = np.linspace(0.0, 3.0, 24)[1:]
    for g0 in g0s:
        full_report(params, BareCoupling(m_v0=2.0 - 1e-3, g0=float(g0)), SPEC)
    assert len(deltas) <= len(g0s) + 1, len(deltas)
    assert deltas.count(params.threshold - (2.0 - 1e-3)) == 1, deltas


def test_g_sweep_refines_once(monkeypatch):
    # every point of a renormalized g sweep takes its moments at the same m_V
    deltas = record_refined_passes(monkeypatch)
    params = exponential_model()
    reports = [full_report(params, RenCoupling(m_v=1.9, g=float(g)), SPEC)
               for g in np.linspace(0.0, 8.0, 24)]
    assert {r.regime for r in reports} == {Regime.NORMAL, Regime.GHOST}
    assert len(deltas) == 1, deltas


@pytest.mark.parametrize("make", ALL_MODELS)
@pytest.mark.parametrize("m_v0", (1.9, 2.0 - 1e-6, 2.02))
def test_kept_opening_pass_never_changes_a_result(make, m_v0):
    # a sweep over g0, which reads the kept opening pass from its second point
    # on, must return the very bits of points solved one by one with nothing
    # kept; m_V0 = 2.02 starts above the threshold, where the kept pass is F's
    # (a g sweep: test_kept_pass_never_changes_a_g_sweep)
    params = make()
    g0s = [float(g0) for g0 in np.linspace(0.0, 3.0, 12)]

    def report_or_error(g0):
        try:
            return full_report(params, BareCoupling(m_v0=m_v0, g0=g0), SPEC)
        except LeeModelError as exc:
            return type(exc).__name__, str(exc)

    forget_kept_state()
    swept = [report_or_error(g0) for g0 in g0s]
    assert _moment_pass.cache_info().hits >= len(g0s) - 2
    cold = []
    for g0 in g0s:
        forget_kept_state()
        cold.append(report_or_error(g0))
    assert repr(swept) == repr(cold)  # bit for bit: repr tells -0.0 from 0.0
    assert sum(isinstance(r, RenormReport) for r in swept) > len(g0s) // 2


@pytest.mark.parametrize("make", ALL_MODELS)
@pytest.mark.parametrize("m_v", (1.9, 2.0 - 1e-6))
def test_kept_pass_never_changes_a_g_sweep(make, m_v):
    # the points of a g sweep, which read the pass at m_V kept by the first,
    # must return the very bits of points taken one by one with nothing kept,
    # on both sides of x = 1
    params = make()
    gs = [float(g) for g in np.linspace(0.0, 1.6 * critical_coupling(params, m_v, SPEC), 12)]
    forget_kept_state()
    swept = [full_report(params, RenCoupling(m_v=m_v, g=g), SPEC) for g in gs]
    assert _moment_pass.cache_info().hits == len(gs) - 1
    cold = []
    for g in gs:
        forget_kept_state()
        cold.append(full_report(params, RenCoupling(m_v=m_v, g=g), SPEC))
    assert repr(swept) == repr(cold)
    assert {r.regime for r in swept} == {Regime.NORMAL, Regime.GHOST}


def test_kept_opening_pass_is_a_tuple():
    # every later caller is handed the kept value itself, so none may change it
    params = exponential_model()
    forget_kept_state()
    for m, orders in ((1.9, (1, 2)), (params.threshold, (1,))):
        kept = _moment_pass(params.threshold - m, params, SPEC, orders)
        assert kept is _moment_pass(params.threshold - m, params, SPEC, orders)
        values, rule = kept
        assert type(kept) is type(values) is type(rule) is tuple
        assert len(values) == len(orders)


# --- wavefunction renormalization ---------------------------------------------

def test_z_from_bare():
    assert z_from_bare(PARAMS, 0.0, 1.5, SPEC) == 1.0
    value = z_from_bare(PARAMS, 1.0, 1.5, SPEC)
    assert math.isclose(value, Z_BARE_G1, rel_tol=1e-11)
    assert 0.0 < value < 1.0
    weaker = z_from_bare(PARAMS, 0.5, 1.5, SPEC)
    stronger = z_from_bare(PARAMS, 2.0, 1.5, SPEC)
    assert stronger < value < weaker


def test_renormalize_coupling():
    assert renormalize_coupling(2.0, 1.0) == 2.0
    assert renormalize_coupling(2.0, 0.25) == 1.0
    with pytest.raises(ValueError):
        renormalize_coupling(2.0, 0.0)
    with pytest.raises(ValueError):
        renormalize_coupling(2.0, -0.5)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, 1e200, -1.0))
@pytest.mark.parametrize("name, call", (
    ("g0", lambda g: mass_shift(PARAMS, g, 1.5, SPEC)),
    ("g0", lambda g: z_from_bare(PARAMS, g, 1.5, SPEC)),
    ("g", lambda g: dressing_strength(PARAMS, g, 1.5, SPEC)),
    ("g0", lambda g: renormalize_coupling(g, 0.5)),
    ("g0", lambda g: norm_integral(PARAMS, g, 1.5, SPEC)),
), ids=("mass_shift", "z_from_bare", "dressing_strength", "renormalize_coupling",
        "norm_integral"))
def test_public_helpers_refuse_a_bad_coupling(bad, name, call):
    # the rule BareCoupling and RenCoupling apply: nonnegative with a finite square.
    # NaN came back NaN, inf and 1e200 as -inf, 0.0 or inf, and the norm refined
    # to the panel cap before a misleading NoConvergence
    with pytest.raises(ValueError, match=f"coupling {name} must be nonnegative"):
        call(bad)


@pytest.mark.parametrize("z", (math.nan, math.inf))
def test_renormalize_coupling_refuses_a_z_not_finite(z):
    with pytest.raises(ValueError, match="z must be positive and finite"):
        renormalize_coupling(2.0, z)


def test_dressing_strength():
    assert dressing_strength(PARAMS, 0.0, 1.5, SPEC) == 0.0
    assert math.isclose(dressing_strength(PARAMS, 1.0, 1.5, SPEC), X_AT_G1,
                        rel_tol=1e-11)
    g_crit = critical_coupling(PARAMS, 1.5, SPEC)
    assert abs(dressing_strength(PARAMS, g_crit, 1.5, SPEC) - 1.0) < 1e-10


def test_dressing_strength_quadratic_in_g():
    # halving the squared vertex strength halves x
    x = dressing_strength(PARAMS, 1.7, 1.5, SPEC)
    x_half = dressing_strength(PARAMS, 1.7 / math.sqrt(2.0), 1.5, SPEC)
    assert math.isclose(x_half, 0.5 * x, rel_tol=1e-12)


def test_standard_z():
    assert standard_z(0.0) == 1.0
    assert standard_z(0.25) == 0.75
    assert standard_z(1.5) == -0.5
    for x in (-0.1, math.nan):
        with pytest.raises(ValueError):
            standard_z(x)


def test_regularized_z():
    assert regularized_z(0.5) == 0.5
    assert regularized_z(1.0) == 0.0
    assert regularized_z(2.0) == 0.0
    for x in (-1e-9, math.nan):  # nan once read as Z = 0
        with pytest.raises(ValueError):
            regularized_z(x)
    xs = np.random.default_rng(3).uniform(0.0, 5.0, 1000)
    vals = np.array([regularized_z(float(x)) for x in xs])
    assert np.all(vals == np.maximum(1.0 - xs, 0.0))
    # monotone non-increasing, continuous through x = 1
    order = np.argsort(xs)
    assert np.all(np.diff(vals[order]) <= 0.0)
    assert regularized_z(1.0 - 1e-12) <= 1e-12
    assert regularized_z(1.0 + 1e-12) == 0.0


def test_geometric_partial_sum():
    assert geometric_partial_sum(2.0, 3) == 15.0
    assert abs(geometric_partial_sum(0.5, 60) - 2.0) < 1e-12
    assert geometric_partial_sum(1.0, 4) == 5.0
    assert geometric_partial_sum(10.0, 2) == 111.0
    assert geometric_partial_sum(0.0, 5) == 1.0
    near = geometric_partial_sum(1.0 + 5e-9, 10)
    assert near > 11.0 and abs(near - 11.0) < 1e-6
    assert geometric_partial_sum(10.0, 400) == math.inf
    with pytest.raises(ValueError):
        geometric_partial_sum(2.0, -1)
    for x in (-0.5, math.nan):
        with pytest.raises(ValueError):
            geometric_partial_sum(x, 3)


@pytest.mark.parametrize("x", (1.0 + 1e-9, 1.0 - 1e-9))
def test_geometric_partial_sum_near_one_at_large_n(x):
    # inside |x - 1| <= 1e-8 the sum has a closed form too, so its cost does
    # not grow with n (summing 10**7 terms took about a second)
    h = x - 1.0  # exact
    direct = math.fsum(x ** j for j in range(1001))
    assert math.isclose(geometric_partial_sum(x, 1000), direct, rel_tol=1e-15)
    # at n = 10**7, (n + 1) h = +-0.01, where the far closed form loses only two digits
    far = (x ** (10**7 + 1) - 1.0) / h
    assert math.isclose(geometric_partial_sum(x, 10**7), far, rel_tol=1e-12)
    # at n = 10**12, (n + 1) h = +-1000: past the float range above 1, 1/(1 - x) below
    assert geometric_partial_sum(x, 10**12) == (math.inf if x > 1.0 else -1.0 / h)


def test_geometric_partial_sum_past_the_float_range_of_n():
    # n + 1 past the float range saturates as x^(n+1) does, with no OverflowError,
    # and so does x^(n+1) = 2^1024, whose log, 1024 log 2, rounds to that of the
    # largest float
    n = 10**400
    assert [geometric_partial_sum(x, n) for x in (0.0, 0.5, 1.0, 2.0)] == [1.0, 2.0, math.inf,
                                                                            math.inf]
    assert geometric_partial_sum(1.0 - 2.0 ** -30, n) == 2.0 ** 30
    assert geometric_partial_sum(2.0, 1023) == math.inf
    assert geometric_partial_sum(2.0, 1022) == 2.0 ** 1023  # 2^1023 - 1, rounded


def test_divergence_certificate():
    for x in (1.1, 2.0, 10.0):
        for bound in (1e3, 1e9):
            n_min = math.ceil(math.log(bound * (x - 1.0) + 1.0) / math.log(x))
            for n in (n_min, n_min + 1, n_min + 10):
                assert geometric_partial_sum(x, n) > bound


def test_classify_regime():
    assert classify_regime(0.3) is Regime.NORMAL
    assert classify_regime(1.0) is Regime.CRITICAL
    assert classify_regime(1.7) is Regime.GHOST
    assert classify_regime(1.0 + 5e-13) is Regime.CRITICAL
    assert classify_regime(1.0 - 5e-13) is Regime.CRITICAL
    assert classify_regime(1.0 + 2e-12) is Regime.GHOST
    assert classify_regime(1.0 - 2e-12) is Regime.NORMAL
    for x in (-0.2, math.nan):  # nan once read as Normal
        with pytest.raises(ValueError):
            classify_regime(x)


def test_critical_coupling():
    g_crit = critical_coupling(PARAMS, 1.5, SPEC)
    assert math.isclose(g_crit, G_CRIT_15, rel_tol=1e-11)
    with pytest.raises(DegenerateModel):
        # sharp cutoff below mu: the form factor vanishes on the whole range
        critical_coupling(sharp_model(lam=0.5), 1.5, SPEC)


# --- bare <-> renormalized maps ------------------------------------------------

def test_bare_from_renormalized_free():
    bare = bare_from_renormalized(PARAMS, RenCoupling(m_v=1.4, g=0.0), SPEC)
    assert bare.g0 == 0.0
    assert bare.m_v0 == 1.4


def test_bare_from_renormalized_golden_and_round_trip():
    g = 0.5 * G_CRIT_15
    bare = bare_from_renormalized(PARAMS, RenCoupling(m_v=1.5, g=g), SPEC)
    assert math.isclose(bare.g0, BFR_G0, rel_tol=1e-10)
    assert math.isclose(bare.m_v0, BFR_M_V0, rel_tol=1e-10)
    # forward map recovers the renormalized point
    m_v = solve_physical_mass(PARAMS, bare, SPEC)
    z = z_from_bare(PARAMS, bare.g0, m_v, SPEC)
    assert abs(m_v - 1.5) < 1e-8
    assert abs(renormalize_coupling(bare.g0, z) - g) / g < 1e-8


def test_bare_from_renormalized_ghost():
    g = 2.0 * critical_coupling(PARAMS, 1.5, SPEC)
    with pytest.raises(GhostRegime) as err:
        bare_from_renormalized(PARAMS, RenCoupling(m_v=1.5, g=g), SPEC)
    report = err.value.report
    assert isinstance(report, RenormReport)
    assert math.isclose(report.x, 4.0, rel_tol=1e-9)
    assert report.z_standard < 0.0
    assert report.z_regularized == 0.0
    assert report.regime is Regime.GHOST
    assert report.m_v0 is None and report.g0_sq is None


# --- full report ---------------------------------------------------------------

def test_full_report_free_bare():
    report = full_report(PARAMS, BareCoupling(1.3, 0.0), SPEC)
    assert report.x == 0.0
    assert report.z_standard == 1.0
    assert report.z_regularized == 1.0
    assert report.regime is Regime.NORMAL
    assert report.delta_m == 0.0
    assert report.m_v == 1.3


def test_full_report_bare_identities():
    bare = BareCoupling(m_v0=1.8, g0=1.0)
    report = full_report(PARAMS, bare, SPEC)
    z_direct = z_from_bare(PARAMS, bare.g0, report.m_v, SPEC)
    assert abs(report.z_standard - z_direct) < 1e-12
    assert abs(report.z_standard - (1.0 - report.x)) < 1e-12
    assert report.delta_m == report.m_v - report.m_v0
    assert report.g_sq == report.z_standard * report.g0_sq
    assert report.regime is Regime.NORMAL
    assert 0.0 < report.z_standard < 1.0


def test_full_report_bare_no_bound_state():
    with pytest.raises(NoBoundState):
        full_report(PARAMS, BareCoupling(2.5, 0.05), SPEC)
    # at a threshold of 0 the start is LEAST_DELTA, above delta0 = -mu/2, and F < 0
    # there; F(threshold) < 0 too, so no bound state, which no refusal may hide
    zero = ModelParams(m_n=-1.0, mu=1.0, form_factor=FormFactor.sharp(10.0))
    with pytest.raises(NoBoundState):
        full_report(zero, BareCoupling(m_v0=0.5, g0=1e-3), SPEC)


def test_full_report_renormalized_normal():
    ren = RenCoupling(m_v=1.5, g=0.5 * G_CRIT_15)
    report = full_report(PARAMS, ren, SPEC)
    assert report.regime is Regime.NORMAL
    assert math.isclose(report.x, 0.25, rel_tol=1e-10)
    assert math.isclose(report.z_standard, 0.75, rel_tol=1e-10)
    bare = bare_from_renormalized(PARAMS, ren, SPEC)
    assert math.isclose(report.g0_sq, bare.g0 ** 2, rel_tol=1e-13)
    assert math.isclose(report.m_v0, bare.m_v0, rel_tol=1e-13)
    assert report.delta_m == report.m_v - report.m_v0


def test_full_report_renormalized_ghost():
    ren = RenCoupling(m_v=1.5, g=2.0 * G_CRIT_15)
    report = full_report(PARAMS, ren, SPEC)
    assert report.regime is Regime.GHOST
    assert report.z_standard < 0.0
    assert report.z_regularized == 0.0
    assert report.m_v0 is None
    assert report.delta_m is None
    assert report.g0_sq is None
    assert report.g_sq == ren.g ** 2


def test_full_report_renormalized_critical():
    g_crit = critical_coupling(PARAMS, 1.5, SPEC)
    report = full_report(PARAMS, RenCoupling(m_v=1.5, g=g_crit), SPEC)
    assert report.regime is Regime.CRITICAL
    assert abs(report.x - 1.0) <= 1e-12
    assert report.m_v0 is None
    assert report.z_regularized >= 0.0


def test_critical_band_below_one_has_no_bare_side():
    # x = 1 - 8e-14 lies in the Critical band; g0^2 = g^2 / (1 - x) would be
    # about 1e13 times g^2, a bare theory the regime says does not exist
    ren = RenCoupling(m_v=1.5, g=(1.0 - 4e-14) * critical_coupling(PARAMS, 1.5, SPEC))
    report = full_report(PARAMS, ren, SPEC)
    assert report.x < 1.0 and report.regime is Regime.CRITICAL
    assert report.m_v0 is None and report.delta_m is None and report.g0_sq is None
    with pytest.raises(GhostRegime) as err:
        bare_from_renormalized(PARAMS, ren, SPEC)
    assert err.value.report == report
    assert f"x = {report.x!r}" in str(err.value)


@pytest.mark.parametrize("call", (full_report, bare_from_renormalized))
def test_renormalized_coupling_with_infinite_square_raises(call):
    # g^2 overflows to inf: RenCoupling refuses g as BareCoupling refuses g0,
    # so no call sees x = inf and z_standard = -inf
    with pytest.raises(ValueError, match="renormalized coupling g .* finite square"):
        call(PARAMS, RenCoupling(m_v=1.5, g=1e160), SPEC)


@pytest.mark.parametrize("call", (full_report, bare_from_renormalized))
def test_renormalized_coupling_whose_x_overflows_raises(call):
    # g^2 = 1e308 is finite, but I2 = 1.4e3 at delta = 1e-4 overflows x
    with pytest.raises(StabilityViolation, match="g = 1e[+]154 .* x = inf"):
        call(PARAMS, RenCoupling(m_v=2.0 - 1e-4, g=1e154), SPEC)


@pytest.mark.parametrize("call", (full_report, bare_from_renormalized))
def test_renormalized_point_whose_bare_side_overflows_raises(call):
    # x = 1 - 1e-11 is Normal, but g0^2 = g^2 / (1 - x) overflows, and m_V0 and
    # delta m with it: full_report returned g0^2 = inf, m_V0 = inf and delta m =
    # -inf, and bare_from_renormalized raised an untyped ValueError
    params, ren = sharp_model(2.0), RenCoupling(m_v=-1e150, g=6.064071437216217e+150)
    assert 0.0 < 1.0 - dressing_strength(params, ren.g, ren.m_v, SPEC) <= 2e-11
    with pytest.raises(StabilityViolation) as err:
        call(params, ren, SPEC)
    message = str(err.value)
    for part in (f"g = {ren.g!r}", "m_V = -1e+150", "x = 0.99999999999", "g0^2 = inf"):
        assert part in message, (part, message)


@pytest.mark.parametrize("m_v0", (1.5, 2.5, 2e300))  # below and above the threshold 2, and 1e300
@pytest.mark.parametrize("call", (full_report, solve_physical_mass))
def test_bare_coupling_whose_mass_residual_overflows_raises(call, m_v0):
    # c I1 overflows to -inf at exponential Lambda = 1e3 and g0 = 1e154, a
    # coupling with a finite square; the infinite step once passed the
    # rounding-floor stop, and m_V = m_V0 came back as the root.  At m_N = 1e300
    # and g0 = 1.3e154, ulp(threshold) puts the start far above delta0, F < 0
    # there, and F(threshold) = delta0 - c I1(0) overflows: refused, not read as no
    # bound state
    if m_v0 < 1e300:
        params, g0, match = exponential_model(1e3), 1e154, "g0 = 1e[+]154"
    else:
        params = ModelParams(m_n=1e300, mu=1.0, form_factor=FormFactor.exponential(1e3))
        g0, match = 1.3e154, "g0 = 1.3e[+]154 .* at m = 1e[+]300: F = inf;"
    with pytest.raises(StabilityViolation, match=match):
        call(params, BareCoupling(m_v0=m_v0, g0=g0), SPEC)


@pytest.mark.parametrize("call", (full_report, solve_physical_mass))
def test_bare_solve_refuses_what_leaves_the_float_range(call):
    # the solve runs on the model in units of mu: m_V0 = 1e300 at mu = 1e-300
    # has no float there (the rule convergence_study shares), and at mu = 1.2e154
    # the root, about 1e155 mu below the threshold, has none in the caller's
    # units; it would come back as -inf
    tiny = ModelParams(m_n=0.0, mu=1e-300, form_factor=FormFactor.sharp(1e-299))
    with pytest.raises(DegenerateModel, match="m_V0 = 1e[+]300 overflows in units of mu"):
        call(tiny, BareCoupling(m_v0=1e300, g0=1.0), SPEC)
    # the free theory takes no step: m_V = m_V0 however far it lies below the threshold
    result = call(tiny, BareCoupling(m_v0=-1e300, g0=0.0), SPEC)
    assert getattr(result, "m_v", result) == -1e300
    huge = ModelParams(m_n=1.2e154, mu=1.2e154, form_factor=FormFactor.sharp(1.2e160))
    with pytest.raises(StabilityViolation, match="g0 = 1e[+]150 .* at m = -inf: root m = "):
        call(huge, BareCoupling(m_v0=1.2e154, g0=1e150), SPEC)


def test_full_report_rejects_other_types():
    with pytest.raises(TypeError):
        full_report(PARAMS, (1.5, 1.0), SPEC)


def test_lockstep_bare_solves_match_single_point_solves(monkeypatch):
    # one batch, shuffled and with duplicates, at a threshold of 0 (m_N = -mu):
    # the free theory, no bound state, c > 1 (g0 = 30), starts above delta0 (m_V0
    # within LEAST_DELTA of the threshold, on both sides), an F that overflows
    # (g0 = 1e154) and ordinary points; each outcome is its own full_report's
    # report, or its error's type and message, and the held steps share grids
    params = ModelParams(m_n=-1.0, mu=1.0, form_factor=FormFactor.exponential(1e3))
    points = [(-0.5, 0.0), (0.5, 1e-4), (-0.5, 30.0), (1e-160, 1.0), (-1e-160, 1.0),
              (-0.5, 1e154), (-0.1, 1.0), (-0.1, 2.0), (-2.0, 0.5)]
    batch = [BareCoupling(m_v0=m_v0, g0=g0) for m_v0, g0 in points * 2]
    random.Random(5).shuffle(batch)

    def outcome(result):
        return repr(result) if isinstance(result, RenormReport) else (type(result), str(result))

    expected = []
    for bare in batch:
        try:
            expected.append(outcome(full_report(params, bare, SPEC)))
        except LeeModelError as exc:
            expected.append(outcome(exc))
    assert {e[0] if isinstance(e, tuple) else RenormReport for e in expected} == {
        RenormReport, NoBoundState, StabilityViolation}
    grids, rows = [], []
    moments_on = leemodel.renorm._moments_on

    def counted(level, deltas, orders):
        grids.append(level)
        rows.extend(deltas)
        return moments_on(level, deltas, orders)

    monkeypatch.setattr(leemodel.renorm, "_moments_on", counted)
    assert [outcome(result) for result in full_reports(params, batch, SPEC)] == expected
    assert len(rows) > 2 * len(grids) > 0


def test_a_lockstep_batch_wider_than_one_grid_matches_single_point_solves(monkeypatch):
    # a 300-point g0 sweep holds more steps on one level than one grid takes (the
    # nodes of a level at the panel cap), so _moments_on splits them into several
    # grids; each report is still its own full_report's, which a dropped,
    # repeated or reordered row would shift onto other points
    params = exponential_model(10.0)
    batch = [BareCoupling(m_v0=params.threshold - 0.05, g0=3.0 * i / 299) for i in range(300)]
    expected = [repr(full_report(params, bare, SPEC)) for bare in batch]
    grids, splits = [], []  # each grid's (rows, nodes); the grids of each held group
    moments_on, vecdot = leemodel.renorm._moments_on, np.vecdot

    def counted(level, deltas, orders):
        seen = len(grids)
        moments = moments_on(level, deltas, orders)
        splits.append((len(grids) - seen) // len(orders))
        return moments

    def counted_vecdot(grid, rho):
        grids.append(grid.shape)
        return vecdot(grid, rho)

    monkeypatch.setattr(leemodel.renorm, "_moments_on", counted)
    monkeypatch.setattr(np, "vecdot", counted_vecdot)
    assert [repr(report) for report in full_reports(params, batch, SPEC)] == expected
    assert max(splits) > 1
    assert max(rows * nodes for rows, nodes in grids) <= PANEL_CAP * NODES_PER_PANEL


def test_norm_condition_invariant():
    for g0, m_v in ((0.5, 1.2), (1.0, 1.5), (2.0, 1.8)):
        z = z_from_bare(PARAMS, g0, m_v, SPEC)
        cloud = norm_integral(PARAMS, g0, m_v, SPEC)
        assert abs(z * (1.0 + cloud) - 1.0) < 1e-9


@pytest.mark.parametrize("family", FORM_FACTOR_KINDS)
def test_fixed_point_is_the_same_at_every_scale(family):
    # m_N = mu, Lambda = 10 mu, m_V0 = 1.8 mu and g0 = 1 have no scale but mu,
    # and every solver runs in units of mu: m_V / mu, Z, x, I1 / mu at the
    # threshold and the cloud norm are the mu = 1 row, bit for bit at a power
    # of two.  In absolute units w_k k^2 scales as mu^3 and underflowed, so
    # mu <= 1e-108 returned m_V = m_V0 and Z = 1, and 1e-100 I1 4e-9 off
    def row(mu):
        params = ModelParams(m_n=mu, mu=mu, form_factor=FormFactor(family, 10.0 * mu))
        report = full_report(params, BareCoupling(m_v0=1.8 * mu, g0=1.0), SPEC)
        (i1,) = spectral_moments(params.threshold, params, SPEC, orders=(1,))
        return (report.m_v / mu, report.z_standard, report.x, i1 / mu,
                norm_integral(params, 1.0, report.m_v, SPEC))

    base = row(1.0)
    assert base[1] < 0.95  # a dressed point, not the free one
    assert row(2.0 ** -400) == base
    for mu in (1e-150, 1e-120, 1e-100, 1e150):
        for got, want in zip(row(mu), base):
            assert math.isclose(got, want, rel_tol=1e-12), (mu, got, want)


@pytest.mark.parametrize("family", FORM_FACTOR_KINDS)
def test_fixed_point_below_the_old_absolute_lambda_rule(family):
    # Lambda = 1e-269 has a square that underflows in absolute units, which
    # once refused the form factor; in units of mu it is 10, so the model
    # builds and its bare report is the mu = 1 row.  delta_m = m_V - m_V0
    # cancels, so its error is relative to m_V
    def report(mu):
        params = ModelParams(m_n=mu, mu=mu, form_factor=FormFactor(family, 10.0 * mu))
        return full_report(params, BareCoupling(m_v0=1.8 * mu, g0=1.0), SPEC)

    mu = 1e-270
    got, want = report(mu), report(1.0)
    assert got.regime is want.regime is Regime.NORMAL
    for a, b in ((got.m_v, want.m_v * mu), (got.m_v0, want.m_v0 * mu), (got.g_sq, want.g_sq),
                 (got.x, want.x), (got.z_standard, want.z_standard)):
        assert math.isclose(a, b, rel_tol=1e-15), (a, b)
    assert abs(got.delta_m - want.delta_m * mu) <= 1e-15 * abs(got.m_v)
