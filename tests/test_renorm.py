import math

import numpy as np
import pytest

import leemodel.renorm
from leemodel import (
    TWO_PI_CUBED,
    BareCoupling,
    DegenerateModel,
    FormFactor,
    GhostRegime,
    ModelParams,
    NoBoundState,
    NoConvergence,
    Regime,
    RenCoupling,
    RenormReport,
    StabilityViolation,
    bare_from_renormalized,
    classify_regime,
    critical_coupling,
    dressing_strength,
    full_report,
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
    sharp_model,
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


@pytest.mark.parametrize("m_n, mu, kind, lam, m_v0, g0", (
    (1.0, 0.10715163212068368, "exponential", 0.1851229980542, 28.735000474474038,
     282031.17324425746),
    (0.0, 0.00021682346309802333, "sharp", 0.0004567533446216621, 0.05828898241851116,
     977.21444868813),
    (0.0, 59.374727282669824, "dipole", 75.95644987807825, 14325.741786711471,
     101585.5095819998),
), ids=("exponential", "sharp", "dipole"))
def test_solve_strong_coupling_from_above_threshold(m_n, mu, kind, lam, m_v0, g0):
    # the start lies far left of the root and every Newton step overshoots the
    # threshold; the chord alone moved delta only linearly and hit NEWTON_CAP
    params, bare = ModelParams(m_n, mu, FormFactor(kind, lam)), BareCoupling(m_v0, g0)
    report = full_report(params, bare, SPEC)
    assert report.m_v < params.threshold and 0.0 < report.z_standard < 1.0
    i1, i2 = spectral_moments(report.m_v, params, SPEC)
    c = g0 * g0 / TWO_PI_CUBED
    step = (report.m_v - m_v0 - c * i1) / (1.0 + c * i2)
    assert abs(step) <= leemodel.renorm.ROOT_TOL * max(1.0, abs(report.m_v))


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
    i1, i2 = spectral_moments(report.m_v, params, SPEC)
    c = bare.g0 * bare.g0 / TWO_PI_CUBED
    step = (report.m_v - bare.m_v0 - c * i1) / (1.0 + c * i2)
    assert abs(step) <= leemodel.renorm.ROOT_TOL * max(1.0, abs(report.m_v))
    assert report.z_standard == 1.0 / (1.0 + c * i2)


def test_bare_sweep_refines_about_twice_per_point(monkeypatch):
    # one refined pass picks the rule and one confirms the root; a pass at
    # every Newton step made 5.6 per point on this sweep
    calls = []
    moment_pass = leemodel.renorm._moment_pass

    def counted(*args):
        calls.append(args[0])
        return moment_pass(*args)

    monkeypatch.setattr(leemodel.renorm, "_moment_pass", counted)
    params = exponential_model()
    g0s = np.linspace(0.0, 3.0, 24)[1:]
    for g0 in g0s:
        full_report(params, BareCoupling(m_v0=2.0 - 1e-3, g0=float(g0)), SPEC)
    assert len(calls) <= 2.5 * len(g0s), len(calls)


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
    with pytest.raises(ValueError):
        standard_z(-0.1)


def test_regularized_z():
    assert regularized_z(0.5) == 0.5
    assert regularized_z(1.0) == 0.0
    assert regularized_z(2.0) == 0.0
    with pytest.raises(ValueError):
        regularized_z(-1e-9)
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
    with pytest.raises(ValueError):
        geometric_partial_sum(-0.5, 3)


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
    with pytest.raises(ValueError):
        classify_regime(-0.2)


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
    # g^2 overflows to inf: no report with x = inf and z_standard = -inf
    with pytest.raises(StabilityViolation, match="g = 1e[+]160"):
        call(PARAMS, RenCoupling(m_v=1.5, g=1e160), SPEC)


def test_full_report_rejects_other_types():
    with pytest.raises(TypeError):
        full_report(PARAMS, (1.5, 1.0), SPEC)


def test_norm_condition_invariant():
    for g0, m_v in ((0.5, 1.2), (1.0, 1.5), (2.0, 1.8)):
        z = z_from_bare(PARAMS, g0, m_v, SPEC)
        cloud = norm_integral(PARAMS, g0, m_v, SPEC)
        assert abs(z * (1.0 + cloud) - 1.0) < 1e-9
