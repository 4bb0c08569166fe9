import math

import numpy as np
import pytest

from leemodel import (
    BareCoupling,
    FormFactor,
    ModelParams,
    Regime,
    RenCoupling,
    StabilityViolation,
    dressing_amplitude,
    omega,
    vertex_weight,
)

from helpers import MU, PHI_AT_K1, VERTEX_AT_W2, sharp_model


def test_omega_values():
    assert omega(0.0, 1.0) == 1.0
    assert omega(3.0, 4.0) == 5.0
    assert math.isclose(omega(1.0, 1.0), math.sqrt(2.0), rel_tol=1e-15)


def test_omega_domain_errors():
    with pytest.raises(ValueError):
        omega(-0.5, 1.0)
    with pytest.raises(ValueError):
        omega(1.0, 0.0)
    with pytest.raises(ValueError):
        omega(1.0, -2.0)
    with pytest.raises(ValueError):
        omega(math.nan, 1.0)
    with pytest.raises(ValueError, match="finite square"):  # mu^2 = inf, as ModelParams refuses
        omega(1.0, 1e200)
    for mu in (1.0, 1e-200):  # (k / mu)^2 overflows, as mu^2 may not
        with pytest.raises(ValueError, match="finite square in units of mu"):
            omega(1e155 * mu, mu)


def test_omega_monotone_and_bounded():
    k = np.sort(np.random.default_rng(7).uniform(0.0, 30.0, 200))
    om = omega(k, MU)
    assert np.all(np.diff(om) > 0.0)
    assert np.all(om >= np.maximum(k, MU))
    # monotone in mu as well
    assert np.all(np.asarray(omega(k, 2.0)) > om)


def test_form_factor_families():
    sharp = FormFactor.sharp(10.0)
    assert sharp.evaluate(5.0, MU) == 1.0
    assert sharp.evaluate(11.0, MU) == 0.0
    expo = FormFactor.exponential(2.0)
    assert math.isclose(expo.evaluate(math.sqrt(3.0), MU), math.exp(-1.0), rel_tol=1e-15)
    dip = FormFactor.dipole(3.0)
    assert dip.evaluate(3.0, MU) == 0.5  # f = 9/(9+9)


def test_form_factor_forms_omega_as_omega_does():
    # sharp and exponential are functions of omega_k, formed bit for bit as omega() forms it
    k = np.concatenate([[0.0], np.random.default_rng(5).uniform(0.0, 30.0, 300)])
    for mu in (1e-3, MU, 7.0):
        om = omega(k, mu)
        assert np.array_equal(FormFactor.sharp(10.0).evaluate(k, mu),
                              np.where(om <= 10.0, 1.0, 0.0))
        assert np.array_equal(FormFactor.exponential(3.0).evaluate(k, mu), np.exp(-om / 3.0))


def test_form_factor_bounds_on_physical_domain():
    rng = np.random.default_rng(11)
    k = np.concatenate([[0.0], rng.uniform(0.0, 50.0, 500)])
    for ff in (FormFactor.sharp(10.0), FormFactor.exponential(10.0),
               FormFactor.dipole(10.0)):
        vals = np.asarray(ff.evaluate(k, MU))
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert ff.evaluate(0.0, MU) > 0.0


def test_form_factor_validation():
    with pytest.raises(ValueError):
        FormFactor("gaussian", 10.0)
    with pytest.raises(ValueError):
        FormFactor.sharp(0.0)
    with pytest.raises(ValueError):
        FormFactor.exponential(-1.0)
    with pytest.raises(ValueError):
        FormFactor.dipole(math.inf)
    # Lambda's one rule is on Lambda / mu: a form factor takes any positive, finite
    # Lambda, and a model refuses one whose square underflows in units of mu
    assert FormFactor.dipole(1e-170).lam == 1e-170
    with pytest.raises(ValueError, match="Lambda\\^2 must stay positive"):
        ModelParams(m_n=1.0, mu=1.0, form_factor=FormFactor.dipole(1e-170))
    assert ModelParams(m_n=0.0, mu=1e-160, form_factor=FormFactor.dipole(1e-170)).mu == 1e-160


# momenta in units of mu around Lambda = 1e6 mu: both sides of the sharp
# cutoff, with omega / Lambda at most 2 so that exp(-omega / Lambda) stays
# within an ulp or two of the rounded inputs
K_OVER_MU = np.array([0.0, 0.3, 1.0, 3.0, 5e5, 2e6])


@pytest.mark.parametrize("kind", ("sharp", "exponential", "dipole"))
@pytest.mark.parametrize("mu, g0", ((1e150, 1.0), (1e-200, 1.0), (2.0 ** -900, 2.0 ** -700)))
def test_kinematics_are_formed_in_units_of_mu(kind, mu, g0):
    # f, omega, the vertex and the cloud amplitude square k, Lambda and mu only
    # in units of mu, so at any scale they are the mu = 1 values, scaled: bit for
    # bit at a power of two, else within the ulps of the rounded inputs.  In
    # absolute units k^2 and Lambda^2 overflowed at 1e150 (f = 0, 0 and NaN at
    # k = Lambda / 2) and underflowed at 1e-200 (omega(1e-200, 1e-200) was 0)
    exact = math.frexp(mu)[0] == 0.5
    k, ff, ff1 = K_OVER_MU * mu, FormFactor(kind, 1e6 * mu), FormFactor(kind, 1e6)
    params, params1 = ModelParams(0.0, mu, ff), ModelParams(0.0, 1.0, ff1)
    # amplitude ~ g0 mu^(-3/2), compared times mu (g0 keeps 2^-900 in range)
    pairs = ((ff.evaluate(k, mu), ff1.evaluate(K_OVER_MU, 1.0)),
             (omega(k, mu), omega(K_OVER_MU, 1.0) * mu),
             (vertex_weight(g0, ff, k, mu) * math.sqrt(mu), vertex_weight(g0, ff1, K_OVER_MU, 1.0)),
             (dressing_amplitude(params, g0, 0.5 * mu, k) * mu,
              dressing_amplitude(params1, g0, 0.5, K_OVER_MU) / math.sqrt(mu)))
    for got, want in pairs:
        assert np.all(np.isfinite(got)) and np.any(got != 0.0)
        if exact:
            assert np.array_equal(got, want)
        else:
            assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want))), (got, want)


def test_vertex_weight():
    ff = FormFactor.sharp(10.0)
    k_w2 = math.sqrt(3.0)  # omega = 2
    assert vertex_weight(0.0, ff, k_w2, MU) == 0.0
    assert math.isclose(vertex_weight(1.0, ff, k_w2, MU), VERTEX_AT_W2, rel_tol=1e-14)
    assert vertex_weight(1.0, ff, 11.0, MU) == 0.0


def test_dressing_amplitude_values():
    params = sharp_model()
    assert dressing_amplitude(params, 0.0, 1.5, 1.0) == 0.0
    # omega(10.1) > Lambda: outside the sharp support
    assert dressing_amplitude(params, 1.0, 1.5, 10.1) == 0.0
    assert math.isclose(dressing_amplitude(params, 1.0, 1.5, 1.0), PHI_AT_K1,
                        rel_tol=1e-14)


def test_dressing_amplitude_sign_and_decay():
    params = sharp_model()
    k = np.linspace(0.0, 9.0, 50)
    amp = np.asarray(dressing_amplitude(params, 1.3, 1.5, k))
    assert np.all(amp < 0.0)
    expo = ModelParams(m_n=1.0, mu=1.0, form_factor=FormFactor.exponential(2.0))
    tail = dressing_amplitude(expo, 1.0, 1.5, 60.0)
    assert abs(tail) < 1e-12


def test_dressing_amplitude_continuity_and_sharp_jump():
    # exponential and dipole amplitudes are continuous in k; the sharp one
    # drops to zero across omega = Lambda
    k_edge = math.sqrt(10.0 ** 2 - MU ** 2)
    eps = 1e-9
    for make in (FormFactor.exponential, FormFactor.dipole):
        params = ModelParams(m_n=1.0, mu=1.0, form_factor=make(10.0))
        below = dressing_amplitude(params, 1.0, 1.5, k_edge - eps)
        above = dressing_amplitude(params, 1.0, 1.5, k_edge + eps)
        assert abs(above - below) < 1e-8
    sharp = sharp_model()
    below = dressing_amplitude(sharp, 1.0, 1.5, k_edge - eps)
    above = dressing_amplitude(sharp, 1.0, 1.5, k_edge + eps)
    assert above == 0.0 and below < -1e-4


def test_dressing_amplitude_stability_window():
    params = sharp_model()
    with pytest.raises(StabilityViolation):
        dressing_amplitude(params, 1.0, 2.0, 1.0)  # m_V == threshold
    with pytest.raises(StabilityViolation):
        dressing_amplitude(params, 1.0, 2.7, 1.0)


def test_params_validation():
    ff = FormFactor.sharp(10.0)
    with pytest.raises(ValueError):
        ModelParams(m_n=1.0, mu=0.0, form_factor=ff)
    with pytest.raises(ValueError):
        ModelParams(m_n=math.inf, mu=1.0, form_factor=ff)
    with pytest.raises(ValueError):
        ModelParams(m_n=1.0, mu=1.0, form_factor="sharp")
    with pytest.raises(ValueError):
        BareCoupling(m_v0=1.5, g0=-0.1)
    with pytest.raises(ValueError):
        RenCoupling(m_v=1.5, g=-2.0)
    for mass in (math.inf, math.nan):
        with pytest.raises(ValueError, match="bare V mass must be finite"):
            BareCoupling(m_v0=mass, g0=1.0)
        with pytest.raises(ValueError, match="physical V mass must be finite"):
            RenCoupling(m_v=-mass, g=1.0)
    assert sharp_model().threshold == 2.0


def test_infinite_threshold_is_rejected_at_construction():
    # m_N = mu = 1e308 once put the threshold at inf and ended in NoConvergence
    # at "delta = inf"; mu^2 finite keeps m_N + mu finite
    with pytest.raises(ValueError, match="finite square"):
        ModelParams(m_n=1e308, mu=1e308, form_factor=FormFactor.sharp(10.0))
    with pytest.raises(ValueError, match="finite square"):
        ModelParams(m_n=1.0, mu=1e160, form_factor=FormFactor.dipole(10.0))
    huge = ModelParams(m_n=1.7976931348623157e308, mu=1e154, form_factor=FormFactor.sharp(1.0))
    assert math.isfinite(huge.threshold)


def test_mu_and_m_n_are_checked_in_units_of_mu():
    # a subnormal mu once passed: its kappa floor 1e-9 mu underflowed to 0,
    # and every solve ran to the panel cap; m_N must stay finite times the
    # power of two that puts mu in [1, 2)
    for mu in (1e-318, 5e-324, math.ldexp(1.0, -1023)):
        with pytest.raises(ValueError, match="normal float"):
            ModelParams(m_n=0.0, mu=mu, form_factor=FormFactor.dipole(10.0))
    with pytest.raises(ValueError, match="N mass must be finite in units of mu"):
        ModelParams(m_n=1e300, mu=1e-10, form_factor=FormFactor.dipole(1e-9))
    assert ModelParams(m_n=1e300, mu=1.0, form_factor=FormFactor.dipole(10.0)).m_n == 1e300


def test_coupling_with_infinite_square_is_rejected_at_construction():
    # g0 = 1e160 once drove the Newton solve to NaN
    with pytest.raises(ValueError, match="finite square"):
        BareCoupling(m_v0=1.5, g0=1e160)
    assert BareCoupling(m_v0=1.5, g0=1e154).g0 == 1e154


def test_regime_labels():
    assert Regime.NORMAL.value == "Normal"
    assert Regime.CRITICAL.value == "Critical"
    assert Regime.GHOST.value == "Ghost"
