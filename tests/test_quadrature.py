import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import leemodel
from leemodel import (
    BareCoupling,
    FormFactor,
    ModelParams,
    NoConvergence,
    QuadSpec,
    RenCoupling,
    StabilityViolation,
    TWO_PI_CUBED,
    critical_coupling,
    default_spec,
    dressing_strength,
    ensure_stable,
    full_report,
    mass_shift,
    mass_shift_integral,
    norm_integral,
    spectral_moments,
    upper_momentum,
    z_factor_integral,
    z_from_bare,
)
from leemodel.cli import parse_config, run_sweep
from leemodel.oracle import PANEL_ORDER
from leemodel.quadrature import (
    FOUR_PI,
    NODES_PER_PANEL,
    NORM_ORDER,
    RULES_KEPT,
    START_PANELS,
    _moment_rule,
    _refine,
    _sinh_panels,
    _threshold_scale,
)
from leemodel.renorm import _opening_pass

from helpers import (
    ALL_MODELS,
    I1_AT_15,
    I2_AT_15,
    I2_EXP10_NEAR_THRESHOLD,
    M_NEAR_THRESHOLD,
    MU,
    M_N,
    RADIAL_F2_OVER_2W,
    SHARP_K_CUT,
    SPEC,
    X_AT_G1,
    dipole_model,
    dipole_moments_reference,
    exponential_model,
    riemann_radial,
    sharp_model,
    sharp_moments_closed_form,
)


def test_rule_orders_differ():
    # c3 compares the norm rule with the moment rule and c4 the moment rule
    # with the oracle's "gauss" grid; equal orders would check a rule with itself
    assert len({NODES_PER_PANEL, NORM_ORDER, PANEL_ORDER}) == 3


def test_ball_volume():
    # both sinh rules integrate k^2 over the ball of radius 2 to its closed form
    for order in (NODES_PER_PANEL, NORM_ORDER):
        for kappa in (2.0 ** -30, 2.0 ** -10, 1.0):
            k, wk = _sinh_panels(2.0, kappa, 8, order)
            value = FOUR_PI * np.sum(wk * k * k)
            assert math.isclose(value, 32.0 * math.pi / 3.0, rel_tol=1e-13), (order, kappa)


def _tiled_sinh_panels(hi, kappa, panels, order):
    # the rule as first written, one flat u and the weights tiled per panel
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * math.asinh(hi / kappa) / panels
    u = ((2 * np.arange(panels) + 1)[:, None] * half + half * x).ravel()
    return kappa * np.sinh(u), np.tile(kappa * half * w, panels) * np.cosh(u)


def test_sinh_panels_match_the_tiled_rule_bit_for_bit():
    for order in (NODES_PER_PANEL, NORM_ORDER):
        for hi in (0.5, 40.0, 1600.0):
            for kappa in (2.0 ** -30, 2.0 ** -10, 1.0):
                for panels in (1, 4, 8, 2 ** 14):
                    got = _sinh_panels(hi, kappa, panels, order)
                    want = _tiled_sinh_panels(hi, kappa, panels, order)
                    for a, b in zip(got, want):
                        assert a.shape == (panels * order,)
                        assert np.array_equal(a, b), (order, hi, kappa, panels)
        # a sharp cutoff at or below mu leaves an empty range
        for got in _sinh_panels(0.0, 1.0, 8, order):
            assert got.shape == (0,)


def _largest_lambda_built(kind):
    # bisect Lambda over what ModelParams accepts, down to adjacent floats
    lo, hi = 1.0, 1e300
    while math.nextafter(lo, hi) != hi:
        mid = math.sqrt(lo * hi) if hi > 1.0001 * lo else 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        try:
            ModelParams(m_n=-MU, mu=MU, form_factor=FormFactor(kind, mid))
            lo = mid
        except ValueError:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("kind, first_overflow", (
    ("sharp", 1e103), ("exponential", 2.3e101), ("dipole", 2.3e101)))
def test_rule_range_edge(kind, first_overflow):
    # from first_overflow on, wk * k^2 in _moment_rule overflowed; the
    # construction check bounds that product from above, within a few weights
    inside, outside = _largest_lambda_built(kind)
    assert math.nextafter(inside, math.inf) == outside
    assert first_overflow / 30.0 < inside < first_overflow
    with pytest.raises(ValueError, match="overflows its quadrature rule"):
        ModelParams(m_n=-MU, mu=MU, form_factor=FormFactor(kind, outside))
    # just inside, every rule is finite at its largest products, which the
    # kappa floor gives: delta = 0 for I1, delta << 1e-9 mu for I2 and the norm
    params = ModelParams(m_n=-MU, mu=MU, form_factor=FormFactor(kind, inside))
    near = -1e-20 * MU
    assert _threshold_scale(params, -near) == _threshold_scale(params, 0.0)
    values = (*spectral_moments(params.threshold, params, SPEC, orders=(1,)),
              *spectral_moments(near, params, SPEC),
              norm_integral(params, 1.0, near, SPEC))
    assert all(math.isfinite(v) and v != 0.0 for v in values)


def test_rule_range_follows_lambda_over_mu():
    # k_max / kappa must stay finite, and kappa is floored at 1e-9 mu
    with pytest.raises(ValueError, match="overflows its quadrature rule"):
        ModelParams(m_n=0.0, mu=1e-300, form_factor=FormFactor.dipole(1.0))
    ModelParams(m_n=0.0, mu=1e-200, form_factor=FormFactor.dipole(1.0))


def test_radial_f2_over_2w_golden_and_riemann():
    # the zeroth moment is Int d^3k f^2 / (2 omega)
    (value,) = spectral_moments(1.5, sharp_model(), SPEC, orders=(0,))
    assert math.isclose(value, RADIAL_F2_OVER_2W, rel_tol=1e-11)
    brute = riemann_radial(lambda om: 1.0 / (2.0 * om), SHARP_K_CUT)
    assert math.isclose(value, brute, rel_tol=1e-8)


def test_i1_golden_and_riemann():
    params = sharp_model()
    value = mass_shift_integral(1.5, params, SPEC)
    assert math.isclose(value, I1_AT_15, rel_tol=1e-11)
    brute = riemann_radial(lambda om: 1.0 / (2.0 * om) / (0.5 - om), SHARP_K_CUT)
    assert math.isclose(value, brute, rel_tol=1e-8)


def test_i2_golden_and_riemann():
    params = sharp_model()
    value = z_factor_integral(1.5, params, SPEC)
    assert math.isclose(value, I2_AT_15, rel_tol=1e-11)
    brute = riemann_radial(lambda om: 1.0 / (2.0 * om) / (0.5 - om) ** 2, SHARP_K_CUT)
    assert math.isclose(value, brute, rel_tol=1e-8)


def test_i2_near_threshold_golden():
    # delta ~ 1e-8 mu: the integrand lives on k ~ sqrt(2 mu delta), far below
    # the first panel of the coarse rules
    params = exponential_model()
    value = z_factor_integral(M_NEAR_THRESHOLD, params, default_spec(params))
    assert math.isclose(value, I2_EXP10_NEAR_THRESHOLD, rel_tol=1e-9)


def test_spectral_moments_match_single_order_calls():
    for make in ALL_MODELS:
        params = make()
        spec = default_spec(params)
        for m in (0.3, 1.7, 2.0 - 1e-6):
            i1, i2 = spectral_moments(m, params, spec)
            assert math.isclose(i1, mass_shift_integral(m, params, spec), rel_tol=1e-10)
            assert math.isclose(i2, z_factor_integral(m, params, spec), rel_tol=1e-10)


def test_spectral_moments_at_threshold():
    # I1 is finite at delta = 0 and is the limit from below; I2 diverges there
    params = sharp_model()
    (at,) = spectral_moments(2.0, params, SPEC, orders=(1,))
    assert math.isclose(at, mass_shift_integral(2.0 - 1e-12, params, SPEC), rel_tol=1e-5)
    assert at < mass_shift_integral(1.9, params, SPEC) < 0.0
    for orders in ((2,), (1, 2)):
        with pytest.raises(StabilityViolation):
            spectral_moments(2.0, params, SPEC, orders=orders)
    with pytest.raises(StabilityViolation):
        spectral_moments(2.0 + 1e-12, params, SPEC, orders=(1,))


@pytest.mark.parametrize("lam", (1.5, 10.0, 40.0))
@pytest.mark.parametrize("delta", (2.0, 0.5, 1e-3, 1e-8, 1e-12, 1e-14))
def test_sharp_moments_match_closed_form(lam, delta):
    # the float delta the package forms from m, down to where I2 ~ 1e7
    m = 2.0 - delta
    exact = sharp_moments_closed_form(lam, 2.0 - m)
    values = spectral_moments(m, sharp_model(lam), SPEC)
    for value, ref in zip(values, exact):
        assert math.isclose(value, ref, rel_tol=1e-13), (value, ref)


@pytest.mark.parametrize("lam_over_mu", (1e-2, 1e-4, 1e-7))
@pytest.mark.parametrize("delta", (0.5, 1e-6))
def test_dipole_moments_for_lambda_far_below_mu(lam_over_mu, delta):
    # f is evaluated on k itself: rebuilding k^2 as omega^2 - mu^2 lost
    # eps (mu/Lambda)^2 of it, 6e-9 at Lambda = 1e-4 mu and 7e-3 at 1e-7 mu
    params = ModelParams(m_n=M_N, mu=MU, form_factor=FormFactor.dipole(lam_over_mu * MU))
    m = params.threshold - delta * MU
    exact = dipole_moments_reference(lam_over_mu * MU, params.threshold - m)
    for value, ref in zip(spectral_moments(m, params, SPEC), exact):
        assert math.isclose(value, ref, rel_tol=1e-11), (value, ref)


@pytest.mark.parametrize("kind", ("sharp", "exponential", "dipole"))
@pytest.mark.parametrize("lam_over_mu", (1e-140, 1e-150, 1e-155, 1e-160, 1e-170,
                                         1e-300, 1e-310, 1e-320))
@pytest.mark.parametrize("mu", (1e-100, 1.0, 1e100))
def test_tiny_lambda_is_refused_or_finite(kind, lam_over_mu, mu):
    # a Lambda whose square underflows is refused when built; any other gives
    # finite moments with no numpy warning (warnings are errors here)
    try:
        params = ModelParams(m_n=0.0, mu=mu, form_factor=FormFactor(kind, lam_over_mu * mu))
    except ValueError:
        assert (lam_over_mu * mu) ** 2 == 0.0
        return
    assert all(math.isfinite(v) for v in spectral_moments(0.5 * mu, params, SPEC))


def _uncached_moments(m, params, orders=(1, 2)):
    # the moment pass with every sinh rule rebuilt at every level, as if
    # nothing were kept for the model
    ff, mu = params.form_factor, params.mu
    delta = params.threshold - m
    kappa = _threshold_scale(params, delta)

    def estimate(panels):
        k, wk = _sinh_panels(upper_momentum(params), kappa, panels)
        k2 = k * k
        om = np.sqrt(k2 + mu * mu)
        fval = ff.evaluate(k, mu)
        rho = wk * k2 * fval * fval / (2.0 * om)
        inv = -1.0 / (delta + k2 / (om + mu))
        return (FOUR_PI * np.array([rho.dot(inv ** n) for n in orders])).tolist()

    return tuple(_refine(estimate, SPEC, lambda: "reference")[0])


def _forget_kept_rules():
    """Start cold: no moment rule and no opening pass of a solve kept."""
    _moment_rule.cache_clear()
    _opening_pass.cache_clear()


def test_kept_rules_never_change_a_bit():
    model_a, model_b = exponential_model(lam=40.0), dipole_model()
    masses = (1.5, 1.99, M_NEAR_THRESHOLD)
    reference = [_uncached_moments(m, model_a) for m in masses]
    cold = []
    for m in masses:
        _moment_rule.cache_clear()
        cold.append(spectral_moments(m, model_a, SPEC))
    _moment_rule.cache_clear()
    # other masses fill the rules first: the first three share the kappa
    # octaves of the targets, so the warm passes below only read kept rules
    for m in (1.49, 1.991, 2.0 - 1.2e-8, 0.5, 1.9, 2.0 - 1e-6):
        spectral_moments(m, model_a, SPEC)
    filled = _moment_rule.cache_info()
    warm = [spectral_moments(m, model_a, SPEC) for m in masses]
    warmed = _moment_rule.cache_info()
    assert warmed.misses == filled.misses and warmed.hits > filled.hits
    # model B is kept next to model A: it must neither read nor evict A's rules
    assert spectral_moments(1.5, model_b, SPEC) == _uncached_moments(1.5, model_b)
    before = _moment_rule.cache_info()
    refilled = [spectral_moments(m, model_a, SPEC) for m in masses]
    assert _moment_rule.cache_info().misses == before.misses
    assert reference == cold == warm == refilled


def test_kept_rules_are_read_only():
    params = sharp_model()
    kappas = {_threshold_scale(params, delta) for delta in (0.5, 1e-10)}
    assert len(kappas) == 2
    for kappa in kappas:
        for panels in (START_PANELS, 2 * START_PANELS):
            for arr in _moment_rule(params, kappa, panels):
                with pytest.raises(ValueError):
                    arr[0] = 0.0


def test_bare_sweep_evaluates_the_form_factor_once_per_octave_and_panel_count(monkeypatch):
    sizes, keys = [], []
    evaluate, sinh_panels = FormFactor.evaluate, _sinh_panels

    def counted(self, k, mu):
        sizes.append(np.size(k))
        return evaluate(self, k, mu)

    def recorded(hi, kappa, panels, order=NODES_PER_PANEL):
        if order == NODES_PER_PANEL:
            keys.append((kappa, panels))
        return sinh_panels(hi, kappa, panels, order)

    monkeypatch.setattr(FormFactor, "evaluate", counted)
    monkeypatch.setattr(leemodel.quadrature, "_sinh_panels", recorded)
    _forget_kept_rules()
    cfg = parse_config(json.dumps({
        "model": {"form_factor": {"kind": "exponential", "lambda": 10.0}},
        "input": {"mode": "bare", "m_V0": 1.99},
        "sweep": {"parameter": "g0", "start": 0.0, "stop": 3.0, "steps": 24}}))
    rows = run_sweep(cfg)
    assert len(rows) == 24 and not any(row["error"] for row in rows)
    assert len(keys) == len(set(keys)) > 2 and len({kappa for kappa, _ in keys}) > 1
    assert sorted(sizes) == sorted(panels * NODES_PER_PANEL for _, panels in keys)


def test_held_newton_steps_never_look_up_a_rule(monkeypatch):
    # a refined pass hands back the level it settled on, and the held steps
    # evaluate it, so only the refinement levels and each pass's settled level
    # reach the kept rules
    levels, passes, held = [], [], []
    refine, moments_on = leemodel.quadrature._refine, leemodel.renorm._moments_on

    def counted_refine(estimate, spec, what):
        passes.append(None)

        def counted(panels):
            levels.append(panels)
            return estimate(panels)

        return refine(counted, spec, what)

    def counted_held(*args):
        held.append(None)
        return moments_on(*args)

    monkeypatch.setattr(leemodel.quadrature, "_refine", counted_refine)
    monkeypatch.setattr(leemodel.renorm, "_moments_on", counted_held)
    _forget_kept_rules()
    rows = run_sweep(parse_config(json.dumps({
        "model": {"form_factor": {"kind": "exponential", "lambda": 10.0}},
        "input": {"mode": "bare", "m_V0": 1.999},
        "sweep": {"parameter": "g0", "start": 0.0, "stop": 2.5, "steps": 24}})))
    assert len(rows) == 24 and not any(row["error"] for row in rows)
    info = _moment_rule.cache_info()
    assert len(held) > len(passes) > 0
    assert info.hits + info.misses <= len(levels) + len(passes)


def test_alternating_models_keep_their_rules(monkeypatch):
    # the rules of two models fit side by side, so A, B, A, B builds each once
    calls = []
    evaluate = FormFactor.evaluate

    def counted(self, k, mu):
        calls.append(self.kind)
        return evaluate(self, k, mu)

    monkeypatch.setattr(FormFactor, "evaluate", counted)
    _forget_kept_rules()
    model_a, model_b = exponential_model(), dipole_model()
    reports = [full_report(params, BareCoupling(1.9, 1.0), SPEC)
               for params in (model_a, model_b, model_a, model_b)]
    assert reports[:2] == reports[2:]
    assert len(calls) == 8
    assert calls.count("exponential") == calls.count("dipole") == 4


def test_full_report_threads_match_serial():
    # 18 models of at least two rules each overflow the RULES_KEPT kept
    # rules, and the kept opening passes, so the threads evict each other's
    points = [(make(lam), BareCoupling(1.9, g0))
              for lam in (2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0)
              for g0 in (0.5, 2.0) for make in (exponential_model, dipole_model)]
    assert len({params for params, _ in points}) > 16
    _forget_kept_rules()
    serial = [full_report(params, bare, SPEC) for params, bare in points]
    assert _moment_rule.cache_info().misses > RULES_KEPT
    _forget_kept_rules()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(full_report, params, bare, SPEC) for params, bare in points]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_no_convergence_names_its_context(monkeypatch):
    # both sinh rules resolve delta = 1e-13 mu within 16 panels, so each is
    # held to 2 -> 4 panels here to make it run out
    params = exponential_model(lam=40.0)
    spec = default_spec(params)
    m = 2.0 - 1e-13
    monkeypatch.setattr(leemodel.quadrature, "START_PANELS", 2)
    monkeypatch.setattr(leemodel.quadrature, "PANEL_CAP", 4)
    for what, mass, call in (
            ("moment(s) (2,)", "m", lambda: z_factor_integral(m, params, spec)),
            ("norm integral", "m_V", lambda: norm_integral(params, 1.0, m, spec))):
        with pytest.raises(NoConvergence) as err:
            call()
        message = str(err.value)
        for part in (what, "exponential", "Lambda = 40.0", f"{mass} = {m!r}",
                     f"delta = {2.0 - m!r}", "4 panels", "changed the estimate by"):
            assert part in message, (part, message)
        assert "inf" not in message.split("changed the estimate by")[1], message


def test_integrals_vanish_with_the_form_factor():
    # sharp cutoff below mu leaves no momentum range at all
    params = sharp_model(lam=0.5)
    assert mass_shift_integral(1.5, params, SPEC) == 0.0
    assert z_factor_integral(1.5, params, SPEC) == 0.0


def test_integral_signs_all_models():
    for make in ALL_MODELS:
        params = make()
        spec = default_spec(params)
        for m in (0.3, 1.0, 1.7):
            assert mass_shift_integral(m, params, spec) < 0.0
            assert z_factor_integral(m, params, spec) > 0.0


def test_i1_monotone_decreasing_in_m():
    params = sharp_model()
    values = [mass_shift_integral(m, params, SPEC) for m in (0.5, 1.0, 1.5, 1.9)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_derivative_identity_all_models():
    # I2 = -dI1/dm, central differences with h = 1e-5 * mu
    h = 1e-5 * MU
    for make in ALL_MODELS:
        params = make()
        spec = default_spec(params)
        for m in np.linspace(0.1, 1.9, 10):
            fd = -(mass_shift_integral(m + h, params, spec)
                   - mass_shift_integral(m - h, params, spec)) / (2.0 * h)
            i2 = z_factor_integral(m, params, spec)
            assert abs(i2 - fd) / abs(i2) < 1e-6


def test_sharp_cutoff_exactness():
    # for the sharp family the limit is exactly k(Lambda), not 40 Lambda
    assert upper_momentum(sharp_model()) == SHARP_K_CUT
    assert upper_momentum(sharp_model(lam=MU)) == 0.0


def test_refinement_monotonicity(monkeypatch):
    params = sharp_model()
    a = z_factor_integral(1.5, params, SPEC)
    monkeypatch.setattr(leemodel.quadrature, "START_PANELS", 8)
    b = z_factor_integral(1.5, params, SPEC)
    assert abs(a - b) <= max(SPEC.abs_tol, SPEC.rel_tol * abs(b))


def test_quadspec_default_matches_default_spec():
    # the range belongs to the model, so a bare QuadSpec() cannot truncate a
    # wide dipole early (its tail beyond 400 is 4e-4 of I1 at Lambda = 40)
    params = dipole_model(lam=40.0)
    assert (spectral_moments(1.5, params, QuadSpec())
            == spectral_moments(1.5, params, default_spec(params)))


def test_norm_integral():
    params = sharp_model()
    assert norm_integral(params, 0.0, 1.5, SPEC) == 0.0
    value = norm_integral(params, 1.0, 1.5, SPEC)
    assert math.isclose(value, X_AT_G1, rel_tol=1e-10)
    # algebraic identity: norm / I2 == g0^2/(2 pi)^3
    g0 = 1.3
    ratio = norm_integral(params, g0, 1.5, SPEC) / z_factor_integral(1.5, params, SPEC)
    assert math.isclose(ratio, g0 * g0 / TWO_PI_CUBED, rel_tol=1e-10)


def test_norm_integral_near_threshold_golden():
    # the cloud amplitude keeps delta ~ 1e-8 mu exact, as the moment pass does
    params = exponential_model()
    value = norm_integral(params, 1.0, M_NEAR_THRESHOLD, default_spec(params))
    assert math.isclose(value, I2_EXP10_NEAR_THRESHOLD / TWO_PI_CUBED, rel_tol=1e-9)


@pytest.mark.parametrize("make", ALL_MODELS)
@pytest.mark.parametrize("lam", (10.0, 40.0))
@pytest.mark.parametrize("delta", (1e-10, 1e-12, 1e-14))
def test_norm_condition_near_threshold(make, lam, delta):
    # Z (1 + cloud) = 1 with Z from the moment pass and the cloud from the norm
    params = make(lam)
    m_v = 2.0 - delta
    cloud = norm_integral(params, 1.0, m_v, SPEC)
    z = z_from_bare(params, 1.0, m_v, SPEC)
    assert abs(z * (1.0 + cloud) - 1.0) < 1e-9, (z, cloud)
    if make is sharp_model:
        exact = sharp_moments_closed_form(lam, 2.0 - m_v)[1] / TWO_PI_CUBED
        assert math.isclose(cloud, exact, rel_tol=1e-13), (cloud, exact)


def test_norm_integral_finite_for_all_models():
    for make in ALL_MODELS:
        params = make()
        value = norm_integral(params, 1.0, 1.5, default_spec(params))
        assert math.isfinite(value) and value > 0.0


def test_stability_violation():
    params = sharp_model()
    with pytest.raises(StabilityViolation):
        mass_shift_integral(2.0, params, SPEC)
    with pytest.raises(StabilityViolation):
        z_factor_integral(2.3, params, SPEC)
    with pytest.raises(StabilityViolation):
        norm_integral(params, 1.0, 2.0, SPEC)


def test_stability_is_delta_positive_at_the_float_edge():
    # m - m_N < mu and delta = m_N + mu - m > 0 disagree in the last ulp, both
    # ways; every denominator is built from delta, so delta decides
    edge = ModelParams(m_n=1.0, mu=0.2, form_factor=FormFactor.exponential(10.0))
    assert edge.threshold == 1.2 and 1.2 - edge.m_n < edge.mu
    for call in (lambda: ensure_stable(edge, 1.2),
                 lambda: mass_shift_integral(1.2, edge, SPEC),
                 lambda: z_factor_integral(1.2, edge, SPEC),
                 lambda: mass_shift(edge, 1.0, 1.2, SPEC),
                 lambda: z_from_bare(edge, 1.0, 1.2, SPEC),
                 lambda: z_from_bare(edge, 0.0, 1.2, SPEC),
                 lambda: dressing_strength(edge, 1.0, 1.2, SPEC),
                 lambda: dressing_strength(edge, 0.0, 1.2, SPEC),
                 lambda: critical_coupling(edge, 1.2, SPEC),
                 lambda: full_report(edge, RenCoupling(m_v=1.2, g=1.0), SPEC),
                 lambda: norm_integral(edge, 1.0, 1.2, SPEC)):
        with pytest.raises(StabilityViolation):
            call()
    inside = ModelParams(m_n=1.2633007483484249, mu=2.7275654321090865,
                         form_factor=FormFactor.exponential(10.0))
    m = 3.990866180457511
    assert 0.0 < inside.threshold - m < 1e-15 and not m - inside.m_n < inside.mu
    ensure_stable(inside, m)
    assert mass_shift_integral(m, inside, SPEC) < 0.0
    assert 0.0 < z_from_bare(inside, 1.0, m, SPEC) < 1.0
    assert full_report(inside, RenCoupling(m_v=m, g=1.0), SPEC).x > 0.0


def test_no_convergence_on_unresolvable_integrand():
    # oscillation far below any reachable panel width: refinement never settles
    def estimate(panels):
        k, wk = _sinh_panels(2.0, 1.0, panels)
        return [FOUR_PI * float(np.sum(wk * k * k * np.sin(1e9 * k) ** 2))]

    with pytest.raises(NoConvergence):
        _refine(estimate, SPEC, lambda: "oscillation")


def test_quadspec_validation():
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=-1.0)


def test_default_spec_scales_with_cutoff():
    # the spec carries only tolerances; the range of a decaying family is 40 Lambda
    params = ModelParams(m_n=1.0, mu=1.0, form_factor=FormFactor.exponential(2.5))
    assert default_spec(params) == QuadSpec()
    assert upper_momentum(params) == 100.0
