import importlib
import json
import math
import pkgutil
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
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
    dressing_amplitude,
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
    PANEL_CAP,
    RULES_KEPT,
    START_PANELS,
    _moment_pass,
    _moment_rules,
    _panel_rows,
    _refine,
    _settled,
    _sinh_panels,
    _threshold_scale,
)

from helpers import (
    ALL_MODELS,
    FAR_THRESHOLD_MOMENTS,
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
    forget_kept_state,
    record_refined_passes,
    riemann_radial,
    sharp_model,
    sharp_moments,
    sharp_moments_closed_form,
)

# the least delta, in units of mu, at which I2 and the norm are taken: 1/delta^2 is finite
LEAST_DELTA = math.sqrt(sys.float_info.min)


def test_rule_orders_differ():
    # c3 compares the norm rule with the moment rule and c4 the moment rule
    # with the oracle's "gauss" grid; equal orders would check a rule with itself
    assert len({NODES_PER_PANEL, NORM_ORDER, PANEL_ORDER}) == 3


def test_ball_volume():
    # both sinh rules integrate k^2 over the ball of radius 2 to its closed form
    for order in (NODES_PER_PANEL, NORM_ORDER):
        for kappa in (2.0 ** -30, 2.0 ** -10, 1.0):
            k, wk = _sinh_panels(2.0, kappa, (8,), order)
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
                    got = _sinh_panels(hi, kappa, (panels,), order)
                    want = _tiled_sinh_panels(hi, kappa, panels, order)
                    for a, b in zip(got, want):
                        assert a.shape == (panels * order,)
                        assert np.array_equal(a, b), (order, hi, kappa, panels)
                # a run of levels is one grid, each level's nodes as if laid out alone
                for levels in ((4, 8), (2, 4), (8, 16), (1, 16, 2)):
                    got = _sinh_panels(hi, kappa, levels, order)
                    want = [np.concatenate(part) for part in zip(
                        *(_tiled_sinh_panels(hi, kappa, panels, order) for panels in levels))]
                    for a, b in zip(got, want):
                        assert a.shape == (sum(levels) * order,)
                        assert np.array_equal(a, b), (order, hi, kappa, levels)
        # a sharp cutoff at or below mu leaves an empty range
        for levels in ((8,), (4, 8)):
            for got in _sinh_panels(0.0, 1.0, levels, order):
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
    # just inside, every rule is finite at its largest products, which the least kappa
    # gives: delta = 0 for I1, and the least delta not refused for I2 and the norm
    params = ModelParams(m_n=-MU, mu=MU, form_factor=FormFactor(kind, inside))
    near = -LEAST_DELTA * MU
    values = (*spectral_moments(params.threshold, params, SPEC, orders=(1,)),
              *spectral_moments(near, params, SPEC),
              norm_integral(params, 1.0, near, SPEC))
    assert all(math.isfinite(v) and v != 0.0 for v in values)


def test_rule_range_follows_lambda_over_mu():
    # the rules run in units of mu, so the range is a rule on Lambda / mu alone:
    # 1e200 is refused at every scale as at mu = 1, and 1e3 gives finite moments
    for mu in (1e-150, 1e-100, 1.0, 1e100):
        with pytest.raises(ValueError, match="overflows its quadrature rule"):
            ModelParams(m_n=0.0, mu=mu, form_factor=FormFactor.dipole(1e200 * mu))
        params = ModelParams(m_n=0.0, mu=mu, form_factor=FormFactor.dipole(1e3 * mu))
        values = spectral_moments(0.5 * mu, params, SPEC)
        assert all(math.isfinite(v) and v != 0.0 for v in values), (mu, values)
    for mu in (1e-300, 1e-200):
        with pytest.raises(ValueError, match="overflows its quadrature rule"):
            ModelParams(m_n=0.0, mu=mu, form_factor=FormFactor.dipole(1.0))


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


@pytest.mark.parametrize("kind", ("sharp", "exponential", "dipole"))
def test_i2_near_threshold_law(kind):
    # near k = 0, q = k^2/(omega + mu) ~ k^2/(2 mu), so I2 sqrt(delta) -> pi^2 sqrt(2 mu) f(0)^2,
    # with an error of O(sqrt(delta)); the norm is (g0^2/(2 pi)^3) I2.  The law has no
    # quadrature in it
    params = ModelParams(m_n=-MU, mu=MU, form_factor=FormFactor(kind, 10.0 * MU))
    f0 = math.exp(-MU / (10.0 * MU)) if kind == "exponential" else 1.0
    law = math.pi ** 2 * math.sqrt(2.0 * MU) * f0 * f0
    for delta in np.geomspace(1e-153, 1e-100, 7) * MU:
        (i2,) = spectral_moments(-delta, params, SPEC, (2,))
        assert math.isclose(i2 * math.sqrt(delta), law, rel_tol=1e-12), delta
        norm = norm_integral(params, 1.0, -delta, SPEC) * TWO_PI_CUBED
        assert math.isclose(norm * math.sqrt(delta), law, rel_tol=1e-12), delta


@pytest.mark.parametrize("kind, lam, delta", FAR_THRESHOLD_MOMENTS)
def test_moments_far_from_the_threshold_golden(kind, lam, delta):
    # kappa = sqrt(2 mu delta) >> mu would undersample k ~ mu, the scale of omega's branch
    # points at k = +-i mu: each refined estimate must be within its tolerance of the truth
    params = ModelParams(m_n=M_N, mu=MU, form_factor=FormFactor(kind, lam * MU))
    for spec in (SPEC, QuadSpec(1e-13, 1e-13)):
        values = spectral_moments(params.threshold - delta * MU, params, spec)
        for value, golden in zip(values, FAR_THRESHOLD_MOMENTS[kind, lam, delta]):
            assert math.isclose(value, golden, rel_tol=spec.rel_tol), (spec, value, golden)


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
    # a Lambda whose square underflows in units of mu (scaled by the power of
    # two that puts mu in [1, 2)) is refused when built, whatever its absolute
    # square; any other gives finite moments with no numpy warning (warnings
    # are errors here)
    lam = lam_over_mu * mu
    underflows = math.ldexp(lam, 1 - math.frexp(mu)[1]) ** 2 == 0.0
    try:
        params = ModelParams(m_n=0.0, mu=mu, form_factor=FormFactor(kind, lam))
    except ValueError:
        assert underflows
        return
    assert not underflows
    assert all(math.isfinite(v) for v in spectral_moments(0.5 * mu, params, SPEC))


def _level_alone(params, kappa, panels):
    # one level (q, rho) of the moment rule built by itself on its own sinh rule
    k, wk = _sinh_panels(upper_momentum(params), kappa, (panels,))
    k2, mu = k * k, params.mu
    om = np.sqrt(k2 + mu * mu)
    fval = params.form_factor.evaluate(k, mu)
    return k2 / (om + mu), wk * k2 * fval * fval / (2.0 * om)


def _uncached_moments(m, params, orders=(1, 2)):
    # the moment pass with every sinh rule rebuilt at every level, as if
    # nothing were kept for the model
    delta = params.threshold - m
    kappa = _threshold_scale(params, delta)

    def estimate(panels):
        q, rho = _level_alone(params, kappa, panels)
        inv = -1.0 / (delta + q)
        return (FOUR_PI * np.array([rho.dot(inv ** n) for n in orders])).tolist()

    panels = 2 * START_PANELS
    prev, cur = estimate(START_PANELS), estimate(panels)
    while not _settled(cur, prev, SPEC):
        panels *= 2
        prev, cur = cur, estimate(panels)
    return tuple(cur)


def test_kept_rules_never_change_a_bit():
    model_a, model_b = exponential_model(lam=40.0), dipole_model()
    masses = (1.5, 1.99, M_NEAR_THRESHOLD)
    reference = [_uncached_moments(m, model_a) for m in masses]
    cold = []
    for m in masses:
        forget_kept_state()
        cold.append(spectral_moments(m, model_a, SPEC))
    forget_kept_state()
    # other masses fill the rules first: the first three share the kappa
    # octaves of the targets, so the warm passes below only read kept rules
    # (the kept passes are dropped, so that the rules are read at all)
    for m in (1.49, 1.991, 2.0 - 1.2e-8, 0.5, 1.9, 2.0 - 1e-6):
        spectral_moments(m, model_a, SPEC)
    _moment_pass.cache_clear()
    filled = _moment_rules.cache_info()
    warm = [spectral_moments(m, model_a, SPEC) for m in masses]
    warmed = _moment_rules.cache_info()
    assert warmed.misses == filled.misses and warmed.hits > filled.hits
    # model B is kept next to model A: it must neither read nor evict A's rules
    assert spectral_moments(1.5, model_b, SPEC) == _uncached_moments(1.5, model_b)
    _moment_pass.cache_clear()
    before = _moment_rules.cache_info()
    refilled = [spectral_moments(m, model_a, SPEC) for m in masses]
    assert _moment_rules.cache_info().misses == before.misses
    assert reference == cold == warm == refilled


@pytest.mark.parametrize("make", ALL_MODELS + (lambda: sharp_model(MU),
                                                lambda: sharp_model(0.5 * MU)))
def test_opening_pair_matches_each_level_built_alone(make):
    # the 4- and 8-panel levels are built as one grid, and must equal, bit for
    # bit, each level built alone; kappa = 2^-30 is the 1e-9 mu floor, and a sharp
    # Lambda <= mu leaves an empty range and empty levels
    params = make()
    kappas = [_threshold_scale(params, delta) for delta in (0.5, 1e-6, 0.0)]
    assert len(set(kappas)) == 3 and kappas[-1] == 2.0 ** -30
    forget_kept_state()
    for kappa in kappas:
        pair = _moment_rules(params, kappa, (START_PANELS, 2 * START_PANELS))[1]
        for panels, kept in zip((START_PANELS, 2 * START_PANELS), pair):
            alone = _level_alone(params, kappa, panels)
            size = 0 if upper_momentum(params) == 0.0 else panels * NODES_PER_PANEL
            for got, want in zip(kept, alone):
                assert got.shape == (size,) and np.array_equal(got, want), (kappa, panels)
    assert _moment_rules.cache_info().misses == len(kappas)


def _moments_alone(params, kappa, panels, delta, orders):
    # the moments on one level built alone, by the expression that evaluated
    # each level on its own: a reciprocal per level and inv ** n per order
    q, rho = _level_alone(params, kappa, panels)
    inv = np.add(delta, q)
    np.divide(-1.0, inv, out=inv)
    return tuple(FOUR_PI * float(rho.dot(inv if n == 1 else inv ** n)) for n in orders)


@pytest.mark.parametrize("make, delta, orders", [
    (make, delta, orders)
    for make in ALL_MODELS + (lambda: sharp_model(MU), lambda: sharp_model(0.5 * MU))
    for delta in (0.5, 1e-6, 0.0) for orders in ((1,), (2,), (1, 2)) if delta or orders == (1,)]
    + [(lambda: dipole_model(40.0), 1e-14 * MU, orders) for orders in ((1,), (2,), (1, 2))])
def test_one_sweep_of_the_pair_matches_each_level_alone(monkeypatch, make, delta, orders):
    # a pass takes its opening pair's 4- and 8-panel moments in one sweep of the
    # pair's nodes, then refines past the pair, if it must, level by level; the
    # pair's moments, the pass's values and its level must equal, bit for bit,
    # each level built and evaluated alone.  delta = 0 is the 1e-9 mu floor of
    # kappa, where only I1 is finite; a sharp Lambda <= mu has empty levels; I1 of
    # the dipole at Lambda = 40 and delta = 1e-14 mu settles at 16 panels
    params, pairs = make(), []
    settled = leemodel.quadrature._settled

    def recorded(cur, prev, spec):
        pairs.append((tuple(prev), tuple(cur)))
        return settled(cur, prev, spec)

    monkeypatch.setattr(leemodel.quadrature, "_settled", recorded)
    kappa = _threshold_scale(params, delta)
    alone = {panels: _moments_alone(params, kappa, panels, delta, orders)
             for panels in (START_PANELS, 2 * START_PANELS, 4 * START_PANELS, 8 * START_PANELS)}
    forget_kept_state()
    values, level = _moment_pass(delta, params, SPEC, orders)
    panels = 2 ** len(pairs) * START_PANELS
    assert pairs == [(alone[n // 2], alone[n]) for n in (8, 16, 32)[:len(pairs)]], pairs
    assert values == alone[panels]
    assert all(np.array_equal(got, want)
               for got, want in zip(level, _level_alone(params, kappa, panels)))
    if params.form_factor.lam == 40.0 and 1 in orders:  # I1 there settles past the pair
        assert panels == 16


def test_a_cold_pass_looks_up_one_rule(monkeypatch):
    # a pass that settles at 8 panels reads its opening pair once, for both
    # levels and the level it hands back, where a lookup per level read it three times
    lookups = []
    moment_rules = _moment_rules

    def recorded(params, kappa, levels):
        lookups.append(levels)
        return moment_rules(params, kappa, levels)

    forget_kept_state()  # before the memo is wrapped, so that it is cleared
    monkeypatch.setattr(leemodel.quadrature, "_moment_rules", recorded)
    for make in ALL_MODELS:
        lookups.clear()
        full_report(make(), RenCoupling(m_v=1.9, g=1.0), SPEC)
        assert lookups == [(START_PANELS, 2 * START_PANELS)]


def test_kept_rules_are_read_only():
    params = sharp_model()
    kappas = {_threshold_scale(params, delta) for delta in (0.5, 1e-10)}
    assert len(kappas) == 2
    for kappa in kappas:
        for levels in ((START_PANELS, 2 * START_PANELS), (4 * START_PANELS,)):
            nodes, rules = _moment_rules(params, kappa, levels)
            for arr in (nodes, *(arr for level in rules for arr in level)):
                owner = arr if arr.base is None else arr.base
                for target in (arr, owner):  # the buffer a level is a view of, too
                    with pytest.raises(ValueError):
                        target.flat[0] = 0.0
    # the kept rows every grid of a run of levels is laid out from
    for arr in _panel_rows((START_PANELS, 2 * START_PANELS)):
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0


def test_a_kept_entry_holds_at_most_6_mib():
    # RULES_KEPT entries, each the opening pair or one level up to the panel cap
    forget_kept_state()
    params = exponential_model()
    for levels in ((START_PANELS, 2 * START_PANELS), (PANEL_CAP,)):
        nodes, rules = _moment_rules(params, 1.0, levels)
        owners = [arr if arr.base is None else arr.base
                  for arr in (nodes, *(arr for level in rules for arr in level))]
        buffers = {id(owner): owner.nbytes for owner in owners}
        assert len(buffers) == 2 and sum(buffers.values()) <= 6 * 2 ** 20


def test_bare_sweep_evaluates_the_form_factor_once_per_octave(monkeypatch):
    # each kept entry is built once, on one evaluation: an octave's opening pair
    # of levels on (4 + 8) * 24 nodes, or one later level
    sizes, keys = [], []
    evaluate, moment_rules = FormFactor.evaluate, _moment_rules

    def counted(self, k, mu):
        sizes.append(np.size(k))
        return evaluate(self, k, mu)

    def recorded(params, kappa, levels):
        keys.append((kappa, levels))
        return moment_rules(params, kappa, levels)

    forget_kept_state()  # before the memo is wrapped, so that it is cleared
    monkeypatch.setattr(FormFactor, "evaluate", counted)
    monkeypatch.setattr(leemodel.quadrature, "_moment_rules", recorded)
    cfg = parse_config(json.dumps({
        "model": {"form_factor": {"kind": "exponential", "lambda": 10.0}},
        "input": {"mode": "bare", "m_V0": 1.99},
        "sweep": {"parameter": "g0", "start": 0.0, "stop": 3.0, "steps": 24}}))
    rows = run_sweep(cfg)
    assert len(rows) == 24 and not any(row["error"] for row in rows)
    octaves = {kappa for kappa, _ in keys}
    assert len(octaves) > 1
    assert sorted(sizes) == sorted(sum(levels) * NODES_PER_PANEL for _, levels in set(keys))
    assert sizes.count(3 * START_PANELS * NODES_PER_PANEL) == len(octaves)


def test_held_newton_steps_never_look_up_a_rule(monkeypatch):
    # a refined pass hands back the level it settled on, and the held steps
    # evaluate it, so only the passes reach the kept rules: one lookup for the
    # opening pair, and one per level refined past it plus its settled level
    levels, held = [], []
    refine, moments_on = leemodel.quadrature._refine, leemodel.renorm._moments_on

    def counted_refine(estimate, *rest):
        def counted(panels):
            levels.append(panels)
            return estimate(panels)

        return refine(counted, *rest)

    def counted_held(*args):
        held.append(None)
        return moments_on(*args)

    passes = record_refined_passes(monkeypatch)
    monkeypatch.setattr(leemodel.quadrature, "_refine", counted_refine)
    monkeypatch.setattr(leemodel.renorm, "_moments_on", counted_held)
    rows = run_sweep(parse_config(json.dumps({
        "model": {"form_factor": {"kind": "exponential", "lambda": 10.0}},
        "input": {"mode": "bare", "m_V0": 1.999},
        "sweep": {"parameter": "g0", "start": 0.0, "stop": 2.5, "steps": 24}})))
    assert len(rows) == 24 and not any(row["error"] for row in rows)
    info = _moment_rules.cache_info()
    assert len(held) > len(passes) > 0
    assert info.hits + info.misses <= len(passes) + 2 * len(levels)


def test_alternating_models_keep_their_rules(monkeypatch):
    # the rules of two models fit side by side, so A, B, A, B builds each once
    calls = []
    evaluate = FormFactor.evaluate

    def counted(self, k, mu):
        calls.append(self.kind)
        return evaluate(self, k, mu)

    monkeypatch.setattr(FormFactor, "evaluate", counted)
    forget_kept_state()
    model_a, model_b = exponential_model(), dipole_model()
    reports = [full_report(params, BareCoupling(1.9, 1.0), SPEC)
               for params in (model_a, model_b, model_a, model_b)]
    assert reports[:2] == reports[2:]
    assert len(calls) == 4
    assert calls.count("exponential") == calls.count("dipole") == 2


@pytest.mark.parametrize("make", ALL_MODELS)
def test_cold_renormalized_report_evaluates_the_form_factor_once(monkeypatch, make):
    # a renormalized point is one refined pass, which settles at 8 panels, and
    # its opening pair of levels is one build: one evaluation on (4 + 8) * 24 nodes
    sizes = []
    evaluate = FormFactor.evaluate

    def counted(self, k, mu):
        sizes.append(np.size(k))
        return evaluate(self, k, mu)

    monkeypatch.setattr(FormFactor, "evaluate", counted)
    forget_kept_state()
    full_report(make(), RenCoupling(m_v=1.9, g=1.0), SPEC)
    assert sizes == [288]


def test_full_report_threads_match_serial():
    # 18 models of at least two rule entries each overflow the RULES_KEPT kept
    # entries, and the kept passes, so the threads evict each other's
    points = [(make(lam), BareCoupling(1.9, g0))
              for lam in (2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0)
              for g0 in (0.5, 2.0) for make in (exponential_model, dipole_model)]
    assert len({params for params, _ in points}) > 16
    forget_kept_state()
    serial = [full_report(params, bare, SPEC) for params, bare in points]
    assert _moment_rules.cache_info().misses > RULES_KEPT
    forget_kept_state()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(full_report, params, bare, SPEC) for params, bare in points]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_kept_state_lives_in_quadrature():
    # the package keeps memoized values in one module only, so one call
    # (helpers.forget_kept_state) starts every test cold
    kept = set()
    for info in pkgutil.iter_modules(leemodel.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"leemodel.{info.name}")
        owners = [module] + [cls for cls in vars(module).values()
                             if isinstance(cls, type) and cls.__module__ == module.__name__]
        kept |= {(obj.__module__, obj.__qualname__) for owner in owners
                 for obj in vars(owner).values() if hasattr(obj, "cache_clear")}
    assert kept == {("leemodel.quadrature", name)
                    for name in ("_gauss_nodes", "_panel_rows", "_moment_rules", "_moment_pass")}, kept


@pytest.mark.parametrize("mu", (1.0, 3.0))
def test_orders_may_be_any_integer_sequence(mu):
    # the kept passes are keyed on a tuple of ints, whatever sequence is passed
    params = ModelParams(m_n=1.0, mu=mu, form_factor=FormFactor.sharp(10.0 * mu))
    m = params.threshold - 0.5 * mu
    forget_kept_state()
    expected = spectral_moments(m, params, SPEC, (0, 1, 2))
    for orders in ([0, 1, 2], np.array([0, 1, 2]), (np.int64(0), 1, np.int32(2)), range(3)):
        forget_kept_state()
        assert spectral_moments(m, params, SPEC, orders) == expected, orders
        assert spectral_moments(np.array(m), params, SPEC, orders) == expected, orders
    assert spectral_moments(m, params, SPEC, [1]) == expected[1:2]


def test_overflowing_moment_is_a_stability_violation():
    # I0 ~ Lambda^2 ~ 1e320 is finite in units of mu but not in the caller's
    params = ModelParams(0.0, 1e100, FormFactor.sharp(1e160))
    with pytest.raises(StabilityViolation) as err:
        spectral_moments(1e99, params, QuadSpec(), (0,))
    message = str(err.value)
    for part in ("moment(s) (0,)", "sharp", "Lambda = 1e+160", "m = 1e+99", "delta = 9e+99"):
        assert part in message, (part, message)
    i1, i2 = spectral_moments(1e99, params, QuadSpec(), (1, 2))
    assert math.isfinite(i1) and math.isfinite(i2)


@pytest.mark.parametrize("kind", ("sharp", "exponential", "dipole"))
def test_moments_past_the_float_range_are_refused(kind):
    # below delta = 2^-511 mu, 1/delta^2 leaves the float range: I2 and the norm are refused
    # before any pass, while I1 alone stays finite down to the least float
    params = ModelParams(m_n=-MU, mu=MU, form_factor=FormFactor(kind, 10.0 * MU))
    below = math.nextafter(LEAST_DELTA, 0.0) * MU
    for call in (lambda: spectral_moments(-below, params, SPEC, (2,)),
                 lambda: spectral_moments(-below, params, SPEC, (1, 2)),
                 lambda: z_factor_integral(-below, params, SPEC),
                 lambda: norm_integral(params, 1.0, -below, SPEC)):
        with pytest.raises(StabilityViolation, match=f"{kind} form factor .* delta = {below!r} mu"):
            call()
    for delta in (LEAST_DELTA * MU, below, math.ulp(0.0)):
        assert math.isfinite(mass_shift_integral(-delta, params, SPEC))
    assert all(map(math.isfinite, spectral_moments(-LEAST_DELTA * MU, params, SPEC)))


def _record_rule_levels(monkeypatch) -> list[list[int]]:
    # start cold, then record the node count of each level of every moment rule read
    sizes, moment_rules = [], _moment_rules

    def recorded(*args):
        entry = moment_rules(*args)
        sizes.append([rho.size for _, rho in entry[1]])
        return entry

    forget_kept_state()  # before the memo is wrapped, so that it is cleared
    monkeypatch.setattr(leemodel.quadrature, "_moment_rules", recorded)
    return sizes


def _record_amplitude_sizes(monkeypatch) -> list[int]:
    # the node count of every cloud amplitude the norm integral evaluates
    sizes, amplitude = [], leemodel.quadrature.dressing_amplitude

    def recorded(params, g0, m_v, k):
        sizes.append(np.size(k))
        return amplitude(params, g0, m_v, k)

    monkeypatch.setattr(leemodel.quadrature, "dressing_amplitude", recorded)
    return sizes


def test_no_convergence_names_its_context(monkeypatch):
    # both sinh rules resolve delta = 1e-13 mu within 16 panels, so each is
    # held to 2 -> 4 panels here to make it run out: each opens on the
    # patched pair, 2 and 4 panels, and the cap stops it there
    params = exponential_model(lam=40.0)
    spec = default_spec(params)
    m = 2.0 - 1e-13
    monkeypatch.setattr(leemodel.quadrature, "START_PANELS", 2)
    monkeypatch.setattr(leemodel.quadrature, "PANEL_CAP", 4)
    levels = _record_rule_levels(monkeypatch)  # cold: a kept pass at m would skip the refinement
    amplitudes = _record_amplitude_sizes(monkeypatch)
    for what, mass, call, built, want in (
            ("moment(s) (2,)", "m", lambda: z_factor_integral(m, params, spec),
             levels, [[2 * NODES_PER_PANEL, 4 * NODES_PER_PANEL]]),
            ("norm integral", "m_V", lambda: norm_integral(params, 1.0, m, spec),
             amplitudes, [(2 + 4) * NORM_ORDER])):
        with pytest.raises(NoConvergence) as err:
            call()
        assert built == want, (what, built)
        message = str(err.value)
        for part in (what, "exponential", "Lambda = 40.0", f"{mass} = {m!r}",
                     f"delta = {2.0 - m!r}", "4 panels", "changed the estimate by"):
            assert part in message, (part, message)
        assert "inf" not in message.split("changed the estimate by")[1], message


def test_no_convergence_of_a_pass_names_its_values_in_units_of_mu(monkeypatch):
    # a pass runs on the model in units of mu, so at mu = 2^-600 it names
    # Lambda, m and delta over mu, the same values as at mu = 1
    m = 2.0 - 1e-13
    monkeypatch.setattr(leemodel.quadrature, "START_PANELS", 2)
    monkeypatch.setattr(leemodel.quadrature, "PANEL_CAP", 4)
    levels = _record_rule_levels(monkeypatch)
    for mu in (1.0, 2.0 ** -600):
        params = ModelParams(m_n=mu, mu=mu, form_factor=FormFactor.exponential(40.0 * mu))
        levels.clear()
        with pytest.raises(NoConvergence) as err:
            z_factor_integral(m * mu, params, QuadSpec())
        assert levels == [[2 * NODES_PER_PANEL, 4 * NODES_PER_PANEL]], (mu, levels)
        message = str(err.value)
        for part in ("moment(s) (2,)", "exponential", "(Lambda = 40.0)", f"at m = {m!r},",
                     f"delta = {2.0 - m!r}, all in units of mu", "4 panels"):
            assert part in message, (mu, part, message)


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
    # the ladder opens on the patched pair, 8 and 16 panels
    params = sharp_model()
    a = z_factor_integral(1.5, params, SPEC)
    monkeypatch.setattr(leemodel.quadrature, "START_PANELS", 8)
    levels = _record_rule_levels(monkeypatch)  # cold: else b is a's kept pass
    b = z_factor_integral(1.5, params, SPEC)
    assert levels[0] == [8 * NODES_PER_PANEL, 16 * NODES_PER_PANEL], levels
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


@pytest.mark.parametrize("make", ALL_MODELS + (lambda: sharp_model(0.5 * MU),
                                                lambda: exponential_model(40.0)))
@pytest.mark.parametrize("delta", (0.5, 1e-6, 1e-13))
def test_norm_opens_on_one_amplitude_evaluation(monkeypatch, make, delta):
    # the norm opens on the moments' ladder: its 4- and 8-panel pair is one grid of
    # (4 + 8) * 20 nodes and one amplitude evaluation, and only a pair that does
    # not settle refines on, a level per evaluation; its value is, bit for bit, the
    # estimate of each level built and evaluated alone where the levels settle
    params, g0, m_v = make(), 1.3, 2.0 - delta
    kappa = _threshold_scale(params, params.threshold - m_v)

    def alone(panels):
        k, wk = _sinh_panels(upper_momentum(params), kappa, (panels,), NORM_ORDER)
        amp = dressing_amplitude(params, g0, m_v, k)
        return (FOUR_PI * float(np.sum(wk * k * k * amp * amp)),)

    ladder = [START_PANELS, 2 * START_PANELS]
    estimates = [alone(panels) for panels in ladder]
    while not _settled(estimates[-1], estimates[-2], SPEC):
        ladder.append(2 * ladder[-1])
        estimates.append(alone(ladder[-1]))
    sizes = _record_amplitude_sizes(monkeypatch)
    assert norm_integral(params, g0, m_v, SPEC) == estimates[-1][0]
    nodes = 0 if upper_momentum(params) == 0.0 else NORM_ORDER
    assert sizes == [nodes * 3 * START_PANELS] + [nodes * n for n in ladder[2:]]
    if make is sharp_model:
        assert sizes == [240]  # settles at 8 panels
    if params.form_factor.lam == 40.0 and delta == 1e-13:
        assert ladder[-1] > 2 * START_PANELS  # refines past the pair


def test_sharp_moments_match_the_closed_form():
    # the sharp family's I1 and I2 in closed form (helpers.sharp_moments, mpmath),
    # which shares no code with the pass, against the pass on a relative-only spec:
    # 200 seeded points, mu in 10^[-5, 5], Lambda/mu in 10^[0.001, 6] and
    # delta/mu in 10^[-14, 0.29]; measured 4.8e-15 for I1 and 5.2e-16 for I2
    rng, worst = random.Random(1), [0.0, 0.0]
    for _ in range(200):
        mu = 10.0 ** rng.uniform(-5.0, 5.0)
        params = ModelParams(m_n=mu, mu=mu, form_factor=FormFactor.sharp(
            mu * 10.0 ** rng.uniform(0.001, 6.0)))
        m = params.threshold - mu * 10.0 ** rng.uniform(-14.0, 0.29)
        got = spectral_moments(m, params, QuadSpec(1e-300, 1e-13))
        want = sharp_moments(params.threshold - m, mu, params.form_factor.lam)
        worst = [max(w, abs(g - e) / abs(e)) for w, g, e in zip(worst, got, want)]
    assert worst[0] <= 1e-14 and worst[1] <= 4e-15, worst


@pytest.mark.parametrize("delta", (0.5, 1.9, 2.0, 2.5, 10.0))
def test_sharp_closed_form_matches_its_integrals(delta):
    # both branches of helpers.sharp_moments, the near one (delta < 2 mu), the
    # far one (delta > 2 mu) and their limit at delta = 2 mu, against mpmath
    # quadrature of I1 = -2 pi Int sqrt(omega^2 - mu^2)/(omega - a) d omega and
    # I2 = 2 pi Int sqrt(omega^2 - mu^2)/(omega - a)^2 d omega, a = mu - delta
    lam, a = 10.0, MU - delta
    with mpmath.workdps(30):
        want = [float(sign * 2 * mpmath.pi * mpmath.quad(
            lambda w: mpmath.sqrt(w * w - MU * MU) / (w - a) ** n, [MU, lam]))
            for sign, n in ((-1, 1), (1, 2))]
    got = sharp_moments(delta, MU, lam)
    assert all(math.isclose(g, w, rel_tol=1e-15) for g, w in zip(got, want)), (got, want)
    if delta < 2.0:  # the float closed form of the golden checks agrees
        assert all(math.isclose(g, w, rel_tol=1e-14)
                   for g, w in zip(got, sharp_moments_closed_form(lam, delta)))


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
        k, wk = _sinh_panels(2.0, 1.0, (panels,))
        return [FOUR_PI * float(np.sum(wk * k * k * np.sin(1e9 * k) ** 2))]

    with pytest.raises(NoConvergence):
        _refine(estimate, SPEC, lambda: "oscillation", estimate(START_PANELS),
                estimate(2 * START_PANELS))


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
