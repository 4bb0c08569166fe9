"""Property tests of the renormalization chain over the stability window.

Each example fixes a physical mass m_V = threshold - delta and a dressing
s = (g0^2/(2 pi)^3) I2(m_V) = 1/Z_V - 1, and builds the bare pair from the
forward relations: g0 from s, then m_V0 = m_V - (g0^2/(2 pi)^3) I1(m_V).
Near the threshold m_V0 lands above it, far below it for weak dressing
m_V0 stays below, so both branches of the mass solve are exercised.
"""

import math
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from leemodel import (
    FORM_FACTOR_KINDS,
    TWO_PI_CUBED,
    BareCoupling,
    FormFactor,
    ModelParams,
    NoBoundState,
    QuadSpec,
    Regime,
    RenCoupling,
    bare_from_renormalized,
    default_spec,
    full_report,
    mass_shift,
    spectral_moments,
)
from leemodel.renorm import ROOT_TOL

from helpers import M_N, MU, sharp_moments_closed_form


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(FORM_FACTOR_KINDS),
       lam=st.floats(1.5, 40.0),
       log_delta=st.floats(-9.0, math.log10(2.0)),
       log_s=st.floats(-2.0, 2.0))
def test_bare_round_trip_and_mass_residual(family, lam, log_delta, log_s):
    params = ModelParams(m_n=M_N, mu=MU, form_factor=FormFactor(family, lam))
    spec = default_spec(params)
    m_v = params.threshold - 10.0 ** log_delta
    i1, i2 = spectral_moments(m_v, params, spec)
    g0 = math.sqrt(10.0 ** log_s * TWO_PI_CUBED / i2)
    bare = BareCoupling(m_v0=m_v - g0 * g0 / TWO_PI_CUBED * i1, g0=g0)

    report = full_report(params, bare, spec)
    assert report.regime is Regime.NORMAL
    assert abs(report.m_v - m_v) <= 1e-11
    # Newton stops once a step moves m by at most 1e-12 * max(1, |m|), and a
    # step is F / F' with F' = 1/Z
    residual = report.m_v - bare.m_v0 - mass_shift(params, g0, report.m_v, spec)
    assert abs(residual) * report.z_standard <= 1e-11

    back = bare_from_renormalized(
        params, RenCoupling(m_v=report.m_v, g=math.sqrt(report.g_sq)), spec)
    assert abs(back.m_v0 - bare.m_v0) <= 1e-8 * max(1.0, abs(bare.m_v0))
    assert abs(back.g0 - bare.g0) <= 1e-8 * bare.g0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(1.5, 40.0),
       log_delta=st.floats(-14.0, math.log10(1.9)),
       log_s=st.floats(-2.0, 2.0))
def test_sharp_bare_solve_matches_closed_form(lam, log_delta, log_s):
    # the bare pair and both checks come from the closed form, which shares
    # no code with the quadrature the solve runs on
    params = ModelParams(m_n=M_N, mu=MU, form_factor=FormFactor.sharp(lam))
    delta = 10.0 ** log_delta
    i1, i2 = sharp_moments_closed_form(lam, delta)
    g0 = math.sqrt(10.0 ** log_s * TWO_PI_CUBED / i2)
    c = g0 * g0 / TWO_PI_CUBED
    bare = BareCoupling(m_v0=params.threshold - delta - c * i1, g0=g0)

    report = full_report(params, bare, QuadSpec())
    i1_cf, i2_cf = sharp_moments_closed_form(lam, params.threshold - report.m_v)
    residual = report.m_v - bare.m_v0 - c * i1_cf
    assert abs(residual) * report.z_standard <= 1e-11
    assert abs(report.z_standard - 1.0 / (1.0 + c * i2_cf)) <= 1e-11


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(1.5, 40.0),
       log_delta=st.floats(-14.0, math.log10(2.0)),
       log_s=st.floats(-2.0, 2.0))
def test_sharp_bare_solve_stops_relative_to_delta(lam, log_delta, log_s):
    # the bare pair is built from the closed form at m_V = threshold - delta,
    # and the solve must return m_V to ROOT_TOL relative to delta (capped at
    # max(1, |m|)) plus 4 ulp and the rounding floor of F: 8 eps (|m - m_V0|
    # + |c I1|) / (1 + s) for the stop, as much again for building the pair
    params = ModelParams(m_n=M_N, mu=MU, form_factor=FormFactor.sharp(lam))
    delta = 10.0 ** log_delta
    m_v = params.threshold - delta
    i1, i2 = sharp_moments_closed_form(lam, delta)
    g0 = math.sqrt(10.0 ** log_s * TWO_PI_CUBED / i2)
    c = g0 * g0 / TWO_PI_CUBED
    bare = BareCoupling(m_v0=m_v - c * i1, g0=g0)

    report = full_report(params, bare, QuadSpec())
    floor = 16.0 * sys.float_info.epsilon * (abs(m_v - bare.m_v0) + abs(c * i1)) / (1.0 + c * i2)
    bound = ROOT_TOL * min(delta, max(1.0, abs(m_v))) + 4.0 * math.ulp(m_v) + floor
    assert abs(report.m_v - m_v) <= bound


def _bare_z(m_n, mu, family, lam, m_v0, g0):
    """(Z, delta, m_V) of a bare point, or None when it has no bound state."""
    params = ModelParams(m_n=m_n, mu=mu, form_factor=FormFactor(family, lam))
    try:
        report = full_report(params, BareCoupling(m_v0=m_v0, g0=g0), QuadSpec())
    except NoBoundState:
        return None
    return report.z_standard, params.threshold - report.m_v, report.m_v


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(FORM_FACTOR_KINDS),
       lam=st.floats(1.5, 40.0),
       log_delta0=st.floats(-8.0, math.log10(2.0)),
       side=st.sampled_from((-1.0, -1.0, -1.0, 1.0)),
       log_g0=st.floats(-1.0, math.log10(3.2)))
# roots within about 1e-5 mu of the threshold, from m_V0 above it: scaled by
# 1e-3, Z moves by 4.0e-11 and 1.7e-12, beyond the 1e-12 floor alone
@example(family="exponential", lam=2.8987156915507977, log_delta0=-1.6310859229430663,
         side=1.0, log_g0=-0.13787402102779153)
@example(family="dipole", lam=19.055813280220736, log_delta0=-1.21087660874307,
         side=1.0, log_g0=-0.43611484439538806)
def test_bare_solve_is_covariant_under_scale_and_shift(family, lam, log_delta0, side, log_g0):
    # physics depends on m - m_N, and on mu only through scale; a quarter of
    # the points start above the threshold.  The solve runs in units of mu,
    # so a power-of-two scale moves no bit: m_V scales exactly and Z stays.
    # delta0 is a multiple of 2^-33, so m_V0 - m_N is exact for m_N up to
    # 2^20.  Each solve stops within about 4 ulp(m) of its root, and
    # |d ln Z / d ln delta| <= 2 (1 - Z) <= 2, so Z can move by
    # 16 ulp(threshold) / delta: the reported m_V fixes delta no better than
    # an ulp of the threshold, whatever the scale or the shift
    delta0 = math.ldexp(round(math.ldexp(10.0 ** log_delta0, 33)), -33)
    g0 = 10.0 ** log_g0
    base = _bare_z(M_N, MU, family, lam, M_N + MU + side * delta0, g0)
    for s in (2.0 ** 10, 2.0 ** -10):
        scaled = _bare_z(M_N * s, MU * s, family, lam * s, (M_N + MU + side * delta0) * s, g0)
        assert (scaled is None) == (base is None), s
        if base is not None:
            assert scaled[2] == s * base[2] and scaled[0] == base[0], s
    for s in (1e3, 1e-3):
        scaled = _bare_z(M_N * s, MU * s, family, lam * s, (M_N + MU + side * delta0) * s, g0)
        assert (scaled is None) == (base is None), s
        if base is not None:
            assert abs(scaled[0] - base[0]) <= 1e-12 + 16.0 * math.ulp(M_N + MU) / base[1], s
    for m_n in (1e3, 1e6):
        shifted = _bare_z(m_n, MU, family, lam, m_n + MU + side * delta0, g0)
        assert (shifted is None) == (base is None), m_n
        if base is not None:
            assert abs(shifted[0] - base[0]) <= 16.0 * math.ulp(m_n) / base[1], m_n
