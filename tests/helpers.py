"""Shared fixtures: reference models, frozen golden values, brute-force oracles.

The golden constants below are for the reference sharp model
(mu = 1, m_N = 1, Lambda = 10) unless their comment names another family,
and were frozen from a 50-digit
arbitrary-precision evaluation of the defining integrals, independent of the
package's own quadrature.  I1/I2 denote the radial integrals of
f^2/(2 omega) (m - m_N - omega)^(-1) and its squared-denominator partner.
"""

import math

import mpmath
import numpy as np

import leemodel.quadrature
import leemodel.renorm
from leemodel import (BareCoupling, FormFactor, ModelParams, QuadSpec, all_eigenvalues,
                      build_arrowhead, build_grid, default_spec, dense_cross_check,
                      lowest_eigenpair, mass_shift_integral, norm_integral, solve_physical_mass,
                      z_factor_integral, z_from_bare)

MU = 1.0
M_N = 1.0
LAMBDA = 10.0
SHARP_K_CUT = math.sqrt(LAMBDA ** 2 - MU ** 2)

# vertex weight at omega = 2 for g0 = 1, below a sharp cutoff: 1/(2 (2 pi)^{3/2})
VERTEX_AT_W2 = 0.031746817967120484893

# cloud amplitude at k = 1 for m_V = 1.5, g0 = 1, sharp Lambda = 10
PHI_AT_K1 = -0.041296195286357495439

# Int d^3k f^2/(2 omega), sharp Lambda = 10  (= pi (K Lambda - asinh K))
RADIAL_F2_OVER_2W = 303.18103537888159869

# I1 and I2 at m = 1.5
I1_AT_15 = -61.00820154574959768
I2_AT_15 = 19.501040232836567381

# (g0^2/(2 pi)^3) I1(1.5) for g0 = 1
MASS_SHIFT_G1 = -0.24595101410753968134

# 1 / (1 + I2(1.5)/(2 pi)^3)  and  I2(1.5)/(2 pi)^3
Z_BARE_G1 = 0.92711288037353865888
X_AT_G1 = 0.078617308819067142093

# critical renormalized coupling at m_V = 1.5
G_CRIT_15 = 3.566489201252739713

# root of m = 1.8 + I1(m)/(2 pi)^3 (bare point m_V0 = 1.8, g0 = 1)
M_V_FROM_MV0_18 = 1.5499962074442519557

# bare image of the renormalized point (m_V = 1.5, g = g_crit/2), i.e. x = 1/4
BFR_G0 = 2.0591135004051626517
BFR_M_V0 = 2.5428196106007676529

# I2 for the exponential family, Lambda = 10, at the float m = 2 - 1e-8, i.e.
# delta = 2 - m = 9.99999993922529e-9 exactly; the integrand peaks on the
# scale sqrt(2 mu delta) ~ 1.4e-4, and its tail beyond 40 Lambda = 400 is ~1e-36
M_NEAR_THRESHOLD = 2.0 - 1e-8
I2_EXP10_NEAR_THRESHOLD = 114270.81922153062314684727081578769283396302703245

# I1 and I2 far from the threshold, keyed (family, Lambda, delta) with m_N = mu = 1:
# 4 pi Int_0^(40 Lambda) k^2 f^2 / (2 omega) (-(delta + k^2/(omega + mu)))^(-n) dk, at
# 60 digits in mpmath on dyadic pieces of the momentum range, where Gauss-Legendre and
# tanh-sinh agreed to 1e-53
FAR_THRESHOLD_MOMENTS = {
    ("exponential", 1e3, 1e4): (-143.35901273075003569810540676068487034013358164302,
                                0.013130636932658874100808094912217952490312316488306),
    ("exponential", 1e3, 1e6): (-1.5692079923888645040322272336695092268215135612143,
                                1.5676434604459948130966726958914732097935715853824e-6),
    ("exponential", 1e5, 1e4): (-220334.36975255953905159041402566289492963226789308,
                                4.9767398431259489314116293386800729205790857740765),
    ("exponential", 1e5, 1e6): (-14334.814511448692988767105026836268671838619570477,
                                0.01312845965636848364828334161369372023850422431805),
    ("dipole", 1e3, 1e4): (-277.33448738084906792315179348043017959548850589492,
                           0.024783454832980991331104963655246900886551707378587),
    ("dipole", 1e3, 1e6): (-3.1348547976204694377467777679887435762002998978017,
                           3.1301195195929676185940412282048978862367896098269e-6),
    ("dipole", 1e5, 1e4): (-368203.02511060863313093916425044820919669699486003,
                           7.2772102962547518136916404882177861230677533712601),
    ("dipole", 1e5, 1e6): (-27731.202609848532932526255964782571285317268778037,
                           0.024779239993559623183777437598030429288315848830958),
}

# bare pair whose physical point is exactly (m_V = 1.5, Z_V = 0.7)
ACC_G0 = 2.3348152471404674888
ACC_M_V0 = 2.8407680707724155538


def sharp_model(lam: float = LAMBDA) -> ModelParams:
    return ModelParams(m_n=M_N, mu=MU, form_factor=FormFactor.sharp(lam))


def exponential_model(lam: float = LAMBDA) -> ModelParams:
    return ModelParams(m_n=M_N, mu=MU, form_factor=FormFactor.exponential(lam))


def dipole_model(lam: float = LAMBDA) -> ModelParams:
    return ModelParams(m_n=M_N, mu=MU, form_factor=FormFactor.dipole(lam))


ALL_MODELS = (sharp_model, exponential_model, dipole_model)

SPEC = QuadSpec()  # tolerances only; the momentum range comes from the model

ACC_BARE = BareCoupling(m_v0=ACC_M_V0, g0=ACC_G0)


def forget_kept_state() -> None:
    """Start cold: clear every memo the package keeps (Gauss nodes, moment
    rules, refined passes), all of which live in :mod:`leemodel.quadrature`."""
    for kept in vars(leemodel.quadrature).values():
        if hasattr(kept, "cache_clear"):
            kept.cache_clear()


def record_refined_passes(monkeypatch) -> list[float]:
    """Start cold, then record the delta, in units of mu, of every refined moment pass
    the package runs: each call of quadrature._moment_pass that its memo misses."""
    forget_kept_state()
    kept, deltas = leemodel.quadrature._moment_pass, []

    def recorded(delta, unit, spec, orders):
        misses = kept.cache_info().misses
        result = kept(delta, unit, spec, orders)
        if kept.cache_info().misses > misses:
            deltas.append(delta)
        return result

    for module in (leemodel.quadrature, leemodel.renorm):
        monkeypatch.setattr(module, "_moment_pass", recorded)
    return deltas


def sharp_moments_closed_form(lam: float, delta: float, mu: float = MU) -> tuple[float, float]:
    """I1 and I2 of the sharp family at delta = m_N + mu - m, 0 < delta <= 2 mu.

    With E = m - m_N = mu - delta, K = sqrt(Lambda^2 - mu^2), T = acosh(Lambda/mu)
    and tau = tanh(T/2) (from k dk = omega d omega and omega = mu cosh t):

        I1 = -2 pi [K + E T - 2 sqrt(mu^2 - E^2) arctan(sqrt((mu+E)/(mu-E)) tau)]
        I2 = -dI1/dm = 2 pi [T + 2 E A / sqrt(mu^2 - E^2)
                             - 2 mu tau / ((mu - E) + (mu + E) tau^2)]

    where A is the arctan.  Plain float64, sharing no code with the package's
    quadrature; delta enters directly, so nothing cancels near the threshold,
    where arctan(x) is taken as pi/2 - arctan(1/x).
    """
    e = mu - delta
    big_k = math.sqrt(lam * lam - mu * mu)
    t = math.acosh(lam / mu)
    tau = math.tanh(0.5 * t)
    s = math.sqrt(delta * (2.0 * mu - delta))  # sqrt(mu^2 - E^2)
    if (2.0 * mu - delta) * tau * tau > delta:
        a = 0.5 * math.pi - math.atan(math.sqrt(delta / (2.0 * mu - delta)) / tau)
    else:
        a = math.atan(math.sqrt((2.0 * mu - delta) / delta) * tau)
    # at E = -mu, A and s vanish together and A/s -> tau/delta
    a_over_s = a / s if s > 0.0 else tau / delta
    i1 = -2.0 * math.pi * (big_k + e * t - 2.0 * s * a)
    i2 = 2.0 * math.pi * (t + 2.0 * e * a_over_s
                          - 2.0 * mu * tau / (delta + (2.0 * mu - delta) * tau * tau))
    return i1, i2


def sharp_moments(delta: float, mu: float, lam: float) -> tuple[float, float]:
    """I1 and I2 of the sharp family at delta = m_N + mu - m > 0, in closed form.

    With a = m - m_N = mu - delta, R = sqrt(Lambda^2 - mu^2), A = acosh(Lambda/mu) and
    J = Int_mu^Lambda d omega / (sqrt(omega^2 - mu^2) (omega - a)) (omega = mu cosh t):

        I1 = -2 pi [R + a A - delta (2 mu - delta) J]
        I2 = -dI1/dm = 2 pi [A + a J - R / (Lambda - a)]

    For delta < 2 mu, J = theta / sqrt(delta (2 mu - delta)) with
    theta = 2 atan2(sqrt((2 mu - delta)(Lambda - mu)), sqrt(delta (Lambda + mu))), both
    halves of the angle formed from delta and 2 mu - delta, so nothing cancels near the
    threshold; for delta > 2 mu, J = 2 atanh(t) / sqrt(delta (delta - 2 mu)) with
    t = sqrt((delta - 2 mu)(Lambda - mu) / (delta (Lambda + mu))); at delta = 2 mu,
    J = tanh(A/2) / mu.  The far branch's terms grow as delta while I1 falls as 1/delta,
    so it is evaluated in mpmath at 50 digits beyond the 2 log10(delta / mu) it cancels.
    Shares no code with the package's quadrature; Lambda <= mu gives zeros.
    """
    if lam <= mu:
        return 0.0, 0.0
    with mpmath.workdps(50 + 2 * max(0, math.ceil(math.log10(delta / mu)))):
        d, mu, lam = mpmath.mpf(delta), mpmath.mpf(mu), mpmath.mpf(lam)
        a, r, big_a = mu - d, mpmath.sqrt(lam * lam - mu * mu), mpmath.acosh(lam / mu)
        if d < 2 * mu:
            theta = 2 * mpmath.atan2(mpmath.sqrt((2 * mu - d) * (lam - mu)),
                                     mpmath.sqrt(d * (lam + mu)))
            j = theta / mpmath.sqrt(d * (2 * mu - d))
        elif d > 2 * mu:
            t = mpmath.sqrt((d - 2 * mu) * (lam - mu) / (d * (lam + mu)))
            j = 2 * mpmath.atanh(t) / mpmath.sqrt(d * (d - 2 * mu))
        else:
            j = mpmath.tanh(big_a / 2) / mu
        i1 = -2 * mpmath.pi * (r + a * big_a - d * (2 * mu - d) * j)
        i2 = 2 * mpmath.pi * (big_a + a * j - r / (lam - a))
        return float(i1), float(i2)


def dipole_moments_reference(lam: float, delta: float, mu: float = MU,
                             panels: int = 64, order: int = 24) -> tuple[float, float]:
    """I1 and I2 of the dipole family at delta = m_N + mu - m, summed in k.

    Gauss-Legendre panels of the given order on dyadic pieces
    [2^-j, 2^(1-j)] * 40 Lambda of the momentum range (the last one reaching
    down to 0), so every scale from Lambda down to kappa = sqrt(2 mu delta)
    is resolved on a panel of its own size; f = Lambda^2/(Lambda^2 + k^2) and
    the denominator -(delta + k^2/(omega + mu)) are written in k, so nothing
    cancels for Lambda << mu.  Plain float64 and no sinh map, sharing no code
    with the package's quadrature.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    edges = 40.0 * lam * 2.0 ** -np.arange(panels, -1, -1.0)
    edges[0] = 0.0
    lo, hi = edges[:-1, None], edges[1:, None]
    k = (0.5 * (lo + hi) + 0.5 * (hi - lo) * x).ravel()
    wk = (0.5 * (hi - lo) * w).ravel()
    om = np.sqrt(k * k + mu * mu)
    f = lam * lam / (lam * lam + k * k)
    rho = wk * k * k * f * f / (2.0 * om)
    inv = -1.0 / (delta + k * k / (om + mu))
    return (4.0 * math.pi * float(np.sum(rho * inv)),
            4.0 * math.pi * float(np.sum(rho * inv * inv)))


def riemann_radial(f, k_hi: float, mu: float = MU, n: int = 10_000_000,
                   chunks: int = 25) -> float:
    """Brute-force midpoint Riemann sum of 4 pi Int_0^k_hi k^2 f(omega(k)) dk.

    Deliberately naive (uniform nodes, plain summation) so that it shares no
    machinery with the package quadrature it cross-checks.
    """
    dk = k_hi / n
    total = 0.0
    bounds = np.linspace(0, n, chunks + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        k = (np.arange(lo, hi) + 0.5) * dk
        om = np.sqrt(k * k + mu * mu)
        vals = np.asarray(f(om), dtype=float)
        if vals.shape != k.shape:
            vals = np.broadcast_to(vals, k.shape)
        total += float(np.sum(k * k * vals))
    return 4.0 * math.pi * total * dk


def random_arrowhead(seed: int, n_max: int = 32):
    """Deterministic random arrowhead with distinct diagonal and nonzero couplings."""
    from leemodel import ArrowheadMatrix

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    diag = np.sort(rng.uniform(0.0, 10.0, n))
    assert np.all(np.diff(diag) > 1e-9), "degenerate diagonal draw"
    coupling = rng.uniform(0.1, 1.0, n)
    apex = float(rng.uniform(-5.0, 15.0))
    return ArrowheadMatrix(apex=apex, diag=diag, coupling=coupling)


# The acceptance checks that compare two independent routes to one quantity, each as its
# measured discrepancy against its bound: (holds, detail).  tests/test_acceptance.py runs
# them as criteria c1, c3, c4 and c5, and tests/test_mutations.py runs them on perturbed
# code, where each must fail.


def derivative_identity_check() -> tuple[bool, str]:
    """c1: I2 = -dI1/dm by central differences (h = 1e-5 mu) at ten masses of each family,
    to a worst relative error below 1e-6."""
    h, worst = 1e-5 * MU, 0.0
    for make in ALL_MODELS:
        params = make()
        spec = default_spec(params)
        for m in np.linspace(0.1, 1.9, 10):
            fd = -(mass_shift_integral(m + h, params, spec)
                   - mass_shift_integral(m - h, params, spec)) / (2.0 * h)
            i2 = z_factor_integral(m, params, spec)
            worst = max(worst, abs(i2 - fd) / abs(i2))
    return worst < 1e-6, f"worst relative error {worst:.3e} < 1e-6"


def norm_condition_check() -> tuple[bool, str]:
    """c3: Z (1 + cloud) = 1, Z from I2 and the cloud from the norm integral, at ten seeded
    points of the three families, to a worst deviation below 1e-9."""
    rng, worst = np.random.default_rng(7041955), 0.0
    for i in range(10):
        params = ALL_MODELS[i % 3]()
        spec = default_spec(params)
        m_v = float(rng.uniform(1.05, 1.9))
        g0 = float(rng.uniform(0.1, 2.5))
        z = z_from_bare(params, g0, m_v, spec)
        cloud = norm_integral(params, g0, m_v, spec)
        worst = max(worst, abs(z * (1.0 + cloud) - 1.0))
    return worst < 1e-9, f"worst deviation {worst:.3e} < 1e-9"


def oracle_check() -> tuple[bool, str]:
    """c4: the lowest eigenpair of the 4096-point "gauss" arrowhead against the continuum
    solve at (m_V, Z) = (1.5, 0.7) of the sharp model: |dm| < 1e-5 mu and |dZ| < 1e-4."""
    params = sharp_model()
    m_v = solve_physical_mass(params, ACC_BARE, SPEC)
    z = z_from_bare(params, ACC_BARE.g0, m_v, SPEC)
    pair = lowest_eigenpair(build_arrowhead(params, ACC_BARE,
                                            build_grid(SHARP_K_CUT, 4096, "gauss")))
    mass_err, z_err = abs(pair.energy - m_v), abs(pair.apex_weight - z)
    return (mass_err < 1e-5 * MU and z_err < 1e-4 and abs(z - 0.7) < 1e-9,
            f"Z = {z:.6f}, |dm| = {mass_err:.3e} < 1e-5, |dZ| = {z_err:.3e} < 1e-4")


def eigensolver_check() -> tuple[bool, str]:
    """c5: the secular roots of 100 seeded arrowheads against LAPACK's dense eigenvalues,
    to a worst gap below 1e-9, and interlacing the diagonal strictly."""
    worst, interlaced = 0.0, True
    for seed in range(100):
        mat = random_arrowhead(seed, n_max=32)
        secular = all_eigenvalues(mat)
        worst = max(worst, float(np.max(np.abs(secular - dense_cross_check(mat)))))
        interlaced &= bool(np.all(secular[:-1] < mat.diag) and np.all(mat.diag < secular[1:]))
    return (worst < 1e-9 and interlaced,
            f"worst eigenvalue gap {worst:.3e} < 1e-9, interlacing {interlaced}")
