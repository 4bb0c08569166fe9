"""Independent reference for the benchmark's correctness checks.

I1 and I2 are evaluated with mpmath at 25 significant digits, in momentum
space, with the energy denominator written as -(delta + k^2/(omega + mu)) and
delta = m_N + mu - m taken exactly from the float m the package reported, so
nothing cancels near threshold.  Breakpoints sit at sqrt(2 mu delta) * 8^j,
the scale on which near-threshold integrands vary.  The upper limit is the
one the package integrates to: the exact sharp cutoff, or k_max = 40*Lambda.

The reference shares no code with the package.  ``self_test`` pins it to the
50-digit golden constants in ``tests/helpers.py`` before any check is trusted.
"""

from __future__ import annotations

import ast
import math
import os

import mpmath as mp

from workloads import M_N, MU, TWO_PI_CUBED, integration_limit

DIGITS = 25

# Tolerances of the continuum checks.  The package converges each integral to
# 1e-10 (relative, by panel doubling) and the mass root to 1e-12, so 1e-8
# leaves a factor of 100.  The known near-threshold defect (the float
# cancellation in m - m_N - omega) exceeds it: on 605 sampled points the worst
# were |dx|/x = 2.9e-8 (at delta ~ 1e-9 mu) and |dZ| = 5.3e-9.  A point
# outside these tolerances counts as failed.  A point off by more than
# GROSS times a tolerance, or a wrong regime label, is a wrong answer that no
# known defect explains, and makes the run incorrect.
MASS_RTOL = 1e-8    # |m_V - m_V0 - g0^2 I1/(2pi)^3| / (|m_V| + |g0^2 I1/(2pi)^3|)
Z_TOL = 1e-8        # |Z (1 + g0^2 I2/(2pi)^3) - 1|
X_RTOL = 1e-8       # |x - g^2 I2/(2pi)^3| / x_ref
GROSS = 1e3
REGIME_BAND = 1e-6  # labels are only compared where |x_ref - 1| exceeds this

# Top rung of the oracle ladder against the continuum, per family and grid
# scheme, for the oracle-ladder input ranges (Lambda in [1.5, 12], m_V0 0.03
# to 1 mu below threshold, g0 in [0.5, 2], top n in [256, 4096], k_max as in
# --validate-oracle: the sharp cutoff, else 40*Lambda).  Gauss-Legendre grids
# reach 1e-12 there.  The uniform midpoint grid reaches about 1e-7 for the
# sharp family but, spread over 40*Lambda, leaves only a few nodes inside
# the bound state's momentum scale for the decaying families: at n = 256 and
# Lambda = 12 it misses by up to 1.7e-2, so its bound there only catches gross
# errors.  Each bound is at least three times the worst error over a grid of
# the range's corners and 600 sampled jobs.
ORACLE_TOL = {  # (family, scheme): (|m_V(n) - m_V| / mu, |Z(n) - Z|)
    ("sharp", "gauss"): (1e-8, 1e-8),
    ("exponential", "gauss"): (1e-8, 1e-8),
    ("dipole", "gauss"): (1e-8, 1e-8),
    ("sharp", "uniform"): (1e-6, 1e-6),
    ("exponential", "uniform"): (5e-2, 5e-2),
    ("dipole", "uniform"): (5e-2, 5e-2),
}
# secular bisection against dense Jacobi, relative to max(1, |lambda|)
SPECTRUM_TOL = 1e-9


class ReferenceError(RuntimeError):
    """The reference itself could not reach its own accuracy."""


def radial(order: int, family: str, lam: float, m: float) -> mp.mpf:
    """I_order(m) = 4 pi Int_0^K k^2 f^2/(2 omega) (m - m_N - omega)^-order dk."""
    with mp.workdps(DIGITS):
        mu, lam_ = mp.mpf(MU), mp.mpf(lam)
        delta = mp.mpf(M_N) + mu - mp.mpf(m)
        if not delta > 0:
            raise ValueError(f"m = {m!r} is not below threshold")
        k_hi = (mp.sqrt(lam_ * lam_ - mu * mu) if family == "sharp"
                else mp.mpf(integration_limit(family, lam)))

        def integrand(k):
            om = mp.sqrt(k * k + mu * mu)
            if family == "sharp":
                f2 = 1
            elif family == "exponential":
                f2 = mp.exp(-2 * om / lam_)
            else:
                f2 = (lam_ * lam_ / (lam_ * lam_ + k * k)) ** 2
            den = -(delta + k * k / (om + mu))
            return k * k * f2 / (2 * om) / den ** order

        points = [mp.mpf(0)]
        edge = mp.sqrt(2 * mu * delta)
        while edge < k_hi:
            points.append(edge)
            edge *= 8
        points.append(k_hi)
        value, err = mp.quad(integrand, points, error=True)
        if not abs(err) <= mp.mpf(10) ** (-18) * abs(value):
            raise ReferenceError(f"I{order} reference for {family} Lambda={lam} m={m} "
                                 f"has error estimate {mp.nstr(err, 3)}")
        return 4 * mp.pi * value


def golden_constants(root: str) -> dict[str, str]:
    """Literal text of the golden constants in tests/helpers.py (not imported)."""
    path = os.path.join(root, "tests", "helpers.py")
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    wanted = {"I1_AT_15", "I2_AT_15", "M_V_FROM_MV0_18", "LAMBDA", "MU", "M_N"}
    found = {}
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id in wanted):
            found[node.targets[0].id] = ast.get_source_segment(source, node.value)
    missing = wanted - set(found)
    if missing:
        raise ReferenceError(f"{path} lacks {sorted(missing)}")
    return found


def self_test(root: str) -> list[str]:
    """Compare the reference with the golden constants; return the failures."""
    gold = golden_constants(root)
    if (float(gold["MU"]), float(gold["M_N"])) != (MU, M_N):
        return [f"golden model has mu={gold['MU']}, m_N={gold['M_N']}, not {MU}, {M_N}"]
    lam = float(gold["LAMBDA"])
    failures = []
    with mp.workdps(DIGITS):
        for name, order in (("I1_AT_15", 1), ("I2_AT_15", 2)):
            want = mp.mpf(gold[name])
            got = radial(order, "sharp", lam, 1.5)
            if abs(got - want) > mp.mpf(10) ** -17 * abs(want):
                failures.append(f"{name}: reference {mp.nstr(got, 20)} != golden {gold[name]}")
        # bare point m_V0 = 1.8, g0 = 1: root of m - 1.8 - I1(m)/(2 pi)^3
        want = mp.mpf(gold["M_V_FROM_MV0_18"])
        got = mp.findroot(lambda m: m - mp.mpf("1.8") - radial(1, "sharp", lam, m)
                          / (8 * mp.pi ** 3), (mp.mpf("1.5"), mp.mpf("1.6")),
                          solver="secant", tol=mp.mpf(10) ** -40)
        if abs(got - want) > mp.mpf(10) ** -17:
            failures.append(f"M_V_FROM_MV0_18: reference {mp.nstr(got, 20)} "
                            f"!= golden {gold['M_V_FROM_MV0_18']}")
    return failures


def _regime(x_ref: float) -> str | None:
    if abs(x_ref - 1.0) <= REGIME_BAND:
        return None
    return "Ghost" if x_ref > 1.0 else "Normal"


def check_continuum(point: dict) -> list[tuple[float, str]]:
    """Reference checks of one successful point: (error / tolerance, message) per miss."""
    out, family, lam = point["out"], point["family"], point["lam"]
    m_v = out["m_v"]
    misses = []

    def within(err, tol, what):
        if not abs(err) <= tol:
            misses.append((abs(err) / tol if tol > 0 else math.inf, f"{what} = {err:.3e}"))

    if point["mode"] == "bare":
        g_sq, g0_sq, m_v0 = out["g_sq"], point["g0"] ** 2, point["m_v0_in"]
    else:
        g_sq, g0_sq, m_v0 = point["g"] ** 2, out["g0_sq"], out["m_v0"]
    free = g_sq == 0.0 and (g0_sq or 0.0) == 0.0
    i2 = 0.0 if free else float(radial(2, family, lam, m_v))
    if g0_sq is not None:  # a bare theory exists: check the two bare relations
        shift = 0.0 if free else g0_sq * float(radial(1, family, lam, m_v)) / TWO_PI_CUBED
        within(m_v - m_v0 - shift, MASS_RTOL * (abs(m_v) + abs(shift)),
               "mass fixed-point residual")
        within(out["z_standard"] * (1.0 + g0_sq * i2 / TWO_PI_CUBED) - 1.0, Z_TOL,
               "Z (1 + g0^2 I2/(2pi)^3) - 1")
    if "x" in out:
        x_ref = g_sq * i2 / TWO_PI_CUBED
        within(out["x"] - x_ref, X_RTOL * x_ref, "x - g^2 I2/(2pi)^3")
        want = _regime(x_ref)
        if want is not None and out["regime"] != want:
            misses.append((math.inf, f"regime {out['regime']} but x_ref = {x_ref!r}"))
        if point["mode"] == "ren" and out["z_standard"] != 1.0 - out["x"]:
            misses.append((math.inf, "z_standard != 1 - x"))
        if out["z_regularized"] != max(out["z_standard"], 0.0):
            misses.append((math.inf, "z_regularized != max(z_standard, 0)"))
    where = f"{family} Lambda={lam!r} m_V={m_v!r}"
    return [(ratio, f"{where}: {msg}") for ratio, msg in misses]


def check_oracle(point: dict) -> list[tuple[float, str]]:
    """Ladder-top and spectrum checks of one oracle-ladder job.

    The oracle bounds already include the known errors of the grids, so any
    miss is reported as a wrong answer (ratio inf).
    """
    o, family = point["oracle"], point["family"]
    tol_m, tol_z = ORACLE_TOL[family, point["scheme"]]
    bad = []
    if not o["top_mass_err"] <= tol_m * MU:
        bad.append(f"top rung |dm| = {o['top_mass_err']:.3e} > {tol_m:g}")
    if not o["top_z_err"] <= tol_z:
        bad.append(f"top rung |dZ| = {o['top_z_err']:.3e} > {tol_z:g}")
    if not o["spectrum_gap"] <= SPECTRUM_TOL * o["spectrum_scale"]:
        bad.append(f"secular vs dense gap {o['spectrum_gap']:.3e}")
    if not o["interlaced"]:
        bad.append("spectrum does not interlace the diagonal")
    where = f"{family} Lambda={point['lam']!r} n={point['n']} {point['scheme']}"
    return [(math.inf, f"{where}: {msg}") for msg in bad]
