"""Radial reduction and high-accuracy evaluation of the d^3k integrals.

Every integrand in the one-V sector is spherically symmetric, so

    Int d^3k G(omega_k)  =  4*pi * Int_0^inf k^2 G(omega_k) dk.

Integrals run over k rather than omega; the omega variable has a square-root
endpoint singularity at omega = mu that k does not see.  The sharp form
factor truncates the range exactly at k(Lambda) = sqrt(Lambda^2 - mu^2); the
decaying families are truncated at ``k_max`` (default 40*Lambda, where the
integrands are down by at least f^2/omega^2).

The scheme is composite Gauss-Legendre with the panel count doubled until two
successive estimates agree to tolerance; panels are graded toward k = 0 where
near-threshold integrands peak.  The panel cap is 2**14; if the doubling
sequence exhausts it, NoConvergence is raised.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ModelParams, ensure_stable, vertex_weight
from .errors import NoConvergence

FOUR_PI = 4.0 * math.pi
PANEL_CAP = 2 ** 14


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature controls shared by the continuum integrals.

    ``k_max`` only matters for form factors without compact support; the
    sharp family always integrates up to its exact momentum cutoff.
    """

    panels: int = 4
    nodes_per_panel: int = 24
    k_max: float = 400.0
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        if self.nodes_per_panel < 2:
            raise ValueError("nodes_per_panel must be >= 2")
        if not (math.isfinite(self.k_max) and self.k_max > 0.0):
            raise ValueError("k_max must be positive and finite")
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")


def default_spec(params: ModelParams, **overrides) -> QuadSpec:
    """QuadSpec with k_max = 40 * Lambda, suitable for the decaying families."""
    overrides.setdefault("k_max", 40.0 * params.form_factor.lam)
    return QuadSpec(**overrides)


def upper_momentum(params: ModelParams, spec: QuadSpec) -> float:
    """Integration limit: the exact sharp cutoff, or k_max otherwise."""
    cut = params.form_factor.momentum_cutoff(params.mu)
    return cut if cut is not None else spec.k_max


@functools.cache
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of the given order on [-1, 1] (read-only)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def graded_panels(hi: float, panels: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n composite Gauss-Legendre nodes on [0, hi] and their dk weights.

    Panel edges are hi * (j / panels)^2, graded quadratically toward k = 0:
    masses close to the threshold concentrate the integrand near zero momentum
    (on the scale sqrt(2*mu*(threshold - m))), and doubling graded panels gains
    resolution there much faster than uniform splitting.  Each panel carries
    n // panels nodes and the first n % panels carry one more, so the nodes
    come out strictly increasing.
    """
    edges = hi * np.linspace(0.0, 1.0, panels + 1) ** 2
    order, extra = divmod(n, panels)
    k, wk = [], []
    for m, a, b in ((order + 1, 0, extra), (order, extra, panels)):
        if b > a:
            x, w = _gauss_nodes(m)
            half = 0.5 * (edges[a + 1:b + 1] - edges[a:b])
            mid = 0.5 * (edges[a:b] + edges[a + 1:b + 1])
            k.append((mid[:, None] + half[:, None] * x).ravel())
            wk.append((half[:, None] * w).ravel())
    return np.concatenate(k), np.concatenate(wk)


def _estimate(f, hi: float, panels: int, nodes: int, mu: float) -> float:
    """Composite Gauss-Legendre estimate of 4*pi Int_0^hi k^2 f(omega(k)) dk."""
    k, wk = graded_panels(hi, panels, panels * nodes)
    om = np.sqrt(k * k + mu * mu)
    vals = np.asarray(f(om), dtype=float)
    if vals.shape != k.shape:
        vals = np.broadcast_to(vals, k.shape)
    return FOUR_PI * float(np.sum(wk * k * k * vals))


def radial_integrate(f: Callable, params: ModelParams, spec: QuadSpec) -> float:
    """4*pi Int k^2 f(omega_k) dk over the form factor's momentum range.

    ``f`` receives omega as a numpy array and must evaluate elementwise
    (scalar returns are broadcast).  Refinement doubles the panel count until
    successive estimates differ by less than max(abs_tol, rel_tol*|value|).
    """
    hi = upper_momentum(params, spec)
    if hi <= 0.0:
        return 0.0
    prev = _estimate(f, hi, spec.panels, spec.nodes_per_panel, params.mu)
    panels = spec.panels
    diff = math.inf
    while panels < PANEL_CAP:
        panels = min(2 * panels, PANEL_CAP)
        cur = _estimate(f, hi, panels, spec.nodes_per_panel, params.mu)
        diff = abs(cur - prev)
        if diff <= max(spec.abs_tol, spec.rel_tol * abs(cur)):
            return cur
        prev = cur
    raise NoConvergence(
        f"radial quadrature did not reach tolerance within {PANEL_CAP} panels "
        f"(last refinement changed the estimate by {diff:.3e})"
    )


def mass_shift_integral(m: float, params: ModelParams, spec: QuadSpec) -> float:
    """Int d^3k f^2(omega) / (2*omega) / (m - m_N - omega), without couplings.

    Strictly negative on the stability window (the denominator is negative
    pointwise) and monotone decreasing in m.
    """
    ensure_stable(params, m, label="m")
    ff, mu, m_n = params.form_factor, params.mu, params.m_n

    def integrand(om):
        fval = np.asarray(ff.evaluate(om, mu), dtype=float)
        return fval * fval / (2.0 * om) / (m - m_n - om)

    return radial_integrate(integrand, params, spec)


def z_factor_integral(m: float, params: ModelParams, spec: QuadSpec) -> float:
    """Int d^3k f^2(omega) / (2*omega) / (m - m_N - omega)^2, without couplings.

    Strictly positive wherever the form factor has support, and equal to
    minus the derivative of :func:`mass_shift_integral` with respect to m.
    """
    ensure_stable(params, m, label="m")
    ff, mu, m_n = params.form_factor, params.mu, params.m_n

    def integrand(om):
        fval = np.asarray(ff.evaluate(om, mu), dtype=float)
        den = m - m_n - om
        return fval * fval / (2.0 * om) / (den * den)

    return radial_integrate(integrand, params, spec)


def norm_integral(params: ModelParams, g0: float, m_v: float, spec: QuadSpec) -> float:
    """Int d^3k |Phi(k)|^2: squared norm of the N-theta cloud of the dressed V.

    Evaluated directly from the squared amplitude; analytically it equals
    (g0^2 / (2 pi)^3) * z_factor_integral(m_v), and the two routes agreeing
    is one of the package's consistency checks.
    """
    ensure_stable(params, m_v)
    ff, mu, m_n = params.form_factor, params.mu, params.m_n

    def integrand(om):
        amp = np.asarray(vertex_weight(g0, ff, om, mu), dtype=float) / (m_v - m_n - om)
        return amp * amp

    return radial_integrate(integrand, params, spec)
