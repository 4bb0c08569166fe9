"""Radial reduction and high-accuracy evaluation of the d^3k integrals.

Every integrand in the one-V sector is spherically symmetric, so

    Int d^3k G(omega_k)  =  4*pi * Int_0^inf k^2 G(omega_k) dk.

Integrals run over k rather than omega; the omega variable has a square-root
endpoint singularity at omega = mu that k does not see.  The sharp form
factor truncates the range exactly at k(Lambda) = sqrt(Lambda^2 - mu^2).  For
the decaying families the truncation at 40*Lambda is part of the model
definition, not a free accuracy knob: the dipole tail beyond it is 7e-6 of I1,
far above the quadrature tolerance, so moving it would change the answer
rather than refine it.  :func:`upper_momentum` is the one place it is set.

I1, I2 and the norm of the cloud all peak, near the N+theta threshold, on
the scale kappa = sqrt(2*mu*delta), delta = m_N + mu - m.  So one rule serves
them: it maps k = kappa*sinh(u) (the sinh transformation of Johnston &
Elliott, IJNME 62 (2005) 564) and lays uniform Gauss-Legendre panels on u in
[0, asinh(k_max/kappa)], and the panel count no longer grows as delta -> 0.
kappa is capped at mu, the scale of omega's branch points k = +-i mu, which rules far
from the threshold must still resolve, floored at 2^-256 mu, below the peak's 2^-255
mu at the float-range bound, so that every rule stays anchored at the peak and
1/(delta + q) finite for I1 at subnormal delta, and rounded down to a power of two;
at delta = 0, allowed for I1 alone, it is 1e-9 mu.  I2 and the norm are refused below
delta = 2^-511 mu or so, where their 1/delta^2 leaves the float range.  Every rule
and pass runs in units of mu (``ModelParams._in_units_of_mu``), an exact power-of-two
scale s; :func:`spectral_moments` alone maps I_n back, by s^(n - 2).

I1 and I2 are moments of one spectral density, summed together by
:func:`spectral_moments` on 24-node panels.  Only the energy denominator
depends on m, so the rest of the integrand (nodes, weights, f^2) is one
function of (model in units of mu, kappa, levels), :func:`_moment_rules`, which
keeps its last RULES_KEPT entries: the masses of one solve or sweep fall in a
few kappa octaves and reuse them.

Every integral refines on one ladder, driven by :func:`_ladder` for the moments
and the norm alike, doubling the panel count until two successive estimates agree
to tolerance; if it reaches the cap of 2**10 panels first, NoConvergence is
raised.  Its first rung is the opening pair, the 4- and 8-panel levels laid out as
one grid by :func:`_sinh_panels` (the one place sinh panels are laid out) and
evaluated on one call.  Every integral settles there or so; one that does not
doubles on from 16 panels, a level at a time.  A moment pass evaluates its pair in
one sweep of its 288 nodes: one lookup, one 1/(delta + q) and each power of it,
and a dot per level and order.  The kept arrays are read-only and exactly those
each level built alone gives, and so is every moment.  On arrays that small a
build or a level costs numpy calls, not arithmetic per node: each is written with
as few array operations as its bits allow, and a grid is formed elementwise on
flat columns that give each node its panel, its level's panel count and its Gauss
node (:func:`_node_columns`, which keeps every layout).  The bounds of all kept state,
and of a grid, are stated once, by RULES_KEPT.

The norm integral keeps its own integrand, the squared cloud amplitude, on
20-node panels of the same map and ladder, built afresh and never read from
the kept moment arrays, so that the norm condition stays an independent check.

A mass solve refines only to pick a level and to confirm its root: its other
steps run on its arrays, many solves' as rows of grids (:func:`_moments_on`).
The last PASSES_KEPT refined passes, keyed by delta on models in units of mu, are
kept (:func:`_moment_pass`): a g0 sweep shares its opening pass, a g sweep the pass at m_V.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import SHARP, ModelParams, _ensure_coupling, dressing_amplitude, ensure_stable
from .errors import NoConvergence, StabilityViolation

FOUR_PI = 4.0 * math.pi
START_PANELS = 4
# Panel orders of the moment rule and the norm rule.  They must differ from
# each other and from the oracle's PANEL_ORDER (16): c3 compares the norm with
# I2 and c4 the moments with the arrowhead on the "gauss" grid, which would
# otherwise be the same discretization checked against itself.
NODES_PER_PANEL = 24
NORM_ORDER = 20
PANEL_CAP = 2 ** 10
# The least delta, in units of mu, at which I2 and the norm are taken: 1/delta^2 is finite
# there and leaves the float range below it (delta^n below the least normal float for I_n).
LEAST_DELTA = math.sqrt(sys.float_info.min)
# Kept across calls: moment rule entries, one per (model, kappa) opening pair or later
# (model, kappa, panels) level, a 24-point sweep building at most 7, refined passes, one
# per (delta, model, tolerances, orders), and node layouts, one per (levels, order).  An
# entry holds at most 384 KiB, a level at the panel cap (a pair holds 4.5 KiB), so the
# rules can hold 12 MiB and the passes 3 MiB more.  A layout holds 32 B a node, 9 KiB for
# the opening pair at 24 nodes, and every layout is kept: a rule or norm build lays out
# only the opening pair or one level of 16 to PANEL_CAP panels, at 24 or 20 nodes, so at
# most 16 layouts, 2,877,952 B (the three bench workloads lay out the 24-node pair alone).
# A grid of held steps (:func:`_moments_on`) holds at most the nodes of one level at the
# panel cap, PANEL_CAP * NODES_PER_PANEL = 24,576, a row per step.
RULES_KEPT = 32
PASSES_KEPT = 8


@dataclass(frozen=True)
class QuadSpec:
    """Accuracy contract of the continuum integrals: each estimate is refined
    until successive values differ by at most max(abs_tol, rel_tol*|value|).
    Values are compared in units of mu: abs_tol is in mu^(2 - n) for I_n, 1 for the norm.

    The momentum range belongs to the model (:func:`upper_momentum`) and the
    panel layout to this module, so neither is set here.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):  # NaN refused
            raise ValueError("tolerances must be positive")
        object.__setattr__(self, "_hash", hash((self.abs_tol, self.rel_tol)))

    def __hash__(self):
        return self._hash


def default_spec(params: ModelParams) -> QuadSpec:
    """Quadrature controls for ``params``: the default tolerances, QuadSpec()."""
    return QuadSpec()


def upper_momentum(params: ModelParams) -> float:
    """Integration limit, formed in units of mu: the sharp sqrt(Lambda^2 - mu^2), else 40*Lambda."""
    unit, s = params._in_units_of_mu
    ff, mu = unit.form_factor, unit.mu
    if ff.kind == SHARP:
        return math.sqrt(max(ff.lam * ff.lam - mu * mu, 0.0)) / s
    return 40.0 * ff.lam / s


@functools.cache
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of the given order on [-1, 1] (read-only)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _settled(cur: tuple[float, ...], prev: Sequence[float], spec: QuadSpec) -> bool:
    """Whether each value of ``cur`` is within max(abs_tol, rel_tol*|value|) of ``prev``'s."""
    for c, p in zip(cur, prev):
        if not abs(c - p) <= max(spec.abs_tol, spec.rel_tol * abs(c)):
            return False
    return True


def _ladder(estimate: Callable[[int], tuple[float, ...]], spec: QuadSpec, what: Callable[[], str],
            prev: Sequence[float], cur: tuple[float, ...]) -> tuple[tuple[float, ...], int]:
    """(values, panels) of the first rung that settles, each value within tolerance of the
    rung below: the opening pair's 2 START_PANELS-panel values ``cur`` against its
    START_PANELS-panel ``prev``, else estimate(panels), doubling on from 4 START_PANELS
    panels up to PANEL_CAP, where NoConvergence, named by ``what``, is raised."""
    panels = 2 * START_PANELS
    while not _settled(cur, prev, spec):
        if panels >= PANEL_CAP:
            changes = ', '.join(f'{abs(c - p):.3e}' for c, p in zip(cur, prev))
            raise NoConvergence(f"{what()} did not reach tolerance within {PANEL_CAP} panels "
                                f"(last refinement changed the estimate by {changes})")
        panels *= 2
        prev, cur = cur, estimate(panels)
    return cur, panels


def _threshold_scale(params: ModelParams, delta: float) -> float:
    """kappa = min(max(sqrt(2 mu delta), 2^-256 mu), mu) for delta > 0, where the peak at
    sqrt(2 mu delta) or omega's branch points at k = +-i mu set the integrand's scale, and
    1e-9 mu at delta = 0 (I1 alone); rounded down to a power of two."""
    mu = params.mu
    kappa = min(max(math.sqrt(2.0 * mu * delta), 2.0 ** -256 * mu), mu) if delta else 1e-9 * mu
    return math.ldexp(0.5, math.frexp(kappa)[1])


def _ensure_in_float_range(unit: ModelParams, delta: float, orders: tuple[int, ...],
                           what: str) -> None:
    """StabilityViolation, before any pass, where delta (in units of mu) is below LEAST_DELTA
    ^ (2/n) for an order n > 1, so that delta^n is below the least normal float and the
    integrand's 1/(delta + q)^n can overflow; ``what`` names the integral, {n} its order."""
    for n in orders:
        if n > 1 and delta < LEAST_DELTA ** (2.0 / n):
            ff, mu, least = unit.form_factor, unit.mu, LEAST_DELTA ** (2.0 / n)
            raise StabilityViolation(
                f"{what.format(n=n)} of the {ff.kind} form factor (Lambda = {ff.lam / mu!r} mu) "
                f"at delta = {delta / mu!r} mu lies too close to the threshold: 1/delta^{n} "
                f"leaves the float range below delta = {least / mu!r} mu")


@functools.cache
def _node_columns(levels: tuple[int, ...], order: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The layout of one grid of ``levels`` of ``order``-node panels, panel counts laid out
    level after level, as four read-only columns with one entry per node: its panel's
    midpoint in half widths (1, 3, 5, ...), its level's panel count, and its Gauss-Legendre
    abscissa and weight on [-1, 1].  Every layout is kept (see RULES_KEPT)."""
    x, w = _gauss_nodes(order)
    odd = np.concatenate([np.arange(1, 2 * p, 2) for p in levels]).astype(float)[:, None]
    panels = np.repeat(np.array(levels, dtype=float), levels)[:, None]
    grid = (len(odd), order)  # panels down, Gauss nodes across, ravelled into owned columns
    columns = tuple(np.broadcast_to(a, grid).ravel() for a in (odd, panels, x, w))
    for column in columns:
        column.flags.writeable = False
    return columns


def _sinh_panels(hi: float, kappa: float, levels: tuple[int, ...],
                 order: int = NODES_PER_PANEL) -> tuple[np.ndarray, np.ndarray]:
    """Nodes k = kappa sinh(u) on [0, hi] and their dk weights, level after level, of one
    grid of ``levels``: for each panel count P, P uniform ``order``-node Gauss-Legendre
    panels in u on [0, asinh(hi/kappa)], every node formed elementwise from its entries in
    :func:`_node_columns`.  An empty momentum range (sharp Lambda <= mu) has no nodes."""
    if hi <= 0.0:
        return np.empty(0), np.empty(0)
    odd, panels, x, w = _node_columns(levels, order)
    half = 0.5 * math.asinh(hi / kappa) / panels
    u = odd * half
    u += half * x
    half *= kappa      # the weight kappa half w cosh(u), in that order
    half *= w
    half *= np.cosh(u)
    k = np.sinh(u, out=u)
    k *= kappa
    return k, half


def ensure_finite_rules(params: ModelParams) -> None:
    """The one rule on Lambda / mu: ValueError unless the model in units of mu (mu in [1, 2),
    kappa = 2^-30 at delta = 0) has a cutoff with a positive square and finite rules.  A rule
    of P >= START_PANELS panels has nodes k = kappa sinh(u) <= hi, u < U = asinh(hi/kappa), and
    weights wk <= (U/2P) hypot(hi, kappa) (Gauss weights are below 1), so U/(2 START_PANELS)
    hi^2 hypot(hi, kappa) bounds wk k^2, the largest product of any rule, and must be finite.
    The kappa of delta > 0, down to 2^-256, lengthens U by less than 157, which at most
    doubles U where the bound nears the float range (U ~ 258 there), and the Gauss weights,
    below 0.16 at 20 and 24 nodes, cover that."""
    try:
        unit = params._in_units_of_mu[0]
        lam, hi, kappa = unit.form_factor.lam, upper_momentum(unit), _threshold_scale(unit, 0.0)
        if lam * lam > 0.0 and (math.asinh(hi / kappa) / (2 * START_PANELS) * hi * hi
                                * math.hypot(hi, kappa) < math.inf):
            return
    except ValueError:  # a unit cutoff not positive and finite, or the unit model's own check
        pass
    ff = params.form_factor
    raise ValueError(
        f"the {ff.kind} form factor at Lambda / mu = {ff.lam / params.mu!r} (Lambda = "
        f"{ff.lam!r}, mu = {params.mu!r}) overflows its quadrature rule: in units of mu, "
        f"Lambda^2 must stay positive and wk k^2 finite")


@functools.lru_cache(maxsize=RULES_KEPT)
def _moment_rules(params: ModelParams, kappa: float, levels: tuple[int, ...]
                  ) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """(q, rules): the m-independent part of the moment integrand on one grid of ``levels``
    of the sinh rule at ``kappa``: q = k^2/(omega + mu) on all its nodes, and each level's
    (q, rho), rho = wk k^2 f^2 / (2 omega), read-only views of q and rho.  A pass reads its
    opening pair, keyed (START_PANELS, 2 START_PANELS), and each level past it, keyed (P,);
    the last RULES_KEPT entries are kept, so the passes of a solve or a sweep, which fall in
    a few kappa octaves and settle at 8 panels or so, evaluate the form factor once an octave."""
    k, rho = _sinh_panels(upper_momentum(params), kappa, levels)
    k2, mu = k * k, params.mu
    om = np.sqrt(k2 + mu * mu)
    fval = params.form_factor.evaluate(k, mu)
    rho *= k2          # wk k^2 f f / (2 omega), in that order
    rho *= fval
    rho *= fval
    rho /= 2.0 * om
    q = k2 / (om + mu)
    q.flags.writeable = rho.flags.writeable = False
    cut = NODES_PER_PANEL * levels[0]  # a level, or a pair: its first level and the rest
    return q, ((q[:cut], rho[:cut]), (q[cut:], rho[cut:]))[:len(levels)]


def _moments_on(level: tuple[np.ndarray, np.ndarray], deltas: Sequence[float],
                orders: tuple[int, ...]) -> list[tuple[float, ...]]:
    """The moments of ``orders`` on one level (q, rho) of :func:`_moment_rules` at each delta,
    a row per delta, on grids of at most the nodes of a level at the panel cap; np.vecdot
    runs rho.dot's own loop on each row, bit for bit."""
    q, rho = level
    rows, moments = PANEL_CAP * NODES_PER_PANEL // q.size, []
    for lo in range(0, len(deltas), rows):
        inv = np.add.outer(deltas[lo:lo + rows], q)
        np.divide(-1.0, inv, out=inv)  # 1 / (m - m_N - omega); inv * inv, the bits of inv ** 2
        moments += zip(*[(FOUR_PI * np.vecdot(inv if n == 1 else inv * inv if n == 2
                                              else inv ** n, rho)).tolist() for n in orders])
    return moments


@functools.lru_cache(maxsize=PASSES_KEPT)
def _moment_pass(delta: float, unit: ModelParams, spec: QuadSpec, orders: tuple[int, ...]
                 ) -> tuple[tuple[float, ...], tuple[np.ndarray, np.ndarray]]:
    """:func:`spectral_moments` at delta on ``unit``, a model in units of mu, and their level.

    The opening pair, the ladder's first rung, is evaluated in one sweep: one rule lookup,
    each power of 1 / (m - m_N - omega) formed once on both levels' nodes, and each level's
    moments dots on its part.  A pair that settles hands back its 8-panel level; only one
    that does not refines on from 16 panels, each level built and evaluated alone.
    """
    _ensure_in_float_range(unit, delta, orders, "moment I{n}")
    kappa = _threshold_scale(unit, delta)
    q, ((_, rho4), eight) = _moment_rules(unit, kappa, (START_PANELS, 2 * START_PANELS))
    inv = np.add(delta, q)
    np.divide(-1.0, inv, out=inv)      # as _moments_on forms it, on both levels' nodes
    sq = inv * inv if 2 in orders else None
    cut, coarse, values = rho4.size, [], []
    for n in orders:
        p = inv if n == 1 else sq if n == 2 else inv ** n
        coarse.append(FOUR_PI * float(rho4.dot(p[:cut])))
        values.append(FOUR_PI * float(eight[1].dot(p[cut:])))
    ff = unit.form_factor
    values, panels = _ladder(
        lambda n: _moments_on(_moment_rules(unit, kappa, (n,))[1][0], (delta,), orders)[0], spec,
        lambda: f"moment(s) {orders} of the {ff.kind} form factor (Lambda = "
                f"{ff.lam / unit.mu!r}) at m = {(unit.threshold - delta) / unit.mu!r}, "
                f"delta = {delta / unit.mu!r}, all in units of mu", coarse, tuple(values))
    return values, (eight if panels == 2 * START_PANELS
                    else _moment_rules(unit, kappa, (panels,))[1][0])


def spectral_moments(m: float, params: ModelParams, spec: QuadSpec,
                     orders: Iterable[int] = (1, 2)) -> tuple[float, ...]:
    """Moments I_n(m) = Int d^3k f^2(omega) / (2*omega) / (m - m_N - omega)^n, one per order.

    All orders are summed from one f^2 evaluation per rule, the sinh rule anchored at
    kappa ~ sqrt(2 mu delta) and kept per (model, kappa) opening pair or later level
    (:func:`_moment_rules`), on the one ladder: the pair evaluated in one sweep
    (:func:`_moment_pass`), then refined until each settles, on the model in units of mu;
    I_n maps back by s^(n - 2).
    The denominator is -(delta + k^2/(omega + mu)) with delta = m_N + mu - m formed once, so
    nothing cancels near the threshold; delta = 0 is allowed for I1 alone, finite there.
    """
    m, orders = float(m), tuple(map(operator.index, orders))
    if not (m < params.threshold or m == params.threshold and max(orders) == 1):
        ensure_stable(params, m, label="m")  # only I1 alone may be taken at delta = 0
    (unit, s), ff = params._in_units_of_mu, params.form_factor
    values = _moment_pass(unit.threshold - m * s, unit, spec, orders)[0]
    if s == 1.0:
        return values
    e = math.frexp(s)[1] - 1  # s = 2^e
    try:
        return tuple(math.ldexp(v, (n - 2) * e) for v, n in zip(values, orders))
    except OverflowError:  # in the caller's units; I0 ~ Lambda^2 can get there
        raise StabilityViolation(f"moment(s) {orders} of the {ff.kind} form factor (Lambda = "
                                 f"{ff.lam!r}) at m = {m!r}, delta = {params.threshold - m!r} "
                                 f"overflow the float range: {values!r} in units of mu") from None


def mass_shift_integral(m: float, params: ModelParams, spec: QuadSpec) -> float:
    """Int d^3k f^2(omega) / (2*omega) / (m - m_N - omega), without couplings.

    Strictly negative on the stability window (the denominator is negative
    pointwise) and monotone decreasing in m.
    """
    ensure_stable(params, m, label="m")
    return spectral_moments(m, params, spec, orders=(1,))[0]


def z_factor_integral(m: float, params: ModelParams, spec: QuadSpec) -> float:
    """Int d^3k f^2(omega) / (2*omega) / (m - m_N - omega)^2, without couplings.

    Strictly positive wherever the form factor has support, and equal to
    minus the derivative of :func:`mass_shift_integral` with respect to m.
    """
    return spectral_moments(m, params, spec, orders=(2,))[0]


def norm_integral(params: ModelParams, g0: float, m_v: float, spec: QuadSpec) -> float:
    """Int d^3k |Phi(k)|^2: squared norm of the N-theta cloud of the dressed V.

    Evaluated directly from the squared amplitude (:func:`dressing_amplitude`,
    which keeps full precision near the threshold); analytically it equals
    (g0^2 / (2 pi)^3) * z_factor_integral(m_v), and the two routes agreeing
    is one of the package's consistency checks.  It runs on the moments' ladder,
    the sinh rule at the moment pass's kappa opening on the 4- and 8-panel pair as one
    grid and one amplitude evaluation, but with NORM_ORDER-node panels, built afresh at
    every level and never read from :func:`_moment_rules`, so that check stays
    independent.  ValueError unless g0 is nonnegative with a finite square.
    """
    _ensure_coupling("bare coupling g0", g0)
    ensure_stable(params, m_v)
    unit, s = params._in_units_of_mu
    delta = (params.threshold - m_v) * s
    _ensure_in_float_range(unit, delta, (2,), "the norm integral")
    hi, kappa = upper_momentum(unit), _threshold_scale(unit, delta)

    def estimates(levels):  # (first level's, the rest's)
        k, wk = _sinh_panels(hi, kappa, levels, NORM_ORDER)
        amp = dressing_amplitude(unit, g0, m_v * s, k)
        terms, cut = wk * k * k * amp * amp, levels[0] * NORM_ORDER
        return (FOUR_PI * float(np.sum(terms[:cut])),), (FOUR_PI * float(np.sum(terms[cut:])),)

    ff, (coarse, value) = params.form_factor, estimates((START_PANELS, 2 * START_PANELS))
    return _ladder(lambda n: estimates((n,))[0], spec, lambda: (
        f"norm integral of the {ff.kind} form factor (Lambda = {ff.lam!r}) "
        f"at m_V = {m_v!r}, delta = {params.threshold - m_v!r}"), coarse, value)[0][0]
