"""Exact finite truncation of the V <-> N+theta sector as an arrowhead matrix.

Discretizing the theta momentum on a radial grid {k_i, w_i} (weights absorb
the 4*pi*k^2 measure) turns the sector Hamiltonian into a real symmetric
arrowhead matrix

    [ m_V0   c_1    c_2   ...  ]
    [ c_1    d_1               ]          d_i = m_N + omega(k_i)
    [ c_2           d_2        ]          c_i = vertex_weight(k_i) * sqrt(w_i)
    [ ...assumed zero...  d_n  ]

Its eigenvalues with nonvanishing apex component are the roots of the secular
function  s(lam) = m_V0 - lam + sum_i c_i^2 / (lam - d_i),  which is strictly
decreasing between consecutive poles, so every root is bracketed; the
outermost brackets are the Weyl bounds min(m_V0, d_1) - ||c|| and
max(m_V0, d_n) + ||c||.  One routine finds every root: a bracketed one-pole
iteration that fits the pole at one end of its bracket, d_1 for the lowest
root on (Weyl bound, d_1), each other bracket's upper end, and d_n for the
top bracket, which has no upper pole.  The matrix holds c_i^2
(squared once, read-only), so an evaluation of s is one pass over the n
entries.  The squared apex component of the normalized eigenvector,
1 / (1 + sum_i c_i^2/(lam - d_i)^2), is the finite-n image of
the overlap probability Z_V; as the grid refines, the lowest eigenpair
converges to the continuum physical mass and Z_V.  This is a genuinely
independent route to the same numbers as the continuum quadrature, which is
the point: the two paths validate each other.  The "gauss" grid is the
oracle's own composite Gauss-Legendre rule, its 16-node panels graded
quadratically toward k = 0, while the continuum integrals use a sinh map with
24- and 20-node panels, so the two never share a node layout.

LAPACK's dense symmetric eigensolver (tridiagonal reduction, then divide and
conquer) provides a second, structurally different eigenvalue route for
cross-checking the secular roots on small truncations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import BareCoupling, ModelParams, omega, vertex_weight
from .errors import DegenerateModel, NoConvergence, PoleHit
from .quadrature import FOUR_PI, _gauss_nodes

UNIFORM_K = "uniform"
GAUSS_LEGENDRE_K = "gauss"
GRID_SCHEMES = (UNIFORM_K, GAUSS_LEGENDRE_K)
PANEL_ORDER = 16  # of the "gauss" grid's panels; see the module docstring
# a secular root stops at a bracket of SECULAR_TOL * max(1, |lam|), and raises after
# SECULAR_CAP steps
SECULAR_TOL = 1e-12
SECULAR_CAP = 256


@dataclass(frozen=True)
class RadialGrid:
    """Momentum nodes and measure weights; w_i ~ 4*pi*k_i^2 * (dk weight)."""

    k: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "w", w)
        if k.ndim != 1 or w.shape != k.shape or k.size < 1:
            raise ValueError("grid nodes and weights must be 1-d arrays of equal length")
        if not (np.all(k > 0.0) and np.all(np.diff(k) > 0.0)):
            raise ValueError("grid nodes must be positive and strictly increasing")
        if not np.all(w > 0.0):
            raise ValueError("grid weights must be positive")
        k.flags.writeable = False
        w.flags.writeable = False

    @property
    def n(self) -> int:
        return self.k.size


def graded_panels(hi: float, panels: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n composite Gauss-Legendre nodes on [0, hi] and their dk weights.

    Panel edges are hi * (j / panels)^2, graded quadratically toward k = 0,
    where masses close to the threshold concentrate the cloud (on the scale
    sqrt(2*mu*(threshold - m))).  Each panel carries n // panels nodes and the
    first n % panels carry one more, so the nodes come out strictly increasing.
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


def build_grid(k_max: float, n: int, scheme: str = GAUSS_LEGENDRE_K) -> RadialGrid:
    """Radial grid on (0, k_max]: midpoint nodes or Gauss-Legendre nodes.

    Uniform: k_i = (i - 1/2) dk with w_i = 4 pi k_i^2 dk.  Gauss-Legendre:
    n nodes of :func:`graded_panels` over max(1, n // PANEL_ORDER) panels (a
    single order-n rule for n < 32), again with weights times 4 pi k^2; this
    graded layout is used by the oracle alone.
    """
    if n < 1:
        raise ValueError("grid size n must be >= 1")
    if not (math.isfinite(k_max) and k_max > 0.0):
        raise ValueError("k_max must be positive and finite")
    if scheme == UNIFORM_K:
        dk = k_max / n
        k = (np.arange(n) + 0.5) * dk
        w_lin = np.full(n, dk)
    elif scheme == GAUSS_LEGENDRE_K:
        k, w_lin = graded_panels(k_max, max(1, n // PANEL_ORDER), n)
    else:
        raise ValueError(f"unknown grid scheme {scheme!r}")
    return RadialGrid(k=k, w=FOUR_PI * k * k * w_lin)


@dataclass(frozen=True)
class ArrowheadMatrix:
    """Symmetric arrowhead: apex, continuum diagonal d, apex couplings c."""

    apex: float
    diag: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        c = np.asarray(self.coupling, dtype=float)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "coupling", c)
        if d.ndim != 1 or c.shape != d.shape or d.size < 1:
            raise ValueError("diag and coupling must be 1-d arrays of equal length")
        if not np.all(np.diff(d) > 0.0):
            raise DegenerateModel("diagonal entries must be strictly increasing")
        d.flags.writeable = False
        c.flags.writeable = False

    @property
    def n(self) -> int:
        return self.diag.size

    @cached_property
    def coupling_sq(self) -> np.ndarray:
        """c_i^2, squared once per matrix; read-only like diag and coupling, so it cannot go stale."""
        c2 = self.coupling ** 2
        c2.flags.writeable = False
        return c2

    def to_dense(self) -> np.ndarray:
        n = self.n
        a = np.zeros((n + 1, n + 1))
        a[0, 0] = self.apex
        a[0, 1:] = self.coupling
        a[1:, 0] = self.coupling
        idx = np.arange(1, n + 1)
        a[idx, idx] = self.diag
        return a


def build_arrowhead(params: ModelParams, bare: BareCoupling,
                    grid: RadialGrid) -> ArrowheadMatrix:
    """Truncated sector Hamiltonian on the given radial grid."""
    d = params.m_n + omega(grid.k, params.mu)
    c = vertex_weight(bare.g0, params.form_factor, grid.k, params.mu) * np.sqrt(grid.w)
    return ArrowheadMatrix(apex=bare.m_v0, diag=d, coupling=c)


def secular_value(mat: ArrowheadMatrix, lam: float) -> float:
    """s(lam) = apex - lam + sum c_i^2/(lam - d_i); zero exactly at eigenvalues
    with nonvanishing apex component, strictly decreasing between poles."""
    gaps = np.abs(lam - mat.diag)
    scale = np.maximum(np.maximum(np.abs(mat.diag), abs(lam)), 1e-300)
    if np.any(gaps <= 1e-14 * scale):
        raise PoleHit(f"lam = {lam!r} coincides with a continuum diagonal entry")
    return mat.apex - lam + float((mat.coupling_sq / (lam - mat.diag)).sum())


def _secular_and_cloud(mat: ArrowheadMatrix, x: float) -> tuple[float, float]:
    """s(x) and the cloud sum c_i^2/(x - d_i)^2 = -s'(x) - 1, in one pass:
    r = 1/(x - d) and t = c^2 r give s = apex - x + sum t and the cloud as t . r."""
    r = 1.0 / (x - mat.diag)
    t = mat.coupling_sq * r
    return mat.apex - x + float(t.sum()), float(t.dot(r))


def _root_between(mat: ArrowheadMatrix, lo: float, hi: float, pole: float) -> float:
    """The root of s on (lo, hi), with s > 0 toward lo and s < 0 toward hi, by a
    bracketed one-pole iteration about ``pole``, the end lo or hi.

    At each iterate x, s is fitted by A - y - B/(pole - y) through s(x) and s'(x)
    (the boundary case of R.-C. Li, LAPACK Working Note 89, as in LAPACK
    dlaed4), and the next iterate is that model's root on the bracket's side of
    the pole; a step that leaves the bracket is replaced by its midpoint, which
    is also the first iterate.  Once a step falls below a quarter of the
    stopping width SECULAR_TOL * max(1, |x|), it goes half that width further,
    so the next evaluation closes the bracket from the other side, and a step
    that rounds onto the pole stops half that width short of it.  The endpoints
    are never evaluated, so both may be poles of s, and the pole is never
    returned: once no float lies strictly inside, the other end is.
    """
    x = pole
    for _ in range(SECULAR_CAP):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float resolution exhausted: the end that is no pole
            return lo if hi == pole else hi
        if hi - lo <= SECULAR_TOL * max(1.0, abs(mid)):
            return mid
        if not lo < x < hi:
            x = mid
        s, cloud = _secular_and_cloud(mat, x)
        if s > 0.0:
            lo = x
        else:
            hi = x
        # the model matches s and s' = -1 - cloud at x: with gap = pole - x, B = cloud * gap^2,
        # and its root pole - z solves z^2 + a z - B = 0 for the z of gap's sign
        gap = pole - x
        a = s + gap * (cloud - 1.0)
        b = cloud * gap * gap
        root = math.copysign(math.hypot(a, 2.0 * math.sqrt(b)), gap)
        z = 2.0 * b / (a + root) if a * gap > 0.0 else 0.5 * (root - a)
        step = pole - z - x
        tol = SECULAR_TOL * max(1.0, abs(x))
        if abs(step) < 0.25 * tol:
            step += 0.5 * tol if s > 0.0 else -0.5 * tol
        x += step
        if x == pole:  # a root within rounding of the pole: half a width off it
            x = pole - math.copysign(0.5 * tol, gap)
    raise NoConvergence("secular root exceeded its iteration cap")


def _spectral_bounds(mat: ArrowheadMatrix) -> tuple[float, float]:
    """Interval holding every eigenvalue (Weyl: the coupling part of the
    matrix has 2-norm ||c||, so no eigenvalue lies farther than that from
    the diagonal entries)."""
    radius = float(np.linalg.norm(mat.coupling))
    return (min(mat.apex, float(mat.diag[0])) - radius,
            max(mat.apex, float(mat.diag[-1])) + radius)


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue and squared first component of its normalized eigenvector."""

    energy: float
    apex_weight: float


def lowest_eigenpair(mat: ArrowheadMatrix) -> EigenPair:
    """Lowest eigenvalue (below d_1) and its squared apex component.

    With c_1 = 0, d_1 is itself an eigenvalue of a pure continuum mode, and
    the apex-carrying root lies below it iff the secular function over the
    coupled entries is negative at d_1; otherwise the lowest state carries no
    apex weight and ValueError is raised.
    """
    d1 = float(mat.diag[0])
    if mat.coupling[0] == 0.0:
        on = mat.coupling != 0.0
        if mat.apex - d1 + float((mat.coupling_sq[on] / (d1 - mat.diag[on])).sum()) >= 0:
            raise ValueError("the lowest eigenvalue is the decoupled continuum entry "
                             "d_1, which carries no apex weight")
    lam = _root_between(mat, _spectral_bounds(mat)[0], d1, d1)
    weight = 1.0 / (1.0 + float((mat.coupling_sq / (lam - mat.diag) ** 2).sum()))
    return EigenPair(energy=lam, apex_weight=weight)


def all_eigenvalues(mat: ArrowheadMatrix) -> np.ndarray:
    """All n+1 eigenvalues, one secular root per bracket.

    With distinct diagonal entries and all couplings nonzero the spectrum
    strictly interlaces the diagonal: lam_0 < d_1 < lam_1 < ... < d_n < lam_n.
    Each bracket's iteration is about its upper end, the top one's about d_n.
    """
    if np.any(mat.coupling == 0.0):
        raise ValueError("all couplings must be nonzero for the interlacing structure")
    lo, hi = _spectral_bounds(mat)
    d = list(map(float, mat.diag))
    edges = [lo, *d, hi]
    return np.array([_root_between(mat, a, b, p)
                     for a, b, p in zip(edges, edges[1:], d + d[-1:])])


def dense_cross_check(mat: ArrowheadMatrix) -> np.ndarray:
    """Eigenvalues of the dense arrowhead by LAPACK (numpy.linalg.eigvalsh).

    Intended as the independent mate of :func:`all_eigenvalues` on small
    truncations: it reduces the dense matrix to tridiagonal form and never
    sees the secular function.  n is capped because the dense matrix holds
    (n+1)^2 entries and the solve costs O(n^3), against O(n) memory for the
    secular route.
    """
    if mat.n > 256:
        raise ValueError("dense cross-check is limited to n <= 256")
    return np.linalg.eigvalsh(mat.to_dense())


def convergence_study(params: ModelParams, bare: BareCoupling,
                      n_list: Sequence[int], k_max: float,
                      scheme: str = GAUSS_LEGENDRE_K) -> list[tuple[int, float, float]]:
    """Lowest eigenpair for a ladder of truncation sizes.

    Returns (n, lowest eigenvalue, apex weight) per entry; as n grows these converge to
    the continuum physical mass and Z_V, which certifies the discretization against the
    quadrature pipeline (and vice versa).  Each is solved in units of mu, so no weight
    4 pi k^2 dk underflows."""
    if list(n_list) != sorted(set(n_list)):
        raise ValueError("n_list must be strictly increasing")
    unit, unit_bare, s = params._bare_in_units_of_mu(bare)
    rows = []
    for n in n_list:
        grid = build_grid(k_max * s, int(n), scheme)
        pair = lowest_eigenpair(build_arrowhead(unit, unit_bare, grid))
        rows.append((int(n), pair.energy / s, pair.apex_weight))
    return rows
