import math

import numpy as np
import pytest

import leemodel.oracle
from leemodel import (
    FORM_FACTOR_KINDS,
    ArrowheadMatrix,
    BareCoupling,
    DegenerateModel,
    FormFactor,
    ModelParams,
    NoConvergence,
    PoleHit,
    RadialGrid,
    all_eigenvalues,
    build_arrowhead,
    build_grid,
    convergence_study,
    dense_cross_check,
    lowest_eigenpair,
    omega,
    secular_value,
    solve_physical_mass,
    upper_momentum,
    vertex_weight,
    z_from_bare,
)

from leemodel.oracle import GRID_SCHEMES, SECULAR_TOL, _root_between

from helpers import ACC_BARE, ALL_MODELS, SHARP_K_CUT, SPEC, random_arrowhead, sharp_model

PARAMS = sharp_model()

# 2x2 reference: apex 0, one continuum mode at 2 coupled with strength 1
TWO_BY_TWO = ArrowheadMatrix(apex=0.0, diag=np.array([2.0]),
                             coupling=np.array([1.0]))


# --- grids --------------------------------------------------------------------

def test_build_grid_uniform_examples():
    grid = build_grid(2.0, 2, "uniform")
    assert np.allclose(grid.k, [0.5, 1.5])
    assert np.allclose(grid.w, [4.0 * math.pi * 0.25, 4.0 * math.pi * 2.25])
    single = build_grid(2.0, 1, "uniform")
    assert np.allclose(single.k, [1.0])
    assert np.allclose(single.w, [8.0 * math.pi])


def test_grid_weight_sums():
    # weights absorb the 4 pi k^2 measure, so they sum to the ball volume
    ball = 4.0 * math.pi * 3.0 ** 3 / 3.0
    uniform = build_grid(3.0, 2000, "uniform")
    assert math.isclose(float(uniform.w.sum()), ball, rel_tol=1e-5)
    for n in (2, 12, 15, 16, 17, 33, 1000):  # exact: the integrand is k^2
        gauss = build_grid(3.0, n, "gauss")
        assert gauss.n == n
        assert np.all(gauss.k > 0.0) and np.all(np.diff(gauss.k) > 0.0)
        assert math.isclose(float(gauss.w.sum()), ball, rel_tol=1e-13)


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(2.0, 0, "uniform")
    with pytest.raises(ValueError):
        build_grid(0.0, 4, "uniform")
    with pytest.raises(ValueError):
        build_grid(2.0, 4, "chebyshev")
    for k, w, match in (([1.0, 2.0], [1.0], "equal length"),
                        ([2.0, 1.0], [1.0, 1.0], "strictly increasing"),
                        ([0.0, 1.0], [1.0, 1.0], "positive and strictly increasing"),
                        ([1.0, 2.0], [1.0, 0.0], "weights must be positive")):
        with pytest.raises(ValueError, match=match):
            RadialGrid(k=np.array(k), w=np.array(w))


def _assert_read_only(array):
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 99.0
    with pytest.raises(ValueError, match="read-only"):
        array *= 2.0


def test_grid_is_immutable():
    grid = build_grid(2.0, 4, "uniform")
    _assert_read_only(grid.k)
    _assert_read_only(grid.w)


def test_arrowhead_arrays_are_read_only():
    # coupling_sq is squared once per matrix and kept, which is sound only
    # while neither it nor the arrays it derives from can be written
    mat = build_arrowhead(PARAMS, BareCoupling(m_v0=1.8, g0=1.0),
                          build_grid(SHARP_K_CUT, 16, "gauss"))
    assert mat.coupling_sq is mat.coupling_sq
    assert np.array_equal(mat.coupling_sq, mat.coupling ** 2)
    for array in (mat.diag, mat.coupling, mat.coupling_sq):
        _assert_read_only(array)


# --- arrowhead construction -----------------------------------------------------

def test_build_arrowhead_decoupled():
    grid = build_grid(SHARP_K_CUT, 16, "gauss")
    mat = build_arrowhead(PARAMS, BareCoupling(1.2, 0.0), grid)
    assert np.all(mat.coupling == 0.0)
    assert mat.apex == 1.2
    assert np.all(np.diff(mat.diag) > 0.0)


def test_build_arrowhead_fine_grid_smallest_sharp_cutoff():
    # the steepest-graded input: many panels near k = 0, where omega(k) is
    # flattest, must still give a strictly increasing diagonal
    params = sharp_model(1.5)
    k_cut = math.sqrt(1.5 ** 2 - params.mu ** 2)
    grid = build_grid(k_cut, 4096, "gauss")
    mat = build_arrowhead(params, BareCoupling(1.8, 1.0), grid)
    assert mat.n == 4096


def test_build_arrowhead_entries_pointwise():
    grid = build_grid(SHARP_K_CUT, 64, "gauss")
    bare = BareCoupling(m_v0=1.8, g0=1.0)
    mat = build_arrowhead(PARAMS, bare, grid)
    om = np.asarray(omega(grid.k, PARAMS.mu))
    assert np.allclose(mat.diag, PARAMS.m_n + om, rtol=1e-14, atol=0.0)
    expected = vertex_weight(bare.g0, PARAMS.form_factor, grid.k, PARAMS.mu) * np.sqrt(grid.w)
    assert np.allclose(mat.coupling, expected, rtol=1e-14, atol=0.0)


def test_single_mode_closed_form():
    # one grid point gives a 2x2 matrix with eigenvalues
    # (a + d)/2 +- sqrt((a - d)^2/4 + c^2)
    grid = build_grid(2.0, 1, "uniform")
    bare = BareCoupling(m_v0=1.4, g0=1.0)
    mat = build_arrowhead(PARAMS, bare, grid)
    a, d, c = mat.apex, float(mat.diag[0]), float(mat.coupling[0])
    mean, split = 0.5 * (a + d), math.sqrt(0.25 * (a - d) ** 2 + c * c)
    vals = all_eigenvalues(mat)
    assert np.allclose(vals, [mean - split, mean + split], rtol=0, atol=1e-12)
    pair = lowest_eigenpair(mat)
    assert math.isclose(pair.energy, mean - split, rel_tol=0, abs_tol=1e-12)


def test_arrowhead_validation():
    with pytest.raises(ValueError):
        ArrowheadMatrix(apex=0.0, diag=np.array([2.0, 1.0]),
                        coupling=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ArrowheadMatrix(apex=0.0, diag=np.array([1.0, 2.0]),
                        coupling=np.array([1.0]))


def test_to_dense_shape():
    dense = TWO_BY_TWO.to_dense()
    assert dense.shape == (2, 2)
    assert np.allclose(dense, [[0.0, 1.0], [1.0, 2.0]])


# --- secular function ------------------------------------------------------------

def test_secular_decoupled_root_at_apex():
    grid = build_grid(SHARP_K_CUT, 8, "gauss")
    mat = build_arrowhead(PARAMS, BareCoupling(1.2, 0.0), grid)
    assert secular_value(mat, 1.2) == 0.0


def test_secular_two_by_two_root():
    assert abs(secular_value(TWO_BY_TWO, 1.0 - math.sqrt(2.0))) < 1e-12


def test_secular_pole_hit():
    with pytest.raises(PoleHit):
        secular_value(TWO_BY_TWO, 2.0)
    with pytest.raises(PoleHit):
        secular_value(TWO_BY_TWO, 2.0 * (1.0 + 1e-15))


def test_secular_bracket_signs():
    grid = build_grid(SHARP_K_CUT, 64, "gauss")
    mat = build_arrowhead(PARAMS, BareCoupling(1.8, 1.0), grid)
    d1 = float(mat.diag[0])
    assert secular_value(mat, mat.apex - 50.0) > 0.0
    assert secular_value(mat, d1 - 1e-9) < 0.0


def _secular_as_summed(mat, lam):
    # the secular function as written before the matrix held c^2
    return mat.apex - lam + float(np.sum(mat.coupling ** 2 / (lam - mat.diag)))


@pytest.mark.parametrize("make", ALL_MODELS)
@pytest.mark.parametrize("scheme", GRID_SCHEMES)
@pytest.mark.parametrize("n", (8, 57, 912, 4096))
def test_held_squared_couplings_keep_the_bits(make, scheme, n):
    # s(lam) at every bracket's midpoint and the lowest apex weight are bit for bit
    # those of squaring the couplings on each evaluation
    params = make()
    mat = build_arrowhead(params, BareCoupling(m_v0=1.8, g0=1.5),
                          build_grid(upper_momentum(params), n, scheme))
    lo, hi = leemodel.oracle._spectral_bounds(mat)
    edges = np.array([lo, *mat.diag, hi])
    for lam in map(float, 0.5 * (edges[:-1] + edges[1:])):
        assert secular_value(mat, lam) == _secular_as_summed(mat, lam), lam
    pair = lowest_eigenpair(mat)
    lam = pair.energy
    assert pair.apex_weight == 1.0 / (1.0 + float(np.sum(mat.coupling ** 2 / (lam - mat.diag) ** 2)))


def test_secular_strictly_decreasing_between_poles():
    mat = random_arrowhead(5, n_max=10)
    i = mat.n // 2
    lo, hi = mat.diag[i - 1], mat.diag[i]
    lam = np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 20)
    vals = [secular_value(mat, float(v)) for v in lam]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# --- eigenvalues ------------------------------------------------------------------

def test_lowest_eigenpair_two_by_two():
    pair = lowest_eigenpair(TWO_BY_TWO)
    assert math.isclose(pair.energy, 1.0 - math.sqrt(2.0), rel_tol=0, abs_tol=1e-12)
    assert math.isclose(pair.apex_weight, (2.0 + math.sqrt(2.0)) / 4.0,
                        rel_tol=0, abs_tol=1e-12)


def test_lowest_eigenpair_decoupled():
    grid = build_grid(SHARP_K_CUT, 8, "gauss")
    mat = build_arrowhead(PARAMS, BareCoupling(1.2, 0.0), grid)
    pair = lowest_eigenpair(mat)
    assert math.isclose(pair.energy, 1.2, rel_tol=0, abs_tol=1e-10)
    assert pair.apex_weight == 1.0
    bad = build_arrowhead(PARAMS, BareCoupling(5.0, 0.0), grid)
    with pytest.raises(ValueError):
        lowest_eigenpair(bad)


def test_lowest_eigenpair_first_mode_decoupled():
    # c_1 = 0 makes d_1 an eigenvalue with no apex component; it is the lowest
    # one unless the coupled part pulls a root below it
    with pytest.raises(ValueError):
        lowest_eigenpair(ArrowheadMatrix(apex=5.0, diag=[1.0, 2.0], coupling=[0.0, 1.0]))
    below = ArrowheadMatrix(apex=0.8, diag=[1.0, 2.0], coupling=[0.0, 1.0])
    assert math.isclose(lowest_eigenpair(below).energy, float(dense_cross_check(below)[0]),
                        rel_tol=0, abs_tol=1e-12)


def test_discrete_norm_identity():
    grid = build_grid(SHARP_K_CUT, 128, "gauss")
    mat = build_arrowhead(PARAMS, BareCoupling(1.8, 1.0), grid)
    pair = lowest_eigenpair(mat)
    cloud = float(np.sum(mat.coupling ** 2 / (pair.energy - mat.diag) ** 2))
    assert abs(pair.apex_weight * (1.0 + cloud) - 1.0) < 1e-12
    assert 0.0 < pair.apex_weight <= 1.0


def test_all_eigenvalues_two_by_two():
    vals = all_eigenvalues(TWO_BY_TWO)
    assert np.allclose(vals, [1.0 - math.sqrt(2.0), 1.0 + math.sqrt(2.0)],
                       rtol=0, atol=1e-12)


def test_all_eigenvalues_weak_coupling_limit():
    grid = build_grid(SHARP_K_CUT, 12, "gauss")
    mat = build_arrowhead(PARAMS, BareCoupling(1.5, 1e-7), grid)
    vals = all_eigenvalues(mat)
    expected = np.sort(np.concatenate([[1.5], mat.diag]))
    assert np.allclose(vals, expected, rtol=0, atol=1e-5)


def test_all_eigenvalues_trace_identity():
    grid = build_grid(SHARP_K_CUT, 16, "gauss")
    mat = build_arrowhead(PARAMS, BareCoupling(1.8, 1.0), grid)
    vals = all_eigenvalues(mat)
    trace = mat.apex + float(mat.diag.sum())
    assert math.isclose(float(vals.sum()), trace, rel_tol=1e-9)


def test_all_eigenvalues_requires_nonzero_couplings():
    grid = build_grid(SHARP_K_CUT, 8, "gauss")
    mat = build_arrowhead(PARAMS, BareCoupling(1.2, 0.0), grid)
    with pytest.raises(ValueError):
        all_eigenvalues(mat)


def _assert_certified(mat, lam, lo, hi):
    # the root lam of s on (lo, hi) lies strictly inside and within w = SECULAR_TOL *
    # max(1, |lam|) of the root: s(lam - w) > 0 and s(lam + w) < 0, where each is inside
    w = SECULAR_TOL * max(1.0, abs(lam))
    assert lo < lam < hi
    if lam - w > lo:
        assert secular_value(mat, lam - w) > 0.0
    if lam + w < hi:
        assert secular_value(mat, lam + w) < 0.0


def _assert_all_certified(mat):
    edges = [-math.inf, *map(float, mat.diag), math.inf]
    for i, lam in enumerate(map(float, all_eigenvalues(mat))):
        _assert_certified(mat, lam, edges[i], edges[i + 1])


@pytest.mark.parametrize("make", ALL_MODELS)
@pytest.mark.parametrize("scheme", GRID_SCHEMES)
@pytest.mark.parametrize("n", (8, 57))
def test_every_secular_root_is_certified_inside_its_bracket(make, scheme, n):
    params = make()
    mat = build_arrowhead(params, BareCoupling(m_v0=1.8, g0=1.5),
                          build_grid(upper_momentum(params), n, scheme))
    _assert_all_certified(mat)


def test_every_secular_root_is_certified_on_random_matrices():
    for seed in range(100):
        _assert_all_certified(random_arrowhead(seed))


def test_interlacing_random_instances():
    for seed in range(100):
        mat = random_arrowhead(seed, n_max=16)
        vals = all_eigenvalues(mat)
        assert vals.size == mat.n + 1
        assert np.all(vals[:-1] < mat.diag)
        assert np.all(mat.diag < vals[1:])


# --- dense cross-check --------------------------------------------------------------

def test_dense_cross_check_two_by_two():
    vals = dense_cross_check(TWO_BY_TWO)
    assert np.allclose(vals, [1.0 - math.sqrt(2.0), 1.0 + math.sqrt(2.0)],
                       rtol=0, atol=1e-12)


def test_dense_cross_check_diagonal():
    grid = build_grid(SHARP_K_CUT, 8, "gauss")
    mat = build_arrowhead(PARAMS, BareCoupling(1.2, 0.0), grid)
    vals = dense_cross_check(mat)
    expected = np.sort(np.concatenate([[1.2], mat.diag]))
    assert np.allclose(vals, expected, rtol=0, atol=1e-12)


def test_dense_cross_check_matches_secular():
    grid = build_grid(SHARP_K_CUT, 32, "gauss")
    mat = build_arrowhead(PARAMS, BareCoupling(1.8, 1.0), grid)
    assert np.allclose(dense_cross_check(mat), all_eigenvalues(mat),
                       rtol=0, atol=1e-9)


def test_dense_cross_check_size_cap():
    grid = build_grid(SHARP_K_CUT, 300, "gauss")
    mat = build_arrowhead(PARAMS, BareCoupling(1.8, 1.0), grid)
    with pytest.raises(ValueError):
        dense_cross_check(mat)


# --- continuum limit ------------------------------------------------------------------

def test_convergence_study_uniform_decay():
    m_v = solve_physical_mass(PARAMS, ACC_BARE, SPEC)
    z = z_from_bare(PARAMS, ACC_BARE.g0, m_v, SPEC)
    rows = convergence_study(PARAMS, ACC_BARE, [16, 64, 256, 1024],
                             SHARP_K_CUT, scheme="uniform")
    mass_errs = [abs(lam - m_v) for _, lam, _ in rows]
    z_errs = [abs(w - z) for _, _, w in rows]
    assert all(b < a for a, b in zip(mass_errs, mass_errs[1:]))
    assert all(b < a for a, b in zip(z_errs, z_errs[1:]))
    assert mass_errs[-1] < 1e-6 and z_errs[-1] < 1e-6


def test_convergence_study_gauss_accuracy():
    m_v = solve_physical_mass(PARAMS, ACC_BARE, SPEC)
    z = z_from_bare(PARAMS, ACC_BARE.g0, m_v, SPEC)
    ((_, lam, weight),) = convergence_study(PARAMS, ACC_BARE, [512], SHARP_K_CUT)
    assert abs(lam - m_v) < 1e-8
    assert abs(weight - z) < 1e-8


def test_convergence_study_free_theory_exact():
    rows = convergence_study(PARAMS, BareCoupling(1.3, 0.0), [8, 16],
                             SHARP_K_CUT, scheme="uniform")
    for _, lam, weight in rows:
        assert abs(lam - 1.3) < 1e-10
        assert weight == 1.0


@pytest.mark.parametrize("family", FORM_FACTOR_KINDS)
@pytest.mark.parametrize("scheme", ("gauss", "uniform"))
def test_convergence_study_is_exact_under_a_power_of_two_scale(family, scheme):
    # the ladder runs in units of mu: at mu = 2^-400 the weights 4 pi k^2 dk
    # underflow in absolute units, and each eigenvalue must instead come back
    # as the mu = 1 one times 2^-400, with the same apex weight
    ladders = []
    for s in (1.0, 2.0 ** -400):
        params = ModelParams(m_n=s, mu=s, form_factor=FormFactor(family, 10.0 * s))
        ladders.append(convergence_study(params, BareCoupling(1.8 * s, 1.0), [8, 64, 256],
                                         upper_momentum(params), scheme))
    assert ladders[1] == [(n, math.ldexp(lam, -400), w) for n, lam, w in ladders[0]]


def test_convergence_study_validates_order():
    with pytest.raises(ValueError):
        convergence_study(PARAMS, ACC_BARE, [64, 16], SHARP_K_CUT)
    # mu = 1e-300 is scaled by about 2^997, which takes m_V0 = 1e300 past the float range
    params = ModelParams(m_n=0.0, mu=1e-300, form_factor=FormFactor.sharp(1e-299))
    with pytest.raises(DegenerateModel, match="overflows in units of mu"):
        convergence_study(params, BareCoupling(m_v0=1e300, g0=1.0), [16], 1e-299)


def test_secular_root_ends_at_float_resolution():
    # a bracket of adjacent floats has no midpoint strictly inside it: the end that is
    # not the pole is returned
    lo = 1.0 - math.sqrt(2.0)
    hi = math.nextafter(lo, math.inf)
    assert _root_between(TWO_BY_TWO, lo, hi, hi) == lo
    assert _root_between(TWO_BY_TWO, lo, hi, lo) == hi


def test_secular_root_cap_raises(monkeypatch):
    monkeypatch.setattr(leemodel.oracle, "SECULAR_CAP", 3)
    with pytest.raises(NoConvergence, match="secular root exceeded its iteration cap"):
        all_eigenvalues(TWO_BY_TWO)


def _padded_sharp_matrix():
    # a grid padded past the sharp cutoff gains zero-coupling modes
    grid = build_grid(1.3 * SHARP_K_CUT, 1024, "gauss")
    mat = build_arrowhead(PARAMS, BareCoupling(m_v0=1.8, g0=1.0), grid)
    coupled = mat.coupling != 0.0
    assert np.any(~coupled)
    return mat, ArrowheadMatrix(apex=mat.apex, diag=mat.diag[coupled],
                                coupling=mat.coupling[coupled])


def test_sharp_modes_above_cutoff_decouple():
    # dropping the zero-coupling modes leaves the secular function, hence
    # the bound state, untouched
    mat, sub = _padded_sharp_matrix()
    lam_full = lowest_eigenpair(mat).energy
    lam_sub = lowest_eigenpair(sub).energy
    assert abs(lam_full - lam_sub) < 1e-12


# --- the lowest root against the other eigenvalue routes --------------------------------

def _assert_lowest_cross_checked(mat, coupled=None):
    # lowest_eigenpair certified from both sides at every n; up to n = 256, against
    # all_eigenvalues, the same routine on the same bracket and so the same bits, and LAPACK;
    # or, where mat has zero couplings, against all_eigenvalues of `coupled`, the same
    # secular function without them, on its own bracket
    lam = lowest_eigenpair(mat).energy
    tol = SECULAR_TOL * max(1.0, abs(lam))
    if coupled is not None:
        assert abs(lam - all_eigenvalues(coupled)[0]) <= tol
    elif mat.n <= 256:
        assert lam == all_eigenvalues(mat)[0]
    if mat.n <= 256:
        assert abs(lam - dense_cross_check(mat)[0]) <= tol
    _assert_certified(mat, lam, -math.inf, float(mat.diag[0]))


def _lowest_root_evaluations(monkeypatch, mat):
    # evaluations of s in one lowest_eigenpair call
    calls = []
    inner = leemodel.oracle._secular_and_cloud

    def counted(*args):
        calls.append(None)
        return inner(*args)
    monkeypatch.setattr(leemodel.oracle, "_secular_and_cloud", counted)
    lowest_eigenpair(mat)
    return len(calls)


@pytest.mark.parametrize("make", ALL_MODELS)
@pytest.mark.parametrize("scheme", GRID_SCHEMES)
@pytest.mark.parametrize("n", (8, 57, 912, 4096))
def test_lowest_root_matches_the_other_routes(monkeypatch, make, scheme, n):
    params = make()
    mat = build_arrowhead(params, BareCoupling(m_v0=1.8, g0=1.5),
                          build_grid(upper_momentum(params), n, scheme))
    _assert_lowest_cross_checked(mat)
    assert _lowest_root_evaluations(monkeypatch, mat) <= 8


def test_lowest_root_matches_the_other_routes_on_random_and_decoupled_matrices():
    for seed in range(100):
        _assert_lowest_cross_checked(random_arrowhead(seed))
    first_off = ArrowheadMatrix(apex=0.8, diag=[1.0, 2.0], coupling=[0.0, 1.0])
    _assert_lowest_cross_checked(first_off, ArrowheadMatrix(apex=0.8, diag=[2.0], coupling=[1.0]))
    _assert_lowest_cross_checked(*_padded_sharp_matrix())


def test_lowest_root_takes_few_evaluations_on_the_c4_matrix(monkeypatch):
    mat = build_arrowhead(PARAMS, ACC_BARE, build_grid(SHARP_K_CUT, 4096, "gauss"))
    assert _lowest_root_evaluations(monkeypatch, mat) <= 8


def test_lowest_root_far_below_the_continuum(monkeypatch):
    # a large g0 pulls the root about 2^11.7 below d_1, far outside the
    # continuum's scale, and nearly onto the Weyl bound
    mat = build_arrowhead(PARAMS, BareCoupling(m_v0=1.8, g0=3000.0),
                          build_grid(SHARP_K_CUT, 64, "gauss"))
    lam = lowest_eigenpair(mat).energy
    assert float(mat.diag[0]) - lam > 2.0 ** 11
    _assert_lowest_cross_checked(mat)
    assert _lowest_root_evaluations(monkeypatch, mat) <= 8


def test_lowest_root_just_below_the_first_pole(monkeypatch):
    # a tiny g0 and m_V0 above d_1 leave the root about 3e-10 below the pole
    mat = build_arrowhead(PARAMS, BareCoupling(m_v0=2.5, g0=1e-4),
                          build_grid(SHARP_K_CUT, 8, "uniform"))
    gap = float(mat.diag[0]) - lowest_eigenpair(mat).energy
    assert 1e-10 < gap < 1e-9
    _assert_lowest_cross_checked(mat)
    assert _lowest_root_evaluations(monkeypatch, mat) <= 8


def _near_pole_matrix(g0):
    # m_V0 = 5 lies above d_1, so a small g0 leaves the lowest root close below d_1
    return build_arrowhead(PARAMS, BareCoupling(m_v0=5.0, g0=g0),
                           build_grid(SHARP_K_CUT, 256, "gauss"))


def test_lowest_root_is_never_the_first_pole():
    # each root lies within one ulp below d_1, where the last bracket (d_1 - ulp, d_1) holds
    # no float and its midpoint rounded onto d_1: 12 of these 200 g0, and the repro's
    repro = 0.037145597109747165
    for g0 in (repro, *map(float, np.geomspace(0.005, 0.2, 4000)[::20])):
        mat = _near_pole_matrix(g0)
        _assert_certified(mat, lowest_eigenpair(mat).energy, -math.inf, float(mat.diag[0]))
    for _, _, weight in convergence_study(PARAMS, BareCoupling(5.0, repro), [256, 1024, 4096],
                                          SHARP_K_CUT):
        assert weight > 0.0


def test_lowest_root_within_rounding_of_the_first_pole(monkeypatch):
    # the root lies below d_1 by less than rounding, so every model step lands on d_1
    for g0 in (1e-4, 1e-5, 1e-6):
        assert _lowest_root_evaluations(monkeypatch, _near_pole_matrix(g0)) <= 4


def test_lowest_root_cap_raises(monkeypatch):
    monkeypatch.setattr(leemodel.oracle, "SECULAR_CAP", 2)
    with pytest.raises(NoConvergence, match="iteration cap"):
        lowest_eigenpair(TWO_BY_TWO)
