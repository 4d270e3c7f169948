"""Backward triangular solve, resolvent reconstruction, and their agreement."""

import types

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from vpscatter.dispersion import inverse_laplace_Khat, penrose_scan
from vpscatter.errors import ConfigError, RealityError, StepSizeError
from vpscatter.gevrey import GevreyWeight
from vpscatter.model import Equilibrium, make_preset, maxwellian, two_stream
from vpscatter.volterra import (
    DensityHistory,
    DiscreteResolvent,
    SourceHistory,
    SpectralHistory,
    build_discrete_resolvent,
    corrected_diagonal,
    estimate_density_norm_transfer,
    horizon_tail_estimate,
    lagged_kernel,
    resolvent_identity_residual,
    solve_direct_backward,
    solve_resolvent,
)
from vpscatter.volterra import _operator_entries

MAXW = maxwellian()
VP = make_preset("vp")
SCREENED = make_preset("screened")

FLAT_EQ = Equilibrium(label="off", mu_hat=lambda eta: np.zeros_like(np.asarray(eta, dtype=float), dtype=complex), lambda_analytic=1.0)


def gaussian_source(k_max, n_t, delta_t, width=1.0):
    """Real, even-in-k Gaussian pulse with a silent mean mode."""
    times = delta_t * np.arange(n_t + 1)
    ks = np.arange(-k_max, k_max + 1)
    weights = np.where(ks == 0, 0.0, 1.0 / (1.0 + ks.astype(float) ** 2))
    vals = np.exp(-0.5 * (times / width) ** 2)[:, None] * weights[None, :]
    return SourceHistory(times, ks, vals.astype(complex))


def rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.fixture(scope="module")
def matched_fixture():
    """Direct solve plus lag-recursion tables on an 8-mode grid."""
    source = gaussian_source(8, 256, 40.0 / 256)
    direct = solve_direct_backward(VP, MAXW, source)
    tables = {int(k): build_discrete_resolvent(VP, MAXW, int(k), source.delta_t,
                                               source.n_times - 1)
              for k in source.k_values if k != 0}
    return source, direct, tables


@pytest.fixture(scope="module")
def contour_fixture():
    """Contour-synthesized kernel tables for k = +-1, +-2 at two grids."""
    out = {}
    for n_t, dt in ((128, 0.15625), (256, 0.078125)):
        source = gaussian_source(2, n_t, dt)
        lag = source.times - source.times[0]
        tables = {}
        for k in (1, 2):
            tab = inverse_laplace_Khat(VP, MAXW, k, lag)
            tables[k] = tab
            tables[-k] = types.SimpleNamespace(times=tab.times,
                                               values=np.conj(tab.values))
        out[dt] = (source, tables)
    return out


def test_zero_source_zero_density_both_routes():
    times = 0.25 * np.arange(33)
    ks = np.arange(-2, 3)
    src = SourceHistory(times, ks, np.zeros((33, 5), dtype=complex))
    direct = solve_direct_backward(VP, MAXW, src)
    tables = {int(k): build_discrete_resolvent(VP, MAXW, int(k), 0.25, 32)
              for k in ks if k != 0}
    recon = solve_resolvent(VP, MAXW, src, tables)
    assert np.all(direct.values == 0.0)
    assert np.all(recon.values == 0.0)


def test_switched_off_kernel_returns_source_exactly():
    src = gaussian_source(2, 40, 0.2)
    direct = solve_direct_backward(VP, FLAT_EQ, src)
    tables = {int(k): build_discrete_resolvent(VP, FLAT_EQ, int(k), 0.2, 40)
              for k in src.k_values if k != 0}
    recon = solve_resolvent(VP, FLAT_EQ, src, tables)
    assert np.array_equal(direct.values, src.values)
    assert np.array_equal(recon.values, src.values)


def test_direct_solve_matches_tenfold_finer_grid():
    coarse = solve_direct_backward(VP, MAXW, gaussian_source(1, 64, 0.25))
    fine = solve_direct_backward(VP, MAXW, gaussian_source(1, 640, 0.025))
    gap = rel_l2(coarse.mode(1), fine.mode(1)[::10])
    assert gap <= 1e-5  # measured 2.9e-6
    half = solve_direct_backward(VP, MAXW, gaussian_source(1, 128, 0.125))
    half_fine = solve_direct_backward(VP, MAXW, gaussian_source(1, 1280, 0.0125))
    gap_half = rel_l2(half.mode(1), half_fine.mode(1)[::10])
    assert gap_half <= 1e-6
    # corner-corrected trapezoid converges well beyond second order
    assert gap / gap_half > 10.0


def test_discrete_system_residual_per_mode(matched_fixture):
    source, direct, _ = matched_fixture
    n = source.n_times
    for k in (1, 5):
        j = source.index_of(k)
        diag, entries = _operator_entries(VP, MAXW, k, source.delta_t, n - 1)
        recovered = direct.values[:, j]
        resid = np.zeros(n, dtype=complex)
        for i in range(n):
            resid[i] = (diag * recovered[i]
                        + np.sum(entries[1:n - i] * recovered[i + 1:])
                        - source.values[i, j])
        assert np.max(np.abs(resid)) <= 1e-10 * np.linalg.norm(source.values[:, j])


def test_resolvent_route_matches_direct_to_roundoff(matched_fixture):
    source, direct, tables = matched_fixture
    recon = solve_resolvent(VP, MAXW, source, tables)
    assert rel_l2(recon.values, direct.values) <= 1e-12  # measured 1.4e-16


def test_discrete_identity_residual_is_roundoff(matched_fixture):
    source, _, _ = matched_fixture
    for k in (1, 3, 8):
        resid = resolvent_identity_residual(VP, MAXW, k, source.delta_t,
                                            source.n_times - 1)
        assert resid <= 1e-12  # measured <= 2e-17


def test_contour_tables_reproduce_direct_solve(contour_fixture):
    gaps = {}
    for dt, (source, tables) in contour_fixture.items():
        direct = solve_direct_backward(VP, MAXW, source)
        recon = solve_resolvent(VP, MAXW, source, tables)
        gaps[dt] = rel_l2(recon.values, direct.values)
    assert gaps[0.15625] <= 6e-3  # measured 2.75e-3
    # trapezoid application of the continuum kernel is second order
    ratio = gaps[0.15625] / gaps[0.078125]
    assert 3.0 < ratio < 5.5  # measured 4.03


def test_lag_weights_track_contour_kernel_past_stencil(contour_fixture):
    gaps = {}
    for dt, (source, tables) in contour_fixture.items():
        disc = build_discrete_resolvent(VP, MAXW, 1, dt, source.n_times - 1)
        tab = tables[1]
        scale = np.max(np.abs(tab.values))
        gaps[dt] = float(np.max(np.abs(disc.values[4:] - tab.values[4:])) / scale)
        # the first three lags absorb the corner correction and are
        # compensatory, not kernel samples
        near = float(np.max(np.abs(disc.values[:4] - tab.values[:4])) / scale)
        assert near > gaps[dt]
    assert gaps[0.15625] <= 2e-5  # measured 5.1e-6
    assert gaps[0.15625] / gaps[0.078125] > 6.0  # measured 11.7


def test_contour_identity_residual_is_coarse_but_consistent(contour_fixture):
    source, tables = contour_fixture[0.15625]
    coarse = resolvent_identity_residual(VP, MAXW, 1, source.delta_t,
                                         source.n_times - 1, table=tables[1])
    exact = resolvent_identity_residual(VP, MAXW, 1, source.delta_t,
                                        source.n_times - 1)
    assert coarse <= 0.1  # measured 4.7e-2, corner-row quadrature clash
    assert exact < 1e-6 * coarse


def test_solution_satisfies_continuum_equation():
    src = gaussian_source(2, 128, 0.125)
    sol = solve_direct_backward(VP, MAXW, src)
    for k in (1, 2):
        col = sol.mode(k)
        spl_re = CubicSpline(sol.times, col.real)
        spl_im = CubicSpline(sol.times, col.imag)
        horizon = sol.horizon
        for i_t in (0, 14, 34):
            t = float(sol.times[i_t])
            ire = quad(lambda s: spl_re(s) * (s - t) * np.exp(-0.5 * (k * (s - t)) ** 2),
                       t, horizon, limit=200)[0]
            iim = quad(lambda s: spl_im(s) * (s - t) * np.exp(-0.5 * (k * (s - t)) ** 2),
                       t, horizon, limit=200)[0]
            resid = abs(col[i_t] + (ire + 1j * iim) - src.values[i_t, src.index_of(k)])
            assert resid <= 5e-7  # measured 2.9e-8, spline-limited


def test_backward_causality_exact():
    rng = np.random.default_rng(11)
    times = 0.2 * np.arange(65)
    ks = np.arange(-2, 3)
    base = rng.normal(size=(65, 5)) + 1j * rng.normal(size=(65, 5))
    base[:, 2] = 0.0
    bumped = base.copy()
    bumped[:20, :] += rng.normal(size=(20, 5))
    bumped[:, 2] = 0.0
    src_a = SourceHistory(times, ks, base)
    src_b = SourceHistory(times, ks, bumped)
    sol_a = solve_direct_backward(VP, MAXW, src_a)
    sol_b = solve_direct_backward(VP, MAXW, src_b)
    assert np.array_equal(sol_a.values[20:], sol_b.values[20:])
    assert np.any(sol_a.values[:20] != sol_b.values[:20])
    tables = {int(k): build_discrete_resolvent(VP, MAXW, int(k), 0.2, 64)
              for k in ks if k != 0}
    rec_a = solve_resolvent(VP, MAXW, src_a, tables)
    rec_b = solve_resolvent(VP, MAXW, src_b, tables)
    assert np.array_equal(rec_a.values[20:], rec_b.values[20:])


def test_reality_symmetry_preserved():
    rng = np.random.default_rng(3)
    times = 0.25 * np.arange(49)
    ks = np.arange(-3, 4)
    half = rng.normal(size=(49, 3)) + 1j * rng.normal(size=(49, 3))
    vals = np.zeros((49, 7), dtype=complex)
    vals[:, 4:] = half
    vals[:, :3] = np.conj(half[:, ::-1])
    src = SourceHistory(times, ks, vals)
    assert src.reality_defect() <= 1e-14
    sol = solve_direct_backward(SCREENED, MAXW, src)
    assert sol.reality_defect() <= 1e-12
    tables = {int(k): build_discrete_resolvent(SCREENED, MAXW, int(k), 0.25, 48)
              for k in ks if k != 0}
    rec = solve_resolvent(SCREENED, MAXW, src, tables)
    assert rec.reality_defect() <= 1e-12


def test_mismatched_mirror_table_raises_reality_error():
    src = gaussian_source(2, 32, 0.25)
    assert src.reality_defect() == 0.0
    tables = {int(k): build_discrete_resolvent(VP, MAXW, int(k), 0.25, 32)
              for k in (1, 2, -1, -2)}
    bad = tables[-1]
    tables[-1] = types.SimpleNamespace(times=bad.times, values=2.0 * bad.values,
                                       diagonal=bad.diagonal)
    with pytest.raises(RealityError, match="reality symmetry"):
        solve_resolvent(VP, MAXW, src, tables)


def test_mean_mode_passthrough_and_zeroing():
    times = 0.25 * np.arange(17)
    ks = np.array([-1, 0, 1])
    vals = np.ones((17, 3), dtype=complex)
    src = SourceHistory(times, ks, vals)
    sol = solve_direct_backward(SCREENED, MAXW, src)
    assert np.array_equal(sol.mode(0), src.mode(0))
    with pytest.raises(ConfigError, match="mean-zero"):
        solve_direct_backward(VP, MAXW, src)
    silent = vals.copy()
    silent[:, 1] = 0.0
    sol_vp = solve_direct_backward(VP, MAXW, SourceHistory(times, ks, silent))
    assert np.all(sol_vp.mode(0) == 0.0)


def test_degenerate_diagonal_raises_step_size_error():
    # constant transform tuned so the corner corrections cancel the unit
    # diagonal at delta_t = 1: d = 1 + 3 mu_hat(0) / 40
    bad = Equilibrium(label="degenerate",
                      mu_hat=lambda eta: np.full_like(np.asarray(eta, dtype=float),
                                                      (-40.0 / 3.0) * (1.0 - 1e-9),
                                                      dtype=complex),
                      lambda_analytic=1.0)
    diag = corrected_diagonal(VP, bad, 1, 1.0)
    assert abs(diag) < 1e-8
    times = 1.0 * np.arange(9)
    ks = np.array([-1, 0, 1])
    src = SourceHistory(times, ks, np.zeros((9, 3), dtype=complex))
    with pytest.raises(StepSizeError, match="reduce the time step"):
        solve_direct_backward(VP, bad, src)


def test_missing_and_mismatched_tables_rejected():
    src = gaussian_source(2, 32, 0.25)
    tables = {int(k): build_discrete_resolvent(VP, MAXW, int(k), 0.25, 32)
              for k in (1, 2, -1)}
    with pytest.raises(ConfigError, match="k=-2"):
        solve_resolvent(VP, MAXW, src, tables)
    wrong = {int(k): build_discrete_resolvent(VP, MAXW, int(k), 0.125, 32)
             for k in (1, 2, -1, -2)}
    with pytest.raises(ConfigError, match="lag grid"):
        solve_resolvent(VP, MAXW, src, wrong)
    short = {int(k): build_discrete_resolvent(VP, MAXW, int(k), 0.25, 8)
             for k in (1, 2, -1, -2)}
    with pytest.raises(ConfigError, match="lags"):
        solve_resolvent(VP, MAXW, src, short)


def test_kernel_helpers_validate_inputs():
    with pytest.raises(ConfigError, match="nonzero"):
        lagged_kernel(VP, MAXW, 0, 0.1, 10)
    with pytest.raises(ConfigError, match="delta_t"):
        lagged_kernel(VP, MAXW, 1, -0.1, 10)
    ell = lagged_kernel(VP, MAXW, 1, 0.1, 10)
    assert ell[0] == 0.0
    assert ell[3] == pytest.approx(0.3 * np.exp(-0.045), rel=1e-12)


def test_history_validation_and_write_protection():
    times = 0.5 * np.arange(5)
    ks = np.arange(-1, 2)
    good = np.zeros((5, 3), dtype=complex)
    with pytest.raises(ConfigError, match="uniform"):
        SpectralHistory(np.array([0.0, 0.5, 1.1, 1.5, 2.0]), ks, good)
    with pytest.raises(ConfigError, match="strictly"):
        SpectralHistory(np.array([0.0, 0.5, 0.5, 1.5, 2.0]), ks, good)
    with pytest.raises(ConfigError, match="integer"):
        SpectralHistory(times, np.array([-1.0, 0.5, 1.0]), good)
    with pytest.raises(ConfigError, match="distinct"):
        SpectralHistory(times, np.array([1, 1, 0]), good)
    with pytest.raises(ConfigError, match="shape"):
        SpectralHistory(times, ks, np.zeros((5, 2), dtype=complex))
    bad = good.copy()
    bad[2, 1] = np.nan
    with pytest.raises(ConfigError, match="finite"):
        SpectralHistory(times, ks, bad)
    hist = SpectralHistory(times, ks, good)
    with pytest.raises(ValueError):
        hist.values[0, 0] = 1.0
    with pytest.raises(ConfigError, match="lattice"):
        hist.mode(7)
    assert hist.delta_t == 0.5
    assert hist.horizon == 2.0


def test_tail_estimate_tracks_horizon():
    long_run = solve_direct_backward(VP, MAXW, gaussian_source(1, 128, 0.125))
    short_run = solve_direct_backward(VP, MAXW, gaussian_source(1, 24, 0.125))
    assert long_run.tail_estimate <= 1e-12
    assert short_run.tail_estimate >= 1e-3
    assert isinstance(long_run, DensityHistory)


def test_norm_transfer_ratio_convention_and_grid_stability():
    w = GevreyWeight()
    times = 0.25 * np.arange(33)
    ks = np.arange(-1, 2)
    silent = SourceHistory(times, ks, np.zeros((33, 3), dtype=complex))
    sol = solve_direct_backward(VP, MAXW, silent)
    rep = estimate_density_norm_transfer(silent, sol, w)
    assert rep.n2_density == 0.0 and rep.n2_source == 0.0
    assert rep.ratio == 1.0

    src_a = gaussian_source(2, 128, 0.125)
    rep_a = estimate_density_norm_transfer(src_a, solve_direct_backward(VP, MAXW, src_a), w)
    src_b = gaussian_source(2, 256, 0.0625)
    rep_b = estimate_density_norm_transfer(src_b, solve_direct_backward(VP, MAXW, src_b), w)
    assert 0.9 < rep_a.ratio < 1.05  # measured 0.9712
    assert abs(rep_a.ratio - rep_b.ratio) <= 0.1 * rep_a.ratio  # measured 3e-6 relative

    with pytest.raises(ConfigError, match="grid"):
        estimate_density_norm_transfer(src_a, solve_direct_backward(VP, MAXW, src_b), w)


def test_norm_transfer_grows_toward_instability():
    w = GevreyWeight()
    src = gaussian_source(1, 192, 36.0 / 192, width=3.0)
    kappas = []
    ratios = []
    for v0 in (0.5, 0.8, 0.85):
        eq = two_stream(v0, width=0.5)
        scan = penrose_scan(VP, eq, 4)
        assert scan.stable
        sol = solve_direct_backward(VP, eq, src)
        rep = estimate_density_norm_transfer(src, sol, w)
        kappas.append(scan.kappa0)
        ratios.append(rep.ratio)
    assert kappas[0] > kappas[1] + 0.05 > kappas[2] + 0.1
    assert ratios[0] < ratios[1] < ratios[2]  # measured 0.802, 0.841, 0.849


def test_discrete_resolvent_table_shape():
    tab = build_discrete_resolvent(VP, MAXW, 2, 0.125, 64)
    assert isinstance(tab, DiscreteResolvent)
    assert tab.values[0] == 0.0
    assert tab.times[0] == 0.0 and tab.times[-1] == pytest.approx(8.0)
    assert abs(tab.diagonal - 1.0) < 5e-3
    assert horizon_tail_estimate(VP, MAXW, gaussian_source(1, 16, 0.125)) > 0.0
