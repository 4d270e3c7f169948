"""Weight, norm, and inequality checks for the Gevrey utilities."""

import math
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gevrey_inequality_suite
from scipy.integrate import quad
from scipy.special import logsumexp

import vpscatter
from vpscatter.errors import BlowUpError, ConfigError, WeightOverflowError
from vpscatter.gevrey import (
    GevreyWeight,
    _eta_derivatives,
    _log_abs_sq,
    _log_sum_exp,
    bracket,
    lambda_of_t,
    log_weight_A,
    n1_at_time,
    norm_N2,
    time_bracket,
    weight_violations,
    weighted_norm_report,
)
from vpscatter.field import efield_weighted_norms, weighted_density_norm
from vpscatter.kinetic import PhaseGrid, SpectralState
from vpscatter.volterra import DensityHistory, SpectralHistory

# frozen oracle values
LAMBDA_AT_1 = 0.2 - 0.05 * 2.0 ** (-0.025)  # 0.15085897007273746
N1_GAUSS_M2 = 1832693.9697307912  # continuum quadrature, defaults, t=0


def norm_N1(state_history, w):
    """Sup over timestamps of the weighted distribution norm."""
    return max((n1_at_time(state, w) for state in state_history), default=0.0)


def log_weight_B(w, t, k, eta):
    """One extra bracket power on top of the base weight."""
    br = bracket(k, eta)
    return lambda_of_t(w, t) * br**w.gamma + (w.sigma + 1.0) * np.log(br)


def norm_equivalence_check(state, w):
    """Two independent routes to the moment-weighted norm of one state.

    Route one differentiates the weighted transform in eta (finite
    differences); route two transforms to velocity space and applies the
    polynomial moment weight <v>^(2 moments) directly. Both target
    sum_j binom(moments, j) |v^j F|^2 summed over modes, so the gap is pure
    discretization error and must shrink under eta refinement.
    """
    eta = np.asarray(state.eta, dtype=float)
    d_eta = float(eta[1] - eta[0])
    n = eta.size
    k = np.asarray(state.k_values, dtype=float)[:, None]
    log_b = log_weight_B(w, state.time, k, eta[None, :])
    shift = float(np.max(log_b))
    weighted = np.asarray(state.values) * np.exp(log_b - shift)

    m = w.moments
    side_fd = 0.0
    for j in range(m + 1):
        deriv = oracle_derivative(weighted, d_eta, j)
        side_fd += math.comb(m, j) * float(
            np.trapezoid(np.sum(np.abs(deriv) ** 2, axis=0), dx=d_eta))
    side_fd /= 2.0 * math.pi

    # inverse transform on the conjugate velocity grid; eta starts at eta[0]
    v = np.fft.fftfreq(n, d=d_eta / (2.0 * math.pi))
    phase = np.exp(1j * eta[0] * v)[None, :]
    f_v = n * d_eta / (2.0 * math.pi) * np.fft.ifft(weighted, axis=1) * phase
    d_v = 2.0 * math.pi / (n * d_eta)
    vw = (1.0 + v * v) ** m
    side_fft = float(np.sum(vw[None, :] * np.abs(f_v) ** 2) * d_v)

    scale = math.exp(2.0 * shift)
    return side_fd * scale, side_fft * scale


def gaussian_state(d_eta=0.125, span=16.0):
    eta = np.arange(-span, span + d_eta / 2, d_eta)
    values = np.exp(-(eta**2) / 2)[None, :].astype(complex)
    return SimpleNamespace(time=0.0, k_values=np.array([1]), eta=eta, values=values)


def test_lambda_profile():
    w = GevreyWeight()
    assert float(lambda_of_t(w, 0.0)) == pytest.approx(0.15, abs=1e-15)
    assert float(lambda_of_t(w, 1.0)) == pytest.approx(LAMBDA_AT_1, abs=1e-15)
    # delta = 0.05 makes the approach slow: <t>^-0.05 is 3.2e-8 at t = 1e150
    assert float(lambda_of_t(w, 1e150)) == pytest.approx(0.2, abs=2e-9)
    t = np.linspace(0, 50, 200)
    lam = np.asarray(lambda_of_t(w, t))
    assert np.all(np.diff(lam) > 0) and np.all(lam < w.lambda_inf)


def test_weight_logs_and_ratio():
    w = GevreyWeight()
    assert float(log_weight_A(w, 3.0, 0, 0.0)) == pytest.approx(
        float(lambda_of_t(w, 3.0)), abs=1e-15)
    rng = np.random.default_rng(3)
    k = rng.integers(-8, 9, size=200)
    eta = rng.uniform(-40, 40, size=200)
    diff = log_weight_B(w, 2.0, k, eta) - log_weight_A(w, 2.0, k, eta)
    assert np.max(np.abs(diff - np.log(bracket(k, eta)))) < 1e-12


def test_weight_monotonicity_random_triples():
    w = GevreyWeight()
    rng = np.random.default_rng(5)
    k = rng.integers(0, 9, size=10_000)
    eta = rng.uniform(0, 50, size=10_000)
    t = rng.uniform(0, 40, size=10_000)
    base = log_weight_A(w, t, k, eta)
    assert np.all(log_weight_A(w, t + 1.0, k, eta) >= base)
    assert np.all(log_weight_A(w, t, k + 1, eta) >= base)
    assert np.all(log_weight_A(w, t, k, eta + 0.5) >= base)


def test_weight_validation():
    for kwargs in ({"gamma": 0.2}, {"gamma": 1.0}, {"sigma": 10.0}, {"b": 9.0},
                   {"moments": 0}, {"delta": 0.0}, {"c_decay": 0.3}):
        with pytest.raises(ConfigError):
            GevreyWeight(**kwargs)
    w = GevreyWeight().reduced()
    assert w.lambda_inf == pytest.approx(0.18)
    assert float(lambda_of_t(w, 0.0)) == pytest.approx(0.9 * 0.15)


def test_weight_violations_listed_together():
    good = dict(gamma=0.5, sigma=12.0, lambda_inf=0.2, c_decay=0.05,
                delta=0.05, b=11.0, moments=2)
    assert weight_violations(**good) == []
    bad = weight_violations(**{**good, "gamma": 0.2, "b": 9.0,
                               "moments": 1.5})
    assert len(bad) == 3
    assert "(1/3, 1)" in bad[0] and "b = 9.0" in bad[1] and "moments" in bad[2]
    with pytest.raises(ConfigError, match=r"gamma = 0.2 .*; b = 9.0"):
        GevreyWeight(gamma=0.2, b=9.0)


def test_eta_derivative_orders():
    eta = np.arange(-10, 10.001, 0.05)
    f = np.exp(-(eta**2) / 2)
    _, d1, d2 = _eta_derivatives(f[None, :], 0.05, 2)[:, 0].real
    inner = slice(40, -40)  # zero-extension pollutes only the far tails
    assert np.max(np.abs(d1 - (-eta * f))[inner]) < 5e-6
    assert np.max(np.abs(d2 - ((eta**2 - 1) * f))[inner]) < 5e-6


def test_n1_gaussian_against_quadrature_oracle():
    w = GevreyWeight()
    lam0 = float(lambda_of_t(w, 0.0))

    def integrand(poly):
        def f(e):
            br = math.sqrt(2 + e * e)
            return math.exp(2 * lam0 * br**0.5) * br**26 * poly(e) ** 2 * math.exp(-e * e)
        return f

    total = sum(quad(integrand(p), -40, 40, limit=800)[0]
                for p in (lambda e: 1.0, lambda e: -e, lambda e: e * e - 1))
    oracle = math.sqrt(total)
    assert oracle == pytest.approx(N1_GAUSS_M2, rel=1e-12)
    coarse = n1_at_time(gaussian_state(0.125), w)
    fine = n1_at_time(gaussian_state(0.0125), w)
    assert coarse == pytest.approx(oracle, rel=1e-3)
    assert fine == pytest.approx(oracle, rel=1e-7)


def test_norms_trivial_and_homogeneous():
    w = GevreyWeight()
    st = gaussian_state()
    zero = SimpleNamespace(time=0.0, k_values=st.k_values, eta=st.eta,
                           values=np.zeros_like(st.values))
    assert norm_N1([zero], w) == 0.0
    doubled = SimpleNamespace(time=0.0, k_values=st.k_values, eta=st.eta,
                              values=2.0 * st.values)
    assert norm_N1([doubled], w) == pytest.approx(2 * norm_N1([st], w), rel=1e-10)

    times = np.arange(0.0, 5.01, 0.5)
    kv = np.array([-1, 0, 1])
    vals = np.zeros((times.size, kv.size), dtype=complex)
    dens0 = SimpleNamespace(times=times, k_values=kv, values=vals)
    assert norm_N2(dens0, w) == 0.0
    vals = vals.copy()
    vals[4, 2] = 1.0  # lone sample at t=2, k=1
    dens1 = SimpleNamespace(times=times, k_values=kv, values=vals)
    expected = math.sqrt(0.5) * math.sqrt(5.0) ** w.b * math.exp(
        float(log_weight_A(w, 2.0, 1.0, 2.0)))
    assert norm_N2(dens1, w) == pytest.approx(expected, rel=1e-12)
    dens3 = SimpleNamespace(times=times, k_values=kv, values=3 * vals)
    assert norm_N2(dens3, w) == pytest.approx(3 * expected, rel=1e-10)


def test_n2_grid_refinement_consistency():
    w = GevreyWeight()
    kv = np.array([-1, 0, 1])

    def history(dt):
        times = np.arange(0.0, 20.0 + dt / 2, dt)
        vals = np.zeros((times.size, kv.size), dtype=complex)
        profile = np.exp(-0.5 * times) / (1.0 + times) ** 2
        vals[:, 0] = profile
        vals[:, 2] = profile
        return SimpleNamespace(times=times, k_values=kv, values=vals)

    coarse = norm_N2(history(0.05), w)
    fine = norm_N2(history(0.025), w)
    assert abs(coarse - fine) / fine < 0.01


def test_norm_report_totals():
    w = GevreyWeight()
    st = gaussian_state()
    times = np.arange(0.0, 2.01, 0.5)
    kv = np.array([1])
    vals = np.full((times.size, 1), 1e-3, dtype=complex)
    dens = SimpleNamespace(times=times, k_values=kv, values=vals)
    rep = weighted_norm_report([st], dens, w)
    assert rep.n_total == rep.n1 + rep.n2
    assert rep.n1 > 0 and rep.n2 > 0
    assert len(rep.per_time) == 1 and rep.per_time[0][0] == 0.0


def test_norm_overflow_guard():
    # lambda_inf near the representability edge with huge frequencies
    w = GevreyWeight(lambda_inf=0.9, c_decay=0.05)
    eta = np.arange(-4e6, 4e6 + 1, 1e4)
    st = SimpleNamespace(time=0.0, k_values=np.array([1]), eta=eta,
                         values=np.ones((1, eta.size), dtype=complex))
    with pytest.raises(WeightOverflowError):
        n1_at_time(st, w)


def test_density_norm_overflow_guard():
    w = GevreyWeight(lambda_inf=0.9, c_decay=0.05)
    times = np.arange(0.0, 4e6 + 1, 1e4)
    dens = SimpleNamespace(times=times, k_values=np.array([1]),
                           values=np.ones((times.size, 1), dtype=complex))
    with pytest.raises(WeightOverflowError):
        norm_N2(dens, w)


def test_inequality_suite_margins():
    rep = gevrey_inequality_suite(0.5, 100_000, seed=1)
    assert rep.subadditivity_violations == 0 and rep.nearby_violations == 0
    assert rep.subadditivity_margin >= 0
    assert rep.nearby_margin >= 0
    assert rep.comparable_constant < 1.0
    assert rep.difference_quotient_constant < 1.5
    # spot value: x=100, y=75 falls in the half-ratio regime
    lhs = abs(math.sqrt(math.sqrt(1 + 100**2)) - math.sqrt(math.sqrt(1 + 75**2)))
    rhs = 0.5 * math.sqrt(math.sqrt(1 + 25**2))
    assert lhs < rhs
    with pytest.raises(ConfigError):
        gevrey_inequality_suite(1.0, 100_000)
    with pytest.raises(ConfigError):
        gevrey_inequality_suite(0.5, 100)


def test_norm_equivalence_gap_shrinks():
    w = GevreyWeight()
    gaps = []
    for d_eta in (0.25, 0.125, 0.0625):
        side_fd, side_fft = norm_equivalence_check(gaussian_state(d_eta), w)
        gaps.append(abs(side_fd - side_fft) / side_fft)
    assert gaps[0] < 0.01
    assert gaps[1] < gaps[0] / 8
    assert gaps[2] < gaps[1] / 8


# --- frozen oracle: the norm kernel with np.pad differences, per-call weight
# tables and scipy's logsumexp; the package must match it bit for bit on
# finite data

_LOG_MAX = math.log(np.finfo(float).max)


def oracle_difference(values, d_eta, order):
    """One 4th-order centred difference (order 1 or 2), zero outside the grid."""
    ext = np.pad(values, [(0, 0)] * (values.ndim - 1) + [(2, 2)])
    n = values.shape[-1]
    m2, m1, c, p1, p2 = (ext[..., i:i + n] for i in range(5))
    if order == 1:
        return (8.0 * (p1 - m1) - (p2 - m2)) * (1.0 / (12.0 * d_eta))
    return (16.0 * (p1 + m1) - (p2 + m2) - 30.0 * c) * (1.0 / (12.0 * d_eta**2))


def oracle_derivative(values, d_eta, order):
    out = np.asarray(values)
    while order >= 2:
        out = oracle_difference(out, d_eta, 2)
        order -= 2
    if order == 1:
        out = oracle_difference(out, d_eta, 1)
    return out


# the same stencils as taps added in stencil order, then scaled: the form the
# package used first, kept to bound how far the difference form moved N1
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def oracle_stencil(values, stencil, scale):
    ext = np.pad(values, [(0, 0)] * (values.ndim - 1) + [(2, 2)])
    out = np.zeros_like(values)
    n = values.shape[-1]
    for i, c in enumerate(stencil):
        if c != 0.0:
            out += c * ext[..., i:i + n]
    return out * scale


def oracle_tap_derivative(values, d_eta, order):
    out = np.asarray(values)
    while order >= 2:
        out = oracle_stencil(out, _D2, 1.0 / d_eta**2)
        order -= 2
    if order == 1:
        out = oracle_stencil(out, _D1, 1.0 / d_eta)
    return out


def oracle_log_abs_sq(values):
    mag2 = np.abs(values) ** 2
    with np.errstate(divide="ignore"):
        return np.where(mag2 > 0, np.log(mag2, where=mag2 > 0,
                                          out=np.full(mag2.shape, -np.inf)), -np.inf)


def oracle_sqrt_of_exp_sum(logs):
    if np.all(np.isneginf(logs)):
        return 0.0
    half = 0.5 * logsumexp(logs)
    if not half <= _LOG_MAX:
        raise WeightOverflowError("oracle overflow")
    return float(np.exp(half))


def oracle_n1_logs(state, w, derivative=oracle_derivative):
    k = np.asarray(state.k_values, dtype=float)[:, None]
    eta = np.asarray(state.eta, dtype=float)[None, :]
    br = bracket(k, eta)
    log_w2 = (2.0 * float(lambda_of_t(w, state.time)) * br**w.gamma
              + (2.0 * w.sigma + 2.0) * np.log(br))
    d_eta = float(state.eta[1] - state.eta[0])
    quad_logs = np.full(br.shape[1], math.log(d_eta))
    quad_logs[0] -= math.log(2.0)
    quad_logs[-1] -= math.log(2.0)
    return np.stack([log_w2 + quad_logs[None, :]
                     + oracle_log_abs_sq(derivative(np.asarray(state.values),
                                                    d_eta, order))
                     for order in range(w.moments + 1)])


def oracle_n1(state, w, derivative=oracle_derivative):
    return oracle_sqrt_of_exp_sum(oracle_n1_logs(state, w, derivative))


def oracle_n2(density, w):
    times = np.asarray(density.times, dtype=float)
    k = np.asarray(density.k_values, dtype=float)
    dt = float(times[1] - times[0])
    br = bracket(k[None, :], k[None, :] * times[:, None])
    lam = np.asarray(lambda_of_t(w, times), dtype=float)[:, None]
    logs = (math.log(dt)
            + 2.0 * w.b * np.log(time_bracket(times))[:, None]
            + 2.0 * lam * br**w.gamma + 2.0 * w.sigma * np.log(br)
            + oracle_log_abs_sq(np.asarray(density.values)))
    return oracle_sqrt_of_exp_sum(logs)


# the three session-fixture grids, then the scatter and roundtrip-vpme
# benchmark grids
ORACLE_GRIDS = [PhaseGrid(2, 70.0, 0.25), PhaseGrid(3, 24.0, 0.0625),
                PhaseGrid(2, 60.0, 0.125), PhaseGrid(2, 22.0, 0.25),
                PhaseGrid(2, 16.0, 0.125)]


def random_state(grid, rng, time):
    shape = (grid.n_modes, grid.n_eta)
    decay = np.exp(-0.05 * grid.eta**2)[None, :]
    values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * decay
    return SpectralState(time, grid, 1e-3 * values)


@pytest.mark.parametrize("grid", ORACLE_GRIDS,
                         ids=lambda g: f"k{g.k_max}-eta{g.eta_max}/{g.delta_eta}")
def test_n1_and_derivatives_match_oracle_bit_for_bit(grid):
    rng = np.random.default_rng(grid.n_eta)
    # every moment order 1-5: an odd one leaves the last derivative unpaired
    for w in (GevreyWeight(), GevreyWeight(gamma=0.7, sigma=13.5, moments=4),
              *(GevreyWeight(moments=m) for m in (1, 3, 5))):
        for time in (0.0, 0.1, 3.7, 31.9):
            state = random_state(grid, rng, time)
            assert n1_at_time(state, w) == oracle_n1(state, w)
    stack = _eta_derivatives(state.values, grid.delta_eta, 5)
    for order in range(6):
        assert np.array_equal(stack[order],
                              oracle_derivative(state.values, grid.delta_eta, order))


@pytest.mark.parametrize("grid", ORACLE_GRIDS,
                         ids=lambda g: f"k{g.k_max}-eta{g.eta_max}/{g.delta_eta}")
def test_n1_within_roundoff_of_the_tap_form(grid):
    # the centred differences round differently from the taps added in
    # stencil order; N1 moves at roundoff only
    rng = np.random.default_rng(grid.n_eta + 1)
    for moments in range(1, 6):
        w = GevreyWeight(moments=moments)
        for time in (0.0, 3.7, 31.9):
            state = random_state(grid, rng, time)
            tap = oracle_n1(state, w, oracle_tap_derivative)
            assert abs(n1_at_time(state, w) - tap) <= 1e-14 * tap


COVARIANCE_GRIDS = [PhaseGrid(1, 8.0, 0.25), PhaseGrid(2, 22.0, 0.25),
                    PhaseGrid(3, 12.0, 0.125)]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(grid=st.sampled_from(COVARIANCE_GRIDS),
       theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
       log_amp=st.floats(-12.0, 3.0), moments=st.integers(1, 5),
       time=st.floats(0.0, 40.0), seed=st.integers(0, 2**16))
def test_n1_is_translation_and_reflection_covariant(grid, theta, log_amp,
                                                    moments, time, seed):
    # x -> x + theta sends row k to e^{ik theta} times itself, and
    # (x, v) -> (-x, -v) sends g(k, eta) to conj g(-k, -eta): neither
    # changes a moment-weighted norm
    w = GevreyWeight(moments=moments)
    values = 10.0**log_amp * 1e3 * random_state(
        grid, np.random.default_rng(seed), time).values
    base = n1_at_time(SpectralState(time, grid, values), w)
    phase = np.exp(1j * theta * grid.k_values)[:, None]
    for image in (phase * values, np.conj(values[::-1, ::-1])):
        moved = n1_at_time(SpectralState(time, grid, image), w)
        assert abs(moved - base) <= 1e-13 * base


def masked_log_abs_sq(values):
    """log |values|^2 as a fill of -inf and a log masked to the positive
    squares."""
    with np.errstate(over="ignore"):
        mag2 = np.abs(values) ** 2
    return np.log(mag2, where=mag2 > 0, out=np.full(mag2.shape, -np.inf))


def test_log_abs_sq_matches_the_masked_log():
    tiny = np.finfo(float).tiny
    big = np.finfo(float).max
    zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0)]
    subnormal = [1e-160, 3e-161j, complex(1e-160, -2e-160)]
    to_zero = [5e-324, 1e-170, 1e-200j]
    overflow = [1e160, -1e160j, complex(1e155, 1e155), big, complex(big, big)]
    normal = [np.sqrt(tiny), np.sqrt(big), 1.0, -2.5 + 0.5j]
    edge_cases = np.array(zeros + subnormal + to_zero + overflow + normal)
    rng = np.random.default_rng(9)
    spread = (10.0 ** rng.uniform(-330, 308, size=(3, 200))
              * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(3, 200))))
    for values in (edge_cases, spread):
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            got = _log_abs_sq(values, np.empty(values.shape))
        with np.errstate(divide="ignore"):
            want = masked_log_abs_sq(values)
        assert np.array_equal(got, want)
    logs = _log_abs_sq(edge_cases, np.empty(edge_cases.shape))
    bounds = np.cumsum([len(zeros), len(subnormal), len(to_zero), len(overflow)])
    assert np.all(logs[:bounds[0]] == -np.inf)
    assert np.all(np.isfinite(logs[bounds[0]:bounds[1]]))
    assert np.all(logs[bounds[1]:bounds[2]] == -np.inf)
    assert np.all(logs[bounds[2]:bounds[3]] == np.inf)
    assert np.all(np.isfinite(logs[bounds[3]:]))


@pytest.mark.parametrize("grid", ORACLE_GRIDS[3:], ids=("scatter", "vpme"))
def test_n2_matches_oracle_bit_for_bit(grid):
    rng = np.random.default_rng(7)
    times = np.arange(0.0, 8.0 + 0.05, 0.1)
    shape = (times.size, grid.n_modes)
    values = 1e-4 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    values[:, grid.k_max] = 0.0
    dens = SimpleNamespace(times=times, k_values=grid.k_values, values=values)
    w = GevreyWeight()
    assert norm_N2(dens, w) == oracle_n2(dens, w)


def test_n1_tied_maxima_match_oracle():
    grid = ORACLE_GRIDS[3]
    raw = random_state(grid, np.random.default_rng(11), 2.0).values
    # a real-symmetric state: mirrored entries carry the same weight
    state = SpectralState(2.0, grid, (raw + np.conj(raw[::-1, ::-1])) / 2.0)
    w = GevreyWeight()
    logs = oracle_n1_logs(state, w)
    assert np.count_nonzero(logs == logs.max()) > 1
    assert n1_at_time(state, w) == oracle_n1(state, w)


def test_single_entry_and_zero_match_oracle():
    grid = ORACLE_GRIDS[4]
    w = GevreyWeight()
    values = np.zeros((grid.n_modes, grid.n_eta), dtype=complex)
    zero = SpectralState(1.0, grid, values)
    assert n1_at_time(zero, w) == oracle_n1(zero, w) == 0.0
    values = values.copy()  # the zero state took its array over, read-only
    values[1, 40] = 0.3 - 0.2j
    lone = SpectralState(1.0, grid, values)
    assert n1_at_time(lone, w) == oracle_n1(lone, w)
    times = np.arange(0.0, 2.01, 0.25)
    dvals = np.zeros((times.size, grid.n_modes), dtype=complex)
    dens0 = SimpleNamespace(times=times, k_values=grid.k_values, values=dvals)
    assert norm_N2(dens0, w) == oracle_n2(dens0, w) == 0.0
    dvals = dvals.copy()
    dvals[3, 0] = 2e-3j  # s == 0: the lone maximum is the whole sum
    dens1 = SimpleNamespace(times=times, k_values=grid.k_values, values=dvals)
    assert norm_N2(dens1, w) == oracle_n2(dens1, w)


def test_log_sum_exp_matches_scipy():
    rng = np.random.default_rng(2)
    cases = [np.array([-np.inf, 3.25, -np.inf]),  # s == 0
             np.array([1.5, 1.5, 1.5, -2.0]),  # three tied maxima
             np.array([[700.0, 700.0], [-np.inf, 650.0]]),
             rng.normal(size=(3, 5, 41)) * 50.0]
    for logs in cases:
        assert _log_sum_exp(logs.copy()) == logsumexp(logs)
    assert _log_sum_exp(np.full(4, -np.inf)) == -np.inf


def test_n1_overflow_matches_oracle():
    w = GevreyWeight(lambda_inf=0.9, c_decay=0.05)
    eta = np.arange(-4e6, 4e6 + 1, 1e4)
    st = SimpleNamespace(time=0.0, k_values=np.array([1]), eta=eta,
                         values=np.ones((1, eta.size), dtype=complex))
    with pytest.raises(WeightOverflowError):
        oracle_n1(st, w)
    with pytest.raises(WeightOverflowError):
        n1_at_time(st, w)


def _homogeneity_cases():
    """The four weighted norms, each as a function of the scale c of one
    fixed random input of unit size: the density slice norm, the
    field-decay series (one norm per time), N1 and N2."""
    rng = np.random.default_rng(28)

    def unit(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    w = GevreyWeight()
    grid = PhaseGrid(1, 10.0, 0.5)
    state = unit((grid.n_modes, grid.n_eta)) * np.exp(-0.05 * grid.eta**2)
    times = np.arange(0.0, 4.01, 0.25)
    potentials, density, slice_ = unit((17, 5)), unit((17, 3)), unit(7)
    return {
        "slice": lambda c: weighted_density_norm(w, 1.5, c * slice_),
        "field": lambda c: efield_weighted_norms(
            w, SpectralHistory(times, c * potentials))[1],
        "N1": lambda c: n1_at_time(SpectralState(0.5, grid, c * state), w),
        "N2": lambda c: norm_N2(DensityHistory(times, c * density), w),
    }


HOMOGENEITY_CASES = _homogeneity_cases()


@pytest.mark.parametrize("name", sorted(HOMOGENEITY_CASES))
@given(s=st.floats(min_value=-300.0, max_value=300.0))
@settings(derandomize=True, deadline=None)
def test_weighted_norms_are_homogeneous_across_the_double_range(name, s):
    # norm(c x) = c norm(x) wherever that is a double, squares past the
    # double range included; past it, the amplitude is blamed, not the weight
    norm = HOMOGENEITY_CASES[name]
    base = np.asarray(norm(1.0))
    c = 10.0**s
    if np.max(np.log(base)) + s * math.log(10.0) <= _LOG_MAX:
        ratio = np.asarray(norm(c)) / (c * base)
        assert np.max(np.abs(ratio - 1.0)) <= 1e-13
    else:
        with pytest.raises(WeightOverflowError,
                           match="amplitude .* times its finite weight"):
            norm(c)


def test_weight_tables_not_shared_between_spacings():
    # equal shapes, different spacing: one grid's tables must not serve the other
    coarse, fine = PhaseGrid(2, 16.0, 0.25), PhaseGrid(2, 8.0, 0.125)
    assert coarse.n_eta == fine.n_eta
    values = random_state(coarse, np.random.default_rng(4), 1.0).values
    w = GevreyWeight()
    results = []
    for grid in (coarse, fine, coarse, fine):
        state = SpectralState(1.0, grid, values)
        results.append(n1_at_time(state, w))
        assert results[-1] == oracle_n1(state, w)
    assert results[0] == results[2] != results[1] == results[3]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_n1_refuses_non_finite_state(bad):
    st = gaussian_state(0.25)
    values = st.values.copy()
    values[0, 7] = bad
    state = SimpleNamespace(time=0.0, k_values=st.k_values, eta=st.eta,
                            values=values)
    with pytest.raises(BlowUpError):
        n1_at_time(state, GevreyWeight())


def test_n2_refuses_non_finite_density():
    times = np.arange(0.0, 2.01, 0.5)
    vals = np.full((times.size, 3), 1e-3, dtype=complex)
    vals[2, 1] = complex(np.nan, 0.0)
    dens = SimpleNamespace(times=times, k_values=np.array([-1, 0, 1]), values=vals)
    with pytest.raises(BlowUpError):
        norm_N2(dens, GevreyWeight())


def test_cli_import_skips_scipy_special():
    # the package and its CLI load no scipy module at all, scipy.special
    # included: scipy's LAPACK is bound at the first spline build
    src = str(Path(vpscatter.__file__).resolve().parents[1])
    code = ("import sys; import vpscatter, vpscatter.cli; "
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy')); "
            "sys.exit(' '.join(loaded) or None)")
    done = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True)
    assert done.returncode == 0, f"imported: {done.stderr}"
