"""Weight, norm, and inequality checks for the Gevrey utilities."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from vpscatter.errors import ConfigError, WeightOverflowError
from vpscatter.gevrey import (
    GevreyWeight,
    bracket,
    eta_derivative,
    gevrey_inequality_suite,
    lambda_of_t,
    log_weight_A,
    log_weight_B,
    n1_at_time,
    norm_N1,
    norm_N2,
    norm_equivalence_check,
    weighted_norm_report,
)

# frozen oracle values
LAMBDA_AT_1 = 0.2 - 0.05 * 2.0 ** (-0.025)  # 0.15085897007273746
N1_GAUSS_M2 = 1832693.9697307912  # continuum quadrature, defaults, t=0


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
    w = GevreyWeight().scaled(0.9)
    assert w.lambda_inf == pytest.approx(0.18)
    assert float(lambda_of_t(w, 0.0)) == pytest.approx(0.9 * 0.15)


def test_eta_derivative_orders():
    eta = np.arange(-10, 10.001, 0.05)
    f = np.exp(-(eta**2) / 2)
    d1 = eta_derivative(f, 0.05, 1)
    d2 = eta_derivative(f, 0.05, 2)
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
    assert rep.clean
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
