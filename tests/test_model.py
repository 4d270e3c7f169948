"""Model and equilibrium checks against velocity-space quadrature oracles."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

from vpscatter.errors import ConfigError
from vpscatter.model import (
    Equilibrium,
    ModelConfig,
    _exp_quadratic_poly,
    bump_on_tail,
    make_preset,
    maxwellian,
    two_stream,
)

# frozen oracle values (independent quadrature / closed-form evaluation)
MAXW_AT_1_3 = 0.4295573582107391
TWO_STREAM_W05_V1_AT_2 = -0.2524058153082637
BUMP_AT_1_5 = 0.36466467632419813 + 0.02109138834500374j
MAXW_D3_AT_0_7 = 1.375211873690962


def fourier_oracle(mu, eta, span=60.0, points=None):
    """Direct velocity-space transform, independent of the closed forms."""
    kw = {"limit": 400}
    if points is not None:
        kw["points"] = points
    re = quad(lambda v: mu(v) * math.cos(eta * v), -span, span, **kw)[0]
    im = quad(lambda v: -mu(v) * math.sin(eta * v), -span, span, **kw)[0]
    return complex(re, im)


def test_maxwellian_matches_quadrature():
    eq = maxwellian()
    c = 1.0 / math.sqrt(2 * math.pi)
    val = fourier_oracle(lambda v: c * math.exp(-v * v / 2), 1.3)
    assert abs(complex(eq.mu_hat(1.3)) - val) < 1e-12
    assert abs(complex(eq.mu_hat(1.3)) - MAXW_AT_1_3) < 1e-14


def test_two_stream_matches_quadrature():
    eq = two_stream(v0=1.0, width=0.5)
    c = 1.0 / math.sqrt(2 * math.pi)

    def mu(v):
        return 0.5 * (c / 0.5) * (math.exp(-((v - 1) ** 2) / (2 * 0.25))
                                  + math.exp(-((v + 1) ** 2) / (2 * 0.25)))

    val = fourier_oracle(mu, 2.0, points=[-1.0, 0.0, 1.0])
    assert abs(complex(eq.mu_hat(2.0)) - val) < 1e-12
    assert abs(complex(eq.mu_hat(2.0)) - TWO_STREAM_W05_V1_AT_2) < 1e-14


def test_bump_on_tail_matches_quadrature():
    eq = bump_on_tail(alpha=0.1, v0=4.0, width=0.5)
    c = 1.0 / math.sqrt(2 * math.pi)

    def mu(v):
        return (0.9 * c * math.exp(-v * v / 2)
                + 0.1 * (c / 0.5) * math.exp(-((v - 4) ** 2) / (2 * 0.25)))

    # force subdivision at the off-center bump, adaptive quad misses it otherwise
    val = fourier_oracle(mu, 1.5, points=[0.0, 4.0])
    assert abs(complex(eq.mu_hat(1.5)) - val) < 1e-10
    assert abs(complex(eq.mu_hat(1.5)) - BUMP_AT_1_5) < 1e-14


def test_conjugate_symmetry_of_presets():
    rng = np.random.default_rng(7)
    eta = rng.uniform(-8, 8, size=64)
    for eq in (maxwellian(), two_stream(1.0), bump_on_tail()):
        lhs = np.asarray(eq.mu_hat(-eta), dtype=complex)
        rhs = np.conj(np.asarray(eq.mu_hat(eta), dtype=complex))
        assert np.max(np.abs(lhs - rhs)) < 1e-14, eq.label


def central_difference(f, eta, order):
    """Single binomial central-difference stencil of f's order-th derivative;
    the step balances the O(h^2) truncation against the eps/h^order
    roundoff amplification."""
    h = np.sqrt(1.0 + eta**2) * 1e-16 ** (1.0 / (order + 2))
    acc = np.zeros(eta.shape, dtype=complex)
    for i in range(order + 1):
        shift = (order / 2.0 - i) * h
        acc += ((-1) ** i * math.comb(order, i)
                * np.asarray(f(eta + shift), dtype=complex))
    return acc / h**order


def test_analytic_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    eta = rng.uniform(-4, 4, size=16)
    # the stencil is O(h^2) with h tuned per order; headroom degrades with order
    tol = {1: 1e-9, 2: 1e-6, 3: 1e-4}
    for eq in (maxwellian(), two_stream(1.0), bump_on_tail()):
        for order in (1, 2, 3):
            exact = eq.deriv(eta, order)
            approx = central_difference(eq.mu_hat, eta, order)
            assert np.max(np.abs(exact - approx)) < tol[order], (eq.label, order)
    assert abs(maxwellian().deriv(0.7, 3) - MAXW_D3_AT_0_7) < 1e-13


def test_derivatives_without_a_formula_are_refused():
    bare = Equilibrium("bare", maxwellian().mu_hat, 1.0)
    assert bare.deriv(0.0, 0) == 1.0
    with pytest.raises(ConfigError, match="derivatives .* bare"):
        bare.deriv(0.0, 1)


def test_derivative_polynomials_are_built_once_and_read_only():
    # every derivative call of a profile shares the cached polynomial
    first = _exp_quadratic_poly(-0.125, 1j, 3)
    assert _exp_quadratic_poly(-0.125, 1j, 3) is first
    assert not first.flags.writeable
    # d^3/d eta^3 exp(-eta^2 / 2) = (3 eta - eta^3) exp(-eta^2 / 2)
    assert np.array_equal(_exp_quadratic_poly(-0.5, 0.0, 3), [0, 3, 0, -1])


def test_h3_normalization():
    # unit mass, |mu_hat(0)| = 1, which the Penrose arc bound uses directly
    for eq in (maxwellian(), two_stream(2.0), bump_on_tail()):
        assert abs(complex(eq.mu_hat(0.0)) - 1.0) <= 1e-12, eq.label


def exp_tail(y, n):
    """Remainder of the exponential series past degree n: |y|^(n+1) e^|y| / (n+1)!."""
    return abs(y) ** (n + 1) * math.exp(abs(y)) / math.factorial(n + 1)


def test_vpme_series_matches_exponential_remainder():
    cfg = make_preset("vpme")
    for y in (0.05, 0.3, -0.4, 1.0):
        exact = math.exp(y) - 1.0 - y
        series = npoly.polyval(y, cfg.h_coeffs)
        assert abs(series - exact) <= exp_tail(y, 12) + 1e-15
    assert exp_tail(0.3, 12) < 1e-16


def test_vpme_series_degree_is_capped():
    # every 1/n! up to the cap n_h = 169 is a double
    top = make_preset("vpme", n_h=169)
    assert top.h_coeffs[-1] == 1.0 / math.factorial(169)
    assert len(top.h_coeffs) == 170
    series = npoly.polyval(1.0, top.h_coeffs)
    assert abs(series - (math.e - 2.0)) <= exp_tail(1.0, 169) + 1e-15
    for n_h in (170, 171):
        with pytest.raises(ConfigError, match="n_h <= 169"):
            make_preset("vpme", n_h=n_h)


def test_preset_couplings():
    vp = make_preset("vp")
    assert vp.beta == 0.0 and not vp.has_h
    sc = make_preset("screened")
    assert sc.beta == 1.0 and not sc.has_h
    me = make_preset("vpme")
    assert me.beta == 1.0 and me.has_h
    assert me.h_coeffs[2] == 0.5 and me.h_coeffs[3] == pytest.approx(1 / 6)
    # h(0) = h'(0) = 0: quadratic contact with zero
    assert npoly.polyval(0.0, me.h_coeffs) == 0.0
    assert abs(npoly.polyval(1e-8, me.h_coeffs)) < 1e-15


def test_field_solve_settings():
    me = make_preset("vpme")
    assert (me.picard_tol, me.picard_max_iters, me.eps_ball) == (1e-12, 50, 0.05)
    assert ModelConfig(beta=1.0, h_coeffs=(0.0, 0.0, 1.0)).eps_ball == 0.05
    assert make_preset("vpme", eps_ball=2.0).eps_ball == 2.0
    for bad in ({"picard_tol": 0.0}, {"picard_max_iters": 0},
                {"eps_ball": 0.0}, {"eps_ball": -1.0}):
        with pytest.raises(ConfigError):
            make_preset("vpme", **bad)


def test_poisson_prefactor():
    vp = make_preset("vp")
    sc = make_preset("screened")
    k = np.array([-2, -1, 0, 1, 2])
    assert np.allclose(vp.poisson_prefactor(k), [1, 1, 0, 1, 1])
    assert np.allclose(sc.poisson_prefactor(k), [0.8, 0.5, 0, 0.5, 0.8])


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(beta=-1.0)
    with pytest.raises(ConfigError):
        ModelConfig(beta=1.0, h_coeffs=(0.0, 1.0, 0.5))  # linear term forbidden
    with pytest.raises(ConfigError):
        ModelConfig(beta=0.0, h_coeffs=(0.0, 0.0, 0.5))  # unscreened nonlinearity
    with pytest.raises(ConfigError):
        make_preset("landau")
    with pytest.raises(ConfigError):
        two_stream(v0=-1.0)
    with pytest.raises(ConfigError):
        bump_on_tail(alpha=1.5)
