"""Coupling series, screened potential, and the density fixed point."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vpscatter import field, gevrey
from vpscatter.errors import (BlowUpError, ConfigError, NoContractionError,
                              WeightOverflowError)
from vpscatter.field import (efield_weighted_norms, electric_from_density,
                             h_of_field, poisson_fixed_point,
                             potential_from_density, weighted_density_norm)
from vpscatter.gevrey import (RADIUS_REDUCTION, GevreyWeight, bracket,
                             lambda_of_t, log_weight_A)
from vpscatter.model import ModelConfig, make_preset
from vpscatter.volterra import SpectralHistory

SQUARE = ModelConfig(beta=1.0, h_coeffs=(0.0, 0.0, 1.0), label="sq")


def lattice(k_max):
    """Modes -k_max..k_max; mode k sits in slot k + k_max."""
    return np.arange(-k_max, k_max + 1)


def reality_defect(*slices):
    """Largest gap on -K..K between a coefficient and its mirror's conjugate."""
    return max(float(np.max(np.abs(a - np.conj(a[::-1])))) for a in slices)


def pair_slice(k_max, k, value):
    """Real slice with conjugate-symmetric entries at modes +-k."""
    out = np.zeros(2 * k_max + 1, dtype=complex)
    out[k_max + k] = value
    out[k_max - k] = value
    return out


def manufactured(model, u_hat):
    """Density and slice for which u_hat solves the truncated balance."""
    k = lattice(u_hat.size // 2)
    rho = (model.beta + k.astype(float) ** 2) * u_hat
    rho[k == 0] = 0.0
    q = rho + h_of_field(model, u_hat)
    return rho, q


def convolution_series(model, u):
    """The series by repeated np.convolve cut back to -K..K: the truncated
    product's own definition, summed lowest degree first."""
    half = u.size // 2
    power, out = u, np.zeros_like(u)
    for coeff in model.h_coeffs[2:]:
        power = np.convolve(power, u)[half:half + u.size]
        if coeff != 0.0:
            out = out + coeff * power
    return out


COEFFICIENTS = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                  allow_infinity=False)


class TestHSeries:
    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=16).flatmap(
        lambda k_max: arrays(complex, 2 * k_max + 1, elements=COEFFICIENTS)))
    def test_square_matches_double_sum(self, u):
        # slot j holds mode j - K; the square keeps the products landing
        # back on -K..K
        n, half = u.size, u.size // 2
        direct = np.zeros(n, dtype=complex)
        for i in range(n):
            for j in range(n):
                m = i + j - half  # output index of the mode sum
                if 0 <= m < n:
                    direct[m] += u[i] * u[j]
        # both sides sum the same products, in possibly different orders
        scale = float(np.sum(np.abs(u))) ** 2
        got = h_of_field(SQUARE, u)
        assert np.max(np.abs(got - direct), initial=0.0) <= 1e-14 * scale

    def test_square_of_cosine(self):
        # u = cos x has u_hat(+-1) = 1/2, so u^2 = (1 + cos 2x)/2
        out = h_of_field(SQUARE, pair_slice(2, 1, 0.5))
        assert np.allclose(out, [0.25, 0.0, 0.5, 0.0, 0.25], atol=1e-15)

    def test_zero_potential(self):
        out = h_of_field(make_preset("vpme"), np.zeros(7, dtype=complex))
        assert np.all(out == 0.0)

    def test_no_series_returns_zero(self):
        out = h_of_field(make_preset("screened"), pair_slice(2, 1, 0.3))
        assert np.all(out == 0.0)

    def test_amplitude_halving_is_quadratic(self):
        # leading term is quadratic, so halving the slice quarters the output
        rng = np.random.default_rng(7)
        u = (rng.normal(size=9) * 1e-2).astype(complex)
        u = (u + u[::-1]) / 2
        full = h_of_field(make_preset("vpme"), u)
        half = h_of_field(make_preset("vpme"), u / 2)
        ratio = np.linalg.norm(full) / np.linalg.norm(half)
        assert 3.9 < ratio < 4.1

    @settings(derandomize=True, deadline=None)
    @given(st.integers(min_value=0, max_value=8).flatmap(
        lambda k_max: arrays(complex, 2 * k_max + 1, elements=st.builds(
            complex, st.integers(-4, 4), st.integers(-4, 4)))))
    def test_series_matches_repeated_convolution_bit_for_bit(self, u):
        # integer slices and dyadic coefficients: every product and sum is
        # exact in any order, so the truncation itself is pinned bit for bit
        model = ModelConfig(beta=1.0, h_coeffs=(0.0, 0.0, 0.5, 0.25, 0.125))
        assert np.array_equal(h_of_field(model, u), convolution_series(model, u))

    @settings(derandomize=True, deadline=None)
    @given(st.integers(min_value=0, max_value=16).flatmap(
        lambda k_max: arrays(complex, 2 * k_max + 1, elements=COEFFICIENTS)))
    def test_series_matches_repeated_convolution_to_roundoff(self, u):
        # both sides sum the same products in different orders; degree n
        # carries n rounded products of at most the l1 amplitude each
        model = make_preset("vpme")
        amp = float(np.sum(np.abs(u)))
        scale = sum(n * c * amp**n for n, c in enumerate(model.h_coeffs))
        got = h_of_field(model, u)
        assert np.max(np.abs(got - convolution_series(model, u))) <= 1e-14 * scale

    def test_truncation_tail_bounds_dropped_terms(self):
        u = pair_slice(4, 1, 0.05)
        amp = float(np.sum(np.abs(u)))
        full = h_of_field(make_preset("vpme"), u)
        cut = h_of_field(make_preset("vpme", n_h=4), u)

        def tail(n):
            # remainder of the exponential series past degree n, at the
            # slice's l1 amplitude: |y|^(n+1) e^|y| / (n+1)!
            return amp ** (n + 1) * math.exp(amp) / math.factorial(n + 1)

        dropped = sum(amp**n / math.factorial(n) for n in range(5, 13))
        # the degree-4 remainder covers degrees 5..12 and the degree-12 tail
        assert dropped + tail(12) <= tail(4)
        assert np.max(np.abs(full - cut)) <= tail(4)

    def test_truncation_must_keep_quadratic(self):
        with pytest.raises(ConfigError, match="quadratic"):
            make_preset("vpme", n_h=1)


class TestPotentialFromDensity:
    def test_time_axis_matches_slices(self):
        rng = np.random.default_rng(5)
        rho = rng.normal(size=(6, 7)) + 1j * rng.normal(size=(6, 7))
        rho[:, 3] = 0.0
        for name in ("vp", "screened"):
            model = make_preset(name)
            both = potential_from_density(model, rho)
            for row, u in zip(rho, both):
                assert np.array_equal(u, electric_from_density(model, row).u_hat)

    def test_divides_by_screened_symbol(self):
        rho = np.array([0.5, 0.25, 2.0, 0.25j, 1.0])
        u = potential_from_density(make_preset("screened"), rho)
        assert np.array_equal(u, [0.1, 0.125, 0.0, 0.125j, 0.2])

    def test_unscreened_mean_refused_at_any_time(self):
        rho = np.zeros((4, 5), dtype=complex)
        rho[2, 2] = 1e-6
        with pytest.raises(ConfigError, match="ill-posed"):
            potential_from_density(make_preset("vp"), rho)
        rho[2, 2] = 1e-12  # below the tolerance: gauged away silently
        u = potential_from_density(make_preset("vp"), rho)
        assert np.all(u == 0.0)

    def test_unscreened_non_finite_mean_refused(self):
        # nan > tol is False, so a plain comparison would gauge a nan mean
        # away as a zero
        rho = np.zeros((4, 5), dtype=complex)
        for bad in (np.nan, np.inf):
            rho[2, 2] = bad
            with pytest.raises(BlowUpError, match="holds non-finite values"):
                potential_from_density(make_preset("vp"), rho)


class TestElectricFromDensity:
    def test_unscreened_unit_mode(self):
        snap = electric_from_density(make_preset("vp"), pair_slice(2, 1, 1.0))
        assert snap.u_hat[2 + 1] == 1.0 + 0.0j
        assert snap.e_hat[2 + 1] == -1.0j

    def test_screened_unit_mode(self):
        snap = electric_from_density(make_preset("screened"),
                                     pair_slice(2, 2, 1.0))
        assert snap.u_hat[2 + 2] == 0.2 + 0.0j
        assert snap.e_hat[2 + 2] == -0.4j

    def test_mean_mode_is_gauged_away(self):
        rho = pair_slice(2, 1, 0.3)
        rho[2] = 0.7  # screened model tolerates a mean component
        snap = electric_from_density(make_preset("screened"), rho)
        assert snap.u_hat[2] == 0.0
        assert snap.e_hat[2] == 0.0
        assert np.array_equal(snap.rho_hat, rho)

    def test_unscreened_mean_is_ill_posed(self):
        rho = pair_slice(2, 1, 0.3)
        rho[2] = 1e-6
        with pytest.raises(ConfigError, match="ill-posed"):
            electric_from_density(make_preset("vp"), rho)

    def test_gradient_and_reality(self):
        rng = np.random.default_rng(23)
        rho = rng.normal(size=9) + 1j * rng.normal(size=9)
        rho = (rho + np.conj(rho[::-1])) / 2
        rho[4] = 0.0
        snap = electric_from_density(make_preset("screened"), rho)
        assert np.array_equal(snap.e_hat, -1j * lattice(4) * snap.u_hat)
        assert reality_defect(snap.u_hat, snap.e_hat, snap.rho_hat) <= 1e-12


class TestWeightedNorm:
    def test_hand_value_at_unit_modes(self):
        # exp(0.15 * 2^(1/4)) * 2^6 per mode, two modes in quadrature
        w = GevreyWeight()
        got = weighted_density_norm(w, 0.0, pair_slice(4, 1, 1.0))
        want = math.exp(0.15 * 2.0**0.25) * 2.0**6 * math.sqrt(2.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(108.18446083442119, rel=1e-13)

    def test_zero_slice(self):
        w = GevreyWeight()
        assert weighted_density_norm(w, 3.0, np.zeros(5)) == 0.0

    @pytest.mark.parametrize("scale", [1e-224, 1e153])
    def test_squares_past_the_double_range_keep_the_norm(self, scale):
        # the weighted squares underflow to 0 or overflow to inf, the norm
        # itself is a double: the hand value above, scaled
        got = weighted_density_norm(GevreyWeight(), 0.0, pair_slice(4, 1, scale))
        assert got == pytest.approx(108.18446083442119 * scale, rel=1e-13, abs=0.0)

    def test_zero_slice_skips_the_rescaled_sum(self, monkeypatch):
        # only a row whose squares underflow or overflow is summed again
        rescaled = []

        def spy(values, log_w, what):
            rescaled.append(values.copy())
            return rescaled_rss(values, log_w, what)

        rescaled_rss = gevrey._rescaled_rss
        monkeypatch.setattr(gevrey, "_rescaled_rss", spy)
        w = GevreyWeight()
        got = weighted_density_norm(w, 3.0, np.zeros(5))
        assert got == 0.0 and type(got) is float and not rescaled
        for scale in (1e-224, 1e153):
            weighted_density_norm(w, 0.0, pair_slice(4, 1, scale))
        assert len(rescaled) == 2

    def test_field_series_retakes_one_row_among_unit_rows(self):
        # one row at 1e-224 among unit rows: only that row is summed again,
        # the others keep their plain sums bit for bit
        w = GevreyWeight()
        times = np.arange(5) * 0.5
        unit = np.tile(pair_slice(2, 1, 1.0), (times.size, 1))
        u = unit.copy()
        u[2] *= 1e-224
        _, norms = efield_weighted_norms(w, SpectralHistory(times, u))
        k = lattice(2).astype(float)
        br = bracket(k, k * times[:, None])
        x = (np.exp(RADIUS_REDUCTION * lambda_of_t(w, 0.0) * br ** w.gamma
                    + w.sigma * np.log(br)) * np.abs(-1j * k * unit))
        plain = [math.sqrt(np.sum(row * row)) for row in x]
        assert [norms[i] for i in (0, 1, 3, 4)] == [plain[i] for i in (0, 1, 3, 4)]
        assert norms[2] == pytest.approx(1e-224 * plain[2], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_slice_is_a_blow_up(self, bad):
        # a non-finite slice is a blow-up, not an amplitude past the range
        vals = pair_slice(4, 1, 1e-3)
        vals[2] = bad
        with pytest.raises(BlowUpError, match="holds non-finite values"):
            weighted_density_norm(GevreyWeight(), 0.0, vals)

    def test_weighted_amplitude_past_the_double_range_names_the_amplitude(self):
        # finite weights times the amplitude overflow: the error blames the
        # amplitude; an infinite weight on a nonzero amplitude is blamed on
        # lambda_inf and sigma
        with pytest.raises(WeightOverflowError, match="slice amplitude 1.000e"):
            weighted_density_norm(GevreyWeight(), 0.0, pair_slice(4, 1, 1e307))
        wide = GevreyWeight(sigma=1000.0)  # weights past the range at |k| >= 2
        with pytest.raises(WeightOverflowError, match="lambda_inf or sigma"):
            weighted_density_norm(wide, 0.0, pair_slice(4, 2, 1.0))
        # zero amplitudes under those infinite weights add nothing
        got = weighted_density_norm(wide, 0.0, pair_slice(4, 1, 1.0))
        want = math.sqrt(2.0) * math.exp(
            float(log_weight_A(wide, 0.0, 1.0, 0.0)))
        assert got == pytest.approx(want, rel=1e-13)


class TestPoissonFixedPoint:
    W = GevreyWeight()

    def manufactured_run(self, scale=1.0):
        model = make_preset("vpme", eps_ball=2.0)
        u = pair_slice(4, 1, scale * 5e-3)
        rho, q = manufactured(model, u)
        snap = poisson_fixed_point(model, q, self.W, 0.0)
        return model, rho, q, snap

    def test_recovers_manufactured_density(self):
        model, rho, q, snap = self.manufactured_run()
        err = np.linalg.norm(snap.rho_hat - rho) / np.linalg.norm(rho)
        assert err <= 1e-8
        assert snap.iters <= 50
        assert snap.residual <= 1e-12
        # reapplying the balance map must not move the returned density
        reapplied = q - h_of_field(model, snap.u_hat)
        defect = weighted_density_norm(self.W, 0.0, reapplied - snap.rho_hat)
        assert defect <= 1e-12
        assert reality_defect(snap.u_hat, snap.e_hat, snap.rho_hat) <= 1e-12

    def test_contraction_ratios_shrink_with_amplitude(self):
        *_, snap = self.manufactured_run()
        *_, snap_half = self.manufactured_run(scale=0.5)
        assert snap.ratios and all(r < 1.0 for r in snap.ratios)
        quotient = snap.ratios[0] / snap_half.ratios[0]
        assert 1.9 < quotient < 2.1

    def test_no_series_is_exactly_linear(self):
        model = make_preset("screened")
        rng = np.random.default_rng(5)
        q1 = rng.normal(size=7) * 1e-3
        q2 = rng.normal(size=7) * 1e-3
        s1 = poisson_fixed_point(model, q1, self.W, 1.0)
        s2 = poisson_fixed_point(model, q2, self.W, 1.0)
        s12 = poisson_fixed_point(model, q1 + q2, self.W, 1.0)
        assert s1.iters == 1 and s1.residual == 0.0
        assert np.array_equal(s1.rho_hat, q1.astype(complex))
        assert np.array_equal(s12.rho_hat, s1.rho_hat + s2.rho_hat)

    def test_smallness_gate_rejects_default(self):
        model = make_preset("vpme")
        _, q = manufactured(model, pair_slice(4, 1, 5e-3))
        with pytest.raises(NoContractionError, match="smallness gate"):
            poisson_fixed_point(model, q, self.W, 0.0)

    def test_ball_exit_aborts(self):
        # quadratic coupling at order-one amplitude overshoots immediately
        with pytest.raises(NoContractionError, match="ball"):
            poisson_fixed_point(dataclasses.replace(SQUARE, eps_ball=200.0),
                                pair_slice(2, 1, 1.5), self.W, 0.0)

    def test_iteration_budget_aborts(self):
        model = make_preset("vpme", picard_tol=1e-30, picard_max_iters=3,
                            eps_ball=2.0)
        _, q = manufactured(model, pair_slice(4, 1, 5e-3))
        with pytest.raises(NoContractionError, match="within 3 iterations"):
            poisson_fixed_point(model, q, self.W, 0.0)

    def test_mean_mode_stays_zero(self):
        *_, snap = self.manufactured_run()
        assert snap.u_hat[4] == 0.0
        assert snap.e_hat[4] == 0.0

    def test_non_finite_slice_refused_at_the_gate(self):
        q = pair_slice(4, 1, 1e-3)
        q[5] = np.nan
        with pytest.raises(BlowUpError, match="holds non-finite values"):
            poisson_fixed_point(make_preset("vpme", eps_ball=2.0), q, self.W, 0.0)

    def test_iterate_past_the_double_range_is_a_blow_up(self):
        # the fourth power of 5e99 overflows, so the first iterate is nan:
        # refused as a blow-up, with no numpy warning
        model = make_preset("vpme", eps_ball=1e300)
        with pytest.raises(BlowUpError, match="holds non-finite values"):
            poisson_fixed_point(model, pair_slice(2, 1, 1e100), self.W, 0.0)

    def test_weight_rows_of_two_stage_times_are_remembered(self):
        # an RK4 step solves at t, t + h/2 twice and t + h, and the next
        # step's first solve is at t + h again: three rows, each the fresh
        # weight row of its own time; a solve reads its row for the loop and
        # again in the checked norm of its slice
        model = make_preset("vpme", eps_ball=10.0)
        _, q = manufactured(model, pair_slice(4, 1, 5e-3))
        t_a, t_b, t_c = 0.5, 0.5 + 2.0**-30, 0.5 + 2.0**-29
        field._density_weights.cache_clear()
        for t in (t_a, t_b, t_b, t_c, t_c):
            poisson_fixed_point(model, q, self.W, t)
        info = field._density_weights.cache_info()
        assert (info.hits, info.misses) == (7, 3)
        k = lattice(4).astype(float)
        for t in (t_a, t_b, t_c):
            row = field._density_weights(self.W, t, q.size)
            assert not row.flags.writeable
            assert np.array_equal(row, log_weight_A(self.W, t, k, k * t))


def translated(values, theta):
    """The slice of the field shifted by x -> x + theta: mode k times e^{ik theta}."""
    return np.exp(1j * lattice(values.size // 2) * theta) * values


def reflected(values):
    """The slice of the field reflected x -> -x: conj of the reversed slice."""
    return np.conj(values[::-1])


def assert_covariant(got, want):
    assert np.max(np.abs(got - want), initial=0.0) <= \
        1e-13 * np.max(np.abs(want), initial=0.0)


SLICES = st.integers(min_value=0, max_value=16).flatmap(
    lambda k_max: arrays(complex, 2 * k_max + 1, elements=st.complex_numbers(
        max_magnitude=1.0, allow_nan=False, allow_infinity=False)))
ANGLES = st.floats(min_value=0.0, max_value=2.0 * math.pi)
# (model, slice scale): the vpme series; a square whose zero-coefficient
# cube overflows, so a power without coefficient must not enter the sum
SERIES_CASES = st.sampled_from([
    (make_preset("vpme"), 1.0),
    (ModelConfig(beta=1.0, h_coeffs=(0.0, 0.0, 1.0, 0.0), label="sq0"), 1e120),
])


class TestCovariance:
    """Translation and reflection of x commute with the field layer.

    A shift x -> x + theta multiplies mode k by e^{ik theta}; the reflection
    x -> -x sends a slice to its conjugate reversal.  Products of modes
    conserve the mode sum and the Gevrey weight depends on |k| only, so the
    series and the density balance map each transformed slice to the
    transformed result.
    """

    W = GevreyWeight()

    @settings(derandomize=True, deadline=None)
    @given(SLICES, ANGLES, SERIES_CASES)
    def test_series_translation(self, u, theta, case):
        model, scale = case
        u = scale * u
        assert_covariant(h_of_field(model, translated(u, theta)),
                         translated(h_of_field(model, u), theta))

    @settings(derandomize=True, deadline=None)
    @given(SLICES, SERIES_CASES)
    def test_series_reflection(self, u, case):
        model, scale = case
        u = scale * u
        assert_covariant(h_of_field(model, reflected(u)),
                         reflected(h_of_field(model, u)))

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(SLICES, ANGLES, st.floats(min_value=0.0, max_value=4.0))
    def test_balance_translation_and_reflection(self, q, theta, t):
        # the iteration counts may differ by one at the roundoff floor
        model = make_preset("vpme", eps_ball=1e30)
        q = 1e-2 * q
        base = poisson_fixed_point(model, q, self.W, t)
        shifted = poisson_fixed_point(model, translated(q, theta), self.W, t)
        mirror = poisson_fixed_point(model, reflected(q), self.W, t)
        for name in ("rho_hat", "u_hat", "e_hat"):
            assert_covariant(getattr(shifted, name),
                             translated(getattr(base, name), theta))
            assert_covariant(getattr(mirror, name), reflected(getattr(base, name)))


class TestLatticeCheck:
    """Slot j of a slice holds mode j - K of -K..K; no labels travel along."""

    W = GevreyWeight()

    def test_lattice_validation(self):
        model = make_preset("vpme", eps_ball=2.0)
        with pytest.raises(ConfigError, match="1-d"):
            poisson_fixed_point(model, np.zeros((3, 3)), self.W, 0.0)
        with pytest.raises(ConfigError, match="1-d"):
            h_of_field(model, np.zeros((1, 5)))
        with pytest.raises(ConfigError, match="1-d"):
            electric_from_density(model, np.zeros((3, 3)))
        with pytest.raises(ConfigError, match="odd width"):
            potential_from_density(model, np.zeros((3, 4)))
        with pytest.raises(ConfigError, match="odd width"):
            potential_from_density(model, 1.0)

    def test_slot_position_is_the_mode(self):
        # the same numbers in another slot order are another slice
        q = np.array([0.0, 0.01, 0.01])
        model = make_preset("vpme", eps_ball=2.0)
        snap = poisson_fixed_point(model, q[[2, 0, 1]], self.W, 0.0)
        assert snap.u_hat[0] == snap.u_hat[2]
        assert snap.u_hat[2].real == pytest.approx(0.0049999792, abs=1e-10)
        shifted = poisson_fixed_point(model, q, self.W, 0.0)
        assert shifted.u_hat[0] == 0.0 and shifted.e_hat[2] != 0.0

    def test_even_lattice_refused(self):
        model = make_preset("vpme", eps_ball=2.0)
        with pytest.raises(ConfigError, match="-K..K"):
            h_of_field(model, np.array([0.01, 0.01]))
        with pytest.raises(ConfigError, match="-K..K"):
            poisson_fixed_point(model, np.zeros(4), self.W, 0.0)
        with pytest.raises(ConfigError, match="-K..K"):
            weighted_density_norm(self.W, 0.0, np.zeros(4))
