"""Laplace machinery, stability scan, and resolvent kernel checks."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import (grid_transform_fresh, laplace_one_sided,
                     laplace_one_sided_full_grid, laplace_two_sided,
                     landau_root, maxwellian_transform,
                     nested_simpson_full_grid, transform_direct,
                     two_stream_first_moment)
from scipy.integrate import quad

from vpscatter import dispersion
from vpscatter.dispersion import (
    _ARC_MOMENT_TOL,
    _contour_sum,
    _sign_changes,
    _winding_number,
    absolute_first_moment,
    arc_moment,
    dispersion_on_axis,
    inverse_laplace_Khat,
    penrose_scan,
)
from vpscatter.errors import ConfigError, NearSingularResolventError, QuadratureError
from vpscatter.model import (Equilibrium, ModelConfig, bump_on_tail, make_preset,
                             maxwellian, two_stream)

# frozen root and fit values (independent probes; roots cross-checked by
# Newton refinement from coarse modulus scans at several resolutions)
ROOT_K1 = -0.8513304586920828 + 2.0459048656906567j
ROOT_K2 = -2.8272002686707807 + 3.1891361929982187j
KAPPA0_VP = 0.750925
KAPPA0_SCREENED = 0.866933
LAM1_FITS = {1: 0.8502, 2: 1.4310, 3: 1.8255}

MAXW = maxwellian()
VP = make_preset("vp")
SCREENED = make_preset("screened")
BACKGROUNDS = [MAXW, *(two_stream(v0) for v0 in (0.5, 1.0, 1.2, 2.0)),
               bump_on_tail(), bump_on_tail(0.2, 3.0, 0.35)]
# 512 samples on the closing semicircle |tau| = 1, Re tau >= 0
UNIT_ARC = np.exp(1j * np.linspace(-math.pi / 2, math.pi / 2, 512))


def direct_D(model, eq, k, taus, tol=1e-10):
    """D(k, tau) = 1 + P(k) L[t mu_hat(k t)](tau) by dense quadrature."""
    taus = np.atleast_1d(np.asarray(taus, dtype=complex))
    return 1.0 + float(model.poisson_prefactor(k)) * transform_direct(
        eq, k, +1, taus, tol=tol)


def test_one_sided_examples():
    assert laplace_one_sided(lambda t: np.exp(-t), 0.0) == pytest.approx(1.0, abs=1e-9)
    assert laplace_one_sided(lambda t: t * np.exp(-(t**2) / 2), 0.0,
                             decay=0.9) == pytest.approx(1.0, abs=1e-9)
    assert laplace_one_sided(lambda t: np.exp(-t), 1.0) == pytest.approx(0.5, abs=1e-9)


def test_one_sided_rejects_divergence():
    with pytest.raises(QuadratureError):
        laplace_one_sided(lambda t: np.exp(-t), -2.0, decay=1.0)
    with pytest.raises(QuadratureError):
        # declared decay violated by the integrand itself
        laplace_one_sided(lambda t: np.exp(-0.05 * t), 0.0, decay=1.0)


@pytest.mark.parametrize("eq", [MAXW, *(two_stream(v0) for v0 in (0.5, 1.0, 2.0)),
                                bump_on_tail()], ids=lambda eq: eq.label)
def test_nested_refinement_matches_full_grid_oracle(eq, monkeypatch):
    nested = (absolute_first_moment(eq), arc_moment(eq))
    monkeypatch.setattr(dispersion, "_nested_simpson", nested_simpson_full_grid)
    absolute_first_moment.cache_clear()  # else the oracle route is never run
    full = (absolute_first_moment(eq), arc_moment(eq))
    # the same pieces, nodes and weights summed in another order
    assert nested == pytest.approx(full, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("v0", [0.5, 1.0, 2.0])
def test_kinked_moments_match_independent_oracles(v0):
    eq = two_stream(v0)
    assert absolute_first_moment(eq) == pytest.approx(
        two_stream_first_moment(v0), abs=2e-10, rel=0.0)
    # the unsplit kinked integrand, refined on one piece until it certifies
    unsplit = laplace_one_sided_full_grid(
        lambda u: np.abs(2.0 * eq.deriv(u, 1) + u * eq.deriv(u, 2)), 0.0,
        _ARC_MOMENT_TOL, decay=0.9).real + _ARC_MOMENT_TOL
    assert abs(arc_moment(eq) - unsplit) <= 2.0 * _ARC_MOMENT_TOL


def test_sign_changes_keep_sample_zeros_and_refine_the_rest():
    t = np.linspace(0.0, 20.0, 4001)

    def signed(u):
        return (u - t[700]) * (u - math.pi) * (u - 12.0) * np.exp(-u)

    zeros = _sign_changes(signed, t, 10.0)
    # t[700] is a sample, pi lies between two; 12 is past t_end
    assert zeros.size == 2 and zeros[1] == t[700]
    assert zeros[0] == pytest.approx(math.pi, abs=1e-12, rel=0.0)
    # a complex integrand has no kinks to split at
    assert _sign_changes(lambda u: np.exp(1j * u) * signed(u), t, 10.0).size == 0


def test_kinked_first_moment_takes_thousands_of_nodes():
    base = two_stream(1.0)
    points = []

    def mu_hat(u):
        points.append(np.size(u))
        return base.mu_hat(u)

    absolute_first_moment(Equilibrium(base.label, mu_hat, base.lambda_analytic))
    # one piece refines to 2,097,153 nodes, after the 4,001 tail samples
    assert sum(points) < 20_000


@pytest.mark.parametrize("eq, moments", [
    (MAXW, {absolute_first_moment: 0.9999999999970114}),
    (bump_on_tail(), {absolute_first_moment: 1.0534392539068602,
                      arc_moment: 7.242237844102556}),
], ids=["maxwellian", "bump_on_tail"])
def test_unkinked_moments_keep_single_piece_values(eq, moments):
    # values of the single-piece refinement that the split route replaced:
    # a sign-definite or complex integrand evaluates the same nodes
    for moment, value in moments.items():
        assert moment(eq) == value


def test_nested_refinement_matches_full_grid_off_axis():
    def phi(t):
        return t * np.exp(-(t**2) / 2) * np.cos(t)

    tau = 0.3 + 2j
    assert laplace_one_sided(phi, tau) == pytest.approx(
        laplace_one_sided_full_grid(phi, tau), rel=1e-14, abs=0.0)


def test_nested_refinement_evaluates_each_node_once():
    eq = two_stream(1.0)
    calls = {"nested": [], "full": []}

    def counting(route):
        def phi(u):
            calls[route].append(np.array(u))
            return u * np.abs(np.asarray(eq.mu_hat(u)))
        return phi

    tau = 0.3 + 2j  # needs 2^18 intervals here: several levels and node chunks
    nested = laplace_one_sided(counting("nested"), tau, 1e-8, decay=0.9)
    full = laplace_one_sided_full_grid(counting("full"), tau, 1e-8, decay=0.9)
    assert nested == pytest.approx(full, rel=1e-14, abs=0.0)
    # the first call of each is the tail-cutoff sample
    final_grid = calls["full"][-1]
    nodes = np.sort(np.concatenate(calls["nested"][1:]))
    assert nodes.size == final_grid.size  # 2 n_final + 1
    assert max(call.size for call in calls["nested"]) <= dispersion._NODE_CHUNK
    assert np.array_equal(nodes, final_grid)


def test_absolute_first_moment_memory_is_bounded():
    tracemalloc.start()
    try:
        absolute_first_moment(two_stream(1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a full-grid refinement of this kinked integrand peaks near 100 MB
    assert peak < 16e6


def test_refinement_cap_raises(monkeypatch):
    # split at its kinks the integrand is smooth, but two halvings from the
    # starting spacing still cannot certify 1e-10
    monkeypatch.setattr(dispersion, "_MAX_DOUBLINGS", 2)
    with pytest.raises(QuadratureError, match="did not certify"):
        absolute_first_moment(two_stream(1.0))


def test_two_sided_examples():
    assert laplace_two_sided(lambda t: np.exp(-np.abs(t)), 0.0) == pytest.approx(
        2.0, abs=1e-9)
    assert laplace_two_sided(lambda t: np.exp(-np.abs(t)), 0.5) == pytest.approx(
        8.0 / 3.0, abs=1e-8)
    with pytest.raises(QuadratureError):
        laplace_two_sided(lambda t: np.exp(-np.abs(t)), 1.0)


def test_backward_convolution_transform_identity():
    # transform of t -> integral_t^inf psi(s) phi(s-t) ds factorizes
    tau = 0.3j

    def psi(t):
        return math.exp(-abs(t))

    def conv(t):
        return quad(lambda u: psi(t + u) * math.exp(-u), 0, 60, limit=200)[0]

    lhs_re = quad(lambda t: conv(t) * math.cos(0.3 * t), -42, 42, limit=400)[0]
    lhs_im = quad(lambda t: -conv(t) * math.sin(0.3 * t), -42, 42, limit=400)[0]
    rhs = (laplace_two_sided(lambda t: np.exp(-np.abs(t)), tau, 1e-10)
           * laplace_one_sided(lambda t: np.exp(-t), -tau, 1e-10))
    assert abs(complex(lhs_re, lhs_im) - rhs) < 1e-8


def test_dispersion_values():
    assert direct_D(VP, MAXW, 1, 0.0)[0] == pytest.approx(2.0, abs=1e-9)
    # the transform of t * (bounded) decays quadratically in Re tau, so at
    # Re tau = 40 the distance from 1 sits near 1/1600, not at zero
    far = abs(direct_D(VP, MAXW, 1, 40.0)[0] - 1.0)
    assert 1e-4 < far <= 1.0 / 40.0**2
    weak = ModelConfig(beta=1e12)
    assert abs(direct_D(weak, MAXW, 1, 0.3j)[0] - 1.0) < 1e-10
    _, on_axis, _ = dispersion_on_axis(weak, MAXW, 1, 8.0)
    assert np.max(np.abs(on_axis - 1.0)) < 1e-10


def test_dispersion_conjugate_symmetry():
    rng = np.random.default_rng(17)
    taus = rng.uniform(0.0, 3.0, 1000) + 1j * rng.uniform(-8.0, 8.0, 1000)
    for eq in (MAXW, two_stream(1.5, 1.0)):
        direct = direct_D(VP, eq, 2, taus[:25], tol=1e-8)
        mirrored = direct_D(VP, eq, 2, np.conj(taus[:25]), tol=1e-8)
        assert np.max(np.abs(mirrored - np.conj(direct))) < 1e-10
    # dense check through the axis sampler (same quadrature, all 1000 points)
    omega, vals, _ = dispersion_on_axis(VP, MAXW, 1, 8.0, n_min=1000)
    flipped = vals[::-1]
    assert np.max(np.abs(flipped - np.conj(vals))) < 1e-12


@pytest.mark.parametrize("model", [VP, SCREENED], ids=lambda m: m.label)
def test_axis_sampler_against_faddeeva_closed_form(model):
    for k in (-3, -2, -1, 1, 2, 3):
        omega, vals, _ = dispersion_on_axis(model, MAXW, k, 8.0, n_min=1201)
        closed = 1.0 + float(model.poisson_prefactor(k)) \
            * maxwellian_transform(k, 1j * omega)
        assert np.max(np.abs(vals - closed)) <= 5e-11, k


# the profiles the CLI builds, each real in velocity
MIRRORED = [MAXW, *(two_stream(v0) for v0 in (0.5, 1.0, 2.0)), bump_on_tail()]


@pytest.mark.parametrize("eq", MIRRORED, ids=lambda eq: eq.label)
def test_negative_modes_mirror_the_direct_transform(eq):
    # the mirror holds because mu_hat(-u) = conj mu_hat(u): the -k transform
    # computed directly agrees with it to roundoff
    span_min = math.pi * 1201 / 8.0
    for k in (1, 2, 3):
        omega, mirrored, _ = dispersion_on_axis(VP, eq, -k, 8.0, n_min=1201)
        direct_omega, transform, _ = dispersion._grid_transform(
            eq, -k, +1, 0.0, 8.0, span_min)
        assert np.array_equal(omega, direct_omega)
        assert np.max(np.abs(mirrored - (1.0 + transform))) <= 1e-12, k


def test_penrose_scan_transforms_each_pair_once(monkeypatch):
    axis_ks, grid_ks = [], []
    on_axis, grid = dispersion.dispersion_on_axis, dispersion._grid_transform

    def counted_on_axis(model, eq, k, *args, **kwargs):
        axis_ks.append(k)
        return on_axis(model, eq, k, *args, **kwargs)

    def counted_grid(eq, k, *args):
        grid_ks.append(k)
        return grid(eq, k, *args)

    monkeypatch.setattr(dispersion, "dispersion_on_axis", counted_on_axis)
    monkeypatch.setattr(dispersion, "_grid_transform", counted_grid)
    rep = penrose_scan(VP, MAXW, 3)
    assert axis_ks == grid_ks == [1, 2, 3]
    assert sorted(rep.axis_minima) == [-3, -2, -1, 1, 2, 3]


@pytest.mark.parametrize("eq", [MAXW, two_stream(1.0), two_stream(2.0),
                                bump_on_tail()], ids=lambda eq: eq.label)
def test_grid_transform_matches_fresh_rounds_oracle(eq):
    # reused even nodes and a once-computed corner transform change no bit
    for k in (1, 2, 3):
        for sign in (1, -1):
            for a in (0.0, -0.3, 0.1):
                for omega_max, span_min in ((8.0, math.pi * 1201 / 8.0),
                                            (60.0, 70.0)):
                    got = dispersion._grid_transform(eq, k, sign, a,
                                                     omega_max, span_min)
                    want = grid_transform_fresh(eq, k, sign, a, omega_max,
                                                span_min)
                    assert np.array_equal(got[0], want[0])
                    assert np.array_equal(got[1], want[1])
                    assert got[2] == want[2]


def test_penrose_stable_backgrounds():
    rep = penrose_scan(VP, MAXW, 4)
    assert rep.stable and rep.kappa0 == pytest.approx(KAPPA0_VP, rel=1e-3)
    assert all(w == 0 for w in rep.windings.values())
    assert rep.tail_bound == pytest.approx(1.0 / 25.0, rel=1e-6)
    assert rep.tail_bound < rep.kappa0

    rep2 = penrose_scan(SCREENED, MAXW, 4)
    assert rep2.stable and rep2.kappa0 == pytest.approx(KAPPA0_SCREENED, rel=1e-3)


def test_penrose_two_stream_unstable():
    rep = penrose_scan(VP, two_stream(1.0, 0.5), 2)
    assert not rep.stable
    assert rep.windings[1] >= 1 and rep.windings[-1] >= 1
    assert rep.windings[2] == 0


def test_penrose_decoupled_limit():
    rep = penrose_scan(ModelConfig(beta=1e12), MAXW, 2)
    assert rep.stable
    assert rep.kappa0 == pytest.approx(1.0, abs=1e-6)


def test_penrose_inconclusive_raises_and_widening_fixes():
    fat = bump_on_tail(0.2, 3.0, 0.35)
    with pytest.raises(ConfigError, match="widen"):
        penrose_scan(VP, fat, 1)
    rep = penrose_scan(VP, fat, 3)
    assert rep.tail_bound < rep.kappa0


def test_arc_moment_maxwellian_closed_form():
    # 2 mu_hat' + u mu_hat'' = u (u^2 - 3) e^{-u^2/2}; |.| integrates to
    # 1 + 2 e^{-3/2} on [0, sqrt 3] and 2 e^{-3/2} beyond
    excess = arc_moment(MAXW) - (1.0 + 4.0 * math.exp(-1.5))
    assert 0.0 <= excess <= 2.0 * _ARC_MOMENT_TOL


def test_arc_bound_needs_analytic_derivatives():
    bare = Equilibrium("bare", MAXW.mu_hat, 1.0)
    with pytest.raises(ConfigError, match="derivatives"):
        penrose_scan(VP, bare, 1)


@pytest.mark.parametrize("eq", BACKGROUNDS, ids=lambda eq: eq.label)
def test_arc_bound_covers_dense_arc_and_keeps_windings(eq):
    # the dense arc quadrature is the oracle: its sampled |D - 1| must sit
    # below B_k, and the winding of the axis closed by the sampled arc must
    # equal the scan's chord-closed winding
    for radius in (6.0, 8.0, 40.0):
        scans = {model.label: penrose_scan(model, eq, 2, omega_max=radius)
                 for model in (VP, SCREENED)}
        for k in (1, 2):
            transform = transform_direct(eq, k, +1, radius * UNIT_ARC)
            for model in (VP, SCREENED):
                scan = scans[model.label]
                arc = 1.0 + float(model.poisson_prefactor(k)) * transform
                # real velocity profiles: D(-k, tau) = conj D(k, conj tau)
                for mode, arc_vals in ((k, arc), (-k, np.conj(arc[::-1]))):
                    assert np.max(np.abs(arc_vals - 1.0)) <= scan.arc_bounds[mode]
                    _, axis, _ = dispersion_on_axis(model, eq, mode, radius,
                                                    n_min=4001)
                    raw = _winding_number(np.concatenate([axis[::-1], arc_vals]))
                    assert abs(raw - round(raw)) <= 1e-3
                    assert round(raw) == scan.windings[mode]


def test_arc_bound_against_faddeeva_closed_form():
    for radius in (6.0, 8.0, 40.0):
        taus = radius * UNIT_ARC
        for model in (VP, SCREENED):
            scan = penrose_scan(model, MAXW, 3, omega_max=radius)
            for k in (1, 2, 3):
                closed = maxwellian_transform(k, taus)
                sampled = float(model.poisson_prefactor(k)) * np.max(np.abs(closed))
                assert sampled <= scan.arc_bounds[k] == scan.arc_bounds[-k]


def test_uncertified_arc_names_the_radius():
    eq = two_stream(1.0, 0.5)
    with pytest.raises(ConfigError, match="not certified") as info:
        penrose_scan(VP, eq, 2, omega_max=1.0)
    radius = float(str(info.value).rsplit(" ", 1)[-1])
    # B_k = (|mu_hat(0)| + M) / R^2 for vp, so the radius is the 0.01 step
    # just above sqrt(1 + M)
    assert radius - 0.01 <= math.sqrt(1.0 + arc_moment(eq)) < radius
    rep = penrose_scan(VP, eq, 2, omega_max=radius)
    # just inside the certified radius the arc term 1 - B_k is the minimum
    assert rep.kappa0 == 1.0 - max(rep.arc_bounds.values()) > 0.0
    assert rep.argmin[1] == complex(radius)


def test_factored_contour_sum_matches_dense_sum():
    rng = np.random.default_rng(5)
    # the frequency grid the kernel's default contour uses (6553 nodes, so the
    # last block is partial), with weights that decay quartically like its
    # remainder; a spacing taken from two neighbours is off by 1.8e-13
    omega = 2.0 * math.pi * np.fft.fftfreq(8192, d=math.pi / 250.0)
    omega = np.sort(omega[np.abs(omega) <= 200.0])
    v = ((1.0 + 0.5 * rng.standard_normal(omega.size)
          + 0.5j * rng.standard_normal(omega.size)) / (1.0 + omega**2) ** 2)
    for times in (np.arange(0.0, 32.0 + 1e-9, 0.1),
                  np.sort(rng.uniform(0.0, 32.0, 200))):
        dense = np.exp(1j * times[:, None] * omega[None, :]) @ v
        err = np.max(np.abs(_contour_sum(times, omega, v) - dense))
        assert err <= 1e-13 * np.max(np.abs(dense))


def axis_resolvent(omega_max):
    """Laplace-side resolvent -P L / (1 + P L) on the imaginary axis for k = 1.

    The Maxwellian is even, so L[t mu_hat(-t)] = L[t mu_hat(t)] and the
    resolvent is (1 - D) / D with D from the axis sampler.
    """
    omega, d_vals, _ = dispersion_on_axis(VP, MAXW, 1, omega_max)
    return omega, (1.0 - d_vals) / d_vals


def test_ktilde_values():
    omega, ktilde = axis_resolvent(60.0)
    assert ktilde[np.argmin(np.abs(omega))] == pytest.approx(-0.5, abs=1e-9)
    assert np.max(np.abs(ktilde[np.abs(omega) >= 59.0])) < 1e-3


def test_ktilde_quadratic_decay_on_axis():
    omega, ktilde = axis_resolvent(30.0)
    upper = omega >= 0.0
    c2 = float(np.max(np.abs(ktilde[upper]) * (2.0 + omega[upper] ** 2)))
    assert 1.0 <= c2 < 10.0  # finite empirical constant, reported magnitude


def test_khat_table_fits_and_certificates():
    tg = np.arange(0.0, 12.0 + 1e-9, 0.1)
    lam_prev = 0.0
    for k in (1, 2, 3):
        tab = inverse_laplace_Khat(VP, MAXW, k, tg, omega_max=400.0)
        assert tab.fit_lambda1 == pytest.approx(LAM1_FITS[k], rel=2e-2)
        assert tab.fit_r2 >= 0.95
        assert tab.fit_lambda1 >= lam_prev * 0.9
        lam_prev = tab.fit_lambda1
        assert tab.truncation_bound < 1e-6
        assert tab.quadrature_certificate < 1e-8
        # kernel of a real even profile is real
        assert np.max(np.abs(tab.values.imag)) < 1e-12


def test_khat_doubled_contour_agreement():
    tg = np.arange(0.0, 12.0 + 1e-9, 0.1)
    tab1 = inverse_laplace_Khat(VP, MAXW, 1, tg, omega_max=200.0)
    tab2 = inverse_laplace_Khat(VP, MAXW, 1, tg, omega_max=400.0)
    assert np.max(np.abs(tab1.values - tab2.values)) < 1e-6
    # magnitudes die off beyond the fit window
    assert abs(tab1.values[-1]) < 1e-3 * np.max(np.abs(tab1.values))


def test_khat_integral_matches_laplace_at_zero():
    tg = np.arange(0.0, 12.0 + 1e-9, 0.1)
    tab = inverse_laplace_Khat(VP, MAXW, 1, tg, omega_max=400.0)
    integral = float(np.trapezoid(tab.values.real, tg))
    integral -= tab.fit_C * math.exp(-tab.fit_lambda1 * tg[-1]) / tab.fit_lambda1
    assert integral == pytest.approx(-0.5, abs=2e-3)


def test_khat_zero_profile_gives_zero_kernel():
    from vpscatter.model import Equilibrium

    silent = Equilibrium("silent", lambda eta: np.zeros_like(np.asarray(eta, float)),
                         1.0, lambda eta, order: np.zeros_like(np.asarray(eta, float)))
    tg = np.arange(0.0, 8.0 + 1e-9, 0.5)
    with pytest.raises(ConfigError, match="nothing to fit"):
        inverse_laplace_Khat(VP, silent, 1, tg)


@pytest.mark.parametrize("eq, k1_winding",
                         [(MAXW, 0), (two_stream(0.5), 0), (two_stream(1.0), -1),
                          (two_stream(2.0), 0)], ids=lambda p: getattr(p, "label", p))
def test_khat_winding_counts_zeros_right_of_the_contour(eq, k1_winding):
    # the contour runs upward, the penrose axis path downward: a zero right
    # of both shows with opposite signs (vp two-stream v0 = 1.0 has one at
    # k = 1; the Maxwellian's Landau roots lie left of Re tau = -margin/2)
    tg = np.arange(0.0, 4.0 + 1e-9, 0.25)
    scan = penrose_scan(VP, eq, 2, omega_max=6.0, n_samples=1201)
    for k, want in ((1, k1_winding), (2, 0)):
        tab = inverse_laplace_Khat(VP, eq, k, tg, omega_max=60.0)
        assert tab.winding == want == -scan.windings[k]


def test_khat_contour_fallback_and_explicit_failure(monkeypatch):
    tg = np.arange(0.0, 12.0 + 1e-9, 0.1)
    # floor between the minima on the two candidate contours (0.698 / 0.755)
    monkeypatch.setattr(dispersion, "_KAPPA_FLOOR", 0.72)
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        tab = inverse_laplace_Khat(VP, MAXW, 1, tg)
    assert tab.contour_re == pytest.approx(0.01)
    assert any("shifting" in str(w.message) for w in wlist)
    # a floor above both minima refuses the fallback contour as well
    monkeypatch.setattr(dispersion, "_KAPPA_FLOOR", 0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NearSingularResolventError,
                           match=r"reaches 7\.548e-01 on the contour "
                                 r"Re tau = 0\.01"):
            inverse_laplace_Khat(VP, MAXW, 1, tg)


@pytest.mark.parametrize("model", [VP, SCREENED], ids=lambda m: m.label)
def test_penrose_margin_matches_faddeeva_closed_form(model):
    # the scan's axis minima and kappa0 against min |1 + P(k) L(i omega)|
    # with L in closed form, on the scan's own omega grid
    omega_max, samples, kmax = 8.0, 1201, 3
    scan = penrose_scan(model, MAXW, kmax, omega_max=omega_max,
                        n_samples=samples)
    closed_min = {}
    for k in scan.axis_minima:
        omega, _, _ = dispersion_on_axis(model, MAXW, k, omega_max,
                                         n_min=samples)
        closed = np.abs(1.0 + float(model.poisson_prefactor(k))
                        * maxwellian_transform(k, 1j * omega))
        i = int(np.argmin(closed))
        closed_min[k] = float(closed[i])
        omega_at, d_min = scan.axis_minima[k]
        assert abs(d_min - closed_min[k]) <= 5e-11, k
        assert closed[int(np.argmin(np.abs(omega - omega_at)))] \
            <= closed_min[k] + 5e-11
    expected = min(min(closed_min.values()),
                   1.0 - max(scan.arc_bounds.values()), 1.0 - scan.tail_bound)
    assert abs(scan.kappa0 - expected) <= 5e-11


def test_landau_roots():
    root1 = landau_root(VP, MAXW, 1)
    assert abs(root1 - ROOT_K1) < 1e-7
    root2 = landau_root(VP, MAXW, 2)
    assert abs(root2 - ROOT_K2) < 1e-7
    # D = 1 + L under vp (P(k) = 1); the closed form continues it past the
    # axis, so it vanishes at both roots
    assert abs(1.0 + maxwellian_transform(1, root1)) < 1e-8
    assert abs(1.0 + maxwellian_transform(2, root2)) < 1e-8


def test_absolute_first_moment_maxwellian():
    assert absolute_first_moment(MAXW) == pytest.approx(1.0, abs=1e-8)
