"""Independent oracles kept with the tests, not in the package.

``transform_direct`` evaluates L[t mu_hat(sign k t)] with a dense Simpson
matrix of complex exponentials. The package never samples the Penrose arc or
searches for dispersion roots, so this route lives here: it backs the
arc-bound checks and, through ``landau_root``, the damping-rate criterion.
``laplace_one_sided`` is the one-sided transform of a decaying function,
certified by the package's tail cutoff and nested Simpson rule; no command
transforms a bare function, so it backs the transform checks from here.
``laplace_two_sided`` backs the transform-identity criterion.
``maxwellian_transform`` is the closed form of that transform for the
Maxwellian, through the Faddeeva function: it shares no quadrature with the
package.
``nested_simpson_full_grid`` is the piecewise Simpson refinement that
rebuilds and re-evaluates every piece's grid at every halving, and
``laplace_one_sided_full_grid`` runs it on the single piece of a transform;
the package's nested loop evaluates each node once and must agree with them
to roundoff. ``two_stream_first_moment`` integrates the kinked two-stream
first moment by Gauss-Legendre rules between the known zeros of the cosine:
it shares no quadrature with the package.

``grid_transform_fresh`` is the FFT contour transform that samples the
whole integrand again at every time-step halving and recomputes the corner
transform each round; the package's loop keeps the previous round's samples
as the even nodes and must agree with it bit for bit.

``resolvent_identity_residual`` forms the dense direct and reconstruction
operators of the backward Volterra solve and measures how far their product
is from the identity. ``solve_with_continuum_tables`` applies sampled
continuum kernels (contour tables from ``inverse_laplace_Khat``) by the plain
trapezoid rule; the package only applies exact lag-recursion tables.

``transport_rhs_per_shift`` is the transport right-hand side with one fresh
spline lookup per shear shift, copied into zeroed rows and subtracted over
the whole array; ``transport_rhs`` answers every shift in one lookup and
must agree with it bit for bit.

``CoefficientSpline`` is the not-a-knot spline in coefficient form: four
per-interval coefficient arrays from a real ``dgttrs`` solve, each point
located by ``searchsorted`` and evaluated by Horner on its own offset.  It
reads any points; the package's Hermite-form ``StateInterpolant`` reads
shifted grid rows and must agree with it to roundoff.

``source_history_per_mode`` is the backward source with one datum trace
per grid time and, for each later slice, one fresh spline lookup and one
term per transfer mode, added in lattice order; ``assemble_source_history``
traces every time in one call, forms a slice's terms in one broadcast and
must agree with it bit for bit.

``history_slice`` interpolates one potential history at one time, the
per-history route ``HistoryFieldProvider`` replaced with one set of weights
for both histories; the provider must agree with it bit for bit.

``integrate_copying`` is the RK4 sweep that builds every stage and step as
a public, copying ``SpectralState`` from out-of-place array expressions;
``integrate`` wraps its own new arrays without a copy, forms the step
combination in place and must agree with it bit for bit.

``gevrey_inequality_suite`` is a Monte Carlo check of the paper's four
fractional bracket-power inequalities, reported in a
``GevreyInequalityReport``; no config can change them, so no command runs it.

``load_state_csv`` reads a ``g0_state.csv`` back into a ``SpectralState``:
the inverse of ``vpscatter.cli.write_state_csv``; no command reads a state
file back.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import wofz

from vpscatter.dispersion import (_GRID_TOL, _MAX_DOUBLINGS, _corner_coeffs,
                                  _corner_transform, _corner_values,
                                  _nested_simpson, _tail_cutoff)
from vpscatter.errors import ConfigError, QuadratureError
from vpscatter.field import h_of_field
from vpscatter.kinetic import (EDGE_SLACK, PhaseGrid, SpectralState,
                               StateInterpolant, transport_rhs)
from vpscatter.model import Equilibrium, ModelConfig
from vpscatter.volterra import (_check_diagonal, _operator_entries,
                                build_discrete_resolvent)


def transform_direct(eq: Equilibrium, k: int, sign: int, taus: np.ndarray,
                     tol: float = 5e-9) -> np.ndarray:
    """Dense-grid transform at arbitrary complex points, refinement-certified."""
    re_min = float(np.min(taus.real))
    t_end, _ = _tail_cutoff(lambda s: s * np.asarray(eq.mu_hat(sign * k * s)),
                            -re_min, tol, 200.0 / max(abs(k), 1))
    t_end = max(t_end, 1.0)
    im_max = float(np.max(np.abs(taus.imag)))
    n = 128
    while n < 2 * t_end * (2.0 + im_max):
        n *= 2
    prev = None
    for _ in range(8):
        s = np.linspace(0.0, t_end, n + 1)
        f = s * np.asarray(eq.mu_hat(sign * k * s), dtype=complex)
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        wf = w * f * (t_end / n) / 3.0
        out = np.empty(taus.shape, dtype=complex)
        for lo in range(0, taus.size, 256):
            chunk = taus[lo:lo + 256, None]
            out[lo:lo + 256] = np.exp(-chunk * s[None, :]) @ wf
        if prev is not None and float(np.max(np.abs(out - prev))) <= tol:
            return out
        prev = out
        n *= 2
    raise QuadratureError("direct transform failed to certify under halving")


def grid_transform_fresh(eq: Equilibrium, k: int, sign: int, a: float,
                         omega_max: float, span_min: float):
    """``_grid_transform`` with every round sampled and transformed afresh."""
    t_need, _ = _tail_cutoff(lambda s: s * np.asarray(eq.mu_hat(sign * k * s)),
                             -a, _GRID_TOL, 200.0 / max(abs(k), 1))
    span = max(span_min, t_need + 1.0, 80.0)
    h = math.pi / (1.25 * omega_max)
    n = 1 << max(10, math.ceil(math.log2(span / h)))
    span = n * h
    corner = _corner_coeffs(eq, k, sign, a)
    prev = None
    for _ in range(6):
        step = span / n
        s = np.arange(n) * step
        f = (s * np.asarray(eq.mu_hat(sign * k * s), dtype=complex)
             * np.exp(-a * s) - _corner_values(corner, s))
        spectrum = np.fft.fft(f) * step
        omega = 2.0 * math.pi * np.fft.fftfreq(n, d=step)
        keep = np.abs(omega) <= omega_max + 1e-12
        order = np.argsort(omega[keep], kind="stable")
        omega_out = omega[keep][order]
        values = spectrum[keep][order] + _corner_transform(corner, omega_out)
        if prev is not None:
            cert = float(np.max(np.abs(values - prev)))
            if cert <= _GRID_TOL:
                return omega_out, values, cert
        prev = values
        n *= 2
    raise QuadratureError("contour transform failed to certify under halving")


def maxwellian_transform(k, taus):
    """Closed form of L[t e^{-k^2 t^2/2}](tau) through the Faddeeva function.

    (1 - tau sqrt(pi/2) / |k| w(i tau / (sqrt 2 |k|))) / k^2; w is entire, so
    this also continues the transform into the left half-plane.
    """
    k = abs(k)
    taus = np.asarray(taus, dtype=complex)
    return (1.0 - taus * math.sqrt(math.pi / 2) / k
            * wofz(1j * taus / (math.sqrt(2.0) * k))) / k**2


def landau_root(model: ModelConfig, eq: Equilibrium, k: int,
                re_range: tuple[float, float] = (-1.6, -0.02),
                im_range: tuple[float, float] | None = None,
                grid: int = 40, tol: float = 1e-10) -> complex:
    """Left-half-plane zero of D(k, .) nearest the imaginary axis.

    Coarse modulus scan seeds a Newton iteration that uses the analytic
    derivative D'(tau) = -P L[t^2 mu_hat(k t)](tau). Only meaningful for
    profiles whose transform continues past the exponential margin, which the
    built-in Gaussian-mixture backgrounds do; convergence of the underlying
    quadrature is still certified per evaluation.
    """
    if k == 0:
        raise ConfigError("k must be nonzero")
    if im_range is None:
        im_range = (0.3, 1.2 + 2.2 * abs(k))
    res, ims = np.meshgrid(np.linspace(*re_range, grid),
                           np.linspace(*im_range, grid))
    taus = (res + 1j * ims).ravel()
    pref = float(model.poisson_prefactor(k))
    vals = 1.0 + pref * transform_direct(eq, k, +1, taus)
    tau = complex(taus[int(np.argmin(np.abs(vals)))])

    def d_and_deriv(z: complex) -> tuple[complex, complex]:
        arr = np.array([z])
        d = 1.0 + pref * transform_direct(eq, k, +1, arr, tol=1e-12)[0]
        moment2 = transform_direct(
            second_moment_view(eq, k), k, +1, arr, tol=1e-12)[0]
        return d, -pref * moment2

    for _ in range(60):
        d, dp = d_and_deriv(tau)
        if abs(d) < tol:
            return tau
        step = d / dp
        if not np.isfinite(step):
            break
        tau = tau - step
    raise QuadratureError(f"Newton did not locate a dispersion zero near {tau}")


def second_moment_view(eq: Equilibrium, k: int) -> Equilibrium:
    # reuse the certified transform of t * f by folding one extra t factor
    # into the profile evaluator; d^n[(eta/k) mu] = (eta/k) mu^(n) + (n/k) mu^(n-1)
    def deriv(eta, order):
        eta = np.asarray(eta, dtype=float)
        return ((eta / k) * eq.deriv(eta, order)
                + (order / k) * eq.deriv(eta, order - 1))

    return Equilibrium(eq.label, lambda eta: (np.asarray(eta) / k) * eq.mu_hat(eta),
                       eq.lambda_analytic, deriv)


def nested_simpson_full_grid(phi, tol: float, breaks: np.ndarray) -> complex:
    """``dispersion._nested_simpson`` with every refinement level of every
    piece rebuilt by ``np.linspace`` and summed afresh."""
    lo, width = breaks[:-1], np.diff(breaks)
    total = float(breaks[-1] - breaks[0])
    n = 64
    while n < total:
        n *= 2
    m = np.maximum(1, np.ceil(n * width / total)).astype(np.int64)
    previous = None
    for _ in range(_MAX_DOUBLINGS):
        value = 0j
        for a, b, pairs in zip(lo, breaks[1:], m):
            t = np.linspace(a, b, 2 * pairs + 1)
            f = np.asarray(phi(t), dtype=complex)
            w = np.ones(2 * pairs + 1)
            w[1:-1:2] = 4.0
            w[2:-1:2] = 2.0
            value += complex(np.sum(w * f)) * ((b - a) / (2 * pairs)) / 3.0
        if previous is not None and abs(value - previous) <= tol / 2.0:
            return value
        previous = value
        m *= 2
    raise QuadratureError("full-grid Simpson refinement did not certify")


def _damped(phi: Callable, tau: complex) -> Callable:
    """The transform's integrand phi(t) e^{-tau t}."""
    return lambda t: np.asarray(phi(t), dtype=complex) * np.exp(-tau * t)


def laplace_one_sided(phi: Callable, tau: complex, tol: float = 1e-10,
                      decay: float = 1.0) -> complex:
    """One-sided transform of an exponentially decaying function.

    ``decay`` is the declared rate c with |phi(t)| <~ e^{-ct}; the transform
    needs Re tau > -c. The truncated tail is certified below tol/2 before
    integration starts, and :func:`_nested_simpson` integrates
    phi(t) e^{-tau t} on the single piece [0, T] that remains.
    """
    tau = complex(tau)
    if decay <= 0:
        raise ConfigError("declared decay rate must be positive")
    alpha = decay + tau.real
    if alpha <= 0:
        raise QuadratureError(
            f"Re tau = {tau.real:g} is at or below the declared decay rate; "
            "the transform diverges")
    t_end, _ = _tail_cutoff(phi, -tau.real, tol * alpha / 2.0,
                            120.0 / min(decay, alpha))
    return _nested_simpson(_damped(phi, tau), tol,
                           np.array([0.0, max(t_end, 1.0 / decay)]))


def laplace_one_sided_full_grid(phi, tau: complex, tol: float = 1e-10,
                                decay: float = 1.0) -> complex:
    """``laplace_one_sided`` with every refinement level summed afresh."""
    tau = complex(tau)
    alpha = decay + tau.real
    t_end, _ = _tail_cutoff(phi, -tau.real, tol * alpha / 2.0,
                            120.0 / min(decay, alpha))
    return nested_simpson_full_grid(
        _damped(phi, tau), tol, np.array([0.0, max(t_end, 1.0 / decay)]))


def two_stream_first_moment(v0: float, width: float = 0.5) -> float:
    """integral over u >= 0 of u |cos(v0 u)| e^{-(width u)^2 / 2}.

    A 64-point Gauss-Legendre rule on each piece between the zeros
    (n + 1/2) pi / v0 of the cosine, where the modulus has its kinks, up to
    u = 12 / width, past which the integrand is below e^{-70}."""
    u_max = 12.0 / width
    zeros = (np.arange(math.ceil(u_max * v0 / math.pi)) + 0.5) * math.pi / v0
    breaks = np.concatenate(([0.0], zeros[zeros < u_max], [u_max]))
    x, w = np.polynomial.legendre.leggauss(64)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        u = 0.5 * (b - a) * x + 0.5 * (a + b)
        f = u * np.abs(np.cos(v0 * u)) * np.exp(-0.5 * (width * u) ** 2)
        total += 0.5 * (b - a) * float(np.dot(w, f))
    return total


def laplace_two_sided(phi, tau: complex, tol: float = 1e-10,
                      decay: float = 1.0) -> complex:
    """Two-sided transform for |Re tau| < decay, via two one-sided halves."""
    tau = complex(tau)
    if abs(tau.real) >= decay:
        raise QuadratureError(
            f"|Re tau| = {abs(tau.real):g} reaches the declared decay rate")
    forward = laplace_one_sided(phi, tau, tol / 2.0, decay)
    backward = laplace_one_sided(lambda t: np.asarray(phi(-t)), -tau, tol / 2.0, decay)
    return forward + backward


def resolvent_identity_residual(model, eq, k: int, delta_t: float,
                                n_steps: int, table=None) -> float:
    """Max-abs entry of (direct operator) (reconstruction operator) - I:
    roundoff for the default lag-recursion table, the quadrature gap between
    the routes for a continuum table (one without ``diagonal``)."""
    if table is None:
        table = build_discrete_resolvent(model, eq, k, delta_t, n_steps)
    n = n_steps + 1
    diag, entries = _operator_entries(model, eq, k, delta_t, n_steps)
    lag = np.arange(n)[None, :] - np.arange(n)[:, None]
    direct = np.where(lag > 0, entries[np.clip(lag, 0, n_steps)], 0.0)
    direct[np.diag_indices(n)] = diag
    kernel = np.asarray(table.values, dtype=complex)[:n]
    table_diag = getattr(table, "diagonal", None)
    recon = np.where(lag > 0, delta_t * kernel[np.clip(lag, 0, n - 1)], 0.0j)
    if table_diag is not None:
        recon[np.diag_indices(n)] = 1.0 / _check_diagonal(table_diag)
    else:
        # trapezoid application: halved weights at both window endpoints
        recon[:-1, -1] *= 0.5
        recon[np.diag_indices(n)] = 1.0 + 0.5 * delta_t * kernel[0]
        recon[-1, -1] = 1.0
    residual = direct @ recon - np.eye(n)
    return float(np.max(np.abs(residual)))


def solve_with_continuum_tables(source, tables) -> np.ndarray:
    """Source plus trapezoid lag convolution with ``tables[k].values``, the
    kernel at the source lags; the mean mode passes through."""
    dt = source.delta_t
    n = source.n_times
    out = np.array(source.values)
    for j, k in enumerate(source.k_values):
        if k == 0:
            continue
        kernel = np.asarray(tables[int(k)].values, dtype=complex)[:n]
        rhs = source.values[:, j]
        for i in range(n - 1):
            seg = kernel[:n - i] * rhs[i:]
            out[i, j] = rhs[i] + dt * (np.sum(seg) - 0.5 * (seg[0] + seg[-1]))
    return out


def transport_rhs_per_shift(state, u_linear, u_nonlinear, eq):
    """Transport right-hand side with the shear term built one shift at a time."""
    grid = state.grid
    u_lin, u_nl = np.asarray(u_linear), np.asarray(u_nonlinear)
    t = state.time
    k_col = grid.k_values[:, None].astype(float)
    shear = grid.eta[None, :] - k_col * t
    rhs = np.zeros_like(state.values)
    if np.any(u_lin != 0.0):
        rhs -= shear * k_col * u_lin[:, None] * eq.mu_hat(shear)
    interp = StateInterpolant(state)
    for ell, coef in zip(grid.k_values, u_nl):
        if ell == 0 or coef == 0.0:
            continue
        shifted = interp.all_rows(grid.eta - ell * t)
        g_shift = np.zeros_like(state.values)
        rows = np.arange(max(0, ell), grid.n_modes + min(0, ell))
        g_shift[rows] = shifted[rows - ell]
        rhs -= shear * (ell * coef) * g_shift
    return rhs


def source_history_per_mode(model, states, density, u_hats, ginf):
    """Backward source on the whole time grid, one transfer mode at a time."""
    grid = states[0].grid
    times = density.times
    n_t = times.size
    k = grid.k_values
    out = np.zeros((n_t, k.size), dtype=complex)
    for i in range(n_t):
        out[i] = ginf.trace(k, times[i])
        out[i] -= h_of_field(model, u_hats.values[i])
    conv = np.zeros((n_t, k.size), dtype=complex)
    for j in range(1, n_t):
        interp = StateInterpolant(states[j])
        edge = 0.5 if j == n_t - 1 else 1.0
        gaps = (times[j] - times[:j])[:, None]
        for ell in k[k != 0]:
            rho_j = density.values[j, ell + grid.k_max]
            if rho_j == 0.0:
                continue
            weight = k.astype(float) * ell / (model.beta + ell ** 2.0)
            g = interp.at_pairs(k - ell, k * times[:j, None] - ell * times[j])
            conv[:j] += (edge * density.delta_t * rho_j) * gaps * weight[None, :] * g
    return out - conv


class CoefficientSpline:
    """The not-a-knot spline of a state's frequency axis in coefficient form."""

    def __init__(self, state):
        from scipy.linalg import lapack

        grid = state.grid
        self.grid = grid
        self._edge = grid.eta_max * (1.0 + EDGE_SLACK) + EDGE_SLACK
        self._inner = grid.eta[1:-1]
        n = grid.n_eta
        h = grid.delta_eta
        sub, diag, sup = np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1)
        diag[0] = diag[-1] = 1.0
        sup[0] = sub[-1] = 2.0
        *factors, _ = lapack.dgttrf(sub, diag, sup)
        # node-major real view: row i holds (re, im) of every mode at eta_i
        y = np.ascontiguousarray(state.values.T).view(float)
        secant = np.diff(y, axis=0) / h
        rhs = np.empty(y.shape, order="F")
        rhs[1:-1] = 3.0 * (secant[:-1] + secant[1:])
        rhs[0] = 2.5 * secant[0] + 0.5 * secant[1]
        rhs[-1] = 0.5 * secant[-2] + 2.5 * secant[-1]
        s, _ = lapack.dgttrs(*factors, rhs, overwrite_b=True)
        t = (s[:-1] + s[1:] - 2.0 * secant) / h
        # coefficients of (eta - eta_i)^(3, 2, 1, 0) on interval i, viewed
        # back as complex with shape (power, interval, mode)
        coef = np.empty((4, n - 1, y.shape[1]))
        coef[0] = t / h
        coef[1] = (secant - s[:-1]) / h - t
        coef[2] = s[:-1]
        coef[3] = y[:-1]
        self._coef = coef.view(complex)

    def _locate(self, eta):
        pts = np.clip(eta, -self.grid.eta_max, self.grid.eta_max)
        idx = np.searchsorted(self._inner, pts, side="right")
        return idx, pts - self.grid.eta[idx]

    @staticmethod
    def _horner(c, d):
        return ((c[0] * d + c[1]) * d + c[2]) * d + c[3]

    def all_rows(self, eta):
        """Every mode row at the points ``eta``, of any shape."""
        eta = np.asarray(eta, dtype=float)
        idx, d = self._locate(eta.ravel())
        out = self._horner(np.take(self._coef, idx, axis=1), d[:, None])
        out = out.T.reshape((-1,) + eta.shape)
        out[:, np.abs(eta) > self._edge] = 0.0
        return out


def history_slice(history, t):
    """Four-point Lagrange interpolation of one history at time t (linear
    below four slices)."""
    times = history.times
    n = times.size
    pos = (t - times[0]) / history.delta_t
    if n < 4:
        j = min(int(pos), n - 2)
        theta = min(max(pos - j, 0.0), 1.0)
        return (1.0 - theta) * history.values[j] + theta * history.values[j + 1]
    j = min(max(int(pos) - 1, 0), n - 4)
    theta = pos - j
    w0 = -(theta - 1.0) * (theta - 2.0) * (theta - 3.0) / 6.0
    w1 = theta * (theta - 2.0) * (theta - 3.0) / 2.0
    w2 = -theta * (theta - 1.0) * (theta - 3.0) / 2.0
    w3 = theta * (theta - 1.0) * (theta - 2.0) / 6.0
    rows = history.values
    return (w0 * rows[j] + w1 * rows[j + 1]
            + w2 * rows[j + 2] + w3 * rows[j + 3])


def integrate_copying(initial, provider, time_grid, eq):
    """RK4 sweep from ``initial`` (at 0 or the final time) over the whole
    grid: ``(states ascending in time, max reality drift, mass drift)``."""
    times = time_grid.times
    backward = abs(initial.time - times[-1]) < abs(initial.time - times[0])
    order = range(times.size - 2, -1, -1) if backward else range(1, times.size)
    grid = initial.grid

    def rhs(stage):
        return transport_rhs(stage, *provider(stage), eq)

    def state_at(t, values):
        return SpectralState(time=t, grid=grid, values=values)

    current = initial
    out = [current]
    max_drift = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in order:
            t0 = current.time
            t1 = float(times[idx])
            h = t1 - t0
            y = current.values
            k1 = rhs(current)
            k2 = rhs(state_at(t0 + h / 2.0, y + (h / 2.0) * k1))
            k3 = rhs(state_at(t0 + h / 2.0, y + (h / 2.0) * k2))
            k4 = rhs(state_at(t1, y + h * k3))
            y_next = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            mirror = np.conj(y_next[::-1, ::-1])
            max_drift = max(max_drift, float(np.max(np.abs(y_next - mirror))))
            current = state_at(t1, (y_next + mirror) / 2.0)
            out.append(current)
    mass_drift = abs(current.mass_mode() - initial.mass_mode())
    if backward:
        out.reverse()
    return out, max_drift, mass_drift


@dataclass(frozen=True)
class GevreyInequalityReport:
    """Worst-case margins of the fractional bracket-power inequalities.

    Margins are (right side - left side) minima, so nonnegative means the
    inequality held on every sampled pair. The difference-quotient constant
    and the comparable-argument constant are empirical maxima, reported
    rather than asserted.
    """

    gamma: float
    samples: int
    subadditivity_margin: float
    subadditivity_violations: int
    difference_quotient_constant: float
    nearby_margin: float
    nearby_violations: int
    comparable_constant: float


def gevrey_inequality_suite(gamma: float, samples: int,
                            seed: int = 0) -> GevreyInequalityReport:
    """Monte Carlo check of four bracket-power estimates.

    Pairs are drawn log-uniformly across twelve decades (plus explicit zeros
    and ties). The four checks:
      1. subadditivity <x+y>^g <= <x>^g + <y>^g, must never fail;
      2. difference quotient |<x>^g - <y>^g| (<x>^(1-g) + <y>^(1-g)) / <x-y>,
         empirical constant reported;
      3. for |x - y| <= x/K with K = 2: |<x>^g - <y>^g| <= g/(K-1)^(1-g)
         <x-y>^g, must never fail;
      4. comparable arguments 1/2 <= x/y <= 2: smallest c with
         <x+y>^g <= c (<x>^g + <y>^g), reported and < 1.
    """
    if not (0.0 < gamma < 1.0):
        raise ConfigError("gamma must lie in (0, 1)")
    if samples < 10_000:
        raise ConfigError("need at least 10^4 sample pairs")
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(-6.0, 6.0, size=samples)
    y = 10.0 ** rng.uniform(-6.0, 6.0, size=samples)
    # edge pairs: zeros and exact ties
    x = np.concatenate([x, [0.0, 0.0, 5.0, 1e6, 3.0]])
    y = np.concatenate([y, [0.0, 7.0, 0.0, 1e6, 3.0]])

    def brp(z):
        return np.sqrt(1.0 + z * z) ** gamma

    sub_margin = brp(x) + brp(y) - brp(x + y)
    sub_viol = int(np.sum(sub_margin < 0))

    with np.errstate(invalid="ignore", divide="ignore"):
        quot = (np.abs(brp(x) - brp(y))
                * (np.sqrt(1 + x * x) ** (1 - gamma) + np.sqrt(1 + y * y) ** (1 - gamma))
                / np.sqrt(1.0 + (x - y) ** 2))
    diff_const = float(np.max(quot[np.isfinite(quot)]))

    k_ratio = 2.0
    y_near = x * (1.0 + rng.uniform(-1.0, 1.0, size=x.size) / k_ratio)
    near_rhs = gamma / (k_ratio - 1.0) ** (1.0 - gamma) * brp(x - y_near)
    near_margin = near_rhs - np.abs(brp(x) - brp(y_near))
    near_viol = int(np.sum(near_margin < 0))

    ratio = rng.uniform(0.5, 2.0, size=x.size)
    y_cmp = np.maximum(x * ratio, 1e-300)
    x_cmp = np.maximum(x, 1e-300)
    cmp_const = float(np.max(brp(x_cmp + y_cmp) / (brp(x_cmp) + brp(y_cmp))))

    return GevreyInequalityReport(
        gamma=gamma,
        samples=samples,
        subadditivity_margin=float(np.min(sub_margin)),
        subadditivity_violations=sub_viol,
        difference_quotient_constant=diff_const,
        nearby_margin=float(np.min(near_margin)),
        nearby_violations=near_viol,
        comparable_constant=cmp_const,
    )


def load_state_csv(path) -> SpectralState:
    """Inverse of :func:`vpscatter.cli.write_state_csv`.

    Every ``(k_index, eta_index)`` cell must appear exactly once: a missing,
    repeated, out-of-range or malformed row is a :class:`ConfigError`.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ConfigError(f"{path}: missing grid metadata header")
    meta: dict[str, str] = {}
    for piece in lines[0].lstrip("#").split(";"):
        key, _, value = piece.partition("=")
        meta[key.strip()] = value.strip()
    try:
        k_max, eta_max = int(meta["k_max"]), float(meta["eta_max"])
        delta_eta, time = float(meta["delta_eta"]), float(meta["time"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: bad grid metadata header ({exc})") from None
    grid = PhaseGrid(k_max, eta_max, delta_eta)
    values = np.zeros((grid.n_modes, grid.n_eta), dtype=complex)
    seen = np.zeros(values.shape, dtype=bool)
    for lineno, row in enumerate(csv.reader(lines[2:]), start=3):
        if not row:
            continue
        try:
            i, j = int(row[0]), int(row[1])
            value = complex(float(row[2]), float(row[3]))
        except (IndexError, ValueError):
            raise ConfigError(f"{path}:{lineno}: malformed state row") from None
        if not (0 <= i < grid.n_modes and 0 <= j < grid.n_eta):
            raise ConfigError(
                f"{path}:{lineno}: cell ({i}, {j}) is outside the "
                f"{grid.n_modes} x {grid.n_eta} grid")
        if seen[i, j]:
            raise ConfigError(f"{path}:{lineno}: duplicate row for cell ({i}, {j})")
        seen[i, j] = True
        values[i, j] = value
    if not seen.all():
        i, j = np.argwhere(~seen)[0]
        raise ConfigError(f"{path}: {np.count_nonzero(~seen)} cells have no "
                          f"row, the first is ({i}, {j})")
    return SpectralState(time=time, grid=grid, values=values)
