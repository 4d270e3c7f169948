"""Laplace transforms, the electrostatic dispersion function, stability
scanning, and the resolvent kernel of the density Volterra equation.

The dispersion function here is
    D(k, tau) = 1 + k^2/(beta + k^2) * L[t mu_hat(k t)](tau),
with L the one-sided Laplace transform. Stability of the background is
decided on the boundary of the right half-plane: sampled minima of |D| on
the imaginary axis plus a Nyquist winding count along the closed contour
(axis + large semicircle). Modes beyond the scanned band are covered by an
analytic tail bound, making the infinite scan a finite computation.

The resolvent kernel of the density equation is
    Ktilde(k, tau) = -P L[t mu_hat(-k t)](tau) / (1 + P L[t mu_hat(-k t)](tau)),
inverted to the time side on a vertical contour. The exactly invertible
leading term -P L is subtracted first and restored in closed form, leaving a
remainder with quartic decay in Im tau, so a truncated contour carries a
certified and reported truncation bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NearSingularResolventError, QuadratureError
from .fitting import linear_fit
from .model import Equilibrium, ModelConfig

__all__ = [
    "PenroseReport",
    "ResolventTable",
    "laplace_one_sided",
    "laplace_two_sided",
    "dispersion_D",
    "dispersion_on_axis",
    "penrose_scan",
    "resolvent_Ktilde",
    "inverse_laplace_Khat",
    "landau_root",
    "absolute_first_moment",
]

_MARGIN_FRACTION = 0.25  # safe analyticity fraction, strictly below 1/2
_MAX_DOUBLINGS = 22  # Simpson panel halvings before a transform gives up
_SEMICIRCLE_SAMPLES = 512  # samples on the closing semicircle of a scan


@dataclass(frozen=True)
class PenroseReport:
    """Outcome of a boundary stability scan.

    ``kappa0`` estimates the infimum of |D| over the right half-plane
    boundary across all nonzero modes; ``tail_bound`` bounds |D - 1| for the
    modes beyond ``k_scan_max``; ``windings`` counts right-half-plane zeros
    per scanned mode, and ``axis_minima`` holds each scanned mode's sampled
    (argmin omega, minimum |D|) on the imaginary axis.
    """

    kappa0: float
    argmin: tuple[int, complex]
    windings: dict[int, int]
    axis_minima: dict[int, tuple[float, float]]
    stable: bool
    k_scan_max: int
    tail_bound: float
    omega_max: float
    n_axis_samples: int


@dataclass(frozen=True)
class ResolventTable:
    """Time-side resolvent kernel of one spatial mode with its decay fit.

    ``values[j]`` approximates the kernel at ``times[j]``; the fitted model is
    |kernel| = fit_C exp(-fit_lambda1 |k| t) over the window where the
    magnitude exceeds both 1e-12 and ten times the truncation bound.
    """

    k: int
    times: np.ndarray
    values: np.ndarray
    fit_C: float
    fit_lambda1: float
    fit_r2: float
    truncation_bound: float
    contour_re: float
    omega_max: float
    quadrature_certificate: float
    quadratic_decay_constant: float


def _tail_cutoff(phi: Callable, growth: float, tol: float, t_cap: float) -> float:
    """Smallest T with |phi(t)| e^{growth t} <= tol for all sampled t >= T.

    Worked in log magnitudes so steep growth factors cannot overflow."""
    t = np.linspace(0.0, t_cap, 4001)
    mag = np.abs(np.asarray(phi(t), dtype=complex))
    with np.errstate(divide="ignore"):
        logs = np.where(mag > 0, np.log(mag, where=mag > 0,
                                        out=np.full(mag.shape, -np.inf)), -np.inf)
    logs = logs + growth * t
    suffix = np.maximum.accumulate(logs[::-1])[::-1]
    ok = suffix <= math.log(tol)
    if not ok[-1] or not np.any(ok):
        raise QuadratureError(
            "integrand tail does not fall below tolerance; declared decay "
            "rate appears violated")
    return float(t[int(np.argmax(ok))])


def laplace_one_sided(phi: Callable, tau: complex, tol: float = 1e-10,
                      decay: float = 1.0) -> complex:
    """One-sided transform of an exponentially decaying function.

    ``decay`` is the declared rate c with |phi(t)| <~ e^{-ct}; the transform
    needs Re tau > -c. Composite Simpson panels are halved, at most
    ``_MAX_DOUBLINGS`` times, until two successive refinements agree to
    tol/2, and the truncated tail is certified below tol/2 before
    integration starts.
    """
    tau = complex(tau)
    if decay <= 0:
        raise ConfigError("declared decay rate must be positive")
    alpha = decay + tau.real
    if alpha <= 0:
        raise QuadratureError(
            f"Re tau = {tau.real:g} is at or below the declared decay rate; "
            "the transform diverges")
    t_end = _tail_cutoff(phi, -tau.real, tol * alpha / 2.0, 120.0 / min(decay, alpha))
    t_end = max(t_end, 1.0 / decay)
    n = 64
    while n * 4 < t_end * (4.0 + abs(tau.imag) + abs(tau.real)):
        n *= 2
    previous = None
    for _ in range(_MAX_DOUBLINGS):
        t = np.linspace(0.0, t_end, 2 * n + 1)
        f = np.asarray(phi(t), dtype=complex) * np.exp(-tau * t)
        w = np.ones(2 * n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        value = complex(np.sum(w * f)) * (t_end / (2 * n)) / 3.0
        if previous is not None and abs(value - previous) <= tol / 2.0:
            return value
        previous = value
        n *= 2
    raise QuadratureError("Simpson refinement did not certify the requested "
                          "tolerance; integrand may be too rough")


def laplace_two_sided(phi: Callable, tau: complex, tol: float = 1e-10,
                      decay: float = 1.0) -> complex:
    """Two-sided transform for |Re tau| < decay, via two one-sided halves."""
    tau = complex(tau)
    if abs(tau.real) >= decay:
        raise QuadratureError(
            f"|Re tau| = {abs(tau.real):g} reaches the declared decay rate")
    forward = laplace_one_sided(phi, tau, tol / 2.0, decay)
    backward = laplace_one_sided(lambda t: np.asarray(phi(-t)), -tau, tol / 2.0, decay)
    return forward + backward


def _decay_floor(eq: Equilibrium, k: int) -> float:
    return 0.9 * eq.lambda_analytic * abs(k)


def dispersion_D(model: ModelConfig, eq: Equilibrium, k: int, tau: complex,
                 tol: float = 1e-10, strict_margin: bool = True) -> complex:
    """Dispersion function of one spatial mode.

    With ``strict_margin`` the Laplace variable is confined to the certified
    analyticity region Re tau >= -lambda_analytic |k| / 4; disabling it lets
    callers with super-exponentially decaying profiles evaluate deeper, with
    convergence still certified by the quadrature itself.
    """
    if k == 0:
        raise ConfigError("the dispersion function is defined for k != 0")
    tau = complex(tau)
    margin = _MARGIN_FRACTION * eq.lambda_analytic * abs(k)
    if strict_margin and tau.real < -margin:
        raise ConfigError(
            f"Re tau = {tau.real:g} lies outside the analyticity margin "
            f"{-margin:g} for k = {k}")
    pref = float(model.poisson_prefactor(k))
    transform = laplace_one_sided(lambda t: t * np.asarray(eq.mu_hat(k * t)),
                                  tau, tol, decay=_decay_floor(eq, k))
    return 1.0 + pref * transform


def _corner_coeffs(eq: Equilibrium, k: int, sign: int, a: float) -> np.ndarray:
    """Cubic-matched template coefficients for the s = 0 corner.

    The half-line integrand f(s) = s mu_hat(sign k s) e^{-a s} is extended by
    zero for s < 0, so its spectrum decays only quadratically and trapezoid
    aliasing converges slowly. Matching c(s) = s (c0 + c1 s + c2 s^2 + c3 s^3)
    e^{-s} to the series of f at 0 leaves an O(s^5) residual whose spectrum
    decays fast enough for the FFT grid.
    """
    derivs = [complex(np.asarray(eq.deriv(0.0, j)).item()) for j in range(4)]
    g = np.zeros(4, dtype=complex)
    for m in range(4):
        g[m] = sum(derivs[i] * (sign * k) ** i / math.factorial(i)
                   * (-a) ** (m - i) / math.factorial(m - i)
                   for i in range(m + 1))
    c = np.zeros(4, dtype=complex)
    for m in range(4):
        c[m] = g[m] - sum(c[i] * (-1.0) ** (m - i) / math.factorial(m - i)
                          for i in range(m))
    return c


def _corner_values(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    poly = c[0] + s * (c[1] + s * (c[2] + s * c[3]))
    return s * poly * np.exp(-s)


def _corner_transform(c: np.ndarray, omega: np.ndarray) -> np.ndarray:
    base = 1.0 / (1.0 + 1j * omega)
    out = np.zeros(omega.shape, dtype=complex)
    for m in range(4):
        out += c[m] * math.factorial(m + 1) * base ** (m + 2)
    return out


def _grid_transform(eq: Equilibrium, k: int, sign: int, a: float,
                    omega_max: float, span_min: float, tol: float = 5e-9):
    """L[t mu_hat(sign k t)](a + i omega) on a uniform omega grid via FFT.

    Returns (omega, values, certificate): omega ascending with spacing
    2 pi / span, |omega| <= omega_max; the certificate is the change under
    one time-step halving.
    """
    growth = -a  # integrand carries e^{-a s}
    t_need = _tail_cutoff(lambda s: s * np.asarray(eq.mu_hat(sign * k * s)),
                          growth, tol, 200.0 / max(abs(k), 1))
    span = max(span_min, t_need + 1.0, 80.0)
    h = math.pi / (1.25 * omega_max)
    n = 1 << max(10, math.ceil(math.log2(span / h)))
    span = n * h  # realized period; omega spacing 2 pi / span
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
            if cert <= tol:
                return omega_out, values, cert
        prev = values
        n *= 2
    raise QuadratureError("contour transform failed to certify under halving")


def dispersion_on_axis(model: ModelConfig, eq: Equilibrium, k: int,
                       omega_max: float, n_min: int = 1024):
    """D(k, i omega) on a uniform grid covering [-omega_max, omega_max]."""
    if k == 0:
        raise ConfigError("k must be nonzero")
    span_min = math.pi * n_min / omega_max
    omega, transform, cert = _grid_transform(eq, k, +1, 0.0, omega_max, span_min)
    pref = float(model.poisson_prefactor(k))
    return omega, 1.0 + pref * transform, cert


def _transform_direct(eq: Equilibrium, k: int, sign: int, taus: np.ndarray,
                      tol: float = 5e-9) -> np.ndarray:
    """Dense-grid transform at arbitrary complex points, refinement-certified."""
    re_min = float(np.min(taus.real))
    t_end = _tail_cutoff(lambda s: s * np.asarray(eq.mu_hat(sign * k * s)),
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


def _winding_number(values: np.ndarray) -> float:
    closed = np.concatenate([values, values[:1]])
    return float(np.sum(np.diff(np.unwrap(np.angle(closed))))) / (2.0 * math.pi)


def absolute_first_moment(eq: Equilibrium, tol: float = 1e-10) -> float:
    """integral of u |mu_hat(u)| over u >= 0, for the mode tail bound."""
    val = laplace_one_sided(lambda u: u * np.abs(np.asarray(eq.mu_hat(u))),
                            0.0, tol, decay=0.9 * eq.lambda_analytic)
    return float(val.real)


def penrose_scan(model: ModelConfig, eq: Equilibrium, k_scan_max: int,
                 omega_max: float = 40.0, n_samples: int = 4001) -> PenroseReport:
    """Boundary stability scan over all modes 0 < |k| <= k_scan_max.

    Per mode: sampled minimum of |D| on the imaginary segment and on the
    closing right semicircle of radius omega_max, plus the Nyquist winding
    number along that closed boundary traversed counterclockwise (down the
    axis, then through +omega_max back up). Nonzero winding counts
    right-half-plane zeros; stability additionally needs the unscanned-mode
    tail bound to stay below the running minimum.
    """
    if k_scan_max < 1:
        raise ConfigError("k_scan_max must be >= 1")
    windings: dict[int, int] = {}
    axis_minima: dict[int, tuple[float, float]] = {}
    kappa0 = math.inf
    argmin: tuple[int, complex] = (0, 0j)
    modes = [k for k in range(-k_scan_max, k_scan_max + 1) if k != 0]
    theta = np.linspace(-math.pi / 2, math.pi / 2, _SEMICIRCLE_SAMPLES)
    semi_taus = omega_max * np.exp(1j * theta)
    for k in modes:
        omega, axis_vals, _ = dispersion_on_axis(model, eq, k, omega_max,
                                                 n_min=n_samples)
        i = int(np.argmin(np.abs(axis_vals)))
        axis_minima[k] = (float(omega[i]), float(np.abs(axis_vals[i])))
        pref = float(model.poisson_prefactor(k))
        semi_vals = 1.0 + pref * _transform_direct(eq, k, +1, semi_taus)

        for taus, vals in ((1j * omega, axis_vals), (semi_taus, semi_vals)):
            i = int(np.argmin(np.abs(vals)))
            if abs(vals[i]) < kappa0:
                kappa0 = float(abs(vals[i]))
                argmin = (k, complex(taus[i]))

        # counterclockwise boundary: axis from +i omega_max down to -i
        # omega_max, then the semicircle back through +omega_max
        loop = np.concatenate([axis_vals[::-1], semi_vals])
        raw = _winding_number(loop)
        if abs(raw - round(raw)) > 1e-3:
            raise QuadratureError(
                f"winding number {raw:.6f} for k = {k} is not integral; "
                "increase sampling density")
        windings[k] = int(round(raw))

    tail = absolute_first_moment(eq) / (model.beta + (k_scan_max + 1) ** 2)
    kappa0 = min(kappa0, max(0.0, 1.0 - tail))
    stable = kappa0 > 0 and all(wd == 0 for wd in windings.values())
    if all(wd == 0 for wd in windings.values()) and tail >= kappa0:
        raise ConfigError(
            "scan inconclusive: unscanned-mode tail bound exceeds the "
            "scanned minimum; widen k_scan_max")
    return PenroseReport(kappa0=kappa0, argmin=argmin, windings=windings,
                         axis_minima=axis_minima, stable=stable,
                         k_scan_max=k_scan_max, tail_bound=tail,
                         omega_max=omega_max, n_axis_samples=n_samples)


def resolvent_Ktilde(model: ModelConfig, eq: Equilibrium, k: int, tau: complex,
                     kappa_floor: float = 1e-6, tol: float = 1e-10) -> complex:
    """Laplace-side resolvent kernel -P L / (1 + P L), L = L[t mu_hat(-k t)]."""
    if k == 0:
        raise ConfigError("the resolvent kernel is defined for k != 0")
    pref = float(model.poisson_prefactor(k))
    transform = laplace_one_sided(lambda t: t * np.asarray(eq.mu_hat(-k * t)),
                                  complex(tau), tol, decay=_decay_floor(eq, k))
    denom = 1.0 + pref * transform
    if abs(denom) < kappa_floor:
        raise NearSingularResolventError(
            f"|1 + P L| = {abs(denom):.3e} below floor {kappa_floor:g} at "
            f"tau = {tau}; stability margin violated")
    return -pref * transform / denom


def inverse_laplace_Khat(model: ModelConfig, eq: Equilibrium, k: int,
                         time_grid: np.ndarray, contour_re: float | None = None,
                         omega_max: float = 200.0,
                         kappa_floor: float = 1e-6) -> ResolventTable:
    """Time-side resolvent kernel by vertical-contour inversion.

    The exactly invertible part -P L[t mu_hat(-kt)] is split off and restored
    in closed form as -P t mu_hat(-k t); the remaining contour integrand
    (P L)^2 / (1 + P L) decays quartically in Im tau, so truncating at
    omega_max leaves the reported bound C4 / (3 pi omega_max^3).
    """
    if k == 0:
        raise ConfigError("k must be nonzero")
    times = np.asarray(time_grid, dtype=float)
    if times.ndim != 1 or times.size < 4 or times[0] < 0:
        raise ConfigError("time_grid must be a 1-d grid of nonnegative times")
    pref = float(model.poisson_prefactor(k))
    margin = _MARGIN_FRACTION * eq.lambda_analytic * abs(k)
    attempts = [contour_re] if contour_re is not None else [-margin / 2.0, 0.01]
    span_min = times[-1] + 60.0

    last_err: Exception | None = None
    for a in attempts:
        if a < -margin:
            raise ConfigError(f"contour_re = {a:g} outside the analyticity "
                              f"margin {-margin:g}")
        omega, transform, cert = _grid_transform(eq, k, -1, a, omega_max, span_min)
        pl = pref * transform
        denom = 1.0 + pl
        small = float(np.min(np.abs(denom)))
        if small < kappa_floor:
            last_err = NearSingularResolventError(
                f"|1 + P L| reaches {small:.3e} on the contour Re tau = {a:g}")
            if contour_re is None:
                warnings.warn("resolvent nearly singular on the default "
                              "contour; shifting right of the axis")
                continue
            raise last_err
        remainder = pl * pl / denom
        ktilde = -pl / denom
        scale2 = 1.0 + k * k + omega**2
        c2 = float(np.max(np.abs(ktilde) * scale2))
        c4 = float(np.max(np.abs(remainder) * scale2**2))
        trunc = c4 / (3.0 * math.pi * omega_max**3) * math.exp(max(a, 0.0) * times[-1])

        d_omega = float(omega[1] - omega[0])
        w = np.full(omega.size, d_omega)
        w[0] *= 0.5
        w[-1] *= 0.5
        phases = np.exp(1j * times[:, None] * omega[None, :])
        contour_part = (phases @ (w * remainder)) / (2.0 * math.pi)
        closed_part = -pref * times * np.asarray(eq.mu_hat(-k * times), dtype=complex)
        values = np.exp(a * times) * contour_part + closed_part

        floor = max(1e-12, 10.0 * trunc)
        mag = np.abs(values)
        # the decay fit targets the resonance tail: start once the closed-form
        # hump has faded to 1% of its peak, keep only envelope peaks (the
        # kernel oscillates through zeros, which would wreck a log fit), and
        # stay above the contour noise floor
        hump = np.abs(closed_part)
        past_hump = (hump <= 0.01 * float(np.max(hump))) & (times > 0.2)
        t_start = times[int(np.argmax(past_hump))] if np.any(past_hump) else times[0]
        peaks = np.zeros(times.size, dtype=bool)
        peaks[1:-1] = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] > mag[2:])
        window = peaks & (times >= t_start) & (mag > floor)
        if int(np.sum(window)) < 3:
            window = (times >= t_start) & (mag > floor)
        if int(np.sum(window)) < 3:
            window = mag > 1e-12
        if int(np.sum(window)) < 3:
            raise ConfigError("kernel magnitude never rises above the fit "
                              "floor; nothing to fit")
        slope, intercept, r2 = linear_fit(times[window], np.log(mag[window]))
        return ResolventTable(
            k=k, times=times, values=values,
            fit_C=math.exp(intercept), fit_lambda1=-slope / abs(k), fit_r2=r2,
            truncation_bound=trunc, contour_re=a, omega_max=omega_max,
            quadrature_certificate=cert, quadratic_decay_constant=c2)
    raise last_err if last_err is not None else RuntimeError("no contour tried")


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
    vals = 1.0 + pref * _transform_direct(eq, k, +1, taus)
    tau = complex(taus[int(np.argmin(np.abs(vals)))])

    def d_and_deriv(z: complex) -> tuple[complex, complex]:
        arr = np.array([z])
        d = 1.0 + pref * _transform_direct(eq, k, +1, arr, tol=1e-12)[0]
        moment2 = _transform_direct(
            _second_moment_view(eq, k), k, +1, arr, tol=1e-12)[0]
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


def _second_moment_view(eq: Equilibrium, k: int) -> Equilibrium:
    # reuse the certified transform of t * f by folding one extra t factor
    # into the profile evaluator
    return Equilibrium(eq.label, lambda eta: (np.asarray(eta) / k) * eq.mu_hat(eta),
                       eq.lambda_analytic, None)
