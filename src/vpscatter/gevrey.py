"""Gevrey-type weights, weighted norms, and fractional-power inequalities.

Weights are handled in log domain throughout: ``exp(lambda <k,eta>^gamma)``
overflows doubles long before the frequencies of interest run out, so every
weighted sum goes through a max-shifted log-sum-exp before exponentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigError, WeightOverflowError

__all__ = [
    "GevreyWeight",
    "WeightedNormReport",
    "GevreyInequalityReport",
    "bracket",
    "time_bracket",
    "lambda_of_t",
    "log_weight_A",
    "log_weight_B",
    "eta_derivative",
    "norm_N1",
    "norm_N2",
    "weighted_norm_report",
    "gevrey_inequality_suite",
    "norm_equivalence_check",
]


@dataclass(frozen=True)
class GevreyWeight:
    """Parameters of the time-dependent weight family.

    The regularity radius ``lambda(t) = lambda_inf - c_decay <t>^(-delta)``
    increases from ``lambda_inf - c_decay`` at t = 0 toward ``lambda_inf``.
    ``moments`` is the velocity moment order entering the distribution norm.
    """

    gamma: float = 0.5
    sigma: float = 12.0
    lambda_inf: float = 0.2
    c_decay: float = 0.05
    delta: float = 0.05
    b: float = 11.0
    moments: int = 2

    def __post_init__(self) -> None:
        if not (1.0 / 3.0 < self.gamma < 1.0):
            raise ConfigError(f"gamma must lie in (1/3, 1), got {self.gamma}")
        if self.sigma <= 11.0:
            raise ConfigError(f"sigma must exceed 11, got {self.sigma}")
        if self.lambda_inf <= 0 or self.c_decay <= 0:
            raise ConfigError("lambda_inf and c_decay must be positive")
        if self.lambda_inf - self.c_decay <= 0:
            raise ConfigError("initial radius lambda_inf - c_decay must be positive")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if self.b <= 10.0:
            raise ConfigError(f"time exponent b must exceed 10, got {self.b}")
        if int(self.moments) != self.moments or self.moments < 1:
            raise ConfigError("moments must be an integer >= 1")

    def scaled(self, factor: float) -> "GevreyWeight":
        """Same family with the whole radius profile scaled by ``factor``."""
        if not (0.0 < factor <= 1.0):
            raise ConfigError("radius scaling factor must lie in (0, 1]")
        return GevreyWeight(self.gamma, self.sigma, factor * self.lambda_inf,
                            factor * self.c_decay, self.delta, self.b, self.moments)


def bracket(k, eta):
    """<k, eta> = sqrt(1 + k^2 + eta^2), broadcasting over both arguments."""
    k = np.asarray(k, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return np.sqrt(1.0 + k * k + eta * eta)


def time_bracket(t):
    t = np.asarray(t, dtype=float)
    return np.sqrt(1.0 + t * t)


def lambda_of_t(w: GevreyWeight, t):
    """Radius at time t; values increase from lambda(0) toward lambda_inf."""
    return w.lambda_inf - w.c_decay * time_bracket(t) ** (-w.delta)


def log_weight_A(w: GevreyWeight, t, k, eta):
    """log of the Gevrey weight: lambda(t) <k,eta>^gamma + sigma log<k,eta>."""
    br = bracket(k, eta)
    return lambda_of_t(w, t) * br**w.gamma + w.sigma * np.log(br)


def log_weight_B(w: GevreyWeight, t, k, eta):
    """One extra bracket power on top of the base weight."""
    br = bracket(k, eta)
    return lambda_of_t(w, t) * br**w.gamma + (w.sigma + 1.0) * np.log(br)


# 4th-order centered stencils; data is zero outside the grid
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _apply_stencil(values: np.ndarray, stencil: np.ndarray, scale: float) -> np.ndarray:
    pad = [(0, 0)] * (values.ndim - 1) + [(2, 2)]
    ext = np.pad(values, pad)
    out = np.zeros_like(values)
    n = values.shape[-1]
    for i, c in enumerate(stencil):
        if c != 0.0:
            out += c * ext[..., i:i + n]
    return out * scale


def eta_derivative(values: np.ndarray, d_eta: float, order: int) -> np.ndarray:
    """Repeated 4th-order centered differencing along the last axis."""
    if order < 0:
        raise ConfigError("derivative order must be >= 0")
    out = np.asarray(values)
    while order >= 2:
        out = _apply_stencil(out, _D2, 1.0 / d_eta**2)
        order -= 2
    if order == 1:
        out = _apply_stencil(out, _D1, 1.0 / d_eta)
    return out


def _log_abs_sq(values: np.ndarray) -> np.ndarray:
    mag2 = np.abs(values) ** 2
    with np.errstate(divide="ignore"):
        return np.where(mag2 > 0, np.log(mag2, where=mag2 > 0,
                                          out=np.full(mag2.shape, -np.inf)), -np.inf)


def _trapezoid_log_weights(n: int, step: float) -> np.ndarray:
    logs = np.full(n, math.log(step))
    logs[0] -= math.log(2.0)
    logs[-1] -= math.log(2.0)
    return logs


# largest exponent whose exponential is still a finite double
_LOG_MAX = math.log(np.finfo(float).max)


def _sqrt_of_exp_sum(logs: np.ndarray, what: str) -> float:
    """sqrt(sum(exp(logs))), refused in the log domain before it can overflow."""
    half = 0.5 * logsumexp(logs)
    if not half <= _LOG_MAX:
        raise WeightOverflowError(
            f"{what} overflowed; reduce lambda_inf or sigma")
    return float(np.exp(half))


def n1_at_time(state, w: GevreyWeight) -> float:
    """Weighted distribution norm of a single spectral state.

    sqrt of sum over derivative orders j <= moments, modes k, and eta of
    exp(2 lambda(t) <k,eta>^gamma) <k,eta>^(2 sigma + 2) |d^j ghat|^2,
    with trapezoidal eta quadrature.
    """
    k = np.asarray(state.k_values, dtype=float)[:, None]
    eta = np.asarray(state.eta, dtype=float)[None, :]
    br = bracket(k, eta)
    log_w2 = (2.0 * float(lambda_of_t(w, state.time)) * br**w.gamma
              + (2.0 * w.sigma + 2.0) * np.log(br))
    d_eta = float(state.eta[1] - state.eta[0])
    quad = _trapezoid_log_weights(br.shape[1], d_eta)[None, :]
    pieces = []
    for order in range(w.moments + 1):
        deriv = eta_derivative(np.asarray(state.values), d_eta, order)
        pieces.append(log_w2 + quad + _log_abs_sq(deriv))
    stacked = np.stack(pieces)
    if np.all(np.isneginf(stacked)):
        return 0.0
    return _sqrt_of_exp_sum(stacked, "weighted distribution norm")


def norm_N1(state_history, w: GevreyWeight) -> float:
    """Sup over timestamps of the weighted distribution norm."""
    best = 0.0
    for state in state_history:
        best = max(best, n1_at_time(state, w))
    return best


def norm_N2(density, w: GevreyWeight) -> float:
    """Space-time density norm.

    sqrt of sum over time samples and modes of
    dt <t>^(2b) exp(2 lambda(t) <k, kt>^gamma) <k, kt>^(2 sigma) |rho_hat|^2.
    """
    times = np.asarray(density.times, dtype=float)
    k = np.asarray(density.k_values, dtype=float)
    values = np.asarray(density.values)
    if values.shape != (times.size, k.size):
        raise ConfigError("density values must have shape (n_times, n_modes)")
    if times.size < 2:
        raise ConfigError("density history needs at least two time samples")
    dt = float(times[1] - times[0])
    br = bracket(k[None, :], k[None, :] * times[:, None])
    lam = np.asarray(lambda_of_t(w, times), dtype=float)[:, None]
    logs = (math.log(dt)
            + 2.0 * w.b * np.log(time_bracket(times))[:, None]
            + 2.0 * lam * br**w.gamma + 2.0 * w.sigma * np.log(br)
            + _log_abs_sq(values))
    if np.all(np.isneginf(logs)):
        return 0.0
    return _sqrt_of_exp_sum(logs, "weighted density norm")


@dataclass(frozen=True)
class WeightedNormReport:
    """Combined norm of a trajectory: distribution part plus density part."""

    n1: float
    n2: float
    n_total: float
    per_time: tuple[tuple[float, float], ...]


def weighted_norm_report(state_history, density, w: GevreyWeight) -> WeightedNormReport:
    per_time = tuple((float(s.time), n1_at_time(s, w)) for s in state_history)
    n1 = max((v for _, v in per_time), default=0.0)
    n2 = norm_N2(density, w) if density is not None else 0.0
    return WeightedNormReport(n1=n1, n2=n2, n_total=n1 + n2, per_time=per_time)


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
    nearby_ratio_bound: float
    comparable_constant: float

    @property
    def clean(self) -> bool:
        return self.subadditivity_violations == 0 and self.nearby_violations == 0


def gevrey_inequality_suite(gamma: float, samples: int, seed: int = 0,
                            nearby_ratio: float = 2.0) -> GevreyInequalityReport:
    """Monte Carlo check of four bracket-power estimates.

    Pairs are drawn log-uniformly across twelve decades (plus explicit zeros
    and ties). The four checks:
      1. subadditivity <x+y>^g <= <x>^g + <y>^g, must never fail;
      2. difference quotient |<x>^g - <y>^g| (<x>^(1-g) + <y>^(1-g)) / <x-y>,
         empirical constant reported;
      3. for |x - y| <= x/K: |<x>^g - <y>^g| <= g/(K-1)^(1-g) <x-y>^g,
         must never fail;
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

    k_ratio = nearby_ratio
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
        nearby_ratio_bound=k_ratio,
        comparable_constant=cmp_const,
    )


def norm_equivalence_check(state, w: GevreyWeight):
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
    if not np.all(np.isfinite(weighted)):
        raise WeightOverflowError("weight exponentiation overflowed on this grid")

    m = w.moments
    side_fd = 0.0
    for j in range(m + 1):
        deriv = eta_derivative(weighted, d_eta, j)
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
