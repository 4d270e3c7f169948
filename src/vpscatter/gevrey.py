"""Gevrey-type weights and the weighted norms of the construction.

Weights are handled in log domain throughout: ``exp(lambda <k,eta>^gamma)``
overflows doubles long before the frequencies of interest run out, so every
weighted sum goes through a max-shifted log-sum-exp before exponentiation.

The time-independent parts of the distribution weight (``<k,eta>^gamma``, the
polynomial log term and the trapezoid log weights) are built once per grid and
weight and cached, so :func:`n1_at_time` does only the arithmetic that depends
on the state: the radius term, the eta derivatives and the log-sum-exp.
Both norms refuse a non-finite state or density with :class:`BlowUpError`,
and a norm past the double range with :class:`WeightOverflowError`, which
names the weight or the amplitude as the cause (``_norm_overflow``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .errors import BlowUpError, ConfigError, WeightOverflowError

__all__ = [
    "RADIUS_REDUCTION",
    "GevreyWeight",
    "weight_violations",
    "WeightedNormReport",
    "bracket",
    "time_bracket",
    "lambda_of_t",
    "log_weight_A",
    "norm_N2",
    "weighted_norm_report",
]

# radius reduction used for the contraction metric and the field-decay weight
RADIUS_REDUCTION = 0.9


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
        bad = weight_violations(**asdict(self))
        if bad:
            raise ConfigError("; ".join(bad))

    def reduced(self) -> "GevreyWeight":
        """Same family with the whole radius profile scaled by
        ``RADIUS_REDUCTION``."""
        return GevreyWeight(self.gamma, self.sigma,
                            RADIUS_REDUCTION * self.lambda_inf,
                            RADIUS_REDUCTION * self.c_decay, self.delta, self.b,
                            self.moments)


def weight_violations(gamma, sigma, lambda_inf, c_decay, delta, b,
                      moments) -> list[str]:
    """Every weight hypothesis of the construction the parameters break."""
    bad: list[str] = []
    if not 1.0 / 3.0 < gamma < 1.0:
        bad.append(f"gamma = {gamma} breaks gamma in (1/3, 1)")
    if sigma <= 11.0:
        bad.append(f"sigma = {sigma} breaks sigma > 10 + d (= 11)")
    if b <= 10.0:
        bad.append(f"b = {b} breaks b > 10")
    if int(moments) != moments or moments < 1:
        bad.append(f"moments = {moments} breaks M > d/2 "
                   f"(needs an integer >= 1)")
    if lambda_inf <= 0 or c_decay <= 0 or lambda_inf - c_decay <= 0:
        bad.append("lambda_inf and c_decay must be positive with "
                   "lambda_inf - c_decay > 0")
    if not 0.0 < delta < 1.0:
        bad.append(f"delta = {delta} breaks delta in (0, 1)")
    return bad


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


def _eta_derivatives(values: np.ndarray, d_eta: float, moments: int) -> np.ndarray:
    """Orders 0..moments of repeated 4th-order centered differencing along
    eta, stacked: shape ``(moments + 1, modes, n_eta)``.

    Orders 2p+1 and 2p+2 are the first and second derivatives of order 2p,
    taken together from one zero-padded copy of it as centred differences,
    e[+-i] the neighbours i nodes away:
    (8 (e[+1] - e[-1]) - (e[+2] - e[-2])) / (12 h) and
    (16 (e[+1] + e[-1]) - (e[+2] + e[-2]) - 30 e) / (12 h^2).
    An odd ``moments`` leaves the last order unpaired.  The arithmetic runs on
    real views: every coefficient is real, so each part is differenced alone.
    """
    n = values.shape[-1]
    out = np.empty((moments + 1,) + values.shape, dtype=complex)
    out[0] = values
    ext = np.zeros(values.shape[:-1] + (n + 4,), dtype=complex).view(float)
    near, far = np.empty((2,) + values.shape, dtype=complex).view(float)
    e_m2, e_m1, e_0, e_p1, e_p2 = (ext[:, 2 * i:2 * (i + n)] for i in range(5))
    real = out.view(float)
    for order in range(1, moments + 1, 2):
        e_0[...] = real[order - 1]
        first = real[order]
        np.subtract(e_p1, e_m1, out=near)
        near *= 8.0
        np.subtract(e_p2, e_m2, out=far)
        np.subtract(near, far, out=first)
        first *= 1.0 / (12.0 * d_eta)
        if order == moments:
            break
        second = real[order + 1]
        np.add(e_p1, e_m1, out=near)
        near *= 16.0
        np.add(e_p2, e_m2, out=far)
        np.subtract(near, far, out=second)
        np.multiply(e_0, 30.0, out=far)
        second -= far
        second *= 1.0 / (12.0 * d_eta**2)
    return out


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise BlowUpError(f"{what} holds non-finite values")


def _log_abs_sq(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """log |values|^2 into ``out``: -inf where the square is 0, +inf where it
    overflows, so one plain log serves every entry."""
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        mag2 = np.abs(values, out=out)
        np.square(mag2, out=mag2)
        return np.log(mag2, out=mag2)


def _trapezoid_log_weights(n: int, step: float) -> np.ndarray:
    logs = np.full(n, math.log(step))
    logs[0] -= math.log(2.0)
    logs[-1] -= math.log(2.0)
    return logs


@lru_cache(maxsize=16)
def _n1_tables(k_bytes: bytes, eta_bytes: bytes, w: GevreyWeight):
    """Read-only ``<k,eta>^gamma``, ``(2 sigma + 2) log<k,eta>`` and trapezoid
    log weights of one grid, keyed on the exact bytes of its float axes."""
    k = np.frombuffer(k_bytes)[:, None]
    eta = np.frombuffer(eta_bytes)[None, :]
    br = bracket(k, eta)
    tables = (br**w.gamma, (2.0 * w.sigma + 2.0) * np.log(br),
              _trapezoid_log_weights(br.shape[1], float(eta[0, 1] - eta[0, 0]))[None, :])
    for table in tables:
        table.flags.writeable = False
    return tables


def _log_sum_exp(logs: np.ndarray) -> float:
    """``scipy.special.logsumexp(logs)`` for a real array, bit for bit, with
    ``logs`` overwritten.

    The maxima are summed apart from the rest, as in scipy (after Blanchard,
    Higham & Higham, IMA J. Numer. Anal. 41, 2021): with ``m`` tied maxima
    and ``s`` the sum of the other shifted exponentials, the result is
    ``log1p(s / m) + log(m) + max``.  A non-finite maximum is returned as is.
    """
    top = logs.max()
    if not np.isfinite(top):
        return top
    logs -= top
    ties = logs == 0.0  # x - top is exactly zero only where x == top
    m = np.float64(np.count_nonzero(ties))
    np.exp(logs, out=logs)
    logs[ties] = 0.0
    s = logs.sum()
    if s != 0.0:
        s = s / m
    return np.log1p(s) + np.log(m) + top


# largest exponent whose exponential is still a finite double, and the log
# of the smallest normal double
_LOG_MAX = math.log(np.finfo(float).max)
_LOG_TINY = math.log(np.finfo(float).tiny)


def _norm_overflow(what: str, weight_finite: bool,
                   amplitude: float) -> WeightOverflowError:
    """The error of a weighted ``what`` norm past the double range: an
    infinite weight is blamed on lambda_inf and sigma, else the amplitude."""
    if not weight_finite:
        return WeightOverflowError(
            f"weighted {what} norm overflowed; reduce lambda_inf or sigma")
    return WeightOverflowError(
        f"weighted {what} norm overflowed: the {what} amplitude "
        f"{amplitude:.3e} times its finite weight leaves the double range; "
        "shrink the datum amplitude")


def _weighted_root(values: np.ndarray, log_w2: np.ndarray, what: str) -> float:
    """sqrt(sum(exp(log_w2) |values|^2)) by a log-sum-exp; ``log_w2``
    broadcasts against ``values``.

    The logs are log |values|^2 + log_w2.  Where a square overflows (the sum
    reads +inf), the sum is below n times the largest weight times the
    smallest normal double (squares past the normal range could move it) or
    the norm leaves the double range, the sum is taken again over
    |values / peak|^2, peak the largest magnitude, which no square limits;
    the norm is peak times its root.  A norm past the double range is
    refused, blaming the weight only when its largest value is past it too.
    """
    log_w2_max = float(log_w2.max())
    logs = _log_abs_sq(values, np.empty(values.shape))
    logs += log_w2
    total = _log_sum_exp(logs)
    if log_w2_max + math.log(logs.size) + _LOG_TINY <= total <= 2.0 * _LOG_MAX:
        return float(np.exp(0.5 * total))
    if total == -math.inf and not values.any():  # a zero state
        return 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mags = np.abs(values)
        peak = float(np.max(mags))
        logs = 2.0 * np.log(mags / peak) + log_w2
        norm = peak * float(np.exp(0.5 * _log_sum_exp(logs)))
    if not math.isfinite(norm):
        raise _norm_overflow(what, log_w2_max <= 2.0 * _LOG_MAX, peak)
    return norm


def n1_at_time(state, w: GevreyWeight) -> float:
    """Weighted distribution norm of a single spectral state.

    sqrt of sum over derivative orders j <= moments, modes k, and eta of
    exp(2 lambda(t) <k,eta>^gamma) <k,eta>^(2 sigma + 2) |d^j ghat|^2,
    with trapezoidal eta quadrature.  Every order comes from one
    :func:`_eta_derivatives` stack; |.|^2, the log and the weight are taken
    once over it.  The grid's weight tables are remembered (``_n1_tables``).
    """
    values = np.asarray(state.values)
    _require_finite(values, "state")
    k = np.ascontiguousarray(state.k_values, dtype=float)
    eta = np.ascontiguousarray(state.eta, dtype=float)
    br_gamma, log_poly, quad = _n1_tables(k.tobytes(), eta.tobytes(), w)
    log_w2 = 2.0 * float(lambda_of_t(w, state.time)) * br_gamma
    log_w2 += log_poly
    log_w2 += quad
    derivs = _eta_derivatives(values, float(eta[1] - eta[0]), w.moments)
    return _weighted_root(derivs, log_w2, "distribution")


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
    _require_finite(values, "density")
    dt = float(times[1] - times[0])
    br = bracket(k[None, :], k[None, :] * times[:, None])
    lam = np.asarray(lambda_of_t(w, times), dtype=float)[:, None]
    log_w2 = (math.log(dt)
              + 2.0 * w.b * np.log(time_bracket(times))[:, None]
              + 2.0 * lam * br**w.gamma + 2.0 * w.sigma * np.log(br))
    return _weighted_root(values, log_w2, "density")


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
    n2 = norm_N2(density, w)
    return WeightedNormReport(n1=n1, n2=n2, n_total=n1 + n2, per_time=per_time)
