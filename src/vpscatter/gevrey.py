"""Gevrey-type weights and the weighted norms of the construction.

Every weighted norm of the package, the distribution norm N1, the density
norm N2 here and the slice and field norms of :mod:`field`, is one weighted
root-sum-square, :func:`_weighted_rss`.  It takes the exact log weight, since
``exp(lambda <k,eta>^gamma)`` overflows doubles long before the frequencies
of interest run out, and keeps the plain sum of squares wherever that is a
double; only a sum whose squares over- or underflow is taken again, scaled
by the peak amplitude and with its largest term factored out in log domain.
A norm past the double range raises :class:`WeightOverflowError`, which
names the weight or the amplitude.

The time-independent parts of the distribution weight (``<k,eta>^gamma``, the
polynomial log term and the trapezoid log weights) are built once per grid and
weight and cached, so :func:`n1_at_time` does only the arithmetic that depends
on the state: the radius term, the eta derivatives and the sum.  Both norms
refuse a non-finite state or density with :class:`BlowUpError`.
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


@lru_cache(maxsize=16)
def _n1_tables(k_bytes: bytes, eta_bytes: bytes, w: GevreyWeight):
    """Read-only ``<k,eta>^gamma`` and ``(sigma + 1) log<k,eta>`` plus the
    log square root of the trapezoid weights of one grid, keyed on the exact
    bytes of its float axes."""
    k = np.frombuffer(k_bytes)[:, None]
    eta = np.frombuffer(eta_bytes)
    br = bracket(k, eta[None, :])
    quad = np.full(eta.size, eta[1] - eta[0])
    quad[[0, -1]] /= 2.0
    tables = (br**w.gamma, (w.sigma + 1.0) * np.log(br) + 0.5 * np.log(quad))
    for table in tables:
        table.flags.writeable = False
    return tables


# the smallest normal double, and the log of the largest double
_TINY = float(np.finfo(float).tiny)
_LOG_MAX = math.log(np.finfo(float).max)


def _weighted_rss(values: np.ndarray, log_w: np.ndarray, what: str) -> float:
    """sqrt(sum(exp(log_w)^2 |values|^2)); ``log_w`` broadcasts against
    ``values``.

    The plain sum is kept when it is finite and at least sqrt(n tiny) (n the
    number of terms, tiny the smallest normal double), and a zero ``values``
    is 0.  Any other sum, one whose squares over- or underflow or that meets
    a non-finite value, is taken again by :func:`_rescaled_rss`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.abs(values)
        x *= np.exp(log_w)
        total = math.sqrt(np.add.reduce(np.square(x, out=x), axis=None))
    if math.sqrt(x.size * _TINY) <= total < math.inf:
        return total
    return _rescaled_rss(values, log_w, what) if values.any() else 0.0


def _rescaled_rss(values: np.ndarray, log_w: np.ndarray, what: str) -> float:
    """:func:`_weighted_rss` of a nonzero ``values`` whose plain sum is out
    of range.

    Non-finite values raise :class:`BlowUpError`.  The sum is taken over
    |values / peak|^2, peak the largest magnitude, with its largest term
    factored out of the logs, so no square over- or underflows and a zero
    amplitude adds nothing under any weight; the norm is peak times that
    root.  A norm past the double range raises :class:`WeightOverflowError`,
    blaming the weight when the largest term's weight is past it too, and
    else the ``what`` amplitude.
    """
    mags = np.abs(values)
    peak = float(mags.max())
    if not math.isfinite(peak):
        raise BlowUpError(f"weighted {what} holds non-finite values")
    mags /= peak
    with np.errstate(divide="ignore"):
        terms = np.log(mags) + log_w  # -inf where the amplitude is 0
    top = float(terms.max())
    if top > _LOG_MAX:
        raise WeightOverflowError(
            f"weighted {what} norm overflowed; reduce lambda_inf or sigma")
    terms -= top
    norm = peak * math.exp(top) * math.sqrt(
        np.add.reduce(np.square(np.exp(terms, out=terms)), axis=None))
    if norm < math.inf:
        return norm
    raise WeightOverflowError(
        f"weighted {what} norm overflowed: the {what} amplitude {peak:.3e} "
        "times its finite weight leaves the double range; shrink the datum "
        "amplitude")


def n1_at_time(state, w: GevreyWeight) -> float:
    """Weighted distribution norm of a single spectral state.

    sqrt of sum over derivative orders j <= moments, modes k, and eta of
    exp(2 lambda(t) <k,eta>^gamma) <k,eta>^(2 sigma + 2) |d^j ghat|^2,
    with trapezoidal eta quadrature.  Every order comes from one
    :func:`_eta_derivatives` stack, summed in one :func:`_weighted_rss`.
    The grid's weight tables are remembered (``_n1_tables``).  A finite
    state too large for its differences raises :class:`WeightOverflowError`.
    """
    values = np.asarray(state.values)
    _require_finite(values, "state")
    k = np.ascontiguousarray(state.k_values, dtype=float)
    eta = np.ascontiguousarray(state.eta, dtype=float)
    br_gamma, log_rest = _n1_tables(k.tobytes(), eta.tobytes(), w)
    log_w = float(lambda_of_t(w, state.time)) * br_gamma
    log_w += log_rest
    with np.errstate(over="ignore", invalid="ignore"):
        derivs = _eta_derivatives(values, float(eta[1] - eta[0]), w.moments)
    try:
        return _weighted_rss(derivs, log_w, "distribution")
    except BlowUpError:  # a finite state whose differences overflow
        raise WeightOverflowError(
            "weighted distribution norm overflowed: the distribution amplitude "
            f"{np.max(np.abs(values)):.3e} leaves the double range in its eta "
            "differences; shrink the datum amplitude") from None


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
    log_w = (0.5 * math.log(dt) + w.b * np.log(time_bracket(times))[:, None]
             + lam * br**w.gamma + w.sigma * np.log(br))
    return _weighted_rss(values, log_w, "density")


@dataclass(frozen=True)
class WeightedNormReport:
    """Combined norm of a trajectory: distribution part plus density part."""

    n1: float
    n2: float
    n_total: float


def weighted_norm_report(state_history, density, w: GevreyWeight) -> WeightedNormReport:
    """Sup over the states of :func:`n1_at_time` (0 for none) plus
    :func:`norm_N2` of the density."""
    n1 = max((n1_at_time(s, w) for s in state_history), default=0.0)
    n2 = norm_N2(density, w)
    return WeightedNormReport(n1=n1, n2=n2, n_total=n1 + n2)
