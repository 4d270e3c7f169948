"""Nonlinear elliptic coupling between density and potential on the k-lattice.

The density equals a prescribed slice minus the coupling series applied to
the screened potential.  :func:`poisson_fixed_point` resolves that balance by
Picard iteration inside a weighted amplitude ball, :func:`h_of_field`
evaluates the series as powers of the slice's truncated-product Toeplitz
matrix, :func:`potential_from_density` is the screened Poisson division every
layer uses, and :func:`electric_from_density` adds the electric field.  The
slice norm of the smallness gate, the Picard loop's measure and the
field-decay series of :func:`efield_weighted_norms` are one weighted
root-sum-square with one rule for values past the double range.

Slot position is the mode label: a slice of odd width 2K + 1 (or the last
axis of an array of slices) holds the modes -K..K in increasing order, so
slot j is mode j - K.  Every function here refuses a slice of even width.
How the balance is solved is set by the model; :class:`FieldSnapshot` is a
plain record of the result.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import ConfigError, NoContractionError
from .gevrey import (RADIUS_REDUCTION, GevreyWeight, _norm_overflow,
                     _require_finite, bracket, lambda_of_t, log_weight_A)
from .model import ModelConfig
from .volterra import SpectralHistory

__all__ = [
    "FieldSnapshot",
    "weighted_density_norm",
    "efield_weighted_norms",
    "h_of_field",
    "potential_from_density",
    "electric_from_density",
    "poisson_fixed_point",
]

MEAN_MODE_TOL = 1e-10
_TINY = float(np.finfo(float).tiny)  # the smallest normal double
_PAD = np.zeros(1, dtype=complex)  # the zero that T(u) reads outside -K..K


def _modes(values: np.ndarray) -> np.ndarray:
    """The labels -K..K of the last axis of ``values``; its width must be odd."""
    width = values.shape[-1] if values.ndim else 0
    if width % 2 == 0:
        raise ConfigError(f"the mode axis must have odd width 2K + 1 (modes "
                          f"-K..K), got shape {values.shape}")
    return np.arange(width) - width // 2


def _mode_slice(values) -> np.ndarray:
    """``values`` as a complex 1-d slice on -K..K, refused otherwise."""
    out = np.asarray(values, dtype=complex)
    if out.ndim != 1:
        raise ConfigError(f"a mode slice must be 1-d, got shape {out.shape}")
    _modes(out)
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class FieldSnapshot:
    """Potential, electric field, and density of one time slice.

    ``u_hat[j]`` is the potential coefficient of mode j - K; ``e_hat`` is
    its spectral gradient with flipped sign.  ``residual`` is the weighted
    fixed-point defect at exit and ``iters`` the number of map applications
    (both zero for :func:`electric_from_density`).  ``ratios`` holds the
    successive contraction quotients observed by the solver.
    """

    u_hat: np.ndarray
    e_hat: np.ndarray
    rho_hat: np.ndarray
    residual: float = 0.0
    iters: int = 0
    ratios: tuple = ()


@functools.lru_cache(maxsize=2)
def _density_weights(w: GevreyWeight, t: float, width: int) -> np.ndarray:
    """Time-t Gevrey weight of every mode of a width-mode slice along
    eta = k t, read-only.

    Two entries: RK4's k2 and k3 share a stage time, and so do k4 and the
    next step's k1, so the Picard loop evaluates each stage time's row once.
    A weight past the double range is inf, which the norm reports.
    """
    k = (np.arange(width) - width // 2).astype(float)
    with np.errstate(over="ignore"):
        row = np.exp(log_weight_A(w, t, k, k * t))
    row.setflags(write=False)
    return row


@functools.lru_cache(maxsize=16)
def _screening(beta: float, width: int) -> np.ndarray:
    """Screened Poisson denominators beta + k^2 of a width-mode slice,
    read-only; the mean slot holds 1 (its potential is gauged to 0)."""
    k = (np.arange(width) - width // 2).astype(float)
    denom = np.where(k == 0.0, 1.0, beta + k ** 2)
    denom.setflags(write=False)
    return denom


def _root_sum_squares(x: np.ndarray) -> np.ndarray:
    """sqrt(sum(x**2)) over the last axis of a nonnegative 2-d array.

    A row with a nonzero entry whose sum is below n tiny (n the row length,
    tiny the smallest normal double), where squares past the normal range
    could move it, or whose sum overflows to inf with every entry finite, is
    summed again scaled by its maximum; every other row keeps the plain
    sum's bits.
    """
    with np.errstate(over="ignore"):
        out = np.sqrt(np.sum(x * x, axis=-1))
    peak = np.max(x, axis=-1)
    low = out < math.sqrt(x.shape[-1] * _TINY)
    redo = np.where(low, peak > 0.0, np.isinf(out) & np.isfinite(peak))
    scaled = x[redo] / peak[redo, None]
    out[redo] = peak[redo] * np.sqrt(np.sum(scaled * scaled, axis=-1))
    return out


def _weighted_norm(weights: np.ndarray, values: np.ndarray, what: str):
    """Root-sum-square of weights * |values| over the last axis: a float for
    one slice, an array for a stack of slices.

    The caller holds an ``np.errstate`` that ignores overflow and invalid
    operations (an infinite weight times a zero amplitude is nan).  A result
    past the double range raises :class:`BlowUpError` for non-finite values,
    else the :class:`WeightOverflowError` that blames an infinite weight on
    lambda_inf and sigma, or the ``what`` ("slice" or "field") amplitude.
    """
    x = weights * np.abs(values)
    if x.ndim == 1:  # the Picard loop's path: the plain sum as a float
        total = math.sqrt(np.sum(x * x))
        if math.sqrt(x.size * _TINY) <= total < math.inf or not x.any():
            return total
    total = _root_sum_squares(np.atleast_2d(x))
    if np.isfinite(total).all():
        return total if x.ndim > 1 else float(total[0])
    _require_finite(values, "weighted density slice" if what == "slice"
                    else "weighted electric field")
    raise _norm_overflow(what, bool(np.isfinite(weights).all()),
                         float(np.max(np.abs(values))))


def weighted_density_norm(w: GevreyWeight, t: float, values) -> float:
    """Amplitude of one density slice under the time-t Gevrey weight.

    A slice holding non-finite values is refused with :class:`BlowUpError`.
    """
    vals = _mode_slice(values)
    with np.errstate(over="ignore", invalid="ignore"):
        return _weighted_norm(_density_weights(w, t, vals.size), vals, "slice")


def efield_weighted_norms(w: GevreyWeight, potentials: SpectralHistory
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Weighted electric-field norms along the density line, per grid time.

    The weight uses a constant regularity radius, 0.9 of the working radius
    at t = 0, so it stays below the time-dependent one.  A norm past the
    double range raises :class:`WeightOverflowError`, which blames an
    infinite weight on lambda_inf and sigma, and else the field amplitude.
    """
    lam_bar = RADIUS_REDUCTION * lambda_of_t(w, 0.0)
    times = potentials.times
    k = potentials.k_values.astype(float)
    e_hat = -1j * k[None, :] * potentials.values
    br = bracket(k[None, :], k[None, :] * times[:, None])
    log_w = lam_bar * br ** w.gamma + w.sigma * np.log(br)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _weighted_norm(np.exp(log_w), e_hat, "field")
    return times.copy(), norms


@functools.lru_cache(maxsize=16)
def _toeplitz_index(width: int) -> np.ndarray:
    """Slot i - j + K of every entry (i, j) of a width-mode slice's
    truncated-product matrix, or ``width`` (a zero pad) outside -K..K."""
    slot = np.subtract.outer(np.arange(width), np.arange(width)) + width // 2
    index = np.where((slot >= 0) & (slot < width), slot, width)
    index.setflags(write=False)
    return index


@functools.lru_cache(maxsize=16)
def _series_terms(h_coeffs: tuple) -> tuple:
    """How many powers a series needs, which of them it sums, and their
    coefficients.

    The powers run over degrees 2..n, n the degree of the last nonzero
    coefficient; slot j holds degree j + 2.  The summed slots are those
    with a nonzero coefficient (a slice when that is every one).
    """
    degrees = np.flatnonzero(h_coeffs)
    slots = degrees - 2
    coeffs = np.array(h_coeffs)[degrees]
    slots.setflags(write=False)
    coeffs.setflags(write=False)
    count = int(degrees[-1]) - 1
    if slots.size == count:
        slots = slice(None)  # every power is summed: a view, not a copy
    return count, slots, coeffs


def h_of_field(model: ModelConfig, u_hat) -> np.ndarray:
    """Evaluate the coupling series of a potential slice mode by mode.

    The truncated product on -K..K is the Toeplitz matrix T(u) with
    T[i, j] = u[i - j + K] inside -K..K and 0 outside, so each power is
    T(u) times the power one degree lower, and every term lives on the
    slice's own lattice.  Only the powers with a nonzero coefficient enter
    the sum.  The series is the model's own (``model.h_coeffs``).
    """
    u = _mode_slice(u_hat)
    if not model.has_h:
        return np.zeros_like(u)
    count, slots, coeffs = _series_terms(model.h_coeffs)
    # the rows of T(u), conjugated: np.vecdot conjugates its first argument,
    # and unlike a BLAS matrix-vector product it stays on one thread
    rows = np.concatenate((u.conj(), _PAD))[_toeplitz_index(u.size)]
    powers = np.empty((count, u.size), dtype=complex)
    power = u
    for out in powers:
        power = np.vecdot(rows, power, out=out)
    return np.vecdot(coeffs, powers[slots].T)  # real coefficients: no conjugate


def potential_from_density(model: ModelConfig, rho_hat) -> np.ndarray:
    """Screened Poisson potential rho / (beta + k^2) with a silent mean.

    The last axis of ``rho_hat`` runs over -K..K; leading axes (a time axis)
    broadcast.  The potential is fixed up to a constant and the mean gauge
    is zero, so with beta = 0 a nonzero mean density is refused, and a
    non-finite one too.
    """
    rho = np.asarray(rho_hat, dtype=complex)
    mean = _modes(rho) == 0
    if model.beta == 0.0:
        peak = np.max(np.abs(rho[..., mean]), initial=0.0)
        if not peak <= MEAN_MODE_TOL:
            _require_finite(peak, "mean density component")
            raise ConfigError(
                "mean density component makes the beta = 0 potential ill-posed")
    return np.where(mean, 0.0j, rho / _screening(model.beta, rho.shape[-1]))


def electric_from_density(model: ModelConfig, rho_hat) -> FieldSnapshot:
    """Potential and electric field of a density slice.

    The potential is :func:`potential_from_density`; the field is the
    spectral derivative with flipped sign.
    """
    rho = _mode_slice(rho_hat)
    u_hat = potential_from_density(model, rho)
    return FieldSnapshot(u_hat=u_hat, e_hat=-1j * _modes(rho) * u_hat,
                         rho_hat=rho)


def poisson_fixed_point(model: ModelConfig, q_hat, w: GevreyWeight,
                        t: float) -> FieldSnapshot:
    """Resolve density = slice - series(potential) on the lattice -K..K.

    Without a series the balance is linear: the slice is the density, and
    the snapshot reports one iteration.  Otherwise Picard iteration starts
    from the slice itself and reapplies the map until the weighted distance
    between successive iterates drops to ``model.picard_tol``.  The input
    amplitude must clear the smallness gate ``model.eps_ball``, and every
    iterate must stay inside the ball of twice the input amplitude; leaving
    it, or exhausting ``model.picard_max_iters``, aborts rather than
    returning a value outside the contraction regime.

    The slice and every iterate are measured by the one weighted norm of
    :func:`weighted_density_norm`, which raises on a non-finite result.
    """
    q = _mode_slice(q_hat)
    if not model.has_h:
        return dataclasses.replace(electric_from_density(model, q), iters=1)
    weights = _density_weights(w, t, q.size)
    eps = weighted_density_norm(w, t, q)
    if eps > model.eps_ball:
        raise NoContractionError(
            f"weighted slice amplitude {eps:.3e} exceeds the smallness gate "
            f"{model.eps_ball:.3e}; the perturbative regime does not apply")
    ball = 2.0 * eps
    denom = _screening(model.beta, q.size)  # beta > 0 whenever there is a series
    mean = q.size // 2
    rho = q
    ratios: list[float] = []
    prev_dist = None
    with np.errstate(over="ignore", invalid="ignore"):
        for itn in range(1, model.picard_max_iters + 1):
            u_hat = rho / denom
            u_hat[mean] = 0.0
            nxt = q - h_of_field(model, u_hat)
            dist = _weighted_norm(weights, nxt - rho, "slice")
            if prev_dist is not None and prev_dist > 0.0:
                ratios.append(dist / prev_dist)
            prev_dist = dist
            rho = nxt
            if _weighted_norm(weights, rho, "slice") > ball and eps > 0.0:
                raise NoContractionError(
                    f"iterate left the contraction ball of radius {ball:.3e} "
                    f"after {itn} steps")
            if dist <= model.picard_tol:
                return dataclasses.replace(electric_from_density(model, rho),
                                           residual=dist, iters=itn,
                                           ratios=tuple(ratios))
    raise NoContractionError(
        f"no convergence to {model.picard_tol:.1e} within "
        f"{model.picard_max_iters} iterations; last step moved {prev_dist:.3e}")
