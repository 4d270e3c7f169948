"""Nonlinear elliptic coupling between density and potential on the k-lattice.

The density equals a prescribed slice minus the coupling series applied to
the screened potential.  :func:`poisson_fixed_point` resolves that balance by
Picard iteration inside a weighted amplitude ball, :func:`h_of_field`
evaluates the series by repeated truncated coefficient products,
:func:`potential_from_density` is the screened Poisson division every layer
uses, and :func:`electric_from_density` adds the electric field.

Slot position is the mode label: a slice of odd width 2K + 1 (or the last
axis of an array of slices) holds the modes -K..K in increasing order, so
slot j is mode j - K.  Every function here refuses a slice of even width.
How the balance is solved is set by the model; :class:`FieldSnapshot` is a
plain record of the result.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConfigError, NoContractionError, WeightOverflowError
from .gevrey import GevreyWeight, log_weight_A
from .model import ModelConfig

__all__ = [
    "FieldSnapshot",
    "weighted_density_norm",
    "h_of_field",
    "potential_from_density",
    "electric_from_density",
    "poisson_fixed_point",
]

MEAN_MODE_TOL = 1e-10


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


def _density_weights(w: GevreyWeight, t: float, values) -> np.ndarray:
    """Time-t Gevrey weight of every mode of a slice along eta = k t."""
    k = _modes(values).astype(float)
    return np.exp(log_weight_A(w, t, k, k * t))


def _root_sum_squares(x: np.ndarray) -> np.ndarray:
    """sqrt(sum(x**2)) over the last axis of a nonnegative 2-d array.

    A row whose squares underflow to 0 despite a nonzero entry, or overflow
    to inf with every entry finite, is summed again scaled by its maximum;
    every other row keeps the plain sum's bits.
    """
    with np.errstate(over="ignore"):
        out = np.sqrt(np.sum(x * x, axis=-1))
    peak = np.max(x, axis=-1)
    redo = np.where(out == 0.0, peak > 0.0, np.isinf(out) & np.isfinite(peak))
    scaled = x[redo] / peak[redo, None]
    out[redo] = peak[redo] * np.sqrt(np.sum(scaled * scaled, axis=-1))
    return out


def weighted_density_norm(w: GevreyWeight, t: float, values, *,
                          weights=None) -> float:
    """Amplitude of one density slice under the time-t Gevrey weight.

    ``weights`` is the weight row of ``w`` at ``t``; a caller measuring
    several slices at one time passes it to compute it once.
    """
    vals = _mode_slice(values)
    if weights is None:
        weights = _density_weights(w, t, vals)
    if vals.shape != weights.shape:
        raise ConfigError("values must match the weight row shape")
    # the plain sum first: the Picard loop measures every iterate
    with np.errstate(over="ignore", invalid="ignore"):  # inf weight * 0 is nan
        x = weights * np.abs(vals)
        total = float(np.sqrt(np.sum(x * x)))
    if not 0.0 < total < math.inf:
        total = float(_root_sum_squares(x[None])[0])
    if math.isfinite(total):
        return total
    if not np.isfinite(weights).all():
        raise WeightOverflowError(
            "weighted slice norm overflowed; reduce lambda_inf or sigma")
    raise WeightOverflowError(
        f"weighted slice norm overflowed: the slice amplitude {np.max(np.abs(vals)):.3e} "
        "times its finite weight leaves the double range; shrink the datum amplitude")


def h_of_field(model: ModelConfig, u_hat) -> np.ndarray:
    """Evaluate the coupling series of a potential slice mode by mode.

    Powers of the slice are built by the truncated coefficient product on
    -K..K, so every term lives on the slice's own lattice.
    The series is the model's own (``model.h_coeffs``).
    """
    u = _mode_slice(u_hat)
    out = np.zeros_like(u)
    if not model.has_h:
        return out
    half = u.size // 2
    power = u
    for coeff in model.h_coeffs[2:]:
        power = np.convolve(power, u)[half:half + u.size]
        if coeff != 0.0:
            out = out + coeff * power
    return out


def potential_from_density(model: ModelConfig, rho_hat) -> np.ndarray:
    """Screened Poisson potential rho / (beta + k^2) with a silent mean.

    The last axis of ``rho_hat`` runs over -K..K; leading axes (a time axis)
    broadcast.  The potential is fixed up to a constant and the mean gauge
    is zero, so with beta = 0 a nonzero mean density is refused.
    """
    rho = np.asarray(rho_hat, dtype=complex)
    k = _modes(rho)
    mean = k == 0
    if model.beta == 0.0 and np.max(np.abs(rho[..., mean]),
                                    initial=0.0) > MEAN_MODE_TOL:
        raise ConfigError(
            "mean density component makes the beta = 0 potential ill-posed")
    denom = np.where(mean, 1.0, model.beta + k.astype(float) ** 2)
    return np.where(mean, 0.0j, rho / denom)


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
    """
    q = _mode_slice(q_hat)
    if not model.has_h:
        return dataclasses.replace(electric_from_density(model, q), iters=1)
    weights = _density_weights(w, t, q)
    eps = weighted_density_norm(w, t, q, weights=weights)
    if eps > model.eps_ball:
        raise NoContractionError(
            f"weighted slice amplitude {eps:.3e} exceeds the smallness gate "
            f"{model.eps_ball:.3e}; the perturbative regime does not apply")
    ball = 2.0 * eps
    rho = q.copy()
    ratios: list[float] = []
    prev_dist = None
    for itn in range(1, model.picard_max_iters + 1):
        u_hat = potential_from_density(model, rho)
        nxt = q - h_of_field(model, u_hat)
        dist = weighted_density_norm(w, t, nxt - rho, weights=weights)
        if prev_dist is not None and prev_dist > 0.0:
            ratios.append(dist / prev_dist)
        prev_dist = dist
        rho = nxt
        if weighted_density_norm(w, t, rho, weights=weights) > ball and eps > 0.0:
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
