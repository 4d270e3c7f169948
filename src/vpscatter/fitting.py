"""Least-squares decay-rate extraction used by diagnostics and acceptance runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["DecayFit", "linear_fit", "peak_decay_fit",
           "stretched_exponential_fit"]


@dataclass(frozen=True)
class DecayFit:
    """Decay model log|y| = log_amplitude - rate * predictor(t)."""

    rate: float
    log_amplitude: float
    r_squared: float


def linear_fit(x, y) -> tuple[float, float, float]:
    """Ordinary least squares y = slope x + intercept, with R^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ConfigError("need at least two points to fit a line")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - np.mean(y)
    ss_tot = float(np.dot(total, total))
    r2 = 1.0 - float(np.dot(resid, resid)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def peak_decay_fit(t, values) -> DecayFit:
    """Exponential fit restricted to local maxima of |values|.

    Oscillatory signals spend most samples near their zero crossings, where
    log-magnitudes carry no envelope information; fitting the peaks recovers
    the envelope rate.
    """
    t = np.asarray(t, dtype=float)
    mag = np.abs(np.asarray(values))
    interior = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] > mag[2:])
    idx = np.flatnonzero(interior) + 1
    if idx.size < 3:
        raise ConfigError("fewer than three envelope peaks in the fit window")
    # a peak exceeds its right neighbour, so its magnitude is positive
    slope, intercept, r2 = linear_fit(t[idx], np.log(mag[idx]))
    return DecayFit(rate=-slope, log_amplitude=intercept, r_squared=r2)


def stretched_exponential_fit(t, values, gamma: float) -> DecayFit:
    """Fit log|values| = log_amplitude - rate * <t>^gamma over nonzero values."""
    mag = np.abs(np.asarray(values))
    keep = mag > 0.0
    tt = np.asarray(t, dtype=float)[keep]
    logs = np.log(mag[keep])
    predictor = np.sqrt(1.0 + tt * tt) ** gamma
    slope, intercept, r2 = linear_fit(predictor, logs)
    return DecayFit(rate=-slope, log_amplitude=intercept, r_squared=r2)
