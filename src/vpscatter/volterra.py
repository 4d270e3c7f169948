"""Backward-in-time Volterra solves for the screened density response.

Mode by mode, the density at time t plus a lag-weighted integral of the
density over [t, T] equals the source.  Two independent routes produce the
history:

* :func:`solve_direct_backward` discretizes the integral with a
  corner-corrected trapezoid rule and runs backward substitution on the
  resulting upper-triangular Toeplitz system.
* :func:`solve_resolvent` convolves the source with the exact lag-domain
  inverse built by :func:`build_discrete_resolvent`.

Agreement between the routes to roundoff is the primary correctness oracle.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

import numpy as np

from .dispersion import absolute_first_moment
from .errors import BlowUpError, ConfigError, RealityError, StepSizeError
from .model import Equilibrium, ModelConfig

__all__ = [
    "SpectralHistory",
    "SourceHistory",
    "DensityHistory",
    "DiscreteResolvent",
    "lagged_kernel",
    "corrected_diagonal",
    "solve_direct_backward",
    "build_discrete_resolvent",
    "solve_resolvent",
    "horizon_tail_estimate",
]

REALITY_TOL = 1e-12
# |diagonal| floor below which the triangular solve is meaningless
DIAGONAL_FLOOR = 1e-8
MEAN_MODE_TOL = 1e-10


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralHistory:
    """Mode-resolved complex samples on a uniform time grid.

    ``values[i, j]`` is the coefficient of mode j - K at ``times[i]``: the
    last axis has odd width 2K + 1 and holds the modes -K..K in increasing
    order.  The grid must be strictly increasing and uniform; the stored
    arrays are write-protected copies.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ConfigError("need a 1-d time grid with at least two samples")
        steps = np.diff(times)
        if steps.min() <= 0.0:
            raise ConfigError("time grid must increase strictly")
        if steps.max() - steps.min() > 1e-9 * steps.mean():
            raise ConfigError("time grid must be uniform")
        values = np.asarray(self.values)
        if values.ndim != 2 or values.shape[0] != times.size \
                or values.shape[1] % 2 == 0:
            raise ConfigError(
                f"values must have shape ({times.size}, 2K + 1), "
                f"got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ConfigError("history values must be finite")
        object.__setattr__(self, "times", _frozen(times, float))
        object.__setattr__(self, "values", _frozen(values, complex))

    @property
    def delta_t(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_times(self) -> int:
        return int(self.times.size)

    @property
    def n_modes(self) -> int:
        return int(self.values.shape[1])

    @property
    def k_values(self) -> np.ndarray:
        """The mode labels -K..K of the slots, derived from the width."""
        return _frozen(np.arange(self.n_modes) - self.n_modes // 2, int)

    def index_of(self, k: int) -> int:
        half = self.n_modes // 2
        if abs(k) > half:
            raise ConfigError(f"mode k={k} is not on the lattice")
        return int(k) + half

    def mode(self, k: int) -> np.ndarray:
        return self.values[:, self.index_of(k)]

    def reality_defect(self) -> float:
        """Largest deviation from value(-k) = conj(value(k)) over the grid."""
        return float(np.max(np.abs(self.values[:, ::-1] - np.conj(self.values))))


@dataclasses.dataclass(frozen=True, eq=False)
class SourceHistory(SpectralHistory):
    pass


@dataclasses.dataclass(frozen=True, eq=False)
class DensityHistory(SpectralHistory):
    """Solved density history plus the certified horizon-cut bound."""

    tail_estimate: float = 0.0


@dataclasses.dataclass(frozen=True, eq=False)
class DiscreteResolvent:
    """Exact lag-domain inverse of the discretized backward operator.

    ``values[m]`` is the resolvent weight at lag ``times[m]``; together with
    ``diagonal`` it reproduces the direct triangular solve to roundoff.  The
    weights approach the continuum resolvent kernel at the nodes to first
    order in the step (the two quadrature conventions differ at the moving
    endpoint).
    """

    k: int
    times: np.ndarray
    values: np.ndarray
    diagonal: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", _frozen(self.times, float))
        object.__setattr__(self, "values", _frozen(self.values, complex))


def lagged_kernel(model: ModelConfig, eq: Equilibrium, k: int,
                  delta_t: float, n_steps: int) -> np.ndarray:
    """Convolution weights P(k) u mu_hat(-k u) at lags u = m delta_t.

    Entry 0 vanishes identically; the coupling prefactor is folded in so the
    samples are exactly what the triangular system and the resolvent
    recursion consume.
    """
    if k == 0:
        raise ConfigError("the mean mode carries no kernel; k must be nonzero")
    if delta_t <= 0.0 or n_steps < 1:
        raise ConfigError("need delta_t > 0 and at least one lag step")
    lags = delta_t * np.arange(n_steps + 1)
    vals = np.asarray(eq.mu_hat(-k * lags), dtype=complex)
    return model.poisson_prefactor(k) * lags * vals


def _corner_moments(eq: Equilibrium, k: int) -> tuple[complex, complex, complex]:
    """Zero-lag value and first two lag derivatives of mu_hat(-k u)."""
    m0 = complex(eq.deriv(0.0, 0))
    m1 = -k * complex(eq.deriv(0.0, 1))
    m2 = k * k * complex(eq.deriv(0.0, 2))
    return m0, m1, m2


def corrected_diagonal(model: ModelConfig, eq: Equilibrium, k: int,
                       delta_t: float) -> complex:
    """Unit diagonal plus the trapezoid corner defect, through fourth order.

    The integrand vanishes at zero lag but its slope does not; folding the
    truncated Euler-Maclaurin endpoint series into the diagonal (and, via
    :func:`_operator_entries`, into the first three off-diagonals) keeps the
    solve well beyond second order for decaying sources.
    """
    pref = model.poisson_prefactor(k)
    m0, m1, m2 = _corner_moments(eq, k)
    corner2 = pref * delta_t**2 * m0 / 12.0
    corner4 = -pref * (2.0 * m0 * delta_t**2 - 3.0 * m1 * delta_t**3
                       + m2 * delta_t**4) / 240.0
    return 1.0 + corner2 + corner4


def _operator_entries(model: ModelConfig, eq: Equilibrium, k: int,
                      delta_t: float, n_steps: int) -> tuple[complex, np.ndarray]:
    """Diagonal and strict-upper Toeplitz entries of the direct operator.

    Row i of the system reads diag * x_i + sum_m entries[m] * x_{i+m} = rhs_i
    with the state zero-extended past the horizon.  entries[m] combines the
    trapezoid weight delta_t * kernel(m delta_t) with the forward-stencil
    share of the fourth-order corner correction (lags 1..3 only).
    """
    diag = _check_diagonal(corrected_diagonal(model, eq, k, delta_t))
    ell = lagged_kernel(model, eq, k, delta_t, n_steps)
    entries = delta_t * ell
    pref = model.poisson_prefactor(k)
    m0, m1, m2 = _corner_moments(eq, k)
    # d^3/du^3 of u rho(t+u) mu_hat(-ku) at u=0 is 3(rho'' m0 + 2 rho' m1
    # + rho m2); rho' and rho'' use one-sided second-order stencils so the
    # system stays upper-triangular Toeplitz
    scale = -pref * delta_t**2 / 240.0
    entries[1] += scale * (-5.0 * m0 + 4.0 * m1 * delta_t)
    if n_steps >= 2:
        entries[2] += scale * (4.0 * m0 - m1 * delta_t)
    if n_steps >= 3:
        entries[3] += scale * (-m0)
    return diag, entries


def _mean_mode_column(model: ModelConfig, column: np.ndarray) -> np.ndarray:
    # beta > 0: coupling prefactor vanishes at k=0, density equals source.
    # beta = 0: potential undefined at k=0, mean-zero data required.
    if model.beta > 0.0:
        return column.copy()
    if float(np.max(np.abs(column))) > MEAN_MODE_TOL:
        raise ConfigError(
            "k=0 source must vanish when beta = 0 (mean-zero data)")
    return np.zeros_like(column)


def _check_diagonal(diag: complex) -> complex:
    if abs(diag) < DIAGONAL_FLOOR:
        raise StepSizeError(
            f"corrected diagonal magnitude {abs(diag):.3e} is below "
            f"{DIAGONAL_FLOOR:.0e}; reduce the time step")
    return diag


def _check_reality(source: SpectralHistory, result: SpectralHistory) -> None:
    if source.reality_defect() > REALITY_TOL:
        return
    defect = result.reality_defect()
    if defect > REALITY_TOL:
        raise RealityError(
            f"solve broke reality symmetry: defect {defect:.3e}")


def solve_direct_backward(model: ModelConfig, eq: Equilibrium,
                          source: SourceHistory) -> DensityHistory:
    """Solve the backward equation by triangular substitution.

    Per nonzero mode the discretized system is upper-triangular Toeplitz:
    diagonal from :func:`corrected_diagonal`, off-diagonals delta_t times the
    lagged kernel.  The last row holds the plain source value up to the
    second-order diagonal correction, and earlier rows are recovered walking
    backward.  Sums run in a fixed order so results do not depend on thread
    count.
    """
    dt = source.delta_t
    n = source.n_times
    values = np.zeros_like(source.values)
    for j, k in enumerate(source.k_values):
        rhs = source.values[:, j]
        if k == 0:
            values[:, j] = _mean_mode_column(model, rhs)
            continue
        diag, entries = _operator_entries(model, eq, int(k), dt, n - 1)
        out = np.zeros(n, dtype=complex)
        out[n - 1] = rhs[n - 1] / diag
        for i in range(n - 2, -1, -1):
            tail = np.sum(entries[1:n - i] * out[i + 1:])
            out[i] = (rhs[i] - tail) / diag
        values[:, j] = out
    result = DensityHistory(source.times, values,
                            tail_estimate=horizon_tail_estimate(model, eq, source))
    _check_reality(source, result)
    return result


def build_discrete_resolvent(model: ModelConfig, eq: Equilibrium, k: int,
                             delta_t: float, n_steps: int) -> DiscreteResolvent:
    """Resolvent weights by the lag recursion, independent of any source.

    Requiring the product of the direct operator and the reconstruction
    operator to be the identity fixes every weight in closed form: each new
    lag depends only on the kernel and on shorter lags.
    """
    diag, entries = _operator_entries(model, eq, k, delta_t, n_steps)
    r = np.zeros(n_steps + 1, dtype=complex)
    for m in range(1, n_steps + 1):
        acc = np.sum(entries[1:m] * r[m - 1:0:-1]) if m > 1 else 0.0
        r[m] = -(entries[m] / diag + acc) / diag
    return DiscreteResolvent(k=int(k), times=delta_t * np.arange(n_steps + 1),
                             values=r / delta_t, diagonal=diag)


def _validate_table(table: DiscreteResolvent, k: int, dt: float,
                    n: int) -> np.ndarray:
    times = table.times
    if times.size < n:
        raise ConfigError(
            f"resolvent table for k={k} covers {times.size} lags, need {n}")
    if abs(times[0]) > 1e-12 or np.max(np.abs(np.diff(times[:n]) - dt)) > 1e-9 * dt:
        raise ConfigError(
            f"resolvent table for k={k} is not on the source lag grid")
    return table.values[:n]


def solve_resolvent(model: ModelConfig, eq: Equilibrium, source: SourceHistory,
                    tables: Mapping[int, DiscreteResolvent]) -> DensityHistory:
    """Reconstruct the density as source plus resolvent convolution.

    ``tables`` maps every nonzero lattice mode to its
    :func:`build_discrete_resolvent` table on the source lag grid; with the
    matched diagonal and no endpoint halving, the reconstruction reproduces
    the triangular solve to roundoff.  A reconstruction that leaves the
    double range raises :class:`BlowUpError`.
    """
    dt = source.delta_t
    n = source.n_times
    values = np.zeros_like(source.values)
    # overflow shows up as inf and is refused below, before the history
    with np.errstate(over="ignore", invalid="ignore"):
        for j, k in enumerate(source.k_values):
            rhs = source.values[:, j]
            if k == 0:
                values[:, j] = _mean_mode_column(model, rhs)
                continue
            table = tables.get(int(k))
            if table is None:
                raise ConfigError(f"no resolvent table for active mode k={k}")
            kernel = _validate_table(table, int(k), dt, n)
            diag = _check_diagonal(table.diagonal)
            out = values[:, j]
            for i in range(n - 1):
                out[i] = rhs[i] / diag + dt * np.sum(kernel[1:n - i] * rhs[i + 1:])
            out[n - 1] = rhs[n - 1] / diag
        tail = horizon_tail_estimate(model, eq, source)
    if not np.isfinite(values).all():
        raise BlowUpError("the density reconstruction left the double range; "
                          "shrink the datum amplitude")
    result = DensityHistory(source.times, values, tail_estimate=tail)
    _check_reality(source, result)
    return result


def horizon_tail_estimate(model: ModelConfig, eq: Equilibrium,
                          source: SourceHistory) -> float:
    """Bound on the kernel mass cut off at the horizon.

    The truncated equation drops the lag integral beyond T.  With the source
    decaying past T and the reconstruction bounded, twice the terminal source
    magnitude times the full kernel mass P(k)/k^2 int u |mu_hat(u)| du is the
    working envelope; the worst mode is reported.
    """
    moment = absolute_first_moment(eq)
    k = source.k_values
    on = k != 0
    bounds = (2.0 * np.abs(source.values[-1, on])
              * model.poisson_prefactor(k[on]) * moment / k[on]**2)
    return float(np.max(bounds, initial=0.0))
