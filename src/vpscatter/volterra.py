"""Backward-in-time Volterra solves for the screened density response.

Mode by mode, the density at time t plus a lag-weighted integral of the
density over [t, T] equals the source.  Two independent routes produce the
history:

* :func:`solve_direct_backward` discretizes the integral with a
  corner-corrected trapezoid rule and runs backward substitution on the
  resulting upper-triangular Toeplitz system.
* :func:`solve_resolvent` convolves the source with a resolvent kernel
  table, either the exact lag-domain inverse built by
  :func:`build_discrete_resolvent` or a contour-synthesized table from
  :mod:`vpscatter.dispersion`.

Agreement between the routes is the primary correctness oracle;
:func:`resolvent_identity_residual` states it at the operator level.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

import numpy as np

from .dispersion import absolute_first_moment
from .errors import ConfigError, RealityError, StepSizeError
from .gevrey import GevreyWeight, norm_N2
from .model import Equilibrium, ModelConfig

__all__ = [
    "SpectralHistory",
    "SourceHistory",
    "DensityHistory",
    "DiscreteResolvent",
    "NormTransferReport",
    "lagged_kernel",
    "corrected_diagonal",
    "solve_direct_backward",
    "build_discrete_resolvent",
    "solve_resolvent",
    "resolvent_identity_residual",
    "horizon_tail_estimate",
    "estimate_density_norm_transfer",
]

REALITY_TOL = 1e-12
# |diagonal| floor below which the triangular solve is meaningless
DIAGONAL_FLOOR = 1e-8
MEAN_MODE_TOL = 1e-10


def _frozen_array(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralHistory:
    """Mode-resolved complex samples on a uniform time grid.

    ``values[i, j]`` is the coefficient of mode ``k_values[j]`` at
    ``times[i]``.  The grid must be strictly increasing and uniform; the
    stored arrays are write-protected copies.
    """

    times: np.ndarray
    k_values: np.ndarray
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
        k_raw = np.asarray(self.k_values)
        k_values = np.asarray(np.rint(k_raw), dtype=int)
        if k_raw.ndim != 1 or np.max(np.abs(k_raw - k_values), initial=0.0) > 0:
            raise ConfigError("mode labels must be a 1-d integer array")
        if np.unique(k_values).size != k_values.size:
            raise ConfigError("mode labels must be distinct")
        values = np.asarray(self.values)
        if values.shape != (times.size, k_values.size):
            raise ConfigError(
                f"values must have shape {(times.size, k_values.size)}, "
                f"got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ConfigError("history values must be finite")
        object.__setattr__(self, "times", _frozen_array(times, float))
        object.__setattr__(self, "k_values", _frozen_array(k_values, int))
        object.__setattr__(self, "values", _frozen_array(values, complex))

    @property
    def delta_t(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_times(self) -> int:
        return int(self.times.size)

    @property
    def n_modes(self) -> int:
        return int(self.k_values.size)

    def index_of(self, k: int) -> int:
        hits = np.nonzero(self.k_values == k)[0]
        if hits.size == 0:
            raise ConfigError(f"mode k={k} is not on the lattice")
        return int(hits[0])

    def mode(self, k: int) -> np.ndarray:
        return self.values[:, self.index_of(k)]

    def reality_defect(self) -> float:
        """Largest deviation from value(-k) = conj(value(k)) over the grid."""
        worst = 0.0
        for j, k in enumerate(self.k_values):
            if k < 0 or -k not in self.k_values:
                continue
            gap = self.values[:, self.index_of(-int(k))] - np.conj(self.values[:, j])
            worst = max(worst, float(np.max(np.abs(gap))))
        return worst


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
        object.__setattr__(self, "times", _frozen_array(self.times, float))
        object.__setattr__(self, "values", _frozen_array(self.values, complex))


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
    if n_steps >= 1:
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
    result = DensityHistory(source.times, source.k_values, values,
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


def _validate_table(table, k: int, dt: float, n: int) -> np.ndarray:
    times = np.asarray(table.times, dtype=float)
    kernel = np.asarray(table.values, dtype=complex)
    if times.size < n or kernel.size != times.size:
        raise ConfigError(
            f"resolvent table for k={k} covers {times.size} lags, need {n}")
    if abs(times[0]) > 1e-12 or np.max(np.abs(np.diff(times[:n]) - dt)) > 1e-9 * dt:
        raise ConfigError(
            f"resolvent table for k={k} is not on the source lag grid")
    return kernel[:n]


def _apply_reconstruction(kernel: np.ndarray, diag, dt: float,
                          rhs: np.ndarray) -> np.ndarray:
    """One-mode reconstruction: source plus lag convolution over [t, T]."""
    n = rhs.size
    out = np.zeros(n, dtype=complex)
    if diag is not None:
        # exact-inverse weights: matched diagonal, no endpoint halving
        for i in range(n - 1):
            out[i] = rhs[i] / diag + dt * np.sum(kernel[1:n - i] * rhs[i + 1:])
        out[n - 1] = rhs[n - 1] / diag
    else:
        # continuum kernel samples: plain trapezoid on the remaining window
        for i in range(n - 1):
            seg = kernel[:n - i] * rhs[i:]
            out[i] = rhs[i] + dt * (np.sum(seg) - 0.5 * (seg[0] + seg[-1]))
        out[n - 1] = rhs[n - 1]
    return out


def solve_resolvent(model: ModelConfig, eq: Equilibrium, source: SourceHistory,
                    tables: Mapping[int, object]) -> DensityHistory:
    """Reconstruct the density as source plus resolvent convolution.

    ``tables`` maps every nonzero lattice mode to a kernel table carrying
    ``times`` and ``values`` on the source lag grid.  Tables from
    :func:`build_discrete_resolvent` reproduce the triangular solve to
    roundoff; contour tables from :mod:`vpscatter.dispersion` agree to
    quadrature order.
    """
    dt = source.delta_t
    n = source.n_times
    values = np.zeros_like(source.values)
    for j, k in enumerate(source.k_values):
        rhs = source.values[:, j]
        if k == 0:
            values[:, j] = _mean_mode_column(model, rhs)
            continue
        table = tables.get(int(k))
        if table is None:
            raise ConfigError(f"no resolvent table for active mode k={k}")
        kernel = _validate_table(table, int(k), dt, n)
        diag = getattr(table, "diagonal", None)
        if diag is not None:
            diag = _check_diagonal(diag)
        values[:, j] = _apply_reconstruction(kernel, diag, dt, rhs)
    result = DensityHistory(source.times, source.k_values, values,
                            tail_estimate=horizon_tail_estimate(model, eq, source))
    _check_reality(source, result)
    return result


def resolvent_identity_residual(model: ModelConfig, eq: Equilibrium, k: int,
                                delta_t: float, n_steps: int,
                                table=None) -> float:
    """Max-abs entry of (direct operator) (reconstruction operator) - I.

    With the default lag-recursion table this is pure roundoff; with a
    contour table it measures the quadrature gap between the two routes.
    """
    if table is None:
        table = build_discrete_resolvent(model, eq, k, delta_t, n_steps)
    n = n_steps + 1
    diag, entries = _operator_entries(model, eq, k, delta_t, n_steps)
    lag = np.arange(n)[None, :] - np.arange(n)[:, None]
    direct = np.where(lag > 0, entries[np.clip(lag, 0, n_steps)], 0.0)
    direct[np.diag_indices(n)] = diag
    kernel = _validate_table(table, k, delta_t, n)
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


def horizon_tail_estimate(model: ModelConfig, eq: Equilibrium,
                          source: SourceHistory) -> float:
    """Bound on the kernel mass cut off at the horizon.

    The truncated equation drops the lag integral beyond T.  With the source
    decaying past T and the reconstruction bounded, twice the terminal source
    magnitude times the full kernel mass P(k)/k^2 int u |mu_hat(u)| du is the
    working envelope; the worst mode is reported.
    """
    moment = absolute_first_moment(eq)
    last = source.values[-1, :]
    worst = 0.0
    for j, k in enumerate(source.k_values):
        if k == 0:
            continue
        bound = 2.0 * abs(last[j]) * model.poisson_prefactor(int(k)) * moment / k**2
        worst = max(worst, float(bound))
    return worst


@dataclasses.dataclass(frozen=True)
class NormTransferReport:
    """Weighted space-time norms of a solve and their stability ratio."""

    n2_density: float
    n2_source: float

    @property
    def ratio(self) -> float:
        if self.n2_source == 0.0:
            return 1.0
        return self.n2_density / self.n2_source


def estimate_density_norm_transfer(source: SourceHistory,
                                   density: DensityHistory,
                                   w: GevreyWeight) -> NormTransferReport:
    """Weighted norm of the output density against that of the input source.

    The ratio is a runtime diagnostic of the solve's stability constant; it
    stays grid-stable for stable equilibria and grows as the stability margin
    shrinks.  A silent source reports ratio 1 by convention.
    """
    if (source.n_times != density.n_times
            or not np.array_equal(source.k_values, density.k_values)
            or abs(source.delta_t - density.delta_t) > 1e-12 * source.delta_t):
        raise ConfigError("source and density must share grid and lattice")
    return NormTransferReport(n2_density=norm_N2(density, w),
                              n2_source=norm_N2(source, w))
