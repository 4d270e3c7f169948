"""Phase-space spectral states and their transport dynamics.

The distribution perturbation is stored as Fourier coefficients on an
integer spatial lattice crossed with a uniform velocity-frequency grid.
In these variables free transport is the identity, the coupling terms
shear the velocity axis, and the density of one slice is read off along
the line eta = k t.  :func:`integrate` advances a state with classical
four-stage Runge-Kutta in either time direction; the electric field at
stage times comes from a pluggable provider so the same integrator runs
prescribed-field, linearized, and self-consistent flows.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import lapack

from .errors import BlowUpError, ConfigError
from .field import FieldSnapshot, electric_from_density, h_of_field, poisson_fixed_point
from .gevrey import GevreyWeight
from .model import Equilibrium, ModelConfig
from .volterra import DensityHistory, SourceHistory, SpectralHistory

__all__ = [
    "PhaseGrid",
    "TimeGrid",
    "TruncationCounter",
    "SpectralState",
    "AsymptoticDatum",
    "gaussian_datum",
    "IntegrationResult",
    "StateInterpolant",
    "HistoryFieldProvider",
    "SelfConsistentFieldProvider",
    "zero_field_provider",
    "density_trace",
    "assemble_source",
    "assemble_source_history",
    "transport_rhs",
    "integrate",
]

# relative slack when deciding whether a query sits on the frequency grid edge
EDGE_SLACK = 1e-12
GRID_TOL = 1e-9

FieldProvider = Callable[["SpectralState"], tuple[FieldSnapshot, FieldSnapshot]]


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclasses.dataclass(frozen=True)
class PhaseGrid:
    """Symmetric mode lattice |k| <= k_max times uniform frequencies |eta| <= eta_max."""

    k_max: int
    eta_max: float
    delta_eta: float

    def __post_init__(self) -> None:
        if int(self.k_max) != self.k_max or self.k_max < 1:
            raise ConfigError("k_max must be a positive integer")
        if self.delta_eta <= 0 or self.eta_max <= 0:
            raise ConfigError("eta_max and delta_eta must be positive")
        n_half = int(round(self.eta_max / self.delta_eta))
        if n_half < 2 or abs(n_half * self.delta_eta - self.eta_max) > GRID_TOL:
            raise ConfigError("delta_eta must divide eta_max evenly")
        object.__setattr__(self, "k_max", int(self.k_max))
        k = np.arange(-self.k_max, self.k_max + 1)
        eta = (np.arange(2 * n_half + 1) - n_half) * self.delta_eta
        object.__setattr__(self, "k_values", _frozen(k, int))
        object.__setattr__(self, "eta", _frozen(eta, float))

    @property
    def n_modes(self) -> int:
        return 2 * self.k_max + 1

    @property
    def n_eta(self) -> int:
        return self.eta.size

    @property
    def origin(self) -> tuple[int, int]:
        """Index pair of the (k, eta) = (0, 0) mass mode."""
        return self.k_max, self.eta.size // 2

    def index_of(self, k: int) -> int:
        if abs(k) > self.k_max:
            raise ConfigError(f"mode k={k} is not on the lattice")
        return int(k) + self.k_max

    def validate_horizon(self, t_final: float, profile_width: float) -> None:
        """The density trace walks out to eta = k t; refuse grids it would leave."""
        need = self.k_max * t_final + 6.0 * profile_width
        if self.eta_max < need:
            raise ConfigError(
                f"eta_max={self.eta_max:g} cannot hold the density trace out to "
                f"t={t_final:g}; need at least k_max*t_final + 6*width = {need:g}")


@dataclasses.dataclass(frozen=True)
class TimeGrid:
    """Uniform steps on [0, t_final]."""

    t_final: float
    dt: float

    def __post_init__(self) -> None:
        if self.t_final <= 0 or self.dt <= 0:
            raise ConfigError("t_final and dt must be positive")
        n = int(round(self.t_final / self.dt))
        if n < 1 or abs(n * self.dt - self.t_final) > GRID_TOL * max(1.0, self.t_final):
            raise ConfigError("dt must divide t_final evenly")
        object.__setattr__(self, "times", _frozen(
            np.linspace(0.0, self.t_final, n + 1), float))

    @property
    def n_steps(self) -> int:
        return self.times.size - 1


@dataclasses.dataclass
class TruncationCounter:
    """Tally of off-grid frequency lookups resolved by the decay bound."""

    evaluations: int = 0
    truncated: int = 0

    @property
    def fraction(self) -> float:
        return self.truncated / self.evaluations if self.evaluations else 0.0


@dataclasses.dataclass
class SpectralState:
    """One time slice of the transported perturbation, Fourier in both variables."""

    time: float
    grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n_modes, self.grid.n_eta):
            raise ConfigError("values must have shape (n_modes, n_eta)")
        self.values = vals

    @property
    def k_values(self) -> np.ndarray:
        return self.grid.k_values

    @property
    def eta(self) -> np.ndarray:
        return self.grid.eta

    def copy(self) -> "SpectralState":
        return SpectralState(self.time, self.grid, self.values.copy())

    def mass_mode(self) -> complex:
        i, j = self.grid.origin
        return complex(self.values[i, j])

    def reality_defect(self) -> float:
        mirror = np.conj(self.values[::-1, ::-1])
        return float(np.max(np.abs(self.values - mirror)))

    def resymmetrize(self) -> float:
        """Project onto the real-symmetric subspace; returns the defect removed."""
        defect = self.reality_defect()
        self.values = (self.values + np.conj(self.values[::-1, ::-1])) / 2.0
        return defect

    def boundary_magnitude(self) -> float:
        return float(max(np.max(np.abs(self.values[:, 0])),
                         np.max(np.abs(self.values[:, -1]))))


@dataclasses.dataclass(frozen=True)
class AsymptoticDatum:
    """Late-time target profile, given by a closed-form coefficient evaluator.

    ``evaluator(k, eta)`` must broadcast over numpy arguments.  ``width`` is
    the standard deviation of the frequency profile, used when validating
    that a grid can hold the density trace.
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    amplitude: float
    width: float
    mean_zero: bool = True
    label: str = "datum"

    def __post_init__(self) -> None:
        if self.amplitude < 0 or self.width <= 0:
            raise ConfigError("amplitude must be >= 0 and width > 0")
        if self.mean_zero:
            center = complex(np.asarray(
                self.evaluator(np.array(0), np.array(0.0)), dtype=complex))
            if abs(center) > 1e-12:
                raise ConfigError("datum is declared mean-zero but has a "
                                  f"nonzero origin coefficient {center:.3e}")

    def sample(self, grid: PhaseGrid, time: float) -> SpectralState:
        vals = np.asarray(self.evaluator(grid.k_values[:, None],
                                         grid.eta[None, :]), dtype=complex)
        return SpectralState(time=time, grid=grid, values=vals)

    def trace(self, k, t) -> np.ndarray:
        """Coefficients along the density line eta = k t."""
        k = np.asarray(k)
        return np.asarray(self.evaluator(k, k * t), dtype=complex)


def gaussian_datum(modes, width: float = 1.0, label: str = "gaussian") -> AsymptoticDatum:
    """Datum with the given spatial coefficients and a Gaussian frequency profile.

    ``modes`` maps k to its coefficient; the conjugate mode is filled in
    automatically when absent so the datum stays real-valued.
    """
    if width <= 0:
        raise ConfigError("width must be positive")
    table: dict[int, complex] = {}
    for k, a in dict(modes).items():
        k = int(k)
        if k == 0:
            raise ConfigError("mode 0 would break the mean-zero requirement")
        table[k] = complex(a)
        table.setdefault(-k, complex(np.conj(a)))
    if not table:
        raise ConfigError("need at least one nonzero mode")
    ks = np.array(sorted(table), dtype=int)
    coefs = np.array([table[int(k)] for k in ks])
    inv_two_w2 = 1.0 / (2.0 * width * width)

    def evaluator(k, eta):
        k = np.asarray(k)
        eta = np.asarray(eta, dtype=float)
        profile = np.exp(-(eta * eta) * inv_two_w2)
        amp = np.zeros(np.broadcast(k, eta).shape, dtype=complex)
        for k0, a in zip(ks, coefs):
            amp = amp + np.where(k == k0, a, 0.0)
        return amp * profile

    amplitude = float(np.sum(np.abs(coefs)))
    return AsymptoticDatum(evaluator=evaluator, amplitude=amplitude,
                           width=float(width), label=label)


@functools.lru_cache(maxsize=16)
def _not_a_knot_factors(n: int) -> tuple:
    """LU factors of the not-a-knot slope system on n uniform nodes.

    With the spacing h divided out, this is the tridiagonal system scipy's
    ``CubicSpline`` solves for the node slopes s:
    s[i-1] + 4 s[i] + s[i+1] = 3 (m[i-1] + m[i]) inside, with secants
    m[i] = (y[i+1] - y[i]) / h, and the not-a-knot ends
    s[0] + 2 s[1] = (5 m[0] + m[1]) / 2 and its mirror.
    """
    sub = np.ones(n - 1)
    diag = np.full(n, 4.0)
    sup = np.ones(n - 1)
    diag[0] = diag[-1] = 1.0
    sup[0] = sub[-1] = 2.0
    *factors, _ = lapack.dgttrf(sub, diag, sup)
    for f in factors:
        f.setflags(write=False)  # shared by every interpolant on n nodes
    return tuple(factors)


class StateInterpolant:
    """Uniform-grid not-a-knot cubic spline of one state's frequency axis.

    The interpolant is the one scipy's ``CubicSpline`` builds on the same
    nodes and matches it to roundoff; inner nodes come back bit-exact.  The
    slope system is factored once per grid size, so a build is one real
    banded back-substitution over the real and imaginary parts of every
    mode, plus the piecewise-cubic coefficients.

    Queries beyond the grid edge return 0, justified by the decay of stored
    profiles toward the boundary; the counter records how often that bound
    was invoked.
    """

    def __init__(self, state: SpectralState):
        grid = state.grid
        self.grid = grid
        self._edge = grid.eta_max * (1.0 + EDGE_SLACK) + EDGE_SLACK
        # searching the inner nodes gives the interval index already clamped
        # to [0, n_eta - 2], as scipy's side="right" search does
        self._inner = grid.eta[1:-1]
        n = grid.n_eta
        h = grid.delta_eta
        # node-major real view: row i holds (re, im) of every mode at eta_i
        y = np.ascontiguousarray(state.values.T).view(float)
        secant = np.diff(y, axis=0) / h
        rhs = np.empty(y.shape, order="F")
        rhs[1:-1] = 3.0 * (secant[:-1] + secant[1:])
        rhs[0] = 2.5 * secant[0] + 0.5 * secant[1]
        rhs[-1] = 0.5 * secant[-2] + 2.5 * secant[-1]
        s, _ = lapack.dgttrs(*_not_a_knot_factors(n), rhs, overwrite_b=True)
        t = (s[:-1] + s[1:] - 2.0 * secant) / h
        # coefficients of (eta - eta_i)^(3, 2, 1, 0) on interval i, viewed
        # back as complex with shape (power, interval, mode)
        coef = np.empty((4, n - 1, y.shape[1]))
        coef[0] = t / h
        coef[1] = (secant - s[:-1]) / h - t
        coef[2] = s[:-1]
        coef[3] = y[:-1]
        self._coef = coef.view(complex)

    def _locate(self, eta: np.ndarray):
        pts = np.clip(eta, -self.grid.eta_max, self.grid.eta_max)
        idx = np.searchsorted(self._inner, pts, side="right")
        return idx, pts - self.grid.eta[idx]

    @staticmethod
    def _horner(c: np.ndarray, d: np.ndarray) -> np.ndarray:
        out = c[0] * d
        out += c[1]
        out *= d
        out += c[2]
        out *= d
        out += c[3]
        return out

    def all_rows(self, eta, counter: Optional[TruncationCounter] = None) -> np.ndarray:
        """Every mode row evaluated at the same frequency points."""
        eta = np.asarray(eta, dtype=float)
        idx, d = self._locate(eta.ravel())
        out = self._horner(np.take(self._coef, idx, axis=1), d[:, None])
        out = out.T.reshape((-1,) + eta.shape)
        outside = np.abs(eta) > self._edge
        n_outside = int(np.count_nonzero(outside))
        if counter is not None:
            counter.evaluations += eta.size
            counter.truncated += n_outside
        if n_outside:
            out[:, outside] = 0.0
        return out

    def at_pairs(self, k, eta, counter: Optional[TruncationCounter] = None) -> np.ndarray:
        """Pointwise lookup at (k[i], eta[i]); off-lattice modes read as 0.

        Only the requested mode row is evaluated at each point.
        """
        k, eta = np.broadcast_arrays(np.asarray(k), np.asarray(eta, dtype=float))
        on_lattice = np.abs(k) <= self.grid.k_max
        inside = np.abs(eta) <= self._edge
        sel = on_lattice & inside
        out = np.zeros(k.shape, dtype=complex)
        if np.any(sel):
            idx, d = self._locate(eta[sel])
            flat = idx * self.grid.n_modes + (k[sel] + self.grid.k_max).astype(int)
            coef = self._coef.reshape(4, -1)
            out[sel] = self._horner(np.take(coef, flat, axis=1), d)
        if counter is not None:
            counter.evaluations += k.size
            counter.truncated += int(np.count_nonzero(on_lattice & ~inside))
        return out


def density_trace(state: SpectralState,
                  counter: Optional[TruncationCounter] = None,
                  interpolant: Optional[StateInterpolant] = None) -> np.ndarray:
    """Density-generating slice: coefficients along eta = k t."""
    interp = interpolant if interpolant is not None else StateInterpolant(state)
    k = state.grid.k_values
    return interp.at_pairs(k, k * state.time, counter)


def _uniform_times(states: Sequence[SpectralState]) -> np.ndarray:
    times = np.array([s.time for s in states], dtype=float)
    if times.size < 2:
        raise ConfigError("state history needs at least two time slices")
    steps = np.diff(times)
    if steps[0] <= 0 or np.max(np.abs(steps - steps[0])) > GRID_TOL:
        raise ConfigError("state history must sit on a uniform increasing grid")
    return times


def _check_history_alignment(times: np.ndarray, grid: PhaseGrid,
                             history: SpectralHistory, name: str) -> None:
    if history.values.shape[0] != times.size or np.max(
            np.abs(history.times - times)) > GRID_TOL:
        raise ConfigError(f"{name} history is not on the state time grid")
    if not np.array_equal(history.k_values, grid.k_values):
        raise ConfigError(f"{name} history is not on the state mode lattice")


def _source_integrand_weights(model: ModelConfig, grid: PhaseGrid):
    """Pairs (ell, row shift weights) for the quadratic source correction."""
    k = grid.k_values.astype(float)
    out = []
    for ell in grid.k_values:
        if ell == 0:
            continue
        out.append((int(ell), k * ell / (model.beta + float(ell) ** 2)))
    return out


def assemble_source(model: ModelConfig, states: Sequence[SpectralState],
                    density: DensityHistory, u_hats: SpectralHistory,
                    ginf: AsymptoticDatum, t: float, n_h: Optional[int] = None,
                    counter: Optional[TruncationCounter] = None,
                    interpolants: Optional[Sequence[StateInterpolant]] = None,
                    ) -> np.ndarray:
    """Right-hand side of the backward density equation at one time.

    Combines the datum trace, the coupling series of the current potential,
    and the quadratic history correction: a trapezoid over s >= t of
    (s - t) k l / (beta + l^2) rho_s(l) g_s(k - l, k t - l s), summed over
    transfer modes l != 0 in fixed ascending order.
    """
    grid = states[0].grid
    times = _uniform_times(states)
    _check_history_alignment(times, grid, density, "density")
    _check_history_alignment(times, grid, u_hats, "potential")
    hits = np.nonzero(np.abs(times - t) <= GRID_TOL)[0]
    if hits.size == 0:
        raise ConfigError(f"time {t:g} is not on the history grid")
    i0 = int(hits[0])
    delta_s = float(times[1] - times[0])
    k = grid.k_values
    source = ginf.trace(k, times[i0]).astype(complex)
    u_now = u_hats.values[i0]
    source = source - h_of_field(model, k, u_now, n_h=n_h).values
    if interpolants is None:
        interpolants = [None] * len(states)
    for ell, weight in _source_integrand_weights(model, grid):
        rho_ell = density.mode(ell)
        acc = np.zeros(k.size, dtype=complex)
        for j in range(i0, times.size):
            gap = times[j] - times[i0]
            if gap == 0.0 or rho_ell[j] == 0.0:
                continue
            interp = interpolants[j]
            if interp is None:
                interp = StateInterpolant(states[j])
            g_shift = interp.at_pairs(k - ell, k * times[i0] - ell * times[j],
                                      counter)
            term = gap * weight * rho_ell[j] * g_shift
            acc += term if j < times.size - 1 else 0.5 * term
        source = source - delta_s * acc
    return source


def assemble_source_history(model: ModelConfig, states: Sequence[SpectralState],
                            density: DensityHistory, u_hats: SpectralHistory,
                            ginf: AsymptoticDatum, n_h: Optional[int] = None,
                            counter: Optional[TruncationCounter] = None,
                            ) -> SourceHistory:
    """Backward-equation right-hand side on the whole time grid.

    Same quadrature as :func:`assemble_source` at every grid time, organized
    so each state is splined once and evaluated in one vectorized pass per
    transfer mode.
    """
    grid = states[0].grid
    times = _uniform_times(states)
    _check_history_alignment(times, grid, density, "density")
    _check_history_alignment(times, grid, u_hats, "potential")
    n_t = times.size
    k = grid.k_values
    delta_s = float(times[1] - times[0])
    out = np.zeros((n_t, k.size), dtype=complex)
    for i in range(n_t):
        out[i] = ginf.trace(k, times[i])
        out[i] -= h_of_field(model, k, u_hats.values[i], n_h=n_h).values
    pairs = _source_integrand_weights(model, grid)
    conv = np.zeros((n_t, k.size), dtype=complex)
    for j in range(1, n_t):
        interp = StateInterpolant(states[j])
        edge = 0.5 if j == n_t - 1 else 1.0
        for ell, weight in pairs:
            rho_j = density.mode(ell)[j]
            if rho_j == 0.0:
                continue
            # frequencies k t_i - ell s_j for every earlier slice i at once
            eta_pts = k[None, :] * times[:j, None] - ell * times[j]
            g_shift = interp.at_pairs(np.broadcast_to(k - ell, eta_pts.shape),
                                      eta_pts, counter)
            gaps = (times[j] - times[:j])[:, None]
            conv[:j] += (edge * delta_s * rho_j) * gaps * weight[None, :] * g_shift
    return SourceHistory(times=times, k_values=k, values=out - conv)


def transport_rhs(state: SpectralState, field_linear: FieldSnapshot,
                  field_nonlinear: FieldSnapshot, eq: Equilibrium,
                  counter: Optional[TruncationCounter] = None,
                  interpolant: Optional[StateInterpolant] = None) -> np.ndarray:
    """Time derivative of the transported perturbation under the given fields.

    The linear term feeds the equilibrium profile; the quadratic term shears
    the state itself, with the frequency shift resolved by interpolation.
    The two potentials may differ: the linearized fixed-point map drives the
    equilibrium with the new field and the shear with the previous iterate's.
    """
    grid = state.grid
    for name, snap in (("linear", field_linear), ("nonlinear", field_nonlinear)):
        if not np.array_equal(snap.k_values, grid.k_values):
            raise ConfigError(f"{name} field is not on the state mode lattice")
    t = state.time
    k_col = grid.k_values[:, None].astype(float)
    eta_row = grid.eta[None, :]
    shear = eta_row - k_col * t
    rhs = np.zeros_like(state.values)
    u_lin = field_linear.u_hat
    if np.any(u_lin != 0.0):
        rhs -= shear * k_col * u_lin[:, None] * eq.mu_hat(shear)
    u_nl = field_nonlinear.u_hat
    if np.any(u_nl != 0.0):
        interp = interpolant if interpolant is not None else StateInterpolant(state)
        for ell in grid.k_values:
            coef = u_nl[grid.index_of(ell)]
            if ell == 0 or coef == 0.0:
                continue
            shifted = interp.all_rows(grid.eta - ell * t, counter)
            g_shift = np.zeros_like(state.values)
            lo = max(-grid.k_max, -grid.k_max + ell)
            hi = min(grid.k_max, grid.k_max + ell)
            rows = np.arange(lo, hi + 1) + grid.k_max
            g_shift[rows] = shifted[rows - ell]
            rhs -= shear * (ell * coef) * g_shift
    return rhs


@dataclasses.dataclass(frozen=True)
class IntegrationResult:
    """Trajectory (time-ascending) plus conservation diagnostics."""

    states: tuple
    max_reality_drift: float
    mass_drift: float
    counter: TruncationCounter


class HistoryFieldProvider:
    """Stage fields interpolated in time from precomputed potential histories.

    Uses four-point Lagrange interpolation (exact at grid nodes, falls back
    to linear when the history is shorter than four slices).  Stage values
    must match the history's own accuracy order: a lower-order stage lookup
    caps the whole sweep at that order.
    """

    def __init__(self, model: ModelConfig, u_linear: SpectralHistory,
                 u_nonlinear: SpectralHistory):
        if not np.array_equal(u_linear.times, u_nonlinear.times) or \
                not np.array_equal(u_linear.k_values, u_nonlinear.k_values):
            raise ConfigError("field histories must share one grid")
        self.model = model
        self.u_linear = u_linear
        self.u_nonlinear = u_nonlinear

    def _slice(self, history: SpectralHistory, t: float) -> np.ndarray:
        times = history.times
        if t < times[0] - GRID_TOL or t > times[-1] + GRID_TOL:
            raise ConfigError(f"time {t:g} is outside the field history")
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

    def __call__(self, state: SpectralState) -> tuple[FieldSnapshot, FieldSnapshot]:
        k = state.grid.k_values
        lin = _snapshot_from_potential(self.model, k, self._slice(self.u_linear, state.time))
        if self.u_nonlinear is self.u_linear:
            return lin, lin
        return lin, _snapshot_from_potential(
            self.model, k, self._slice(self.u_nonlinear, state.time))


def _snapshot_from_potential(model: ModelConfig, k_values: np.ndarray,
                             u_hat: np.ndarray) -> FieldSnapshot:
    k = np.asarray(k_values)
    u = np.asarray(u_hat, dtype=complex)
    u = np.where(k == 0, 0.0j, u)
    rho = (model.beta + k.astype(float) ** 2) * u
    return FieldSnapshot(k_values=k, u_hat=u, e_hat=-1j * k * u, rho_hat=rho)


class SelfConsistentFieldProvider:
    """Stage fields from the stage state itself: trace, then elliptic balance."""

    def __init__(self, model: ModelConfig, w: GevreyWeight, tol: float = 1e-12,
                 max_iters: int = 50, eps_ball: Optional[float] = None,
                 n_h: Optional[int] = None,
                 counter: Optional[TruncationCounter] = None):
        self.model = model
        self.w = w
        self.tol = tol
        self.max_iters = max_iters
        self.eps_ball = eps_ball
        self.n_h = n_h
        self.counter = counter

    def __call__(self, state: SpectralState) -> tuple[FieldSnapshot, FieldSnapshot]:
        q = density_trace(state, self.counter)
        if self.model.has_h:
            snap = poisson_fixed_point(self.model, state.grid.k_values, q,
                                       self.w, state.time, tol=self.tol,
                                       max_iters=self.max_iters,
                                       eps_ball=self.eps_ball, n_h=self.n_h)
        else:
            snap = electric_from_density(self.model, state.grid.k_values, q)
        return snap, snap


def zero_field_provider(grid: PhaseGrid) -> FieldProvider:
    """Free transport: both stage fields identically zero."""
    k = grid.k_values
    zero = FieldSnapshot(k_values=k, u_hat=np.zeros(k.size, dtype=complex),
                         e_hat=np.zeros(k.size, dtype=complex),
                         rho_hat=np.zeros(k.size, dtype=complex))

    def provider(state: SpectralState) -> tuple[FieldSnapshot, FieldSnapshot]:
        return zero, zero

    return provider


def integrate(initial: SpectralState, provider: FieldProvider,
              time_grid: TimeGrid, eq: Equilibrium, direction: str = "backward",
              resymmetrize: bool = True, boundary_tol: Optional[float] = None,
              counter: Optional[TruncationCounter] = None) -> IntegrationResult:
    """Four-stage Runge-Kutta sweep over the whole time grid.

    Backward runs start at the final time (the asymptotic samples) and sweep
    to 0; forward runs start at 0.  States are returned in ascending time
    order either way.  Each step is projected back onto the real-symmetric
    subspace and the removed defect is tracked; the origin mode is conserved
    by the dynamics and its end-to-end drift is reported.
    """
    if direction not in ("backward", "forward"):
        raise ConfigError("direction must be 'backward' or 'forward'")
    if counter is None:
        counter = TruncationCounter()
    times = time_grid.times
    backward = direction == "backward"
    start = times[-1] if backward else times[0]
    if abs(initial.time - start) > GRID_TOL * max(1.0, abs(start)):
        raise ConfigError(
            f"{direction} integration must start at t={start:g}, "
            f"got state at t={initial.time:g}")
    order = range(times.size - 2, -1, -1) if backward else range(1, times.size)
    grid = initial.grid
    current = initial.copy()
    out = [current.copy()]
    mass0 = current.mass_mode()
    max_drift = 0.0

    def rhs(t: float, values: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(values)):
            raise BlowUpError(
                f"non-finite stage state near t={t:g}; reduce dt below "
                f"{time_grid.dt:g} or shrink the datum amplitude")
        stage = SpectralState(time=t, grid=grid, values=values)
        lin, nl = provider(stage)
        return transport_rhs(stage, lin, nl, eq, counter)

    for idx in order:
        t0 = current.time
        t1 = float(times[idx])
        h = t1 - t0
        y = current.values
        # overflow shows up as inf and is handled by the blow-up check
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = rhs(t0, y)
            k2 = rhs(t0 + h / 2.0, y + (h / 2.0) * k1)
            k3 = rhs(t0 + h / 2.0, y + (h / 2.0) * k2)
            k4 = rhs(t1, y + h * k3)
            y_next = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y_next)):
            raise BlowUpError(
                f"non-finite state at t={t1:g}; reduce dt below {abs(h):g} "
                "or shrink the datum amplitude")
        current = SpectralState(time=t1, grid=grid, values=y_next)
        if resymmetrize:
            max_drift = max(max_drift, current.resymmetrize())
        out.append(current.copy())
    mass_drift = abs(current.mass_mode() - mass0)
    if boundary_tol is not None:
        worst = max(s.boundary_magnitude() for s in out)
        if worst > boundary_tol:
            warnings.warn(
                f"boundary magnitude {worst:.3e} exceeds {boundary_tol:.3e}; "
                "the frequency grid is too small for this run", RuntimeWarning)
    if backward:
        out.reverse()
    return IntegrationResult(states=tuple(out), max_reality_drift=max_drift,
                             mass_drift=mass_drift, counter=counter)
