"""Phase-space spectral states and their transport dynamics.

The distribution perturbation is stored as Fourier coefficients on an
integer spatial lattice crossed with a uniform velocity-frequency grid.
In these variables free transport is the identity, the coupling terms
shear the velocity axis, and the density of one slice is read off along
the line eta = k t.  :func:`integrate` advances a state with classical
four-stage Runge-Kutta in either time direction.  At every stage a pluggable
provider returns two potentials, plain arrays over the mode lattice: one
drives the equilibrium gradient, the other shears the state.  The same
integrator thus runs prescribed-field, linearized, and self-consistent flows.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BlowUpError, ConfigError
from .field import h_of_field, poisson_fixed_point
from .gevrey import GevreyWeight
from .model import Equilibrium, ModelConfig
from .volterra import DensityHistory, SourceHistory, SpectralHistory, _frozen

__all__ = [
    "PhaseGrid",
    "horizon_violation",
    "TimeGrid",
    "SpectralState",
    "AsymptoticDatum",
    "gaussian_datum",
    "IntegrationResult",
    "StateInterpolant",
    "HistoryFieldProvider",
    "SelfConsistentFieldProvider",
    "zero_field_provider",
    "density_trace",
    "assemble_source_history",
    "transport_rhs",
    "integrate",
]

# relative slack when deciding whether a query sits on the frequency grid edge
EDGE_SLACK = 1e-12
GRID_TOL = 1e-9

# offsets of the two nodes of an interval, as a column
_NEXT_NODE = np.array([[0], [1]])

# stage state -> (linear, nonlinear) potentials, each in grid.k_values order
FieldProvider = Callable[["SpectralState"], tuple[np.ndarray, np.ndarray]]


@contextlib.contextmanager
def _size_refusal(grid: str):
    """Report a point count too large for numpy as a config error on ``grid``."""
    try:
        yield
    except (OverflowError, ValueError, MemoryError) as exc:
        raise ConfigError(f"{grid} has too many points to allocate "
                          f"({exc})") from None


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
        with _size_refusal(f"phase grid eta_max = {self.eta_max:g}, "
                           f"delta_eta = {self.delta_eta:g}"):
            n_half = int(round(self.eta_max / self.delta_eta))
            eta = (np.arange(2 * n_half + 1) - n_half) * self.delta_eta
        if n_half < 2 or abs(n_half * self.delta_eta - self.eta_max) > GRID_TOL:
            raise ConfigError("delta_eta must divide eta_max evenly")
        object.__setattr__(self, "k_max", int(self.k_max))
        k = np.arange(-self.k_max, self.k_max + 1)
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
        bad = horizon_violation(self.k_max, self.eta_max, t_final, profile_width)
        if bad is not None:
            raise ConfigError(bad)


def horizon_violation(k_max, eta_max, t_final, profile_width) -> Optional[str]:
    """Why a frequency range cannot hold the density trace, or None if it can."""
    need = k_max * t_final + 6.0 * profile_width
    if eta_max >= need:
        return None
    return (f"eta_max = {eta_max} cannot hold the density trace out to "
            f"t = {t_final}; need at least k_max*t_final + 6*width = {need}")


@dataclasses.dataclass(frozen=True)
class TimeGrid:
    """Uniform steps on [0, t_final]."""

    t_final: float
    dt: float

    def __post_init__(self) -> None:
        if self.t_final <= 0 or self.dt <= 0:
            raise ConfigError("t_final and dt must be positive")
        with _size_refusal(f"time grid t_final = {self.t_final:g}, "
                           f"dt = {self.dt:g}"):
            n = int(round(self.t_final / self.dt))
            times = np.linspace(0.0, self.t_final, n + 1)
        if n < 1 or abs(n * self.dt - self.t_final) > GRID_TOL * max(1.0, self.t_final):
            raise ConfigError("dt must divide t_final evenly")
        object.__setattr__(self, "times", _frozen(times, float))

    @property
    def n_steps(self) -> int:
        return self.times.size - 1


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralState:
    """One time slice of the transported perturbation, Fourier in both variables.

    A state is a value: ``values`` is a read-only complex copy, made at
    construction, of the array given.  No view of that array, taken before
    or after, can reach it.  :func:`integrate` wraps the stage and step
    arrays it has just computed, which nothing else holds, without the copy
    (:meth:`_wrap`).

    :meth:`interpolant` splines the frequency axis on first use and keeps the
    spline in a slot until :meth:`release_interpolant`.  The spline reads
    ``values`` by reference; since they never change, a kept spline never
    goes stale.
    """

    time: float
    grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=complex, order="C")
        if values.shape != (self.grid.n_modes, self.grid.n_eta):
            raise ConfigError("values must have shape (n_modes, n_eta)")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_interp", None)

    @classmethod
    def _wrap(cls, time: float, grid: PhaseGrid, values: np.ndarray) -> "SpectralState":
        """A state around ``values``, a C-ordered complex (n_modes, n_eta)
        array no one else holds, set read-only in place: no copy, no check."""
        values.flags.writeable = False
        state = object.__new__(cls)
        state.__dict__.update(time=time, grid=grid, values=values, _interp=None)
        return state

    def interpolant(self) -> "StateInterpolant":
        """The spline of ``values``, built on first use and kept in the slot."""
        if self._interp is None:
            object.__setattr__(self, "_interp", StateInterpolant(self))
        return self._interp

    def release_interpolant(self) -> None:
        """Drop the kept spline."""
        object.__setattr__(self, "_interp", None)

    @property
    def k_values(self) -> np.ndarray:
        return self.grid.k_values

    @property
    def eta(self) -> np.ndarray:
        return self.grid.eta

    def mass_mode(self) -> complex:
        i, j = self.grid.origin
        return complex(self.values[i, j])

    def reality_defect(self) -> float:
        mirror = np.conj(self.values[::-1, ::-1])
        return float(np.max(np.abs(self.values - mirror)))


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

    def __post_init__(self) -> None:
        if self.amplitude < 0 or self.width <= 0:
            raise ConfigError("amplitude must be >= 0 and width > 0")
        center = complex(np.asarray(
            self.evaluator(np.array(0), np.array(0.0)), dtype=complex))
        if abs(center) > 1e-12:
            raise ConfigError("datum must be mean-zero but has a nonzero "
                              f"origin coefficient {center:.3e}")

    def sample(self, grid: PhaseGrid, time: float) -> SpectralState:
        vals = np.asarray(self.evaluator(grid.k_values[:, None],
                                         grid.eta[None, :]), dtype=complex)
        return SpectralState(time=time, grid=grid, values=vals)

    def trace(self, k, t) -> np.ndarray:
        """Coefficients along the density line eta = k t."""
        k = np.asarray(k)
        return np.asarray(self.evaluator(k, k * t), dtype=complex)


def gaussian_datum(modes, width: float = 1.0) -> AsymptoticDatum:
    """Datum with the given spatial coefficients and a Gaussian frequency profile.

    ``modes`` maps k to its coefficient; the conjugate mode is filled in
    automatically when absent so the datum stays real-valued, and a -k
    coefficient that is not the conjugate of the k one is refused.
    """
    if width <= 0:
        raise ConfigError("width must be positive")
    table: dict[int, complex] = {}
    for k, a in dict(modes).items():
        k = int(k)
        if k == 0:
            raise ConfigError("mode 0 would break the mean-zero requirement")
        if k in table and table[k] != complex(a):  # -k was listed first
            raise ConfigError("the coefficient of mode -k must be the "
                              "conjugate of mode k's, or the datum is not real")
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
                           width=float(width))


@functools.lru_cache(maxsize=16)
def _not_a_knot_factors(n: int) -> tuple:
    """LAPACK's ``zgttrs`` and the LU factors of the not-a-knot slope system
    on n uniform nodes, as ``(zgttrs, *factors)``.

    This is the tridiagonal system scipy's ``CubicSpline`` solves for the
    node slopes s, written for hs = h s on spacing h:
    hs[i-1] + 4 hs[i] + hs[i+1] = 3 (dy[i-1] + dy[i]) inside, with node
    differences dy[i] = y[i+1] - y[i], and the not-a-knot ends
    hs[0] + 2 hs[1] = (5 dy[0] + dy[1]) / 2 and its mirror.  The matrix is
    real but factored as complex, so one solve takes a state's mode rows as
    they are stored.

    scipy's LAPACK wrappers are imported here, at the first spline build,
    and not with the package: commands that never build a spline (``penrose``,
    ``kernel``) start on numpy alone.
    """
    from scipy.linalg import lapack

    sub = np.ones(n - 1, dtype=complex)
    diag = np.full(n, 4.0, dtype=complex)
    sup = np.ones(n - 1, dtype=complex)
    diag[0] = diag[-1] = 1.0
    sup[0] = sub[-1] = 2.0
    *factors, _ = lapack.zgttrf(sub, diag, sup)
    for f in factors:
        f.setflags(write=False)  # shared by every interpolant on n nodes
    return (lapack.zgttrs, *factors)


@functools.lru_cache(maxsize=1)
def _daxpy():
    """BLAS ``daxpy`` (y += a x in place on a contiguous y), bound like the
    LAPACK routines at the first spline build."""
    from scipy.linalg import blas

    return blas.daxpy


def _edge(grid: PhaseGrid) -> float:
    """Largest |eta| a lookup reads: eta_max plus a relative slack."""
    return grid.eta_max * (1.0 + EDGE_SLACK) + EDGE_SLACK


@functools.lru_cache(maxsize=2)
def _row_plans(grid: PhaseGrid, block: bytes) -> tuple:
    """How :meth:`StateInterpolant.all_rows` reads a block of shifted grid
    rows, keyed on the exact bytes of the block's float rows: ``(runs,
    fills)``.

    A run ``(dst, lead, next, w00, w01, w10, w11)`` is one row's four
    weighted slices, ``w00 y[lead] + w01 y[next] + w10 hs[lead] + w11
    hs[next]`` on the flat (re, im) arrays, written to ``dst`` of the flat
    output; a fill ``(index, kind)`` then sets ``out[index]`` to 0 (kind 0),
    the first node (1) or the last node (2).  Only the block and the grid
    decide them, not the state.  Two entries: RK4's k2 and k3 read one
    block, and so do k4 and the next step's k1.
    """
    n = grid.n_eta
    rows = np.frombuffer(block).reshape(-1, n)
    edge = _edge(grid)
    centre = n // 2
    shifts = (rows[:, centre] - grid.eta[centre]) / grid.delta_eta
    # a shifted row rises, so its truncated points are a prefix and a suffix
    beyond = np.empty((2,) + rows.shape, dtype=bool)
    np.less(rows, -edge, out=beyond[0])
    np.greater(rows, edge, out=beyond[1])
    below, above = np.add.reduce(beyond, axis=2, dtype=np.intp).tolist()
    # row-major blocks: one row's slices over every mode are contiguous runs
    # of the flat (re, im) arrays, a mode's length apart
    row_size = 2 * grid.n_modes * n
    span = 2 * (grid.n_modes - 1) * n
    runs, fills = [], []
    for r, shift in enumerate(shifts.tolist()):
        m = math.floor(shift)
        theta = shift - m
        u = 1.0 - theta
        # points lo..hi-1 of every mode sit at theta on intervals lo+m..hi-1+m
        lo = min(max(-m, 0), n)
        hi = max(min(n - 1 - m, n), lo)
        if hi > lo:
            # one run covers the gaps between modes too; the fills overwrite
            # what it wrote there
            size = span + 2 * (hi - lo)
            a = 2 * (lo + m)
            start = r * row_size + 2 * lo
            runs.append((slice(start, start + size), slice(a, a + size),
                         slice(a + 2, a + 2 + size),
                         (1.0 + 2.0 * theta) * u * u,
                         theta * theta * (3.0 - 2.0 * theta),
                         theta * u * u, -theta * theta * u))
        n_below, n_above = below[r], above[r]
        if n_below:
            fills.append(((r, slice(None), slice(0, n_below)), 0))
        if n_below < lo:
            fills.append(((r, slice(None), slice(n_below, lo)), 1))
        if hi < n - n_above:
            fills.append(((r, slice(None), slice(hi, n - n_above)), 2))
        if n_above:
            fills.append(((r, slice(None), slice(n - n_above, n)), 0))
    return tuple(runs), tuple(fills)


class StateInterpolant:
    """Uniform-grid not-a-knot cubic spline of one state's frequency axis.

    The spline is kept in Hermite form: the state's own read-only ``values``
    y and ``hs``, h times the node slopes.  At fraction theta of the interval
    [eta_i, eta_i + h] it reads

        h00 y[i] + h01 y[i+1] + h10 hs[i] + h11 hs[i+1],
        h00 = (1 + 2 theta)(1 - theta)^2,  h01 = theta^2 (3 - 2 theta),
        h10 = theta (1 - theta)^2,         h11 = -theta^2 (1 - theta).

    It is the interpolant scipy's ``CubicSpline`` builds on the same nodes
    and matches it to roundoff; nodes come back bit-exact.  The slope system
    is factored once per grid size, so a build is one banded
    back-substitution (LAPACK ``zgttrs``, bound at the first build of the
    process) over every mode row.  The kept spline costs ``hs``, as much
    memory as the state.

    Two lookups serve the pipelines.  :meth:`all_rows` reads rows that are
    the grid shifted by one constant, the shear of :func:`transport_rhs`;
    :meth:`at_pairs` reads single (mode, frequency) points, the density
    trace and the source assembly.  Queries beyond the grid edge (``_edge``,
    eta_max plus a relative slack of ``EDGE_SLACK``) return 0, justified by
    the decay of stored profiles toward the boundary; queries inside the
    slack band read the end node.

    Pipelines do not build one directly: they ask the state for it
    (:meth:`SpectralState.interpolant`), so every consumer of one state
    shares one build.  In a backward sweep the k1 stage of each step is the
    stored state itself; its spline serves that stage's
    :func:`transport_rhs`, then the next pass's :func:`density_trace` and
    :func:`assemble_source_history`, which releases it.  In a forward
    self-consistent run the field provider and :func:`transport_rhs` share
    one build per stage.  A state's values never change, so a kept spline
    never goes stale.
    """

    def __init__(self, state: SpectralState):
        grid = state.grid
        self.grid = grid
        self._edge = _edge(grid)
        # searching the inner nodes gives the interval index already clamped
        # to [0, n_eta - 2], as scipy's side="right" search does
        self._inner = grid.eta[1:-1]
        y = state.values
        dy = np.subtract(y[:, 1:], y[:, :-1])
        rhs = np.empty(y.shape, dtype=complex)
        np.add(dy[:, :-1], dy[:, 1:], out=rhs[:, 1:-1])
        rhs[:, 1:-1] *= 3.0
        # both not-a-knot ends at once (n >= 5): 2.5 dy[end] + 0.5 dy[next in]
        n = grid.n_eta
        rhs[:, ::n - 1] = 2.5 * dy[:, ::n - 2] + 0.5 * dy[:, 1:n - 2:n - 4]
        zgttrs, *factors = _not_a_knot_factors(n)
        # the transpose is the column-major (node, mode) system LAPACK solves
        hs, _ = zgttrs(*factors, rhs.T, overwrite_b=True)
        self._y = y
        self._hs = hs.T
        self._hs.setflags(write=False)
        self._flat = (y.reshape(-1).view(float), self._hs.reshape(-1).view(float))

    def all_rows(self, eta) -> np.ndarray:
        """Every mode row at copies of the grid, each shifted by one constant.

        Each row of ``eta`` (last axis of length ``n_eta``) must be
        ``grid.eta + s`` for a constant s; the row's centre point, where the
        grid reads 0, gives s.  s / h splits into an integer offset m and a
        fraction theta, so point i sits at theta on interval i + m for every
        i, and a row is four scalar-weighted slices of y and hs: no search,
        no gather.  Rows of any other form are not detected.  Points past an
        end node read that node inside the slack band and 0 beyond
        ``_edge``.  The offsets, weights and slice bounds of a block are
        remembered for the last two blocks (:func:`_row_plans`).

        Returns shape ``(n_modes,) + eta.shape``.
        """
        eta = np.asarray(eta, dtype=float)
        grid = self.grid
        n = grid.n_eta
        if eta.shape[-1:] != (n,):
            raise ConfigError(f"all_rows reads rows of the {n} grid frequencies "
                              f"shifted by a constant, got shape {eta.shape}")
        runs, fills = _row_plans(grid, eta.tobytes())
        out = np.empty((eta.size // n, grid.n_modes, n), dtype=complex)
        flat = out.reshape(-1).view(float)
        y, hs = self._flat
        axpy = _daxpy()
        for dst, lead, next_, w00, w01, w10, w11 in runs:
            run = flat[dst]
            np.multiply(y[lead], w00, out=run)
            axpy(y[next_], run, a=w01)
            axpy(hs[lead], run, a=w10)
            axpy(hs[next_], run, a=w11)
        ends = (0.0, self._y[:, :1], self._y[:, -1:])
        for index, kind in fills:
            out[index] = ends[kind]
        return out.transpose(1, 0, 2).reshape((grid.n_modes,) + eta.shape)

    def at_pairs(self, k, eta) -> np.ndarray:
        """Pointwise lookup at (k[i], eta[i]); off-lattice modes read as 0.

        Only the requested mode row is evaluated at each point.  Returns the
        broadcast shape of ``k`` and ``eta``.
        """
        k, eta = np.broadcast_arrays(np.asarray(k), np.asarray(eta, dtype=float))
        grid = self.grid
        on_lattice = np.abs(k) <= grid.k_max
        inside = np.abs(eta) <= self._edge
        sel = on_lattice & inside
        pts = np.clip(eta[sel], -grid.eta_max, grid.eta_max)
        idx = np.searchsorted(self._inner, pts, side="right")
        theta = ((pts - grid.eta[idx]) / grid.delta_eta).astype(complex)
        # flat indices of each point's two nodes, (2, points)
        nodes = (k[sel] + grid.k_max).astype(int) * grid.n_eta + idx + _NEXT_NODE
        y = np.take(self._y, nodes)
        hs = np.take(self._hs, nodes)
        # the Hermite form as y0 + theta (hs0 + theta (c2 + theta c3)) with
        # c3 = hs0 + hs1 - 2 dy, c2 = dy - hs0 - c3 and dy = y1 - y0
        dy = y[1] - y[0]
        c3 = hs[1] + hs[0]
        c3 -= dy
        c3 -= dy
        value = c3 * theta
        value += dy
        value -= hs[0]
        value -= c3
        value *= theta
        value += hs[0]
        value *= theta
        value += y[0]
        out = np.zeros(k.shape, dtype=complex)
        out[sel] = value
        return out


def density_trace(state: SpectralState) -> np.ndarray:
    """Density-generating slice: coefficients along eta = k t.

    Read from the state's kept spline (:meth:`SpectralState.interpolant`).
    """
    k = state.grid.k_values
    return state.interpolant().at_pairs(k, k * state.time)


def assemble_source_history(model: ModelConfig, states: Sequence[SpectralState],
                            density: DensityHistory, u_hats: SpectralHistory,
                            ginf: AsymptoticDatum) -> SourceHistory:
    """Backward-equation right-hand side on the whole time grid.

    At each grid time t: the datum trace, minus the coupling series of the
    current potential, minus the quadratic history correction, a trapezoid
    over s >= t of (s - t) k l / (beta + l^2) rho_s(l) g_s(k - l, k t - l s)
    summed over transfer modes l != 0.  The datum traces of all grid times
    are evaluated in one call.  Each later slice with a nonzero density is
    read for all its transfer modes in one pass, through the slice's own
    spline: the one its density trace or its transport stage already built,
    else a new one kept in its slot.  Its terms are formed in one broadcast
    product and added one transfer mode at a time, in lattice order.  The
    caller releases the slots once the source is assembled.  A source
    that leaves the double range raises :class:`BlowUpError`, which names
    the datum amplitude.

    The time axis is the density's, which :class:`SpectralHistory` has
    already checked uniform; the states and the potential must sit on it.
    """
    grid = states[0].grid
    times = density.times
    if density.n_modes != grid.n_modes or u_hats.n_modes != grid.n_modes:
        raise ConfigError("density or potential history is not on the state "
                          "mode lattice")
    state_times = np.array([state.time for state in states])
    if state_times.shape != times.shape or u_hats.times.shape != times.shape \
            or np.max(np.abs(state_times - times)) > GRID_TOL \
            or np.max(np.abs(u_hats.times - times)) > GRID_TOL:
        raise ConfigError("density or potential history is not on the state "
                          "time grid")
    n_t = times.size
    k = grid.k_values
    delta_s = density.delta_t
    ells = k[k != 0]
    weights = k.astype(float) * ells[:, None] / (model.beta + ells[:, None] ** 2.0)
    rho = density.values[:, ells + grid.k_max]
    conv = np.zeros((n_t, k.size), dtype=complex)
    # overflow shows up as inf and is refused below, before the history
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.array(ginf.trace(k[None, :], times[:, None]))
        for i in range(n_t):
            out[i] -= h_of_field(model, u_hats.values[i])
        for j in range(1, n_t):
            active = rho[j] != 0.0
            if not np.any(active):
                continue
            ell = ells[active, None, None]
            # frequencies k t_i - ell s_j for every active ell and earlier
            # slice i
            eta_pts = k * times[:j, None] - ell * times[j]
            g_shift = states[j].interpolant().at_pairs(
                np.broadcast_to(k - ell, eta_pts.shape), eta_pts)
            edge = 0.5 if j == n_t - 1 else 1.0
            gaps = (times[j] - times[:j])[:, None]
            terms = ((edge * delta_s * rho[j, active])[:, None, None] * gaps
                     * weights[active, None, :] * g_shift)
            for term in terms:
                conv[:j] += term
        out -= conv
    if not np.isfinite(out).all():
        raise BlowUpError(
            f"the backward source left the double range; shrink the datum, "
            f"whose mode amplitudes sum to {ginf.amplitude:.3e}")
    return SourceHistory(times=times, values=out)


@functools.lru_cache(maxsize=2)
def _sheared_profile(eq: Equilibrium, grid: PhaseGrid, t: float) -> tuple:
    """What :func:`transport_rhs` reads of the stage time t alone, read-only:
    the shear eta - k t on the grid, mu_hat of it, the shear times k, and
    the frequencies eta - l t for every nonzero mode l, in lattice order.

    Two entries: RK4's k2 and k3 share a stage time, and so do k4 and the
    next step's k1, so each distinct stage time evaluates them once.
    """
    k = grid.k_values.astype(float)
    shear = grid.eta[None, :] - k[:, None] * t
    mu = np.array(eq.mu_hat(shear), dtype=complex)
    shifts = grid.eta - grid.k_values[k != 0][:, None] * t
    out = shear, mu, shear * k[:, None], shifts
    for table in out:
        table.setflags(write=False)
    return out


def transport_rhs(state: SpectralState, u_linear: np.ndarray,
                  u_nonlinear: np.ndarray, eq: Equilibrium) -> np.ndarray:
    """Time derivative of the transported perturbation under two potentials.

    ``u_linear`` feeds the equilibrium profile; ``u_nonlinear`` shears the
    state itself, with the frequency shift resolved by interpolation.  Both
    hold one coefficient per mode in ``grid.k_values`` order.  They may
    differ: the linearized fixed-point map drives the equilibrium with the
    new potential and the shear with the previous iterate's.  The state's
    spline (shared with the field provider's trace of the same stage) is
    queried once, at every shift eta - l t with a nonzero coefficient
    together.  Everything that depends on the stage time alone comes from
    :func:`_sheared_profile`, which remembers the last two stage times.
    """
    grid = state.grid
    u_lin, u_nl = np.asarray(u_linear), np.asarray(u_nonlinear)
    if u_lin.shape != (grid.n_modes,) or u_nl.shape != (grid.n_modes,):
        raise ConfigError("stage potentials must hold one value per lattice mode")
    shear, mu, shear_k, shifts = _sheared_profile(eq, grid, state.time)
    if any(u_lin.tolist()):
        rhs = shear_k * u_lin[:, None] * mu
        # 0 - x, the difference from a zero fill, signed zeros included
        np.subtract(0.0, rhs, out=rhs)
    else:
        rhs = np.zeros(shear.shape, dtype=complex)
    k_max = grid.k_max
    coefs = u_nl.tolist()
    ells = [ell for ell in range(-k_max, k_max + 1) if ell and coefs[ell + k_max]]
    if ells:
        # shifted[:, j] is the state at eta - ells[j] t; row k of the shear
        # term reads row k - ell, so |ell| rows fall off the lattice
        if len(ells) < 2 * k_max:
            shifts = shifts[[ell + k_max - (ell > 0) for ell in ells]]
        shifted = state.interpolant().all_rows(shifts)
        n = grid.n_modes
        for j, ell in enumerate(ells):
            lo, hi = max(0, ell), n + min(0, ell)
            rhs[lo:hi] -= (shear[lo:hi] * (ell * coefs[ell + k_max])
                           * shifted[lo - ell:hi - ell, j])
    return rhs


@dataclasses.dataclass(frozen=True)
class IntegrationResult:
    """Trajectory (time-ascending) plus conservation diagnostics."""

    states: tuple
    max_reality_drift: float
    mass_drift: float


class HistoryFieldProvider:
    """Stage potentials interpolated in time from precomputed histories.

    ``u_linear`` drives the equilibrium gradient and ``u_nonlinear`` the
    shear.  Uses four-point Lagrange interpolation (exact at grid nodes,
    falls back to linear when the history is shorter than four slices).
    Stage values must match the history's own accuracy order: a lower-order
    stage lookup caps the whole sweep at that order.

    The read-only potentials of the last two stage times are remembered: in
    an RK4 sweep k2 and k3 share a stage time, and so do k4 and the next
    step's k1.
    """

    def __init__(self, u_linear: SpectralHistory, u_nonlinear: SpectralHistory):
        if not np.array_equal(u_linear.times, u_nonlinear.times) or \
                u_linear.n_modes != u_nonlinear.n_modes:
            raise ConfigError("field histories must share one grid")
        # both potentials of a time slice side by side, (n_t, 2, n_modes):
        # one set of weights interpolates both; the memo holds the arrays,
        # not the provider, so no reference cycle outlives a pass
        rows = np.stack([u_linear.values, u_nonlinear.values], axis=1)
        self._interpolate = functools.lru_cache(maxsize=2)(functools.partial(
            self._interpolate_at, u_linear.times, u_linear.delta_t, rows))

    def __call__(self, state: SpectralState) -> tuple[np.ndarray, np.ndarray]:
        return self._interpolate(state.time)

    @staticmethod
    def _interpolate_at(times: np.ndarray, delta_t: float, rows: np.ndarray,
                        t: float) -> tuple[np.ndarray, np.ndarray]:
        if t < times[0] - GRID_TOL or t > times[-1] + GRID_TOL:
            raise ConfigError(f"time {t:g} is outside the field history")
        n = times.size
        pos = (t - times[0]) / delta_t
        if n < 4:
            j = min(int(pos), n - 2)
            theta = min(max(pos - j, 0.0), 1.0)
            both = (1.0 - theta) * rows[j] + theta * rows[j + 1]
        else:
            j = min(max(int(pos) - 1, 0), n - 4)
            theta = pos - j
            w0 = -(theta - 1.0) * (theta - 2.0) * (theta - 3.0) / 6.0
            w1 = theta * (theta - 2.0) * (theta - 3.0) / 2.0
            w2 = -theta * (theta - 1.0) * (theta - 3.0) / 2.0
            w3 = theta * (theta - 1.0) * (theta - 2.0) / 6.0
            both = (w0 * rows[j] + w1 * rows[j + 1]
                    + w2 * rows[j + 2] + w3 * rows[j + 3])
        both.setflags(write=False)
        return both[0], both[1]


class SelfConsistentFieldProvider:
    """Stage potential from the stage state itself: trace, then elliptic balance.

    Both returned potentials are the one solved from the stage state's
    density trace at the stage time.  The trace reads the state's kept
    spline, so :func:`transport_rhs` on the same stage reuses it.
    """

    def __init__(self, model: ModelConfig, w: GevreyWeight):
        self.model = model
        self.w = w

    def __call__(self, state: SpectralState) -> tuple[np.ndarray, np.ndarray]:
        q = density_trace(state)
        u_hat = poisson_fixed_point(self.model, q, self.w, state.time).u_hat
        return u_hat, u_hat


def zero_field_provider(grid: PhaseGrid) -> FieldProvider:
    """Free transport: both stage potentials identically zero."""
    zero = _frozen(np.zeros(grid.n_modes), complex)

    def provider(state: SpectralState) -> tuple[np.ndarray, np.ndarray]:
        return zero, zero

    return provider


def integrate(initial: SpectralState, provider: FieldProvider,
              time_grid: TimeGrid, eq: Equilibrium) -> IntegrationResult:
    """Four-stage Runge-Kutta sweep over the whole time grid.

    The start state's time picks the direction: a state at the final time
    (the asymptotic samples) sweeps backward to 0, a state at 0 sweeps
    forward; any other start is refused.  The start state is the first
    state of the trajectory, taken as is.  States are returned in ascending
    time order either way.  Each step is projected back onto the
    real-symmetric subspace and the removed defect is tracked; the origin
    mode is conserved by the dynamics and its end-to-end drift is reported.

    The k1 stage of each step is the stored state it leaves, so whatever
    spline that stage builds stays in the stored state's slot: every
    returned state but the last one reached carries it.  The caller releases
    the slots once no later consumer (the next pass of the construction map)
    needs them.  k2/k3 and k4/the next k1 share a stage time, so
    :func:`transport_rhs` and :class:`HistoryFieldProvider` remember the
    last two; the whole sweep runs in one ``np.errstate``.  Each stage and
    step array is new and held by no one else, so the sweep wraps it as a
    read-only state without a copy (:meth:`SpectralState._wrap`), and the
    RK4 combination is formed in place, in the order of its written form.
    """
    times = time_grid.times
    backward = abs(initial.time - times[-1]) < abs(initial.time - times[0])
    start = times[-1] if backward else times[0]
    if abs(initial.time - start) > GRID_TOL * max(1.0, abs(start)):
        raise ConfigError(
            f"integration must start at t=0 (forward) or t={times[-1]:g} "
            f"(backward), got state at t={initial.time:g}")
    order = range(times.size - 2, -1, -1) if backward else range(1, times.size)
    grid = initial.grid
    current = initial
    out = [current]
    mass0 = current.mass_mode()
    max_drift = 0.0

    def rhs(stage: SpectralState) -> np.ndarray:
        if not np.isfinite(stage.values).all():
            raise BlowUpError(
                f"non-finite stage state near t={stage.time:g}; reduce dt "
                f"below {time_grid.dt:g} or shrink the datum amplitude")
        return transport_rhs(stage, *provider(stage), eq)

    def stage_at(t: float, y: np.ndarray, step: float, k: np.ndarray) -> SpectralState:
        # y + step k in a new array, which only the stage state holds
        values = np.multiply(step, k)
        np.add(y, values, out=values)
        return SpectralState._wrap(t, grid, values)

    # overflow shows up as inf and is handled by the blow-up checks
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in order:
            t0 = current.time
            t1 = float(times[idx])
            h = t1 - t0
            y = current.values
            k1 = rhs(current)
            k2 = rhs(stage_at(t0 + h / 2.0, y, h / 2.0, k1))
            k3 = rhs(stage_at(t0 + h / 2.0, y, h / 2.0, k2))
            k4 = rhs(stage_at(t1, y, h, k3))
            # y + (h/6) (((k1 + 2 k2) + 2 k3) + k4), operands in that order,
            # formed in k2's array
            y_next = np.multiply(2.0, k2, out=k2)
            np.add(k1, y_next, out=y_next)
            y_next += np.multiply(2.0, k3, out=k3)
            y_next += k4
            np.multiply(h / 6.0, y_next, out=y_next)
            np.add(y, y_next, out=y_next)
            if not np.isfinite(y_next).all():
                raise BlowUpError(
                    f"non-finite state at t={t1:g}; reduce dt below {abs(h):g} "
                    "or shrink the datum amplitude")
            # project onto the real-symmetric subspace, tracking the defect removed
            mirror = np.conj(y_next[::-1, ::-1])
            max_drift = max(max_drift, float(np.abs(y_next - mirror).max()))
            np.add(y_next, mirror, out=mirror)
            np.divide(mirror, 2.0, out=mirror)
            current = SpectralState._wrap(t1, grid, mirror)
            out.append(current)
    mass_drift = abs(current.mass_mode() - mass0)
    if backward:
        out.reverse()
    return IntegrationResult(states=tuple(out), max_reality_drift=max_drift,
                             mass_drift=mass_drift)
