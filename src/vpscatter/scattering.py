"""Fixed-point construction of solutions with a prescribed late-time profile.

The driver iterates a linearizing map.  It slices each iterate once, reading
off its density and potential; the map consumes those histories, assembles
the backward source, reconstructs the new density through the resolvent
route, and transports the asymptotic datum backward with the new field in
the linear term and the old field in the shear term.  Contraction is
measured between consecutive iterates in a norm whose regularity radius is
scaled to 0.9 of the working one; the working radius keeps enough margin
that the map stays a contraction there.  The converged trajectory yields
the t = 0 state (the wave-operator image of the datum), the weighted
electric-field decay series, and a forward round-trip check that re-runs the
self-consistent dynamics from t = 0 and compares against the datum in
physical space.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (BlowUpError, ConfigError, DivergenceError,
                     NoContractionError)
from .model import Equilibrium, ModelConfig
from .gevrey import (GevreyWeight, WeightedNormReport, n1_at_time, norm_N2,
                     weighted_norm_report)
from .fitting import DecayFit, peak_decay_fit, stretched_exponential_fit
from .volterra import (DensityHistory, DiscreteResolvent, SpectralHistory,
                       build_discrete_resolvent, solve_resolvent)
from .field import (efield_weighted_norms, poisson_fixed_point,
                    potential_from_density)
from .kinetic import (AsymptoticDatum, HistoryFieldProvider, IntegrationResult,
                      PhaseGrid, SelfConsistentFieldProvider, SpectralState,
                      TimeGrid, assemble_source_history, density_trace,
                      gaussian_datum, integrate)

__all__ = [
    "RunGrids",
    "MapResult",
    "IterateRecord",
    "ScatteringRun",
    "RoundTripReport",
    "LinearDecayReport",
    "free_extension",
    "build_resolvent_tables",
    "apply_map_F",
    "iterate_distance",
    "fixed_point_drive",
    "state_to_physical",
    "roundtrip_check",
    "landau_linear_run",
]

# ball radius for accepted iterates, in units of the starting profile norm
BALL_FACTOR = 10.0


@dataclasses.dataclass(frozen=True)
class RunGrids:
    """Phase lattice plus time grid for one construction run."""

    phase: PhaseGrid
    time: TimeGrid


@dataclasses.dataclass(frozen=True)
class MapResult:
    """One application of the construction map.

    ``states`` is the new iterate (ascending time), ``density`` and
    ``potentials`` its reconstructed density and potential histories,
    ``report`` the weighted norms of the new iterate, and ``integration``
    the raw transport diagnostics.
    """

    states: tuple
    density: DensityHistory
    potentials: SpectralHistory
    report: WeightedNormReport
    integration: IntegrationResult


@dataclasses.dataclass(frozen=True)
class IterateRecord:
    """Per-iterate diagnostics retained by the driver.

    Full state histories are dropped once the next iterate is formed; a run
    at desk scale would otherwise hold hundreds of megabytes of spectra.
    """

    density: DensityHistory
    report: WeightedNormReport


@dataclasses.dataclass(frozen=True)
class ScatteringRun:
    """Outcome of the fixed-point drive.

    ``states`` is the last iterate's trajectory in ascending time; its first
    state is the constructed t = 0 state, :attr:`g0`.
    """

    datum: AsymptoticDatum
    iterates: tuple
    distances: tuple
    contraction_ratios: tuple
    states: tuple
    potentials: SpectralHistory
    converged: bool
    decay_fit: Optional[DecayFit]
    ball_bound: float
    tolerance: float

    @property
    def g0(self) -> SpectralState:
        return self.states[0]


@dataclasses.dataclass(frozen=True)
class RoundTripReport:
    """Forward re-simulation from the constructed t = 0 state.

    ``profile_errors[i]`` is the physical-space sup distance between the
    transported perturbation at ``times[i]`` and the target profile;
    ``sup_error`` is its value at the horizon.  ``richardson_dt`` and
    ``richardson_eta`` estimate the forward discretization error per axis by
    comparing against half-resolution runs (0 when skipped);
    ``richardson_estimate`` is their sum.  ``bound`` is the verdict's
    threshold, 10 (drive tolerance + Richardson estimate), and
    ``within_bound`` whether ``sup_error`` meets it.
    """

    sup_error: float
    times: np.ndarray
    profile_errors: np.ndarray
    richardson_dt: float
    richardson_eta: float
    bound: float
    within_bound: bool

    @property
    def richardson_estimate(self) -> float:
        return self.richardson_dt + self.richardson_eta


@dataclasses.dataclass(frozen=True)
class LinearDecayReport:
    """Forward small-amplitude run, its potentials, and one mode's fit."""

    mode: int
    times: np.ndarray
    field_abs: np.ndarray
    fit: DecayFit
    potentials: SpectralHistory
    integration: IntegrationResult


def free_extension(ginf: AsymptoticDatum, grids: RunGrids) -> tuple:
    """Starting iterate: the datum held fixed at every grid time."""
    return tuple(ginf.sample(grids.phase, float(t)) for t in grids.time.times)


def build_resolvent_tables(model: ModelConfig, eq: Equilibrium,
                           grids: RunGrids) -> dict[int, DiscreteResolvent]:
    """Discrete resolvent tables for every nonzero lattice mode."""
    tg = grids.time
    return {int(k): build_discrete_resolvent(model, eq, int(k), tg.dt, tg.n_steps)
            for k in grids.phase.k_values if k != 0}


def _release(states: Sequence[SpectralState]) -> None:
    """Drop the splines the states keep (see :meth:`SpectralState.interpolant`)."""
    for state in states:
        state.release_interpolant()


def _slice_fields(model: ModelConfig, grids: RunGrids,
                  states: Sequence[SpectralState], w: GevreyWeight
                  ) -> tuple[DensityHistory, SpectralHistory]:
    """Density and potential histories of an iterate via the elliptic balance."""
    times = grids.time.times
    rho = np.zeros((len(states), grids.phase.n_modes), dtype=complex)
    u = np.zeros_like(rho)
    for i, state in enumerate(states):
        q = density_trace(state)
        snap = poisson_fixed_point(model, q, w, state.time)
        rho[i] = snap.rho_hat
        u[i] = snap.u_hat
    return DensityHistory(times, rho), SpectralHistory(times, u)


def apply_map_F(phi_states: Sequence[SpectralState],
                phi_density: DensityHistory, phi_potential: SpectralHistory,
                ginf: AsymptoticDatum, model: ModelConfig, eq: Equilibrium,
                w: GevreyWeight, grids: RunGrids, *,
                tables: Mapping[int, DiscreteResolvent],
                ball_n1: Optional[float] = None) -> MapResult:
    """One pass of the construction map: previous iterate in, new iterate out.

    ``phi_density`` and ``phi_potential`` are the incoming iterate's sliced
    histories; zero ones give the linearized map, exactly linear in the
    datum.  Four stages: assemble the backward source, reconstruct the new
    density through the resolvent tables, form its potential, then
    transport the datum backward from the horizon with the new field driving
    the equilibrium gradient and the old field driving the shear term.
    ``tables`` are the resolvent tables of :func:`build_resolvent_tables`.

    ``ball_n1`` is an optional acceptance bound: a new iterate whose sup-in-
    time distribution norm exceeds it aborts with a no-contraction error, the
    executable sign that the datum amplitude is too large.

    The incoming states' splines (kept by the slicing, or by the transport
    stages of the pass that made them) serve the source assembly and are
    released once the source is assembled.  The new iterate's states keep
    the splines of their k1 transport stages for the next slicing.
    """
    grid, tg = grids.phase, grids.time
    source = assemble_source_history(model, phi_states, phi_density,
                                     phi_potential, ginf)
    _release(phi_states)
    density = solve_resolvent(model, eq, source, tables)
    # the new potential responds linearly; the series correction lives in the
    # source term of the next pass
    u_psi_hist = SpectralHistory(tg.times,
                                 potential_from_density(model, density.values))
    # the old potential shears the state
    provider = HistoryFieldProvider(u_psi_hist, phi_potential)
    terminal = ginf.sample(grid, tg.t_final)
    integration = integrate(terminal, provider, tg, eq)
    report = weighted_norm_report(integration.states, density, w)
    if ball_n1 is not None and report.n1 > ball_n1:
        raise NoContractionError(
            f"new iterate left the acceptance ball: N1 = {report.n1:.6e} "
            f"exceeds {ball_n1:.6e}; shrink the datum amplitude, or run the "
            f"boundary stability scan: an unstable background amplifies the "
            f"response past any ball regardless of amplitude")
    return MapResult(states=integration.states, density=density,
                     potentials=u_psi_hist, report=report,
                     integration=integration)


def iterate_distance(states_a: Sequence[SpectralState],
                     states_b: Sequence[SpectralState],
                     density_a: DensityHistory, density_b: DensityHistory,
                     w: GevreyWeight) -> float:
    """Combined norm of the difference between two iterates.

    Sup over times of the weighted distribution norm of the state difference
    plus the time-integrated norm of the density difference, both in ``w``.
    A difference that leaves the double range raises :class:`BlowUpError`.
    """
    if len(states_a) != len(states_b):
        raise ConfigError("iterates hold different numbers of states")
    grid = states_a[0].grid
    n1 = 0.0
    # the norms refuse a non-finite state difference as a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        for sa, sb in zip(states_a, states_b):
            diff = SpectralState(sa.time, grid, sa.values - sb.values)
            n1 = max(n1, n1_at_time(diff, w))
        rho = density_a.values - density_b.values
    if not np.isfinite(rho).all():
        raise BlowUpError("the density difference of two iterates left the "
                          "double range; shrink the datum amplitude")
    return n1 + norm_N2(DensityHistory(density_a.times, rho), w)


def fixed_point_drive(ginf: AsymptoticDatum, model: ModelConfig,
                      eq: Equilibrium, w: GevreyWeight, grids: RunGrids,
                      tol: float = 1e-9, max_iters: int = 25,
                      ) -> ScatteringRun:
    """Iterate the construction map until consecutive iterates agree.

    Starts from the free extension of the datum, measures the distance
    between consecutive iterates in the radius-reduced norm, and stops once
    it falls to ``tol``.  Three consecutive distance ratios at or above one
    abort with a divergence error.  Accepted iterates must keep their
    distribution norm within ``BALL_FACTOR`` times the starting profile's.

    The drive slices each iterate a pass consumes once, for the map to
    consume; the start iterate's slices also give its norm report, and the
    last output is never sliced.  The resolvent tables are built once.

    The returned run carries per-iterate densities and norm reports, the
    converged trajectory and its t = 0 state, the last iterate's
    potentials, and a stretched-exponential fit of their weighted field
    decay (:func:`efield_weighted_norms`) over the middle half of the
    horizon.  At most one iterate keeps its
    splines at a time; the returned run keeps none.
    """
    grids.phase.validate_horizon(grids.time.t_final, ginf.width)
    if max_iters < 1:
        raise ConfigError("max_iters must be at least 1")
    tables = build_resolvent_tables(model, eq, grids)
    prev_states = free_extension(ginf, grids)
    phi_density, phi_potential = _slice_fields(model, grids, prev_states, w)
    report0 = weighted_norm_report(prev_states, phi_density, w)
    ball = BALL_FACTOR * report0.n_total
    records = [IterateRecord(density=phi_density, report=report0)]
    w_dist = w.reduced()
    distances: list[float] = []
    ratios: list[float] = []
    bad_streak = 0
    converged = False
    prev_density = phi_density
    for n in range(max_iters):
        if n > 0:
            phi_density, phi_potential = _slice_fields(model, grids,
                                                       prev_states, w)
        result = apply_map_F(prev_states, phi_density, phi_potential, ginf,
                             model, eq, w, grids, tables=tables, ball_n1=ball)
        dist = iterate_distance(result.states, prev_states, result.density,
                                prev_density, w_dist)
        distances.append(dist)
        if len(distances) >= 2:
            prev_dist = distances[-2]
            ratio = dist / prev_dist if prev_dist > 0 else 0.0
            ratios.append(ratio)
            bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
            if bad_streak >= 3:
                raise DivergenceError(
                    f"no contraction: distance ratio {ratio:.3f} stayed at "
                    f"or above 1 for three consecutive passes; the datum "
                    f"amplitude {ginf.amplitude:.3e} is too large for this "
                    "equilibrium, or the equilibrium fails the stability "
                    "scan")
        records.append(IterateRecord(density=result.density,
                                     report=result.report))
        prev_states, prev_density = result.states, result.density
        if dist <= tol:
            converged = True
            break
    _release(prev_states)
    # max_iters >= 1, so the loop ran and ``result`` is the last pass
    e_times, e_norms = efield_weighted_norms(w, result.potentials)
    t_final = grids.time.t_final
    window = (e_times >= 0.25 * t_final) & (e_times <= 0.75 * t_final)
    decay_fit = None
    if np.count_nonzero(e_norms[window] > 0.0) >= 3:
        decay_fit = stretched_exponential_fit(e_times[window],
                                              e_norms[window], w.gamma)
    return ScatteringRun(datum=ginf, iterates=tuple(records),
                         distances=tuple(distances),
                         contraction_ratios=tuple(ratios),
                         states=prev_states,
                         potentials=result.potentials,
                         converged=converged, decay_fit=decay_fit,
                         ball_bound=ball, tolerance=tol)


def state_to_physical(state: SpectralState
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reconstruct the perturbation on a physical (x, v) tensor grid.

    The frequency axis is inverted by a discrete transform onto the conjugate
    velocity grid v in [-pi/delta_eta, pi/delta_eta); the spatial axis is
    summed directly over the mode lattice at max(8 k_max, 16) points.
    Returns (x, v, values) with ``values[j, m]`` the perturbation at
    ``(x[j], v[m])``.
    """
    grid = state.grid
    n_x = max(8 * grid.k_max, 16)
    eta = grid.eta
    n = eta.size
    v_raw = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.delta_eta)
    # sum_q g_q exp(i v eta_q) = exp(i v eta_0) * (DFT+ of the row)
    rows = n * np.fft.ifft(state.values, axis=1)
    rows *= np.exp(1j * v_raw * eta[0]) * (grid.delta_eta / (2.0 * np.pi))
    order = np.argsort(v_raw)
    v = v_raw[order]
    rows = rows[:, order]
    x = 2.0 * np.pi * np.arange(n_x) / n_x
    phases = np.exp(1j * np.outer(x, grid.k_values.astype(float)))
    return x, v, (phases @ rows).real


def _physical_at(state: SpectralState, x: np.ndarray,
                 v: np.ndarray) -> np.ndarray:
    """Direct (non-FFT) reconstruction at arbitrary velocity points."""
    grid = state.grid
    quad = np.exp(1j * np.outer(v, grid.eta)) * (grid.delta_eta / (2.0 * np.pi))
    rows = state.values @ quad.T
    phases = np.exp(1j * np.outer(x, grid.k_values.astype(float)))
    return (phases @ rows).real


def roundtrip_check(run: ScatteringRun, model: ModelConfig, eq: Equilibrium,
                    w: GevreyWeight, grids: RunGrids) -> RoundTripReport:
    """Forward re-simulation of a converged run against its target profile.

    Integrates the t = 0 state forward under the self-consistent field (both
    transport fields wired to the stage state itself) and reports the
    physical-space sup distance to the datum at every time, its value at the
    horizon, a step-halving estimate of the forward discretization error per
    axis (zero on an axis whose grid cannot be halved), and the verdict: is
    the horizon error within 10 (``run.tolerance`` + that estimate)?  Within a
    run the field provider and the transport share one spline per stage; the
    splines the stored states keep are dropped as soon as each run returns.
    """
    if not run.converged:
        raise ConfigError("round trip needs a converged run")
    provider = SelfConsistentFieldProvider(model, w)
    forward = integrate(run.g0, provider, grids.time, eq)
    _release(forward.states)
    target = state_to_physical(run.datum.sample(grids.phase, 0.0))[2]
    errors = np.array([
        float(np.max(np.abs(state_to_physical(state)[2] - target)))
        for state in forward.states])
    est_dt = 0.0
    est_eta = 0.0
    # both comparisons are fourth order: |fine - half-resolution| / (2^4 - 1)
    fine = forward.states[-1]
    if grids.time.n_steps % 2 == 0:
        coarse_grid = TimeGrid(grids.time.t_final, 2.0 * grids.time.dt)
        coarse = integrate(run.g0, provider, coarse_grid, eq)
        _release(coarse.states)
        fine_end = state_to_physical(fine)[2]
        coarse_end = state_to_physical(coarse.states[-1])[2]
        est_dt = float(np.max(np.abs(fine_end - coarse_end))) / 15.0
    phase = grids.phase
    if (phase.n_eta - 1) % 4 == 0:
        wide = PhaseGrid(phase.k_max, phase.eta_max, 2.0 * phase.delta_eta)
        start = SpectralState(0.0, wide, run.g0.values[:, ::2])
        sparse = integrate(start, provider, grids.time, eq)
        _release(sparse.states)
        x, v, sparse_end = state_to_physical(sparse.states[-1])
        fine_at = _physical_at(fine, x, v)
        est_eta = float(np.max(np.abs(fine_at - sparse_end))) / 15.0
    sup_error = float(errors[-1])
    bound = 10.0 * (run.tolerance + (est_dt + est_eta))
    return RoundTripReport(sup_error=sup_error, times=grids.time.times.copy(),
                           profile_errors=errors, richardson_dt=est_dt,
                           richardson_eta=est_eta, bound=bound,
                           within_bound=sup_error <= bound)


def landau_linear_run(model: ModelConfig, eq: Equilibrium, w: GevreyWeight,
                      grids: RunGrids, amplitude: float, mode: int = 1,
                      fit_window: tuple[float, float] = (5.0, 25.0),
                      ) -> LinearDecayReport:
    """Forward run of a small single-mode datum with a field-envelope fit.

    Starts the self-consistent dynamics from the datum profile at t = 0 and
    fits the exponential envelope of one field mode's magnitude over
    ``fit_window``; in the small-amplitude regime the rate reproduces the
    linear-theory root of the dispersion function. A window that is empty
    or starts at or after the last grid time, or a mode off the lattice, is
    refused before any step.
    """
    lo, hi = fit_window
    if lo >= hi or lo >= grids.time.t_final:
        raise ConfigError(
            f"fit window [{lo:g}, {hi:g}] must start before it ends and "
            f"before t_final = {grids.time.t_final:g}")
    idx = grids.phase.index_of(int(mode))
    datum = gaussian_datum({int(mode): amplitude})
    grids.phase.validate_horizon(grids.time.t_final, datum.width)
    provider = SelfConsistentFieldProvider(model, w)
    at_time: dict[float, np.ndarray] = {}

    def recording(state: SpectralState) -> tuple[np.ndarray, np.ndarray]:
        # the last call at a grid time is the k1 stage of the step leaving
        # it, made on the stored state itself
        fields = provider(state)
        at_time[state.time] = fields[0]
        return fields

    initial = datum.sample(grids.phase, 0.0)
    result = integrate(initial, recording, grids.time, eq)
    times = grids.time.times
    # the final state starts no step, so its field is solved here
    potentials = SpectralHistory(
        times, np.array([at_time[state.time] for state in result.states[:-1]]
                        + [provider(result.states[-1])[0]]))
    _release(result.states)
    field_abs = np.abs(int(mode) * potentials.values[:, idx])
    window = (times >= lo) & (times <= hi)
    fit = peak_decay_fit(times[window], field_abs[window])
    return LinearDecayReport(mode=int(mode), times=times.copy(),
                             field_abs=field_abs, fit=fit,
                             potentials=potentials, integration=result)
