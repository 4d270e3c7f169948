"""Fixed-point drive, wave-operator image, and round-trip verification."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from vpscatter.errors import (BlowUpError, ConfigError, NoContractionError,
                             WeightOverflowError)
from vpscatter.gevrey import GevreyWeight, n1_at_time
from vpscatter import kinetic, scattering
from vpscatter.kinetic import (AsymptoticDatum, PhaseGrid, SpectralState,
                               TimeGrid, density_trace, gaussian_datum)
from vpscatter.model import make_preset, maxwellian, two_stream
from vpscatter.dispersion import penrose_scan
from vpscatter.field import efield_weighted_norms
from vpscatter.scattering import (RunGrids, _slice_fields, apply_map_F,
                                  build_resolvent_tables, free_extension,
                                  fixed_point_drive, iterate_distance,
                                  landau_linear_run, roundtrip_check,
                                  state_to_physical)
from vpscatter.volterra import DensityHistory, SpectralHistory

VP = make_preset("vp")
MAXWELL = maxwellian()
WEIGHT = GevreyWeight()
SMALL = RunGrids(PhaseGrid(1, 8.0, 0.5), TimeGrid(2.0, 0.25))
COMPACT = RunGrids(PhaseGrid(2, 24.0, 0.25), TimeGrid(8.0, 0.1))


def zero_states(grids):
    grid = grids.phase
    return [SpectralState(t, grid, np.zeros((grid.n_modes, grid.n_eta), complex))
            for t in grids.time.times]


def zero_histories(grids):
    """Zero density and potential histories: the map becomes linear."""
    times = grids.time.times
    zeros = np.zeros((times.size, grids.phase.n_modes), complex)
    return DensityHistory(times, zeros), SpectralHistory(times, zeros)


def map_once(states, datum, grids, model=VP, eq=MAXWELL, w=WEIGHT,
             tables=None, **kwargs):
    """Slice an iterate as the drive does, then apply the map to it."""
    if tables is None:
        tables = build_resolvent_tables(model, eq, grids)
    density, potential = _slice_fields(model, grids, states, w)
    return apply_map_F(states, density, potential, datum, model, eq, w, grids,
                       tables=tables, **kwargs)


def scaled_gap(big, small, w):
    """Weighted distance between a map result and twice its half-amplitude twin."""
    states = [SpectralState(a.time, a.grid, a.values - 2.0 * b.values)
              for a, b in zip(big.states, small.states)]
    density = DensityHistory(times=big.density.times,
                             values=big.density.values - 2.0 * small.density.values)
    zeros = [SpectralState(a.time, a.grid, np.zeros_like(a.values))
             for a in big.states]
    zero_density = DensityHistory(times=big.density.times,
                                  values=np.zeros_like(big.density.values))
    return iterate_distance(states, zeros, density, zero_density, w)


def track_builds(monkeypatch):
    """Weak references to every interpolant built, each with its state's id.

    Nothing here holds a state or an interpolant alive, so a reference that
    is still alive after ``gc.collect()`` is kept by the code under test.
    """
    built = []
    init = kinetic.StateInterpolant.__init__

    def tracked(self, state):
        init(self, state)
        built.append((id(state), weakref.ref(self)))

    monkeypatch.setattr(kinetic.StateInterpolant, "__init__", tracked)
    return built


def alive(built, state_ids=None):
    gc.collect()
    return [ref for sid, ref in built
            if ref() is not None and (state_ids is None or sid in state_ids)]


class TestGrids:
    def test_horizon_must_hold_the_trace(self):
        grids = RunGrids(PhaseGrid(2, 10.0, 0.5), TimeGrid(8.0, 0.1))
        datum = gaussian_datum({1: 1e-3})
        with pytest.raises(ConfigError, match="density trace"):
            fixed_point_drive(datum, VP, MAXWELL, WEIGHT, grids)
        with pytest.raises(ConfigError, match="density trace"):
            landau_linear_run(VP, MAXWELL, WEIGHT, grids, 1e-3)

    def test_free_extension_is_constant_in_profile_coordinates(self):
        datum = gaussian_datum({1: 1e-3})
        states = free_extension(datum, COMPACT)
        first = states[0].values
        assert all(np.array_equal(st.values, first) for st in states)


class TestMapApplication:
    def test_zero_datum_is_a_fixed_point(self):
        datum = gaussian_datum({1: 0.0})
        result = map_once(zero_states(SMALL), datum, SMALL)
        assert all(np.all(st.values == 0) for st in result.states)
        assert np.all(result.density.values == 0)
        assert result.report.n_total == 0.0

    def test_linearized_application_matches_density_trace(self):
        # one linearized pass closes the density consistency relation to
        # integrator accuracy; measured gap 2.54e-8 at this fixture
        datum = gaussian_datum({1: 1e-3})
        result = apply_map_F(free_extension(datum, COMPACT),
                             *zero_histories(COMPACT), datum, VP, MAXWELL,
                             WEIGHT, COMPACT,
                             tables=build_resolvent_tables(VP, MAXWELL, COMPACT))
        gap = max(
            float(np.max(np.abs(density_trace(st) - result.density.values[i, :])))
            for i, st in enumerate(result.states))
        assert gap <= 1e-7

    def test_first_iterate_deviation_from_linearity_is_quadratic(self):
        # measured ratio 4.0000 when the amplitude halves
        results = {}
        for eps in (2e-3, 1e-3, 5e-4):
            datum = gaussian_datum({1: eps})
            results[eps] = map_once(free_extension(datum, COMPACT), datum,
                                    COMPACT)
        d1 = scaled_gap(results[2e-3], results[1e-3], WEIGHT)
        d2 = scaled_gap(results[1e-3], results[5e-4], WEIGHT)
        assert d1 > 0 and d2 > 0
        assert 3.5 < d1 / d2 < 4.5

    def test_ball_exit_raises_with_both_causes_named(self):
        datum = gaussian_datum({1: 1e-3})
        with pytest.raises(NoContractionError, match="acceptance ball"):
            map_once(free_extension(datum, COMPACT), datum, COMPACT,
                     ball_n1=1e-30)


class TestDrive:
    def test_zero_datum_converges_immediately(self):
        run = fixed_point_drive(gaussian_datum({1: 0.0}), VP, MAXWELL, WEIGHT,
                                SMALL, tol=1e-9, max_iters=5)
        assert run.converged
        assert len(run.distances) == 1 and run.distances[0] == 0.0
        assert np.all(run.g0.values == 0)

    def test_contraction_on_the_stable_background(self, contraction_pair):
        run = contraction_pair["runs"][1e-3]
        assert run.converged
        assert all(r < 1.0 for r in run.contraction_ratios)
        # the first correction dominates; later passes stay well inside it
        assert max(run.contraction_ratios[1:]) < run.contraction_ratios[0]
        assert all(rec.report.n1 <= run.ball_bound for rec in run.iterates)

    def test_first_ratio_drops_when_the_amplitude_halves(self, contraction_pair):
        # measured factor 1.93
        big = contraction_pair["runs"][1e-3].contraction_ratios[0]
        small = contraction_pair["runs"][5e-4].contraction_ratios[0]
        assert big / small >= 1.5

    def test_field_decay_fit_on_the_converged_run(self, contraction_pair):
        # measured c = 117.8, R^2 = 0.9563
        run = contraction_pair["runs"][1e-3]
        assert run.decay_fit is not None
        assert run.decay_fit.rate > 0
        assert run.decay_fit.r_squared >= 0.9
        assert np.isfinite(run.decay_fit.log_amplitude)  # amplitude > 0

    def test_distance_past_double_range_is_a_blow_up(self):
        # iterates near the largest double with opposite signs: their
        # difference leaves the range, a blow-up rather than a refused
        # history, and no numpy warning
        grid = PhaseGrid(1, 4.0, 0.5)
        times = np.linspace(0.0, 1.0, 5)
        big = np.full((times.size, grid.n_modes), 1e308, dtype=complex)
        zeros = [SpectralState(t, grid, np.zeros((grid.n_modes, grid.n_eta)))
                 for t in times]
        huge = [SpectralState(t, grid, np.full((grid.n_modes, grid.n_eta),
                                               1e308)) for t in times]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError, match="density difference"):
                iterate_distance(zeros, zeros, DensityHistory(times, big),
                                 DensityHistory(times, -big), WEIGHT)
            with pytest.raises(BlowUpError, match="non-finite"):
                iterate_distance(huge, [SpectralState(s.time, grid, -s.values)
                                        for s in huge],
                                 DensityHistory(times, big),
                                 DensityHistory(times, big), WEIGHT)

    def test_field_norms_survive_underflowing_squares(self):
        # |u_(+-1)| = 1e-224 on the contraction fixture's 321 times: every
        # weighted square underflows, and a plain sum of squares reads 0
        times = np.linspace(0.0, 32.0, 321)
        u = np.zeros((times.size, 3), dtype=complex)
        u[:, 0] = u[:, 2] = 1e-224
        t, norms = efield_weighted_norms(WEIGHT, SpectralHistory(times, u))
        assert np.array_equal(t, times)
        # the norm is homogeneous: the same field at 1e200 times the size
        _, big = efield_weighted_norms(WEIGHT, SpectralHistory(times, 1e200 * u))
        assert np.all(norms > 0.0)
        assert np.max(np.abs(norms * 1e200 / big - 1.0)) <= 1e-14

    def test_field_norm_past_the_double_range_names_its_cause(self):
        # finite weights times a 1e300 field leave the double range: the
        # amplitude is blamed; sigma = 1000 makes the weight itself inf
        times = np.linspace(0.0, 32.0, 321)
        u = np.zeros((times.size, 3), dtype=complex)
        u[:, 0] = u[:, 2] = 1e300
        with pytest.raises(WeightOverflowError, match="field amplitude 1.000e"):
            efield_weighted_norms(WEIGHT, SpectralHistory(times, u))
        with pytest.raises(WeightOverflowError, match="lambda_inf or sigma"):
            efield_weighted_norms(GevreyWeight(sigma=1000.0),
                                  SpectralHistory(times, 1e-300 * u))

    def test_fixed_point_residual_within_twice_tolerance(self, contraction_pair):
        # measured residual 1.1e-13 against tol 1e-9
        run = contraction_pair["runs"][1e-3]
        again = map_once(run.states, run.datum, contraction_pair["grids"],
                         contraction_pair["model"], contraction_pair["eq"],
                         contraction_pair["w"],
                         tables=contraction_pair["tables"])
        residual = iterate_distance(again.states, run.states, again.density,
                                    run.iterates[-1].density,
                                    contraction_pair["w"].reduced())
        assert residual <= 2.0 * contraction_pair["tol"]

    def test_second_start_reaches_the_same_image(self, contraction_pair):
        # the map iterated from the zero iterate instead of the free extension
        pair = contraction_pair
        reference = pair["runs"][1e-3]
        w_dist = pair["w"].reduced()
        states = zero_states(pair["grids"])
        density = zero_histories(pair["grids"])[0]
        converged = False
        for _ in range(25):
            result = map_once(states, reference.datum, pair["grids"],
                              pair["model"], pair["eq"], pair["w"],
                              tables=pair["tables"])
            dist = iterate_distance(result.states, states, result.density,
                                    density, w_dist)
            states, density = result.states, result.density
            if dist <= pair["tol"]:
                converged = True
                break
        assert converged
        gap = n1_at_time(SpectralState(0.0, reference.g0.grid,
                                       states[0].values - reference.g0.values),
                         pair["w"])
        assert reference.datum.amplitude > 0
        assert gap <= 10.0 * pair["tol"]

    @pytest.mark.parametrize("tol, max_iters", [(1e-9, 25), (1e-30, 2)],
                             ids=["converged", "exhausted"])
    def test_drive_slices_each_iterate_once(self, monkeypatch, tol, max_iters):
        solve = scattering.poisson_fixed_point
        times = []

        def counted(model, q, w, t):
            times.append(t)
            return solve(model, q, w, t)

        monkeypatch.setattr(scattering, "poisson_fixed_point", counted)
        run = fixed_point_drive(gaussian_datum({1: 1e-3}), VP, MAXWELL,
                                WEIGHT, SMALL, tol=tol, max_iters=max_iters)
        n_t, passes = SMALL.time.times.size, len(run.distances)
        assert run.converged == (tol == 1e-9) and passes >= 2
        # every iterate a pass consumes, the start one included, is sliced
        # once; the last output is never sliced
        assert len(times) == n_t * passes


class TestUnstableBackground:
    def test_two_stream_records_a_noncontracting_ratio(self):
        # the boundary scan pre-flags the background, and the drive on a
        # datum with stretched-exponential frequency decay records a ratio
        # past 1 (measured 6.09 vs 0.45 for the Maxwellian control); a
        # Gaussian-trace datum would hide the growth behind its own decay
        scan = penrose_scan(VP, two_stream(1.0, 0.5), 2, omega_max=6.0)
        assert scan.windings[1] >= 1 and scan.windings[-1] >= 1

        def stretched(k, eta):
            envelope = np.exp(-0.25 * (1.0 + np.asarray(eta) ** 2) ** 0.3)
            return np.where(np.abs(np.asarray(k)) == 1, 1e-3 * envelope, 0.0)

        datum = AsymptoticDatum(evaluator=stretched, amplitude=1e-3, width=4.0)
        grids = RunGrids(PhaseGrid(1, 224.0, 0.25), TimeGrid(200.0, 0.25))
        unstable = fixed_point_drive(datum, VP, two_stream(1.0, 0.5), WEIGHT,
                                     grids, tol=1e-9, max_iters=3)
        control = fixed_point_drive(datum, VP, MAXWELL, WEIGHT, grids,
                                    tol=1e-9, max_iters=3)
        assert not unstable.converged
        assert max(unstable.contraction_ratios) >= 1.0
        assert max(control.contraction_ratios) < 1.0


class TestRoundTrip:
    def test_zero_datum_round_trip_is_exact(self):
        run = fixed_point_drive(gaussian_datum({1: 0.0}), VP, MAXWELL, WEIGHT,
                                SMALL, tol=1e-9, max_iters=5)
        report = roundtrip_check(run, VP, MAXWELL, WEIGHT, SMALL)
        assert report.sup_error == 0.0

    def test_unconverged_run_is_refused(self):
        run = fixed_point_drive(gaussian_datum({1: 1e-3}), VP, MAXWELL,
                                WEIGHT, COMPACT, tol=1e-30, max_iters=1)
        assert not run.converged
        with pytest.raises(ConfigError, match="converged"):
            roundtrip_check(run, VP, MAXWELL, WEIGHT, COMPACT)

    def test_profile_error_bound_and_final_quarter(self, roundtrip_pair):
        tol = roundtrip_pair["tol"]
        for run, report in roundtrip_pair["pairs"].values():
            assert report.richardson_dt > 0 and report.richardson_eta > 0
            # the report owns its verdict: the bound is checked here once
            assert report.bound == 10.0 * (tol + report.richardson_estimate)
            assert report.within_bound and report.sup_error <= report.bound
            quarter = report.profile_errors[3 * (len(report.profile_errors) - 1) // 4:]
            assert np.all(np.diff(quarter) < 0)

    def test_sup_error_scales_quadratically_with_amplitude(self, roundtrip_pair):
        # measured factor 3.71 per amplitude halving
        big = roundtrip_pair["pairs"][1.6e-2][1].sup_error
        small = roundtrip_pair["pairs"][8e-3][1].sup_error
        assert 3.0 < big / small < 5.0


class TestPhysicalReconstruction:
    def test_single_mode_gaussian_closed_form(self):
        grid = PhaseGrid(1, 12.0, 0.25)
        state = gaussian_datum({1: 1.0}).sample(grid, 0.0)
        x, v, values = state_to_physical(state)
        expected = (2.0 * np.cos(x)[:, None]
                    * np.exp(-0.5 * v[None, :] ** 2) / np.sqrt(2.0 * np.pi))
        assert np.max(np.abs(values - expected)) <= 1e-12


class TestLinearRate:
    def test_small_amplitude_field_decay_matches_the_root(
            self, landau_small_amplitude):
        # measured rate 0.850912 against root real part -0.851330 (0.05%)
        report = landau_small_amplitude["report"]
        root = landau_small_amplitude["root"]
        assert abs(root - (-0.8513304586920828 + 2.0459048656906567j)) <= 1e-9
        relative = abs(abs(report.fit.rate) - abs(root.real)) / abs(root.real)
        assert relative <= 0.05
        assert report.fit.r_squared >= 0.99

    def test_off_lattice_mode_refused_before_any_step(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the forward run started")

        monkeypatch.setattr("vpscatter.scattering.integrate", no_run)
        with pytest.raises(ConfigError, match="k=3 is not on the lattice"):
            landau_linear_run(VP, MAXWELL, WEIGHT, SMALL, 1e-4, mode=3,
                              fit_window=(0.5, 1.5))

    def test_each_stored_state_is_solved_once(self, monkeypatch):
        # vpme runs the Picard solve at every call; its gate is opened wide
        # because the weighted slice amplitude outgrows it along eta = k t
        model = make_preset("vpme", eps_ball=1e30)
        grids = RunGrids(PhaseGrid(1, 16.0, 0.5), TimeGrid(8.0, 0.1))
        solve = kinetic.SelfConsistentFieldProvider.__call__
        calls = []

        def counted(provider, state):
            calls.append(state.time)
            return solve(provider, state)

        monkeypatch.setattr(kinetic.SelfConsistentFieldProvider, "__call__",
                            counted)
        report = landau_linear_run(model, MAXWELL, WEIGHT, grids, 1e-4,
                                   fit_window=(0.5, 7.5))
        # four RK4 stages per step, plus the final state, which starts none
        assert len(calls) == 4 * grids.time.n_steps + 1
        fresh = kinetic.SelfConsistentFieldProvider(model, WEIGHT)
        for state, u_hat in zip(report.integration.states,
                                report.potentials.values):
            assert np.array_equal(fresh(state)[0], u_hat)


class TestSplineOwnership:
    """Each state is splined once, and its spline lives one pass at most."""

    def test_input_iterate_splines_die_in_the_map(self, monkeypatch):
        datum = gaussian_datum({1: 1e-3})
        phi = free_extension(datum, SMALL)
        built = track_builds(monkeypatch)
        result = map_once(phi, datum, SMALL)
        n_t = SMALL.time.times.size
        inputs = {id(s) for s in phi}
        # slicing and source assembly share one build per input state
        assert sum(sid in inputs for sid, _ in built) == n_t
        assert not alive(built, inputs)
        # the new iterate keeps its k1 stage splines, one per step, for the
        # next pass; the t = 0 state starts no step
        kept = alive(built)
        assert len(kept) == n_t - 1
        assert {id(r()) for r in kept} == {
            id(s.interpolant()) for s in result.states[1:]}

    def test_drive_builds_each_state_once(self, monkeypatch):
        built = track_builds(monkeypatch)
        run = fixed_point_drive(gaussian_datum({1: 1e-3}), VP, MAXWELL,
                                WEIGHT, SMALL, tol=1e-9, max_iters=25)
        n_t, passes = SMALL.time.times.size, len(run.distances)
        assert run.converged and passes >= 2
        # the start iterate once; four stages per step and pass; and the
        # t = 0 state of every iterate a later pass slices
        assert len(built) == n_t + 4 * passes * (n_t - 1) + (passes - 1)
        assert not alive(built)

    def test_round_trip_keeps_no_spline(self, monkeypatch):
        run = fixed_point_drive(gaussian_datum({1: 1e-3}), VP, MAXWELL,
                                WEIGHT, SMALL, tol=1e-9, max_iters=25)
        built = track_builds(monkeypatch)
        report = roundtrip_check(run, VP, MAXWELL, WEIGHT, SMALL)
        assert report.richardson_dt > 0 and built
        assert not alive(built)


# drive-level symmetry covariance: kmax 2, eta 16/0.25, T 4/0.1
SYMMETRY_GRIDS = RunGrids(PhaseGrid(2, 16.0, 0.25), TimeGrid(4.0, 0.1))
SYMMETRY_DATA = {"vp": {1: 1e-3, 2: 4e-4}, "screened": {1: 1e-3, 2: 4e-4},
                 "vpme": {1: 1e-7, 2: 3e-8}}


def symmetry_drive(preset, modes):
    """The drive from the datum ``dict(modes)`` under ``preset``."""
    return fixed_point_drive(gaussian_datum(dict(modes)), make_preset(preset),
                             MAXWELL, WEIGHT, SYMMETRY_GRIDS)


@pytest.fixture(scope="module")
def symmetry_base():
    """The drive from each preset's untranslated datum, run once."""
    runs = {}

    def base(preset):
        if preset not in runs:
            runs[preset] = symmetry_drive(preset, SYMMETRY_DATA[preset].items())
        return runs[preset]

    return base


def rotated(modes, theta):
    """Amplitudes of the datum translated by theta: a_k e^{ik theta}."""
    return tuple((k, a * np.exp(1j * k * theta)) for k, a in modes)


def assert_covariant(run, base, g0_image):
    """Same passes and flags; g0 is ``g0_image`` of the base g0 and the
    per-pass N1 and N2 are the base's, each within 1e-13 of its maximum."""
    assert len(run.iterates) == len(base.iterates)
    assert run.converged == base.converged
    want = g0_image(base.g0.values)
    assert np.max(np.abs(run.g0.values - want)) <= 1e-13 * np.max(np.abs(want))
    for norm in ("n1", "n2"):
        got = np.array([getattr(rec.report, norm) for rec in run.iterates])
        ref = np.array([getattr(rec.report, norm) for rec in base.iterates])
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref), norm


class TestSymmetryCovariance:
    """Vlasov-Poisson on the torus commutes with a translation x -> x + theta,
    which sends a_k to a_k e^{ik theta} and g(k, eta) to e^{ik theta}
    g(k, eta), and, on an even background, with the reflection (x, v) ->
    (-x, -v), which sends a_k to conj(a_k) and g(k, eta) to g(-k, -eta).
    The constructed state and the norms of every pass must follow."""

    # each example runs a drive, so a failure is reported unshrunk
    @settings(derandomize=True, max_examples=4, deadline=None,
              phases=(Phase.explicit, Phase.generate))
    @given(preset=st.sampled_from(sorted(SYMMETRY_DATA)),
           theta=st.floats(0.05, 2.0 * math.pi - 0.05))
    def test_translation(self, symmetry_base, preset, theta):
        modes = SYMMETRY_DATA[preset].items()
        base = symmetry_base(preset)
        phase = np.exp(1j * SYMMETRY_GRIDS.phase.k_values * theta)[:, None]
        assert_covariant(symmetry_drive(preset, rotated(modes, theta)), base,
                         lambda g0: phase * g0)

    @pytest.mark.parametrize("preset", sorted(SYMMETRY_DATA))
    def test_reflection(self, preset):
        # a translated datum has complex amplitudes, so its reflection is
        # another datum: the one translated by -theta
        modes = rotated(SYMMETRY_DATA[preset].items(), 2.1)
        base = symmetry_drive(preset, modes)
        mirrored = tuple((k, np.conj(a)) for k, a in modes)
        assert_covariant(symmetry_drive(preset, mirrored), base,
                         lambda g0: g0[::-1, ::-1])
