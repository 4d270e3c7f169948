"""Spectral state plumbing, transport right-hand side, and the RK4 sweep."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import CubicSpline

from oracles import (CoefficientSpline, history_slice, integrate_copying,
                     source_history_per_mode, transport_rhs_per_shift)
from vpscatter.errors import BlowUpError, ConfigError
from vpscatter.field import h_of_field
from vpscatter.gevrey import GevreyWeight
from vpscatter.kinetic import (EDGE_SLACK, AsymptoticDatum, HistoryFieldProvider,
                               PhaseGrid, SelfConsistentFieldProvider,
                               SpectralState, StateInterpolant, TimeGrid,
                               assemble_source_history, density_trace,
                               _row_plans, gaussian_datum, horizon_violation,
                               integrate, transport_rhs, zero_field_provider)
from vpscatter.model import make_preset, maxwellian, two_stream
from vpscatter.volterra import DensityHistory, SpectralHistory

GRID = PhaseGrid(k_max=2, eta_max=8.0, delta_eta=0.125)
SCREENED = make_preset("screened")


def assemble_source(model, states, density, u_hats, ginf, t):
    """Per-time oracle for :func:`assemble_source_history`.

    Same quadrature at the single grid time ``t``, written as a direct loop
    over later slices with one fresh interpolant per term.
    """
    times = np.array([s.time for s in states])
    i0 = int(np.flatnonzero(np.isclose(times, t))[0])
    delta_s = float(times[1] - times[0])
    k = states[0].grid.k_values
    source = ginf.trace(k, times[i0]).astype(complex)
    source = source - h_of_field(model, u_hats.values[i0])
    for ell in k[k != 0]:
        weight = k * ell / (model.beta + float(ell) ** 2)
        rho_ell = density.mode(ell)
        acc = np.zeros(k.size, dtype=complex)
        for j in range(i0, times.size):
            gap = times[j] - times[i0]
            if gap == 0.0 or rho_ell[j] == 0.0:
                continue
            g_shift = StateInterpolant(states[j]).at_pairs(
                k - ell, k * times[i0] - ell * times[j])
            term = gap * weight * rho_ell[j] * g_shift
            acc += term if j < times.size - 1 else 0.5 * term
        source = source - delta_s * acc
    return source


def potentials(u_hat=None):
    """A (linear, nonlinear) pair: ``u_hat`` drives the equilibrium, no shear."""
    zero = np.zeros(GRID.n_modes, complex)
    return (zero if u_hat is None else np.asarray(u_hat, complex)), zero


def zero_state(grid, t=0.0):
    return SpectralState(t, grid, np.zeros((grid.n_modes, grid.n_eta), complex))


UNIT_COMPLEX = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                  allow_infinity=False)


def real_symmetric(values):
    """Projection onto value(-k, -eta) = conj value(k, eta), any rank."""
    mirror = np.conj(values[(slice(None, None, -1),) * values.ndim])
    return (values + mirror) / 2.0


# kmax 2, eta 16/0.25: the grid of the transport symmetry checks
SYMMETRY_GRID = PhaseGrid(k_max=2, eta_max=16.0, delta_eta=0.25)


def random_stage(seed, t):
    """A state at ``t`` and two potentials on ``SYMMETRY_GRID``, with no
    symmetry imposed."""
    rng = np.random.default_rng(seed)
    n = SYMMETRY_GRID.n_modes
    shape = (n, SYMMETRY_GRID.n_eta)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    u_lin, u_nl = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    return SpectralState(t, SYMMETRY_GRID, values), u_lin, u_nl


SYMMETRY_TIMES = TimeGrid(3.0, 0.25).times


def random_source_inputs(seed):
    """States, density and potential histories on ``SYMMETRY_GRID`` at
    ``SYMMETRY_TIMES``, and a mean-zero datum evaluator, with no symmetry
    imposed."""
    rng = np.random.default_rng(seed)
    n_t, n, k_max = SYMMETRY_TIMES.size, SYMMETRY_GRID.n_modes, SYMMETRY_GRID.k_max

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    g = draw(n_t, n, SYMMETRY_GRID.n_eta)
    rho, u = 1e-2 * draw(n_t, n), 1e-2 * draw(n_t, n)
    coef, centre = draw(n), rng.normal(size=n)
    coef[k_max] = 0.0

    def evaluator(k, eta):
        k = np.asarray(k) + k_max
        return coef[k] * np.exp(-0.5 * (np.asarray(eta, dtype=float) - centre[k]) ** 2)

    return g, rho, u, evaluator


def source_of(model, g, rho, u, evaluator):
    states = [SpectralState(float(t), SYMMETRY_GRID, g[i])
              for i, t in enumerate(SYMMETRY_TIMES)]
    return assemble_source_history(
        model, states, DensityHistory(SYMMETRY_TIMES, rho),
        SpectralHistory(SYMMETRY_TIMES, u),
        AsymptoticDatum(evaluator, 1.0, 1.0)).values


def count_calls(monkeypatch, name):
    """Record every call of ``StateInterpolant.<name>`` in the returned list."""
    calls = []
    method = getattr(StateInterpolant, name)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return method(self, *args, **kwargs)

    monkeypatch.setattr(StateInterpolant, name, counted)
    return calls


class TestGrids:
    def test_phase_grid_layout(self):
        assert np.array_equal(GRID.k_values, [-2, -1, 0, 1, 2])
        assert GRID.n_eta == 129
        assert GRID.eta[0] == -8.0 and GRID.eta[-1] == 8.0
        i, j = GRID.origin
        assert GRID.k_values[i] == 0 and GRID.eta[j] == 0.0
        assert GRID.index_of(-2) == 0
        with pytest.raises(ConfigError, match="lattice"):
            GRID.index_of(3)

    def test_phase_grid_validation(self):
        with pytest.raises(ConfigError, match="positive integer"):
            PhaseGrid(k_max=0, eta_max=8.0, delta_eta=0.125)
        with pytest.raises(ConfigError, match="divide"):
            PhaseGrid(k_max=1, eta_max=8.0, delta_eta=0.3)

    def test_horizon_validation(self):
        grid = PhaseGrid(k_max=2, eta_max=60.0, delta_eta=0.125)
        grid.validate_horizon(24.0, 1.5)  # 48 + 9 <= 60
        assert horizon_violation(2, 60.0, 24.0, 1.5) is None
        with pytest.raises(ConfigError, match="density trace") as err:
            grid.validate_horizon(26.0, 1.5)
        assert str(err.value) == horizon_violation(2, 60.0, 26.0, 1.5) == (
            "eta_max = 60.0 cannot hold the density trace out to t = 26.0; "
            "need at least k_max*t_final + 6*width = 61.0")

    def test_time_grid(self):
        tg = TimeGrid(24.0, 0.05)
        assert tg.n_steps == 480
        assert tg.times[0] == 0.0 and tg.times[-1] == 24.0
        with pytest.raises(ConfigError, match="divide"):
            TimeGrid(1.0, 0.3)


class TestDatum:
    def test_gaussian_datum_reality(self):
        datum = gaussian_datum({2: 1e-3 + 2e-3j}, width=1.5)
        got = datum.evaluator(np.array(-2), np.array(1.7))
        want = np.conj(datum.evaluator(np.array(2), np.array(-1.7)))
        assert got == want
        assert datum.amplitude == pytest.approx(2 * abs(1e-3 + 2e-3j))

    def test_mode_zero_rejected(self):
        with pytest.raises(ConfigError, match="mean-zero"):
            gaussian_datum({0: 1.0})

    def test_non_conjugate_mirror_rejected(self):
        # a -k coefficient other than the conjugate of the k one is not a
        # real datum; integrate would project it onto the real part
        for modes in ({1: 1e-3, -1: 2e-3}, {-2: 1e-3j, 2: 1e-3j}):
            with pytest.raises(ConfigError, match="conjugate"):
                gaussian_datum(modes)
        both = gaussian_datum({1: 1e-3 + 2e-3j, -1: 1e-3 - 2e-3j})
        alone = gaussian_datum({1: 1e-3 + 2e-3j})
        assert np.array_equal(both.sample(GRID, 0.0).values,
                              alone.sample(GRID, 0.0).values)

    def test_mean_zero_enforced(self):
        evaluator = lambda k, eta: np.full(np.broadcast(k, eta).shape, 1.0 + 0j)
        with pytest.raises(ConfigError, match="mean-zero"):
            AsymptoticDatum(evaluator=evaluator, amplitude=1.0, width=1.0)

    def test_sample_is_symmetric(self):
        state = gaussian_datum({1: 0.5 - 0.25j}).sample(GRID, 3.0)
        assert state.time == 3.0
        assert state.reality_defect() == 0.0
        assert state.mass_mode() == 0.0

    def test_resymmetrize_reports_and_removes_the_defect(self):
        # free transport leaves the state as it is, so one step shows the
        # projection integrate applies to every new state, bit for bit
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(GRID.n_modes, GRID.n_eta)) * (1 - 0.5j)
        state = SpectralState(0.0, GRID, vals)
        defect = state.reality_defect()
        res = integrate(state, zero_field_provider(GRID), TimeGrid(0.1, 0.1),
                        maxwellian())
        assert res.max_reality_drift == defect > 0.0
        projected = res.states[-1]
        assert np.array_equal(projected.values,
                              (vals + np.conj(vals[::-1, ::-1])) / 2.0)
        assert projected.reality_defect() == 0.0


class TestInterpolation:
    def test_nodes_reproduced(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(GRID.n_modes, GRID.n_eta)) * (1 + 0.5j)
        state = SpectralState(0.0, GRID, vals)
        inner = GRID.eta[1:-1]
        got = StateInterpolant(state).at_pairs(np.full(inner.size, 1), inner)
        assert np.array_equal(got, state.values[GRID.index_of(1), 1:-1])

    def test_linear_data_exact(self):
        vals = np.tile(0.3 * GRID.eta - 1.2, (GRID.n_modes, 1)).astype(complex)
        state = SpectralState(0.0, GRID, vals)
        probe = np.linspace(-7.9, 7.9, 101)
        got = StateInterpolant(state).at_pairs(np.zeros(101, int), probe)
        assert np.max(np.abs(got - (0.3 * probe - 1.2))) <= 1e-13

    def test_gaussian_error_fourth_order(self):
        def sup_err(d_eta):
            grid = PhaseGrid(k_max=1, eta_max=8.0, delta_eta=d_eta)
            vals = np.tile(np.exp(-grid.eta**2 / 2), (3, 1)).astype(complex)
            state = SpectralState(0.0, grid, vals)
            probe = np.linspace(-6.0, 6.0, 1117)
            got = StateInterpolant(state).at_pairs(np.ones(1117, int), probe)
            return np.max(np.abs(got - np.exp(-probe**2 / 2)))

        e1, e2, e3 = sup_err(0.1), sup_err(0.05), sup_err(0.025)
        assert e1 <= 1e-6
        assert 12.0 < e1 / e2 < 20.0
        assert 12.0 < e2 / e3 < 20.0

    def test_beyond_edge_reads_zero_and_counts(self):
        state = gaussian_datum({1: 1.0}).sample(GRID, 0.0)
        probe = np.array([0.0, 9.0, -8.5, 3.25])
        got = StateInterpolant(state).at_pairs(np.ones(4, int), probe)
        assert got[1] == 0.0 and got[2] == 0.0

    def test_off_lattice_mode_reads_zero_uncounted(self):
        state = gaussian_datum({1: 1.0}).sample(GRID, 0.0)
        got = StateInterpolant(state).at_pairs(
            np.array([5, -3, 1]), np.array([0.0, 9.0, 0.0]))
        assert got[0] == 0.0 and got[1] == 0.0
        assert got[2] == state.values[GRID.index_of(1), GRID.origin[1]]

    def test_all_rows_on_a_block_stacks_the_row_calls(self):
        state = gaussian_datum({1: 1.0, 2: 0.5j}).sample(GRID, 0.0)
        interp = StateInterpolant(state)
        block = GRID.eta - np.array([-2.0, -0.7, 0.0, 1.3, 2.0])[:, None] * 1.9
        got = interp.all_rows(block)
        assert got.shape == (GRID.n_modes,) + block.shape
        want = np.stack([interp.all_rows(row) for row in block], axis=1)
        assert np.array_equal(got, want)

    def test_at_pairs_on_a_block_stacks_the_slab_calls(self):
        state = gaussian_datum({1: 1.0, 2: 0.5j}).sample(GRID, 0.0)
        interp = StateInterpolant(state)
        k, times = GRID.k_values, np.linspace(0.0, 5.0, 6)
        ells = np.array([-2, -1, 1, 2])[:, None, None]
        eta = k * times[:, None] - ells * 3.5
        got = interp.at_pairs(k - ells, eta)
        assert got.shape == eta.shape
        want = np.stack([interp.at_pairs(k - ell, e)
                         for ell, e in zip(ells, eta)])
        assert np.array_equal(got, want)


# conftest fixture grids (contraction, round trip, Landau), then the scatter
# and roundtrip-vpme benchmark grids, then a grid whose step is not dyadic
ORACLE_GRIDS = [PhaseGrid(2, 70.0, 0.25), PhaseGrid(3, 24.0, 0.0625),
                PhaseGrid(2, 60.0, 0.125), PhaseGrid(2, 22.0, 0.25),
                PhaseGrid(2, 16.0, 0.125), PhaseGrid(1, 8.0, 0.1)]


def oracle_rows(grid, kind, rng):
    shape = (grid.n_modes, grid.n_eta)
    if kind == "random":
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amp = rng.normal(size=(grid.n_modes, 1)) + 1j * rng.normal(size=(grid.n_modes, 1))
    return amp * np.exp(-(grid.eta - rng.uniform(-2.0, 2.0)) ** 2 / 4.5)


def row_scale(state):
    """Largest magnitude of each mode row, shaped to broadcast over blocks."""
    return np.max(np.abs(state.values), axis=1)[:, None, None]


def shifted_block(grid, rng):
    """Rows of the grid shifted by constants: fractions of a step and a few
    steps of both signs, and shifts that run far past either end.

    The shifts are multiples of 2^-10, so on a dyadic grid every shifted
    point is exact: the row lookup, which reads the shift once, and a point
    lookup read the same points, not points a rounding apart."""
    steps = np.concatenate([rng.uniform(-0.99, 0.99, 4),
                            rng.uniform(-6.0, 6.0, 4)]) * grid.delta_eta
    far = rng.uniform(0.2, 0.9, 4) * grid.eta_max * np.array([1, -1, 1, -1])
    shifts = np.round(np.concatenate([steps, far]) * 1024.0) / 1024.0
    return grid.eta + shifts[:, None]


@pytest.mark.parametrize("kind", ["random", "gaussian"])
@pytest.mark.parametrize("grid", ORACLE_GRIDS,
                         ids=lambda g: f"k{g.k_max}-{g.eta_max:g}-{g.delta_eta:g}")
class TestSplineOracle:
    """The interpolant against scipy's not-a-knot ``CubicSpline``."""

    def make_case(self, grid, kind):
        rng = np.random.default_rng(11)
        state = SpectralState(0.0, grid, oracle_rows(grid, kind, rng))
        eta = grid.eta
        probe = np.concatenate([
            rng.uniform(-grid.eta_max, grid.eta_max, 400), eta,
            (eta[:-1] + eta[1:]) / 2.0,
            np.linspace(eta[0], eta[1], 9), np.linspace(eta[-2], eta[-1], 9)])
        return state, probe, rng

    def test_matches_cubic_spline(self, grid, kind):
        state, probe, rng = self.make_case(grid, kind)
        spline = CubicSpline(grid.eta, state.values, axis=1)
        interp = StateInterpolant(state)
        scale = row_scale(state)
        block = shifted_block(grid, rng)
        want = np.where(np.abs(block) <= interp._edge,
                        spline(np.clip(block, -grid.eta_max, grid.eta_max)), 0.0)
        assert np.all(np.abs(interp.all_rows(block) - want) <= 1e-13 * scale)
        want = spline(probe)
        rows = rng.integers(0, grid.n_modes, probe.size)
        got = interp.at_pairs(grid.k_values[rows], probe)
        assert np.all(np.abs(got - want[rows, np.arange(probe.size)])
                      <= 1e-13 * scale[rows, 0, 0])

    def test_inner_nodes_bit_exact(self, grid, kind):
        state, _, _ = self.make_case(grid, kind)
        interp = StateInterpolant(state)
        # the unshifted grid reads every node, both ends included
        assert np.array_equal(interp.all_rows(grid.eta), state.values)
        # a shift of whole steps reads theta = 0: the shifted nodes, and 0
        # past the ends
        steps = np.array([1, -2, 4, -8, 16])
        got = interp.all_rows(grid.eta + steps[:, None] * grid.delta_eta)
        for m, rows in zip(steps, got.transpose(1, 0, 2)):
            want = np.zeros_like(state.values)
            src = np.arange(grid.n_eta) + m
            keep = (src >= 0) & (src < grid.n_eta)
            want[:, keep] = state.values[:, src[keep]]
            assert np.array_equal(rows, want)
        inner = grid.eta[1:-1]
        k = np.repeat(grid.k_values, inner.size)
        got = interp.at_pairs(k, np.tile(inner, grid.n_modes))
        assert np.array_equal(got, state.values[:, 1:-1].ravel())

    def test_pairs_equal_matching_row(self, grid, kind):
        state, _, rng = self.make_case(grid, kind)
        interp = StateInterpolant(state)
        k = grid.k_values[:, None, None]
        # node-aligned shifts: both lookups read the nodes themselves (the
        # point lookup reads the last node off its interval's far end, so
        # it only matches there to roundoff)
        steps = np.array([2, -4, 0, 8])[:, None]
        src = np.arange(grid.n_eta) + steps
        on_grid = (src >= 0) & (src < grid.n_eta)
        block = np.where(on_grid, grid.eta[np.clip(src, 0, grid.n_eta - 1)],
                         grid.eta + steps * grid.delta_eta)
        rows = interp.all_rows(block)
        pairs = interp.at_pairs(np.broadcast_to(k, rows.shape),
                                np.broadcast_to(block, rows.shape))
        keep = src != grid.n_eta - 1
        assert np.array_equal(pairs[:, keep], rows[:, keep])
        # any other shift: both within roundoff of the coefficient-form spline
        block = shifted_block(grid, rng)
        want = CoefficientSpline(state).all_rows(block)
        pairs = interp.at_pairs(np.broadcast_to(k, want.shape),
                                np.broadcast_to(block, want.shape))
        scale = row_scale(state)
        assert np.all(np.abs(pairs - want) <= 1e-13 * scale)
        assert np.all(np.abs(interp.all_rows(block) - want) <= 1e-13 * scale)

    def test_density_trace_at_node_times(self, grid, kind):
        state, _, _ = self.make_case(grid, kind)
        n_half = grid.n_eta // 2
        for j in (0, 1, n_half // (2 * grid.k_max), n_half // grid.k_max - 1):
            t = j * grid.delta_eta
            moved = SpectralState(t, grid, state.values)
            want = state.values[np.arange(grid.n_modes), n_half + grid.k_values * j]
            assert np.array_equal(density_trace(moved), want)


@pytest.mark.parametrize("grid", ORACLE_GRIDS,
                         ids=lambda g: f"k{g.k_max}-{g.eta_max:g}-{g.delta_eta:g}")
class TestShiftedRows:
    """``all_rows`` on rows of the grid shifted by constants, against the
    coefficient-form spline it replaced."""

    def make_case(self, grid):
        rng = np.random.default_rng(17)
        state = SpectralState(0.0, grid, oracle_rows(grid, "random", rng))
        return state, StateInterpolant(state), rng

    def test_matches_coefficient_oracle(self, grid):
        state, interp, rng = self.make_case(grid)
        block = shifted_block(grid, rng)
        got = interp.all_rows(block)
        want = CoefficientSpline(state).all_rows(block)
        assert np.all(np.abs(got - want) <= 1e-13 * row_scale(state))
        # rows may come in any leading shape
        stacked = interp.all_rows(block.reshape(2, -1, grid.n_eta))
        assert np.array_equal(stacked.reshape(got.shape), got)

    def test_edge_band_reads_the_end_node(self, grid):
        state, interp, _ = self.make_case(grid)
        band = 2.0 ** -40  # inside the slack band, and exact on the grid
        assert band < EDGE_SLACK
        block = grid.eta + np.array([band, -band])[:, None]
        got = interp.all_rows(block)
        assert block[0, -1] > grid.eta_max and block[1, 0] < -grid.eta_max
        assert np.array_equal(got[:, 0, -1], state.values[:, -1])
        assert np.array_equal(got[:, 1, 0], state.values[:, 0])
        want = CoefficientSpline(state).all_rows(block)
        assert np.all(np.abs(got - want) <= 1e-13 * row_scale(state))

    def test_beyond_both_ends_reads_zero(self, grid):
        state, interp, _ = self.make_case(grid)
        past = 2.0 ** -30  # past the slack band, and exact on the grid
        assert grid.eta_max + past > interp._edge
        shifts = np.array([past, -past, 0.5, -0.5, 3.0, -3.0]) * np.array(
            [1.0, 1.0, grid.eta_max, grid.eta_max, grid.eta_max, grid.eta_max])
        block = grid.eta + shifts[:, None]
        got = interp.all_rows(block)
        beyond = np.abs(block) > interp._edge
        assert beyond[0, -1] and beyond[1, 0] and np.all(beyond[4:])
        assert np.all(got[:, beyond] == 0.0)
        want = CoefficientSpline(state).all_rows(block)
        assert np.all(np.abs(got - want) <= 1e-13 * row_scale(state))

    def test_last_axis_must_be_the_grid(self, grid):
        _, interp, _ = self.make_case(grid)
        for eta in (grid.eta[1:], grid.eta[:, None], np.float64(0.0)):
            with pytest.raises(ConfigError, match="all_rows"):
                interp.all_rows(eta)


class TestDensityTrace:
    def test_gaussian_at_two(self):
        state = gaussian_datum({1: 1.0}).sample(GRID, 2.0)
        q = density_trace(state)
        assert q[GRID.index_of(1)] == np.exp(-2.0)

    def test_time_zero_reads_center_column(self):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(GRID.n_modes, GRID.n_eta)).astype(complex)
        state = SpectralState(0.0, GRID, vals)
        assert np.array_equal(density_trace(state), vals[:, GRID.n_eta // 2])

    def test_free_streaming_trace_is_gaussian_in_time(self):
        datum = gaussian_datum({1: 1.0})
        res = integrate(datum.sample(GRID, 0.0), zero_field_provider(GRID),
                        TimeGrid(4.0, 0.1), maxwellian())
        worst = max(abs(density_trace(s)[GRID.index_of(1)]
                        - np.exp(-s.time**2 / 2)) for s in res.states)
        assert worst <= 5e-6


class TestSplineSlot:
    def test_forward_stages_share_one_build(self, monkeypatch):
        # the field provider's trace and the shear lookup read one spline
        builds = count_calls(monkeypatch, "__init__")
        provider = SelfConsistentFieldProvider(SCREENED, GevreyWeight())
        tg = TimeGrid(1.0, 0.1)
        integrate(gaussian_datum({1: 1e-4}).sample(GRID, 0.0), provider, tg,
                  maxwellian())
        assert len(builds) == 4 * tg.n_steps

    def test_in_place_write_to_splined_state_raises(self):
        state = gaussian_datum({1: 1.0}).sample(GRID, 1.0)
        q = density_trace(state)
        with pytest.raises(ValueError, match="read-only"):
            state.values *= 2.0
        assert state.interpolant() is state.interpolant()
        assert np.array_equal(density_trace(state), q)

    def test_values_are_read_only_from_construction(self):
        state = gaussian_datum({1: 1.0}).sample(GRID, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            state.values *= 2.0  # before any spline is built
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.values = 2.0 * state.values

    def test_view_of_another_array_is_copied(self):
        base = 1.0 * gaussian_datum({1: 1.0}).sample(GRID, 1.0).values
        state = SpectralState(1.0, GRID, base[:, :])
        assert state.values.flags.owndata and not state.values.flags.writeable
        assert not np.shares_memory(state.values, base)
        assert base.flags.writeable
        q = density_trace(state)
        base *= 2.0  # the state holds its own copy, so its spline stays valid
        assert np.array_equal(density_trace(state), q)


    def test_view_taken_before_the_state_cannot_reach_it(self):
        base = 1.0 * gaussian_datum({1: 1.0}).sample(GRID, 0.0).values
        view = base[:, :]
        state = SpectralState(0.0, GRID, base)
        before = state.values.copy()
        q = density_trace(state)
        view[:] = 1.0  # the state copied base, so neither it nor its spline moves
        assert not np.shares_memory(state.values, base)
        assert np.array_equal(state.values, before)
        assert np.array_equal(density_trace(state), q)


class TestTransportRhs:
    def test_zero_fields_give_exact_zero(self):
        state = gaussian_datum({1: 1.0}).sample(GRID, 1.0)
        rhs = transport_rhs(state, *potentials(), maxwellian())
        assert np.all(rhs == 0.0)

    def test_linear_term_pointwise(self):
        u = np.zeros(GRID.n_modes, complex)
        u[GRID.index_of(1)] = 0.3 + 0.1j
        u[GRID.index_of(-1)] = 0.3 - 0.1j
        rhs = transport_rhs(zero_state(GRID, t=1.5), *potentials(u), maxwellian())
        shear = GRID.eta - 1.5
        want = -shear * (0.3 + 0.1j) * np.exp(-shear**2 / 2)
        assert np.array_equal(rhs[GRID.index_of(1)], want)
        assert rhs[GRID.origin] == 0.0
        # a real potential is the complex one with zero imaginary parts
        zero = np.zeros(GRID.n_modes)
        real = transport_rhs(zero_state(GRID, t=1.5), u.real, zero, maxwellian())
        assert np.array_equal(real, transport_rhs(
            zero_state(GRID, t=1.5), u.real + 0j, zero, maxwellian()))

    def test_shear_term_row_shift(self):
        # cubic row is reproduced exactly by the spline, isolating indexing
        grid = PhaseGrid(k_max=2, eta_max=6.0, delta_eta=0.25)
        phi = 0.002 * (grid.eta**3 - 3.0 * grid.eta)
        vals = np.zeros((grid.n_modes, grid.n_eta), complex)
        vals[grid.index_of(0)] = phi
        state = SpectralState(0.6, grid, vals)
        u = np.zeros(grid.n_modes, complex)
        u[grid.index_of(1)] = 0.05 + 0.02j
        rhs = transport_rhs(state, np.zeros(grid.n_modes), u, maxwellian())
        shift = grid.eta - 0.6
        want = np.where(np.abs(shift) <= 6.0,
                        -shift * (0.05 + 0.02j)
                        * 0.002 * (shift**3 - 3.0 * shift), 0.0)
        assert np.max(np.abs(rhs[grid.index_of(1)] - want)) <= 1e-12
        others = np.delete(np.arange(grid.n_modes), grid.index_of(1))
        assert np.all(rhs[others] == 0.0)

    @pytest.mark.parametrize("linear", [False, True], ids=["shear", "both"])
    def test_all_shifts_match_per_shift_oracle(self, linear):
        rng = np.random.default_rng(5)
        shape = (GRID.n_modes, GRID.n_eta)
        vals = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
            * np.exp(-GRID.eta**2 / 8.0)
        state = SpectralState(2.7, GRID, vals)
        u_nl = rng.normal(size=GRID.n_modes) + 1j * rng.normal(size=GRID.n_modes)
        u_nl[GRID.index_of(0)] = 0.0
        u_lin = u_nl[::-1].conj() if linear else np.zeros(GRID.n_modes, complex)
        got = transport_rhs(state, u_lin, u_nl, maxwellian())
        want = transport_rhs_per_shift(state, u_lin, u_nl, maxwellian())
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("zero", [-2, -1, 1, 2])
    def test_zero_shear_coefficient_matches_per_shift_oracle(self, zero):
        # the shifts of the nonzero coefficients are rows picked from the
        # remembered block of every shift
        rng = np.random.default_rng(9)
        shape = (GRID.n_modes, GRID.n_eta)
        vals = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
            * np.exp(-GRID.eta**2 / 8.0)
        state = SpectralState(1.9, GRID, vals)
        u_nl = rng.normal(size=GRID.n_modes) + 1j * rng.normal(size=GRID.n_modes)
        u_nl[[GRID.index_of(0), GRID.index_of(zero)]] = 0.0
        u_lin = u_nl[::-1].conj()
        got = transport_rhs(state, u_lin, u_nl, maxwellian())
        want = transport_rhs_per_shift(state, u_lin, u_nl, maxwellian())
        assert np.array_equal(got, want)

    def test_one_lookup_per_stage(self, monkeypatch):
        calls = count_calls(monkeypatch, "all_rows")
        state = gaussian_datum({1: 1.0, 2: 0.5}).sample(GRID, 1.2)
        u = np.full(GRID.n_modes, 0.01 + 0.0j)
        transport_rhs(state, u, u, maxwellian())
        assert len(calls) == 1
        transport_rhs(state, u, np.zeros(GRID.n_modes), maxwellian())
        assert len(calls) == 1

    def test_wrong_shape_potential_rejected(self):
        wrong = np.zeros(GRID.n_modes + 2, complex)
        right = np.zeros(GRID.n_modes, complex)
        for lin, nl in ((wrong, right), (right, wrong), (right, right[:, None])):
            with pytest.raises(ConfigError, match="lattice mode"):
                transport_rhs(zero_state(GRID), lin, nl, maxwellian())


class TestTransportSymmetry:
    """``transport_rhs`` commutes with the reflection P and the conjugation C
    on states with no symmetry.  ``integrate`` projects every step onto the
    real-symmetric subspace, where P is C, so these checks reach the right-hand
    side below that projection.  Both backgrounds are even."""

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 8.0),
           eq=st.sampled_from([maxwellian(), two_stream(1.0, 0.5)]))
    def test_reflection_commutes(self, seed, t, eq):
        # P: g(k, eta) -> g(-k, -eta), u_k -> u_(-k); the spline of the
        # reflected rows is the reflected spline up to roundoff
        state, u_lin, u_nl = random_stage(seed, t)
        mirror = SpectralState(t, SYMMETRY_GRID, state.values[::-1, ::-1])
        want = transport_rhs(state, u_lin, u_nl, eq)[::-1, ::-1]
        got = transport_rhs(mirror, u_lin[::-1], u_nl[::-1], eq)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 8.0),
           eq=st.sampled_from([maxwellian(), two_stream(1.0, 0.5)]))
    def test_conjugation_commutes(self, seed, t, eq):
        # C: g -> conj g, u -> conj u; every coefficient is real, so exactly
        state, u_lin, u_nl = random_stage(seed, t)
        conj = SpectralState(t, SYMMETRY_GRID, state.values.conj())
        want = np.conj(transport_rhs(state, u_lin, u_nl, eq))
        got = transport_rhs(conj, u_lin.conj(), u_nl.conj(), eq)
        assert np.array_equal(got, want)


class TestSourceSymmetry:
    """``assemble_source_history`` commutes with the reflection P and the
    conjugation C on inputs with no symmetry, the datum included."""

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           preset=st.sampled_from(["vp", "screened", "vpme"]))
    def test_reflection_commutes(self, seed, preset):
        # P: g(k, eta) -> g(-k, -eta), rho_k -> rho_(-k), u_k -> u_(-k), and
        # the datum reflected; the spline of the reflected rows and the
        # series of the reversed slice agree up to roundoff
        model = make_preset(preset)
        g, rho, u, ev = random_source_inputs(seed)
        want = source_of(model, g, rho, u, ev)[:, ::-1]
        got = source_of(model, g[:, ::-1, ::-1], rho[:, ::-1], u[:, ::-1],
                        lambda k, eta: ev(-np.asarray(k), -np.asarray(eta)))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           preset=st.sampled_from(["vp", "screened", "vpme"]))
    def test_conjugation_commutes(self, seed, preset):
        # C: every input conjugated; every coefficient is real, so exactly
        model = make_preset(preset)
        g, rho, u, ev = random_source_inputs(seed)
        want = np.conj(source_of(model, g, rho, u, ev))
        got = source_of(model, g.conj(), rho.conj(), u.conj(),
                        lambda k, eta: np.conj(ev(k, eta)))
        assert np.array_equal(got, want)


class TestIntegrate:
    def test_free_transport_is_constant(self):
        datum = gaussian_datum({1: 1.0})
        start = datum.sample(GRID, 0.0)
        res = integrate(start, zero_field_provider(GRID), TimeGrid(5.0, 0.05),
                        maxwellian())
        assert all(np.array_equal(s.values, start.values) for s in res.states)
        assert res.mass_drift == 0.0 and res.max_reality_drift == 0.0

    def test_backward_then_forward_roundtrip(self):
        datum = gaussian_datum({1: 1.0, 2: 0.25j})
        tg = TimeGrid(3.0, 0.1)
        back = integrate(datum.sample(GRID, 3.0), zero_field_provider(GRID),
                         tg, maxwellian())
        assert back.states[0].time == 0.0
        fwd = integrate(back.states[0], zero_field_provider(GRID), tg,
                        maxwellian())
        assert np.array_equal(fwd.states[-1].values,
                              datum.sample(GRID, 3.0).values)

    def test_rk4_order_on_forced_problem(self):
        # prescribed linear field only: the flow is a smooth forced quadrature
        def provider(state):
            t = state.time
            a = 0.08 * np.exp(-0.3 * t) * (1.0 + 0.5 * np.sin(t))
            u = np.zeros(GRID.n_modes, complex)
            u[GRID.index_of(1)] = a * (1 + 0.2j)
            u[GRID.index_of(-1)] = np.conj(u[GRID.index_of(1)])
            return potentials(u)

        start = gaussian_datum({1: 0.1}).sample(GRID, 0.0)

        def final(dt):
            res = integrate(start, provider, TimeGrid(2.0, dt), maxwellian())
            return res.states[-1].values

        ref = final(0.00625)
        errs = [np.max(np.abs(final(dt) - ref)) for dt in (0.2, 0.1, 0.05)]
        assert errs[0] > 0
        assert 13.0 < errs[0] / errs[1] < 19.0
        assert 13.0 < errs[1] / errs[2] < 19.0

    def test_self_consistent_run_conserves_invariants(self):
        datum = gaussian_datum({1: 1e-4})
        provider = SelfConsistentFieldProvider(SCREENED, GevreyWeight())
        res = integrate(datum.sample(GRID, 0.0), provider, TimeGrid(2.0, 0.05),
                        maxwellian())
        assert res.mass_drift <= 1e-12
        assert res.max_reality_drift <= 1e-12
        # traces stay inside the grid
        for state in res.states:
            assert np.all(np.abs(GRID.k_values * state.time) <= GRID.eta_max)

    def test_start_time_picks_the_direction(self):
        tg = TimeGrid(2.0, 0.1)
        for t, first in ((2.0, -1), (0.0, 0)):
            start = zero_state(GRID, t=t)
            res = integrate(start, zero_field_provider(GRID), tg, maxwellian())
            assert res.states[first] is start  # taken as is, not copied
            assert [s.time for s in res.states] == tg.times.tolist()

    def test_wrong_start_time_rejected(self):
        with pytest.raises(ConfigError, match="must start at"):
            integrate(zero_state(GRID, t=1.0), zero_field_provider(GRID),
                      TimeGrid(2.0, 0.1), maxwellian())

    def test_blow_up_reported(self):
        def provider(state):
            u = np.full(GRID.n_modes, 1e160, dtype=complex)
            u[GRID.origin[0]] = 0.0
            return u, u

        start = gaussian_datum({1: 1.0}).sample(GRID, 0.0)
        # one errstate covers the sweep: the overflow reads as inf and
        # reaches a blow-up check, never a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError, match="reduce dt"):
                integrate(start, provider, TimeGrid(1.0, 0.1), maxwellian())

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data(), k_max=st.integers(1, 2),
           two_streams=st.booleans(),
           direction=st.sampled_from(["forward", "backward"]))
    def test_projection_removes_only_roundoff(self, data, k_max, two_streams,
                                              direction):
        # a real-symmetric start under a real-symmetric field stays
        # real-symmetric up to roundoff, so the per-step projection onto that
        # subspace must remove no more
        grid = PhaseGrid(k_max=k_max, eta_max=2.0, delta_eta=0.5)
        tg = TimeGrid(0.5, 0.25)
        raw = data.draw(arrays(complex, (grid.n_modes, grid.n_eta),
                               elements=UNIT_COMPLEX))
        start_time = tg.times[0] if direction == "forward" else tg.t_final
        start = SpectralState(start_time, grid, real_symmetric(raw))
        linear = real_symmetric(data.draw(arrays(complex, grid.n_modes,
                                                 elements=UNIT_COMPLEX)))
        shear = real_symmetric(data.draw(arrays(complex, grid.n_modes,
                                                elements=UNIT_COMPLEX)))
        for u in (linear, shear):
            u[grid.origin[0]] = 0.0

        def provider(state):
            decay = np.exp(-state.time)
            return 0.5 * decay * linear, 0.5 * decay * shear

        eq = two_stream(1.0, 0.5) if two_streams else maxwellian()
        res = integrate(start, provider, tg, eq)
        assert res.max_reality_drift <= 1e-12
        assert all(state.reality_defect() == 0.0 for state in res.states)


    def test_mu_hat_once_per_stage_time(self):
        # k2 and k3 share a time, and so do k4 and the next step's k1
        base = maxwellian()
        calls = []

        def mu_hat(eta):
            calls.append(np.shape(eta))
            return base.mu_hat(eta)

        eq = dataclasses.replace(base, mu_hat=mu_hat)
        tg = TimeGrid(1.0, 0.1)
        rng = np.random.default_rng(4)
        u = real_symmetric(rng.normal(size=(tg.times.size, GRID.n_modes))
                           + 1j * rng.normal(size=(tg.times.size, GRID.n_modes)))
        u[:, GRID.index_of(0)] = 0.0
        hist = SpectralHistory(times=tg.times, values=1e-3 * u)
        state = gaussian_datum({1: 1e-3}).sample(GRID, 1.0)
        integrate(state, HistoryFieldProvider(hist, hist), tg, eq)
        assert len(calls) == 2 * tg.n_steps + 1
        # a remembered profile gives the bits of a fresh evaluation
        stage = SpectralState(0.55, GRID, state.values)
        u_lin = hist.values[5]
        want = transport_rhs_per_shift(stage, u_lin, u_lin, base)
        for _ in range(2):
            assert np.array_equal(transport_rhs(stage, u_lin, u_lin, eq), want)


def random_history(tg, grid, seed, scale):
    """A real-symmetric potential history with every nonzero mode populated."""
    rng = np.random.default_rng(seed)
    shape = (tg.times.size, grid.n_modes)
    u = real_symmetric(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    u[:, grid.k_max] = 0.0
    return SpectralHistory(times=tg.times, values=scale * u)


class TestLeanStage:
    """The sweep's remembered lookup plans and copy-free stage states."""

    def test_remembered_plan_reads_bit_for_bit(self):
        grid = PhaseGrid(2, 16.0, 0.125)
        rng = np.random.default_rng(21)
        shape = (grid.n_modes, grid.n_eta)
        interps = [SpectralState(0.0, grid, rng.normal(size=shape)
                                 + 1j * rng.normal(size=shape)).interpolant()
                   for _ in range(2)]
        ells = np.array([-2, -1, 1, 2])[:, None]
        # two stage times, the second with rows past both ends of the grid
        blocks = {"a": grid.eta - ells * 1.3, "b": grid.eta - ells * 10.45}
        blocks["a_rows"] = blocks["a"][[0, 2, 3]]  # a fancy-indexed copy
        fresh = {}
        for name, block in blocks.items():
            for i, interp in enumerate(interps):
                _row_plans.cache_clear()
                fresh[name, i] = interp.all_rows(block)
        _row_plans.cache_clear()
        reads = ["a", "b", "a", "b", "b", "a_rows", "a", "a_rows"]
        for name in reads:
            for i, interp in enumerate(interps):
                # an equal copy of a block reads its remembered plan
                got = interp.all_rows(np.array(blocks[name]))
                assert np.array_equal(got, fresh[name, i]), (name, i)
        info = _row_plans.cache_info()
        assert info.maxsize == 2 and info.currsize == 2
        # a new plan for "a", "b", "a_rows" and "a" again (pushed out)
        assert info.misses == 4 and info.hits == 2 * len(reads) - 4

    def test_backward_sweep_builds_one_plan_per_stage_time(self, monkeypatch):
        tg = TimeGrid(1.0, 0.1)
        hist = random_history(tg, GRID, 6, 1e-3)
        kept = []
        read = StateInterpolant.all_rows

        def all_rows(self, eta):
            out = read(self, eta)
            kept.append(_row_plans.cache_info().currsize)
            return out

        monkeypatch.setattr(StateInterpolant, "all_rows", all_rows)
        _row_plans.cache_clear()
        start = gaussian_datum({1: 1e-3, 2: 4e-4}).sample(GRID, 1.0)
        integrate(start, HistoryFieldProvider(hist, hist), tg, maxwellian())
        n = tg.n_steps
        info = _row_plans.cache_info()
        assert len(kept) == 4 * n and max(kept) <= 2
        # one plan per stage time: n + 1 grid times and n midpoints
        assert info.misses == 2 * n + 1 and info.hits == 2 * n - 1

    @staticmethod
    def backward_case():
        tg = TimeGrid(2.0, 0.1)
        hist = random_history(tg, GRID, 11, 2e-3)
        start = gaussian_datum({1: 1e-3, 2: 4e-4j}).sample(GRID, 2.0)
        return start, lambda: HistoryFieldProvider(hist, hist), tg

    @staticmethod
    def forward_case():
        start = gaussian_datum({1: 1e-3, 2: 3e-4j}).sample(GRID, 0.0)
        # the gate is opened so that the field is the nonlinear one
        model, w = make_preset("vpme", eps_ball=1e30), GevreyWeight()
        return (start, lambda: SelfConsistentFieldProvider(model, w),
                TimeGrid(1.5, 0.05))

    @pytest.mark.parametrize("case", ["backward_case", "forward_case"])
    def test_trajectory_equals_the_copying_loop(self, case):
        start, provider, tg = getattr(self, case)()
        res = integrate(start, provider(), tg, maxwellian())
        states, drift, mass = integrate_copying(start, provider(), tg,
                                                maxwellian())
        assert [s.time for s in res.states] == [s.time for s in states]
        assert all(np.array_equal(a.values, b.values)
                   for a, b in zip(res.states, states))
        assert res.max_reality_drift == drift and res.mass_drift == mass
        assert drift > 0.0  # the projection had roundoff to remove

    @pytest.mark.parametrize("case", ["backward_case", "forward_case"])
    def test_stage_states_are_read_only_and_unshared(self, case):
        start, make_provider, tg = getattr(self, case)()
        inner = make_provider()
        seen = []

        def provider(stage):
            seen.append(stage)
            return inner(stage)

        res = integrate(start, provider, tg, maxwellian())
        assert len(seen) == 4 * tg.n_steps
        for state in seen + list(res.states):
            assert not state.values.flags.writeable
            assert state.values.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                state.values[0, 0] = 1.0
        distinct = list({id(s): s for s in seen + list(res.states)}.values())
        for i, a in enumerate(distinct):
            for b in distinct[i + 1:]:
                assert not np.shares_memory(a.values, b.values)


class TestSourceAssembly:
    def setup_method(self):
        self.tg = TimeGrid(3.0, 0.25)
        self.datum = gaussian_datum({1: 1.0})
        self.states = [
            SpectralState(float(t), GRID,
                          1e-3 * self.datum.sample(GRID, float(t)).values)
            for t in self.tg.times]
        n_t = self.tg.times.size
        self.zero_rho = DensityHistory(
            times=self.tg.times, values=np.zeros((n_t, GRID.n_modes), complex))
        self.zero_u = SpectralHistory(
            times=self.tg.times, values=np.zeros((n_t, GRID.n_modes), complex))

    def rho_history(self, amp):
        vals = np.zeros((self.tg.times.size, GRID.n_modes), complex)
        vals[:, GRID.index_of(1)] = amp * np.exp(-0.2 * self.tg.times)
        vals[:, GRID.index_of(-1)] = np.conj(vals[:, GRID.index_of(1)])
        return DensityHistory(times=self.tg.times, values=vals)

    def test_vanishing_corrections_leave_datum_trace(self):
        got = assemble_source(SCREENED, self.states, self.zero_rho,
                              self.zero_u, self.datum, 1.0)
        assert np.array_equal(got, self.datum.trace(GRID.k_values, 1.0))

    def test_history_correction_is_linear_in_density(self):
        base = self.datum.trace(GRID.k_values, 0.5)
        s_full = assemble_source(SCREENED, self.states, self.rho_history(1e-3),
                                 self.zero_u, self.datum, 0.5)
        s_half = assemble_source(SCREENED, self.states, self.rho_history(5e-4),
                                 self.zero_u, self.datum, 0.5)
        ratio = np.linalg.norm(s_full - base) / np.linalg.norm(s_half - base)
        assert ratio == pytest.approx(2.0, abs=1e-12)

    def test_mean_mode_sees_only_series_term(self):
        vpme = make_preset("vpme")
        u_vals = np.zeros((self.tg.times.size, GRID.n_modes), complex)
        u_vals[:, GRID.index_of(1)] = 0.01
        u_vals[:, GRID.index_of(-1)] = 0.01
        u_hist = SpectralHistory(times=self.tg.times, values=u_vals)
        got = assemble_source(vpme, self.states, self.rho_history(1e-3),
                              u_hist, self.datum, 0.5)
        want = -h_of_field(vpme, u_vals[2])[GRID.index_of(0)]
        assert got[GRID.index_of(0)] == want

    def test_history_assembler_matches_single_time_op(self):
        vpme = make_preset("vpme")
        u_vals = np.zeros((self.tg.times.size, GRID.n_modes), complex)
        u_vals[:, GRID.index_of(1)] = 0.01 * np.exp(-0.1 * self.tg.times)
        u_vals[:, GRID.index_of(-1)] = np.conj(u_vals[:, GRID.index_of(1)])
        u_hist = SpectralHistory(times=self.tg.times, values=u_vals)
        rho = self.rho_history(1e-3)
        hist = assemble_source_history(vpme, self.states, rho, u_hist, self.datum)
        worst = 0.0
        for i, t in enumerate(self.tg.times):
            direct = assemble_source(vpme, self.states, rho, u_hist,
                                     self.datum, float(t))
            worst = max(worst, float(np.max(np.abs(hist.values[i] - direct))))
        assert worst <= 1e-15

    def test_one_lookup_per_slice_with_density(self, monkeypatch):
        vals = self.rho_history(1e-3).values.copy()
        vals[3] = 0.0  # a slice with no density: no spline, no lookup
        vals[5, GRID.index_of(-1)] = 0.0  # one transfer mode left
        rho = DensityHistory(times=self.tg.times, values=vals)
        builds = count_calls(monkeypatch, "__init__")
        lookups = count_calls(monkeypatch, "at_pairs")
        assemble_source_history(SCREENED, self.states, rho, self.zero_u,
                                self.datum)
        n_t = self.tg.times.size
        assert len(lookups) == len(builds) == n_t - 2
        # one (ell, earlier slice, mode) block per call, slice 3 skipped
        slices = [j for j in range(1, n_t) if j != 3]
        assert [args[1].shape for args in lookups] == [
            (1 if j == 5 else 2, j, GRID.n_modes) for j in slices]

    @pytest.mark.parametrize("preset", ["vp", "screened", "vpme"])
    def test_matches_per_mode_oracle_bit_for_bit(self, preset):
        model = make_preset(preset)
        rng = np.random.default_rng(len(preset))
        n_t = self.tg.times.size
        shape = (n_t, GRID.n_modes)
        vals, u_vals = (amp * (rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape))
                        for amp in (1e-3, 1e-2))
        vals = (vals + np.conj(vals[:, ::-1])) / 2.0  # real slices
        u_vals = (u_vals + np.conj(u_vals[:, ::-1])) / 2.0
        vals[:, GRID.index_of(0)] = 0.0
        vals[3] = 0.0  # an empty slice
        vals[5, GRID.k_values != 2] = 0.0  # a one-mode slice
        vals[6, GRID.index_of(2)] = 0.0  # three modes
        rho = DensityHistory(times=self.tg.times, values=vals)
        u_hist = SpectralHistory(times=self.tg.times, values=u_vals)
        datum = gaussian_datum({1: 0.3 - 0.1j, 2: 0.05j}, width=1.5)
        # every mode row populated, so each column gathers several terms
        profile = np.exp(-0.25 * GRID.eta**2)
        states = [SpectralState(
            float(t), GRID, 1e-3 * profile * (rng.standard_normal(GRID.n_modes)
                                              + 1j * rng.standard_normal(GRID.n_modes))[:, None])
            for t in self.tg.times]
        got = assemble_source_history(model, states, rho, u_hist, datum)
        want = source_history_per_mode(model, states, rho, u_hist, datum)
        assert np.array_equal(got.values, want)
        # the half-weighted last slice reaches every earlier time
        assert np.all(vals[-1, GRID.k_values != 0] != 0.0)

    def test_one_datum_trace_per_assembly(self, monkeypatch):
        calls = []
        trace = AsymptoticDatum.trace

        def counted(datum, k, t):
            calls.append((np.shape(k), np.shape(t)))
            return trace(datum, k, t)

        monkeypatch.setattr(AsymptoticDatum, "trace", counted)
        assemble_source_history(SCREENED, self.states, self.rho_history(1e-3),
                                self.zero_u, self.datum)
        n_t = self.tg.times.size
        assert calls == [((1, GRID.n_modes), (n_t, 1))]

    def test_grid_mismatch_rejected(self):
        bad_rho = DensityHistory(
            times=self.tg.times,
            values=np.zeros((self.tg.times.size, 7), complex))
        with pytest.raises(ConfigError, match="lattice"):
            assemble_source_history(SCREENED, self.states, bad_rho,
                                    self.zero_u, self.datum)
        short_u = SpectralHistory(times=self.tg.times[:-1],
                                  values=np.zeros((self.tg.n_steps, GRID.n_modes)))
        with pytest.raises(ConfigError, match="not on the state time grid"):
            assemble_source_history(SCREENED, self.states, self.zero_rho,
                                    short_u, self.datum)


class TestFieldProviders:
    def test_history_provider_reproduces_cubic_histories(self):
        # degree-3 stage interpolation is exact on polynomial histories
        tg = TimeGrid(3.0, 0.25)
        vals = np.zeros((tg.times.size, GRID.n_modes), complex)
        vals[:, GRID.index_of(1)] = tg.times
        vals[:, GRID.index_of(2)] = tg.times ** 3 - 2.0 * tg.times ** 2
        hist = SpectralHistory(times=tg.times, values=vals)
        provider = HistoryFieldProvider(hist, hist)
        lin, nl = provider(zero_state(GRID, t=1.125))
        assert np.array_equal(lin, nl)
        assert lin.shape == (GRID.n_modes,)
        assert lin[GRID.index_of(1)] == 1.125
        want = 1.125 ** 3 - 2.0 * 1.125 ** 2
        assert abs(lin[GRID.index_of(2)] - want) <= 1e-14
        # and node hits return the stored slice exactly
        node, _ = provider(zero_state(GRID, t=0.75))
        assert np.array_equal(node, vals[3])

    def test_history_provider_keeps_histories_apart(self):
        tg = TimeGrid(1.0, 0.25)
        ones = np.ones((tg.times.size, GRID.n_modes), complex)
        lin_hist = SpectralHistory(times=tg.times, values=ones)
        nl_hist = SpectralHistory(times=tg.times, values=2.0 * ones)
        lin, nl = HistoryFieldProvider(lin_hist, nl_hist)(zero_state(GRID, t=0.5))
        assert np.array_equal(lin, ones[0]) and np.array_equal(nl, 2.0 * ones[0])

    @pytest.mark.parametrize("n_steps", [2, 8], ids=["linear", "cubic"])
    def test_history_provider_matches_per_history_route(self, n_steps):
        tg = TimeGrid(0.25 * n_steps, 0.25)
        rng = np.random.default_rng(6)
        shape = (tg.times.size, GRID.n_modes)
        lin, nl = (SpectralHistory(times=tg.times, values=rng.normal(size=shape)
                                   + 1j * rng.normal(size=shape))
                   for _ in range(2))
        provider = HistoryFieldProvider(lin, nl)
        mids = (tg.times[:-1] + tg.times[1:]) / 2.0
        for t in np.concatenate([tg.times, mids, [0.3, tg.t_final - 0.01]]):
            got_lin, got_nl = provider(zero_state(GRID, t=float(t)))
            assert np.array_equal(got_lin, history_slice(lin, t))
            assert np.array_equal(got_nl, history_slice(nl, t))

    def test_history_provider_remembers_two_stage_times(self):
        # RK4 asks for each stage time twice in a row; a time a hair away
        # from a remembered one is a new entry
        tg = TimeGrid(1.0, 0.25)
        rng = np.random.default_rng(8)
        shape = (tg.times.size, GRID.n_modes)
        lin, nl = (SpectralHistory(times=tg.times, values=rng.normal(size=shape)
                                   + 1j * rng.normal(size=shape))
                   for _ in range(2))
        provider = HistoryFieldProvider(lin, nl)
        t_a, t_c = 0.3, 0.8
        t_b = t_a + 2.0**-30
        for t in (t_a, t_b, t_a, t_c, t_b):
            got = provider(zero_state(GRID, t=t))
            want = HistoryFieldProvider(lin, nl)(zero_state(GRID, t=t))
            for g, fresh in zip(got, want):
                assert np.array_equal(g, fresh)
                assert not g.flags.writeable

    def test_history_provider_time_range(self):
        tg = TimeGrid(1.0, 0.25)
        vals = np.zeros((tg.times.size, GRID.n_modes), complex)
        hist = SpectralHistory(times=tg.times, values=vals)
        provider = HistoryFieldProvider(hist, hist)
        with pytest.raises(ConfigError, match="outside"):
            provider(zero_state(GRID, t=1.5))

    def test_self_consistent_provider_matches_trace(self):
        state = gaussian_datum({1: 1e-3}).sample(GRID, 2.0)
        provider = SelfConsistentFieldProvider(SCREENED, GevreyWeight())
        lin, nl = provider(state)
        assert lin is nl
        q = density_trace(state)
        k = GRID.k_values.astype(float)
        want = np.where(k == 0, 0, q / (1.0 + k**2))
        assert np.max(np.abs(lin - want)) <= 1e-15

    def test_zero_provider_returns_zero_arrays(self):
        lin, nl = zero_field_provider(GRID)(zero_state(GRID))
        assert lin.shape == nl.shape == (GRID.n_modes,)
        assert np.all(lin == 0) and np.all(nl == 0)
