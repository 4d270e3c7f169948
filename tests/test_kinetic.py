"""Spectral state plumbing, transport right-hand side, and the RK4 sweep."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from vpscatter.errors import BlowUpError, ConfigError
from vpscatter.field import FieldSnapshot
from vpscatter.gevrey import GevreyWeight
from vpscatter.kinetic import (AsymptoticDatum, HistoryFieldProvider, PhaseGrid,
                               SelfConsistentFieldProvider, SpectralState,
                               StateInterpolant, TimeGrid, TruncationCounter,
                               assemble_source, assemble_source_history,
                               density_trace, gaussian_datum, integrate,
                               transport_rhs, zero_field_provider)
from vpscatter.model import make_preset, maxwellian
from vpscatter.volterra import DensityHistory, SpectralHistory

GRID = PhaseGrid(k_max=2, eta_max=8.0, delta_eta=0.125)
SCREENED = make_preset("screened")


def snapshot(grid, u_hat, model=SCREENED):
    u = np.asarray(u_hat, dtype=complex)
    k = grid.k_values
    return FieldSnapshot(k_values=k, u_hat=u, e_hat=-1j * k * u,
                         rho_hat=(model.beta + k.astype(float) ** 2) * u)


def zero_state(grid, t=0.0):
    return SpectralState(t, grid, np.zeros((grid.n_modes, grid.n_eta), complex))


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
        with pytest.raises(ConfigError, match="density trace"):
            grid.validate_horizon(26.0, 1.5)

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

    def test_mean_zero_enforced(self):
        evaluator = lambda k, eta: np.full(np.broadcast(k, eta).shape, 1.0 + 0j)
        with pytest.raises(ConfigError, match="mean-zero"):
            AsymptoticDatum(evaluator=evaluator, amplitude=1.0, width=1.0)

    def test_sample_is_symmetric(self):
        state = gaussian_datum({1: 0.5 - 0.25j}).sample(GRID, 3.0)
        assert state.time == 3.0
        assert state.reality_defect() == 0.0
        assert state.mass_mode() == 0.0


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
        counter = TruncationCounter()
        probe = np.array([0.0, 9.0, -8.5, 3.25])
        got = StateInterpolant(state).at_pairs(np.ones(4, int), probe, counter)
        assert got[1] == 0.0 and got[2] == 0.0
        assert counter.evaluations == 4 and counter.truncated == 2
        assert counter.fraction == 0.5

    def test_off_lattice_mode_reads_zero_uncounted(self):
        state = gaussian_datum({1: 1.0}).sample(GRID, 0.0)
        counter = TruncationCounter()
        got = StateInterpolant(state).at_pairs(
            np.array([5, -3, 1]), np.array([0.0, 9.0, 0.0]), counter)
        assert got[0] == 0.0 and got[1] == 0.0
        assert got[2] == state.values[GRID.index_of(1), GRID.origin[1]]
        assert counter.evaluations == 3 and counter.truncated == 0


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
        want = CubicSpline(grid.eta, state.values, axis=1)(probe)
        interp = StateInterpolant(state)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(interp.all_rows(probe) - want)) <= 1e-13 * scale
        rows = rng.integers(0, grid.n_modes, probe.size)
        got = interp.at_pairs(grid.k_values[rows], probe)
        assert np.max(np.abs(got - want[rows, np.arange(probe.size)])) \
            <= 1e-13 * scale

    def test_inner_nodes_bit_exact(self, grid, kind):
        state, _, _ = self.make_case(grid, kind)
        interp = StateInterpolant(state)
        inner = grid.eta[1:-1]
        assert np.array_equal(interp.all_rows(inner), state.values[:, 1:-1])
        k = np.repeat(grid.k_values, inner.size)
        got = interp.at_pairs(k, np.tile(inner, grid.n_modes))
        assert np.array_equal(got, state.values[:, 1:-1].ravel())

    def test_pairs_equal_matching_row(self, grid, kind):
        state, probe, rng = self.make_case(grid, kind)
        interp = StateInterpolant(state)
        rows = rng.integers(0, grid.n_modes, probe.size)
        got = interp.at_pairs(grid.k_values[rows], probe)
        assert np.array_equal(got, interp.all_rows(probe)[rows, np.arange(probe.size)])

    def test_density_trace_at_node_times(self, grid, kind):
        state, _, _ = self.make_case(grid, kind)
        n_half = grid.n_eta // 2
        for j in (0, 1, n_half // (2 * grid.k_max), n_half // grid.k_max - 1):
            t = j * grid.delta_eta
            moved = SpectralState(t, grid, state.values)
            want = state.values[np.arange(grid.n_modes), n_half + grid.k_values * j]
            assert np.array_equal(density_trace(moved), want)


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
                        TimeGrid(4.0, 0.1), maxwellian(), direction="forward")
        worst = max(abs(density_trace(s)[GRID.index_of(1)]
                        - np.exp(-s.time**2 / 2)) for s in res.states)
        assert worst <= 5e-6


class TestTransportRhs:
    def test_zero_fields_give_exact_zero(self):
        state = gaussian_datum({1: 1.0}).sample(GRID, 1.0)
        zero = snapshot(GRID, np.zeros(GRID.n_modes))
        rhs = transport_rhs(state, zero, zero, maxwellian())
        assert np.all(rhs == 0.0)

    def test_linear_term_pointwise(self):
        u = np.zeros(GRID.n_modes, complex)
        u[GRID.index_of(1)] = 0.3 + 0.1j
        u[GRID.index_of(-1)] = 0.3 - 0.1j
        field = snapshot(GRID, u)
        zero = snapshot(GRID, np.zeros(GRID.n_modes))
        rhs = transport_rhs(zero_state(GRID, t=1.5), field, zero, maxwellian())
        shear = GRID.eta - 1.5
        want = -shear * (0.3 + 0.1j) * np.exp(-shear**2 / 2)
        assert np.array_equal(rhs[GRID.index_of(1)], want)
        assert rhs[GRID.origin] == 0.0

    def test_shear_term_row_shift(self):
        # cubic row is reproduced exactly by the spline, isolating indexing
        grid = PhaseGrid(k_max=2, eta_max=6.0, delta_eta=0.25)
        phi = 0.002 * (grid.eta**3 - 3.0 * grid.eta)
        vals = np.zeros((grid.n_modes, grid.n_eta), complex)
        vals[grid.index_of(0)] = phi
        state = SpectralState(0.6, grid, vals)
        u = np.zeros(grid.n_modes, complex)
        u[grid.index_of(1)] = 0.05 + 0.02j
        zero = snapshot(grid, np.zeros(grid.n_modes))
        rhs = transport_rhs(state, zero, snapshot(grid, u), maxwellian())
        shift = grid.eta - 0.6
        want = np.where(np.abs(shift) <= 6.0,
                        -shift * (0.05 + 0.02j)
                        * 0.002 * (shift**3 - 3.0 * shift), 0.0)
        assert np.max(np.abs(rhs[grid.index_of(1)] - want)) <= 1e-12
        others = np.delete(np.arange(grid.n_modes), grid.index_of(1))
        assert np.all(rhs[others] == 0.0)

    def test_lattice_mismatch_rejected(self):
        other = PhaseGrid(k_max=3, eta_max=8.0, delta_eta=0.125)
        field = snapshot(other, np.zeros(other.n_modes))
        with pytest.raises(ConfigError, match="lattice"):
            transport_rhs(zero_state(GRID), field, field, maxwellian())


class TestIntegrate:
    def test_free_transport_is_constant(self):
        datum = gaussian_datum({1: 1.0})
        start = datum.sample(GRID, 0.0)
        res = integrate(start, zero_field_provider(GRID), TimeGrid(5.0, 0.05),
                        maxwellian(), direction="forward")
        assert all(np.array_equal(s.values, start.values) for s in res.states)
        assert res.mass_drift == 0.0 and res.max_reality_drift == 0.0

    def test_backward_then_forward_roundtrip(self):
        datum = gaussian_datum({1: 1.0, 2: 0.25j})
        tg = TimeGrid(3.0, 0.1)
        back = integrate(datum.sample(GRID, 3.0), zero_field_provider(GRID),
                         tg, maxwellian(), direction="backward")
        assert back.states[0].time == 0.0
        fwd = integrate(back.states[0], zero_field_provider(GRID), tg,
                        maxwellian(), direction="forward")
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
            zero = snapshot(GRID, np.zeros(GRID.n_modes))
            return snapshot(GRID, u), zero

        start = gaussian_datum({1: 0.1}).sample(GRID, 0.0)

        def final(dt):
            res = integrate(start.copy(), provider, TimeGrid(2.0, dt),
                            maxwellian(), direction="forward",
                            resymmetrize=False)
            return res.states[-1].values

        ref = final(0.00625)
        errs = [np.max(np.abs(final(dt) - ref)) for dt in (0.2, 0.1, 0.05)]
        assert errs[0] > 0
        assert 13.0 < errs[0] / errs[1] < 19.0
        assert 13.0 < errs[1] / errs[2] < 19.0

    def test_self_consistent_run_conserves_invariants(self):
        datum = gaussian_datum({1: 1e-4})
        counter = TruncationCounter()
        provider = SelfConsistentFieldProvider(SCREENED, GevreyWeight(),
                                               counter=counter)
        res = integrate(datum.sample(GRID, 0.0), provider, TimeGrid(2.0, 0.05),
                        maxwellian(), direction="forward")
        assert res.mass_drift <= 1e-12
        assert res.max_reality_drift <= 1e-12
        assert counter.truncated == 0  # traces stay inside the grid
        assert res.counter.evaluations > 0  # shear lookups were interpolated

    def test_wrong_start_time_rejected(self):
        state = zero_state(GRID, t=1.0)
        with pytest.raises(ConfigError, match="start"):
            integrate(state, zero_field_provider(GRID), TimeGrid(2.0, 0.1),
                      maxwellian(), direction="forward")
        with pytest.raises(ConfigError, match="direction"):
            integrate(state, zero_field_provider(GRID), TimeGrid(2.0, 0.1),
                      maxwellian(), direction="sideways")

    def test_blow_up_reported(self):
        def provider(state):
            u = np.full(GRID.n_modes, 1e160, dtype=complex)
            u[GRID.origin[0]] = 0.0
            snap = snapshot(GRID, u)
            return snap, snap

        start = gaussian_datum({1: 1.0}).sample(GRID, 0.0)
        with pytest.raises(BlowUpError, match="reduce dt"):
            integrate(start, provider, TimeGrid(1.0, 0.1), maxwellian(),
                      direction="forward")

    def test_boundary_warning_on_narrow_grid(self):
        narrow = PhaseGrid(k_max=1, eta_max=2.0, delta_eta=0.125)
        datum = gaussian_datum({1: 1.0})
        with pytest.warns(RuntimeWarning, match="grid is too small"):
            integrate(datum.sample(narrow, 0.0), zero_field_provider(narrow),
                      TimeGrid(1.0, 0.1), maxwellian(), direction="forward",
                      boundary_tol=1e-8)


class TestSourceAssembly:
    def setup_method(self):
        self.tg = TimeGrid(3.0, 0.25)
        self.datum = gaussian_datum({1: 1.0})
        self.states = [self.datum.sample(GRID, float(t)) for t in self.tg.times]
        for s in self.states:
            s.values *= 1e-3
        n_t = self.tg.times.size
        self.zero_rho = DensityHistory(
            times=self.tg.times, k_values=GRID.k_values,
            values=np.zeros((n_t, GRID.n_modes), complex))
        self.zero_u = SpectralHistory(
            times=self.tg.times, k_values=GRID.k_values,
            values=np.zeros((n_t, GRID.n_modes), complex))

    def rho_history(self, amp):
        vals = np.zeros((self.tg.times.size, GRID.n_modes), complex)
        vals[:, GRID.index_of(1)] = amp * np.exp(-0.2 * self.tg.times)
        vals[:, GRID.index_of(-1)] = np.conj(vals[:, GRID.index_of(1)])
        return DensityHistory(times=self.tg.times, k_values=GRID.k_values,
                              values=vals)

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
        u_hist = SpectralHistory(times=self.tg.times, k_values=GRID.k_values,
                                 values=u_vals)
        got = assemble_source(vpme, self.states, self.rho_history(1e-3),
                              u_hist, self.datum, 0.5)
        from vpscatter.field import h_of_field
        want = -h_of_field(vpme, GRID.k_values, u_vals[2]).values[GRID.index_of(0)]
        assert got[GRID.index_of(0)] == want

    def test_history_assembler_matches_single_time_op(self):
        vpme = make_preset("vpme")
        u_vals = np.zeros((self.tg.times.size, GRID.n_modes), complex)
        u_vals[:, GRID.index_of(1)] = 0.01 * np.exp(-0.1 * self.tg.times)
        u_vals[:, GRID.index_of(-1)] = np.conj(u_vals[:, GRID.index_of(1)])
        u_hist = SpectralHistory(times=self.tg.times, k_values=GRID.k_values,
                                 values=u_vals)
        rho = self.rho_history(1e-3)
        hist = assemble_source_history(vpme, self.states, rho, u_hist, self.datum)
        worst = 0.0
        for i, t in enumerate(self.tg.times):
            direct = assemble_source(vpme, self.states, rho, u_hist,
                                     self.datum, float(t))
            worst = max(worst, float(np.max(np.abs(hist.values[i] - direct))))
        assert worst <= 1e-15

    def test_grid_mismatch_rejected(self):
        bad_rho = DensityHistory(
            times=self.tg.times, k_values=np.arange(-3, 4),
            values=np.zeros((self.tg.times.size, 7), complex))
        with pytest.raises(ConfigError, match="lattice"):
            assemble_source(SCREENED, self.states, bad_rho, self.zero_u,
                            self.datum, 1.0)
        with pytest.raises(ConfigError, match="not on the history grid"):
            assemble_source(SCREENED, self.states, self.zero_rho, self.zero_u,
                            self.datum, 1.03)


class TestFieldProviders:
    def test_history_provider_reproduces_cubic_histories(self):
        # degree-3 stage interpolation is exact on polynomial histories
        tg = TimeGrid(3.0, 0.25)
        vals = np.zeros((tg.times.size, GRID.n_modes), complex)
        vals[:, GRID.index_of(1)] = tg.times
        vals[:, GRID.index_of(2)] = tg.times ** 3 - 2.0 * tg.times ** 2
        hist = SpectralHistory(times=tg.times, k_values=GRID.k_values,
                               values=vals)
        provider = HistoryFieldProvider(SCREENED, hist, hist)
        lin, nl = provider(zero_state(GRID, t=1.125))
        assert lin is nl
        assert lin.u_hat[GRID.index_of(1)] == 1.125
        want = 1.125 ** 3 - 2.0 * 1.125 ** 2
        assert abs(lin.u_hat[GRID.index_of(2)] - want) <= 1e-14
        # and node hits return the stored slice exactly
        node, _ = provider(zero_state(GRID, t=0.75))
        assert node.u_hat[GRID.index_of(1)] == 0.75

    def test_history_provider_time_range(self):
        tg = TimeGrid(1.0, 0.25)
        vals = np.zeros((tg.times.size, GRID.n_modes), complex)
        hist = SpectralHistory(times=tg.times, k_values=GRID.k_values,
                               values=vals)
        provider = HistoryFieldProvider(SCREENED, hist, hist)
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
        assert np.max(np.abs(lin.u_hat - want)) <= 1e-15
