"""Config parsing, artifact formats, and command exit codes."""

import contextlib
import dataclasses
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import load_state_csv

from vpscatter import (PhaseGrid, SpectralState, cli, dispersion, errors,
                       scattering)
from vpscatter.cli import (EXIT_CONFIG, EXIT_HYPOTHESIS, EXIT_NUMERICAL,
                           EXIT_OK, config_from_mapping, main, parse_config,
                           run_command, write_state_csv)
from vpscatter.dispersion import dispersion_on_axis
from vpscatter.errors import ConfigError, NumericalError
from vpscatter.field import poisson_fixed_point
from vpscatter.kinetic import density_trace, horizon_violation
from vpscatter.model import make_preset, maxwellian


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SMALL_RUN = """
grid.kmax = 1
grid.eta_max = 10.0
grid.delta_eta = 0.5
grid.dt = 0.25
grid.t_final = 4.0
"""

# a background the penrose scan finds unstable under vp (winding 1 at k = +-1)
TWO_STREAM_V1 = "equilibrium.kind = two_stream\nequilibrium.v0 = 1.0\n"

# two modes on a wider frequency grid: a 1e200 datum overflows its backward
# source there
WIDE_RUN = """
grid.kmax = 2
grid.eta_max = 16.0
grid.delta_eta = 0.5
grid.t_final = 4.0
grid.dt = 0.25
"""

# a forward run long enough for three field peaks inside the fit window
DAMP_RUN = """
grid.kmax = 1
grid.eta_max = 16.0
grid.delta_eta = 0.5
grid.dt = 0.1
grid.t_final = 8.0
fit.t_start = 0.5
fit.t_end = 7.5
"""


def _takes_a_float(spec) -> bool:
    try:
        return isinstance(spec.convert("0.5"), float)
    except ValueError:
        return False


# every key read as a float, plus the datum amplitudes
FLOAT_KEYS = sorted(key for key, spec in cli.SCHEMA.items()
                    if _takes_a_float(spec)) + ["datum.modes"]


class TestConfigParsing:
    def test_defaults_resolve(self):
        cfg = config_from_mapping({})
        assert cfg["model.preset"] == "vp"
        assert cfg["grid.kmax"] == 2
        assert cfg["datum.modes"] == {1: 1e-3}
        assert cfg["poisson.eps_ball"] is None
        assert cfg["verbose"] is False

    def test_file_with_comments_and_blanks(self, tmp_path):
        path = write_config(tmp_path, """
# sweep setup
grid.kmax = 2            # both datum modes on the lattice
grid.eta_max = 14.0
grid.t_final = 4.0

datum.modes = 1:2e-3, 2:1e-3
verbose = yes
""")
        cfg = parse_config(path)
        assert cfg["grid.kmax"] == 2
        assert cfg["datum.modes"] == {1: 2e-3, 2: 1e-3}
        assert cfg["verbose"] is True

    def test_unknown_key_lists_valid_ones(self, tmp_path):
        path = write_config(tmp_path, "grid.kmx = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "grid.kmx" in str(err.value)
        assert "grid.kmax" in str(err.value)

    def test_parse_error_cites_line(self, tmp_path):
        path = write_config(tmp_path, "grid.kmax = 1\ngrid.dt 0.1\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "grid.kmax = 1\ngrid.kmax = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.cfg")

    def test_bad_value_names_key(self, tmp_path):
        path = write_config(tmp_path, "grid.kmax = two\n")
        with pytest.raises(ConfigError, match="grid.kmax"):
            parse_config(path)

    def test_index_range_enforced(self):
        with pytest.raises(ConfigError, match=r"\(1/3, 1\)"):
            config_from_mapping({"gevrey.gamma": "0.3"})

    def test_horizon_hypothesis_enforced(self):
        with pytest.raises(ConfigError, match="density trace") as err:
            config_from_mapping({"grid.eta_max": "5.0",
                                 "grid.t_final": "32.0"})
        # the config check and PhaseGrid.validate_horizon share one message
        assert f"grid.{horizon_violation(2, 5.0, 32.0, 1.0)}" in str(err.value)

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_penrose_samples_range_enforced(self, tmp_path, capsys, samples):
        message = f"penrose.samples must be at least 1, got {samples}"
        with pytest.raises(ConfigError, match=message):
            config_from_mapping({"penrose.samples": samples})
        path = write_config(tmp_path, f"penrose.samples = {samples}\n")
        assert main(["penrose", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: config violates 1 hypothesis(es):",
            f"  - {message}"]

    @pytest.mark.parametrize("kind", ["maxwellian", "two_stream", "bump_on_tail"])
    @pytest.mark.parametrize("key, value, message", [
        ("equilibrium.width", "-0.5", "equilibrium.width must be positive, got -0.5"),
        ("equilibrium.width", "0.0", "equilibrium.width must be positive, got 0.0"),
        ("equilibrium.alpha", "7", "equilibrium.alpha must lie in (0, 1), got 7.0"),
        ("equilibrium.alpha", "1.0", "equilibrium.alpha must lie in (0, 1), got 1.0"),
    ])
    def test_background_shape_range_enforced(self, tmp_path, capsys, kind, key,
                                             value, message):
        # the Maxwellian reads neither key, but a bad value must not reach
        # the manifest as if it had been used
        raw = {"equilibrium.kind": kind, key: value}
        with pytest.raises(ConfigError) as err:
            config_from_mapping(raw)
        assert str(err.value).endswith(f"  - {message}")
        path = write_config(tmp_path, "".join(f"{name} = {text}\n"
                                              for name, text in raw.items()))
        out = tmp_path / "out"
        assert main(["penrose", "--config", str(path), "--out", str(out)]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: config violates 1 hypothesis(es):", f"  - {message}"]
        assert not out.exists()

    def test_violations_are_collected(self):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"gevrey.gamma": "0.2",
                                 "gevrey.b": "9.0",
                                 "gevrey.sigma": "10.5"})
        message = str(err.value)
        assert "gamma" in message and "b = 9.0" in message \
            and "sigma" in message

    def test_mode_zero_rejected(self):
        with pytest.raises(ConfigError, match="k=0"):
            config_from_mapping({"datum.modes": "0:1e-3"})

    def test_repeated_mode_rejected(self):
        with pytest.raises(ConfigError, match="twice"):
            config_from_mapping({"datum.modes": "1:1e-3,1:2e-3"})

    def test_unequal_mirror_amplitudes_rejected(self, tmp_path, capsys):
        # the datum is real, so -k carries the amplitude of k; another one
        # was silently averaged away by the real projection of every step
        for raw in ("1:1e-3,-1:2e-3", "-1:2e-3,2:5e-4,1:1e-3"):
            with pytest.raises(ConfigError, match="datum.modes: modes .*"
                               "carry different amplitudes"):
                config_from_mapping({"datum.modes": raw})
        path = write_config(tmp_path, SMALL_RUN + "datum.modes = 1:1e-3,-1:2e-3\n")
        out = tmp_path / "out"
        code = main(["scatter", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_CONFIG
        assert len(err) == 1 and "bad value for datum.modes" in err[0]
        assert not out.exists()
        equal = config_from_mapping({"datum.modes": "1:1e-3,-1:1e-3"})
        assert equal["datum.modes"] == {1: 1e-3, -1: 1e-3}


class TestStateCsv:
    def test_round_trip_is_exact(self, tmp_path):
        grid = PhaseGrid(1, 3.0, 0.5)
        rng = np.random.default_rng(7)
        values = rng.normal(size=(grid.n_modes, grid.n_eta)) \
            + 1j * rng.normal(size=(grid.n_modes, grid.n_eta))
        state = SpectralState(time=1.75, grid=grid, values=values)
        path = tmp_path / "state.csv"
        write_state_csv(path, state)
        back = load_state_csv(path)
        assert back.time == state.time
        assert back.grid.k_max == grid.k_max
        assert back.grid.eta_max == grid.eta_max
        assert np.array_equal(back.values, state.values)

    def test_bulk_cells_match_fmt_on_extreme_doubles(self, tmp_path,
                                                     monkeypatch):
        # the state and kernel tables format .tolist() floats a column at a
        # time; each cell must be the text the per-cell _fmt writes
        special = [-0.0, 5e-324, 1.7976931348623157e308, float("nan"),
                   float("inf"), -float("inf"), -5e-324, 0.1]
        values = np.array([complex(a, b) for a in special for b in special])
        grid = PhaseGrid(1, 1.0, 0.0625)
        state = SpectralState(0.0, grid,
                              np.resize(values, (grid.n_modes, grid.n_eta)))
        path = tmp_path / "state.csv"
        write_state_csv(path, state)
        want = [f"{i},{j},{cli._fmt(v.real)},{cli._fmt(v.imag)}"
                for i in range(grid.n_modes) for j, v in enumerate(state.values[i])]
        assert path.read_text(encoding="utf-8").splitlines()[2:] == want
        # the kernel command writes a table of the same values
        times = np.linspace(0.0, 1.0, values.size)
        table = dataclasses.make_dataclass("Table", [
            "times", "values", "fit_lambda1", "fit_r2", "truncation_bound",
            "winding"])(times, values, -0.5, 0.9, 1e-9, 0)
        monkeypatch.setattr(cli, "inverse_laplace_Khat",
                            lambda *args, **kwargs: table)
        out = tmp_path / "out"
        assert main(["kernel", "--out", str(out)]) == EXIT_OK
        want = ["t,re_K,im_K,abs_K"] + [
            ",".join([cli._fmt(t), cli._fmt(v.real), cli._fmt(v.imag),
                      cli._fmt(abs(v))]) for t, v in zip(times, values)]
        for k in (1, 2, 3):
            text = (out / f"kernel_k{k}.csv").read_text(encoding="utf-8")
            assert text.splitlines() == want

    @staticmethod
    def edited(tmp_path, edit):
        grid = PhaseGrid(1, 3.0, 0.5)
        state = SpectralState(time=0.5, grid=grid,
                              values=np.ones((grid.n_modes, grid.n_eta)))
        path = tmp_path / "state.csv"
        write_state_csv(path, state)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        return path

    def test_missing_row_rejected(self, tmp_path):
        path = self.edited(tmp_path, lambda lines: lines[:5] + lines[6:])
        with pytest.raises(ConfigError, match=r"1 cells have no row.*\(0, 3\)"):
            load_state_csv(path)

    def test_duplicate_row_rejected(self, tmp_path):
        path = self.edited(tmp_path, lambda lines: lines + [lines[4]])
        with pytest.raises(ConfigError, match=r"duplicate row for cell \(0, 2\)"):
            load_state_csv(path)

    @pytest.mark.parametrize("row", ["3,0,1.0,0.0", "0,13,1.0,0.0",
                                     "-1,0,1.0,0.0"])
    def test_out_of_range_row_rejected(self, tmp_path, row):
        path = self.edited(tmp_path, lambda lines: lines + [row])
        with pytest.raises(ConfigError, match="outside the 3 x 13 grid"):
            load_state_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = self.edited(tmp_path, lambda lines: lines + ["0,1,1.0"])
        with pytest.raises(ConfigError, match="malformed"):
            load_state_csv(path)


class TestCommands:
    def run(self, command, tmp_path, extra="", name="run.cfg"):
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path, SMALL_RUN + extra,
                                        name=name))
        cfg = cfg.replaced(**{"out.dir": str(out)})
        return run_command(command, cfg), out

    def test_selftest_passes(self, tmp_path, capsys):
        code, _ = self.run("selftest", tmp_path)
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 5
        assert all(line.startswith("ok - ") for line in lines)

    def test_penrose_stable_background(self, tmp_path):
        code, out = self.run("penrose", tmp_path,
                             "penrose.samples = 1201\n"
                             "penrose.omega_max = 8.0\n")
        assert code == EXIT_OK
        header = (out / "penrose.csv").read_text().splitlines()[0]
        assert header == "k,omega_argmin,abs_D_min,winding,tail_bound"
        manifest = (out / "manifest.txt").read_text()
        assert "# penrose.stable = true" in manifest

    def test_penrose_rows_match_direct_axis_scan(self, tmp_path):
        code, out = self.run("penrose", tmp_path,
                             "model.preset = screened\n"
                             "penrose.kmax = 3\n"
                             "penrose.samples = 1201\n"
                             "penrose.omega_max = 8.0\n")
        assert code == EXIT_OK
        rows = (out / "penrose.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == \
            ["-3", "-2", "-1", "1", "2", "3"]
        for row in rows:
            k, omega_min, d_min, _, _ = row.split(",")
            omega, d_values, _ = dispersion_on_axis(
                make_preset("screened"), maxwellian(), int(k), 8.0, n_min=1201)
            idx = int(np.argmin(np.abs(d_values)))
            # the CSV writes 17 significant digits, so floats round-trip
            assert float(omega_min) == float(omega[idx])
            assert float(d_min) == float(np.abs(d_values[idx]))

    @pytest.mark.parametrize("kind", ["maxwellian", "bump_on_tail"])
    def test_penrose_negative_rows_mirror_positive_rows(self, tmp_path, kind):
        code, out = self.run("penrose", tmp_path,
                             f"equilibrium.kind = {kind}\n"
                             "model.preset = screened\n"
                             "penrose.samples = 1201\n"
                             "penrose.omega_max = 8.0\n")
        assert code == EXIT_OK
        rows = {int(row.split(",")[0]): row.split(",") for row in
                (out / "penrose.csv").read_text().splitlines()[1:]}
        eq = config_from_mapping({"equilibrium.kind": kind}).equilibrium()
        for k in (1, 2):
            assert rows[-k][2:] == rows[k][2:]  # |D| minimum, winding, tail
            omega, d_values, _ = dispersion_on_axis(
                make_preset("screened"), eq, k, 8.0, n_min=1201)
            minima = omega[np.abs(d_values) == np.min(np.abs(d_values))]
            # row -k reflects the last minimiser of row k; only the even
            # Maxwellian ties +-omega (at k = 1), so elsewhere it is -row k
            assert float(rows[k][1]) == minima[0]
            assert float(rows[-k][1]) == -minima[-1]
            if kind == "bump_on_tail":
                assert float(rows[-k][1]) == -float(rows[k][1])

    def test_penrose_unstable_background_exits_two(self, tmp_path):
        code, out = self.run("penrose", tmp_path,
                             "equilibrium.kind = two_stream\n"
                             "penrose.samples = 1201\n"
                             "penrose.omega_max = 6.0\n")
        assert code == EXIT_HYPOTHESIS
        manifest = (out / "manifest.txt").read_text()
        assert "# penrose.stable = false" in manifest

    def test_penrose_uncertified_quadrature_exits_three(self, tmp_path,
                                                        monkeypatch):
        # two halvings from the starting spacing cannot certify the moments
        monkeypatch.setattr(dispersion, "_MAX_DOUBLINGS", 2)
        code, out = self.run("penrose", tmp_path,
                             "equilibrium.kind = two_stream\n"
                             "penrose.samples = 1201\n"
                             "penrose.omega_max = 6.0\n")
        assert code == EXIT_NUMERICAL
        manifest = (out / "manifest.txt").read_text()
        assert ("# error = QuadratureError: Simpson refinement did not "
                "certify") in manifest

    def test_penrose_uncertified_arc_exits_four_and_names_radius(self, tmp_path):
        extra = ("equilibrium.kind = two_stream\n"
                 "penrose.samples = 1201\n")
        code, out = self.run("penrose", tmp_path,
                             extra + "penrose.omega_max = 1.0\n")
        assert code == EXIT_CONFIG
        manifest = (out / "manifest.txt").read_text().splitlines()
        errors = [line for line in manifest if line.startswith("# error = ")]
        assert len(errors) == 1
        assert "smallest omega_max that certifies it is " in errors[0]
        radius = errors[0].rsplit(" ", 1)[-1]
        assert float(radius) > 1.0
        code, out = self.run("penrose", tmp_path,
                             extra + f"penrose.omega_max = {radius}\n",
                             name="wider.cfg")
        assert code == EXIT_HYPOTHESIS  # the scan runs and finds the instability
        manifest = (out / "manifest.txt").read_text()
        assert "# error" not in manifest
        assert "# penrose.stable = false" in manifest

    def test_scatter_writes_artifacts(self, tmp_path):
        code, out = self.run("scatter", tmp_path)
        assert code == EXIT_OK
        iterates = (out / "iterates.csv").read_text().splitlines()
        assert iterates[0] == "iter,N1,N2,distance,ratio"
        # first pass has no predecessor: distance and ratio stay empty
        assert iterates[1].endswith(",,")
        assert not iterates[-1].endswith(",")
        efield = (out / "efield.csv").read_text().splitlines()
        assert efield[0].startswith("t,weighted_norm,abs_E_k1")
        manifest = (out / "manifest.txt").read_text()
        assert "# scatter.converged = true" in manifest

    def test_scatter_g0_state_loads(self, tmp_path):
        code, out = self.run("scatter", tmp_path)
        assert code == EXIT_OK
        state = load_state_csv(out / "g0_state.csv")
        assert state.time == 0.0
        assert state.grid.k_max == 1
        assert np.all(np.isfinite(state.values))

    def test_first_moment_computed_once_per_op(self, tmp_path):
        # the pre-drive scan and every Volterra solve ask for the moment;
        # each op builds its own equilibrium, so no value carries between ops
        dispersion.absolute_first_moment.cache_clear()
        for name in ("first", "second"):
            (tmp_path / name).mkdir()
            code, _ = self.run("scatter", tmp_path / name)
            assert code == EXIT_OK
        info = dispersion.absolute_first_moment.cache_info()
        assert info.misses == 2 and info.hits >= 2

    def test_scatter_exhausted_iterations_exit_three(self, tmp_path):
        code, out = self.run("scatter", tmp_path,
                             "drive.tol = 1e-30\ndrive.max_iters = 2\n")
        assert code == EXIT_NUMERICAL
        manifest = (out / "manifest.txt").read_text()
        assert "# scatter.converged = false" in manifest

    EXHAUSTED = "drive.tol = 1e-30\ndrive.max_iters = 2\n"

    @pytest.mark.parametrize("command, extra, stub, code, verdict", [
        ("scatter", EXHAUSTED, None, EXIT_NUMERICAL,
         "# scatter.converged = false"),
        ("roundtrip", EXHAUSTED, None, EXIT_NUMERICAL,
         "# scatter.converged = false"),
        ("roundtrip", "", "roundtrip", EXIT_NUMERICAL,
         "# roundtrip.within_bound = false"),
        ("penrose", "equilibrium.kind = two_stream\npenrose.samples = 1201\n"
         "penrose.omega_max = 6.0\n", None, EXIT_HYPOTHESIS,
         "# penrose.stable = false"),
        ("selftest", "", "selftest", EXIT_NUMERICAL, "# selftest.passed = 1/2"),
    ], ids=["scatter_exhausted", "roundtrip_exhausted", "roundtrip_out_of_bound",
            "penrose_unstable", "selftest_failed"])
    def test_verdict_exit_prints_one_error_line(self, tmp_path, capsys,
                                                monkeypatch, command, extra,
                                                stub, code, verdict):
        # a run that finishes and fails its own check names the cause on
        # stderr; the manifest holds its summary and no error line
        if stub == "roundtrip":
            honest = cli.roundtrip_check
            monkeypatch.setattr(cli, "roundtrip_check", lambda *args:
                                dataclasses.replace(honest(*args),
                                                    within_bound=False))
        elif stub == "selftest":
            def failing():
                raise AssertionError("injected")

            monkeypatch.setattr(cli, "_selftest_checks", lambda: [
                ("passing", lambda: None), ("failing", failing)])
        got, out = self.run(command, tmp_path, extra)
        assert got == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        manifest = (out / "manifest.txt").read_text()
        assert verdict in manifest and "# error" not in manifest

    def test_reality_failure_exits_three(self, tmp_path, monkeypatch):
        honest = scattering.build_resolvent_tables

        def lopsided(model, eq, grids):
            tables = honest(model, eq, grids)
            tables[-1] = dataclasses.replace(tables[-1],
                                             values=2.0 * tables[-1].values)
            return tables

        monkeypatch.setattr(scattering, "build_resolvent_tables", lopsided)
        path = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["scatter", "--config", str(path), "--out", str(out)]) \
            == EXIT_NUMERICAL
        manifest = (out / "manifest.txt").read_text()
        assert "# error = RealityError: solve broke reality symmetry" in manifest

    @pytest.mark.parametrize("command", ["scatter", "roundtrip"])
    def test_unstable_background_refused_before_the_drive(self, tmp_path,
                                                          monkeypatch,
                                                          command):
        def no_drive(*args, **kwargs):
            raise AssertionError("the drive started")

        monkeypatch.setattr(cli, "fixed_point_drive", no_drive)
        code, out = self.run(command, tmp_path, TWO_STREAM_V1)
        assert code == EXIT_HYPOTHESIS
        manifest = (out / "manifest.txt").read_text()
        assert "# penrose.stable = false" in manifest
        assert not (out / "iterates.csv").exists()

    def test_screened_two_stream_still_drives(self, tmp_path):
        # vpme screening stabilises the same background, so the drive runs
        code, out = self.run("scatter", tmp_path, TWO_STREAM_V1
                             + "model.preset = vpme\npoisson.eps_ball = 1e30\n")
        assert code == EXIT_OK
        manifest = (out / "manifest.txt").read_text()
        assert "# scatter.converged = true" in manifest
        assert "penrose.stable" not in manifest

    def test_roundtrip_within_bound(self, tmp_path):
        code, out = self.run("roundtrip", tmp_path)
        assert code == EXIT_OK
        manifest = (out / "manifest.txt").read_text()
        assert "# roundtrip.within_bound = true" in manifest
        rows = (out / "roundtrip.csv").read_text().splitlines()
        assert rows[0] == "t,profile_error"
        assert len(rows) == 18  # header + 17 time points

    def test_poisson_gate_then_override(self, tmp_path):
        vpme = "model.preset = vpme\ndatum.modes = 1:1e-2\n"
        code, out = self.run("poisson", tmp_path, vpme)
        assert code == EXIT_NUMERICAL
        assert "smallness gate" in (out / "manifest.txt").read_text()
        code, out = self.run("poisson", tmp_path,
                             vpme + "poisson.eps_ball = 2.0\n")
        assert code == EXIT_OK
        rows = (out / "poisson.csv").read_text().splitlines()
        assert rows[0] == "k,re_u,im_u,abs_e"

    def test_poisson_uses_the_configured_series(self, tmp_path):
        vpme = ("model.preset = vpme\ndatum.modes = 1:1e-2\n"
                "poisson.eps_ball = 2.0\n")
        code, out = self.run("poisson", tmp_path, vpme, name="default.cfg")
        assert code == EXIT_OK
        default = (out / "poisson.csv").read_text()
        code, out = self.run("poisson", tmp_path, vpme + "model.n_h = 2\n",
                             name="cut.cfg")
        assert code == EXIT_OK
        assert (out / "poisson.csv").read_text() != default
        cfg = parse_config(tmp_path / "default.cfg")
        grids = cfg.grids()
        k = grids.phase.k_values
        q_hat = density_trace(cfg.datum().sample(grids.phase, 0.0))
        snap = poisson_fixed_point(make_preset("vpme", eps_ball=2.0), q_hat,
                                   cfg.weight(), 0.0)
        rows = [row.split(",") for row in default.splitlines()[1:]]
        assert [int(row[0]) for row in rows] == k.tolist()
        # the CSV writes 17 significant digits, so floats round-trip
        assert [float(row[1]) for row in rows] == snap.u_hat.real.tolist()
        assert [float(row[2]) for row in rows] == snap.u_hat.imag.tolist()
        assert [float(row[3]) for row in rows] == np.abs(snap.e_hat).tolist()

    # the vpme forward run outgrows the default gate, so it is opened wide
    @pytest.mark.parametrize("extra", [
        "", "model.preset = vpme\npoisson.eps_ball = 1e30\n"],
        ids=["vp", "vpme"])
    def test_damp_writes_the_fitted_field(self, tmp_path, extra):
        cfg = parse_config(write_config(tmp_path, DAMP_RUN + extra))
        out = tmp_path / "out"
        assert run_command("damp", cfg.replaced(**{"out.dir": str(out)})) \
            == EXIT_OK
        report = scattering.landau_linear_run(
            cfg.model(), cfg.equilibrium(), cfg.weight(), cfg.grids(),
            cfg["damp.amplitude"], mode=cfg["damp.mode"],
            fit_window=(cfg["fit.t_start"], cfg["fit.t_end"]))
        rows = [line.split(",")
                for line in (out / "efield.csv").read_text().splitlines()]
        column = rows[0].index(f"abs_E_k{report.mode}")
        # the CSV writes 17 significant digits, so floats round-trip
        assert [float(row[column]) for row in rows[1:]] == \
            report.field_abs.tolist()

    def test_damp_profile_has_the_datum_width(self, tmp_path):
        # the horizon check and the forward run read one width: 0.5 fits
        # eta_max 11 (k_max T + 6 width = 11), and each width gives its own
        # field table
        tables = {}
        for width, eta_max in ((0.5, 11.0), (1.0, 16.0), (1.3, 16.0)):
            text = (DAMP_RUN.replace("grid.eta_max = 16.0",
                                     f"grid.eta_max = {eta_max}")
                    + f"datum.width = {width}\n")
            cfg = parse_config(write_config(tmp_path, text, f"w{width}.cfg"))
            out = tmp_path / f"w{width}"
            assert run_command("damp", cfg.replaced(**{"out.dir": str(out)})) \
                == EXIT_OK
            tables[width] = (out / "efield.csv").read_text()
        assert len(set(tables.values())) == 3

    @pytest.mark.parametrize("start,end", [(8.0, 9.0), (6.0, 6.0)],
                             ids=["late", "empty"])
    def test_damp_refuses_fit_window_before_any_step(self, tmp_path,
                                                      monkeypatch, start, end):
        steps = []
        monkeypatch.setattr(scattering, "integrate",
                            lambda *args, **kwargs: steps.append(args))
        cfg = parse_config(write_config(tmp_path, DAMP_RUN))
        out = tmp_path / "out"
        cfg = cfg.replaced(**{"out.dir": str(out), "fit.t_start": start,
                              "fit.t_end": end})
        assert run_command("damp", cfg) == EXIT_CONFIG
        assert steps == []
        manifest = (out / "manifest.txt").read_text()
        assert "# error = fit window" in manifest
        assert "before t_final = 8" in manifest

    def test_manifest_reproduces_run(self, tmp_path):
        code, first = self.run("scatter", tmp_path)
        assert code == EXIT_OK
        second = tmp_path / "again"
        cfg = parse_config(first / "manifest.txt")
        cfg = cfg.replaced(**{"out.dir": str(second)})
        assert run_command("scatter", cfg) == EXIT_OK
        for name in ("iterates.csv", "efield.csv", "g0_state.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_kernel_deterministic_across_threads(self, tmp_path):
        extra = "kernel.kmax = 2\nkernel.omega_max = 60.0\n"
        outputs = []
        for threads in (1, 4):
            out = tmp_path / f"t{threads}"
            cfg = parse_config(write_config(tmp_path, SMALL_RUN + extra,
                                            name=f"t{threads}.cfg"))
            cfg = cfg.replaced(**{"out.dir": str(out), "threads": threads})
            assert run_command("kernel", cfg) == EXIT_OK
            outputs.append([(out / f"kernel_k{k}.csv").read_bytes()
                            for k in (1, 2)])
        assert outputs[0] == outputs[1]

    def test_kernel_refuses_an_unstable_background(self, tmp_path, capsys):
        # 1 + P L winds once around 0 along the k = 1 contour
        code, out = self.run("kernel", tmp_path,
                             TWO_STREAM_V1 + "kernel.kmax = 2\n")
        assert code == EXIT_HYPOTHESIS
        for k in (1, 2):
            rows = (out / f"kernel_k{k}.csv").read_text().splitlines()
            assert rows[0] == "t,re_K,im_K,abs_K"
            assert len(rows) == 18  # header + 17 time points
        manifest = (out / "manifest.txt").read_text()
        assert "# kernel.k1.lambda1 = " in manifest
        assert "# kernel.stable = false" in manifest
        assert "at k = [1]" in capsys.readouterr().err

    @pytest.mark.parametrize("v0", ["0.5", "2.0"])
    def test_kernel_on_a_stable_two_stream(self, tmp_path, v0):
        code, out = self.run("kernel", tmp_path,
                             "equilibrium.kind = two_stream\n"
                             f"equilibrium.v0 = {v0}\nkernel.kmax = 2\n")
        assert code == EXIT_OK
        assert (out / "kernel_k2.csv").exists()
        assert "kernel.stable" not in (out / "manifest.txt").read_text()

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError, match="unknown command"):
            run_command("simulate", config_from_mapping({}))

    def test_vpme_series_past_the_double_range_exits_four(self, tmp_path,
                                                          capsys):
        # 171! is no double: the parent raised OverflowError, a traceback
        gate = "model.preset = vpme\npoisson.eps_ball = 1e30\n"
        code, out = self.run("poisson", tmp_path, gate + "model.n_h = 169\n",
                             name="top.cfg")
        assert code == EXIT_OK
        for n_h in (170, 171):
            code, out = self.run("poisson", tmp_path,
                                 gate + f"model.n_h = {n_h}\n",
                                 name=f"n{n_h}.cfg")
            assert code == EXIT_CONFIG
            assert "# error = vpme needs n_h <= 169, got " \
                f"{n_h}" in (out / "manifest.txt").read_text()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: ") for line in err)

    def test_vpme_tail_past_the_double_range_exits_three(self, tmp_path):
        # the l1 potential amplitude passes 709.8, so e^|y| leaves the
        # double range: the tail is inf and the smallness check refuses
        code, out = self.run("poisson", tmp_path,
                             "model.preset = vpme\ndatum.modes = 1:1e3\n"
                             "poisson.eps_ball = 1e30\n")
        assert code == EXIT_NUMERICAL
        assert ("# error = NoContractionError: iterate left the contraction "
                "ball of radius 2.164e+05 after 1 steps"
                in (out / "manifest.txt").read_text())

    def test_finite_norm_of_overflowing_squares_meets_the_gate(self, tmp_path,
                                                               capsys):
        # the weighted squares of this slice overflow, its norm does not:
        # the parent refused the norm itself, with a RuntimeWarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = self.run("poisson", tmp_path, "model.preset = vpme\n"
                                 "datum.modes = 1:1e153\n")
        assert code == EXIT_NUMERICAL
        assert not caught
        assert capsys.readouterr().err.splitlines() == [
            "error: weighted slice amplitude 1.082e+155 exceeds the smallness "
            "gate 5.000e-02; the perturbative regime does not apply"]

    def test_weighted_amplitude_past_the_double_range_names_the_amplitude(
            self, tmp_path, capsys):
        # the slice amplitude times its finite weight overflows: no numpy
        # warning, and the error blames the amplitude, not lambda_inf or sigma
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = self.run("poisson", tmp_path, "model.preset = vpme\n"
                                 "datum.modes = 1:1e307\n")
        assert code == EXIT_NUMERICAL
        assert not caught
        assert capsys.readouterr().err.splitlines() == [
            "error: weighted slice norm overflowed: the slice amplitude "
            "1.000e+307 times its finite weight leaves the double range; "
            "shrink the datum amplitude"]


    def test_weight_past_the_double_range_names_lambda_inf_and_sigma(
            self, tmp_path, capsys):
        # the weight row of the field solve overflows at k = +-1: no numpy
        # warning, one error line that blames the weight
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = self.run("poisson", tmp_path, "model.preset = vpme\n"
                                 "gevrey.sigma = 3000\n")
        assert code == EXIT_NUMERICAL
        assert not caught
        assert capsys.readouterr().err.splitlines() == [
            "error: weighted slice norm overflowed; reduce lambda_inf or sigma"]

    def test_field_weight_past_the_double_range_exits_three(self, tmp_path,
                                                            capsys):
        # sigma = 1000 takes the efield.csv weights past the double range
        # along eta = k t: no inf cells, no numpy warning, one error line
        cfg = parse_config(write_config(tmp_path, DAMP_RUN + "gevrey.sigma = 1000\n"))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_command("damp", cfg.replaced(**{"out.dir": str(out)}))
        assert code == EXIT_NUMERICAL
        assert not caught
        assert capsys.readouterr().err.splitlines() == [
            "error: weighted field norm overflowed; reduce lambda_inf or sigma"]
        assert not (out / "efield.csv").exists()


class TestScipyVersionLine:
    def test_reads_the_installed_version(self):
        import scipy

        cli._scipy_version.cache_clear()
        assert cli._scipy_version() == scipy.__version__

    def test_looked_up_once_per_process(self, tmp_path, monkeypatch):
        import importlib.metadata

        lookups = []
        real = importlib.metadata.version

        def counted(name):
            lookups.append(name)
            return real(name)

        monkeypatch.setattr(importlib.metadata, "version", counted)
        cli._scipy_version.cache_clear()
        path = write_config(tmp_path, SMALL_RUN + "kernel.kmax = 1\n"
                            "penrose.samples = 1201\npenrose.omega_max = 8.0\n")
        for command in ("penrose", "kernel"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out)]) \
                == EXIT_OK
            manifest = (out / "manifest.txt").read_text()
            assert f"# scipy.version = {real('scipy')}\n" in manifest
        assert lookups == ["scipy"]


class TestMainEntry:
    def test_bad_config_returns_config_exit(self, tmp_path, capsys):
        path = write_config(tmp_path, "gevrey.gamma = 0.2\n")
        code = main(["penrose", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,text", [
        ("scatter", "datum.modes", "datum.modes = 1:1e-3,3:1e-3\n"),
        ("damp", "damp.mode", "damp.mode = 2\n"),
    ])
    def test_off_lattice_mode_is_config_error(self, tmp_path, capsys,
                                              command, key, text):
        # grid.kmax = 1: mode 3 would read as zero and "converge" silently
        path = write_config(tmp_path, SMALL_RUN + text)
        code = main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nonpositive_eps_ball_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_RUN + "model.preset = vpme\n"
                            "poisson.eps_ball = -1\n")
        code = main(["poisson", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "poisson.eps_ball must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, key):
        # nan slips past every "must be positive" comparison; inf and an
        # overflowing literal reach the grids as infinite sizes
        out = tmp_path / "out"
        for bad in ("nan", "inf", "-inf", "1e400"):
            value = f"1:{bad}" if key == "datum.modes" else bad
            path = write_config(tmp_path, f"{key} = {value}\n")
            for command in cli.COMMANDS:
                code = main([command, "--config", str(path), "--out", str(out)])
                err = capsys.readouterr().err.splitlines()
                assert code == EXIT_CONFIG, (command, bad)
                assert len(err) == 1 and err[0].startswith("error: ")
                assert f"bad value for {key}: expected a finite number" in err[0]
                assert not out.exists()  # refused before any run starts

    @pytest.mark.parametrize("command,text,grid", [
        ("poisson", "grid.delta_eta = 1e-300\n", "phase grid"),
        ("poisson", "grid.eta_max = 1e300\ngrid.delta_eta = 1e-300\n",
         "phase grid"),
        ("kernel", "grid.dt = 1e-300\n", "time grid"),
    ])
    def test_huge_finite_grid_is_config_error(self, tmp_path, capsys,
                                              command, text, grid):
        # finite sizes pass the schema; numpy refuses the point count
        out = tmp_path / "out"
        path = write_config(tmp_path, text)
        code = main([command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith(f"error: {grid} ")
        assert "too many points" in err[0]
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert f"# error = {grid} " in manifest

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("# r\xe9glage\ngrid.kmax = 1\n".encode("latin-1"))
        code = main(["penrose", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file")
        assert "Traceback" not in err

    def test_uncreatable_out_dir_is_config_error(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
        code = main(["penrose", "--out", str(tmp_path / "afile" / "sub")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory")
        assert "Traceback" not in err

    def test_thread_override_validated(self, capsys):
        assert main(["selftest", "--threads", "0"]) == EXIT_CONFIG

    def test_flag_hypothesis_names_the_flag(self, tmp_path, capsys):
        # a hypothesis broken by a flag's value names the flag, with or
        # without a file
        plain = write_config(tmp_path, "grid.kmax = 1\n", name="plain.cfg")
        for config in ([], ["--config", str(plain)]):
            assert main(["selftest", *config, "--threads", "0"]) == EXIT_CONFIG
            assert capsys.readouterr().err.splitlines() == [
                "error: --threads: config violates 1 hypothesis(es):",
                "  - threads must be at least 1, got 0"]
        # a file's own violation still names the file
        bad = write_config(tmp_path, "threads = 0\n", name="bad.cfg")
        assert main(["selftest", "--config", str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: config violates 1 hypothesis(es):")

    def test_thread_flag_takes_the_key_route(self, tmp_path, capsys):
        # the flag passes the key's converter: the parent's argparse exited 2;
        # a bad value names the flag, not the file, which does not set the
        # key (the parent named the file, or <defaults> without one)
        plain = write_config(tmp_path, "grid.kmax = 1\n", name="plain.cfg")
        for config in ([], ["--config", str(plain)]):
            assert main(["selftest", *config, "--threads", "abc"]) == EXIT_CONFIG
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith("error: --threads: bad value for threads: ")
        # and overrides the key before the hypothesis check: the parent
        # refused the file's value first
        path = write_config(tmp_path, "threads = 0\n")
        out = tmp_path / "out"
        assert main(["selftest", "--config", str(path), "--out", str(out),
                     "--threads", "2"]) == EXIT_OK
        assert "\nthreads = 2\n" in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize("argv", [["simulate"], [], ["selftest", "--bogus"],
                                      ["selftest", "--threads"]])
    def test_usage_error_is_config_error(self, capsys, argv):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: command line: ")

    def test_error_types_take_the_exit_map(self):
        # a new error type must be one of the two the CLI maps
        types = [obj for obj in vars(errors).values()
                 if isinstance(obj, type) and issubclass(obj, BaseException)]
        assert len(types) == 10
        for kind in types:
            assert issubclass(kind, (ConfigError, NumericalError)), kind

    @pytest.mark.parametrize("kind", [
        obj for obj in vars(errors).values() if isinstance(obj, type)
        and issubclass(obj, NumericalError) and obj is not NumericalError])
    def test_numerical_error_exits_three(self, tmp_path, capsys, monkeypatch,
                                         kind):
        def failing(cfg, out_dir):
            raise kind("injected failure")

        monkeypatch.setitem(cli._PIPELINES, "poisson", failing)
        out = tmp_path / "out"
        assert main(["poisson", "--out", str(out)]) == EXIT_NUMERICAL
        manifest = (out / "manifest.txt").read_text()
        assert f"# error = {kind.__name__}: injected failure\n" in manifest
        assert capsys.readouterr().err == "error: injected failure\n"

    def test_overflowing_source_exits_three(self, tmp_path, capsys):
        # the backward source of a 1e200 datum leaves the double range: a
        # blow-up naming the amplitude (exit 3), not a refused history
        # (exit 4) after a numpy overflow warning
        path = write_config(tmp_path, WIDE_RUN + "datum.modes = 1:1e200\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scatter", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "error: the backward source left the double range; shrink the "
            "datum, whose mode amplitudes sum to 2.000e+200\n")

    @settings(derandomize=True, max_examples=40, deadline=None)
    @example(s=200.0, preset="vp", grid=WIDE_RUN, command="scatter")
    @given(s=st.floats(-12.0, 300.0),
           preset=st.sampled_from(["vp", "screened", "vpme"]),
           grid=st.sampled_from([SMALL_RUN, WIDE_RUN]),
           command=st.sampled_from(["scatter", "roundtrip"]))
    def test_datum_amplitudes_never_exit_four(self, s, preset, grid, command):
        # a valid config fails on its numbers with exit 3, one error line,
        # no numpy warning and a manifest, whatever the datum amplitude 10^s
        text = grid + f"model.preset = {preset}\ndatum.modes = 1:{10.0 ** s!r}\n"
        if preset == "vpme":
            text += "poisson.eps_ball = 1e30\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), text)
            out = Path(tmp) / "out"
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([command, "--config", str(path), "--out", str(out)])
            assert code in (EXIT_OK, EXIT_NUMERICAL)
            errors = [line for line in err.getvalue().splitlines()
                      if line.startswith("error:")]
            assert len(errors) == (code != EXIT_OK)
            assert not caught, [str(w.message) for w in caught]
            assert (out / "manifest.txt").is_file()

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        text = capsys.readouterr().out
        assert "grid.eta_max" in text and "drive.tol" in text
