"""Config parsing, artifact formats, and command exit codes."""

import dataclasses

import numpy as np
import pytest

from vpscatter import PhaseGrid, SpectralState, scattering
from vpscatter.cli import (EXIT_CONFIG, EXIT_HYPOTHESIS, EXIT_NUMERICAL,
                           EXIT_OK, config_from_mapping, load_state_csv,
                           main, parse_config, run_command, write_state_csv)
from vpscatter.errors import ConfigError


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
grid.kmax = 1            # one mode is plenty
grid.eta_max = 12.0
grid.t_final = 4.0

datum.modes = 1:2e-3, 2:1e-3
verbose = yes
""")
        cfg = parse_config(path)
        assert cfg["grid.kmax"] == 1
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
        with pytest.raises(ConfigError, match="density trace"):
            config_from_mapping({"grid.eta_max": "5.0",
                                 "grid.t_final": "32.0"})

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

    def test_penrose_unstable_background_exits_two(self, tmp_path):
        code, out = self.run("penrose", tmp_path,
                             "equilibrium.kind = two_stream\n"
                             "penrose.samples = 1201\n"
                             "penrose.omega_max = 6.0\n")
        assert code == EXIT_HYPOTHESIS
        manifest = (out / "manifest.txt").read_text()
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

    def test_scatter_exhausted_iterations_exit_three(self, tmp_path):
        code, out = self.run("scatter", tmp_path,
                             "drive.tol = 1e-30\ndrive.max_iters = 2\n")
        assert code == EXIT_NUMERICAL
        manifest = (out / "manifest.txt").read_text()
        assert "# scatter.converged = false" in manifest

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

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError, match="unknown command"):
            run_command("simulate", config_from_mapping({}))


class TestMainEntry:
    def test_bad_config_returns_config_exit(self, tmp_path, capsys):
        path = write_config(tmp_path, "gevrey.gamma = 0.2\n")
        code = main(["penrose", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "gamma" in capsys.readouterr().err

    def test_thread_override_validated(self, capsys):
        assert main(["selftest", "--threads", "0"]) == EXIT_CONFIG

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        text = capsys.readouterr().out
        assert "grid.eta_max" in text and "drive.tol" in text
