"""Command-line orchestration: config parsing, pipelines, CSV artifacts.

Seven commands share one flat ``key = value`` config format. Every run
resolves the full configuration, validates it against the norm and grid
hypotheses, executes its pipeline, and writes a ``manifest.txt`` that is
itself a valid config file, so any run can be reproduced from its manifest.

Exit codes: 0 success, 2 hypothesis failure (unstable background where
stability is asserted), 3 numerical failure (divergence, blow-up, missed
verification bound), 4 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np
import scipy

from . import __version__
from .dispersion import dispersion_on_axis, inverse_laplace_Khat, penrose_scan
from .errors import (BlowUpError, ConfigError, DivergenceError,
                     NearSingularResolventError, NoContractionError,
                     QuadratureError, RealityError, StepSizeError,
                     WeightOverflowError)
from .field import poisson_fixed_point
from .gevrey import GevreyWeight, gevrey_inequality_suite
from .kinetic import (PhaseGrid, SpectralState, TimeGrid, density_trace,
                      gaussian_datum, integrate, zero_field_provider)
from .model import (Equilibrium, ModelConfig, bump_on_tail, make_preset,
                    maxwellian, two_stream)
from .scattering import (RunGrids, apply_map_F, build_resolvent_tables,
                         efield_weighted_norms, fixed_point_drive,
                         free_extension, landau_linear_run, roundtrip_check)
from .volterra import (SourceHistory, SpectralHistory, build_discrete_resolvent,
                       solve_direct_backward, solve_resolvent)

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4

COMMANDS = ("penrose", "kernel", "damp", "scatter", "roundtrip", "poisson",
            "selftest")


# ---------------------------------------------------------------------------
# configuration schema

def _as_int(raw: str) -> int:
    return int(raw)


def _as_float(raw: str) -> float:
    return float(raw)


def _as_optional_float(raw: str) -> Optional[float]:
    return None if raw.strip() == "" else float(raw)


def _as_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _as_choice(*options: str) -> Callable[[str], str]:
    def convert(raw: str) -> str:
        value = raw.strip().lower()
        if value not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {raw!r}")
        return value
    return convert


def _as_modes(raw: str) -> dict[int, float]:
    """Comma-separated ``k:amplitude`` pairs, e.g. ``1:1e-3,2:5e-4``."""
    modes: dict[int, float] = {}
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        k_text, _, a_text = piece.partition(":")
        if not _:
            raise ValueError(f"mode entry {piece!r} is not 'k:amplitude'")
        k = int(k_text)
        if k == 0:
            raise ValueError("the mean mode k=0 cannot carry datum amplitude")
        if k in modes:
            raise ValueError(f"mode {k} listed twice")
        modes[k] = float(a_text)
    if not modes:
        raise ValueError("datum.modes must list at least one k:amplitude pair")
    return modes


@dataclass(frozen=True)
class _Option:
    default: str
    convert: Callable[[str], object]
    help: str


SCHEMA: dict[str, _Option] = {
    "model.preset": _Option("vp", _as_choice("vp", "screened", "vpme"),
                          "coupling preset: vp, screened, or vpme"),
    "model.n_h": _Option("12", _as_int, "series cutoff for the vpme coupling"),
    "equilibrium.kind": _Option("maxwellian",
                              _as_choice("maxwellian", "two_stream",
                                         "bump_on_tail"),
                              "background profile family"),
    "equilibrium.v0": _Option("1.0", _as_float,
                            "stream or bump center speed"),
    "equilibrium.width": _Option("0.5", _as_float,
                               "stream or bump thermal width"),
    "equilibrium.alpha": _Option("0.1", _as_float, "bump mass fraction"),
    "grid.kmax": _Option("2", _as_int, "largest spatial mode"),
    "grid.eta_max": _Option("70.0", _as_float, "frequency-grid half width"),
    "grid.delta_eta": _Option("0.25", _as_float, "frequency-grid spacing"),
    "grid.dt": _Option("0.1", _as_float, "time step"),
    "grid.t_final": _Option("32.0", _as_float, "horizon T"),
    "gevrey.gamma": _Option("0.5", _as_float, "Gevrey index, in (1/3, 1)"),
    "gevrey.sigma": _Option("12.0", _as_float,
                          "polynomial weight order, > 10 + d"),
    "gevrey.lambda_inf": _Option("0.2", _as_float, "late-time radius"),
    "gevrey.c_decay": _Option("0.05", _as_float, "radius ramp size"),
    "gevrey.delta": _Option("0.05", _as_float, "radius ramp exponent, in (0, 1)"),
    "gevrey.b": _Option("11.0", _as_float, "time-bracket exponent, > 10"),
    "gevrey.moments": _Option("2", _as_int, "velocity moment order, > d/2"),
    "datum.modes": _Option("1:1e-3", _as_modes,
                         "k:amplitude pairs of the prescribed profile"),
    "datum.width": _Option("1.0", _as_float, "frequency width of the profile"),
    "drive.tol": _Option("1e-9", _as_float, "fixed-point distance tolerance"),
    "drive.max_iters": _Option("25", _as_int, "fixed-point iteration cap"),
    "poisson.tol": _Option("1e-12", _as_float, "field solve tolerance"),
    "poisson.max_iters": _Option("50", _as_int, "field solve iteration cap"),
    "poisson.eps_ball": _Option("", _as_optional_float,
                              "field smallness gate; empty keeps the default"),
    "penrose.kmax": _Option("2", _as_int, "largest scanned mode"),
    "penrose.omega_max": _Option("40.0", _as_float, "scan boundary radius"),
    "penrose.samples": _Option("4001", _as_int, "scan samples per mode"),
    "kernel.kmax": _Option("3", _as_int, "largest tabulated kernel mode"),
    "kernel.omega_max": _Option("200.0", _as_float,
                              "kernel inversion contour cutoff"),
    "damp.amplitude": _Option("1e-4", _as_float, "linear-regime amplitude"),
    "damp.mode": _Option("1", _as_int, "tracked field mode"),
    "fit.t_start": _Option("5.0", _as_float, "decay fit window start"),
    "fit.t_end": _Option("25.0", _as_float, "decay fit window end"),
    "out.dir": _Option("runs", lambda raw: raw.strip(), "output directory"),
    "threads": _Option("1", _as_int, "worker threads for per-mode tables"),
    "verbose": _Option("false", _as_bool, "chatty progress on stderr"),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration: every schema key has a typed value."""

    values: Mapping[str, object]
    source: str = "<defaults>"

    def __getitem__(self, key: str):
        return self.values[key]

    def model(self) -> ModelConfig:
        return make_preset(self["model.preset"], n_h=self["model.n_h"])

    def equilibrium(self) -> Equilibrium:
        kind = self["equilibrium.kind"]
        if kind == "maxwellian":
            return maxwellian()
        if kind == "two_stream":
            return two_stream(self["equilibrium.v0"], self["equilibrium.width"])
        return bump_on_tail(self["equilibrium.alpha"], self["equilibrium.v0"],
                            self["equilibrium.width"])

    def weight(self) -> GevreyWeight:
        return GevreyWeight(gamma=self["gevrey.gamma"],
                            sigma=self["gevrey.sigma"],
                            lambda_inf=self["gevrey.lambda_inf"],
                            c_decay=self["gevrey.c_decay"],
                            delta=self["gevrey.delta"],
                            b=self["gevrey.b"],
                            moments=self["gevrey.moments"])

    def grids(self) -> RunGrids:
        return RunGrids(PhaseGrid(self["grid.kmax"], self["grid.eta_max"],
                                  self["grid.delta_eta"]),
                        TimeGrid(self["grid.t_final"], self["grid.dt"]))

    def datum(self):
        return gaussian_datum(self["datum.modes"], width=self["datum.width"])

    def replaced(self, **by_key) -> "RunConfig":
        merged = dict(self.values)
        merged.update(by_key)
        return RunConfig(values=merged, source=self.source)

    def manifest_value(self, key: str) -> str:
        value = self.values[key]
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, dict):
            return ",".join(f"{k}:{value[k]!r}" for k in sorted(value))
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)


def _hypothesis_violations(values: Mapping[str, object]) -> list[str]:
    """Every violated norm or grid hypothesis, with the bound it breaks."""
    bad: list[str] = []
    gamma = values["gevrey.gamma"]
    if not 1.0 / 3.0 < gamma < 1.0:
        bad.append(f"gevrey.gamma = {gamma} breaks gamma in (1/3, 1)")
    sigma = values["gevrey.sigma"]
    if sigma <= 11.0:
        bad.append(f"gevrey.sigma = {sigma} breaks sigma > 10 + d (= 11)")
    if values["gevrey.b"] <= 10.0:
        bad.append(f"gevrey.b = {values['gevrey.b']} breaks b > 10")
    if values["gevrey.moments"] < 1:
        bad.append(f"gevrey.moments = {values['gevrey.moments']} breaks "
                   f"M > d/2 (needs an integer >= 1)")
    radius0 = values["gevrey.lambda_inf"] - values["gevrey.c_decay"]
    if values["gevrey.lambda_inf"] <= 0 or values["gevrey.c_decay"] <= 0 \
            or radius0 <= 0:
        bad.append("gevrey.lambda_inf and gevrey.c_decay must be positive "
                   "with lambda_inf - c_decay > 0")
    if not 0.0 < values["gevrey.delta"] < 1.0:
        bad.append(f"gevrey.delta = {values['gevrey.delta']} breaks "
                   f"delta in (0, 1)")
    for key in ("grid.delta_eta", "grid.dt", "grid.t_final", "drive.tol",
                "poisson.tol", "datum.width", "penrose.omega_max",
                "kernel.omega_max", "damp.amplitude"):
        if values[key] <= 0:
            bad.append(f"{key} must be positive, got {values[key]}")
    for key in ("grid.kmax", "drive.max_iters", "poisson.max_iters",
                "penrose.kmax", "kernel.kmax", "threads", "damp.mode"):
        if values[key] < 1:
            bad.append(f"{key} must be at least 1, got {values[key]}")
    need = values["grid.kmax"] * values["grid.t_final"] \
        + 6.0 * values["datum.width"]
    if values["grid.eta_max"] < need:
        bad.append(f"grid.eta_max = {values['grid.eta_max']} cannot hold the "
                   f"density trace out to t = {values['grid.t_final']}; need "
                   f"at least kmax*t_final + 6*width = {need}")
    return bad


def config_from_mapping(raw: Mapping[str, str],
                        source: str = "<mapping>") -> RunConfig:
    """Resolve raw strings against the schema, then validate hypotheses."""
    unknown = sorted(set(raw) - set(SCHEMA))
    if unknown:
        raise ConfigError(
            f"{source}: unknown key(s) {', '.join(unknown)}; valid keys: "
            + ", ".join(sorted(SCHEMA)))
    values: dict[str, object] = {}
    for key, spec in SCHEMA.items():
        text = raw.get(key, spec.default)
        try:
            values[key] = spec.convert(text)
        except ValueError as exc:
            raise ConfigError(f"{source}: bad value for {key}: {exc}") from exc
    violations = _hypothesis_violations(values)
    if violations:
        raise ConfigError(f"{source}: config violates "
                          f"{len(violations)} hypothesis(es):\n  - "
                          + "\n  - ".join(violations))
    return RunConfig(values=values, source=source)


def parse_config(path) -> RunConfig:
    """Read a flat ``key = value`` file with ``#`` comments and dotted keys."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                  start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        key, eq, value = text.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {line.strip()!r}")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return config_from_mapping(raw, source=str(path))


# ---------------------------------------------------------------------------
# artifacts

def _fmt(x) -> str:
    """Fixed 17-significant-digit scientific notation, lossless for doubles."""
    return f"{float(x):.16e}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_state_csv(path: Path, state: SpectralState) -> None:
    """Snapshot rows ``k_index,eta_index,re,im`` under a grid-metadata header."""
    grid = state.grid
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(f"# k_max = {grid.k_max}; eta_max = {grid.eta_max!r}; "
                     f"delta_eta = {grid.delta_eta!r}; time = {state.time!r}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["k_index", "eta_index", "re", "im"])
        for i in range(grid.n_modes):
            for j in range(grid.n_eta):
                value = state.values[i, j]
                writer.writerow([i, j, _fmt(value.real), _fmt(value.imag)])


def load_state_csv(path) -> SpectralState:
    """Inverse of :func:`write_state_csv`.

    Every ``(k_index, eta_index)`` cell must appear exactly once: a missing,
    repeated, out-of-range or malformed row is a :class:`ConfigError`.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ConfigError(f"{path}: missing grid metadata header")
    meta: dict[str, str] = {}
    for piece in lines[0].lstrip("#").split(";"):
        key, _, value = piece.partition("=")
        meta[key.strip()] = value.strip()
    try:
        k_max, eta_max = int(meta["k_max"]), float(meta["eta_max"])
        delta_eta, time = float(meta["delta_eta"]), float(meta["time"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: bad grid metadata header ({exc})") from None
    grid = PhaseGrid(k_max, eta_max, delta_eta)
    values = np.zeros((grid.n_modes, grid.n_eta), dtype=complex)
    seen = np.zeros(values.shape, dtype=bool)
    for lineno, row in enumerate(csv.reader(lines[2:]), start=3):
        if not row:
            continue
        try:
            i, j = int(row[0]), int(row[1])
            value = complex(float(row[2]), float(row[3]))
        except (IndexError, ValueError):
            raise ConfigError(f"{path}:{lineno}: malformed state row") from None
        if not (0 <= i < grid.n_modes and 0 <= j < grid.n_eta):
            raise ConfigError(
                f"{path}:{lineno}: cell ({i}, {j}) is outside the "
                f"{grid.n_modes} x {grid.n_eta} grid")
        if seen[i, j]:
            raise ConfigError(f"{path}:{lineno}: duplicate row for cell ({i}, {j})")
        seen[i, j] = True
        values[i, j] = value
    if not seen.all():
        i, j = np.argwhere(~seen)[0]
        raise ConfigError(f"{path}: {np.count_nonzero(~seen)} cells have no "
                          f"row, the first is ({i}, {j})")
    return SpectralState(time=time, grid=grid, values=values)


def _write_manifest(out_dir: Path, cfg: RunConfig, command: str,
                    summary: Mapping[str, str]) -> None:
    lines = [
        "# run manifest; this file is itself a valid config: re-run with",
        f"# vpscatter {command} --config {out_dir / 'manifest.txt'}",
        f"# command = {command}",
        f"# package.version = {__version__}",
        f"# python.version = {platform.python_version()}",
        f"# numpy.version = {np.__version__}",
        f"# scipy.version = {scipy.__version__}",
    ]
    lines += [f"{key} = {cfg.manifest_value(key)}" for key in sorted(SCHEMA)]
    lines += [f"# {key} = {value}" for key, value in summary.items()]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")


def _efield_rows(times, norms, k_positive, abs_e_columns):
    for i, t in enumerate(times):
        yield [_fmt(t), _fmt(norms[i])] + [_fmt(abs_e_columns[k][i])
                                           for k in k_positive]


def _potentials_to_abs_e(potentials: SpectralHistory) -> dict[int, np.ndarray]:
    out: dict[int, np.ndarray] = {}
    for j, k in enumerate(potentials.k_values):
        if k > 0:
            out[int(k)] = np.abs(k * potentials.values[:, j])
    return out


# ---------------------------------------------------------------------------
# command pipelines

def _cmd_penrose(cfg: RunConfig, out_dir: Path, log) -> tuple[int, dict]:
    model, eq = cfg.model(), cfg.equilibrium()
    scan = penrose_scan(model, eq, cfg["penrose.kmax"],
                        omega_max=cfg["penrose.omega_max"],
                        n_samples=cfg["penrose.samples"])
    ks = sorted(scan.windings)

    def axis_min(k: int) -> tuple[float, float]:
        omega, d_values, _ = dispersion_on_axis(model, eq, k,
                                                cfg["penrose.omega_max"],
                                                n_min=cfg["penrose.samples"])
        idx = int(np.argmin(np.abs(d_values)))
        return float(omega[idx]), float(np.abs(d_values[idx]))

    with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
        minima = list(pool.map(axis_min, ks))
    rows = [[str(k), _fmt(omega), _fmt(dmin), str(scan.windings[k]),
             _fmt(scan.tail_bound)]
            for k, (omega, dmin) in zip(ks, minima)]
    _write_csv(out_dir / "penrose.csv",
               ["k", "omega_argmin", "abs_D_min", "winding", "tail_bound"],
               rows)
    summary = {
        "penrose.stable": "true" if scan.stable else "false",
        "penrose.kappa0": _fmt(scan.kappa0),
        "penrose.tail_bound": _fmt(scan.tail_bound),
    }
    log(f"penrose: stable={summary['penrose.stable']} "
        f"kappa0={scan.kappa0:.6g}")
    return (EXIT_OK if scan.stable else EXIT_HYPOTHESIS), summary


def _cmd_kernel(cfg: RunConfig, out_dir: Path, log) -> tuple[int, dict]:
    model, eq = cfg.model(), cfg.equilibrium()
    times = TimeGrid(cfg["grid.t_final"], cfg["grid.dt"]).times
    ks = list(range(1, cfg["kernel.kmax"] + 1))

    def table_for(k: int):
        return inverse_laplace_Khat(model, eq, k, times,
                                    omega_max=cfg["kernel.omega_max"])

    with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
        tables = list(pool.map(table_for, ks))
    summary: dict[str, str] = {}
    for k, table in zip(ks, tables):
        rows = [[_fmt(t), _fmt(v.real), _fmt(v.imag), _fmt(abs(v))]
                for t, v in zip(table.times, table.values)]
        _write_csv(out_dir / f"kernel_k{k}.csv",
                   ["t", "re_K", "im_K", "abs_K"], rows)
        summary[f"kernel.k{k}.lambda1"] = _fmt(table.fit_lambda1)
        summary[f"kernel.k{k}.fit_r2"] = _fmt(table.fit_r2)
        summary[f"kernel.k{k}.truncation_bound"] = _fmt(table.truncation_bound)
        log(f"kernel: k={k} lambda1={table.fit_lambda1:.6g} "
            f"r2={table.fit_r2:.6g}")
    return EXIT_OK, summary


def _linear_field_history(model, states) -> SpectralHistory:
    k = states[0].grid.k_values.astype(float)
    screen = np.where(k == 0, 1.0, model.beta + k * k)
    rows = []
    for state in states:
        rho = density_trace(state)
        rows.append(np.where(k == 0, 0.0, rho / screen))
    return SpectralHistory(times=np.array([s.time for s in states]),
                           k_values=states[0].grid.k_values,
                           values=np.array(rows))


def _cmd_damp(cfg: RunConfig, out_dir: Path, log) -> tuple[int, dict]:
    model, eq, w = cfg.model(), cfg.equilibrium(), cfg.weight()
    grids = cfg.grids()
    report = landau_linear_run(model, eq, w, grids, cfg["damp.amplitude"],
                               mode=cfg["damp.mode"],
                               fit_window=(cfg["fit.t_start"],
                                           cfg["fit.t_end"]),
                               poisson_tol=cfg["poisson.tol"],
                               poisson_iters=cfg["poisson.max_iters"],
                               eps_ball=cfg["poisson.eps_ball"])
    u_hist = _linear_field_history(model, report.integration.states)
    times, norms = efield_weighted_norms(w, u_hist)
    abs_e = _potentials_to_abs_e(u_hist)
    k_positive = sorted(abs_e)
    _write_csv(out_dir / "efield.csv",
               ["t", "weighted_norm"] + [f"abs_E_k{k}" for k in k_positive],
               _efield_rows(times, norms, k_positive, abs_e))
    summary = {
        "damp.mode": str(report.mode),
        "damp.fit_rate": _fmt(report.fit.rate),
        "damp.fit_r2": _fmt(report.fit.r_squared),
    }
    log(f"damp: mode={report.mode} rate={report.fit.rate:.6g} "
        f"r2={report.fit.r_squared:.6g}")
    return EXIT_OK, summary


def _drive(cfg: RunConfig):
    model, eq, w = cfg.model(), cfg.equilibrium(), cfg.weight()
    grids = cfg.grids()
    datum = cfg.datum()
    return model, eq, w, grids, fixed_point_drive(
        datum, model, eq, w, grids, tol=cfg["drive.tol"],
        max_iters=cfg["drive.max_iters"],
        poisson_tol=cfg["poisson.tol"], poisson_iters=cfg["poisson.max_iters"],
        eps_ball=cfg["poisson.eps_ball"])


def _write_drive_artifacts(out_dir: Path, run) -> dict[str, str]:
    rows = []
    for i, record in enumerate(run.iterates):
        # first row is the map applied to the free extension: no gap yet
        distance = _fmt(run.distances[i - 1]) if i >= 1 else ""
        ratio = _fmt(run.contraction_ratios[i - 2]) if i >= 2 else ""
        rows.append([str(i + 1), _fmt(record.report.n1),
                     _fmt(record.report.n2), distance, ratio])
    _write_csv(out_dir / "iterates.csv",
               ["iter", "N1", "N2", "distance", "ratio"], rows)
    times = [t for t, _ in run.efield_decay]
    norms = [n for _, n in run.efield_decay]
    abs_e = _potentials_to_abs_e(run.potentials)
    k_positive = sorted(abs_e)
    _write_csv(out_dir / "efield.csv",
               ["t", "weighted_norm"] + [f"abs_E_k{k}" for k in k_positive],
               _efield_rows(times, norms, k_positive, abs_e))
    write_state_csv(out_dir / "g0_state.csv", run.g0)
    summary = {
        "scatter.converged": "true" if run.converged else "false",
        "scatter.iterations": str(len(run.distances)),
        "scatter.final_distance": _fmt(run.distances[-1]),
        "scatter.ball_bound": _fmt(run.ball_bound),
    }
    if run.decay_fit is not None:
        summary["scatter.decay_rate"] = _fmt(run.decay_fit.rate)
        summary["scatter.decay_r2"] = _fmt(run.decay_fit.r_squared)
    return summary


def _cmd_scatter(cfg: RunConfig, out_dir: Path, log) -> tuple[int, dict]:
    _, _, _, _, run = _drive(cfg)
    summary = _write_drive_artifacts(out_dir, run)
    log(f"scatter: converged={summary['scatter.converged']} after "
        f"{summary['scatter.iterations']} passes")
    return (EXIT_OK if run.converged else EXIT_NUMERICAL), summary


def _cmd_roundtrip(cfg: RunConfig, out_dir: Path, log) -> tuple[int, dict]:
    model, eq, w, grids, run = _drive(cfg)
    summary = _write_drive_artifacts(out_dir, run)
    if not run.converged:
        log("roundtrip: drive did not converge; no forward pass")
        return EXIT_NUMERICAL, summary
    report = roundtrip_check(run, model, eq, w, grids,
                             poisson_tol=cfg["poisson.tol"],
                             poisson_iters=cfg["poisson.max_iters"],
                             eps_ball=cfg["poisson.eps_ball"])
    _write_csv(out_dir / "roundtrip.csv", ["t", "profile_error"],
               [[_fmt(t), _fmt(e)]
                for t, e in zip(report.times, report.profile_errors)])
    bound = 10.0 * (run.tolerance + report.richardson_estimate)
    within = report.sup_error <= bound
    summary.update({
        "roundtrip.sup_error": _fmt(report.sup_error),
        "roundtrip.richardson_dt": _fmt(report.richardson_dt),
        "roundtrip.richardson_eta": _fmt(report.richardson_eta),
        "roundtrip.bound": _fmt(bound),
        "roundtrip.within_bound": "true" if within else "false",
    })
    log(f"roundtrip: sup_error={report.sup_error:.6g} bound={bound:.6g} "
        f"within={within}")
    return (EXIT_OK if within else EXIT_NUMERICAL), summary


def _cmd_poisson(cfg: RunConfig, out_dir: Path, log) -> tuple[int, dict]:
    model, w = cfg.model(), cfg.weight()
    grids = cfg.grids()
    slice0 = cfg.datum().sample(grids.phase, 0.0)
    q_hat = density_trace(slice0)
    snapshot = poisson_fixed_point(model, grids.phase.k_values, q_hat, w, 0.0,
                                   tol=cfg["poisson.tol"],
                                   max_iters=cfg["poisson.max_iters"],
                                   eps_ball=cfg["poisson.eps_ball"],
                                   n_h=cfg["model.n_h"])
    rows = [[str(int(k)), _fmt(snapshot.u_hat[j].real),
             _fmt(snapshot.u_hat[j].imag), _fmt(abs(snapshot.e_hat[j]))]
            for j, k in enumerate(grids.phase.k_values)]
    _write_csv(out_dir / "poisson.csv", ["k", "re_u", "im_u", "abs_e"], rows)
    summary = {
        "poisson.residual": _fmt(snapshot.residual),
        "poisson.iterations": str(snapshot.iters),
    }
    log(f"poisson: residual={snapshot.residual:.6g} in "
        f"{snapshot.iters} iteration(s)")
    return EXIT_OK, summary


def _selftest_checks() -> list[tuple[str, Callable[[], None]]]:
    model = make_preset("vp")
    eq = maxwellian()
    w = GevreyWeight()

    def check_presets() -> None:
        for name in ("vp", "screened", "vpme"):
            make_preset(name)
        assert float(np.asarray(two_stream(1.0, 0.5).mu_hat(0.0))) == 1.0

    def check_gevrey() -> None:
        report = gevrey_inequality_suite(0.5, 10_000, seed=0)
        assert report.subadditivity_violations == 0
        assert report.nearby_violations == 0

    def check_volterra() -> None:
        times = np.linspace(0.0, 2.0, 9)
        source = SourceHistory(times=times, k_values=np.array([1]),
                               values=np.zeros((9, 1), dtype=complex))
        direct = solve_direct_backward(model, eq, source)
        table = build_discrete_resolvent(model, eq, 1, 0.25, 8)
        rebuilt = solve_resolvent(model, eq, source, {1: table})
        assert np.all(direct.values == 0) and np.all(rebuilt.values == 0)

    def check_field_linearity() -> None:
        k = np.array([-1, 0, 1])
        q = np.array([0.5e-3j, 0.0, -0.5e-3j])
        snap = poisson_fixed_point(model, k, q, w, 0.0)
        assert snap.iters == 1 and snap.residual == 0.0
        assert np.array_equal(snap.rho_hat, q)

    def check_free_transport() -> None:
        grid = PhaseGrid(1, 6.0, 0.5)
        datum = gaussian_datum({1: 1e-3})
        start = datum.sample(grid, 0.0)
        result = integrate(start, zero_field_provider(grid), TimeGrid(2.0, 0.01),
                           eq, direction="forward")
        drift = max(float(np.max(np.abs(st.values - start.values)))
                    for st in result.states)
        assert drift <= 1e-13
        mean = max(abs(complex(st.values[grid.origin[0], grid.origin[1]]))
                   for st in result.states)
        assert mean <= 1e-12

    def check_zero_fixed_point() -> None:
        grids = RunGrids(PhaseGrid(1, 8.0, 0.5), TimeGrid(2.0, 0.25))
        datum = gaussian_datum({1: 0.0})
        zeros = free_extension(datum, grids)
        result = apply_map_F(zeros, datum, model, eq, w, grids)
        assert all(np.all(st.values == 0) for st in result.states)
        run = fixed_point_drive(datum, model, eq, w, grids, tol=1e-9,
                                max_iters=5)
        assert run.converged and np.all(run.g0.values == 0)

    return [
        ("model presets", check_presets),
        ("gevrey inequalities", check_gevrey),
        ("volterra zero source", check_volterra),
        ("field linear path", check_field_linearity),
        ("free transport constancy", check_free_transport),
        ("zero datum fixed point", check_zero_fixed_point),
    ]


def _cmd_selftest(cfg: RunConfig, out_dir: Path, log) -> tuple[int, dict]:
    failures = 0
    checks = _selftest_checks()
    for name, check in checks:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL - {name}: {exc}")
        else:
            print(f"ok - {name}")
    summary = {"selftest.passed": f"{len(checks) - failures}/{len(checks)}"}
    log(f"selftest: {summary['selftest.passed']} checks passed")
    return (EXIT_OK if failures == 0 else EXIT_NUMERICAL), summary


_PIPELINES = {
    "penrose": _cmd_penrose,
    "kernel": _cmd_kernel,
    "damp": _cmd_damp,
    "scatter": _cmd_scatter,
    "roundtrip": _cmd_roundtrip,
    "poisson": _cmd_poisson,
    "selftest": _cmd_selftest,
}

_NUMERICAL_ERRORS = (BlowUpError, DivergenceError, NearSingularResolventError,
                     NoContractionError, QuadratureError, RealityError,
                     StepSizeError, WeightOverflowError)


def run_command(command: str, cfg: RunConfig) -> int:
    """Execute one pipeline; returns the exit code and writes all artifacts."""
    if command not in _PIPELINES:
        raise ConfigError(f"unknown command {command!r}; choose from "
                          + ", ".join(COMMANDS))
    out_dir = Path(cfg["out.dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    def log(message: str) -> None:
        if cfg["verbose"]:
            print(message, file=sys.stderr)

    try:
        code, summary = _PIPELINES[command](cfg, out_dir, log)
    except ConfigError as exc:
        _write_manifest(out_dir, cfg, command, {"error": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        _write_manifest(out_dir, cfg, command,
                        {"error": f"{type(exc).__name__}: {exc}"})
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_manifest(out_dir, cfg, command, summary)
    return code


def _build_parser() -> argparse.ArgumentParser:
    defaults = "\n".join(f"  {key} = {spec.default or '(empty)'}  # {spec.help}"
                         for key, spec in sorted(SCHEMA.items()))
    parser = argparse.ArgumentParser(
        prog="vpscatter",
        description="Spectral diagnostics and scattering construction for "
                    "Vlasov-Poisson equations on the torus.",
        epilog="config keys and defaults:\n" + defaults,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value config file")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides out.dir)")
    parser.add_argument("--threads", type=int, metavar="N",
                        help="worker threads (overrides threads)")
    parser.add_argument("--verbose", action="store_true",
                        help="progress lines on stderr")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config \
            else config_from_mapping({}, source="<defaults>")
        overrides: dict[str, object] = {}
        if args.out is not None:
            overrides["out.dir"] = args.out
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError("--threads must be at least 1")
            overrides["threads"] = args.threads
        if args.verbose:
            overrides["verbose"] = True
        if overrides:
            cfg = cfg.replaced(**overrides)
        return run_command(args.command, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
