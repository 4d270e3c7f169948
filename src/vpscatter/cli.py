"""Command-line orchestration: config parsing, pipelines, CSV artifacts.

Seven commands share one flat ``key = value`` config format. Every run
resolves the full configuration, validates it against the norm and grid
hypotheses, executes its pipeline, and writes a ``manifest.txt`` that is
itself a valid config file, so any run can be reproduced from its manifest.

Command-line flags are config keys: ``main`` merges them into the file's
raw ``key = value`` pairs, so a flag passes the same converter and
hypothesis check as the key it overrides.

Exit codes: 0 success, 2 hypothesis failure (unstable background where
stability is asserted: ``penrose`` finds a nonzero winding, ``kernel`` finds
one along its inversion contour, ``scatter`` and ``roundtrip`` refuse before
the first pass), 3 numerical failure (divergence, blow-up, missed
verification bound), 4 configuration error, a command-line usage error
included.  :func:`run_command` is the one place that turns a run's
exception into an exit code: :class:`~vpscatter.errors.NumericalError`
decides exit 3.  A refusal before a run starts (a config file, key, flag or
output directory) leaves ``main`` as exit 4 and writes no manifest.
"""

from __future__ import annotations

import argparse
import functools
import math
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

from . import __version__
from .dispersion import PenroseReport, inverse_laplace_Khat, penrose_scan
from .errors import ConfigError, NumericalError
from .field import efield_weighted_norms, poisson_fixed_point
from .gevrey import GevreyWeight, bracket, weight_violations
from .kinetic import (PhaseGrid, SpectralState, TimeGrid, gaussian_datum,
                      horizon_violation, integrate, zero_field_provider)
from .model import (Equilibrium, ModelConfig, bump_on_tail, make_preset,
                    maxwellian, two_stream)
from .scattering import (RunGrids, apply_map_F, build_resolvent_tables,
                         fixed_point_drive, free_extension, landau_linear_run,
                         roundtrip_check)
from .volterra import (DensityHistory, SourceHistory, SpectralHistory,
                       build_discrete_resolvent, solve_resolvent)

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4


# ---------------------------------------------------------------------------
# configuration schema

def _as_float(raw: str) -> float:
    """A finite float: nan and +-inf (spelled out or overflowed) are refused."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw.strip()!r}")
    return value


def _as_optional_float(raw: str) -> Optional[float]:
    return None if raw.strip() == "" else _as_float(raw)


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
        modes[k] = _as_float(a_text)
        if modes.get(-k, modes[k]) != modes[k]:
            raise ValueError(f"modes {-k} and {k} carry different amplitudes; "
                             "a real datum needs equal ones")
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
    "model.n_h": _Option("12", int, "series cutoff for the vpme coupling"),
    "equilibrium.kind": _Option("maxwellian",
                              _as_choice("maxwellian", "two_stream",
                                         "bump_on_tail"),
                              "background profile family"),
    "equilibrium.v0": _Option("1.0", _as_float,
                            "stream or bump center speed"),
    "equilibrium.width": _Option("0.5", _as_float,
                               "stream or bump thermal width"),
    "equilibrium.alpha": _Option("0.1", _as_float, "bump mass fraction"),
    "grid.kmax": _Option("2", int, "largest spatial mode"),
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
    "gevrey.moments": _Option("2", int, "velocity moment order, > d/2"),
    "datum.modes": _Option("1:1e-3", _as_modes,
                         "k:amplitude pairs of the prescribed profile"),
    "datum.width": _Option("1.0", _as_float, "frequency width of the profile"),
    "drive.tol": _Option("1e-9", _as_float, "fixed-point distance tolerance"),
    "drive.max_iters": _Option("25", int, "fixed-point iteration cap"),
    "poisson.tol": _Option("1e-12", _as_float, "field solve tolerance"),
    "poisson.max_iters": _Option("50", int, "field solve iteration cap"),
    "poisson.eps_ball": _Option("", _as_optional_float,
                              "field smallness gate; empty means 0.05"),
    "penrose.kmax": _Option("2", int, "largest scanned mode"),
    "penrose.omega_max": _Option("40.0", _as_float, "scan boundary radius"),
    "penrose.samples": _Option("4001", int, "scan samples per mode"),
    "kernel.kmax": _Option("3", int, "largest tabulated kernel mode"),
    "kernel.omega_max": _Option("200.0", _as_float,
                              "kernel inversion contour cutoff"),
    "damp.amplitude": _Option("1e-4", _as_float, "linear-regime amplitude"),
    "damp.mode": _Option("1", int, "tracked field mode"),
    "fit.t_start": _Option("5.0", _as_float, "decay fit window start"),
    "fit.t_end": _Option("25.0", _as_float, "decay fit window end"),
    "out.dir": _Option("runs", lambda raw: raw.strip(), "output directory"),
    "threads": _Option("1", int, "worker threads for per-mode tables"),
    "verbose": _Option("false", _as_bool,
                       "the run summary on one stderr line"),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration: every schema key has a typed value."""

    values: Mapping[str, object]
    source: str = "<defaults>"

    def __getitem__(self, key: str):
        return self.values[key]

    def model(self) -> ModelConfig:
        return make_preset(self["model.preset"], n_h=self["model.n_h"],
                           picard_tol=self["poisson.tol"],
                           picard_max_iters=self["poisson.max_iters"],
                           eps_ball=self["poisson.eps_ball"])

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
    weight = {f.name: values[f"gevrey.{f.name}"] for f in fields(GevreyWeight)}
    bad = [f"gevrey.{text}" for text in weight_violations(**weight)]
    for key in ("grid.delta_eta", "grid.dt", "grid.t_final", "drive.tol",
                "poisson.tol", "datum.width", "penrose.omega_max",
                "kernel.omega_max", "damp.amplitude", "equilibrium.width"):
        if values[key] <= 0:
            bad.append(f"{key} must be positive, got {values[key]}")
    if not 0 < values["equilibrium.alpha"] < 1:
        bad.append("equilibrium.alpha must lie in (0, 1), got "
                   f"{values['equilibrium.alpha']}")
    for key in ("grid.kmax", "drive.max_iters", "poisson.max_iters",
                "penrose.kmax", "penrose.samples", "kernel.kmax", "threads",
                "damp.mode"):
        if values[key] < 1:
            bad.append(f"{key} must be at least 1, got {values[key]}")
    kmax = values["grid.kmax"]
    off_lattice = sorted(k for k in values["datum.modes"] if abs(k) > kmax)
    if off_lattice:
        bad.append(f"datum.modes {off_lattice} must lie on the lattice "
                   f"|k| <= grid.kmax = {kmax}")
    if abs(values["damp.mode"]) > kmax:
        bad.append(f"damp.mode must lie on the lattice |k| <= grid.kmax = "
                   f"{kmax}, got {values['damp.mode']}")
    eps_ball = values["poisson.eps_ball"]
    if eps_ball is not None and eps_ball <= 0:
        bad.append(f"poisson.eps_ball must be positive, got {eps_ball}")
    horizon = horizon_violation(values["grid.kmax"], values["grid.eta_max"],
                                values["grid.t_final"], values["datum.width"])
    if horizon is not None:
        bad.append(f"grid.{horizon}")
    return bad


def _converted(key: str, text: str, source: str):
    """``text`` as the schema's value of ``key``; a bad one names ``source``."""
    try:
        return SCHEMA[key].convert(text)
    except ValueError as exc:
        raise ConfigError(f"{source}: bad value for {key}: {exc}") from exc


def config_from_mapping(raw: Mapping[str, str],
                        source: str = "<mapping>") -> RunConfig:
    """Resolve raw strings against the schema, then validate hypotheses."""
    unknown = sorted(set(raw) - set(SCHEMA))
    if unknown:
        raise ConfigError(
            f"{source}: unknown key(s) {', '.join(unknown)}; valid keys: "
            + ", ".join(sorted(SCHEMA)))
    values = {key: _converted(key, raw.get(key, spec.default), source)
              for key, spec in SCHEMA.items()}
    violations = _hypothesis_violations(values)
    if violations:
        raise ConfigError(f"{source}: config violates "
                          f"{len(violations)} hypothesis(es):\n  - "
                          + "\n  - ".join(violations))
    return RunConfig(values=values, source=source)


def _read_config(path) -> dict[str, str]:
    """The raw pairs of a flat ``key = value`` file with ``#`` comments and
    dotted keys."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    try:
        content = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(content.splitlines(), start=1):
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
    return raw


def parse_config(path) -> RunConfig:
    """Read and resolve a flat config file."""
    return config_from_mapping(_read_config(path), source=str(Path(path)))


# ---------------------------------------------------------------------------
# artifacts

def _fmt(x) -> str:
    """Fixed 17-significant-digit scientific notation, lossless for doubles."""
    return f"{float(x):.16e}"


def _write_csv(path: Path, header: str, columns) -> None:
    """Write equal-length columns of typed cells under ``header``.

    A float cell is the text :func:`_fmt` gives, an int its digits, and
    ``None`` an empty cell.  Each column is formatted in one comprehension,
    which costs no more than formatting whole rows at once.
    """
    cells = ([f"{x:.16e}" if isinstance(x, float) else "" if x is None
              else str(x) for x in column] for column in columns)
    rows = map(",".join, zip(*cells, strict=True))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("\n".join([header, *rows]) + "\n")


def write_state_csv(path: Path, state: SpectralState) -> None:
    """Snapshot rows ``k_index,eta_index,re,im`` under a grid-metadata header."""
    grid = state.grid
    n_modes, n_eta = state.values.shape
    _write_csv(path, f"# k_max = {grid.k_max}; eta_max = {grid.eta_max!r}; "
               f"delta_eta = {grid.delta_eta!r}; time = {state.time!r}\n"
               "k_index,eta_index,re,im",
               [np.repeat(np.arange(n_modes), n_eta).tolist(),
                np.tile(np.arange(n_eta), n_modes).tolist(),
                state.values.real.ravel().tolist(),
                state.values.imag.ravel().tolist()])


@functools.cache
def _scipy_version() -> str:
    """scipy's installed version, read from its package metadata.

    Importing scipy for its ``__version__`` would load it in commands that
    never use it; one metadata lookup a process keeps the manifest line cheap.
    """
    import importlib.metadata

    return importlib.metadata.version("scipy")


def _write_manifest(out_dir: Path, cfg: RunConfig, command: str,
                    summary: Mapping[str, str]) -> None:
    lines = [
        "# run manifest; this file is itself a valid config: re-run with",
        f"# vpscatter {command} --config {out_dir / 'manifest.txt'}",
        f"# command = {command}",
        f"# package.version = {__version__}",
        f"# python.version = {platform.python_version()}",
        f"# numpy.version = {np.__version__}",
        f"# scipy.version = {_scipy_version()}",
    ]
    lines += [f"{key} = {cfg.manifest_value(key)}" for key in sorted(SCHEMA)]
    lines += [f"# {key} = {value}" for key, value in summary.items()]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")


def _write_efield(path: Path, w: GevreyWeight,
                  potentials: SpectralHistory) -> None:
    """Weighted field norm and |E_k| of every positive mode, per time."""
    times, norms = efield_weighted_norms(w, potentials)
    k = potentials.k_values
    positive = np.nonzero(k > 0)[0]
    abs_e = np.abs(k[positive] * potentials.values[:, positive])
    _write_csv(path, ",".join(["t", "weighted_norm"]
                              + [f"abs_E_k{k[j]}" for j in positive]),
               [times.tolist(), norms.tolist(), *abs_e.T.tolist()])


# ---------------------------------------------------------------------------
# command pipelines

class _UnstableBackground(Exception):
    """A winding showed the background unstable where a command asserts
    stability (exit 2); ``summary`` is the manifest summary so far."""

    def __init__(self, message: str, summary: dict[str, str]):
        super().__init__(message)
        self.summary = summary


def _penrose(cfg: RunConfig, model: ModelConfig,
             eq: Equilibrium) -> tuple[PenroseReport, dict[str, str]]:
    """The scan the ``penrose.*`` keys describe, with its manifest summary."""
    scan = penrose_scan(model, eq, cfg["penrose.kmax"],
                        omega_max=cfg["penrose.omega_max"],
                        n_samples=cfg["penrose.samples"])
    summary = {
        "penrose.stable": "true" if scan.stable else "false",
        "penrose.kappa0": _fmt(scan.kappa0),
        "penrose.tail_bound": _fmt(scan.tail_bound),
    }
    return scan, summary


def _cmd_penrose(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    scan, summary = _penrose(cfg, cfg.model(), cfg.equilibrium())
    ks = sorted(scan.axis_minima)
    omegas, minima = zip(*(scan.axis_minima[k] for k in ks))
    _write_csv(out_dir / "penrose.csv",
               "k,omega_argmin,abs_D_min,winding,tail_bound",
               [ks, omegas, minima, [scan.windings[k] for k in ks],
                [scan.tail_bound] * len(ks)])
    return (EXIT_OK if scan.stable else EXIT_HYPOTHESIS), summary


def _cmd_kernel(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
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
        re, im = table.values.real, table.values.imag
        # hypot per element is the modulus abs(value) gives a numpy scalar
        # (the vectorized np.abs can differ in the last bit), inf past the
        # largest double
        with np.errstate(over="ignore"):
            moduli = np.hypot(re, im).tolist()
        _write_csv(out_dir / f"kernel_k{k}.csv", "t,re_K,im_K,abs_K",
                   [table.times.tolist(), re.tolist(), im.tolist(), moduli])
        summary[f"kernel.k{k}.lambda1"] = _fmt(table.fit_lambda1)
        summary[f"kernel.k{k}.fit_r2"] = _fmt(table.fit_r2)
        summary[f"kernel.k{k}.truncation_bound"] = _fmt(table.truncation_bound)
    # a zero of 1 + P L right of the contour: the background is unstable and
    # the tables are not the causal kernel, though they are still written
    growing = [k for k, table in zip(ks, tables) if table.winding]
    if not growing:
        return EXIT_OK, summary
    summary["kernel.stable"] = "false"
    raise _UnstableBackground(
        f"1 + P L winds around 0 along the kernel contour at k = {growing}, "
        "so a zero lies right of it: the background is unstable and the "
        "kernel tables are not the causal resolvent", summary)


def _cmd_damp(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    model, eq, w = cfg.model(), cfg.equilibrium(), cfg.weight()
    grids = cfg.grids()
    report = landau_linear_run(model, eq, w, grids, cfg["damp.amplitude"],
                               mode=cfg["damp.mode"],
                               fit_window=(cfg["fit.t_start"],
                                           cfg["fit.t_end"]))
    _write_efield(out_dir / "efield.csv", w, report.potentials)
    return EXIT_OK, {
        "damp.mode": str(report.mode),
        "damp.fit_rate": _fmt(report.fit.rate),
        "damp.fit_r2": _fmt(report.fit.r_squared),
    }


def _drive(cfg: RunConfig):
    """The fixed-point drive, on a background the penrose scan finds stable."""
    model, eq, w = cfg.model(), cfg.equilibrium(), cfg.weight()
    scan, summary = _penrose(cfg, model, eq)
    if not scan.stable:
        # a scan that returns unstable has a nonzero winding: a zero kappa0
        # with none is inconclusive, a configuration error
        growing = sorted(k for k, n in scan.windings.items() if n)
        raise _UnstableBackground(
            f"the penrose scan finds the background unstable (nonzero "
            f"winding at k = {growing}); the construction assumes a "
            "Penrose-stable background", summary)
    grids = cfg.grids()
    datum = cfg.datum()
    return model, eq, w, grids, fixed_point_drive(
        datum, model, eq, w, grids, tol=cfg["drive.tol"],
        max_iters=cfg["drive.max_iters"])


def _write_drive_artifacts(out_dir: Path, w: GevreyWeight,
                           run) -> dict[str, str]:
    # the first row is the free extension: no distance yet, and no ratio
    # until the second distance
    reports = [record.report for record in run.iterates]
    _write_csv(out_dir / "iterates.csv", "iter,N1,N2,distance,ratio",
               [range(1, len(reports) + 1), [r.n1 for r in reports],
                [r.n2 for r in reports], [None, *run.distances],
                [None, None, *run.contraction_ratios]])
    _write_efield(out_dir / "efield.csv", w, run.potentials)
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


def _cmd_scatter(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    _, _, w, _, run = _drive(cfg)
    summary = _write_drive_artifacts(out_dir, w, run)
    return (EXIT_OK if run.converged else EXIT_NUMERICAL), summary


def _cmd_roundtrip(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    model, eq, w, grids, run = _drive(cfg)
    summary = _write_drive_artifacts(out_dir, w, run)
    if not run.converged:
        return EXIT_NUMERICAL, summary
    report = roundtrip_check(run, model, eq, w, grids)
    _write_csv(out_dir / "roundtrip.csv", "t,profile_error",
               [report.times.tolist(), report.profile_errors.tolist()])
    within = report.within_bound
    summary.update({
        "roundtrip.sup_error": _fmt(report.sup_error),
        "roundtrip.richardson_dt": _fmt(report.richardson_dt),
        "roundtrip.richardson_eta": _fmt(report.richardson_eta),
        "roundtrip.bound": _fmt(report.bound),
        "roundtrip.within_bound": "true" if within else "false",
    })
    return (EXIT_OK if within else EXIT_NUMERICAL), summary


def _cmd_poisson(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    model, w = cfg.model(), cfg.weight()
    grids = cfg.grids()
    q_hat = cfg.datum().trace(grids.phase.k_values, 0.0)
    snapshot = poisson_fixed_point(model, q_hat, w, 0.0)
    u_hat = snapshot.u_hat
    _write_csv(out_dir / "poisson.csv", "k,re_u,im_u,abs_e",
               [grids.phase.k_values.tolist(), u_hat.real.tolist(),
                u_hat.imag.tolist(), [abs(e) for e in snapshot.e_hat]])
    return EXIT_OK, {
        "poisson.residual": _fmt(snapshot.residual),
        "poisson.iterations": str(snapshot.iters),
    }


def _selftest_checks() -> list[tuple[str, Callable[[], None]]]:
    model = make_preset("vp")
    eq = maxwellian()
    w = GevreyWeight()

    def check_presets() -> None:
        for name in ("vp", "screened", "vpme"):
            make_preset(name)
        assert float(np.asarray(two_stream(1.0, 0.5).mu_hat(0.0))) == 1.0

    def check_gevrey() -> None:
        # <x + y>^(1/2) <= <x>^(1/2) + <y>^(1/2) on every pair, zeros and
        # ties included
        z = np.array([0.0, 1e-6, 0.5, 3.0, 7.0, 1e3, 1e6])
        root = bracket(0.0, z) ** 0.5
        assert np.all(bracket(0.0, z[:, None] + z[None, :]) ** 0.5
                      <= root[:, None] + root[None, :])

    def check_volterra() -> None:
        times = np.linspace(0.0, 2.0, 9)
        source = SourceHistory(times=times,
                               values=np.zeros((9, 3), dtype=complex))
        tables = {k: build_discrete_resolvent(model, eq, k, 0.25, 8)
                  for k in (-1, 1)}
        assert np.all(solve_resolvent(model, eq, source, tables).values == 0)

    def check_field_linearity() -> None:
        q = np.array([0.5e-3j, 0.0, -0.5e-3j])
        snap = poisson_fixed_point(model, q, w, 0.0)
        assert snap.iters == 1 and snap.residual == 0.0
        assert np.array_equal(snap.rho_hat, q)

    def check_free_transport() -> None:
        grid = PhaseGrid(1, 6.0, 0.5)
        datum = gaussian_datum({1: 1e-3})
        start = datum.sample(grid, 0.0)
        result = integrate(start, zero_field_provider(grid),
                           TimeGrid(2.0, 0.01), eq)
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
        times = grids.time.times
        empty = np.zeros((times.size, grids.phase.n_modes), dtype=complex)
        result = apply_map_F(zeros, DensityHistory(times, empty),
                             SpectralHistory(times, empty), datum, model,
                             eq, w, grids,
                             tables=build_resolvent_tables(model, eq, grids))
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


def _cmd_selftest(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
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
    return (EXIT_OK if failures == 0 else EXIT_NUMERICAL), {
        "selftest.passed": f"{len(checks) - failures}/{len(checks)}"}


_PIPELINES = {
    "penrose": _cmd_penrose,
    "kernel": _cmd_kernel,
    "damp": _cmd_damp,
    "scatter": _cmd_scatter,
    "roundtrip": _cmd_roundtrip,
    "poisson": _cmd_poisson,
    "selftest": _cmd_selftest,
}

COMMANDS = tuple(_PIPELINES)


def run_command(command: str, cfg: RunConfig) -> int:
    """Execute one pipeline; returns the exit code and writes all artifacts.

    The one place a run's exception becomes an exit code, an ``error:``
    line and the manifest's summary.  With ``verbose`` set, a run that
    raised none prints the summary on one stderr line, ``command: key=value
    ...`` in the manifest's order and text.  An unknown command or an output
    directory that cannot be made raises :class:`ConfigError` instead.
    """
    if command not in _PIPELINES:
        raise ConfigError(f"unknown command {command!r}; choose from "
                          + ", ".join(COMMANDS))
    out_dir = Path(cfg["out.dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: "
                          f"{exc.strerror}") from None
    error = None
    try:
        code, summary = _PIPELINES[command](cfg, out_dir)
    except _UnstableBackground as exc:
        error, code, summary = exc, EXIT_HYPOTHESIS, exc.summary
    except ConfigError as exc:
        error, code, summary = exc, EXIT_CONFIG, {"error": str(exc)}
    except NumericalError as exc:
        error, code, summary = exc, EXIT_NUMERICAL, {
            "error": f"{type(exc).__name__}: {exc}"}
    _write_manifest(out_dir, cfg, command, summary)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    elif cfg["verbose"]:
        print(f"{command}: " + " ".join(f"{key}={value}" for key, value
                                         in summary.items()), file=sys.stderr)
    return code


def _usage_error(message: str):
    raise ConfigError(f"command line: {message} (see vpscatter --help)")


def _build_parser() -> argparse.ArgumentParser:
    defaults = "\n".join(f"  {key} = {spec.default or '(empty)'}  # {spec.help}"
                         for key, spec in sorted(SCHEMA.items()))
    parser = argparse.ArgumentParser(
        prog="vpscatter",
        description="Spectral diagnostics and scattering construction for "
                    "Vlasov-Poisson equations on the torus.",
        epilog="config keys and defaults:\n" + defaults,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    # a usage error is a configuration error (exit 4), not argparse's exit 2
    parser.error = _usage_error
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value config file")
    # every other dest is the config key its flag overrides, set as text;
    # the flag is named by the key's first part
    parser.add_argument("--out", dest="out.dir", metavar="DIR",
                        help="output directory (overrides out.dir)")
    parser.add_argument("--threads", metavar="N",
                        help="worker threads (overrides threads)")
    parser.add_argument("--verbose", action="store_const", const="true",
                        help="the run summary on one stderr line")
    return parser


def main(argv=None) -> int:
    try:
        flags = vars(_build_parser().parse_args(argv))
        command, path = flags.pop("command"), flags.pop("config")
        raw = _read_config(path) if path else {}
        for key, text in flags.items():
            if text is not None:
                # a bad value, or a hypothesis it breaks, is blamed on its
                # flag, not on the file; a flag key's hypotheses read that
                # key alone, so the defaults stand in for the other keys
                config_from_mapping({key: text}, "--" + key.split(".")[0])
                raw[key] = text
        return run_command(command,
                           config_from_mapping(raw, path or "<defaults>"))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
