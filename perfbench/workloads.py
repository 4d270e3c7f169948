"""Benchmark workloads: the CLI commands one op runs, and how to check them.

One op of a workload runs every command of its pipeline set through
``vpscatter.cli.main``, each writing its artifacts, and is checked against
the expected exit codes and the reference summary values in
``references.json``.  The seed draws the sign of every datum amplitude; a
sign flip is a half-period translation, so one reference table serves every
seed.  The certify workload has no datum and therefore no seed-dependent
input.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Relative tolerance for well-conditioned floats: admits roundoff from
# reordered sums, rejects any change in the discretisation or the algorithm.
REL_TOL = 1e-6
# Values that are themselves at roundoff level (the last fixed-point gap, the
# round-trip error and its Richardson estimates) move by tens of percent under
# a reordering; they must stay within this factor of the reference.
ROUNDOFF_FACTOR = 10.0
ROUNDOFF_KEYS = frozenset({
    "scatter.final_distance",
    "roundtrip.sup_error",
    "roundtrip.richardson_dt",
    "roundtrip.richardson_eta",
})
# The round-trip bound is 10 (tol + Richardson estimate); the estimate, at
# roundoff level, makes up about 2e-5 of it.
BOUND_KEYS = frozenset({"roundtrip.bound"})
BOUND_REL_TOL = 1e-3


@dataclass(frozen=True)
class Command:
    """One CLI pipeline call: ``vpscatter <name> --config <file> --out <dir>``."""

    label: str
    name: str
    config: dict
    expect_exit: int


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    # boundaries (trace span names) that must record calls on this workload
    expected_spans: tuple
    references: dict

    def check(self, command: Command, code: int, summary: dict) -> list:
        """Every mismatch between one command's outputs and the references."""
        bad = []
        if "error" in summary:
            bad.append(f"{command.label}: {summary['error']}")
        if code != command.expect_exit:
            bad.append(f"{command.label}: exit {code}, expected "
                       f"{command.expect_exit}")
        for key, want in self.references.get(command.label, {}).items():
            got = summary.get(key)
            if got is None:
                bad.append(f"{command.label}: {key} missing")
            elif not _matches(key, got, want):
                bad.append(f"{command.label}: {key} = {got}, reference {want}")
        return bad


def _matches(key: str, got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want  # flags and winding lists match exactly
    if key.endswith(".iterations"):
        return g == w
    if key in ROUNDOFF_KEYS:
        return (g > 0) == (w > 0) and (
            g == w or abs(math.log(abs(g) / abs(w))) <= math.log(ROUNDOFF_FACTOR))
    tol = BOUND_REL_TOL if key in BOUND_KEYS else REL_TOL
    return abs(g - w) <= tol * abs(w)


def _signed(seed: int, amplitudes: dict) -> str:
    rng = random.Random(seed)
    return ",".join(f"{k}:{a if rng.random() < 0.5 else -a!r}"
                    for k, a in sorted(amplitudes.items()))


# Grid choices are recorded with their reasons in NOTES.md.
SCATTER_GRID = {"grid.kmax": "2", "grid.eta_max": "22", "grid.delta_eta": "0.25",
                "grid.t_final": "8", "grid.dt": "0.1"}
ROUNDTRIP_GRID = {"model.preset": "vpme", "grid.kmax": "2", "grid.eta_max": "16",
                  "grid.delta_eta": "0.125", "grid.t_final": "4",
                  "grid.dt": "0.1"}
CERTIFY_SCAN = {"penrose.kmax": "4", "kernel.kmax": "4"}
TWO_STREAM_V0 = ("0.5", "1.0", "2.0")
UNSTABLE_V0 = "1.0"

SCATTER_SPANS = (
    "cli.main", "kinetic.integrate", "kinetic.transport_rhs",
    "kinetic.StateInterpolant.__init__", "kinetic.StateInterpolant.at_pairs",
    "kinetic.StateInterpolant.all_rows", "kinetic.assemble_source_history",
    "kinetic.density_trace", "kinetic.HistoryFieldProvider.__call__",
    "field.poisson_fixed_point", "field.electric_from_density",
    "field.h_of_field", "gevrey.n1_at_time", "gevrey.norm_N2",
    "volterra.build_discrete_resolvent", "volterra.solve_resolvent",
    "scattering.fixed_point_drive", "scattering.apply_map_F",
    "scattering.iterate_distance", "model.mu_hat",
)
ROUNDTRIP_SPANS = SCATTER_SPANS + (
    "kinetic.SelfConsistentFieldProvider.__call__",
    "field.weighted_density_norm", "scattering.roundtrip_check",
    "scattering.state_to_physical",
)
CERTIFY_SPANS = (
    "cli.main", "dispersion.penrose_scan", "dispersion.dispersion_on_axis",
    "dispersion.inverse_laplace_Khat", "model.mu_hat",
)


def build(name: str, seed: int, overrides: dict | None = None,
          references: dict | None = None) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``.

    ``overrides`` replaces config keys in every command (the smoke test uses
    it for tiny grids, with its own ``references``).
    """
    extra = dict(overrides or {})
    base = {"threads": "1"}
    if name == "scatter":
        cfg = {**base, **SCATTER_GRID, "datum.modes": _signed(seed, {1: 1e-3})}
        commands = (Command("scatter", "scatter", {**cfg, **extra}, 0),)
        spans = SCATTER_SPANS
    elif name == "roundtrip-vpme":
        cfg = {**base, **ROUNDTRIP_GRID, "datum.modes": _signed(seed, {1: 1e-6})}
        commands = (Command("roundtrip", "roundtrip", {**cfg, **extra}, 0),)
        spans = ROUNDTRIP_SPANS
    elif name == "certify":
        commands = []
        for preset in ("vp", "screened"):
            cfg = {**base, **CERTIFY_SCAN, "model.preset": preset, **extra}
            commands.append(Command(f"penrose-{preset}", "penrose", cfg, 0))
            commands.append(Command(f"kernel-{preset}", "kernel", cfg, 0))
        for v0 in TWO_STREAM_V0:
            cfg = {**base, "equilibrium.kind": "two_stream",
                   "equilibrium.v0": v0, **extra}
            commands.append(Command(f"penrose-two_stream-{v0}", "penrose", cfg,
                                    2 if v0 == UNSTABLE_V0 else 0))
        commands = tuple(commands)
        spans = CERTIFY_SPANS
    else:
        raise KeyError(f"unknown workload {name!r}; choose from "
                       + ", ".join(NAMES))
    if references is None:
        references = load_references()[name]
    return Workload(name, commands, spans, references)


NAMES = ("scatter", "roundtrip-vpme", "certify")


def load_references() -> dict:
    return json.loads((HERE / "references.json").read_text(encoding="utf-8"))


def read_summary(out_dir: Path) -> dict:
    """Summary lines of a run's manifest, plus the winding column if any."""
    summary = {}
    manifest = (out_dir / "manifest.txt").read_text(encoding="utf-8")
    for line in manifest.splitlines():
        key, eq, value = line[2:].partition(" = ")
        if line.startswith("# ") and eq and key != "command" \
                and not key.endswith(".version"):
            summary[key] = value
    penrose = out_dir / "penrose.csv"
    if penrose.is_file():
        rows = penrose.read_text(encoding="utf-8").splitlines()[1:]
        summary["penrose.windings"] = ",".join(r.split(",")[3] for r in rows)
    return summary
