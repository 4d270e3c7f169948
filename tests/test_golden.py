"""Every command's artifacts against goldens recorded on a reference commit.

Each case runs one CLI command on a tiny grid.  Exit codes, stdout, stderr,
counts, flags, windings and every other non-float cell must match exactly; a
float may move by 1e-12 of the largest magnitude in its CSV column, or of its
own magnitude in the manifest.  Manifest lines naming versions, the output
directory or the thread count are skipped.

Two kinds of cell are derived from the drive's distances, which sit at the
roundoff floor in the last passes, so they are compared at the tolerance
their distances already have, tau = 1e-12 of the largest ``distance`` cell
in ``iterates.csv``: ``scatter.final_distance`` within tau, and a ratio
r = d_i / d_(i-1) within r tau (1/d_i + 1/d_(i-1)).  A ratio with a zero
distance is not compared.

Record the goldens from the repository root with
``PYTHONPATH=src python3 tests/test_golden.py``; regenerating them changes a
check, so say what moved and why.
"""

import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from test_cli import DAMP_RUN, SMALL_RUN, TWO_STREAM_V1

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12
SKIPPED = ("# vpscatter ", "# package.version", "# python.version",
           "# numpy.version", "# scipy.version", "out.dir = ", "threads = ")

VPME = "model.preset = vpme\n"
# vpme runs outgrow the default smallness gate, so it is opened wide
OPEN_GATE = "poisson.eps_ball = 1e30\n"
# a complex mu_hat: the only background whose moments have complex integrands
BUMP_ON_TAIL = "equilibrium.kind = bump_on_tail\n"

# case name -> (command, config text)
CASES = {
    "penrose": ("penrose", SMALL_RUN + "model.preset = screened\n"
                "penrose.samples = 1201\npenrose.omega_max = 8.0\n"),
    "penrose_two_stream": ("penrose", SMALL_RUN
                           + "equilibrium.kind = two_stream\n"
                           "penrose.samples = 1201\npenrose.omega_max = 6.0\n"),
    "kernel": ("kernel", SMALL_RUN
               + "kernel.kmax = 2\nkernel.omega_max = 60.0\n"),
    "kernel_two_stream": ("kernel", SMALL_RUN + TWO_STREAM_V1
                          + "kernel.kmax = 2\nkernel.omega_max = 60.0\n"),
    "penrose_bump_on_tail": ("penrose", SMALL_RUN + BUMP_ON_TAIL
                             + "penrose.samples = 1201\n"
                             "penrose.omega_max = 8.0\n"),
    "kernel_bump_on_tail": ("kernel", SMALL_RUN + BUMP_ON_TAIL
                            + "kernel.kmax = 2\nkernel.omega_max = 60.0\n"),
    "damp": ("damp", DAMP_RUN),
    "damp_vpme": ("damp", DAMP_RUN + VPME + OPEN_GATE),
    "scatter": ("scatter", SMALL_RUN),
    "scatter_exhausted": ("scatter", SMALL_RUN
                          + "drive.tol = 1e-30\ndrive.max_iters = 2\n"),
    "roundtrip": ("roundtrip", SMALL_RUN),
    "roundtrip_screened": ("roundtrip", SMALL_RUN + "model.preset = screened\n"),
    "roundtrip_vpme": ("roundtrip", SMALL_RUN + VPME + "datum.modes = 1:1e-4\n"
                       + OPEN_GATE),
    "poisson": ("poisson", SMALL_RUN + VPME
                + "datum.modes = 1:1e-2\npoisson.eps_ball = 2.0\n"),
    "poisson_gate": ("poisson", SMALL_RUN + VPME + "datum.modes = 1:1e-2\n"),
    "selftest": ("selftest", SMALL_RUN),
}


def run_case(name: str, out: Path, threads: int = 1, *flags: str) -> int:
    """Run one case into ``out``, stdout and stderr included; returns its
    exit code.  ``flags`` are passed on to the command line."""
    from vpscatter import cli

    command, text = CASES[name]
    out.mkdir(parents=True)
    config = out.parent / f"{out.name}.cfg"
    config.write_text(text, encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([command, "--config", str(config), "--out", str(out),
                         "--threads", str(threads), *flags])
    (out / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    (out / "stderr.txt").write_text(stderr.getvalue(), encoding="utf-8")
    return code


def as_float(text: str):
    """The cell as a float, or None for integers, flags and messages."""
    if "." not in text and "e" not in text:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def rows(path: Path) -> list[list[str]]:
    """CSV rows, or the ``key = value`` pairs of the compared manifest lines;
    any other file is one cell per line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if path.name == "manifest.txt":
        return [line.split(" = ", 1) for line in lines
                if not line.startswith(SKIPPED)]
    if path.suffix == ".csv":
        return list(csv.reader(lines))
    return [[line] for line in lines]


def derived_tolerances(case: Path) -> dict:
    """Per file of the golden ``case``, the tolerance of each cell derived
    from its distances, keyed by (row, column) counted from 0."""
    path = case / "iterates.csv"
    if not path.exists():
        return {}
    table = rows(path)
    d_col, r_col = table[0].index("distance"), table[0].index("ratio")
    dist = [as_float(row[d_col]) for row in table]
    tau = REL_TOL * max(abs(d) for d in dist if d is not None)
    ratios = {}
    for i in range(2, len(table)):
        ratio = as_float(table[i][r_col])
        if ratio is not None:
            ratios[i, r_col] = (ratio * tau * (1.0 / dist[i] + 1.0 / dist[i - 1])
                                if dist[i] and dist[i - 1] else math.inf)
    keys = [row[0] for row in rows(case / "manifest.txt")]
    return {"iterates.csv": ratios,
            "manifest.txt": {(keys.index("# scatter.final_distance"), 1): tau}}


def mismatches(where: str, got: list, want: list, per_cell: bool,
               derived: dict) -> list[str]:
    """Cells of ``got`` that miss the golden ``want``; ``derived`` maps a
    (row, column) from 0 to its own tolerance."""
    if [len(row) for row in got] != [len(row) for row in want]:
        return [f"{where}: rows or columns differ from the golden"]
    width = max((len(row) for row in want), default=0)
    scale = [max((abs(as_float(row[j]) or 0.0) for row in want if j < len(row)),
                 default=0.0) for j in range(width)]
    bad = []
    for i, (row, gold) in enumerate(zip(got, want)):
        for j, (cell, ref) in enumerate(zip(row, gold)):
            value, ref_value = as_float(cell), as_float(ref)
            if cell == ref:
                continue
            if None not in (value, ref_value) and abs(value - ref_value) <= (
                    derived.get((i, j), REL_TOL * (
                        abs(ref_value) if per_cell else scale[j]))):
                continue
            bad.append(f"{where} row {i + 1}: {cell!r} != golden {ref!r}")
    return bad


@pytest.mark.parametrize("threads", [1, 2])
def test_artifacts_match_goldens(tmp_path, threads):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert sorted(codes) == sorted(CASES)
    bad = []
    for name in CASES:
        out = tmp_path / name
        code = run_case(name, out, threads)
        if code != codes[name]:
            bad.append(f"{name}: exit {code}, golden {codes[name]}")
        files = sorted(p.name for p in out.iterdir())
        if files != sorted(p.name for p in (GOLDEN / name).iterdir()):
            bad.append(f"{name}: wrote {files}")
            continue
        derived = derived_tolerances(GOLDEN / name)
        for file in files:
            bad += mismatches(f"{name}/{file}", rows(out / file),
                              rows(GOLDEN / name / file),
                              per_cell=file == "manifest.txt",
                              derived=derived.get(file, {}))
    assert not bad, "\n".join(bad[:40])


# runs the given cases with cli.main, then prints their exit codes and the
# scipy modules the process loaded
FRESH_RUN = """
import json, sys
from pathlib import Path
from vpscatter import cli
codes = {}
for name, (command, text) in json.loads(sys.argv[1]).items():
    Path(name + ".cfg").write_text(text, encoding="utf-8")
    codes[name] = cli.main([command, "--config", name + ".cfg", "--out", name])
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


@pytest.mark.parametrize("name", ["penrose", "kernel", "damp", "scatter",
                                  "roundtrip", "poisson", "selftest"])
def test_verbose_echoes_the_summary(tmp_path, name):
    # one stderr line per successful command, `command: key=value ...`,
    # each pair the text of its `# key = value` manifest line, in order;
    # without --verbose the goldens' stderr.txt pin an empty stderr
    out = tmp_path / name
    assert run_case(name, out, 1, "--verbose") == 0
    (line,) = (out / "stderr.txt").read_text(encoding="utf-8").splitlines()
    command, sep, pairs = line.partition(": ")
    assert command == CASES[name][0] and sep
    manifest = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    last_key = max(i for i, text in enumerate(manifest)
                   if not text.startswith("#"))
    summary = manifest[last_key + 1:]
    assert summary
    assert ["# " + pair.replace("=", " = ", 1)
            for pair in pairs.split(" ")] == summary


def test_penrose_and_kernel_load_no_scipy(tmp_path):
    # the dispersion commands and poisson build no spline, so scipy never
    # loads: not at import, not for the manifest's version line, not on an
    # unstable kernel, not in the kink search of the two-stream moments, not
    # for the datum's trace or a refused field solve
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    cases = {name: CASES[name] for name in
             ("penrose", "penrose_two_stream", "penrose_bump_on_tail",
              "kernel", "kernel_two_stream", "kernel_bump_on_tail",
              "poisson", "poisson_gate")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FRESH_RUN, json.dumps(cases)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    got, loaded = json.loads(done.stdout.splitlines()[-1])
    assert got == {name: codes[name] for name in cases}
    assert loaded == []


def record() -> None:
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        # relative output paths keep the directory out of the manifests
        os.chdir(tmp)
        for name in CASES:
            codes[name] = run_case(name, Path(name))
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
            shutil.copytree(name, GOLDEN / name)
            print(f"{name}: exit {codes[name]}")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
