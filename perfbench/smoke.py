"""Smoke test of the benchmark itself, kept out of the package's test suite.

Runs one op of each workload on tiny grids, untraced and traced, and checks
that every metric of ``BENCHMARK.json`` is reported with its unit and that no
op failed.  It also checks the two failure paths the benchmark promises: the
coverage guard trips when a wrapped name disappears or records no calls, and
``run.py`` exits non-zero without a result when the package is missing.

Usage, from the repository root: ``python3 perfbench/smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Tiny grids, with reference flags that hold on them.
TINY = {
    "scatter": ({"grid.kmax": "1", "grid.eta_max": "10", "grid.delta_eta": "0.5",
                 "grid.t_final": "2", "grid.dt": "0.25"},
                {"scatter": {"scatter.converged": "true"}}),
    "roundtrip-vpme": ({"grid.kmax": "1", "grid.eta_max": "8",
                        "grid.delta_eta": "0.25", "grid.t_final": "1",
                        "grid.dt": "0.05"},
                       {"roundtrip": {"scatter.converged": "true",
                                      "roundtrip.within_bound": "true"}}),
    "certify": ({"kernel.kmax": "1", "grid.t_final": "4",
                 "penrose.samples": "1001"},
                {"penrose-vp": {"penrose.stable": "true"},
                 "penrose-screened": {"penrose.stable": "true"},
                 "penrose-two_stream-0.5": {"penrose.stable": "true"},
                 "penrose-two_stream-1.0": {"penrose.stable": "false"},
                 "penrose-two_stream-2.0": {"penrose.stable": "true"}}),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: {message}")


def check_result(name, trace, attempted, failed, problems, metrics, spec):
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {key: m["unit"] for key, m in metrics.items()}
    expect(got == want, f"{name} trace={trace}: metrics {sorted(got)} "
                        f"do not match {kind} {sorted(want)}")
    expect(attempted >= 1 and failed == 0 and not problems,
           f"{name} trace={trace}: {failed}/{attempted} failed: {problems}")
    print(f"ok - {name} trace={trace}: {len(metrics)} metrics, "
          f"fail_frac = {failed / attempted:g}")


def check_guard(work: Path) -> None:
    saved = tracing.BOUNDARIES
    tracing.BOUNDARIES = saved + (("kinetic", "no_such_boundary"),)
    try:
        tracing.Installation(tracing.Tracer())
    except tracing.CoverageError:
        pass
    else:
        raise SystemExit("smoke: a missing boundary did not trip the guard")
    finally:
        tracing.BOUNDARIES = saved
    try:
        tracing.check_coverage([{"_span_calls": {"cli.main": 1}}],
                               ("cli.main", "kinetic.integrate"))
    except tracing.CoverageError:
        pass
    else:
        raise SystemExit("smoke: a silent boundary did not trip the guard")
    print("ok - coverage guard")

    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "certify", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           "run.py without the package did not fail cleanly")
    print("ok - run.py fails without the package")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = HERE / "_work" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    (work / "run").mkdir(parents=True)
    try:
        for name in workloads.NAMES:
            overrides, references = TINY[name]
            workload = workloads.build(name, 1, overrides, references)
            for trace in (False, True):
                result = run.measure(workload, 0.0, trace, work / "run",
                                     min_rounds=1)
                check_result(name, trace, *result, spec)
        check_guard(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
