"""vpscatter benchmark: CLI pipelines per workload, checked and timed.

Usage, from the repository root::

    python3 perfbench/run.py --workload scatter --seed 1 --seconds 35 --trace 0

Workloads are ``scatter``, ``roundtrip-vpme`` and ``certify`` (see
``NOTES.md``).  One op runs the workload's full pipeline set through
``vpscatter.cli.main`` with artifacts written, in this process, and checks
exit codes and manifest summaries against ``references.json``.  Ops repeat
in a closed loop while the next one is predicted to finish within
``--seconds`` (at least ``MIN_OPS``).  A reference kernel (``reference.py``)
runs before the first command and after each one; command times are taken
as multiples of the mean kernel time around them, which cancels the host's
speed drift.  Set-up time is measured separately in fresh interpreters.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced ops alternate and it reports the per-layer
metrics of ``tracing.py``.  The line before it records the environment, and a
table goes to stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import tracing
from reference import timed_reference
from workloads import build, read_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
MIN_OPS = 3
MIN_TRACED_PAIRS = 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def write_configs(workload, work: Path) -> list:
    paths = []
    for command in workload.commands:
        path = work / f"{command.label}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in command.config.items()),
                        encoding="utf-8")
        paths.append(path)
    return paths


def _setup_seconds(config_paths) -> float:
    start = time.perf_counter()
    probe = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                              *map(str, config_paths)],
                             stdin=subprocess.DEVNULL, cwd=ROOT)
    # A blocking wait returns when the probe exits; wait(timeout=...) polls
    # and would round the time up to a step of 50 ms.
    killer = threading.Timer(120, probe.kill)
    killer.start()
    try:
        code = probe.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, probe.args)
    return elapsed


def _run_op(cli, workload, config_paths, out: Path, tracer=None, op=0,
            on_command=None):
    """One op: every command of the workload.  Returns (wall, cpu, problems).

    ``on_command(wall, cpu)`` runs after each command with that command's
    times; the op's times cover the commands only, not ``on_command``.
    """
    shutil.rmtree(out, ignore_errors=True)
    codes = []
    problems = []
    wall = cpu = 0.0
    if tracer is not None:
        tracer.begin_op(op)
    try:
        for command, path in zip(workload.commands, config_paths):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            codes.append(cli.main([command.name, "--config", str(path),
                                   "--out", str(out / command.label)]))
            command_wall = time.perf_counter() - wall0
            command_cpu = time.process_time() - cpu0
            wall += command_wall
            cpu += command_cpu
            if on_command is not None:
                on_command(command_wall, command_cpu)
    except Exception:  # noqa: BLE001 - an escaped error is a failed op
        problems.append(traceback.format_exc())
    finally:
        if tracer is not None:
            tracer.end_op()
    for command, code in zip(workload.commands, codes):
        try:
            summary = read_summary(out / command.label)
        except OSError as exc:
            problems.append(f"{command.label}: {exc}")
            continue
        problems += workload.check(command, code, summary)
    return wall, cpu, problems


def _artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _openblas_threads() -> dict:
    """Thread count of every loaded OpenBLAS, by library file name."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return found
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(lib).name] = getter()
                break
    return found


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              env=env, stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _environment(args) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_threads": _openblas_threads(), "commit": _git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace)}


def _loop(seconds: float, min_rounds: int, one_round):
    """Closed loop: run rounds while the next is predicted to end in time."""
    start = time.perf_counter()
    lengths = []
    while True:
        t0 = time.perf_counter()
        one_round()
        lengths.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(lengths) >= min_rounds and \
                elapsed + statistics.median(lengths) > seconds:
            return


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seconds: float, trace: bool, work: Path,
            min_rounds: int | None = None):
    """Run the workload's ops; returns (attempted, failed, problems, metrics).

    A round is one op untraced, or an untraced and a traced op with tracing;
    at least ``min_rounds`` run (default ``MIN_OPS`` or ``MIN_TRACED_PAIRS``).
    """
    from vpscatter import cli

    config_paths = write_configs(workload, work)
    setups = [] if trace else [_setup_seconds(config_paths)
                               for _ in range(SETUP_PROBES)]
    out = work / "out"
    walls, cpus, problems = [], [], []
    failed = 0

    def op(tracer=None, index=0, on_command=None):
        nonlocal failed
        wall, cpu, bad = _run_op(cli, workload, config_paths, out, tracer, index,
                                 on_command)
        failed += bool(bad)
        problems.extend(bad)
        return wall, cpu

    if not trace:
        # Each command is bracketed by reference kernels and its time taken
        # as a multiple of their mean, which cancels the host's speed drift;
        # an op's ratio sums those of its commands.
        timed_reference()  # warm-up
        refs = [timed_reference()]
        ratios = []

        def one_round():
            ratio = [0.0, 0.0]

            def on_command(wall, cpu):
                refs.append(timed_reference())
                around = (refs[-2] + refs[-1]) / 2
                ratio[0] += wall / around
                ratio[1] += cpu / around

            wall, cpu = op(on_command=on_command)
            walls.append(wall)
            cpus.append(cpu)
            ratios.append(ratio)

        _loop(seconds, min_rounds or MIN_OPS, one_round)
        print("op seconds: " + " ".join(f"{w:.3f}" for w in walls)
              + "\nreference seconds: "
              + " ".join(f"{r:.3f}" for r in refs), file=sys.stderr)
        print(f"median op: {statistics.median(walls):.4f} s wall, "
              f"{statistics.median(cpus):.4f} s cpu; median reference: "
              f"{statistics.median(refs):.4f} s", file=sys.stderr)
        metrics = {
            "solve_ref": _metric(statistics.median(r[0] for r in ratios), "ref"),
            "cpu_ref": _metric(statistics.median(r[1] for r in ratios), "ref"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": _metric((len(walls) - failed) / len(walls), "ratio"),
        }
        return len(walls), failed, problems, metrics

    tracer = tracing.Tracer()
    traced_walls, per_op = [], []

    def one_pair():
        walls.append(op()[0])
        index = len(traced_walls)
        installation = tracing.Installation(tracer)
        try:
            traced_walls.append(op(tracer, index)[0])
        finally:
            installation.remove()
        per_op.append(tracing.op_metrics(
            tracer, index, {"cli.artifact_bytes": _artifact_bytes(out)}))

    _loop(seconds, min_rounds or MIN_TRACED_PAIRS, one_pair)
    print("op seconds, untraced: " + " ".join(f"{w:.3f}" for w in walls)
          + "; traced: " + " ".join(f"{w:.3f}" for w in traced_walls),
          file=sys.stderr)
    tracer.write(work.parent / f"trace-{workload.name}.jsonl")
    tracing.check_coverage(per_op, workload.expected_spans)
    for key in tracing.EXACT_COUNTS:
        if len({m[key] for m in per_op}) > 1:
            problems.append(f"{key} differs between traced ops: "
                            + ", ".join(str(m[key]) for m in per_op))
    layer_total = [sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
                   for m in per_op]
    metrics = {}
    for key, unit in tracing.LAYER_METRICS.items():
        if key.startswith("trace."):
            continue
        metrics[key] = _metric(statistics.median(m[key] for m in per_op), unit)
    metrics["trace.overhead_frac"] = _metric(
        statistics.median(traced_walls) / statistics.median(walls) - 1.0, "ratio")
    metrics["trace.coverage_frac"] = _metric(
        statistics.median(t / w for t, w in zip(layer_total, traced_walls)),
        "ratio")
    attempted = len(walls) + len(traced_walls)
    return attempted, failed, problems, metrics


def _table(metrics: dict, attempted: int, failed: int) -> str:
    rows = [f"{name:32s} {m['value']:>16.6g} {m['unit']}"
            for name, m in metrics.items()]
    rows.append(f"{'fail_frac':32s} {failed / attempted:>16.6g} ratio")
    rows.append(f"{'ops':32s} {attempted:>16d} count")
    return "\n".join(rows)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "vpscatter" / "__init__.py").is_file():
        print(f"error: no vpscatter package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        workload = build(args.workload, args.seed)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        attempted, failed, problems, metrics = measure(
            workload, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(_table(metrics, attempted, failed), file=sys.stderr)
    print(json.dumps({"env": _environment(args)}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
