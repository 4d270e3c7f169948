"""The benchmark's tracer still finds every package boundary it wraps.

``perfbench/tracing.py`` wraps functions and methods by name; a rename or a
deletion in the package would only surface when the benchmark runs.  The
first test installs the tracer's wrappers once and removes them again.  The
second runs one traced op of each workload on the smoke test's tiny grids
and checks that every span the workload promises (its ``*_SPANS`` tuple)
recorded calls, so a refactor that stops calling a traced boundary fails
here rather than in the benchmark.
"""

import sys
from pathlib import Path

import pytest

import vpscatter.field
from vpscatter import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_MODULES = ("tracing", "workloads", "reference", "run", "smoke")


@pytest.fixture
def bench(monkeypatch):
    """Fresh imports of the benchmark modules; sys.path is restored after."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    import run
    import smoke
    import tracing
    import workloads
    return tracing, workloads, run, smoke


def test_every_traced_boundary_exists(bench):
    tracing = bench[0]
    original = vpscatter.field.poisson_fixed_point
    installation = tracing.Installation(tracing.Tracer())
    try:
        assert vpscatter.field.poisson_fixed_point is not original
    finally:
        installation.remove()
    assert vpscatter.field.poisson_fixed_point is original


def test_tiny_traced_ops_reach_every_expected_span(bench, tmp_path):
    tracing, workloads, run, smoke = bench
    tracer = tracing.Tracer()
    for op, name in enumerate(workloads.NAMES):
        overrides, references = smoke.TINY[name]
        workload = workloads.build(name, 1, overrides, references)
        paths = run.write_configs(workload, tmp_path)
        problems = []
        installation = tracing.Installation(tracer)
        tracer.begin_op(op)
        try:
            for command, path in zip(workload.commands, paths):
                out = tmp_path / command.label
                code = cli.main([command.name, "--config", str(path),
                                 "--out", str(out)])
                problems += workload.check(command, code,
                                           workloads.read_summary(out))
        finally:
            tracer.end_op()
            installation.remove()
        assert not problems, f"{name}: {problems}"
        metrics = tracing.op_metrics(tracer, op, {})
        tracing.check_coverage([metrics], workload.expected_spans)
