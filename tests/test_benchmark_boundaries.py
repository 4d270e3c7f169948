"""The benchmark's tracer still finds every package boundary it wraps.

``perfbench/tracing.py`` wraps functions and methods by name; a rename or a
deletion in the package would only surface when the benchmark runs.  The
first test installs the tracer's wrappers once and removes them again.  The
second runs one traced op of each workload on the smoke test's tiny grids
and checks that every span the workload promises (its ``*_SPANS`` tuple)
recorded calls, so a refactor that stops calling a traced boundary fails
here rather than in the benchmark.  The third checks the tracer's lookup
tallies, the only count of reads past the frequency grid's edge, against
what the lookups return, with a shifted-row block read twice: the second
read comes from the lookup plan the package remembers.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import vpscatter.field
from vpscatter import cli, kinetic
from vpscatter.kinetic import EDGE_SLACK, PhaseGrid, SpectralState

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


def test_lookup_tallies_follow_the_edge_rule(bench):
    tracing = bench[0]
    grid = PhaseGrid(2, 8.0, 0.5)
    rng = np.random.default_rng(3)
    shape = (grid.n_modes, grid.n_eta)
    # random rows: no node and no interpolated point reads exactly 0
    state = SpectralState(0.0, grid, rng.normal(size=shape)
                          + 1j * rng.normal(size=shape))
    edge = grid.eta_max * (1.0 + EDGE_SLACK) + EDGE_SLACK
    band, past = 2.0 ** -40, 2.0 ** -30  # inside and past the slack band
    assert grid.eta_max + band < edge < grid.eta_max + past
    shifts = np.array([band, -band, past, -past, 1.25, -2.75, 20.0])
    block = grid.eta + shifts[:, None]
    # modes 5, -3 and 3 are off the lattice; their reads are never tallied
    k = np.array([-3, 0, 1, 2, 5, -2, 1, 3, 1])
    eta = np.array([0.0, 8.0 + band, 9.0, -8.0 - past, -20.0, 3.1, -8.5,
                    0.0, 8.0])
    tracer = tracing.Tracer()
    installation = tracing.Installation(tracer)
    kinetic._row_plans.cache_clear()
    tracer.begin_op(0)
    try:
        interp = state.interpolant()
        rows = interp.all_rows(block)
        pairs = interp.at_pairs(k, eta)
        again = interp.all_rows(block.copy())
    finally:
        tracer.end_op()
        installation.remove()
    assert kinetic._row_plans.cache_info().hits == 1
    assert np.array_equal(again, rows)
    counts = tracer.counts[0]
    assert counts["kinetic.interp_points"] == 2 * block.size + eta.size
    # points that read exactly 0: every mode of a shifted row's point, or an
    # on-lattice pair; they are the points past the edge, and no others
    row_zeros = np.all(rows == 0.0, axis=0)
    assert np.array_equal(row_zeros, np.any(rows == 0.0, axis=0))
    on_lattice = np.abs(k) <= grid.k_max
    pair_zeros = on_lattice & (pairs == 0.0)
    assert np.array_equal(row_zeros, np.abs(block) > edge)
    assert np.array_equal(pair_zeros, on_lattice & (np.abs(eta) > edge))
    assert np.array_equal(np.all(again == 0.0, axis=0), row_zeros)
    truncated = 2 * np.count_nonzero(row_zeros) + np.count_nonzero(pair_zeros)
    assert counts["kinetic.truncated"] == truncated
