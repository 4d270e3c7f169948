"""Shared fixtures for the heavyweight end-to-end runs.

The contraction and round-trip drives cost seconds to minutes, so each one
runs once per session and every consumer reads from the cached result.
"""

import pytest
from oracles import landau_root

from vpscatter import (
    GevreyWeight,
    PhaseGrid,
    TimeGrid,
    gaussian_datum,
    make_preset,
    maxwellian,
)
from vpscatter.scattering import (
    RunGrids,
    build_resolvent_tables,
    fixed_point_drive,
    landau_linear_run,
    roundtrip_check,
)


@pytest.fixture(scope="session")
def contraction_pair():
    """Converged drives at amplitude 1e-3 and 5e-4 on the stable background."""
    model = make_preset("vp")
    eq = maxwellian()
    w = GevreyWeight()
    grids = RunGrids(PhaseGrid(2, 70.0, 0.25), TimeGrid(32.0, 0.1))
    runs = {
        eps: fixed_point_drive(gaussian_datum({1: eps}), model, eq, w, grids,
                               tol=1e-9, max_iters=25)
        for eps in (1e-3, 5e-4)
    }
    # for the tests that apply the map by hand
    tables = build_resolvent_tables(model, eq, grids)
    return {"model": model, "eq": eq, "w": w, "grids": grids,
            "tables": tables, "tol": 1e-9, "runs": runs}


@pytest.fixture(scope="session")
def roundtrip_pair():
    """Short-horizon round trips at amplitude 1.6e-2 and 8e-3.

    The amplitudes sit where the quadratic part of the forward/backward
    mismatch dominates the linear discretization floor, which is what the
    amplitude-halving comparison needs.
    """
    model = make_preset("vp")
    eq = maxwellian()
    w = GevreyWeight()
    grids = RunGrids(PhaseGrid(3, 24.0, 0.0625), TimeGrid(5.0, 0.025))
    pairs = {}
    for eps in (1.6e-2, 8e-3):
        run = fixed_point_drive(gaussian_datum({1: eps}), model, eq, w, grids,
                                tol=1e-9, max_iters=25)
        pairs[eps] = (run, roundtrip_check(run, model, eq, w, grids))
    return {"w": w, "grids": grids, "tol": 1e-9, "pairs": pairs}


@pytest.fixture(scope="session")
def landau_small_amplitude():
    """Forward linear-regime field trace at amplitude 1e-4 plus the root."""
    model = make_preset("vp")
    eq = maxwellian()
    w = GevreyWeight()
    grids = RunGrids(PhaseGrid(2, 60.0, 0.125), TimeGrid(26.0, 0.05))
    report = landau_linear_run(model, eq, w, grids, 1e-4, mode=1,
                               fit_window=(5.0, 25.0))
    return {"report": report, "root": landau_root(model, eq, 1)}
