"""The benchmark's tracer still finds every package boundary it wraps.

``perfbench/tracing.py`` wraps functions and methods by name; a rename or a
deletion in the package would only surface when the benchmark runs.  This
installs the tracer's wrappers once and removes them again.
"""

import sys
from pathlib import Path

import vpscatter.field

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_boundary_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    original = vpscatter.field.poisson_fixed_point
    installation = tracing.Installation(tracing.Tracer())
    try:
        assert vpscatter.field.poisson_fixed_point is not original
    finally:
        installation.remove()
    assert vpscatter.field.poisson_fixed_point is original
