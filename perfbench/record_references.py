"""Record ``references.json``: the summary values every op is checked against.

Run from the repository root, on the commit whose behaviour is the
reference: ``python3 perfbench/record_references.py``.  Each workload runs
once per datum sign; the script prints the largest relative difference
between the two signs for every float, so the tolerances in
``workloads.py`` can be read against it, and stores the values of seed 0.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from run import write_configs  # noqa: E402
from vpscatter import cli  # noqa: E402


def run_once(workload, work: Path) -> dict:
    found = {}
    for command, path in zip(workload.commands, write_configs(workload, work)):
        out = work / command.label
        code = cli.main([command.name, "--config", str(path), "--out", str(out)])
        if code != command.expect_exit:
            raise SystemExit(f"{command.label}: exit {code}, expected "
                             f"{command.expect_exit}")
        found[command.label] = workloads.read_summary(out)
    return found


def flipped(modes: str) -> str:
    return ",".join(f"{k}:{-float(a)!r}"
                    for k, a in (p.split(":") for p in modes.split(",")))


def main() -> None:
    refs = {}
    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        wl = workloads.build(name, seed=0, references={})
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            plus = run_once(wl, Path(tmp))
        modes = wl.commands[0].config.get("datum.modes")
        if modes is not None:
            other = workloads.build(name, 0, {"datum.modes": flipped(modes)}, {})
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                minus = run_once(other, Path(tmp))
            for label, summary in plus.items():
                for key, value in summary.items():
                    try:
                        a, b = float(value), float(minus[label][key])
                    except ValueError:
                        assert value == minus[label][key], (key, value)
                        continue
                    rel = abs(a - b) / abs(a) if a else abs(b)
                    print(f"{name} {key}: sign flip changes it by {rel:.2e}")
        refs[name] = plus
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n",
                                          encoding="utf-8")


if __name__ == "__main__":
    main()
