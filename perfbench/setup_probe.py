"""Set-up probe: a fresh interpreter imports vpscatter and resolves configs.

``run.py`` times this script from process start to exit; that wall time is
the benchmark's ``setup_s``.  Usage: ``python3 perfbench/setup_probe.py
CONFIG...`` from the repository root.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vpscatter.cli import parse_config  # noqa: E402

for path in sys.argv[1:]:
    parse_config(path)
