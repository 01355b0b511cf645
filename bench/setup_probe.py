"""Time one set-up in a fresh interpreter: import bigiso, make the inputs.

Usage: python3 bench/setup_probe.py WORKLOAD SEED   (prints seconds)
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bigiso  # noqa: E402,F401

import workloads  # noqa: E402

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
