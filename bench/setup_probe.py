"""Time one cold set-up: import the library and load a workload's inputs.

Runs in a fresh interpreter so the import is not already cached, and
prints the seconds taken.  ``run.py`` starts it several times per run.

    python3 bench/setup_probe.py gen|check|survey
"""

import os
import sys
import time

START = time.perf_counter()
BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]]().load()
print(time.perf_counter() - START)
