"""Regenerate the spiral fixtures that the benchmark uses as its oracle.

Writes ``render_emg(gen_spiral(k))`` to ``fixtures/spiral-k<k>.emg`` for
k = 3..10.  The ``gen`` workload must reproduce these files byte for byte,
and the ``survey`` workload parses them instead of generating.  k = 9 and
k = 10 take about a minute between them.

    python3 bench/make_fixtures.py
"""

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from octacolor import gen_spiral, render_emg  # noqa: E402
from workloads import FIXTURE_KS, fixture_path  # noqa: E402


def main() -> int:
    for k in FIXTURE_KS:
        start = time.perf_counter()
        text = render_emg(gen_spiral(k))
        fixture_path(k).write_text(text)
        print(f"k={k}: {len(text)} bytes in {time.perf_counter() - start:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
