"""Time one workload's set-up in a fresh process and print it as JSON.

Run by the benchmark as ``python3 perfbench/setup_probe.py <workload>
<seed>`` from the root of a checkout.  The timer starts before the
program's first import and after the benchmark's own input generation.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    from common import bootstrap
    bootstrap()
    from workloads import load
    wl = load(workload)
    inputs = wl.prepare(seed)
    t0 = time.perf_counter()
    wl.setup(inputs)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
