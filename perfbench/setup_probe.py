"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is `import fedhlm` plus the workload's own set-up: config parse and
SimulationState construction for the simulations, the 20 triples for
adjudicate. Interpreter start-up is not included.

    python3 perfbench/setup_probe.py <src-dir> <workload> <seed> <work-dir>
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fedhlm  # noqa: E402,F401
import workloads  # noqa: E402

workloads.make(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])).setup()
print(repr(time.perf_counter() - start))
