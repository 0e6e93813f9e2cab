"""Time one set-up in a fresh interpreter: import ekrlab (numpy included)
and build a workload's inputs.  Prints the seconds taken at reference-host
speed, using two reference samples taken right after.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from time import perf_counter

start = perf_counter()

import run  # noqa: E402  (sibling modules)
from measure import HostSpeed  # noqa: E402

run.import_program()
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
elapsed = perf_counter() - start
speed = HostSpeed()
print(speed.scaled(elapsed, speed.sample(), speed.sample()))
