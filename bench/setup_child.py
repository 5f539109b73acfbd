"""One timed set-up in a fresh interpreter: ``python3 bench/setup_child.py <workload> <seed>``.

Prints the seconds from before the first topoglue import to the end of
building the workload's inputs.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import workloads  # noqa: E402  (imports topoglue)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(perf_counter() - t0)
