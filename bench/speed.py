"""How fast the CPU runs right now: a fixed pure-Python probe of about 1 ms.

On a shared host the CPU the benchmark is pinned to changes speed as other
tenants come and go.  On the 2-core Intel Xeon host this benchmark was built
on, it switched every few seconds between two speeds about 1.7x apart, so a
run's median op time depended on how much of the run fell in the slow phase.
Timing the probe right before and right after each op gives the speed the op
ran at.  Scaling the op time by (reference probe time / probe time around
the op) reads it as if the op had run at a fixed reference speed, the one
at which the probe takes ``run.PROBE_REFERENCE_S``.  A fixed reference, not
one estimated per run, keeps runs comparable with each other.  The probe
uses only ``refs``, never topoglue, so a change to the program cannot move
it.
"""

import signal
from time import perf_counter

import refs

_SPACE = refs.product(refs.C4, refs.ARC3)
INTERVAL_S = 0.05


def probe() -> float:
    """Seconds one fixed count of continuous maps takes right now."""
    t0 = perf_counter()
    refs.count_continuous(_SPACE, refs.SIERP)
    return perf_counter() - t0


class Meter:
    """Runs the probe every INTERVAL_S seconds while an op runs.

    A long op can span several speed phases, so the probes taken during it
    (from a SIGALRM handler, between bytecodes of the op) give its speed
    better than the two around it.  ``stolen`` is the time the handler took,
    which the caller subtracts from the op's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(probe())
        self.stolen += perf_counter() - t0

    def start(self) -> None:
        self.samples, self.stolen = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
