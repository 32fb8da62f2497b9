"""The host-speed probe shared by the workers and the CLI children.

Every PERIOD_S of wall time a timer signal runs a small fixed kernel and
records when it ended and how long it took.  The kernel sums exact
fractions in pure Python, the program's main kind of work, and touches no
fracspec code, so a change to the program cannot move it; only the host's
speed does.  It imports nothing the package does not, so it does not change
what set-up imports.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PROBE_TERMS = 300
# Twenty samples a second.  A request's correction is the median of the
# samples taken while it ran, or of the five nearest, so a short request is
# corrected by the speed within about 0.1 s of it, and a one-second CLI
# child gets about twenty samples; at ten a second the children's probe did
# not follow their slowdowns.
PERIOD_S = 0.05


class SpeedProbe:
    """Samples the host's speed while the process runs, however long a
    request takes."""

    def __init__(self):
        self.samples = []    # [perf_counter at the end, seconds taken]

    def _tick(self, signum, frame):
        start = time.perf_counter()
        s = Fraction(0)
        for i in range(1, PROBE_TERMS):
            s += Fraction(1, i % 97 + 1)
        end = time.perf_counter()
        self.samples.append([end, end - start])

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds the probe ran between t0 and t1."""
        return sum(d for end, d in self.samples if t0 <= end <= t1)
