"""Machine-speed probe: rescales times measured on a host whose speed drifts.

On a shared host the same op can take 40% longer in one minute than in the
next, and the slowdown lasts long enough to move the median of a whole run.
While active, the probe times a fixed kernel every PROBE_EVERY_S seconds from
a timer signal, so it also samples inside long ops.  The kernel uses only the
standard library (JSON parsing and dict updates); over 1-second blocks its
time tracks that of a PCG dipole solve with correlation 0.97-0.98.  A timed
interval is rescaled to the speed at which the kernel takes REFERENCE_S, and
the probe's own time inside the interval is left out.
"""

from __future__ import annotations

import bisect
import json
import signal
from time import perf_counter

# Fastest kernel time on the 2-core host the benchmark was tuned on.
REFERENCE_S = 1.2e-3
PROBE_EVERY_S = 0.1
PROBE_REPEATS = 3  # a probe takes the fastest of this many kernel runs


class SpeedProbe:
    def __init__(self):
        self._doc = json.dumps({"edges": [[i, i + 1, 1.5 * i] for i in range(1200)]})
        self.starts = []  # start time of each probe
        self.ends = []  # end time of each probe
        self.values = []  # its kernel time
        self._previous = None
        self._busy = False

    def _kernel(self):
        json.loads(self._doc)
        counts = {}
        for i in range(8000):
            counts[i % 401] = counts.get(i % 401, 0) + i

    def sample(self, *_):
        if self._busy:  # a timer signal that lands inside a probe
            return
        self._busy = True
        start = perf_counter()
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            t = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - t)
        self.starts.append(start)
        self.ends.append(perf_counter())
        self.values.append(best)
        self._busy = False

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def rescale(self, start, end):
        """Seconds of [start, end], less probe time, at the reference speed.

        The speed is the mean kernel time over the probes inside the interval
        and the nearest probe on either side.  A probe runs to completion
        once started, so each lies wholly before, inside or after the interval.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        busy = sum(self.ends[i] - self.starts[i] for i in range(first, last))
        near = self.values[max(first - 1, 0):last + 1]
        return (end - start - busy) * REFERENCE_S * len(near) / sum(near)
