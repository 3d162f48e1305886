"""The machine's current speed, from a fixed probe timed between operations.

The benchmark shares a few cores of a host whose speed wanders: a fixed
enumeration timed back to back in one process ran anywhere from 1x to 2x
its quiet time over ten minutes, in phases that last from seconds to
minutes (20 s window medians spread 35-44 % IQR/median).  No statistic
over raw wall time holds a bound through that.  The same interpreter
running a fixed piece of pure-Python work (:func:`probe`) slows in step
with it: the ratio of the two spread 4-7 % over the same windows.

So every timing the benchmark reports is *scaled to reference speed*: a
raw duration times ``REFERENCE_PROBE_S / p``, where ``p`` is the mean
duration of the two probes run nearest to it in the same process (for an
operation longer than the probe interval, the probe just before it and
the one just after).  On a quiet
machine of the reference kind (a 2-vCPU Xeon VM, Python 3.11) the scaled
value reads about the same as the raw one; when the host slows, both the
operation and the probe slow, and the scaled value stays put.  Raw values
stay in each run's detail line.

The probe is benchmark code, not ``repro`` code: no change to the program
can make it faster or slower.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

#: The probe's duration at reference speed.  This defines the unit the
#: scaled timings are in; it is a round value near the probe's quiet
#: time on the reference VM.
REFERENCE_PROBE_S = 0.002

#: Scale each timing by the median of this many probes nearest to it.
#: Speed changes within seconds, so the nearest probes track it best: on
#: the same ten seeds per workload, two gave interquartile ranges of
#: 3-5 % of the median where nine gave 4-16 % and raw time 5-33 %.
NEAREST = 2


def probe() -> int:
    """Fixed interpreter work of the engine's kind: reachability over a
    small graph with dicts, sets, tuples and a sort."""
    size = 211
    successors = {node: ((node * 7 + 3) % size, (node * 13 + 5) % size) for node in range(size)}
    reached = []
    for root in range(0, size, 4):
        seen = {root}
        stack = [root]
        while stack:
            for successor in successors[stack.pop()]:
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        reached.append((len(seen), root))
    reached.sort()
    return reached[-1][0]


class Speed:
    """Probe samples of one process, and the factor that scales a timing
    taken among them to reference speed."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval  #: seconds between probes, at least
        self.times: list[float] = []  #: probe midpoints, ascending
        self.seconds: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        start = perf_counter()
        probe()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.seconds.append(end - start)
        self._last = end

    def due(self) -> bool:
        """Whether the last probe ended at least ``interval`` ago."""
        return perf_counter() - self._last >= self.interval

    def tick(self) -> None:
        if self.due():
            self.sample()

    def factor(self, at: float) -> float:
        """``REFERENCE_PROBE_S`` over the median of the ``NEAREST`` probes
        whose midpoints lie nearest to time ``at``."""
        if not self.times:
            raise RuntimeError("no probe samples")
        index = bisect.bisect_left(self.times, at)
        low, high = index, index
        while high - low < NEAREST and (low > 0 or high < len(self.times)):
            if low > 0 and (high == len(self.times) or at - self.times[low - 1] <= self.times[high] - at):
                low -= 1
            else:
                high += 1
        return REFERENCE_PROBE_S / statistics.median(self.seconds[low:high])

    def scale(self, seconds: float, at: float) -> float:
        return seconds * self.factor(at)

    def summary(self) -> dict:
        """Probe count and the median probe time, for the detail line."""
        return {
            "probes": len(self.seconds),
            "probe_ms": statistics.median(self.seconds) * 1e3 if self.seconds else None,
        }
