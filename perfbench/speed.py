"""Host-speed sampling, so that times do not depend on the shared host's pace.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.7x from one ten-second stretch to the next, with CPU time
tracking wall time. No number of repeats averages that out over a
ten-minute series of runs. So each child process measures the host's
speed while the program runs and divides it out:

- a wall-clock timer interrupts the program every ``PERIOD_S`` and the
  handler runs ``reference_chunk``, a fixed piece of pure-Python work
  that imports nothing from privamm (bit operations on 64-bit lanes,
  dict and list updates, exact rationals and a 256-bit modular power,
  the kinds of work the program does). Its duration is one speed sample;
- the handler's own time is taken off the program's clock
  (``Sampler.clock``), so no measured span includes it;
- after the program ends, ``Normaliser`` turns program-clock timestamps
  into *reference nanoseconds*: every stretch between samples is scaled
  by ``NOMINAL_NS / chunk_ns``, the chunk time taken as the running
  median of ``SMOOTH`` neighbouring samples.

A reference second is therefore the time the program would have taken
on a host that runs the chunk in ``NOMINAL_NS``. A change to privamm
moves it fully, because the chunk does not change with the program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array
from fractions import Fraction

#: Seconds between speed samples.
PERIOD_S = 0.04
#: Chunk time at which one reference nanosecond is one wall nanosecond.
#: Inside two runs on a 2-CPU Xeon VM at 2.1 GHz (CPython 3.11) the
#: chunk took 0.67 to 2.7 ms, 1.15 ms at the median.
NOMINAL_NS = 1_000_000
#: Samples in the running median that smooths the chunk time.
SMOOTH = 15

_MASK = (1 << 64) - 1
_P = (1 << 255) - 19


def reference_chunk() -> int:
    """Fixed pure-Python work, about 1 ms on the host described above."""
    lanes = list(range(1, 26))
    for r in range(1000):
        i = r % 25
        c = lanes[i] ^ lanes[(i + 7) % 25] ^ (r * 0x9E3779B97F4A7C15)
        lanes[i] = ((c << 1) | (c >> 63)) & _MASK
    table = {}
    for r in range(250):
        table[r & 31] = table.get((r * 7) & 31, r) + r
    q = Fraction(1)
    for r in range(1, 12):
        q = q * Fraction(r + 3, r + 1) + Fraction(1, r)
    y = pow(lanes[0] | 2, _P - 2, _P) ^ pow(lanes[1] | 2, _P - 2, _P)
    return y ^ lanes[3] ^ len(table) ^ q.numerator


class Sampler:
    """Samples the host's speed on a timer while the program runs."""

    def __init__(self):
        self.paused_ns = 0
        #: (program-clock ns, chunk ns) pairs, flat.
        self.samples = array("q")
        self._busy = False
        self._previous = None

    def clock(self) -> int:
        """Wall-clock ns minus the time spent sampling."""
        return time.perf_counter_ns() - self.paused_ns

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter_ns()
        reference_chunk()
        end = time.perf_counter_ns()
        self.samples.extend((start - self.paused_ns, end - start))
        self.paused_ns += time.perf_counter_ns() - start
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normaliser(self) -> "Normaliser":
        s = self.samples
        return Normaliser(list(s[0::2]), list(s[1::2]))


class Normaliser:
    """Maps program-clock ns to reference ns (see the module docstring)."""

    def __init__(self, at_ns, chunk_ns):
        if not at_ns:
            raise ValueError("no speed samples were taken")
        half = SMOOTH // 2
        n = len(chunk_ns)
        smooth = [statistics.median(chunk_ns[max(0, i - half):i + half + 1])
                  for i in range(n)]
        self.at = at_ns
        self.scale = [NOMINAL_NS / c for c in smooth]
        # Reference ns at each sample; the stretch that ends at sample i
        # is scaled by that sample's speed, the time after the last one
        # by the last speed.
        self.cum = [0.0] * n
        for i in range(1, n):
            self.cum[i] = self.cum[i - 1] + (at_ns[i] - at_ns[i - 1]) * self.scale[i]

    def __call__(self, t_ns: int) -> float:
        i = bisect.bisect_left(self.at, t_ns)
        if i == len(self.at):
            return self.cum[-1] + (t_ns - self.at[-1]) * self.scale[-1]
        return self.cum[i] - (self.at[i] - t_ns) * self.scale[i]
