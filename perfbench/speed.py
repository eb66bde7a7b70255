"""Host-speed sampler that turns measured intervals into reference seconds.

On a shared virtual machine the same code runs up to twice as slow from one
tenth of a second to the next, as other tenants load the host; a single run
cannot average that away. A sampler thread times a fixed pure-Python loop
every PERIOD_S on the CPU the benchmark is pinned to. An interval is then
rescaled by REF_LOOP_S over the loop's time during it (the mean of the
inverse speeds sampled inside it, or the nearest sample for a short one):
reference seconds are what the interval would take with the loop at
REF_LOOP_S. Both commits of a comparison use the same loop and constant,
and the loop calls no zecap code, so no change to zecap moves the scale.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

PERIOD_S = 0.02
REF_LOOP_S = 1.6e-4  # loop time in the host's fast mode (2-vCPU Xeon VM, Python 3.11)

# The loop mixes what zecap's hot paths do (per-symbol helper calls over a
# generator, small-tuple sets, shifts and masks on 4096-bit integers), so
# that contention slows it about as much as it slows them. It is a fixed
# copy of no zecap function: changing zecap cannot change it.
_WORD = "0110100110010110" * 2
_WIDE = (1 << 4096) - 1


def _breaks(span: int, run: int, last: int, symbol: int) -> bool:
    return span > 1 and run >= span - 1 and symbol != last


def _loop() -> int:
    total = 0
    for span in (2, 3, 4, 5, 6, 7):
        run, last = 0, -1
        for symbol in (ord(c) - 48 for c in _WORD):
            total += _breaks(span, run, last, symbol)
            run = run + 1 if symbol == last else 1
            last = symbol
    states = {(0, 1)}
    for t in range(24):
        kept = {(t & 1, min(run + 1, 4) if t & 1 == last else 1) for last, run in states}
        states = kept | {(1 - (t & 1), 1)}
    mask = _WIDE
    for i in range(40):
        mask = ((mask << 3) ^ (mask >> 5)) & _WIDE
        total += (mask & -mask).bit_length()
    return total + len(states)


class SpeedSampler:
    """Context manager: pins this thread to one CPU and samples its speed there."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end time, REF_LOOP_S / loop time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def __enter__(self) -> "SpeedSampler":
        # the sampler thread inherits the pin, so it measures the CPU the work runs on
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._cpus)})
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)

    def _sample(self) -> None:
        start = time.perf_counter()
        _loop()
        end = time.perf_counter()
        self.samples.append((end, REF_LOOP_S / (end - start)))

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds for the perf_counter interval [start, end]."""
        samples = self.samples
        lo = bisect.bisect_left(samples, (start,))
        hi = bisect.bisect_right(samples, (end, float("inf")))
        if hi > lo:
            speed = sum(s for _, s in samples[lo:hi]) / (hi - lo)
        else:
            nearest = [samples[i] for i in (lo - 1, lo) if 0 <= i < len(samples)]
            speed = min(nearest, key=lambda sample: abs(sample[0] - end))[1]
        return (end - start) * speed

    def since(self, start: float) -> float:
        """Reference seconds from start until now."""
        return self.seconds(start, time.perf_counter())
