"""Timing in `ref`: operation time divided by the time of a fixed
pure-Python reference loop, measured at the same moments.

On a small shared VM the same call can take 50% longer in one process
than in another, and the speed drifts within a process over fractions of
a second.  The reference loop does the same kind of work as `lhc`
(integer and bit operations, tuple and list churn), so both slow down
together, and their ratio stays put.

The reference loop is CHUNKS chunks of CHUNK_ITERS iterations, 13-20 ms
on a 2-vCPU VM.  For each operation:

* `gc.collect()` runs first;
* the whole loop runs immediately before and immediately after it;
* while it runs, an interval timer runs one chunk every TICK_S seconds,
  so a long operation is bracketed all the way through;
* its time in ref is its wall time, less the time the chunks took,
  divided by CHUNKS times the mean chunk time.

A child process (the `cli` workload) samples itself instead: one chunk as
it starts, then one every 10 ms until the command returns (cli_child.py),
and its time is converted with its own chunks alone.  Chunks timed in the
parent would describe another process: the reference loop's speed differs
from process to process by up to 20%, and a short command's time is mostly
start-up in its own process.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

CHUNKS = 32
CHUNK_ITERS = 1000
TICK_S = 0.025


def chunk(iters: int = CHUNK_ITERS) -> int:
    acc = 0
    window = []
    for i in range(iters):
        m = (i * 2654435761) & 0xFFFFF
        acc ^= (m >> 3) | (m & -m)
        acc += m.bit_count()
        window.append((i, m, acc & 255))
        if len(window) > 32:
            del window[:16]
    return acc


def loop_of(chunk_times) -> float:
    """Reference-loop seconds estimated from chunk timings."""
    return CHUNKS * statistics.fmean(chunk_times)


class RefClock:
    """Times operations in ref; one instance per process."""

    def __init__(self):
        self._samples: list[float] = []
        self._pc = time.perf_counter

    def sample(self, *_):
        """Time one chunk now."""
        t = self._pc()
        chunk()
        self._samples.append(self._pc() - t)

    def _loop(self) -> None:
        for _ in range(CHUNKS):
            self.sample()

    def measure(self, fn, in_child: bool = False):
        """Run fn(); return (result, seconds, ref, loop_seconds).

        With in_child, fn runs a sampling child process and returns
        (result, the child's chunk times); the loop is then estimated from
        those alone, since the parent is another process with its own
        speed."""
        gc.collect()
        if in_child:
            start = self._pc()
            result, child = fn()
            seconds = self._pc() - start - sum(child)
            loop = loop_of(child)
            return result, seconds, seconds / loop, loop
        self._samples = []
        self._loop()
        before = len(self._samples)
        start = self._pc()
        self.start()
        try:
            result = fn()
        finally:
            self.stop()
        seconds = self._pc() - start - sum(self._samples[before:])
        self._loop()
        loop = loop_of(self._samples)
        return result, seconds, seconds / loop, loop

    def start(self, tick: float = TICK_S) -> None:
        """Run a chunk every tick seconds from now on."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, tick, tick)

    def stop(self) -> list[float]:
        """Stop the chunks; return every chunk time since the last reset."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self._samples
