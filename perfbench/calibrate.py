"""Calibration against a fixed loop, so that load from other tenants of
a shared host cancels out of the reported times.

On a shared 2-core VM, a fixed pure-Python loop takes 15-40 % longer
in some minutes than in others, whatever the CPU affinity, and bursts
of a second or so come on top. The program slows down with it. So
every pass times the loop below on a sampler thread, five times a
second, while its operations run. Each operation's latency is then
multiplied by `NOMINAL_S / median(loop times within WINDOW_S of the
operation)`. That gives seconds at the loop's nominal speed. The loop
is the benchmark's own code, so a change to `kirch` cannot move the
scale, only the scaled times.
"""

from __future__ import annotations

import statistics
import threading
import time

ITERATIONS = 8000
# the loop's time on an idle core of the machine the bounds were set on
# (Intel Xeon at 2.1 GHz, Python 3.11.7); any constant would do, since
# runs compare with runs
NOMINAL_S = 1.0e-3
SAMPLE_EVERY_S = 0.2
WINDOW_S = 1.0


def loop_time() -> float:
    """Seconds for one run of the fixed loop (about 1 ms)."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(ITERATIONS):
        acc += i * i % 97
        table[i & 255] = acc
    return time.perf_counter() - t0


def scale_of(samples: list[float]) -> float:
    return NOMINAL_S / statistics.median(samples)


class Sampler:
    """Times the loop before, every SAMPLE_EVERY_S during, and after a
    `with` block. The loop is far shorter than the interpreter's 5 ms
    switch interval, so the thread running the block rarely cuts into
    a sample."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, loop time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        took = loop_time()
        self.samples.append((time.perf_counter(), took))

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self._sample()

    def __enter__(self) -> "Sampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def scale(self, start: float, end: float) -> float:
        """The scale for an operation that ran from start to end."""
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return scale_of(near if len(near) >= 3 else [d for _, d in self.samples])
