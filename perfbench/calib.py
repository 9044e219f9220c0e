"""A fixed pure-Python calibration loop: the machine's speed right now.

On a shared machine the speed of the processor changes over seconds, as
neighbours come and go, by as much as a quarter.  Timing the same loop right
before and right after each job gives the speed the job ran at, and
``scaled`` converts a wall time to seconds at the reference speed
(``REFERENCE_S``, the loop's median time on the 2-core x86-64 VM the
benchmark was defined on), which
makes walls measured at different moments -- or on different machines --
comparable.  The loop does not touch the program under test.
"""

from __future__ import annotations

import statistics
import time

#: Seconds for one ``loop()`` on the reference machine.
REFERENCE_S = 0.0085

LOOP_ITERATIONS = 100_000


def loop() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - started


def speed(samples: int = 3) -> float:
    """Median seconds of ``samples`` loops."""
    return statistics.median(loop() for _ in range(samples))


def scaled(seconds: float, calib_s: float) -> float:
    """``seconds`` measured at loop time ``calib_s``, at the reference speed."""
    return seconds * REFERENCE_S / calib_s
