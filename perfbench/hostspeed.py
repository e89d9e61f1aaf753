"""Host-speed probe: how fast this machine runs interpreter-bound work now.

On a shared machine the speed of single-threaded Python code drifts by up
to 2x within a minute as neighbours load the caches and memory bus.  On a
2-core shared machine, medians of ten identical 1000-event
sequential-engine runs read between 7.4k and 14.4k events/s over 90
seconds.  The drift moves this probe and the program together
(correlation 0.90 per run).  So every path brackets each timed
sub-stream with probes, and the benchmark reports its times scaled to a
fixed reference speed: a time is multiplied by the mean of the two
bracketing :func:`probe` rates over :data:`REFERENCE_RATE`.  Over the same
90 seconds the scaled medians stayed within 5% of each other.  The raw
times are kept in the run record.

The probe does no work from the program under test, so a change to the
program moves the scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import os
import time

__all__ = ["REFERENCE_RATE", "nproc", "probe"]

#: Probe iterations per second that define the reference speed.
REFERENCE_RATE = 2.0e6
#: Iterations per probe (about 4 ms at the reference speed).
_ITERATIONS = 8000


def probe() -> float:
    """Probe iterations per second, measured now.

    Mixes the operations CEP code spends its time on: dict stores and
    lookups, tuple and list construction, float arithmetic.
    """
    table: dict = {}
    acc = 0.0
    start = time.perf_counter()
    for i in range(_ITERATIONS):
        key = i & 1023
        table[key] = (i, i * 0.5)
        pair = table[key]
        acc += pair[1] * 1.0001
        acc -= len([pair, acc])
    elapsed = time.perf_counter() - start
    return _ITERATIONS / elapsed


def nproc() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
