"""The host's speed, read with a fixed probe loop between timed steps.

On a shared machine the same code runs at two speeds, switching over
fractions of a second to minutes, as other tenants come and go. One
fixed pure-Python loop, :func:`_work`, reads that speed. The workloads
take :func:`sample` between their timed steps (never inside one), and
``run.py`` divides the step times by the run's host factor
(``stats.host_factor``: a fast percentile of the samples over
:data:`REFERENCE_S`).

Samples are CPU time, not wall time: a probe that waits for the GIL or
for another process of the program on its CPU accrues none, so work the
program does beside the probe does not read as a slow host.
"""

from __future__ import annotations

from time import thread_time

#: CPU seconds of one :func:`_work` on a quiet core of the machine this
#: benchmark was built on (2-core x86 virtual machine, Python 3.11).
#: Scaled times are times on a host whose fast moments run the loop this fast.
REFERENCE_S = 1.0e-3


def _work() -> None:
    """One fixed pure-Python loop: dict updates and int-to-str, about 1 ms on a quiet core."""
    table: dict = {}
    total = 0
    for i in range(3_000):
        key = (i & 511, i % 7)
        table[key] = table.get(key, 0) + i
        total += len(str(i))


def sample() -> float:
    """CPU seconds of one :func:`_work` in this thread."""
    started = thread_time()
    _work()
    return thread_time() - started
