"""Summary statistics for the benchmark: percentiles, host speed, quartiles, failures.

Percentiles use the nearest-rank definition on the raw samples. A tail
percentile is only reported when at least :data:`MIN_BEYOND` samples
lie beyond it; fewer would make it the maximum of a handful of values,
which moves with every stray scheduling hiccup.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile_rank(n: int, q: float) -> int:
    """The 1-based nearest rank of percentile ``q`` (0 < q <= 100) in ``n`` samples."""
    if n < 1:
        raise TooFewSamples("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q!r}")
    return max(1, math.ceil(q / 100.0 * n))


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` of ``samples``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie beyond the chosen rank (the median of a small sample
    is exempt only when ``q`` is 50 or below).
    """
    ranked = sorted(samples)
    rank = percentile_rank(len(ranked), q)
    beyond = len(ranked) - rank
    if q > 50.0 and beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(ranked)} samples has only {beyond} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return ranked[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest of p99, p95 and p90 that ``n`` samples support.

    The guide for every timing here: a median and the highest
    percentile with at least :data:`MIN_BEYOND` samples beyond it.
    """
    for q in (99.0, 95.0, 90.0):
        if n - percentile_rank(n, q) >= MIN_BEYOND:
            return q
    raise TooFewSamples(f"{n} samples support no tail percentile")


def stepwise_min(repeats) -> list[float]:
    """The fastest time of each step over repeats that ran the same steps.

    Every repeat of a seed asks the same questions in the same order,
    so step ``i`` is the same work in each. Interference from other
    tenants of the machine only ever slows a step down; the fastest of
    its repeats is the step's cost with the least of it.
    """
    repeats = [list(r) for r in repeats]
    lengths = {len(r) for r in repeats}
    if len(lengths) != 1:
        raise ValueError(f"repeats ran different numbers of steps: {sorted(lengths)}")
    return [min(column) for column in zip(*repeats)]


#: Percentile of the host-speed samples that :func:`host_factor` reads.
FAST_Q = 10


def host_factor(samples, reference_s: float) -> float:
    """How much slower than ``reference_s`` the host ran the probe at its fast moments.

    The :data:`FAST_Q`-th percentile of the samples over ``reference_s``.
    Step-wise fastest times are the steps at the host's fast moments of
    the run; dividing them by this factor gives their times on a host
    whose fast moments run the probe in ``reference_s``.
    """
    return percentile(samples, FAST_Q) / reference_s


def median(values) -> float:
    return statistics.median(list(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


class FailureBook:
    """Attempted and failed operations of one run, with the first reasons."""

    def __init__(self, keep: int = 5) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._keep = keep

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < self._keep:
            self.reasons.append(reason)

    def merge(self, other: "FailureBook") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        room = self._keep - len(self.reasons)
        self.reasons.extend(other.reasons[: max(0, room)])

    @property
    def success_ratio(self) -> float:
        """Share of attempted operations that succeeded (1.0 when none failed)."""
        if self.attempted == 0:
            return 0.0
        return (self.attempted - self.failed) / self.attempted
