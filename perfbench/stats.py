"""Order statistics shared by the benchmark and its steadiness command.

Percentiles are nearest-rank: the ``q`` percentile of ``n`` samples is
the sample at rank ``ceil(q * n)`` of the ascending order, so every
reported value is a value that was measured. A tail percentile is only
a measurement when enough samples lie beyond it; :func:`percentile`
refuses one that has fewer than :data:`MIN_BEYOND`.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10
#: Most windows a run is split into, and the shortest window (seconds).
MAX_WINDOWS = 5
MIN_WINDOW_S = 6.0


class TooFewSamples(ValueError):
    """A tail percentile was asked of too few samples to be a tail."""


def rank(q: float, n: int) -> int:
    """1-based nearest rank of the ``q`` quantile among ``n`` samples."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1]: {q!r}")
    if n < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(q * n - 1e-9))


def beyond(q: float, n: int) -> int:
    """How many of ``n`` samples lie beyond the ``q`` nearest rank."""
    return n - rank(q, n)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of ``samples``.

    The median (``q <= 0.5``) is always reported. A tail quantile needs
    at least :data:`MIN_BEYOND` samples beyond its rank.

    Raises:
        TooFewSamples: for a tail with fewer samples beyond it, or no
            samples at all.
    """
    n = len(samples)
    if n == 0:
        raise TooFewSamples("no samples")
    if q > 0.5 and beyond(q, n) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {beyond(q, n)} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return sorted(samples)[rank(q, n) - 1]


def layer_percentile(samples: Sequence[float], q: float) -> float:
    """:func:`percentile` for a per-layer figure: 0 when the layer did
    no such work on this workload, or when the tail is not yet one."""
    try:
        return percentile(samples, q)
    except TooFewSamples:
        return 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def spread(values: Sequence[float]) -> tuple[float, float, float, Optional[float]]:
    """``(q1, median, q3, (q3 - q1) / median)`` as the steadiness check
    takes them (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        raise ValueError("need at least two runs for quartiles")
    q1, median, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / abs(median) if median else None
    return q1, median, q3, share


def windows_for(seconds: float) -> int:
    """How many equal windows a run of ``seconds`` is split into."""
    return max(1, min(MAX_WINDOWS, int(seconds // MIN_WINDOW_S)))


@dataclass
class Window:
    """What one equal slice of a measured run saw.

    A run reports each end-to-end figure as the median over its
    windows, so a burst of load from outside that covers less than
    half the run moves the figure less than it moves the window it
    hit.
    """

    seconds: float
    decide_ms: list = field(default_factory=list)
    forget_ms: list = field(default_factory=list)
    ops: int = 0
    done: int = 0
    cpu_s: float = 0.0


def median_over(windows: Sequence[Window], figure) -> float:
    """Median over ``windows`` of ``figure(window)``."""
    return statistics.median(figure(window) for window in windows)
