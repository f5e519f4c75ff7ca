"""Trendline filter over delay-variation samples.

GCC accumulates per-group delay variations, smooths them exponentially,
and fits a line through the last ~20 (arrival time, smoothed delay)
points.  The slope of that line — the *trendline* — estimates the rate at
which the bottleneck queue grows or drains; it is the signal the paper
extracts from its instrumented client in Fig. 21's second subplot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional, Tuple

#: Samples kept in the regression window (libwebrtc default).
WINDOW_SIZE = 20

#: Exponential smoothing coefficient for accumulated delay.
SMOOTHING = 0.9

#: Gain applied when comparing the slope to the adaptive threshold.
THRESHOLD_GAIN = 4.0

#: Cap on the delta count used to scale the modified trend.
MAX_DELTAS = 60


@dataclass
class TrendlineEstimator:
    """Linear-regression slope of smoothed accumulated delay.

    Call :meth:`update` once per packet-group delta; read
    :attr:`modified_trend` (the threshold-comparable value) and
    :attr:`slope_ms_per_s` (the raw human-readable slope, ms of queue
    growth per second — the y-axis of Fig. 21's slope subplot).
    """

    window_size: int = WINDOW_SIZE
    smoothing: float = SMOOTHING
    threshold_gain: float = THRESHOLD_GAIN

    accumulated_delay_ms: float = 0.0
    smoothed_delay_ms: float = 0.0
    num_deltas: int = 0
    _history: Deque[Tuple[float, float]] = field(default_factory=deque)
    _first_arrival_us: Optional[int] = None
    trend: float = 0.0  # raw regression slope (ms per ms)

    def update(self, delay_variation_us: int, arrival_us: int) -> float:
        """Feed one delay-variation sample; returns the modified trend."""
        if self._first_arrival_us is None:
            self._first_arrival_us = arrival_us
        self.num_deltas = min(self.num_deltas + 1, MAX_DELTAS)
        self.accumulated_delay_ms += delay_variation_us / 1000.0
        self.smoothed_delay_ms = (
            self.smoothing * self.smoothed_delay_ms
            + (1.0 - self.smoothing) * self.accumulated_delay_ms
        )
        x_ms = (arrival_us - self._first_arrival_us) / 1000.0
        self._history.append((x_ms, self.smoothed_delay_ms))
        while len(self._history) > self.window_size:
            self._history.popleft()
        if len(self._history) == self.window_size:
            slope = self._linear_fit_slope()
            if slope is not None:
                self.trend = slope
        return self.modified_trend

    def _linear_fit_slope(self) -> Optional[float]:
        n = len(self._history)
        xs = [x for x, _ in self._history]
        ys = [y for _, y in self._history]
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        numerator = sum([(x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)])
        denominator = sum([(x - mean_x) ** 2 for x in xs])
        if denominator == 0:
            return None
        return numerator / denominator

    @property
    def modified_trend(self) -> float:
        """Trend scaled by sample count and gain, comparable to the
        adaptive threshold (libwebrtc's ``modified_trend``)."""
        return self.num_deltas * self.trend * self.threshold_gain

    @property
    def slope_ms_per_s(self) -> float:
        """Raw slope in milliseconds of queue growth per second."""
        return self.trend * 1000.0
