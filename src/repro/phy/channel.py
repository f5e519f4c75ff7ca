"""Stochastic wireless channel models.

The paper attributes a large share of video-quality degradation to channel
condition dynamics (§5.1.1): mobility, fading, and interference move the
SINR, which moves the CQI/MCS, which moves the achievable transport block
size.  We model the per-UE, per-direction SINR as:

``sinr(t) = base + shadowing(t) + fast_fading(t) + scripted fade events``

* *shadowing* is an Ornstein-Uhlenbeck (mean-reverting) random walk — the
  standard model for slow, correlated large-scale variation;
* *fast fading* is small i.i.d. per-slot noise;
* *fade events* are scripted deep fades (start, duration, depth) used by the
  Fig. 12 reproduction and by cell profiles that exhibit persistent poor
  channels (Amarisoft UL in the paper);
* random fade events can also be generated by a Poisson process so long
  sessions show recurring episodes of channel degradation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.phy.mcs import cqi_from_sinr, mcs_from_cqi


@dataclass(frozen=True)
class FadeEvent:
    """A scripted deep fade.

    Attributes:
        start_us: start time of the fade.
        duration_us: how long the fade lasts.
        depth_db: SINR reduction while the fade is active (positive number).
    """

    start_us: int
    duration_us: int
    depth_db: float

    def active_at(self, timestamp_us: int) -> bool:
        return self.start_us <= timestamp_us < self.start_us + self.duration_us


@dataclass
class ChannelSample:
    """Channel state at one instant."""

    sinr_db: float
    cqi: int
    mcs: int


@dataclass
class ChannelModel:
    """Per-UE, per-direction SINR process with CQI/MCS link adaptation.

    Args:
        base_sinr_db: long-term mean SINR.  ~22 dB is a good cell-centre
            channel (64QAM-capable); ~5 dB is a poor channel forcing QPSK.
        shadowing_sigma_db: stationary standard deviation of the
            mean-reverting shadowing process.
        shadowing_tau_us: time constant of mean reversion (how slowly
            shadowing wanders).
        fast_fading_sigma_db: per-sample i.i.d. fading noise.
        fade_events: scripted deep fades (see :class:`FadeEvent`).
        random_fade_rate_per_min: Poisson rate of additional random fades.
        random_fade_depth_db / random_fade_duration_ms: parameters of those
            random fades (depth is exponential around the given mean).
        conservative_mcs_offset: back-off applied in MCS selection
            (models the Amarisoft cell's conservative UL MCS strategy).
        seed: RNG seed; every channel instance is deterministic.
    """

    base_sinr_db: float = 20.0
    shadowing_sigma_db: float = 3.0
    shadowing_tau_us: int = 2_000_000
    fast_fading_sigma_db: float = 1.0
    fade_events: List[FadeEvent] = field(default_factory=list)
    random_fade_rate_per_min: float = 0.0
    random_fade_depth_db: float = 15.0
    random_fade_duration_ms: float = 400.0
    conservative_mcs_offset: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._shadowing_db = 0.0
        self._last_update_us: Optional[int] = None
        self._generated_until_us = 0
        self._random_fades: List[FadeEvent] = []
        self._ou_coefficients: Dict[Tuple[int, int, float], Tuple[float, float]] = {}

    # -- internal -----------------------------------------------------------

    def _advance_shadowing(self, now_us: int) -> None:
        """Advance the OU shadowing process to *now_us*."""
        if self._last_update_us is None:
            self._shadowing_db = float(
                self._rng.normal(0.0, self.shadowing_sigma_db)
            )
            self._last_update_us = now_us
            return
        dt = now_us - self._last_update_us
        if dt <= 0:
            return
        # Exact OU discretisation: x' = x*a + N(0, sigma*sqrt(1-a^2)).
        # The coefficients depend only on dt, which takes few values.
        key = (dt, self.shadowing_tau_us, self.shadowing_sigma_db)
        coefficients = self._ou_coefficients.get(key)
        if coefficients is None:
            a = float(np.exp(-dt / self.shadowing_tau_us))
            noise_sigma = self.shadowing_sigma_db * float(np.sqrt(1.0 - a * a))
            coefficients = self._ou_coefficients[key] = (a, noise_sigma)
        a, noise_sigma = coefficients
        self._shadowing_db = self._shadowing_db * a + float(
            self._rng.normal(0.0, noise_sigma)
        )
        self._last_update_us = now_us

    def _ensure_random_fades(self, until_us: int) -> None:
        """Lazily draw Poisson fade events up to *until_us*."""
        if self.random_fade_rate_per_min <= 0:
            return
        rate_per_us = self.random_fade_rate_per_min / 60e6
        while self._generated_until_us < until_us:
            gap = float(self._rng.exponential(1.0 / rate_per_us))
            start = self._generated_until_us + int(gap)
            duration = int(
                max(50.0, self._rng.exponential(self.random_fade_duration_ms))
                * 1000
            )
            depth = float(
                max(5.0, self._rng.exponential(self.random_fade_depth_db))
            )
            self._random_fades.append(FadeEvent(start, duration, depth))
            self._generated_until_us = start + 1

    def _fade_depth_at(self, now_us: int) -> float:
        depth = 0.0
        for event in self.fade_events:
            if event.active_at(now_us):
                depth += event.depth_db
        for event in self._random_fades:
            if event.active_at(now_us):
                depth += event.depth_db
        return depth

    # -- public -------------------------------------------------------------

    def sample(self, now_us: int) -> ChannelSample:
        """Sample the channel at *now_us* (monotone non-decreasing calls)."""
        self._ensure_random_fades(now_us + 1)
        self._advance_shadowing(now_us)
        fast = float(self._rng.normal(0.0, self.fast_fading_sigma_db))
        sinr = (
            self.base_sinr_db
            + self._shadowing_db
            + fast
            - self._fade_depth_at(now_us)
        )
        cqi = cqi_from_sinr(sinr)
        mcs = mcs_from_cqi(cqi, self.conservative_mcs_offset)
        return ChannelSample(sinr_db=sinr, cqi=cqi, mcs=mcs)

    def in_fade(self, now_us: int) -> bool:
        """True if a scripted or random fade is active at *now_us*."""
        self._ensure_random_fades(now_us + 1)
        return self._fade_depth_at(now_us) > 0.0
