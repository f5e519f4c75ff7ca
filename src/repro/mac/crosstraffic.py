"""Cross-traffic demand models.

In a shared cell the PRBs granted to one UE depend on every other UE's
demand (§5.1.2).  The paper's commercial cells show heavy, bursty,
DL-dominated cross traffic (the T-Mobile 15 MHz FDD cell most of all);
the private cells are essentially idle.  We model each cross-traffic UE
as an on-off Markov-modulated process: exponentially distributed busy
periods during which the UE demands a random number of PRBs per slot,
separated by exponentially distributed idle gaps.

Scripted bursts can be injected for the Fig. 13 reproduction, where a
cross-traffic burst starts at a known time and squeezes the test UE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np


@dataclass
class CrossTrafficUe:
    """One on-off cross-traffic UE.

    Attributes:
        rnti: MAC identifier reported in DCI telemetry.
        mean_on_ms: mean busy-period duration.
        mean_off_ms: mean idle-gap duration.
        mean_prb_demand: mean PRBs per slot demanded while busy.
        scripted_bursts: optional list of (start_us, duration_us,
            prb_demand) tuples that force the UE busy.
        seed: RNG seed.
    """

    rnti: int
    mean_on_ms: float = 200.0
    mean_off_ms: float = 800.0
    mean_prb_demand: float = 20.0
    scripted_bursts: List[Tuple[int, int, int]] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._busy_until_us = 0
        self._idle_until_us = 0
        self._current_demand = 0
        # Start idle with a random phase so multiple UEs desynchronise.
        self._idle_until_us = int(
            self._rng.exponential(self.mean_off_ms) * 1000
        )

    def _scripted_demand(self, now_us: int) -> int:
        demand = 0
        for start, duration, prbs in self.scripted_bursts:
            if start <= now_us < start + duration:
                demand = max(demand, prbs)
        return demand

    def demand_at(self, now_us: int) -> int:
        """PRBs this UE wants in the slot containing *now_us*."""
        if self.scripted_bursts:
            scripted = self._scripted_demand(now_us)
            if scripted > 0:
                return scripted
        if self.mean_on_ms <= 0 or self.mean_prb_demand <= 0:
            return 0
        if now_us < self._busy_until_us:
            return self._current_demand
        if now_us < self._idle_until_us:
            return 0
        # Transition: we were past both timers -> start a new busy period.
        on_duration = self._rng.exponential(self.mean_on_ms) * 1000
        off_duration = self._rng.exponential(self.mean_off_ms) * 1000
        self._busy_until_us = now_us + int(max(on_duration, 1000))
        self._idle_until_us = self._busy_until_us + int(max(off_duration, 1000))
        self._current_demand = int(
            max(1, self._rng.poisson(self.mean_prb_demand))
        )
        return self._current_demand


@dataclass
class CrossTrafficModel:
    """A population of cross-traffic UEs sharing a cell direction."""

    ues: List[CrossTrafficUe] = field(default_factory=list)

    @classmethod
    def idle(cls) -> "CrossTrafficModel":
        """A model with no cross traffic (private-cell default)."""
        return cls(ues=[])

    @classmethod
    def build(
        cls,
        n_ues: int,
        mean_on_ms: float,
        mean_off_ms: float,
        mean_prb_demand: float,
        seed: int,
        first_rnti: int = 40_000,
    ) -> "CrossTrafficModel":
        """Build *n_ues* independent on-off UEs with staggered seeds."""
        ues = [
            CrossTrafficUe(
                rnti=first_rnti + i,
                mean_on_ms=mean_on_ms,
                mean_off_ms=mean_off_ms,
                mean_prb_demand=mean_prb_demand,
                seed=seed * 1009 + i,
            )
            for i in range(n_ues)
        ]
        return cls(ues=ues)

    def demands_at(self, now_us: int) -> Sequence[Tuple[int, int]]:
        """Return ``(rnti, prb_demand)`` for every UE with demand > 0."""
        out = []
        for ue in self.ues:
            demand = ue.demand_at(now_us)
            if demand > 0:
                out.append((ue.rnti, demand))
        return out

    def total_demand_at(self, now_us: int) -> int:
        """Total PRBs demanded by all cross-traffic UEs at *now_us*."""
        return sum(d for _, d in self.demands_at(now_us))
