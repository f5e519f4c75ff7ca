"""Modulation and coding scheme (MCS) and transport block size (TBS) tables.

5G NR maps channel quality to an MCS index; the MCS determines the
modulation order (bits per resource element) and the channel-coding rate.
Together with the number of allocated physical resource blocks (PRBs) they
determine the transport block size (TBS) — how many information bits one
scheduling grant can carry.  This module implements a faithful simplification
of 3GPP TS 38.214 §5.1.3: the 64-QAM MCS table (Table 5.1.3.1-1) and the
resource-element-counting TBS computation.

The paper's causal analysis only needs the *shape* of these functions: TBS
grows with both PRBs and MCS, and poor channels force low MCS which shrinks
the TBS for the same PRB allocation (§5.1.1, Fig. 12).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List

#: Resource elements per PRB per slot that are usable for data.  A PRB spans
#: 12 subcarriers over 14 OFDM symbols = 168 REs; we subtract typical DMRS +
#: control overhead, which 3GPP captures with N_RE = 12 * (14 - overhead).
DATA_RE_PER_PRB = 12 * 12  # 144

MAX_MCS = 27


@dataclass(frozen=True)
class McsEntry:
    """One row of the MCS table.

    Attributes:
        index: MCS index, 0..27.
        modulation_order: bits per modulation symbol (2 = QPSK, 4 = 16QAM,
            6 = 64QAM).
        code_rate: effective channel-code rate (0..1).
        spectral_efficiency: modulation_order * code_rate, bits per RE.
    """

    index: int
    modulation_order: int
    code_rate: float

    @property
    def spectral_efficiency(self) -> float:
        return self.modulation_order * self.code_rate


# 3GPP TS 38.214 Table 5.1.3.1-1 (MCS index table 1 for PDSCH), code rate
# given as R x 1024 in the spec; stored here already divided.
_MCS_ROWS = [
    (0, 2, 120 / 1024),
    (1, 2, 157 / 1024),
    (2, 2, 193 / 1024),
    (3, 2, 251 / 1024),
    (4, 2, 308 / 1024),
    (5, 2, 379 / 1024),
    (6, 2, 449 / 1024),
    (7, 2, 526 / 1024),
    (8, 2, 602 / 1024),
    (9, 2, 679 / 1024),
    (10, 4, 340 / 1024),
    (11, 4, 378 / 1024),
    (12, 4, 434 / 1024),
    (13, 4, 490 / 1024),
    (14, 4, 553 / 1024),
    (15, 4, 616 / 1024),
    (16, 4, 658 / 1024),
    (17, 6, 438 / 1024),
    (18, 6, 466 / 1024),
    (19, 6, 517 / 1024),
    (20, 6, 567 / 1024),
    (21, 6, 616 / 1024),
    (22, 6, 666 / 1024),
    (23, 6, 719 / 1024),
    (24, 6, 772 / 1024),
    (25, 6, 822 / 1024),
    (26, 6, 873 / 1024),
    (27, 6, 910 / 1024),
]


@lru_cache(maxsize=1)
def mcs_table() -> List[McsEntry]:
    """Return the full MCS table (index 0..:data:`MAX_MCS`)."""
    return [McsEntry(i, qm, r) for i, qm, r in _MCS_ROWS]


@lru_cache(maxsize=None)  # a cell sees a few hundred PRB counts x 28 MCSs
def transport_block_size_bits(n_prb: int, mcs: int) -> int:
    """Transport block size in bits for *n_prb* PRBs at MCS index *mcs*.

    Uses the RE-counting approach of TS 38.214 §5.1.3.2: the number of
    usable data REs times the spectral efficiency, quantised to whole bits.
    Returns 0 for empty allocations.
    """
    if n_prb <= 0:
        return 0
    if not 0 <= mcs <= MAX_MCS:
        raise ValueError(f"MCS index {mcs} out of range 0..{MAX_MCS}")
    entry = mcs_table()[mcs]
    raw = DATA_RE_PER_PRB * n_prb * entry.spectral_efficiency
    return max(int(raw), 1)


# --- Link adaptation: SINR -> CQI -> MCS -------------------------------------

#: SINR (dB) thresholds at which each CQI (1..15) becomes decodable at the
#: 10% BLER target.  Standard link-level values (approximately 2 dB apart).
_CQI_SINR_THRESHOLDS_DB = [
    -6.7, -4.7, -2.3, 0.2, 2.4, 4.3, 5.9, 8.1,
    10.3, 11.7, 14.1, 16.3, 18.7, 21.0, 22.7,
]

#: CQI (1..15) to a representative MCS index.
_CQI_TO_MCS = [0, 0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26]


def cqi_from_sinr(sinr_db: float) -> int:
    """Map an SINR in dB to a CQI index (0..15).

    CQI 0 means "out of range" — no transmission should be attempted.
    """
    if sinr_db != sinr_db:
        return 0  # NaN clears no threshold
    # The thresholds ascend: the CQI is how many of them sinr_db clears.
    return bisect.bisect_right(_CQI_SINR_THRESHOLDS_DB, sinr_db)


def mcs_from_cqi(cqi: int, conservative_offset: int = 0) -> int:
    """Map a CQI (0..15) to an MCS index.

    Args:
        cqi: channel quality indicator; 0 maps to MCS 0 (most robust).
        conservative_offset: how many MCS steps to back off from the
            CQI-implied MCS.  The Amarisoft cell in the paper uses a
            "conservative UL MCS selection strategy" (§3); a positive
            offset models that.
    """
    if cqi <= 0:
        return 0
    cqi = min(cqi, 15)
    mcs = _CQI_TO_MCS[cqi - 1] - conservative_offset
    return max(0, min(MAX_MCS, mcs))


def required_sinr_db(mcs: int) -> float:
    """SINR (dB) at which MCS index *mcs* hits the 10% BLER target."""
    if not 0 <= mcs <= MAX_MCS:
        raise ValueError(f"MCS index {mcs} out of range 0..{MAX_MCS}")
    # Invert the CQI->MCS mapping: find the smallest CQI whose MCS >= mcs.
    for cqi_minus_1, mapped in enumerate(_CQI_TO_MCS):
        if mapped >= mcs:
            return _CQI_SINR_THRESHOLDS_DB[cqi_minus_1]
    return _CQI_SINR_THRESHOLDS_DB[-1]


def bler(mcs: int, sinr_db: float, slope_db: float = 1.5) -> float:
    """Block error rate of a transport block sent at *mcs* under *sinr_db*.

    Modeled as a logistic curve centred at the MCS's required SINR with a
    waterfall slope of *slope_db* dB, calibrated so that BLER = 10% exactly
    at the required SINR.  This reproduces the qualitative behaviour the
    paper relies on: aggressive MCS selection or sudden fades make HARQ
    retransmissions common (§5.2.2).
    """
    margin_db = sinr_db - required_sinr_db(mcs)
    # Logistic waterfall, calibrated so bler(margin=0) = 0.1 and falling
    # as the margin grows: 1/(1 + e^(2x)) with x = margin/slope + ln(9)/2.
    x = margin_db / slope_db + math.log(9.0) / 2.0
    # Clamp the exponent to avoid overflow for extreme SINRs.
    x = max(min(x, 30.0), -30.0)
    return 1.0 / (1.0 + math.exp(2.0 * x))
