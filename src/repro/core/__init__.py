"""The paper's contribution: counting, localizing, decoding from collisions.

* :mod:`repro.core.cfo` — per-tag CFO refinement and channel readout (§3).
* :mod:`repro.core.counting` — the §5 collision counter.
* :mod:`repro.core.theory` — Eq 7 / Eq 9 closed forms and occupancy math.
* :mod:`repro.core.localization` — AoA and two-reader positioning (§6).
* :mod:`repro.core.speed` — speed estimation and §7 error bounds.
* :mod:`repro.core.decoding` — coherent-combining ID decoder (§8).
* :mod:`repro.core.reader` — the CaraokeReader facade.
* :mod:`repro.core.identity` — per-pole tag state: cached ids, last fixes,
  the shared localizer loop (§6, §7).
* :mod:`repro.core.network` — multi-reader batch processing (§12.5).
* :mod:`repro.core.mac` — reader-side CSMA rules (§9).
"""

from .cfo import (
    CfoPeak,
    CollisionPeak,
    estimate_channel,
    extract_cfo_peaks,
    extract_collision_peaks,
    refine_frequencies,
)
from .counting import BinClass, BinObservation, CollisionCounter, CountEstimate
from .theory import (
    expected_count_naive,
    p_no_miss_exact,
    p_no_miss_naive,
    p_no_miss_paper_bound,
    simulate_no_miss_probability,
)
from .localization import (
    AoAEstimate,
    AoAEstimator,
    LaneProjectionLocalizer,
    ReaderGeometry,
    TwoReaderLocalizer,
    aoa_from_phase,
    phase_from_aoa,
)
from .speed import (
    CrossPoleSpeedTracker,
    SpeedEstimate,
    SpeedEstimator,
    SpeedObservation,
    max_position_error_m,
    max_speed_error_fraction,
)
from .decoding import CoherentDecoder, DecodeResult, DecodeSession, MultiTargetCombiner
from .reader import CaraokeReader, ReaderReport
from .identity import IdentityCache, resolve_cached_ids
from .network import ReaderNetwork, ReaderStation, StationReport
from .mac import CsmaState, ReaderMac

__all__ = [
    "CfoPeak",
    "CollisionPeak",
    "estimate_channel",
    "extract_cfo_peaks",
    "extract_collision_peaks",
    "refine_frequencies",
    "BinClass",
    "BinObservation",
    "CollisionCounter",
    "CountEstimate",
    "expected_count_naive",
    "p_no_miss_exact",
    "p_no_miss_naive",
    "p_no_miss_paper_bound",
    "simulate_no_miss_probability",
    "AoAEstimate",
    "AoAEstimator",
    "LaneProjectionLocalizer",
    "ReaderGeometry",
    "TwoReaderLocalizer",
    "aoa_from_phase",
    "phase_from_aoa",
    "CrossPoleSpeedTracker",
    "SpeedEstimate",
    "SpeedEstimator",
    "SpeedObservation",
    "max_position_error_m",
    "max_speed_error_fraction",
    "CoherentDecoder",
    "DecodeResult",
    "DecodeSession",
    "MultiTargetCombiner",
    "CaraokeReader",
    "ReaderReport",
    "IdentityCache",
    "ReaderNetwork",
    "ReaderStation",
    "StationReport",
    "resolve_cached_ids",
    "CsmaState",
    "ReaderMac",
]
