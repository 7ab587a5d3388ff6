"""Spectral peak detection for collision spectra (Fig 4).

A collision spectrum is a set of narrow CFO spikes standing on a wideband
floor made of every tag's OOK data sidelobes plus thermal noise. The
detector therefore estimates the floor *robustly* (median — the spikes are
sparse outliers) and keeps local maxima that clear the floor by a margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SpectrumError
from ..utils import db_to_amplitude
from .spectrum import Spectrum

__all__ = [
    "SpectralPeak",
    "estimate_noise_floor",
    "local_noise_floor",
    "band_floors",
    "parabolic_offset",
    "find_peaks_in_magnitudes",
    "find_spectral_peaks",
]


@dataclass(frozen=True)
class SpectralPeak:
    """One detected spectral spike.

    Attributes:
        bin_index: FFT bin of the local maximum.
        freq_hz: refined (sub-bin) frequency estimate.
        value: complex FFT value at the maximum bin.
        magnitude: |value|.
        floor: the floor estimate the detection was made against.
    """

    bin_index: int
    freq_hz: float
    value: complex
    magnitude: float
    floor: float

    @property
    def snr(self) -> float:
        """Peak magnitude over the floor (amplitude ratio)."""
        return self.magnitude / self.floor if self.floor > 0 else np.inf


def estimate_noise_floor(magnitudes: np.ndarray) -> float:
    """Robust floor: scaled median of the magnitude spectrum.

    For Rayleigh-distributed noise-bin magnitudes the median is
    ``sigma * sqrt(ln 4)``; dividing it out returns the Rayleigh scale, a
    stable reference even when a few percent of bins hold signal spikes.
    """
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    if magnitudes.size == 0:
        raise SpectrumError("cannot estimate a floor from zero bins")
    return float(np.median(magnitudes) / np.sqrt(np.log(4.0)))


def parabolic_offset(left: float, center: float, right: float) -> float:
    """Sub-bin offset of a peak from three magnitude samples, in bins.

    Fits a parabola through (-1, left), (0, center), (1, right); the vertex
    abscissa refines the tone frequency to a fraction of a bin, which the
    decoder needs (a CFO error of half a bin rotates the target by pi over
    the 512 us response and breaks coherent combining, §8).
    """
    denom = left - 2.0 * center + right
    if denom == 0.0:
        return 0.0
    offset = 0.5 * (left - right) / denom
    return float(np.clip(offset, -0.5, 0.5))


def local_noise_floor(
    magnitudes: np.ndarray, window_bins: int = 65, guard_bins: int = 3
) -> np.ndarray:
    """Per-bin floor: median of surrounding bins, excluding a guard band.

    The collision floor is *colored* — each tag's OOK data spectrum has
    sinc-shaped lobes around its own carrier — so a global floor
    under-estimates near strong tags and sprays false peaks there. This is
    an ordered-statistic CFAR: for every bin, the floor is the median of
    ``window_bins`` neighbours with the closest ``guard_bins`` (which may
    contain the peak itself) excluded. Near the band edges the window is
    clipped to the band; a bin whose clipped window holds nothing but
    guard bins falls back to the whole clipped window.

    §5 runs this twice per capture over the whole CFO band, so both the
    interior and the clipped edge windows are evaluated as 2-D arrays with
    one partition each. The arithmetic is ``np.median``'s —
    the middle order statistic, or the two middle ones averaged as
    ``(a + b) / 2`` — so the floors are bit-identical to a per-bin
    median for any NaN-free input.
    """
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    n = magnitudes.size
    if window_bins % 2 == 0 or window_bins < 2 * guard_bins + 3:
        raise SpectrumError(
            f"window_bins must be odd and > 2*guard_bins+2, got {window_bins}"
        )
    half = window_bins // 2
    scale = np.sqrt(np.log(4.0))
    floors = np.empty(n)
    offsets = np.arange(-half, half + 1)
    outside_guard = np.abs(offsets) > guard_bins
    interior_lo, interior_hi = min(half, n), n - half  # k with a full window
    if interior_hi > interior_lo:
        # Every interior window has the same even number of kept bins.
        # ``kept`` is a fresh copy, so it is partitioned in place at the
        # upper middle rank; the lower middle order statistic is then the
        # largest element left of it.
        windows = np.lib.stride_tricks.sliding_window_view(magnitudes, window_bins)
        kept = windows[:, outside_guard]
        mid = kept.shape[1] // 2
        kept.partition(mid, axis=1)
        lower = kept[:, :mid].max(axis=1)
        floors[interior_lo:interior_hi] = (lower + kept[:, mid]) / 2.0 / scale
    edges = np.r_[0:interior_lo, max(interior_hi, interior_lo):n]
    if edges.size:
        # Clipped windows have irregular sizes m; pad each row to the full
        # window width with (W - m) // 2 -inf and the rest +inf. The padding
        # sorts to the row ends, so the neighbourhood's middle order
        # statistics sit at fixed padded ranks W // 2 - 1 and W // 2.
        index = edges[:, None] + offsets[None, :]
        inside = (index >= 0) & (index < n)
        use = inside & outside_guard[None, :]
        only_guard = ~use.any(axis=1)
        use[only_guard] = inside[only_guard]
        m = use.sum(axis=1)
        n_low = (window_bins - m) // 2
        pad_rank = np.cumsum(~use, axis=1)
        padded = np.where(
            use,
            magnitudes[np.clip(index, 0, n - 1)],
            np.where(pad_rank <= n_low[:, None], -np.inf, np.inf),
        )
        padded.partition((half - 1, half), axis=1)
        rows = np.arange(edges.size)
        lower = padded[rows, n_low + (m - 1) // 2]
        upper = padded[rows, n_low + m // 2]
        floors[edges] = np.where(m % 2 == 1, lower, (lower + upper) / 2.0) / scale
    return floors


def _band_bounds(
    n_bins: int, bin_hz: float, search_lo_hz: float, search_hi_hz: float
) -> tuple[int, int]:
    """The inclusive FFT-bin bounds of a search band."""
    if search_hi_hz <= search_lo_hz:
        raise SpectrumError(f"empty search band [{search_lo_hz}, {search_hi_hz}]")
    lo_bin = max(0, int(np.floor(search_lo_hz / bin_hz)))
    hi_bin = min(n_bins - 1, int(np.ceil(search_hi_hz / bin_hz)))
    if hi_bin <= lo_bin:
        raise SpectrumError("search band narrower than one bin")
    return lo_bin, hi_bin


def band_floors(
    magnitudes: np.ndarray,
    bin_hz: float,
    search_lo_hz: float,
    search_hi_hz: float,
) -> np.ndarray:
    """The CFAR floor of a search band, reusable across detection passes.

    :func:`find_peaks_in_magnitudes` recomputes the local floor on every
    call; a caller that probes the *same* magnitudes at several
    thresholds (the §5 counter's density probe followed by its decision
    pass) computes the floor once here and hands it back via ``floors``.
    """
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    lo_bin, hi_bin = _band_bounds(magnitudes.size, bin_hz, search_lo_hz, search_hi_hz)
    return local_noise_floor(magnitudes[lo_bin : hi_bin + 1])


def find_peaks_in_magnitudes(
    magnitudes: np.ndarray,
    bin_hz: float,
    search_lo_hz: float,
    search_hi_hz: float,
    min_snr_db: float = 12.0,
    min_separation_bins: int = 2,
    max_peaks: int | None = None,
    values: np.ndarray | None = None,
    floors: np.ndarray | None = None,
) -> list[SpectralPeak]:
    """Detect spikes in a magnitude spectrum against a local (CFAR) floor.

    This is the magnitude-domain core of :func:`find_spectral_peaks`; it
    also serves multi-query counting, where the detection statistic is the
    *average* magnitude spectrum over several captures (incoherent
    averaging suppresses the data-floor variance while tag spikes persist).

    Args:
        magnitudes: magnitude per FFT bin (frequencies ``k * bin_hz``).
        bin_hz: FFT bin spacing.
        search_lo_hz / search_hi_hz: band to search (the 1.2 MHz CFO span).
        min_snr_db: required peak amplitude margin over the local floor.
        min_separation_bins: greedy non-max suppression radius; adjacent
            tags 2+ bins apart survive as distinct peaks.
        max_peaks: optional cap (strongest first).
        values: optional complex spectrum aligned with ``magnitudes``.
        floors: optional precomputed CFAR floor for the search band (from
            :func:`band_floors` over the same magnitudes/band) — skips
            the per-call floor estimate when one caller scans the same
            spectrum at several thresholds.

    Returns:
        Peaks sorted by ascending frequency.
    """
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    lo_bin, hi_bin = _band_bounds(magnitudes.size, bin_hz, search_lo_hz, search_hi_hz)

    band = magnitudes[lo_bin : hi_bin + 1]
    if floors is None:
        floors = local_noise_floor(band)
    elif floors.size != band.size:
        raise SpectrumError(
            f"precomputed floors cover {floors.size} bins, band has {band.size}"
        )
    thresholds = floors * db_to_amplitude(min_snr_db)

    # Local maxima above their local threshold; the band edges can hold
    # real peaks too (one neighbour to beat).
    is_peak = np.zeros(band.size, dtype=bool)
    centre = band[1:-1]
    is_peak[1:-1] = (
        (centre >= thresholds[1:-1]) & (centre >= band[:-2]) & (centre > band[2:])
    )
    if band.size >= 2:
        is_peak[0] = band[0] >= thresholds[0] and band[0] > band[1]
        is_peak[-1] = band[-1] >= thresholds[-1] and band[-1] > band[-2]
    candidates = np.flatnonzero(is_peak)

    # Greedy non-maximum suppression, strongest first; a stable sort keeps
    # equal magnitudes in ascending-bin order.
    candidates = candidates[np.argsort(-band[candidates], kind="stable")]
    # A kept peak suppresses every candidate closer than the separation.
    radius = min_separation_bins - 1
    suppressed = np.zeros(band.size, dtype=bool)
    kept: list[int] = []
    for k in candidates.tolist():
        if not suppressed[k]:
            kept.append(k)
            if radius > 0:
                suppressed[max(0, k - radius) : k + radius + 1] = True
        if max_peaks is not None and len(kept) >= max_peaks:
            break

    peaks = []
    for k in sorted(kept):
        absolute = lo_bin + k
        left = magnitudes[absolute - 1] if absolute > 0 else magnitudes[absolute]
        right = (
            magnitudes[absolute + 1]
            if absolute < magnitudes.size - 1
            else magnitudes[absolute]
        )
        offset = parabolic_offset(left, magnitudes[absolute], right)
        peaks.append(
            SpectralPeak(
                bin_index=absolute,
                freq_hz=(absolute + offset) * bin_hz,
                value=complex(values[absolute]) if values is not None else 0j,
                magnitude=float(magnitudes[absolute]),
                floor=float(floors[absolute - lo_bin]),
            )
        )
    return peaks


def find_spectral_peaks(
    spectrum: Spectrum,
    search_lo_hz: float,
    search_hi_hz: float,
    min_snr_db: float = 12.0,
    min_separation_bins: int = 2,
    max_peaks: int | None = None,
) -> list[SpectralPeak]:
    """Detect CFO spikes within a frequency band of one spectrum (Fig 4)."""
    return find_peaks_in_magnitudes(
        spectrum.magnitude(),
        spectrum.bin_hz,
        search_lo_hz,
        search_hi_hz,
        min_snr_db=min_snr_db,
        min_separation_bins=min_separation_bins,
        max_peaks=max_peaks,
        values=spectrum.values,
    )
