"""CFO estimation and channel readout from collision spectra (§3, Eq 5).

Every downstream Caraoke function starts the same way: FFT the collision,
find a tag's spike, refine its frequency to a fraction of a bin, and read
the complex value there — which equals ``h/2``, half the tag's channel
(Eq 5, using the Manchester DC null). This module packages those steps.

:func:`refine_frequencies` is the one sub-bin refiner in the package:
the peak readouts below, the counter (on a burst's captures, and again
on neighbour-cancelled residuals) and the decoder all call it, each
refining every candidate of a pass in one lockstep call.

Sub-bin refinement matters most to the decoder: a residual CFO error of
``delta`` rotates the target by ``2*pi*delta*T`` across the 512 µs
response; at half a bin (977 Hz) that is a full pi rotation — fatal for
coherent combining — whereas the ~10 Hz residual after refinement is
negligible (§8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import CFO_SPAN_HZ
from ..dsp.peaks import find_peaks_in_magnitudes, find_spectral_peaks
from ..dsp.spectrum import fft_spectrum
from ..errors import SpectrumError
from ..phy.waveform import Waveform

__all__ = [
    "CfoPeak",
    "CollisionPeak",
    "refine_frequencies",
    "estimate_channel",
    "estimate_channels",
    "extract_cfo_peaks",
    "extract_collision_peaks",
]

#: Default search band: the 1.2 MHz CFO span plus a small margin.
DEFAULT_SEARCH_LO_HZ = 2e3
DEFAULT_SEARCH_HI_HZ = CFO_SPAN_HZ + 50e3

#: Parabolic steps of :func:`refine_frequencies` (the span halves each).
REFINE_ITERATIONS = 3


@dataclass(frozen=True)
class CfoPeak:
    """One tag's refined spike: frequency plus channel readout.

    Attributes:
        cfo_hz: refined carrier frequency offset.
        channel: complex channel estimate ``h`` (2x the spectral value,
            Eq 5); includes the tag's random response phase.
        magnitude: spectral magnitude at the peak bin (detection units).
        snr: peak amplitude over the local noise floor.
    """

    cfo_hz: float
    channel: complex
    magnitude: float
    snr: float


def refine_frequencies(samples, t, freqs_hz, span_hz: float) -> np.ndarray:
    """Refine P tone frequencies in lockstep by iterated parabolic search.

    The statistic is the magnitude ``|DFT(f)|`` (summed over captures),
    the §3 readout and what the counter detects on. Each iteration
    evaluates it at ``f - span, f, f + span``, fits a parabola, jumps to
    its vertex and halves the span; three iterations from a half-bin span
    land within a few Hz on clean tones. A parabola through *power*
    would not: ``sinc^2`` is convex near half a bin off the tone, so a
    start there walks a full bin away.

    All candidates share the span schedule, so they iterate together;
    each iteration costs one demodulation per candidate row plus one
    shared shift (``probe(f +- span) = probe(f) * probe(+-span)``). A
    candidate whose curvature is zero stops moving while the rest go on.
    Each candidate's result does not depend on the others.

    Args:
        samples: ``(K, N)`` captures every candidate is refined on (a
            lone capture may be ``(N,)``), or ``(P, K, N)`` with one
            signal per candidate.
        t: sample times in seconds, broadcastable against ``samples``
            (``(N,)`` for a shared time base, else ``(K, N)``).
        freqs_hz: P starting frequencies.
        span_hz: initial probe offset, normally half a bin.

    Returns:
        The P refined frequencies.
    """
    if span_hz <= 0:
        raise SpectrumError(f"span must be positive, got {span_hz}")
    f = np.array(freqs_hz, dtype=np.float64)
    span = float(span_hz)
    moving = np.ones(f.size, dtype=bool)
    for _ in range(REFINE_ITERATIONS):
        y = samples * np.exp(-2j * np.pi * f[:, None, None] * t)
        shift = np.exp(-2j * np.pi * span * t)
        lo, mid, hi = (
            np.abs(np.mean(z, axis=-1)).sum(axis=-1)
            for z in (y * np.conj(shift), y, y * shift)
        )
        denom = lo - 2.0 * mid + hi
        moving &= denom != 0.0
        offset = np.divide(0.5 * (lo - hi), denom, out=np.zeros_like(f), where=moving)
        f = f + np.clip(offset, -1.0, 1.0) * span
        span /= 2.0
    return f


def estimate_channel(wave: Waveform, cfo_hz: float) -> complex:
    """Read the tag's channel off the spectrum: ``h = 2 * R(cfo)`` (Eq 5).

    The factor 2 undoes the OOK DC term (``s(t)`` has mean 1/2). The phase
    reference is absolute time, so estimates from different antennas of the
    same capture are directly comparable — their ratio is the AoA phase
    difference of §6.
    """
    return complex(estimate_channels([wave], cfo_hz)[0])


def estimate_channels(waves, cfo_hz: float) -> np.ndarray:
    """:func:`estimate_channel` for every antenna of one capture.

    Each entry is ``2 * single_bin_dft(wave, cfo_hz)``, bit for bit. The
    probe exponential depends only on the time base (start, length,
    rate), which the antennas of a capture share, so it is computed once
    per distinct time base instead of once per antenna; antennas whose
    time bases differ simply get their own probe.

    Raises:
        SpectrumError: if a capture is empty.
    """
    probes: dict[tuple, np.ndarray] = {}
    channels = []
    for wave in waves:
        if wave.n_samples == 0:
            raise SpectrumError("cannot read a channel off an empty capture")
        key = (wave.t0_s, wave.n_samples, wave.sample_rate_hz)
        probe = probes.get(key)
        if probe is None:
            probe = probes[key] = np.exp(-2j * np.pi * cfo_hz * wave.times())
        channels.append(2.0 * complex(np.mean(wave.samples * probe)))
    return np.array(channels)


@dataclass(frozen=True)
class CollisionPeak:
    """One tag's spike read across *every* antenna of a collision.

    The shared Eq 5 readout: detection happens on the average magnitude
    spectrum over all antennas (incoherent averaging suppresses the data
    floor while the spike persists at every element), and the channel is
    read per antenna at the one refined frequency — the same numbers the
    decoder compensates with and localization turns into Eq 10 phase
    differences.

    Attributes:
        cfo_hz: refined carrier frequency offset.
        channels: complex channel estimate ``h`` per antenna (Eq 5, 2x
            the spectral value); includes the response's random phase,
            which is common across antennas and cancels in ratios.
        magnitude: average spectral magnitude at the peak bin.
        snr: peak amplitude over the local floor of the average spectrum.
    """

    cfo_hz: float
    channels: np.ndarray
    magnitude: float
    snr: float

    @property
    def n_antennas(self) -> int:
        return int(self.channels.size)


def extract_collision_peaks(
    collision,
    search_lo_hz: float = DEFAULT_SEARCH_LO_HZ,
    search_hi_hz: float = DEFAULT_SEARCH_HI_HZ,
    min_snr_db: float = 10.0,
    max_peaks: int | None = None,
) -> list[CollisionPeak]:
    """Detect spikes across a collision's antennas and read every channel.

    The multi-antenna counterpart of :func:`extract_cfo_peaks`: instead of
    privileging one element, the detection statistic is the average
    magnitude spectrum over all antennas, each spike's frequency is
    refined on the antenna where it is strongest, and the Eq 5 channel is
    read from *every* antenna at that one frequency.

    Args:
        collision: a :class:`~repro.channel.collision.ReceivedCollision`.
        search_lo_hz / search_hi_hz: CFO band to search.
        min_snr_db: detection threshold over the local (CFAR) floor.
        max_peaks: optional cap on returned peaks (strongest kept).

    Returns:
        Peaks sorted by ascending CFO.
    """
    spectra = [fft_spectrum(wave) for wave in collision.antennas]
    n_bins = min(spectrum.n_bins for spectrum in spectra)
    magnitudes = np.stack([spectrum.magnitude()[:n_bins] for spectrum in spectra])
    avg_mag = magnitudes.mean(axis=0)
    raw = find_peaks_in_magnitudes(
        avg_mag,
        spectra[0].bin_hz,
        search_lo_hz,
        search_hi_hz,
        min_snr_db=min_snr_db,
        max_peaks=max_peaks,
    )
    if not raw:
        return []
    strongest = [
        collision.antennas[int(np.argmax(magnitudes[:, peak.bin_index]))] for peak in raw
    ]
    freqs = refine_frequencies(
        np.stack([wave.samples for wave in strongest])[:, None, :],
        np.stack([wave.times() for wave in strongest])[:, None, :],
        [peak.freq_hz for peak in raw],
        span_hz=spectra[0].resolution_hz / 2.0,
    )
    peaks = [
        CollisionPeak(
            cfo_hz=float(freq),
            channels=estimate_channels(collision.antennas, freq),
            magnitude=peak.magnitude,
            snr=peak.snr,
        )
        for freq, peak in zip(freqs, raw)
    ]
    return sorted(peaks, key=lambda p: p.cfo_hz)


def extract_cfo_peaks(
    wave: Waveform,
    search_lo_hz: float = DEFAULT_SEARCH_LO_HZ,
    search_hi_hz: float = DEFAULT_SEARCH_HI_HZ,
    min_snr_db: float = 10.0,
    max_peaks: int | None = None,
) -> list[CfoPeak]:
    """Full pipeline: FFT -> detect spikes -> refine -> read channels.

    Args:
        wave: one antenna's collision capture.
        search_lo_hz / search_hi_hz: CFO band to search.
        min_snr_db: detection threshold over the local (CFAR) floor.
        max_peaks: optional cap on returned peaks (strongest kept).

    Returns:
        Peaks sorted by ascending CFO.
    """
    spectrum = fft_spectrum(wave)
    raw = find_spectral_peaks(
        spectrum, search_lo_hz, search_hi_hz, min_snr_db=min_snr_db, max_peaks=max_peaks
    )
    freqs = refine_frequencies(
        wave.samples,
        wave.times(),
        [peak.freq_hz for peak in raw],
        span_hz=spectrum.resolution_hz / 2.0,
    )
    peaks = [
        CfoPeak(
            cfo_hz=float(freq),
            channel=estimate_channel(wave, freq),
            magnitude=peak.magnitude,
            snr=peak.snr,
        )
        for freq, peak in zip(freqs, raw)
    ]
    return sorted(peaks, key=lambda p: p.cfo_hz)
