"""Unit tests for repro.dsp.spectrum and repro.dsp.peaks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import CFO_BIN_COUNT, FFT_RESOLUTION_HZ, READER_LO_HZ
from repro.dsp.peaks import (
    estimate_noise_floor,
    find_peaks_in_magnitudes,
    find_spectral_peaks,
    local_noise_floor,
    parabolic_offset,
)
from repro.dsp.spectrum import fft_spectrum, single_bin_dft
from repro.errors import SpectrumError
from repro.phy.waveform import Waveform
from repro.utils import db_to_amplitude
from tests.conftest import make_tag

FS = 4e6


class TestSpectrum:
    def test_resolution_is_1_over_T(self):
        """Eq 6: the full 512 us window gives 1.953 kHz bins."""
        wave = Waveform.silence(512e-6, FS)
        spectrum = fft_spectrum(wave)
        assert spectrum.resolution_hz == pytest.approx(FFT_RESOLUTION_HZ)
        assert spectrum.resolution_hz == pytest.approx(1953.125)

    def test_bin_count_615(self):
        """§5: the 1.2 MHz CFO span covers N = 615 bins."""
        assert CFO_BIN_COUNT == 615

    def test_tone_lands_in_right_bin(self):
        wave = Waveform.tone(400e3, 512e-6, FS)
        spectrum = fft_spectrum(wave)
        assert np.argmax(spectrum.magnitude()) == spectrum.bin_of(400e3)

    def test_bin_freq_roundtrip(self):
        spectrum = fft_spectrum(Waveform.silence(512e-6, FS))
        assert spectrum.freq_of(spectrum.bin_of(250e3)) == pytest.approx(250e3, abs=spectrum.bin_hz)

    def test_zero_padding_keeps_resolution(self):
        wave = Waveform.tone(100e3, 512e-6, FS)
        spectrum = fft_spectrum(wave, n_fft=4096)
        assert spectrum.n_bins == 4096
        assert spectrum.resolution_hz == pytest.approx(FFT_RESOLUTION_HZ)

    def test_window_offset_shifts_start(self):
        wave = Waveform.tone(100e3, 512e-6, FS)
        spectrum = fft_spectrum(wave, offset_samples=256, length_samples=1024)
        assert spectrum.window_start_s == pytest.approx(256 / FS)
        assert spectrum.n_input == 1024

    def test_unknown_window_rejected(self):
        with pytest.raises(SpectrumError):
            fft_spectrum(Waveform.silence(1e-4, FS), window="kaiser")

    def test_bin_of_out_of_range(self):
        spectrum = fft_spectrum(Waveform.silence(1e-4, FS))
        with pytest.raises(SpectrumError):
            spectrum.bin_of(5e6)


class TestSingleBinDft:
    def test_tone_amplitude_recovered(self):
        wave = Waveform.tone(313e3, 512e-6, FS, amplitude=2.5)
        assert abs(single_bin_dft(wave, 313e3)) == pytest.approx(2.5, rel=1e-3)

    def test_off_grid_tone_exact(self):
        """Works at arbitrary (non-bin-centered) frequencies."""
        freq = 313_777.7
        wave = Waveform.tone(freq, 512e-6, FS, amplitude=1.0)
        assert abs(single_bin_dft(wave, freq)) == pytest.approx(1.0, rel=1e-9)

    def test_absolute_time_reference(self):
        """Two windows of the same tone yield the same complex value when
        referenced to absolute time — the §5/§6 cross-window invariant."""
        wave = Waveform.tone(400e3, 512e-6, FS)
        a = single_bin_dft(wave, 400e3, offset_samples=0, length_samples=1024)
        b = single_bin_dft(wave, 400e3, offset_samples=512, length_samples=1024)
        assert a == pytest.approx(b, rel=1e-9)

    def test_eq5_channel_readout(self):
        """On a real OOK response: 2 * R(cfo) == h (Eq 5)."""
        tag = make_tag(500e3, seed=2)
        h = 0.003 * np.exp(1j * 1.1)
        wave = tag.respond(0.0).baseband_at_lo(READER_LO_HZ).scaled(h)
        estimate = 2.0 * single_bin_dft(wave, 500e3)
        # Tag applies its own random phase0; compare magnitudes and the
        # phase difference against that known phase.
        assert abs(estimate) == pytest.approx(abs(h), rel=0.02)


class TestFloorEstimation:
    def test_rayleigh_floor_scale(self):
        rng = np.random.default_rng(0)
        mags = np.abs(rng.normal(0, 1, 100_000) + 1j * rng.normal(0, 1, 100_000))
        # Rayleigh scale parameter (per-quadrature sigma) is 1 here; the
        # median/sqrt(ln 4) estimator must recover it.
        assert estimate_noise_floor(mags) == pytest.approx(1.0, rel=0.02)

    def test_local_floor_tracks_color(self):
        """A stepped floor must be tracked locally, not globally."""
        rng = np.random.default_rng(1)
        low = np.abs(rng.normal(0, 1, 300) + 1j * rng.normal(0, 1, 300))
        high = 10 * np.abs(rng.normal(0, 1, 300) + 1j * rng.normal(0, 1, 300))
        floors = local_noise_floor(np.concatenate([low, high]), window_bins=65)
        assert floors[:200].mean() < 3.0
        assert floors[-200:].mean() > 8.0

    def test_local_floor_excludes_guard(self):
        mags = np.ones(101)
        mags[50] = 100.0  # a spike must not raise its own floor
        floors = local_noise_floor(mags, window_bins=41, guard_bins=3)
        assert floors[50] == pytest.approx(1.0 / np.sqrt(np.log(4.0)))

    def test_empty_rejected(self):
        with pytest.raises(SpectrumError):
            estimate_noise_floor(np.zeros(0))


class TestParabolicOffset:
    def test_exact_for_parabola(self):
        # Parabola with vertex at +0.3: y = 1 - (x - 0.3)^2.
        y = lambda x: 1 - (x - 0.3) ** 2
        assert parabolic_offset(y(-1), y(0), y(1)) == pytest.approx(0.3)

    def test_symmetric_peak_centered(self):
        assert parabolic_offset(0.5, 1.0, 0.5) == 0.0

    def test_clipped_to_half_bin(self):
        assert abs(parabolic_offset(0.0, 0.1, 0.2)) <= 0.5

    def test_flat_input(self):
        assert parabolic_offset(1.0, 1.0, 1.0) == 0.0


class TestFindPeaks:
    def test_five_tones_detected(self):
        wave = Waveform.silence(512e-6, FS)
        freqs = [100e3, 320e3, 540e3, 800e3, 1100e3]
        for f in freqs:
            wave = wave + Waveform.tone(f, 512e-6, FS, amplitude=1.0)
        rng = np.random.default_rng(0)
        noisy = Waveform(wave.samples + rng.normal(0, 0.05, wave.n_samples), FS)
        peaks = find_spectral_peaks(fft_spectrum(noisy), 10e3, 1.25e6, min_snr_db=15)
        assert len(peaks) == 5
        for peak, f in zip(peaks, freqs):
            assert peak.freq_hz == pytest.approx(f, abs=FFT_RESOLUTION_HZ)

    def test_sub_bin_refinement(self):
        freq = 400e3 + 700.0  # deliberately off-grid
        wave = Waveform.tone(freq, 512e-6, FS)
        rng = np.random.default_rng(1)
        noisy = Waveform(wave.samples + rng.normal(0, 0.01, wave.n_samples), FS)
        peaks = find_spectral_peaks(fft_spectrum(noisy), 10e3, 1.25e6)
        assert len(peaks) == 1
        assert peaks[0].freq_hz == pytest.approx(freq, abs=FFT_RESOLUTION_HZ / 3)

    def test_max_peaks_keeps_strongest(self):
        wave = Waveform.tone(200e3, 512e-6, FS, amplitude=1.0) + Waveform.tone(
            800e3, 512e-6, FS, amplitude=0.2
        )
        rng = np.random.default_rng(2)
        noisy = Waveform(wave.samples + rng.normal(0, 0.005, wave.n_samples), FS)
        peaks = find_spectral_peaks(fft_spectrum(noisy), 10e3, 1.25e6, max_peaks=1)
        assert len(peaks) == 1
        assert peaks[0].freq_hz == pytest.approx(200e3, abs=FFT_RESOLUTION_HZ)

    def test_min_separation_suppresses_shoulder(self):
        mags = np.full(300, 1.0)
        mags[100] = 50.0
        mags[101] = 40.0  # shoulder of the same peak
        peaks = find_peaks_in_magnitudes(mags, 1e3, 0.0, 299e3, min_snr_db=10)
        assert len(peaks) == 1

    def test_empty_band_rejected(self):
        with pytest.raises(SpectrumError):
            find_peaks_in_magnitudes(np.ones(100), 1e3, 50e3, 50e3)

    def test_snr_reported(self):
        wave = Waveform.tone(400e3, 512e-6, FS, amplitude=1.0)
        rng = np.random.default_rng(3)
        noisy = Waveform(wave.samples + rng.normal(0, 0.02, wave.n_samples), FS)
        peaks = find_spectral_peaks(fft_spectrum(noisy), 10e3, 1.25e6)
        assert peaks[0].snr > 10.0


# -- scalar per-bin references for the vectorised CFAR kernels ---------------


def reference_floor(magnitudes, window_bins=65, guard_bins=3):
    """Per-bin CFAR floor, one neighbourhood and one ``np.median`` at a
    time: the window clipped to the band, the guard bins dropped, and
    the whole clipped window used when only guard bins remain."""
    n = magnitudes.size
    half = window_bins // 2
    floors = np.empty(n)
    for k in range(n):
        lo, hi = max(0, k - half), min(n, k + half + 1)
        neighbourhood = np.concatenate(
            [
                magnitudes[lo : max(lo, k - guard_bins)],
                magnitudes[min(hi, k + guard_bins + 1) : hi],
            ]
        )
        if neighbourhood.size == 0:
            neighbourhood = magnitudes[lo:hi]
        floors[k] = np.median(neighbourhood) / np.sqrt(np.log(4.0))
    return floors


def reference_peak_bins(band, floors, min_snr_db, min_separation_bins, max_peaks):
    """Band-relative bins the peak scan keeps, one bin at a time: local
    maxima over their threshold (the band edges need only beat their one
    neighbour), then greedy non-max suppression, strongest first."""
    thresholds = floors * db_to_amplitude(min_snr_db)
    candidates = [
        k
        for k in range(band.size)
        if band[k] >= thresholds[k]
        and band.size >= 2
        and (k == 0 or band[k] >= band[k - 1])
        and (k == band.size - 1 or band[k] > band[k + 1])
        and (k > 0 or band[0] > band[1])
        and (k < band.size - 1 or band[-1] > band[-2])
    ]
    candidates.sort(key=lambda k: -band[k])
    kept = []
    for k in candidates:
        if all(abs(k - other) >= min_separation_bins for other in kept):
            kept.append(k)
        if max_peaks is not None and len(kept) >= max_peaks:
            break
    return sorted(kept)


@st.composite
def magnitude_bands(draw, max_bins=700):
    """Magnitude spectra of 0..max_bins bins: Rayleigh floors with
    spikes, or values from a tiny alphabet so ties are everywhere."""
    n = draw(st.integers(min_value=0, max_value=max_bins))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        return rng.integers(0, 4, n).astype(np.float64)
    magnitudes = rng.rayleigh(1.0, n)
    if n:
        magnitudes[rng.integers(0, n, 1 + n // 50)] *= rng.uniform(3.0, 40.0)
    return magnitudes


cfar_shapes = st.one_of(
    st.just((65, 3)),
    st.integers(min_value=0, max_value=6).flatmap(
        lambda guard: st.tuples(
            st.integers(min_value=0, max_value=45).map(lambda j: 2 * guard + 3 + 2 * j),
            st.just(guard),
        )
    ),
)


class TestCfarKernelsMatchScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(magnitude_bands(), cfar_shapes)
    def test_local_noise_floor(self, magnitudes, shape):
        window_bins, guard_bins = shape
        floors = local_noise_floor(magnitudes, window_bins, guard_bins)
        assert np.array_equal(
            floors, reference_floor(magnitudes, window_bins, guard_bins)
        )

    def test_local_noise_floor_below_one_window(self):
        for n in range(0, 70):
            magnitudes = np.random.default_rng(n).rayleigh(1.0, n)
            assert np.array_equal(
                local_noise_floor(magnitudes), reference_floor(magnitudes)
            )

    @settings(max_examples=150, deadline=None)
    @given(
        magnitude_bands(),
        st.data(),
        st.sampled_from([0.0, 3.0, 6.0, 12.0]),
        st.integers(min_value=-1, max_value=6),
        st.sampled_from([None, 0, 1, 3]),
    )
    def test_find_peaks_in_magnitudes(
        self, magnitudes, data, min_snr_db, min_separation_bins, max_peaks
    ):
        n = magnitudes.size
        if n < 2:
            return
        lo_bin = data.draw(st.integers(min_value=0, max_value=n - 2))
        hi_bin = data.draw(st.integers(min_value=lo_bin + 1, max_value=n - 1))
        peaks = find_peaks_in_magnitudes(
            magnitudes,
            1.0,
            float(lo_bin),
            float(hi_bin),
            min_snr_db=min_snr_db,
            min_separation_bins=min_separation_bins,
            max_peaks=max_peaks,
        )
        band = magnitudes[lo_bin : hi_bin + 1]
        floors = reference_floor(band)
        expected = reference_peak_bins(
            band, floors, min_snr_db, min_separation_bins, max_peaks
        )
        assert [p.bin_index - lo_bin for p in peaks] == expected
        assert [p.floor for p in peaks] == [float(floors[k]) for k in expected]
