"""Unit tests for repro.core.cfo."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.antenna import TriangleArray
from repro.channel.collision import StaticCollisionSimulator
from repro.channel.propagation import LosChannel
from repro.core.cfo import (
    estimate_channel,
    estimate_channels,
    extract_cfo_peaks,
    refine_frequencies,
)
from repro.dsp.spectrum import single_bin_dft
from repro.errors import SpectrumError
from repro.phy.waveform import Waveform
from tests.conftest import make_tag

FS = 4e6


def refine_one(wave, freq, span_hz=977.0):
    """Refine one start frequency on one capture."""
    return float(refine_frequencies(wave.samples, wave.times(), [freq], span_hz)[0])


class TestRefineFrequency:
    def test_on_grid_tone(self):
        wave = Waveform.tone(400e3, 512e-6, FS)
        assert refine_one(wave, 400e3 + 500) == pytest.approx(400e3, abs=20.0)

    def test_off_grid_tone(self):
        freq = 517_321.0
        wave = Waveform.tone(freq, 512e-6, FS)
        assert refine_one(wave, freq + 800.0) == pytest.approx(freq, abs=20.0)

    def test_with_noise(self):
        rng = np.random.default_rng(0)
        freq = 612_345.0
        wave = Waveform.tone(freq, 512e-6, FS, amplitude=1.0)
        noisy = Waveform(wave.samples + 0.05 * rng.normal(size=2048), FS)
        assert refine_one(noisy, freq + 700) == pytest.approx(freq, abs=100.0)

    def test_bad_span_rejected(self):
        with pytest.raises(SpectrumError):
            refine_one(Waveform.silence(1e-4, FS), 1e3, span_hz=0.0)

    def test_no_candidates(self):
        wave = Waveform.tone(400e3, 512e-6, FS)
        assert refine_frequencies(wave.samples, wave.times(), [], 977.0).size == 0

    @pytest.mark.parametrize("offset_bins", [-0.5, -0.45, -0.2, 0.0, 0.3, 0.45, 0.5])
    def test_clean_tone_converges_from_anywhere_within_half_a_bin(self, offset_bins):
        """Magnitude, not power: sinc^2 is convex near half a bin off the
        tone, so a power parabola started there walks a bin away."""
        freq = 517_321.0
        wave = Waveform.tone(freq, 512e-6, FS)
        bin_hz = FS / wave.n_samples
        start = freq + offset_bins * bin_hz
        assert refine_one(wave, start, bin_hz / 2.0) == pytest.approx(freq, abs=0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=20e3, max_value=1.2e6), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_lockstep_equals_one_at_a_time(self, starts, n_captures, seed):
        """P candidates refined together on shared (K, N) captures land
        exactly where each lands refined alone."""
        rng = np.random.default_rng(seed)
        n = 512
        samples = rng.normal(size=(n_captures, n)) + 1j * rng.normal(size=(n_captures, n))
        for f in rng.uniform(20e3, 1.2e6, size=3):
            samples += 3.0 * np.exp(2j * np.pi * f * np.arange(n) / FS)
        t = (np.arange(n) + rng.integers(0, 1000, size=(n_captures, 1))) / FS
        together = refine_frequencies(samples, t, starts, FS / n / 2.0)
        alone = [refine_frequencies(samples, t, [f], FS / n / 2.0)[0] for f in starts]
        assert np.array_equal(together, np.array(alone))

    def test_per_candidate_signals(self):
        """(P, K, N) samples: each candidate refines on its own row."""
        freqs = (312_000.0, 845_500.0)
        waves = [Waveform.tone(f, 512e-6, FS) for f in freqs]
        samples = np.stack([w.samples for w in waves])[:, None, :]
        starts = [f + 600.0 for f in freqs]
        refined = refine_frequencies(samples, waves[0].times(), starts, 977.0)
        assert refined == pytest.approx(freqs, abs=20.0)
        assert refined[0] == refine_one(waves[0], starts[0])


class TestEstimateChannel:
    def test_recovers_applied_channel(self):
        """2 * R(cfo) = h exactly, per Eq 5."""
        tag = make_tag(444e3, seed=4)
        response = tag.respond(0.0)
        h = 2.2e-4 * np.exp(1j * 0.7)
        wave = response.baseband_at_lo(response.carrier_hz - 444e3).scaled(h)
        estimate = estimate_channel(wave, 444e3)
        # The estimate includes the response's own random phase.
        expected = h * np.exp(1j * response.phase0_rad)
        assert estimate == pytest.approx(expected, rel=0.02)

    def test_phase_consistency_across_antennas(self):
        """The AoA primitive: channel ratio across antennas must match the
        true channel ratio (random tag phase cancels)."""
        tag = make_tag(350e3, position_m=(12.0, -6.0, 1.0), seed=5)
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        sim = StaticCollisionSimulator([tag], array.positions_m, LosChannel(), rng=1)
        collision = sim.query(0.0)
        h0 = estimate_channel(collision.antenna(0), 350e3)
        h1 = estimate_channel(collision.antenna(1), 350e3)
        truth = collision.truth[0].channels
        assert h1 / h0 == pytest.approx(truth[1] / truth[0], rel=1e-3)

    def test_estimate_channels_shared_time_base_bit_exact(self):
        """The shared-probe readout equals the per-antenna Eq 5 readout
        and ``2 * single_bin_dft`` bit for bit on one capture."""
        tags = [make_tag(cfo, seed=i) for i, cfo in enumerate((210e3, 350e3, 777e3))]
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        collision = StaticCollisionSimulator(tags, array.positions_m, LosChannel(), rng=2).query(
            0.0013
        )
        for cfo in (210e3, 350.4e3, 777e3):
            shared = estimate_channels(collision.antennas, cfo)
            for k, wave in enumerate(collision.antennas):
                assert shared[k] == estimate_channel(wave, cfo)
                assert shared[k] == 2.0 * single_bin_dft(wave, cfo)

    def test_estimate_channels_differing_time_bases_bit_exact(self):
        """Antennas with a different start, length or rate each get their
        own probe; every entry still equals the per-antenna readout."""
        rng = np.random.default_rng(9)

        def noise(n):
            return rng.normal(size=n) + 1j * rng.normal(size=n)

        waves = [
            Waveform(noise(512), FS, 0.0),
            Waveform(noise(512), FS, 3.1e-4),
            Waveform(noise(300), FS, 0.0),
            Waveform(noise(512), FS / 2, 0.0),
            Waveform(noise(512), FS, 3.1e-4),
        ]
        shared = estimate_channels(waves, 123.4e3)
        assert shared.shape == (len(waves),)
        for k, wave in enumerate(waves):
            assert shared[k] == estimate_channel(wave, 123.4e3)
            assert shared[k] == 2.0 * single_bin_dft(wave, 123.4e3)

    def test_empty_capture_rejected(self):
        empty = Waveform(np.zeros(0, dtype=complex), FS, 0.0)
        with pytest.raises(SpectrumError):
            single_bin_dft(empty, 1e3)
        with pytest.raises(SpectrumError):
            estimate_channel(empty, 1e3)
        with pytest.raises(SpectrumError):
            estimate_channels([Waveform.silence(1e-4, FS), empty], 1e3)


class TestExtractCfoPeaks:
    def test_five_tags(self):
        cfos = [150e3, 390e3, 610e3, 840e3, 1080e3]
        tags = [make_tag(c, position_m=(3.0 + 3 * i, -6.0, 1.0), seed=i) for i, c in enumerate(cfos)]
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        sim = StaticCollisionSimulator(tags, array.positions_m, LosChannel(), noise_power_w=1e-13, rng=2)
        peaks = extract_cfo_peaks(sim.query(0.0).antenna(0), min_snr_db=15)
        assert len(peaks) == 5
        for peak, cfo in zip(peaks, cfos):
            assert peak.cfo_hz == pytest.approx(cfo, abs=300.0)

    def test_channels_match_truth(self):
        """Magnitude matches truth exactly; the fast simulator's relative
        time base adds one constant phase per tag, so phases are compared
        through the antenna *ratio* (which every algorithm uses)."""
        tag = make_tag(777e3, seed=7)
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        sim = StaticCollisionSimulator([tag], array.positions_m, LosChannel(), rng=3)
        collision = sim.query(0.0)
        peaks = extract_cfo_peaks(collision.antenna(0), min_snr_db=15)
        assert len(peaks) == 1
        assert abs(peaks[0].channel) == pytest.approx(
            abs(collision.truth[0].channels[0]), rel=0.05
        )
        h1 = estimate_channel(collision.antenna(1), peaks[0].cfo_hz)
        ratio = h1 / peaks[0].channel
        truth_ratio = collision.truth[0].channels[1] / collision.truth[0].channels[0]
        assert ratio == pytest.approx(truth_ratio, rel=0.02)

    def test_sorted_by_frequency(self):
        tags = [make_tag(c, seed=i) for i, c in enumerate((900e3, 100e3))]
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        sim = StaticCollisionSimulator(tags, array.positions_m, LosChannel(), rng=4)
        peaks = extract_cfo_peaks(sim.query(0.0).antenna(0), min_snr_db=15)
        cfos = [p.cfo_hz for p in peaks]
        assert cfos == sorted(cfos)
