"""Unit tests for repro.core.counting (§5)."""

import numpy as np
import pytest

from repro.channel.antenna import TriangleArray
from repro.channel.collision import StaticCollisionSimulator
from repro.channel.noise import thermal_noise_power_w
from repro.channel.propagation import LosChannel
from repro.core.counting import BinClass, CollisionCounter, CountEstimate
from repro.errors import ConfigurationError
from tests.conftest import make_tag

FS = 4e6
NOISE_W = thermal_noise_power_w(FS)


def build_simulator(cfos, seed=0, positions=None):
    tags = []
    rng = np.random.default_rng(seed)
    for i, cfo in enumerate(cfos):
        if positions is not None:
            pos = positions[i]
        else:
            pos = (rng.uniform(-8, 8), rng.uniform(-11, -7), 1.0)
        tags.append(make_tag(cfo, position_m=pos, seed=100 + i))
    array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
    return StaticCollisionSimulator(
        tags, array.positions_m, LosChannel(), noise_power_w=NOISE_W, rng=seed
    )


class TestBasicCounting:
    def test_empty_scene_counts_zero(self):
        sim = build_simulator([])
        counter = CollisionCounter()
        assert counter.count(sim.query(0.0).antenna(0)).count == 0

    def test_single_tag(self):
        sim = build_simulator([500e3])
        estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
        assert estimate.count == 1
        assert estimate.observations[0].label is BinClass.SINGLE

    def test_five_separated_tags(self):
        sim = build_simulator([100e3, 350e3, 600e3, 850e3, 1100e3])
        estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
        assert estimate.count == 5
        assert estimate.n_single == 5

    def test_cfos_reported(self):
        sim = build_simulator([200e3, 900e3])
        estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
        cfos = estimate.cfos_hz()
        assert cfos.size == 2
        assert cfos[0] == pytest.approx(200e3, abs=500)
        assert cfos[1] == pytest.approx(900e3, abs=500)


class TestMultiTagBin:
    def test_same_bin_pair_counted_as_two(self):
        """Two tags 800 Hz apart share a 1.95 kHz bin; the §5 test must
        upgrade the single spike to a count of 2."""
        hits = 0
        for seed in range(10):
            sim = build_simulator([500_000.0, 500_800.0], seed=seed)
            estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
            hits += estimate.count == 2
        assert hits >= 7  # blind spots (delta_f ~ 0) are physical

    def test_near_zero_separation_is_blind(self):
        """Two tags 5 Hz apart are indistinguishable inside 512 us — the
        inherent blind spot both tests share."""
        sim = build_simulator([500_000.0, 500_005.0], seed=1)
        estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
        assert estimate.count in (1, 2)  # typically 1; never more

    def test_adjacent_bins_counted_separately(self):
        """Tags 2 bins apart are resolved peaks, one each."""
        sim = build_simulator([500_000.0, 503_906.0], seed=2)
        estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
        assert estimate.count == 2


class TestMultiCapture:
    def test_count_multi_matches_single_on_sparse(self):
        sim = build_simulator([300e3, 700e3], seed=3)
        waves = [sim.query(i * 1e-3).antenna(0) for i in range(4)]
        counter = CollisionCounter()
        assert counter.count_multi(waves).count == 2

    def test_multi_capture_improves_dense(self):
        rng = np.random.default_rng(11)
        cfos = rng.uniform(20e3, 1.19e6, size=40)
        sim = build_simulator(cfos, seed=4)
        counter = CollisionCounter()
        single = counter.count(sim.query(0.0).antenna(0)).count
        waves = [sim.query(i * 1e-3).antenna(0) for i in range(4)]
        multi = counter.count_multi(waves).count
        assert abs(multi - 40) <= abs(single - 40) + 2

    def test_empty_capture_list_rejected(self):
        with pytest.raises(ConfigurationError):
            CollisionCounter().count_multi([])


class TestRegimes:
    def test_dense_mode_triggers_on_crowded_band(self):
        rng = np.random.default_rng(12)
        cfos = rng.uniform(20e3, 1.19e6, size=35)
        sim = build_simulator(cfos, seed=5)
        estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
        assert estimate.dense_mode

    def test_sparse_mode_for_few_tags(self):
        sim = build_simulator([300e3, 900e3], seed=6)
        estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
        assert not estimate.dense_mode


class TestShiftMethod:
    def test_shift_method_counts_separated_tags(self):
        sim = build_simulator([150e3, 450e3, 800e3], seed=7)
        counter = CollisionCounter(method="shift")
        assert counter.count(sim.query(0.0).antenna(0)).count == 3

    def test_shift_method_detects_cobinned_pair(self):
        hits = 0
        for seed in range(10):
            sim = build_simulator([600_000.0, 600_900.0], seed=20 + seed)
            counter = CollisionCounter(method="shift")
            estimate = counter.count(sim.query(0.0).antenna(0))
            hits += estimate.count == 2
        assert hits >= 6

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            CollisionCounter(method="wavelet")


class TestEstimateAccounting:
    def test_contribution_rules(self):
        estimate = CountEstimate(count=0)
        assert estimate.n_single == estimate.n_multiple == estimate.n_rejected == 0

    def test_accuracy_over_random_scenes(self):
        """Average accuracy within a few percent at moderate density."""
        counts = []
        for seed in range(8):
            rng = np.random.default_rng(400 + seed)
            cfos = rng.uniform(20e3, 1.19e6, size=10)
            sim = build_simulator(cfos, seed=500 + seed)
            counts.append(CollisionCounter().count(sim.query(0.0).antenna(0)).count)
        assert np.mean(counts) == pytest.approx(10.0, abs=1.0)


class TestSfftProbeParity:
    """The sparse-probe ablation must be a pure regime-picker swap.

    ``probe="sfft"`` replaces only the density probe's candidate scan
    (sub-linear bucketized recovery instead of the dense spectrum
    sweep); refinement, classification and the joint tone fit run the
    identical full-precision code after it — so on the paper's Fig-5
    style workloads the two probes must agree on the count, the CFOs,
    and the dense-regime flag.
    """

    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("m", [2, 10])
    def test_sparse_scenes_bit_equal(self, m, seed):
        rng = np.random.default_rng(seed)
        cfos = rng.uniform(20e3, 1.19e6, size=m)
        capture = build_simulator(cfos, seed=seed).query(0.0).antenna(0)
        dense = CollisionCounter(probe="dense").count(capture)
        sfft = CollisionCounter(probe="sfft").count(capture)
        assert sfft.count == dense.count
        assert sfft.dense_mode == dense.dense_mode
        assert np.array_equal(sfft.cfos_hz(), dense.cfos_hz())

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [5, 6])
    def test_dense_scene_bit_equal(self, seed):
        """35 tags crowd the band past the dense trigger: both probes
        must hand the same regime decision to the same dense-detection
        pass."""
        rng = np.random.default_rng(seed + 7)
        cfos = rng.uniform(20e3, 1.19e6, size=35)
        capture = build_simulator(cfos, seed=seed).query(0.0).antenna(0)
        dense = CollisionCounter(probe="dense").count(capture)
        sfft = CollisionCounter(probe="sfft").count(capture)
        assert sfft.dense_mode == dense.dense_mode
        assert sfft.count == dense.count
        assert np.array_equal(sfft.cfos_hz(), dense.cfos_hz())

    def test_unknown_probe_rejected(self):
        with pytest.raises(ConfigurationError):
            CollisionCounter(probe="fancy")


class TestBatchedToneFit:
    def test_burst_stacked_fit_bit_exact(self):
        """The per-burst joint tone fit is one stacked least-squares
        across captures sharing a time base; every capture's amplitudes
        must equal its own per-capture ``_fit_tones`` solve bit for bit."""
        rng = np.random.default_rng(7)
        cfos = rng.uniform(20e3, 1.19e6, size=6)
        sim = build_simulator(cfos, seed=7)
        burst = [sim.query(0.0).antenna(0) for _ in range(4)]
        counter = CollisionCounter()
        freqs = counter.count_multi(burst).cfos_hz()
        assert freqs.size >= 2
        stacked = counter._fit_tones_burst(burst, freqs)
        assert len(stacked) == len(burst)
        # One shared basis: the stacked path really ran.
        assert all(probes is stacked[0][1] for _, probes in stacked)
        for wave, (amplitudes, probes) in zip(burst, stacked):
            looped_amplitudes, looped_probes = counter._fit_tones(wave, freqs)
            assert np.array_equal(amplitudes, looped_amplitudes)
            assert np.array_equal(probes, looped_probes)
