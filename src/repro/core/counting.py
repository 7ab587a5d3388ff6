"""Counting transponders from collisions (§5).

The estimator: FFT the collision, find the CFO spikes, and — because two
tags occasionally land in the same 1.95 kHz bin — classify every spike as
holding one tag or more than one. A spike holding one tag counts as 1, a
spike holding several counts as 2 (the paper's rule: only
triples-or-more in one bin are miscounted, Eq 9).

Classification is harder than it looks on real collisions, because every
spike is surrounded by (a) the wideband OOK data of *all* tags and (b)
the leakage of *neighbouring resolved spikes*, which can sit only a few
bins away. The counter therefore:

1. detects spikes against a local (CFAR) floor,
2. refines each spike frequency to a fraction of a bin,
3. jointly least-squares fits the complex amplitudes of all detected
   tones over the full window,
4. **cancels the other tones** before applying the per-spike test, and
5. adapts its detection threshold to tag density: in sparse collisions
   the data floor is structured (a couple of chip streams) and only a
   high threshold rejects its excursions; in dense collisions the floor
   Gaussianizes (CLT over many tags) and a lower threshold plus a
   coherence-reality filter recovers the weak tags that matter there.

The reader's duty-cycled burst issues up to 10 queries per wake-up (§10),
so :meth:`CollisionCounter.count_multi` can also combine several captures:
the detection statistic becomes the *average* magnitude spectrum
(incoherent averaging suppresses data-floor variance; spikes persist),
and per-spike statistics concatenate across captures after aligning each
capture's random response phase. A single capture (``count``) reproduces
the paper's one-shot estimator.

Two per-spike tests are provided:

* ``method="coherence"`` (default) — cut the capture into Q disjoint
  sub-windows; a lone tag yields Q identical complex DFT values
  (coherence ~1); co-binned tags beat against each other (coherence
  drops, magnitudes disperse); a data-floor fluke decorrelates. The
  single/multiple decision compares the measured coherence against the
  value a lone tone at the same sub-window SNR would show.
* ``method="shift"`` — the paper's literal Eq 8 test: |FFT| over
  ``[0, W)`` versus ``[tau, tau+W)``; a lone tag's magnitude is
  shift-invariant, co-binned tags beat. Several shifts dodge the
  ``delta_f * tau ~ integer`` blind spot. (Tone cancellation is applied
  here too, otherwise resolved neighbours trip the test.)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..dsp.peaks import band_floors, find_peaks_in_magnitudes
from ..dsp.sfft import sparse_fft_peaks
from ..dsp.spectrum import fft_spectrum
from ..errors import ConfigurationError
from ..phy.waveform import Waveform
from ..utils import as_rng
from .cfo import DEFAULT_SEARCH_HI_HZ, DEFAULT_SEARCH_LO_HZ

__all__ = ["BinClass", "BinObservation", "CountEstimate", "CollisionCounter"]

# In-band sFFT tones weaker than this fraction of the strongest one are
# treated as data sidelobes, not carriers (see _sfft_probe_candidates).
_SFFT_STRONG_RATIO = 0.3

# -- the threshold table: one configuration for every counting pass --------

#: Detection thresholds over the local (CFAR) floor [dB]. The sparse pass
#: runs at MIN_SNR_DB: it holds the false-alarm rate of a ~615-bin
#: Rayleigh search to a few percent per collision, and the structured
#: low-density data floor demands no less. A cheap probe at PROBE_SNR_DB
#: measures band crowding; at DENSE_TRIGGER or more candidates the scene
#: is dense and the pass runs at DENSE_SNR_DB (<= MIN_SNR_DB) with the
#: coherence-reality filter on: the dense floor is Gaussian (CLT over
#: many chip streams), so the filter is reliable, and the weak tags it
#: recovers dominate the error budget. The dense threshold drops by
#: MULTI_CAPTURE_RELIEF_DB per doubling of averaged captures (incoherent
#: averaging tightens the floor tail), floored at MIN_MULTI_SNR_DB.
MIN_SNR_DB = 15.0
PROBE_SNR_DB = 13.0
DENSE_TRIGGER = 16
DENSE_SNR_DB = 10.0
MULTI_CAPTURE_RELIEF_DB = 1.5
MIN_MULTI_SNR_DB = 7.5

#: A weak candidate whose phase trajectory correlates at FINGERPRINT_CORR
#: or more with a candidate FINGERPRINT_PARENT_RATIO times stronger is
#: that tag's data artifact (see ``_phase_fingerprints``).
FINGERPRINT_CORR = 0.85
FINGERPRINT_PARENT_RATIO = 3.0

#: Disjoint sub-windows per capture for the coherence statistic (>= 3).
N_SUBWINDOWS = 8

#: The single/multiple coherence threshold is ``C_expected(gamma)`` minus
#: a slack ``SLACK_BASE + SLACK_GAMMA / gamma`` that widens for noisy
#: spikes, clipped to ``[MIN_SLACK, MAX_SLACK]``. The companion magnitude
#: test calls a spike beating (two tags whose phases start aligned
#: modulate the magnitude while keeping the composite phase — invisible
#: to coherence alone) beyond ``DISPERSION_BASE + DISPERSION_GAMMA /
#: gamma``; a lone tone disperses ~``1/(sqrt(2) gamma)``.
SLACK_BASE = 0.03
SLACK_GAMMA = 0.30
MIN_SLACK = 0.055
MAX_SLACK = 0.35
DISPERSION_BASE = 0.04
DISPERSION_GAMMA = 2.2

#: A candidate whose jointly-fitted amplitude is below ACCEPT_GAMMA times
#: the local floor is an artifact (a sidelobe skirt of a strong tone, a
#: data-floor fluke); in dense mode, a spike below both
#: REALITY_COHERENCE and REALITY_GAMMA is a floor fluke, not a tag.
ACCEPT_GAMMA = 2.5
REALITY_COHERENCE = 0.75
REALITY_GAMMA = 2.3

#: Candidates refined to within this many bins of each other are merged
#: before fitting (keeps the least-squares basis conditioned).
MERGE_BINS = 1.2

#: The "shift" method's window offsets [samples] and the noise-independent
#: floor of its relative-magnitude-change threshold.
SHIFT_SAMPLES = (128, 320, 512)
SHIFT_TOLERANCE = 0.18

#: The sparse probe's recovery budget and its dedicated shift-randomness
#: seed (a fresh seeded stream per probe call keeps ``count_multi``
#: deterministic and stateless).
SFFT_MAX_TONES = 24
SFFT_SEED = 2015


class BinClass(enum.Enum):
    """Classification of one detected spectral spike."""

    SINGLE = "single"
    MULTIPLE = "multiple"
    REJECTED = "rejected"


@dataclass(frozen=True)
class BinObservation:
    """Diagnostics for one candidate spike.

    Attributes:
        cfo_hz: refined spike frequency.
        amplitude: jointly fitted complex tone amplitude (h/2 scale, from
            the first capture).
        snr: detection magnitude over the local floor.
        gamma: post-cancellation sub-window amplitude-to-noise ratio.
        coherence: |mean| / mean|.| of the cancelled sub-window values.
        expected_single_coherence: what a lone tone at this gamma shows.
        magnitude_dispersion: std/mean of the sub-window magnitudes.
        label: the verdict.
    """

    cfo_hz: float
    amplitude: complex
    snr: float
    gamma: float
    coherence: float
    expected_single_coherence: float
    magnitude_dispersion: float
    label: BinClass

    @property
    def contributes(self) -> int:
        """How many tags this spike adds to the count estimate."""
        if self.label is BinClass.SINGLE:
            return 1
        if self.label is BinClass.MULTIPLE:
            return 2
        return 0


@dataclass
class CountEstimate:
    """The counter's output for one collision (or burst of collisions)."""

    count: int
    observations: list[BinObservation] = field(default_factory=list)
    dense_mode: bool = False
    n_captures: int = 1

    @property
    def n_single(self) -> int:
        return sum(1 for o in self.observations if o.label is BinClass.SINGLE)

    @property
    def n_multiple(self) -> int:
        return sum(1 for o in self.observations if o.label is BinClass.MULTIPLE)

    @property
    def n_rejected(self) -> int:
        return sum(1 for o in self.observations if o.label is BinClass.REJECTED)

    def cfos_hz(self) -> np.ndarray:
        """CFOs of the accepted spikes (ascending)."""
        return np.array(
            sorted(o.cfo_hz for o in self.observations if o.label is not BinClass.REJECTED)
        )


@dataclass
class CollisionCounter:
    """The §5 estimator.

    One threshold table (the module constants above) configures every
    pass; only the per-spike test, the density probe and the obs hook
    are chosen per instance.

    Attributes:
        method: "coherence" (default) or "shift" (the paper's literal test).
        probe: how the density probe counts band crowding —
            ``"dense"`` (default: CFAR peak detection on the averaged
            magnitude spectrum at :data:`PROBE_SNR_DB`, the bit-exact
            baseline) or ``"sfft"`` (the paper's §10 sparse-FFT
            recovery on the first capture: aliasing bucketization +
            phase-offset location, sub-linear in the capture length).
            The probe only picks the regime (sparse vs dense detection
            threshold); the decision pass itself is identical under
            both, so the two probes disagree only when their candidate
            counts straddle :data:`DENSE_TRIGGER`.
        obs: nullable observability hook (see :mod:`repro.obs`): counts
            passes by regime and spike verdicts by label. Never affects
            the estimate.
    """

    method: str = "coherence"
    probe: str = "dense"
    obs: object = None

    def __post_init__(self) -> None:
        if self.method not in ("coherence", "shift"):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.probe not in ("dense", "sfft"):
            raise ConfigurationError(f"unknown probe {self.probe!r}")

    # -- public API -------------------------------------------------------------

    def count(self, wave: Waveform) -> CountEstimate:
        """Estimate how many tags collided inside one capture."""
        return self.count_multi([wave])

    def count_multi(self, waves: list[Waveform]) -> CountEstimate:
        """Estimate the tag count from one burst of repeated queries.

        All captures must view the same (static over the ~10 ms burst)
        scene; tags keep their CFOs but re-randomize their phases, which
        the per-spike statistics align out.
        """
        if not waves:
            raise ConfigurationError("need at least one capture")
        # Multi-capture averaging only suppresses *cross-tag* interference
        # (phases re-randomize per response); each tag's own data spectrum
        # repeats identically (same bits every response). The sparse-regime
        # floor is dominated by the latter, so relief applies only to the
        # dense pass, where cross terms dominate.
        relief = MULTI_CAPTURE_RELIEF_DB * np.log2(len(waves))
        dense_thr = max(MIN_MULTI_SNR_DB, DENSE_SNR_DB - relief)
        # The probe and the decision pass scan the same burst: spectra,
        # averaged magnitudes and the CFAR floor depend only on the
        # captures, so they are computed once and shared (the per-round
        # hot path of the city event engine runs through here).
        shared = self._spectral_state(waves)
        # Regime probe: the raw candidate count at a permissive threshold
        # cleanly separates sparse scenes (few tags + structured-floor
        # flukes) from dense ones (many tags, Gaussianized floor).
        dense = self._probe_candidates(waves, shared) >= DENSE_TRIGGER
        if self.obs is not None:
            self.obs.count("count.pass", regime="dense" if dense else "sparse")
        if dense:
            return self._count_pass(waves, dense_thr, dense_mode=True, shared=shared)
        return self._count_pass(waves, MIN_SNR_DB, dense_mode=False, shared=shared)

    def _spectral_state(self, waves: list[Waveform]):
        """(spectra, averaged magnitudes, band CFAR floors) of one burst."""
        spectra = [fft_spectrum(w) for w in waves]
        n_bins = min(s.n_bins for s in spectra)
        avg_mag = np.mean([s.magnitude()[:n_bins] for s in spectra], axis=0)
        floors = band_floors(
            avg_mag, spectra[0].bin_hz, DEFAULT_SEARCH_LO_HZ, DEFAULT_SEARCH_HI_HZ
        )
        return spectra, avg_mag, floors

    def _probe_candidates(self, waves: list[Waveform], shared) -> int:
        """Candidate spike count at the permissive probe threshold."""
        if self.probe == "sfft":
            return self._sfft_probe_candidates(waves)
        spectra, avg_mag, floors = shared
        peaks = find_peaks_in_magnitudes(
            avg_mag,
            spectra[0].bin_hz,
            DEFAULT_SEARCH_LO_HZ,
            DEFAULT_SEARCH_HI_HZ,
            min_snr_db=PROBE_SNR_DB,
            floors=floors,
        )
        return len(peaks)

    def _sfft_probe_candidates(self, waves: list[Waveform]) -> int:
        """Band crowding via §10 sparse-FFT recovery on the first capture.

        The probe only has to rank the scene against :data:`DENSE_TRIGGER`,
        so it runs the exactly-sparse recovery with a bounded tone
        budget and counts how many recovered tones land inside the CFO
        search band. Shift randomness comes from a stream seeded fresh
        per call (:data:`SFFT_SEED`): deterministic, and no draw ever leaks
        into the burst's main rng stream.
        """
        wave = waves[0]
        n = wave.n_samples
        n_buckets = 8
        while n_buckets < 8 * SFFT_MAX_TONES:
            n_buckets *= 2
        n_buckets = min(n_buckets, n)
        usable = (n // n_buckets) * n_buckets
        if usable == 0:
            return 0
        tones = sparse_fft_peaks(
            wave.samples[:usable],
            max_tones=SFFT_MAX_TONES,
            n_buckets=n_buckets,
            rng=as_rng(SFFT_SEED),
            # A density probe only ranks the scene against DENSE_TRIGGER:
            # no full-FFT widening fallback, and a raised bucket floor
            # (tones this weak cannot clear _SFFT_STRONG_RATIO anyway)
            # keeps the candidate set — and so the verification cost —
            # proportional to the real carrier population.
            widen=False,
            magnitude_floor_ratio=0.15,
            probe_samples=None,
        )
        in_band = []
        for tone in tones:
            freq_hz = tone.freq_hz(wave.sample_rate_hz, usable)
            if freq_hz > wave.sample_rate_hz / 2.0:
                freq_hz -= wave.sample_rate_hz
            if DEFAULT_SEARCH_LO_HZ <= freq_hz <= DEFAULT_SEARCH_HI_HZ:
                in_band.append(abs(tone.amplitude))
        if not in_band:
            return 0
        # Each tag's OOK data spectrum puts sinc sidelobes around its
        # carrier; the recovered tone list includes the strongest of
        # them. Carriers are mutually comparable while sidelobes sit
        # well below, so only tones within _SFFT_STRONG_RATIO of the
        # strongest in-band tone count toward the density estimate.
        top = max(in_band)
        return sum(1 for a in in_band if a >= _SFFT_STRONG_RATIO * top)

    # -- one detection/classification pass ----------------------------------------

    def _count_pass(
        self, waves: list[Waveform], snr_db: float, dense_mode: bool, shared
    ) -> CountEstimate:
        spectra, avg_mag, floors = shared
        bin_hz = spectra[0].bin_hz
        raw_peaks = find_peaks_in_magnitudes(
            avg_mag,
            bin_hz,
            DEFAULT_SEARCH_LO_HZ,
            DEFAULT_SEARCH_HI_HZ,
            min_snr_db=snr_db,
            floors=floors,
        )
        if not raw_peaks:
            return CountEstimate(
                count=0, observations=[], dense_mode=dense_mode, n_captures=len(waves)
            )

        refined_freqs = self._refine_multi_batch(
            waves, np.array([p.freq_hz for p in raw_peaks]), bin_hz / 2.0
        )
        refined = [
            (float(freq), p.snr, p.floor)
            for freq, p in zip(refined_freqs, raw_peaks)
        ]
        refined = self._merge_candidates(refined, bin_hz)
        freqs = np.array([r[0] for r in refined])
        snrs = np.array([r[1] for r in refined])
        # Normalized local floors: detection floor is in raw-FFT units over
        # n_input samples; single-frequency probes below are 1/n normalized.
        floors_norm = np.array([r[2] for r in refined]) / spectra[0].n_input

        # Joint refinement: a close neighbour's skirt biases the initial
        # per-peak frequency estimate by hundreds of Hz, which then leaks
        # a beating residue through the cancellation. Re-refining each
        # tone on the neighbour-cancelled residual removes the bias.
        freqs = self._joint_refine(waves[0], freqs, bin_hz)

        per_capture = self._fit_tones_burst(waves, freqs)
        # Sub-window values per capture, other tones cancelled, phases
        # aligned on each capture's own fitted amplitude.
        aligned_values = self._aligned_subwindow_values(waves, freqs, per_capture)
        amplitudes = per_capture[0][0]
        mean_abs_amplitude = np.mean(
            [np.abs(amps) for amps, _ in per_capture], axis=0
        )
        # Fingerprinting is a sparse-regime tool: dense collisions have a
        # Gaussianized floor (the reality filter handles it) and many
        # candidates, which would inflate random-correlation rejections.
        fingerprinted = (
            {} if dense_mode else self._phase_fingerprints(per_capture, mean_abs_amplitude)
        )

        observations = []
        for k in range(freqs.size):
            # A candidate whose jointly-fitted amplitude collapses was a
            # sidelobe / floor artifact: its spectrum energy is already
            # explained by the other tones. Reject it before classifying.
            if mean_abs_amplitude[k] < ACCEPT_GAMMA * floors_norm[k]:
                label = BinClass.REJECTED
                stats = _stats(mean_abs_amplitude[k] / floors_norm[k], 0.0, 0.0, 0.0)
            elif k in fingerprinted:
                label = BinClass.REJECTED
                stats = _stats(
                    mean_abs_amplitude[k] / floors_norm[k], fingerprinted[k], 0.0, 0.0
                )
            elif self.method == "coherence":
                label, stats = self._classify_coherence(
                    aligned_values[k], floors_norm[k], len(waves), dense_mode
                )
            else:
                label, stats = self._classify_shift(
                    waves[0], k, freqs, per_capture[0][0], per_capture[0][1]
                )
            observations.append(
                BinObservation(
                    cfo_hz=float(freqs[k]),
                    amplitude=complex(amplitudes[k]),
                    snr=float(snrs[k]),
                    label=label,
                    **stats,
                )
            )
        count = sum(o.contributes for o in observations)
        if self.obs is not None:
            for obs_record in observations:
                self.obs.count("count.spike", label=obs_record.label.value)
        return CountEstimate(
            count=count,
            observations=observations,
            dense_mode=dense_mode,
            n_captures=len(waves),
        )

    def _phase_fingerprints(
        self,
        per_capture: list[tuple[np.ndarray, np.ndarray]],
        mean_abs_amplitude: np.ndarray,
    ) -> dict[int, float]:
        """Identify candidates that are data artifacts of a stronger tag.

        A tag transmits the same bits in every response, so a narrowband
        excursion of *its own data spectrum* inherits its per-response
        random phase: across K captures the excursion's fitted phase
        trajectory tracks the parent tag's trajectory. A real tag's
        trajectory is independent of every other tag's. With K >= 3
        captures, a weak candidate whose trajectory correlates strongly
        with a candidate :data:`FINGERPRINT_PARENT_RATIO` times stronger is
        rejected. Returns {candidate index: correlation}.
        """
        k_captures = len(per_capture)
        if k_captures < 3:
            return {}
        amp_matrix = np.stack([amps for amps, _ in per_capture])  # (K, m)
        with np.errstate(invalid="ignore", divide="ignore"):
            phasors = amp_matrix / np.abs(amp_matrix)
        phasors = np.nan_to_num(phasors)
        rejected: dict[int, float] = {}
        m = amp_matrix.shape[1]
        for k in range(m):
            if mean_abs_amplitude[k] <= 0:
                continue
            for c in range(m):
                if c == k:
                    continue
                if mean_abs_amplitude[c] < FINGERPRINT_PARENT_RATIO * mean_abs_amplitude[k]:
                    continue
                corr = float(np.abs(np.mean(phasors[:, k] * phasors[:, c].conj())))
                if corr >= FINGERPRINT_CORR:
                    rejected[k] = corr
                    break
        return rejected

    def _joint_refine(
        self, wave: Waveform, freqs: np.ndarray, bin_hz: float
    ) -> np.ndarray:
        """One coordinate-descent pass of neighbour-cancelled refinement."""
        if freqs.size < 2:
            return freqs
        # Only peaks with a close neighbour re-refine; the joint fit that
        # feeds the cancellation is deferred until the first one, so
        # well-separated scenes (most occupied rounds) skip the tone
        # fit entirely.
        amplitudes = probes = None
        refined = freqs.copy()
        for k in range(freqs.size):
            # Only bother when a neighbour sits close enough to bias us.
            gaps = np.abs(np.delete(freqs, k) - freqs[k])
            if gaps.min() > 6.0 * bin_hz:
                continue
            if amplitudes is None:
                amplitudes, probes = self._fit_tones(wave, freqs)
            others = np.delete(np.arange(freqs.size), k)
            residual = wave.samples - (amplitudes[others][:, None] * probes[others].conj()).sum(axis=0)
            residual_wave = Waveform(residual, wave.sample_rate_hz, wave.t0_s)
            refined[k] = _parabolic_refine(residual_wave, freqs[k], bin_hz / 2.0)
        return refined

    def _refine_multi_batch(
        self, waves: list[Waveform], freqs_hz: np.ndarray, span_hz: float
    ) -> np.ndarray:
        """Refine every candidate's frequency in one vectorized sweep.

        As in :func:`~repro.core.cfo.refine_frequency`, each iteration's
        three probe frequencies share two complex exponentials
        (``probe(f +- span) = probe(f) * probe(+-span)``); on top of
        that, all P candidates iterate in lockstep (the span schedule is
        frequency-independent), so one iteration costs a single
        ``(P, N)`` demodulation per capture plus one shared shift
        exponential — instead of P separate Python-loop passes.
        Arithmetic is element-for-element the per-peak recursion, so the
        refined frequencies are bit-identical to the scalar loop; a
        candidate whose curvature denominator hits zero freezes (the
        scalar loop's ``break``) while the others keep iterating.
        """
        f = np.array(freqs_hz, dtype=np.float64)
        if f.size == 0:
            return f
        span = float(span_hz)
        times = [wave.times() for wave in waves]
        active = np.ones(f.size, dtype=bool)
        for _ in range(3):
            mags = np.zeros((3, f.size))
            for wave, t in zip(waves, times):
                y = wave.samples[None, :] * np.exp(
                    -2j * np.pi * f[:, None] * t[None, :]
                )
                shift = np.exp(-2j * np.pi * span * t)
                # Builtin abs (C hypot), not np.abs (npy_cabs): the two
                # differ by one ulp on some inputs, and bit-identity with
                # the per-peak recursion requires the former. P is small,
                # so the Python-level loop costs nothing next to the
                # (P, N) demodulation above.
                mags[0] += _abs_sq(np.mean(y * np.conj(shift)[None, :], axis=1))
                mags[1] += _abs_sq(np.mean(y, axis=1))
                mags[2] += _abs_sq(np.mean(y * shift[None, :], axis=1))
            denom = mags[0] - 2.0 * mags[1] + mags[2]
            active = active & (denom != 0.0)
            offset = np.zeros(f.size)
            offset[active] = 0.5 * (mags[0, active] - mags[2, active]) / denom[active]
            f = f + np.where(active, np.clip(offset, -1.0, 1.0) * span, 0.0)
            span /= 2.0
        return f

    def _merge_candidates(
        self, refined: list[tuple[float, float, float]], resolution_hz: float
    ) -> list[tuple[float, float, float]]:
        """Merge candidates whose refined frequencies nearly coincide.

        Refinement can walk two adjacent local maxima onto the same tone;
        fitting both would make the least-squares basis singular. Keep the
        higher-SNR member of any group closer than :data:`MERGE_BINS` bins.
        """
        kept: list[tuple[float, float, float]] = []
        for freq, snr, floor in sorted(refined, key=lambda r: -r[1]):
            if all(abs(freq - other[0]) > MERGE_BINS * resolution_hz for other in kept):
                kept.append((freq, snr, floor))
        return sorted(kept)

    # -- tone model --------------------------------------------------------------

    def _fit_tones(
        self, wave: Waveform, freqs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Jointly fit complex amplitudes of all detected tones.

        Returns (amplitudes, probes) where ``probes[k] = exp(-j2pi f_k t)``
        (so ``probes[k] * samples`` demodulates tone k) and the model is
        ``samples ~= sum_k amplitudes[k] * conj(probes[k])``.
        """
        t = wave.times()
        probes = np.exp(-2j * np.pi * freqs[:, None] * t[None, :])
        basis = probes.conj().T  # (N, m)
        amplitudes, *_ = np.linalg.lstsq(basis, wave.samples, rcond=None)
        return amplitudes, probes

    def _fit_tones_burst(
        self, waves: list[Waveform], freqs: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """:meth:`_fit_tones` for a whole burst, one stacked solve.

        Captures of one burst re-query the same static scene, so they
        share the time base (length, rate, start offset) and therefore
        the probe basis. Stacking their samples as the columns of a
        single multi-RHS least squares replaces K ``lstsq`` calls (and
        K basis constructions — the dominant cost, ``m*N`` complex
        exponentials each) with one. Up to 25 tones LAPACK's ``gelsd``
        solves multi-RHS columns through the same code path as a lone
        RHS, so each capture's amplitudes are bit-identical to its own
        per-capture solve; at 26+ columns the divide-and-conquer kernel
        (SMLSIZ = 25) blocks the RHS application differently and drifts
        by an ulp, so wider bases — and bursts whose captures disagree
        on the time base — fall back to the per-capture loop.
        """
        first = waves[0]
        if (
            len(waves) == 1
            or freqs.size > 25
            or any(
                w.n_samples != first.n_samples
                or w.sample_rate_hz != first.sample_rate_hz
                or w.t0_s != first.t0_s
                for w in waves[1:]
            )
        ):
            return [self._fit_tones(w, freqs) for w in waves]
        t = first.times()
        probes = np.exp(-2j * np.pi * freqs[:, None] * t[None, :])
        basis = probes.conj().T  # (N, m)
        stacked = np.stack([w.samples for w in waves], axis=1)  # (N, K)
        amplitudes, *_ = np.linalg.lstsq(basis, stacked, rcond=None)
        return [(amplitudes[:, k], probes) for k in range(len(waves))]

    def _aligned_subwindow_values(
        self,
        waves: list[Waveform],
        freqs: np.ndarray,
        per_capture: list[tuple[np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """(m, Q * n_captures) cancelled, phase-aligned sub-window DFTs.

        Per capture: ``X[k, q] = mean_q(samples * probes[k])`` minus every
        other tone's exactly-known leakage ``A_j * mean_q(conj(probes[j]) *
        probes[k])``. Each capture's values are then rotated by the
        conjugate phase of its own fitted amplitude so that a lone tag
        lines up across captures despite its per-response random phase.
        """
        q = N_SUBWINDOWS
        chunks = []
        for wave, (amplitudes, probes) in zip(waves, per_capture):
            n = wave.n_samples
            length = n // q
            usable = length * q
            reshaped = probes[:, :usable].reshape(freqs.size, q, length)
            demod = (wave.samples[:usable] * probes[:, :usable]).reshape(
                freqs.size, q, length
            )
            x = demod.mean(axis=2)  # (m, Q)
            # G[k, j, q] = mean_q(probes[k] * conj(probes[j]))
            leak = np.einsum("kqn,jqn->kjq", reshaped, reshaped.conj()) / length
            x_cancelled = x - np.einsum("kjq,j->kq", leak, amplitudes)
            # The k == j term removed its own amplitude; add it back.
            x_cancelled = x_cancelled + amplitudes[:, None]
            phases = np.exp(-1j * np.angle(amplitudes))
            chunks.append(x_cancelled * phases[:, None])
        return np.concatenate(chunks, axis=1)

    # -- classifiers -------------------------------------------------------------

    @staticmethod
    def _expected_single_coherence(gamma: float, n_windows: int) -> float:
        """Coherence a lone tone shows at sub-window SNR ``gamma``.

        With per-window noise of unit scale and tone amplitude gamma:
        ``|mean| ~ sqrt(gamma^2 + 1/Q)`` and ``mean|.| ~ sqrt(gamma^2 + 1)``.
        """
        g2 = gamma * gamma
        return float(np.sqrt((g2 + 1.0 / n_windows) / (g2 + 1.0)))

    def _single_threshold(self, expected: float, gamma: float) -> float:
        """Coherence above which a spike may be a lone tone.

        The tolerance widens as the spike weakens (the coherence statistic
        itself gets noisier) and never falls below :data:`MIN_SLACK` (residual
        imperfection of neighbour-tone cancellation), calibrated against
        measured single-tone coherence scatter.
        """
        slack = SLACK_BASE + SLACK_GAMMA / max(gamma, 0.3)
        slack = min(MAX_SLACK, max(MIN_SLACK, slack))
        return expected * (1.0 - slack)

    def _dispersion_threshold(self, gamma: float) -> float:
        """Magnitude dispersion above which a spike holds several tags.

        A lone tone's sub-window magnitudes are ``|A + n_q|`` with
        ``std/mean ~ 1/(sqrt(2) gamma)``; co-binned tags *beat*, and the
        beat shows in the magnitudes even when the composite phase stays
        put (tones that start aligned rotate the magnitude, not the
        phase — coherence alone is blind to them).
        """
        return DISPERSION_BASE + DISPERSION_GAMMA / max(gamma, 0.3)

    def _classify_coherence(
        self,
        values: np.ndarray,
        floor_norm: float,
        n_captures: int,
        dense_mode: bool,
    ) -> tuple[BinClass, dict]:
        mags = np.abs(values)
        mean_mag = float(mags.mean())
        sigma_q = max(floor_norm * np.sqrt(N_SUBWINDOWS), 1e-300)
        gamma = mean_mag / sigma_q
        if mean_mag == 0.0:
            return BinClass.REJECTED, _stats(0.0, 0.0, 0.0, 0.0)
        coherence = float(np.abs(values.mean()) / mean_mag)
        dispersion = float(mags.std() / mean_mag)
        expected = self._expected_single_coherence(
            gamma, N_SUBWINDOWS * n_captures
        )
        stats = _stats(gamma, coherence, expected, dispersion)
        if dense_mode and coherence < REALITY_COHERENCE and gamma < REALITY_GAMMA:
            return BinClass.REJECTED, stats
        if coherence >= self._single_threshold(expected, gamma) and dispersion <= self._dispersion_threshold(gamma):
            return BinClass.SINGLE, stats
        return BinClass.MULTIPLE, stats

    def _classify_shift(
        self,
        wave: Waveform,
        k: int,
        freqs: np.ndarray,
        amplitudes: np.ndarray,
        probes: np.ndarray,
    ) -> tuple[BinClass, dict]:
        """The paper's Eq 8 test (with neighbour-tone cancellation)."""
        max_shift = max(SHIFT_SAMPLES)
        window = wave.n_samples - max_shift
        if window <= 0:
            raise ConfigurationError("waveform shorter than the largest shift")

        def cancelled_window_mag(offset: int) -> float:
            demod = wave.samples[offset : offset + window] * probes[k, offset : offset + window]
            value = demod.mean()
            for j in range(freqs.size):
                if j == k:
                    continue
                cross = (
                    probes[k, offset : offset + window]
                    * probes[j, offset : offset + window].conj()
                )
                value -= amplitudes[j] * cross.mean()
            return abs(value)

        reference = cancelled_window_mag(0)
        if reference == 0.0:
            return BinClass.REJECTED, _stats(0.0, 0.0, 0.0, 0.0)
        worst = 0.0
        for shift in SHIFT_SAMPLES:
            shifted = cancelled_window_mag(shift)
            worst = max(worst, abs(shifted - reference) / reference)
        if worst <= SHIFT_TOLERANCE:
            return BinClass.SINGLE, _stats(np.nan, 1.0, 1.0, worst)
        return BinClass.MULTIPLE, _stats(np.nan, 0.0, 1.0, worst)


def _abs_sq(values: np.ndarray) -> np.ndarray:
    """``abs(v) ** 2`` per element via the builtin (C ``hypot``) path."""
    return np.array([abs(v) ** 2 for v in values])


def _parabolic_refine(wave: Waveform, freq_hz: float, span_hz: float) -> float:
    """Iterated parabolic |DFT| maximization (local copy avoids the
    counting -> cfo -> counting import cycle for this one helper)."""
    t = wave.times()
    f, span = float(freq_hz), float(span_hz)
    for _ in range(3):
        # One (3, N) demodulation instead of three 1-D passes; builtin
        # abs keeps each probe magnitude bit-identical to the scalar
        # form (same hypot path, see _abs_sq).
        probes = np.exp(
            -2j * np.pi * (f + np.array([-span, 0.0, span]))[:, None] * t[None, :]
        )
        mags = [abs(v) for v in np.mean(wave.samples[None, :] * probes, axis=1)]
        denom = mags[0] - 2.0 * mags[1] + mags[2]
        if denom == 0.0:
            break
        offset = 0.5 * (mags[0] - mags[2]) / denom
        f += float(np.clip(offset, -1.0, 1.0)) * span
        span /= 2.0
    return f


def _stats(gamma: float, coherence: float, expected: float, dispersion: float) -> dict:
    return {
        "gamma": float(gamma),
        "coherence": float(coherence),
        "expected_single_coherence": float(expected),
        "magnitude_dispersion": float(dispersion),
    }
