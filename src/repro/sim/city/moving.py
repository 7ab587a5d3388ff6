"""Moving tags: collision synthesis with per-query channel geometry.

:class:`~repro.channel.collision.StaticCollisionSimulator` freezes the
scene per burst; a corridor's scene *moves*. :class:`MovingTag` pairs a
transponder with a :class:`~repro.sim.mobility.ConstantSpeedTrajectory`,
and :class:`MovingCollisionSource` synthesizes one pole's capture with
every tag at its position *at response time* — the channel (Friis
amplitude + path phase) is re-sampled per query, so coherent combining
across a decode burst sees exactly the channel drift a moving car
produces (§12.3: a 15 m/s car moves ~15 mm per 1 ms query period, about
λ/20 of path phase per capture — which is why per-capture channel
readout, Eq 5, survives mobility).

Doppler itself is not modeled: at 915 MHz and city speeds it is ≤ ~50 Hz,
far below the 1.95 kHz FFT resolution that separates tags (§5), so it
never moves a spike between bins.

The per-tag CFO-mixed baseband templates are precomputed once in a
:class:`TagWaveformBank` shared by *all* poles of a corridor — only the
(antennas x tags) channel-gain matrix is rebuilt per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ...channel.collision import ReceivedCollision, TruthEntry
from ...constants import (
    DEFAULT_SAMPLE_RATE_HZ,
    QUERY_DURATION_S,
    READER_LO_HZ,
    READER_RANGE_M,
    RESPONSE_DURATION_S,
    TURNAROUND_S,
)
from ...channel.noise import add_awgn
from ...errors import ConfigurationError
from ...phy.transponder import TagResponse, Transponder
from ...phy.waveform import Waveform
from ...utils import as_rng
from ..mobility import ConstantSpeedTrajectory

__all__ = ["MovingTag", "TagWaveformBank", "MovingCollisionSource"]


@dataclass
class MovingTag:
    """A transponder riding a trajectory through the corridor."""

    transponder: Transponder
    trajectory: ConstantSpeedTrajectory

    def position(self, t_s: float) -> np.ndarray:
        return self.trajectory.position(t_s)

    @property
    def tag_id(self) -> int:
        return self.transponder.tag_id

    def time_at_x(self, x_m: float) -> float | None:
        """When the tag crosses an along-road coordinate, if ever.

        Returns None for a stationary (along x) tag that is not already
        past the coordinate; a crossing in the past is still returned
        (callers clip to their run window).
        """
        vx = float(self.trajectory.velocity_m_s[0])
        if vx == 0.0:
            return None
        return self.trajectory.t0_s + (x_m - float(self.trajectory.start_m[0])) / vx

    def in_range(self, pole_m: np.ndarray, t_s: float, range_m: float = READER_RANGE_M) -> bool:
        """Whether the tag is within a pole's radio range at ``t_s``."""
        return float(np.linalg.norm(self.position(t_s) - pole_m)) <= range_m


class TagWaveformBank:
    """Per-tag CFO-mixed baseband templates, computed once per corridor.

    A tag's response waveform (OOK chips mixed to its CFO) does not
    depend on where the tag is — only the channel gain does — so the
    (m x N) signal matrix rows can be shared across every pole and every
    query of a run. Rows are keyed by the transponder's account id, so a
    bank outliving one scene's objects can never serve a freed tag's
    waveform to a newcomer.
    """

    def __init__(
        self,
        lo_hz: float = READER_LO_HZ,
        sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
        rng=None,
    ):
        self.lo_hz = lo_hz
        self.sample_rate_hz = sample_rate_hz
        self.rng = as_rng(rng)
        self.n_samples = int(round(RESPONSE_DURATION_S * sample_rate_hz))
        self._tau = np.arange(self.n_samples) / sample_rate_hz
        self._rows: dict[int, tuple[np.ndarray, TagResponse]] = {}

    def row(self, transponder: Transponder) -> tuple[np.ndarray, TagResponse]:
        """(CFO-mixed baseband, template response) for one transponder."""
        key = transponder.tag_id
        cached = self._rows.get(key)
        if cached is None:
            template = transponder.respond(0.0, self.sample_rate_hz, rng=self.rng)
            cfo = template.cfo_hz(self.lo_hz)
            mixed = template.baseband * np.exp(2j * np.pi * cfo * self._tau)
            cached = (mixed, template)
            self._rows[key] = cached
        return cached


class MovingCollisionSource:
    """One pole's radio front-end over a moving scene.

    Each :meth:`query` places every participating tag at its trajectory
    position at response time, rebuilds the per-antenna channel gains,
    and superposes the precomputed baseband rows — the moving-scene
    equivalent of ``StaticCollisionSimulator.query``.
    """

    def __init__(
        self,
        antenna_positions_m: np.ndarray,
        channel,
        bank: TagWaveformBank,
        noise_power_w: float = 0.0,
        rng=None,
    ):
        # A read-only copy: the pole position derived from it is cached.
        self.antenna_positions_m = np.atleast_2d(
            np.array(antenna_positions_m, dtype=np.float64)
        )
        if self.antenna_positions_m.shape[1] != 3:
            raise ConfigurationError("antenna positions must be (K, 3)")
        self.antenna_positions_m.setflags(write=False)
        self.channel = channel
        self.bank = bank
        self.noise_power_w = noise_power_w
        self.rng = as_rng(rng)

    @property
    def n_antennas(self) -> int:
        return int(self.antenna_positions_m.shape[0])

    @cached_property
    def pole_position_m(self) -> np.ndarray:
        """Centroid of the antenna elements (read-only, computed once)."""
        position = self.antenna_positions_m.mean(axis=0)
        position.setflags(write=False)
        return position

    def query(
        self, tags: list[MovingTag], query_start_s: float, corrupted: bool = False
    ) -> ReceivedCollision:
        """Issue one query at ``query_start_s`` to the given tags.

        Args:
            tags: the tags that hear this query (range gating is the
                caller's job — it knows the roster).
            query_start_s: absolute query start time.
            corrupted: synthesize pure noise instead of the responses —
                the §9 harmful case, a response batch stepped on by
                another reader's query (the capture's air time is still
                spent, its content is garbage).
        """
        response_t0 = query_start_s + QUERY_DURATION_S + TURNAROUND_S
        if not tags or corrupted:
            return self._package(
                np.zeros((self.n_antennas, self.bank.n_samples), dtype=np.complex128),
                [],
                response_t0,
            )
        return self._synthesize(tags, None, response_t0)

    def overhear(
        self,
        entries: list[tuple[MovingTag, float]],
        response_t0: float,
        origin: str | None = None,
        rng=None,
    ) -> ReceivedCollision:
        """Capture a window *another* reader's query triggered.

        The responses are the same physical transmissions the origin pole
        received, so each tag's random oscillator phase is supplied (from
        the corridor's response pool) rather than drawn — what changes at
        this pole is only the channel: per-antenna delay/attenuation is
        rebuilt from *this* pole's geometry at the window's response
        time, and the noise is this receiver's own. The returned capture
        carries ``overheard_from`` provenance.

        Args:
            entries: ``(tag, phase0_rad)`` responders audible at this
                pole (range gating is the caller's job — the pool knows
                the roster).
            response_t0: absolute start of the overheard response window.
            origin: name of the reader whose query opened the window.
            rng: noise randomness for this capture. Defaults to the
                source's own stream; callers comparing harvest policies
                pass a separate stream so opportunistic synthesis never
                perturbs the main sequence of draws (the ``"ignore"``
                ablation stays bit-for-bit comparable).
        """
        if not entries:
            raise ConfigurationError("an overheard window needs responders")
        tags = [tag for tag, _ in entries]
        phases = np.exp(1j * np.asarray([phase for _, phase in entries]))
        return self._synthesize(
            tags, phases, response_t0, overheard_from=origin, rng=rng
        )

    def _synthesize(
        self,
        tags: list[MovingTag],
        phases: np.ndarray | None,
        response_t0: float,
        overheard_from: str | None = None,
        rng=None,
    ) -> ReceivedCollision:
        """Superpose the tags' precomputed rows under per-query gains.

        ``phases`` carries each response's oscillator phase; None draws
        fresh ones (an own-query trigger) — after the gain rebuild, so
        the rng draw order matches the original single-pole path exactly.
        """
        m = len(tags)
        rows = []
        gains = np.zeros((self.n_antennas, m), dtype=np.complex128)
        templates = []
        for i, tag in enumerate(tags):
            mixed, template = self.bank.row(tag.transponder)
            rows.append(mixed)
            templates.append(template)
            position = tag.position(response_t0)
            tag.transponder.position_m = position
            for a, rx in enumerate(self.antenna_positions_m):
                gains[a, i] = (
                    self.channel.coefficient(position, rx)
                    * tag.transponder.tx_amplitude
                )
        if phases is None:
            phases = np.exp(1j * self.rng.uniform(0.0, 2.0 * np.pi, size=m))
        weights = gains * phases[None, :]
        clean = weights @ np.asarray(rows)
        truth = [
            TruthEntry(
                response=TagResponse(
                    transponder=tag.transponder,
                    bits=template.bits,
                    baseband=template.baseband,
                    t0_s=response_t0,
                    sample_rate_hz=self.bank.sample_rate_hz,
                    carrier_hz=template.carrier_hz,
                    phase0_rad=float(np.angle(phases[i])),
                ),
                channels=weights[:, i].copy(),
            )
            for i, (tag, template) in enumerate(zip(tags, templates))
        ]
        return self._package(clean, truth, response_t0, overheard_from, rng)

    def _package(
        self,
        clean: np.ndarray,
        truth: list[TruthEntry],
        response_t0: float,
        overheard_from: str | None = None,
        rng=None,
    ) -> ReceivedCollision:
        rng = self.rng if rng is None else rng
        waveforms = [
            Waveform(
                add_awgn(clean[a], self.noise_power_w, rng),
                self.bank.sample_rate_hz,
                response_t0,
            )
            for a in range(self.n_antennas)
        ]
        return ReceivedCollision(
            antennas=waveforms,
            lo_hz=self.bank.lo_hz,
            truth=truth,
            overheard_from=overheard_from,
        )
