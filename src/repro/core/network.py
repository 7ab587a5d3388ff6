"""A network of Caraoke readers feeding the city backend (§12.5).

One reader observes one approach; a *city* deployment is many readers
streaming measurements into shared services (§1: red-light enforcement,
parking billing, find-my-car). :class:`ReaderNetwork` drives
:class:`ReaderStation`\\ s through lock-step rounds over static
``query_fn`` streams (parked readers, hand-built scenes): count (§5),
resolve cached ids (§7), decode the rest in one batched
:class:`~repro.core.decoding.DecodeSession` (§12.4), localize (§6), and
fan the :class:`~repro.apps.services.TagObservation` records out to
every subscribed service. The per-pole tag state and the localizer loop
live in :mod:`repro.core.identity`, shared with the event-driven
:mod:`repro.sim.city` corridor. Stations never read simulation ground
truth: they consume collisions through ``query_fn`` like a live radio.

Example::

    network = ReaderNetwork()
    network.add_station(ReaderStation("pole-1", reader, sim.query,
                                      localizer=lane_localizer))
    finder = network.subscribe(CarFinder())
    network.step(timestamp_s=0.0)
    finder.locate(account_id)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .decoding import DecodeResult, validate_combining, validate_opportunistic
from .identity import FixHints, IdentityCache, locate_sightings, resolve_cached_ids
from .reader import ReaderReport

__all__ = ["ReaderStation", "StationReport", "ReaderNetwork"]


@dataclass
class ReaderStation:
    """One pole of the network: reader + collision stream + localizer.

    Attributes:
        name: stable identifier (used in reports and examples).
        reader: the processing chain for this pole.
        query_fn: ``query_fn(t_s) -> ReceivedCollision`` — the pole's
            radio front-end (e.g. ``StaticCollisionSimulator.query``).
        combining: decode policy — ``"mrc"`` (default: maximum-ratio
            across every antenna) or ``"single"`` (one-antenna ablation).
        opportunistic: overheard-capture policy for the station's decode
            sessions — ``"accept"`` (default) combines captures donated
            by a shared-medium layer (e.g. the city corridor's response
            pool) as free evidence; ``"ignore"`` drops them (ablation).
        localizer: object with ``locate(estimate, estimator, hint_xy=None)
            -> (x, y)`` — typically a
            :class:`~repro.core.localization.LaneProjectionLocalizer`;
            None disables positioning (and therefore observations).
        identities: per-station CFO -> account-id cache.
        fixes: each tag's last fix, hinting its next localization.
    """

    name: str
    reader: object
    query_fn: object
    combining: str = "mrc"
    opportunistic: str = "accept"
    localizer: object | None = None
    identities: IdentityCache = field(default_factory=IdentityCache)
    fixes: FixHints = field(default_factory=FixHints, init=False, repr=False)

    def __post_init__(self) -> None:
        validate_combining(self.combining)
        validate_opportunistic(self.opportunistic)


@dataclass
class StationReport:
    """Everything one station produced in one measurement round.

    Attributes:
        station: the station's name.
        timestamp_s: round timestamp.
        report: the count/AoA upload (§12.5).
        decode_results: fresh decodes this round, keyed by CFO — empty
            when every spike's id came from the identity cache.
        observations: positioned, identified sightings handed to services.
    """

    station: str
    timestamp_s: float
    report: ReaderReport
    decode_results: dict[float, DecodeResult] = field(default_factory=dict)
    observations: list = field(default_factory=list)

    @property
    def n_tags(self) -> int:
        return self.report.n_tags


class ReaderNetwork:
    """Batch-processes collision streams from many reader stations.

    Attributes:
        stations: the poles in the network.
        services: subscribers receiving every
            :class:`~repro.apps.services.TagObservation` (any object with
            an ``observe(observation)`` method — the §1 services qualify).
        max_queries: decode budget per identification burst.
        decode: disable to run count/localize-only rounds (no air time
            spent on repeated queries).
    """

    def __init__(self, max_queries: int = 64, decode: bool = True):
        self.stations: list[ReaderStation] = []
        self.services: list[object] = []
        self.max_queries = int(max_queries)
        self.decode = bool(decode)

    def add_station(self, station: ReaderStation) -> ReaderStation:
        """Register a station; returns it for chaining."""
        self.stations.append(station)
        return station

    def subscribe(self, service: object) -> object:
        """Fan observations into ``service.observe``; returns the service."""
        self.services.append(service)
        return service

    # -- processing ---------------------------------------------------------------

    def step(self, timestamp_s: float) -> list[StationReport]:
        """Run one measurement round at every station and dispatch."""
        reports = [
            self.process_station(station, timestamp_s) for station in self.stations
        ]
        for report in reports:
            self.dispatch(report.observations)
        return reports

    def run(self, timestamps_s: list[float]) -> list[StationReport]:
        """Run a round per timestamp; returns all station reports."""
        reports: list[StationReport] = []
        for t in timestamps_s:
            reports.extend(self.step(float(t)))
        return reports

    def process_station(
        self, station: ReaderStation, timestamp_s: float
    ) -> StationReport:
        """One station, one round: count, identify, localize.

        The counting capture doubles as the decode session's first
        capture, so identification adds air time only beyond the
        measurement query itself (§12.4).
        """
        collision = station.query_fn(timestamp_s)
        report = station.reader.observe(collision, timestamp_s=timestamp_s)
        cfos = [float(c) for c in report.count.cfos_hz()]
        ids, unknown = resolve_cached_ids(station.identities, cfos, now_s=timestamp_s)

        decode_results: dict[float, DecodeResult] = {}
        if unknown and self.decode:
            session = station.reader.decode_session(
                lambda t: station.query_fn(timestamp_s + t),
                combining=station.combining,
                opportunistic=station.opportunistic,
            )
            # Reuse the measurement capture as the first decode capture
            # (the whole collision: MRC combines every antenna of it).
            session.seed_capture(collision)
            decode_results = session.decode_all(unknown, max_queries=self.max_queries)
            for cfo, result in decode_results.items():
                if result.success:
                    ids[cfo] = result.packet.tag_id
                    station.identities.store(cfo, result.packet.tag_id, now_s=timestamp_s)

        observations = locate_sightings(
            station, report, ids, timestamp_s, decode_results
        )
        return StationReport(
            station=station.name,
            timestamp_s=timestamp_s,
            report=report,
            decode_results=decode_results,
            observations=observations,
        )

    def dispatch(self, observations: list) -> None:
        """Hand every observation to every subscribed service."""
        for observation in observations:
            for service in self.services:
                service.observe(observation)
