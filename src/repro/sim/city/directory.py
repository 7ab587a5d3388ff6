"""The city-wide identity directory: fingerprints above per-pole caches.

A single :class:`~repro.core.identity.IdentityCache` answers "has *this
pole* seen this CFO fingerprint?"; corridor handoff extends the answer
one pole up- or downstream. A city is bigger than either: §1's services
assume a sighting anywhere in the deployment can be tied back to an
account decoded anywhere else, and a mesh of corridors needs exactly
that at every intersection — the pole a car meets after a turn shares no
neighbor link with the pole that identified it two streets ago.

:class:`IdentityDirectory` is that backend service. Every resolved
sighting in the deployment is *reported* to it (station, corridor,
along-city coordinate, timestamp), and it maintains:

* a **bounded, aging fingerprint index** — one city-wide CFO -> account
  table (an :class:`~repro.core.identity.IdentityCache` with LRU
  ``max_entries`` and ``max_age_s``, both mandatory here: a city stream
  sees every registered car, and a stale fingerprint is a
  mis-attribution hazard at city scale exactly as it is per pole);
* a **sighting trail** per account — the last few (station, corridor,
  x, t) fixes, the raw material for cross-pole speed estimates;
* a **§7 speed estimate** per account, via the embedded
  :class:`~repro.core.speed.CrossPoleSpeedTracker` — the predictive
  push trigger :class:`~repro.sim.city.mesh.CityMesh` uses to plant
  cache entries ahead of arrival.

Consistency: trails and speed anchors are dropped in the same step as
their fingerprint-index entry (eviction and aging return *which*
accounts fell out), so interleaved updates from many corridors — the
discrete-event equivalent of concurrent writers — can never leave a
trail for an account the index no longer knows.

The directory is an audit and prediction service, not an on-air actor:
it spends no queries and appears on no air log. Whether its knowledge
shortens identification is a *policy* of the layer above — the mesh's
``handoff="push"`` uses it to push entries ahead of cars,
``handoff="pull"`` ignores it (today's pull-at-sighting baseline) while
still reporting sightings for audit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...core.identity import IdentityCache
from ...core.speed import CrossPoleSpeedTracker, SpeedEstimate, SpeedObservation
from ...errors import ConfigurationError

__all__ = ["SightingFix", "IdentityDirectory"]

#: How many fixes each account's trail retains (newest last). Two are
#: enough for a speed estimate; a couple more make the trail a useful
#: audit of the car's path through the mesh.
TRAIL_LENGTH = 4


@dataclass(frozen=True)
class SightingFix:
    """One reported sighting: where and when the city saw an account."""

    station: str
    corridor: str
    x_m: float
    t_s: float


class IdentityDirectory:
    """Bounded, aging city-wide fingerprint -> account resolution.

    Attributes:
        tolerance_hz: maximum fingerprint drift between sightings
            (matches the per-pole cache semantics).
        max_entries: LRU bound on tracked accounts. Mandatory — the
            directory exists for deployments too large for "keep
            everything".
        max_age_s: accounts unseen for longer are aged out (with their
            trails and speed anchors). Mandatory, same reason.
        obs: nullable observability hook (see :mod:`repro.obs`):
            mirrors reports, resolve hits/misses and evictions into the
            metrics registry. Never affects resolution.
    """

    def __init__(
        self,
        tolerance_hz: float = 3000.0,
        max_entries: int = 4096,
        max_age_s: float = 600.0,
        obs=None,
    ) -> None:
        if max_entries is None or max_age_s is None:
            raise ConfigurationError(
                "the directory is a city-scale service: max_entries and "
                "max_age_s must both be bounds, not None"
            )
        self._index = IdentityCache(
            tolerance_hz=tolerance_hz,
            max_entries=int(max_entries),
            max_age_s=float(max_age_s),
        )
        self._trails: dict[int, list[SightingFix]] = {}
        self._speed = CrossPoleSpeedTracker(max_entries=None)
        # Aging on the hot report path is batched: a full sweep costs
        # O(accounts), and nothing can expire sooner than an eighth of
        # the age bound after the previous sweep. resolve() still
        # prunes exactly, so an expired fingerprint never claims a
        # spike.
        self._prune_interval_s = float(max_age_s) / 8.0
        self._next_prune_s = float("-inf")
        # The last-reported clock: the latest timestamp any writer or
        # reader has shown the directory. Aging always consults it, so a
        # resolve arriving with a skewed (stale) clock can never
        # resurrect a fingerprint a fresher report already expired.
        self._clock_s = float("-inf")
        # Tombstones for evicted accounts: tag -> directory clock at
        # eviction. A batched backhaul can deliver a report *emitted*
        # before an eviction long after it; the tombstone rejects such
        # late deltas so an aged-out entry is never resurrected by
        # history. Pruned alongside the index (a tombstone older than
        # max_age_s can no longer out-date any applicable delta).
        self._tombstones: dict[int, float] = {}
        self.reports = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Batched-delivery deltas rejected because the entry was
        #: evicted (tombstone) or already aged past ``max_age_s`` on
        #: arrival. Zero on any wired (immediate-delivery) stream.
        self.late_drops = 0
        #: Deltas rejected because a fresher fix for the same account
        #: had already been applied (a reordered batch must not steal
        #: the fingerprint back). Zero on any wired stream.
        self.stale_drops = 0
        self.obs = obs

    # -- writing ---------------------------------------------------------------

    def report(
        self,
        tag_id: int,
        cfo_hz: float,
        station: str,
        corridor: str,
        x_m: float,
        t_s: float,
        localized: bool = True,
        delivered_s: float | None = None,
    ) -> SpeedEstimate | None:
        """Record one resolved sighting; returns a fresh §7 speed
        estimate when this fix pairs cross-pole with the previous one.

        Refreshes the fingerprint index (store + LRU + batched aging),
        appends to the account's trail (bounded to the last
        ``TRAIL_LENGTH`` fixes), and — for *localized* sightings only —
        feeds the speed tracker. §7 runs on repeated localization:
        ``localized=False`` marks ``x_m`` as a coarse stand-in (e.g.
        the pole's own position when the round produced no §6 fix),
        good enough for the audit trail but poison for a speed ratio,
        so it never reaches the estimator. The corridor names the
        tracker's coordinate *frame*: fixes from different corridors
        rebase instead of pairing (their layout offset is not road the
        car drove). Any accounts the store or the aging pass evicts
        lose their trail and speed anchor in the same step — the
        consistency contract interleaved corridor updates rely on.

        ``delivered_s`` marks a *batched* delivery over an intermittent
        backhaul (see :mod:`repro.sim.city.backhaul`): the sighting was
        emitted at ``t_s`` but only reaches the directory now. Delivery
        time drives the clock, aging and LRU freshness; the emit time
        anchors the trail and speed estimate. Three guards protect the
        index from out-of-order history — a delta emitted before the
        account's eviction tombstone, or older than the freshest
        applied fix, or already past ``max_age_s`` on arrival, is
        dropped (counted in ``late_drops``/``stale_drops``) and returns
        None. None of them can fire on an immediate-delivery stream.
        """
        now_s = float(t_s) if delivered_s is None else float(delivered_s)
        self.reports += 1
        if self.obs is not None:
            self.obs.count("directory.report", station=station, corridor=corridor)
        self._clock_s = max(self._clock_s, now_s)
        if now_s >= self._next_prune_s:
            self._drop(self._index.prune_ids(self._clock_s))
            self._next_prune_s = now_s + self._prune_interval_s
            self._prune_tombstones()
        t_s = float(t_s)
        if delivered_s is not None:
            if now_s - t_s > self._index.max_age_s:
                self.late_drops += 1
                if self.obs is not None:
                    self.obs.count("directory.delta_drop", kind="aged")
                return None
            tomb_s = self._tombstones.get(tag_id)
            if tomb_s is not None and t_s < tomb_s:
                self.late_drops += 1
                if self.obs is not None:
                    self.obs.count("directory.delta_drop", kind="late")
                return None
            trail = self._trails.get(tag_id)
            if trail and t_s < trail[-1].t_s:
                self.stale_drops += 1
                if self.obs is not None:
                    self.obs.count("directory.delta_drop", kind="stale")
                return None
        self._tombstones.pop(tag_id, None)
        self._drop(self._index.store(cfo_hz, tag_id, now_s=now_s))
        fix = SightingFix(station, corridor, float(x_m), t_s)
        trail = self._trails.setdefault(tag_id, [])
        trail.append(fix)
        del trail[:-TRAIL_LENGTH]
        if not localized:
            return None
        return self._speed.observe(
            tag_id,
            SpeedObservation(
                position_m=(fix.x_m, 0.0),
                timestamp_s=fix.t_s,
                station=fix.station,
                frame=fix.corridor,
            ),
        )

    def apply_delta(
        self,
        tag_id: int,
        cfo_hz: float,
        station: str,
        corridor: str,
        x_m: float,
        t_s: float,
        localized: bool = True,
        delivered_s: float | None = None,
    ) -> SpeedEstimate | None:
        """Apply one backhaul-delivered sighting delta: a
        :meth:`report` emitted at ``t_s`` that reaches the directory at
        ``delivered_s``. The explicit entry point the
        :class:`~repro.sim.city.backhaul.BackhaulPlane` uses for
        batched deliveries; see :meth:`report` for the late/stale
        guard semantics."""
        return self.report(
            tag_id, cfo_hz, station, corridor, x_m, t_s,
            localized=localized, delivered_s=delivered_s,
        )

    def _drop(self, tag_ids: list[int]) -> None:
        for tag_id in tag_ids:
            self._trails.pop(tag_id, None)
            self._speed.forget(tag_id)
            self._tombstones[tag_id] = self._clock_s
            self.evictions += 1
        if self.obs is not None and tag_ids:
            self.obs.count("directory.eviction", n=len(tag_ids))

    def _prune_tombstones(self) -> None:
        # A tombstone more than max_age_s behind the clock can no
        # longer out-date any delta the age guard would admit.
        horizon_s = self._clock_s - self._index.max_age_s
        stale = [t for t, ts in self._tombstones.items() if ts < horizon_s]
        for tag_id in stale:
            del self._tombstones[tag_id]

    def prune(self, now_s: float) -> int:
        """Age out stale accounts (index, trails and speed anchors
        together); returns how many fell out."""
        stale = self._index.prune_ids(now_s)
        self._drop(stale)
        return len(stale)

    # -- reading ---------------------------------------------------------------

    def resolve(self, cfo_hz: float, now_s: float) -> int | None:
        """City-wide fingerprint resolution: nearest account within
        tolerance, or None.

        ``now_s`` is mandatory — resolution without a clock silently
        skipped aging, letting an expired fingerprint claim a fresh
        spike (exactly the mis-attribution the bounds exist to prevent).
        Aging runs against ``max(now_s, last-reported clock)`` so a
        reader with a skewed clock cannot resurrect an entry a fresher
        report already expired, and it runs *exactly* for the candidate
        match: the amortized full sweep stays on its batched schedule
        (O(accounts) is too dear per lookup at city scale), but any
        candidate the index nominates has its own age checked — and is
        evicted, with its trail and speed anchor — before it may claim
        the spike. The next-nearest live fingerprint is then considered,
        so one dead neighbor never shadows a valid match.
        """
        now = max(float(now_s), self._clock_s)
        self._clock_s = now
        if now >= self._next_prune_s:
            self._drop(self._index.prune_ids(now))
            self._next_prune_s = now + self._prune_interval_s
        max_age_s = self._index.max_age_s
        while True:
            tag_id = self._index.lookup(cfo_hz)
            if tag_id is None:
                break
            seen_s = self._index.last_seen_s(tag_id)
            if seen_s is not None and now - seen_s > max_age_s:
                self._index.evict(tag_id)
                self._drop([tag_id])
                continue
            break
        if tag_id is None:
            self.misses += 1
        else:
            self.hits += 1
        if self.obs is not None:
            self.obs.count(
                "directory.resolve", outcome="miss" if tag_id is None else "hit"
            )
        return tag_id

    def trail(self, tag_id: int) -> list[SightingFix]:
        """The account's recent fixes, oldest first (empty if unknown)."""
        return list(self._trails.get(tag_id, []))

    def last_fix(self, tag_id: int) -> SightingFix | None:
        trail = self._trails.get(tag_id)
        return trail[-1] if trail else None

    def speed_estimate(self, tag_id: int) -> SpeedEstimate | None:
        """The account's latest §7 cross-pole speed estimate, if its
        trail has produced one."""
        return self._speed.latest(tag_id)

    def cached_cfo(self, tag_id: int) -> float | None:
        return self._index.cached_cfo(tag_id)

    def ids(self) -> list[int]:
        """Every known account id, sorted."""
        return self._index.ids()

    def __contains__(self, tag_id: int) -> bool:
        return tag_id in self._index

    def __len__(self) -> int:
        return len(self._index)

    def check_consistent(self) -> None:
        """Assert the trail/speed side matches the fingerprint index.

        Cheap invariant sweep for tests and debugging: every trail (and
        speed anchor) belongs to an account the index still knows.
        Raises :class:`~repro.errors.ConfigurationError` on violation.
        """
        known = set(self._index.ids())
        orphans = sorted(set(self._trails) - known)
        if orphans:
            raise ConfigurationError(f"trails without index entries: {orphans}")
        anchors = sorted(set(self._speed.tracked()) - known)
        if anchors:
            raise ConfigurationError(f"speed anchors without index entries: {anchors}")

    def summary(self) -> dict:
        """Headline numbers, JSON-friendly."""
        return {
            "accounts": len(self),
            "reports": self.reports,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
