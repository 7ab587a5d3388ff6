"""What a pole knows about the tags it has seen (§6, §7).

Both station engines — the round-based
:class:`~repro.core.network.ReaderNetwork` and the event-driven
:class:`~repro.sim.city.corridor.CityCorridor` — run this code:

* :class:`IdentityCache` / :func:`resolve_cached_ids` — reuse the stable
  CFO fingerprint of a tag decoded earlier (§7), so a known tag is not
  re-decoded every round. The corridor forwards entries between poles,
  the mesh pushes them ahead of predicted arrivals, and the city-wide
  :class:`~repro.sim.city.directory.IdentityDirectory` composes one.
* :class:`FixHints` — each tag's last fix, hinting its next one.
* :func:`locate_sightings` — the one localizer loop (§6).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from ..errors import CaraokeError

__all__ = [
    "FIX_HINT_HORIZON_S",
    "FixHints",
    "IdentityCache",
    "locate_sightings",
    "resolve_cached_ids",
]

#: Last-fix hints older than this are neither used (a car returning
#: hours later is re-localized from its measurement alone, not pulled
#: toward where it parked last time) nor kept (the table stays bounded
#: by the recently active population).
FIX_HINT_HORIZON_S = 300.0


@dataclass
class IdentityCache:
    """Resolves CFO spikes to account ids decoded earlier (§7).

    A tag's CFO is its short-term fingerprint: stable over minutes, far
    apart between tags relative to the FFT resolution. Once a spike has
    been decoded, later sightings within ``tolerance_hz`` reuse the id —
    and each hit refreshes the stored CFO so slow oscillator drift is
    tracked instead of aged out.

    The table is bounded two ways: ``max_entries`` caps its size with
    least-recently-seen eviction (a city-scale stream sees every passing
    car once; an unbounded table would grow forever), and ``max_age_s``
    ages out entries not sighted recently (a stale fingerprint is also a
    mis-attribution hazard, see below). Both are off by default so small
    deployments keep the decode-once behavior indefinitely.

    Limitation: the fingerprint is not cryptographic. If tag A leaves
    and an unrelated tag B with a CFO within ``tolerance_hz`` of A's
    arrives before A's entry ages out, B's first sighting is attributed
    to A. :func:`resolve_cached_ids` guards the in-round version of this
    (two simultaneous spikes can never share one cached id), but
    billing-grade pipelines should re-decode periodically.

    Attributes:
        tolerance_hz: maximum spike movement between sightings.
        max_entries: size bound; storing beyond it evicts the entry with
            the oldest last-seen time. None = unbounded.
        max_age_s: entries unseen for longer than this are dropped by
            :meth:`prune` (and by any ``lookup``/``store`` given a
            ``now_s``). None = no aging.
    """

    tolerance_hz: float = 3000.0
    max_entries: int | None = None
    max_age_s: float | None = None
    _cfos_by_id: dict[int, float] = field(default_factory=dict)
    _last_seen_s: dict[int, float] = field(default_factory=dict, repr=False)
    _sorted_cfos: list[float] = field(default_factory=list, repr=False)
    _sorted_ids: list[int] = field(default_factory=list, repr=False)
    _dirty: bool = field(default=False, repr=False)

    def _reindex(self) -> None:
        if self._dirty or len(self._sorted_cfos) != len(self._cfos_by_id):
            pairs = sorted((cfo, tag_id) for tag_id, cfo in self._cfos_by_id.items())
            self._sorted_cfos = [cfo for cfo, _ in pairs]
            self._sorted_ids = [tag_id for _, tag_id in pairs]
            self._dirty = False

    def lookup(
        self,
        cfo_hz: float,
        now_s: float | None = None,
        exclude=frozenset(),
    ) -> int | None:
        """The nearest cached account id not in ``exclude``, or None.

        Binary search over a lazily rebuilt sorted index, expanding
        outward from the insertion point in distance order — O(log n +
        skipped) per spike instead of a scan of every account the
        station ever decoded. Passing ``now_s`` first ages out stale
        entries (no-op unless ``max_age_s`` is set), so an expired
        fingerprint can never claim a fresh spike. ``exclude`` lets a
        caller resolving several simultaneous spikes skip accounts a
        nearer spike already claimed.
        """
        if now_s is not None:
            self.prune(now_s)
        if not self._cfos_by_id:
            return None
        self._reindex()
        cfos, ids = self._sorted_cfos, self._sorted_ids
        left = bisect.bisect_left(cfos, cfo_hz) - 1
        right = left + 1
        while left >= 0 or right < len(cfos):
            left_delta = cfo_hz - cfos[left] if left >= 0 else float("inf")
            right_delta = cfos[right] - cfo_hz if right < len(cfos) else float("inf")
            if right_delta <= left_delta:
                delta, candidate = right_delta, ids[right]
                right += 1
            else:
                delta, candidate = left_delta, ids[left]
                left -= 1
            if delta > self.tolerance_hz:
                return None
            if candidate not in exclude:
                return candidate
        return None

    def store(self, cfo_hz: float, tag_id: int, now_s: float = 0.0) -> list[int]:
        """Record (or refresh) a decoded spike at time ``now_s``.

        Exceeding ``max_entries`` evicts least-recently-seen entries
        (ties broken by id, for determinism) until the bound holds.
        Returns the evicted account ids (usually empty) so layered
        services keeping per-account state alongside the fingerprint
        index — e.g. the city mesh's
        :class:`~repro.sim.city.directory.IdentityDirectory` sighting
        trails — can drop theirs in the same step and stay consistent.
        """
        self._cfos_by_id[tag_id] = float(cfo_hz)
        self._last_seen_s[tag_id] = max(
            float(now_s), self._last_seen_s.get(tag_id, float("-inf"))
        )
        self._dirty = True
        evicted: list[int] = []
        if self.max_entries is not None:
            while len(self._cfos_by_id) > max(1, int(self.max_entries)):
                victim = min(
                    (t for t in self._cfos_by_id if t != tag_id),
                    key=lambda t: (self._last_seen_s.get(t, float("-inf")), t),
                )
                self.evict(victim)
                evicted.append(victim)
        return evicted

    def evict(self, tag_id: int) -> bool:
        """Forget one account's fingerprint; returns whether it existed."""
        if tag_id not in self._cfos_by_id:
            return False
        del self._cfos_by_id[tag_id]
        self._last_seen_s.pop(tag_id, None)
        self._dirty = True
        return True

    def prune(self, now_s: float) -> int:
        """Age out entries unseen since ``now_s - max_age_s``; returns count."""
        return len(self.prune_ids(now_s))

    def prune_ids(self, now_s: float) -> list[int]:
        """Like :meth:`prune`, but returns *which* accounts aged out
        (sorted), for callers keeping per-account state alongside."""
        if self.max_age_s is None:
            return []
        stale = sorted(
            tag_id
            for tag_id, seen_s in self._last_seen_s.items()
            if now_s - seen_s > self.max_age_s
        )
        for tag_id in stale:
            self.evict(tag_id)
        return stale

    def cached_cfo(self, tag_id: int) -> float | None:
        """The stored fingerprint for an account, if any."""
        return self._cfos_by_id.get(tag_id)

    def last_seen_s(self, tag_id: int) -> float | None:
        """When an account's fingerprint was last refreshed, if cached."""
        if tag_id not in self._cfos_by_id:
            return None
        return self._last_seen_s.get(tag_id)

    def ids(self) -> list[int]:
        """Every cached account id, sorted (a stable audit order)."""
        return sorted(self._cfos_by_id)

    def __contains__(self, tag_id: int) -> bool:
        return tag_id in self._cfos_by_id

    def __len__(self) -> int:
        return len(self._cfos_by_id)


def resolve_cached_ids(
    cache: IdentityCache, cfos: list[float], now_s: float | None = None
) -> tuple[dict[float, int], list[float]]:
    """Resolve spikes against an :class:`IdentityCache`, one-to-one.

    Each cached account may claim at most one spike per round (its
    nearest); a second spike within tolerance is a *different* tag and
    must be decoded, not silently attributed to the cached account. A
    spike that loses an account to a nearer rival is re-matched against
    the remaining accounts (its true owner may simply be second-nearest)
    before being declared unknown. Claimed spikes refresh the winning
    account's fingerprint.

    Returns:
        ``(ids, unknown)`` — resolved ``{cfo: tag_id}`` plus the spikes
        no cached account could claim, in first-seen order.
    """
    spikes = [float(cfo) for cfo in cfos]
    owner: dict[int, int] = {}  # tag_id -> index of its winning spike
    exclusions: dict[int, set[int]] = {}  # spike index -> lost accounts
    unresolved: set[int] = set()
    queue = list(range(len(spikes)))
    while queue:
        index = queue.pop(0)
        tag_id = cache.lookup(
            spikes[index],
            now_s=now_s,
            exclude=exclusions.get(index, frozenset()),
        )
        if tag_id is None:
            unresolved.add(index)
            continue
        rival = owner.get(tag_id)
        if rival is None:
            owner[tag_id] = index
            continue
        cached = cache.cached_cfo(tag_id)
        if abs(spikes[index] - cached) < abs(spikes[rival] - cached):
            owner[tag_id] = index
            loser = rival
        else:
            loser = index
        # The loser may still match another account; re-queue it with
        # this one struck off (the set growth bounds the loop).
        exclusions.setdefault(loser, set()).add(tag_id)
        queue.append(loser)
    ids: dict[float, int] = {}
    for tag_id, index in owner.items():
        ids[spikes[index]] = tag_id
        cache.store(spikes[index], tag_id, now_s=0.0 if now_s is None else now_s)
    return ids, [spikes[i] for i in sorted(unresolved)]


def _decode_aoa(station, decode_results: dict | None, cfo: float):
    """AoA minted from decode-time channel evidence, if any.

    A CFO the measurement pass produced no AoA for (e.g. it was detected
    only once decoding sharpened it) can still be localized: the decode
    result's per-antenna channel evidence carries the Eq 10 phase
    differences for free. Returns None when the evidence is missing,
    single-antenna, or degenerate.
    """
    if not decode_results:
        return None
    result = decode_results.get(cfo)
    if result is None or result.n_antennas < 3:
        return None
    try:
        return station.reader.estimator.estimate_from_channels(
            result.cfo_hz, result.channels
        )
    except CaraokeError:
        return None


class FixHints:
    """Each tag's last fix at one pole, for hinting its next fix.

    Bounded by :data:`FIX_HINT_HORIZON_S`: :meth:`recall` ignores a fix
    older than the horizon and :meth:`prune` forgets it.
    """

    def __init__(self) -> None:
        self._fixes: dict[int, tuple[np.ndarray, float]] = {}

    def recall(self, tag_id: int, now_s: float) -> np.ndarray | None:
        """The tag's last fix, if recent enough to serve as a hint."""
        entry = self._fixes.get(tag_id)
        if entry is None or now_s - entry[1] > FIX_HINT_HORIZON_S:
            return None
        return entry[0]

    def record(self, tag_id: int, fix: np.ndarray, now_s: float) -> None:
        """Remember a fix for hinting the tag's next localization."""
        self._fixes[tag_id] = (np.asarray(fix, dtype=np.float64), now_s)

    def prune(self, now_s: float) -> int:
        """Forget fixes past the horizon; returns how many."""
        stale = [
            tag_id
            for tag_id, (_, seen_s) in self._fixes.items()
            if now_s - seen_s > FIX_HINT_HORIZON_S
        ]
        for tag_id in stale:
            del self._fixes[tag_id]
        return len(stale)

    def fixed_at(self, tag_id: int) -> float | None:
        """When the tag's kept fix was taken, if one is kept."""
        entry = self._fixes.get(tag_id)
        return None if entry is None else entry[1]

    def __len__(self) -> int:
        return len(self._fixes)


def locate_sightings(
    station,
    report,
    ids: dict[float, int],
    t_s: float,
    decode_results: dict | None = None,
    cell: str | None = None,
) -> list:
    """Localize one round's identified spikes at one pole (§6).

    ``station`` carries ``name``, ``reader``, ``localizer`` (None
    disables positioning) and ``fixes`` (its :class:`FixHints`, pruned
    here first). Each identified CFO is paired with the round's AoA —
    or, when the measurement pass produced none, with the decode
    result's channel evidence — and projected onto the road, hinted by
    the tag's last fix. Returns the
    :class:`~repro.apps.services.TagObservation` list in CFO order.
    """
    station.fixes.prune(t_s)
    if station.localizer is None or not ids:
        return []
    # Deferred: repro.apps pulls in repro.sim, whose medium module needs
    # repro.core (this package) for the MAC — importing apps here at
    # module scope would close that cycle during package init.
    from ..apps.services import TagObservation

    estimates = {estimate.cfo_hz: estimate for estimate in report.aoas}
    observations = []
    for cfo, tag_id in sorted(ids.items()):
        estimate = estimates.get(cfo)
        if estimate is None:
            estimate = _decode_aoa(station, decode_results, cfo)
        # End-fire measurements are unusable (§6: d(alpha)/d(phase)
        # blows up outside the 60-120 degree band); another station
        # with better geometry will cover the tag instead.
        if estimate is None or not estimate.in_usable_band():
            continue
        try:
            fix = station.localizer.locate(
                estimate,
                station.reader.estimator,
                hint_xy=station.fixes.recall(tag_id, t_s),
            )
        except CaraokeError:
            continue
        station.fixes.record(tag_id, fix, t_s)
        observations.append(
            TagObservation(
                tag_id=tag_id,
                position_m=fix,
                timestamp_s=t_s,
                station=station.name,
                cell=cell,
            )
        )
    return observations
