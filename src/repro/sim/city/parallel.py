"""Sharded mesh execution: interference-closed edge groups in workers.

:class:`~repro.sim.city.mesh.CityMesh` runs every corridor on one
shared :class:`~repro.sim.events.EventScheduler`. That is the reference
semantics, but it serializes the whole city onto one core. This module
scales the hot path out by exploiting two structural facts the mesh
already guarantees:

* **The ether partitions.** Mesh layout enforces
  ``frame_gap_m > interference_range_m + 2 * READER_RANGE_M``, so
  carrier sensing, corruption and overhearing — all gated by
  along-city distance — can never couple two edges.
  :func:`interference_groups` recovers the partition from the scene
  geometry (it does not assume it): edges whose frames come within
  radio reach of each other land in one group and must share a shard.
* **Car motion is radio-free.** A routed car's every entry/exit time
  depends only on its draw (route, speed, lane), the intersection
  signals, and the release headway — never on what the readers decoded.
  The mesh therefore computes the complete itinerary up front
  (:meth:`CityMesh._plan_itinerary`, the one place car motion lives)
  and *both* engines schedule its admissions: the serial engine on its
  one timeline, each shard the admissions onto its own edges.

What cannot be sharded exactly is the *coupling that remains*: the
city-wide :class:`~repro.sim.city.directory.IdentityDirectory` (bounded
and aging — eviction couples tags globally) and the predictive push
handoff (a sighting on one edge plants a cache entry on another). Both
run on the coordinator at **rendezvous barriers**: simulation advances
in fixed sync quanta; at each barrier every shard surrenders the
sightings of its quantum, and the coordinator reports them — through
the same sighting route, push decision and backhaul plane the serial
engine uses — into the one true directory in canonical order,
``(t_s, group, arrival index)``. The resulting push intents go to the
target shards for the next quantum, where the mesh's one push planter
plants them. A push therefore lands up to one quantum later than in
the serial mesh (the quantum is chosen well below the seconds a car
needs to reach the next pole, so in practice the entry is still
planted ahead of arrival).

**The determinism contract** (see ``docs/PERFORMANCE.md``): both
engines drive the same itinerary, so car counters and cell crossings
agree exactly. The radio does not: the serial mesh shares one RNG
stream across every corridor, interleaved in global event order, and a
sharded run cannot reproduce that interleaving — so ``run_sharded`` is
*not* bit-identical to :meth:`CityMesh.run` (whose output is
golden-pinned). What it *is* is **worker-count invariant**: every
worker count — and the in-process debug mode — executes the identical
per-group protocol (per-edge RNG streams seeded from ``mesh.rng`` in
sorted edge order, identical quanta, identical barrier replay), so
``workers=1``, ``workers=2`` and ``workers=8`` produce bit-for-bit the
same merged ledger, directory, metrics snapshot and
:meth:`MeshResult.summary`.

Merged results are canonical, not concatenated: sighting records from
all shards are replayed into one fresh
:class:`~repro.sim.city.handoff.HandoffLedger` in global time order so
``decode`` vs ``redecode`` is re-classified with *city-wide* knowledge
(a shard alone cannot know a tag was first decoded two corridors away);
per-group metrics registries merge in sorted group order.

This module owns what is left: the partition, the barrier protocol
and the merge. It is the **only** place in ``src/`` allowed to import
``multiprocessing`` (the ``parallel-policy`` analyzer enforces it).
Workers are forked, so shard objects cross by memory inheritance and
only plain tuples (reports, push intents) and the final per-group
payloads travel the pipes. A worker that fails or dies surfaces as a
:class:`ShardWorkerError` naming its groups, and every worker is reaped.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import traceback
from dataclasses import dataclass, field

import numpy as np

from ...constants import READER_RANGE_M
from ...errors import ConfigurationError, SimulationError
from ..events import EventScheduler
from ..medium import AirLog
from .handoff import HandoffLedger
from .mesh import CityMesh, MeshResult, _plant_push, _schedule_admissions
from .pool import ResponsePool

__all__ = [
    "interference_groups",
    "run_sharded",
    "ShardedMeshResult",
    "ShardWorkerError",
]

#: Default rendezvous quantum: directory replay and push delivery happen
#: at this cadence. Well below the seconds a car needs between poles
#: (~40 m at city speeds), so a one-quantum push delay still plants the
#: entry ahead of arrival; identical for every worker count by
#: construction, so it never breaks invariance — only fidelity to the
#: serial push timing.
DEFAULT_SYNC_QUANTUM_S = 0.25


# -- partitioning ----------------------------------------------------------


def interference_groups(mesh: CityMesh) -> list[list[str]]:
    """Partition edges into interference-closed groups, from geometry.

    Two edges couple when their road frames come within
    ``interference_range_m`` plus radio slack (``2 * READER_RANGE_M``,
    the same margin the mesh layout validator uses) of each other on
    the global city axis; groups are the connected components. With
    the standard mesh layout every group is a singleton — but the
    partition is *derived*, so a future layout that packs frames
    closer degrades to fewer, larger shards instead of silently
    wrong radio semantics.

    Returns groups as lists of edge names (mesh insertion order within
    a group), sorted by each group's first edge name.
    """
    names = list(mesh.edges)
    spans = [
        (mesh.edges[name].entry_x_m, mesh.edges[name].exit_x_m) for name in names
    ]
    reach = mesh.interference_range_m + 2.0 * READER_RANGE_M
    parent = list(range(len(names)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_x = sorted(range(len(names)), key=lambda i: spans[i][0])
    for a, b in zip(by_x, by_x[1:]):
        if spans[b][0] - spans[a][1] <= reach:
            parent[find(a)] = find(b)
    components: dict[int, list[str]] = {}
    for i, name in enumerate(names):
        components.setdefault(find(i), []).append(name)
    return sorted(components.values(), key=lambda group: group[0])


# -- shards ----------------------------------------------------------------


class _ShardGroup:
    """One interference-closed group: own scheduler, ether, and ledger.

    Built by the coordinator *before* forking, so workers inherit the
    fully-wired shard by memory. Rewires every member corridor off the
    mesh's shared services onto shard-local ones:

    * fresh :class:`AirLog` / :class:`ResponsePool` (radio locality is
      guaranteed by the partition, so local logs are semantically
      identical to slices of the shared one);
    * a fresh :class:`HandoffLedger` (globally re-classified at merge);
    * a per-edge RNG stream (one ``Generator`` shared by the corridor,
      its waveform bank and every station source — mirroring how the
      serial mesh shares one stream, just scoped to the edge);
    * an injected shard-local obs hook (minted by the caller's
      ``shard_obs_factory`` — the obs-policy contract forbids the
      library minting its own) whose registry merges into the
      coordinator's after the run; sim-time tracing is not supported
      in sharded runs;
    * an ``on_sighting`` hook that *buffers* instead of reporting —
      the directory lives with the coordinator.

    The group's share of the mesh's car itinerary is scheduled up front.
    """

    def __init__(
        self,
        mesh: CityMesh,
        edge_names: list[str],
        edge_seeds: dict[str, int],
        duration_s: float,
        admissions: list,
        obs=None,
    ) -> None:
        self.key = edge_names[0]
        self.edge_names = list(edge_names)
        self.interference_range_m = mesh.interference_range_m
        self.obs = obs
        self.ledger = HandoffLedger()
        self.air = AirLog(sense_slack_s=mesh.air.sense_slack_s, obs=self.obs)
        self.pool = ResponsePool(slack_s=mesh.pool.slack_s, obs=self.obs)
        self.scheduler = EventScheduler(obs=self.obs)
        self.outbox: list[tuple] = []
        self._stations: dict[str, object] = {}
        self._edges = {name: mesh.edges[name] for name in edge_names}
        for edge in self._edges.values():
            corridor = edge.corridor
            rng = np.random.default_rng(edge_seeds[edge.name])
            corridor.rng = rng
            corridor.air = self.air
            corridor.pool = self.pool
            corridor.ledger = self.ledger
            corridor.obs = self.obs
            corridor._station_obs = {
                s.name: None if self.obs is None else self.obs.labeled(station=s.name)
                for s in corridor.stations
            }
            corridor.on_sighting = self._buffer_sighting
            for station in corridor.stations:
                station.source.rng = rng
                station.source.bank.rng = rng
                if self.obs is not None:
                    station.mac.obs = corridor._station_obs[station.name]
                    station.reader.counter.obs = corridor._station_obs[station.name]
                self._stations[station.name] = station
            corridor.prime(self.scheduler, duration_s)
        _schedule_admissions(self.scheduler, admissions, self._edges)

    def _buffer_sighting(
        self,
        corridor,
        station,
        tag_id,
        cfo_hz,
        t_s,
        x_m,
        localized,
        kind="own",
        n_queries=0,
    ) -> None:
        # (t_s, edge, station, tag, cfo, x, localized, kind, n_queries,
        # arrival index) — the index is the canonical within-group
        # tie-breaker the coordinator sorts replays by.
        self.outbox.append(
            (
                float(t_s),
                corridor.name,
                station.name,
                int(tag_id),
                float(cfo_hz),
                float(x_m),
                bool(localized),
                str(kind),
                int(n_queries),
                len(self.outbox),
            )
        )

    def advance(self, t_s: float, intents: list[tuple]) -> list[tuple]:
        """One quantum: apply delivered pushes, run, surrender sightings."""
        self.apply_intents(intents)
        self.scheduler.run_until(t_s)
        reports, self.outbox = self.outbox, []
        return reports

    def apply_intents(self, intents: list[tuple]) -> None:
        """Plant coordinator-delivered ``(intent, now_s)`` pushes.

        The "already knows / already pushed" check of the shared
        planter runs *here*, against the live shard caches — the
        coordinator's copies are stale by up to a quantum.
        """
        for intent, now_s in intents:
            _plant_push(self._stations, intent, now_s, self.ledger, self.obs)

    def finish_payload(self) -> dict:
        """Everything the coordinator's merge needs, pickle-friendly."""
        return {
            "key": self.key,
            "edges": {name: e.corridor.finish() for name, e in self._edges.items()},
            "ledger": self.ledger,
            "pushed": {name: dict(s.pushed) for name, s in self._stations.items()},
            "responses": len(self.air.responses()),
            "corrupted": len(
                self.air.corrupted_responses(self.interference_range_m)
            ),
            "metrics": None if self.obs is None else self.obs.metrics,
            "events_processed": self.scheduler.processed,
        }


# -- workers ---------------------------------------------------------------


class ShardWorkerError(SimulationError):
    """A forked shard worker failed or died; names its groups' keys."""


def _dispatch(groups: list[_ShardGroup], msg: tuple) -> tuple:
    """Run one coordinator message against a host's groups; the reply."""
    if msg[0] == "advance":
        _, t_s, intents_by_group = msg
        reports = []
        for group in groups:
            out = group.advance(t_s, intents_by_group.get(group.key, []))
            reports.extend((group.key,) + r for r in out)
        return ("reports", reports)
    if msg[0] == "apply":
        for group in groups:
            group.apply_intents(msg[1].get(group.key, []))
        return ("ok",)
    if msg[0] == "finish":
        return ("result", [g.finish_payload() for g in groups])
    raise SimulationError(f"unknown shard message {msg[0]!r}")


def _worker_main(groups: list[_ShardGroup], conn) -> None:
    """Worker loop: lockstep with the coordinator over one pipe."""
    try:
        while True:
            msg = conn.recv()
            conn.send(_dispatch(groups, msg))
            if msg[0] == "finish":
                return
    except Exception:
        conn.send(("error", traceback.format_exc()))


class _ForkedHost:
    """N groups hosted in a forked process, driven over a pipe."""

    def __init__(self, ctx, groups: list[_ShardGroup]) -> None:
        self.groups = groups
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(groups, child), daemon=True
        )
        self.process.start()
        child.close()

    def _failed(self, what: str) -> ShardWorkerError:
        keys = ", ".join(g.key for g in self.groups)
        return ShardWorkerError(f"shard worker for groups [{keys}] {what}")

    def send(self, msg) -> None:
        try:
            self.conn.send(msg)
        except OSError:
            raise self._failed("is gone") from None

    def recv(self):
        try:
            reply = self.conn.recv()
        except (EOFError, OSError):
            self.process.join()
            raise self._failed(
                f"died (exit code {self.process.exitcode})"
            ) from None
        if reply[0] == "error":
            raise self._failed(f"failed:\n{reply[1]}")
        return reply

    def close(self, abort: bool = False) -> None:
        """Close the pipe and reap the worker. On ``abort`` (the run
        failed) a still-running worker is terminated: it would wait in
        ``recv`` forever, because its forked siblings hold copies of its
        pipe."""
        self.conn.close()
        if abort:
            self.process.terminate()
        self.process.join()


class _LocalHost:
    """The same protocol without a fork — debugging / no-fork platforms.

    Runs its groups inline in the coordinator process. Identical
    results by construction: shards are isolated objects and the
    message sequence is the same.
    """

    def __init__(self, groups: list[_ShardGroup]) -> None:
        self.groups = groups
        self._reply = None

    def send(self, msg) -> None:
        self._reply = _dispatch(self.groups, msg)

    def recv(self):
        reply, self._reply = self._reply, None
        return reply

    def close(self, abort: bool = False) -> None:
        pass


# -- the coordinator -------------------------------------------------------


@dataclass
class ShardedMeshResult(MeshResult):
    """A :class:`MeshResult` plus how the sharded run was shaped.

    ``summary()`` is inherited unchanged — worker-count invariance is
    asserted on it — so the engine shape rides alongside:
    ``events_processed`` (per group, a deterministic work proxy the
    bench scales by) and the partition itself.
    """

    workers: int = 1
    sync_quantum_s: float = DEFAULT_SYNC_QUANTUM_S
    groups: tuple = ()
    events_processed: dict = field(default_factory=dict)


def _quantum_boundaries(duration_s: float, quantum_s: float) -> list[float]:
    ts = []
    k = 1
    while k * quantum_s < duration_s - 1e-9:
        ts.append(k * quantum_s)
        k += 1
    ts.append(float(duration_s))
    return ts


def run_sharded(
    mesh: CityMesh,
    duration_s: float,
    *,
    workers: int = 2,
    sync_quantum_s: float = DEFAULT_SYNC_QUANTUM_S,
    in_process: bool = False,
    shard_obs_factory=None,
) -> ShardedMeshResult:
    """Run a built (un-run) mesh via interference-closed shard groups.

    Results are worker-count invariant (see the module docstring for
    the exact contract and what differs from the serial
    :meth:`CityMesh.run`). The mesh instance is consumed, exactly like
    a serial run — build a fresh mesh per run.

    Args:
        mesh: a fully built :class:`CityMesh` that has not run.
        duration_s: simulated seconds.
        workers: forked worker processes; groups are dealt round-robin.
            Capped at the number of groups. ``workers=1`` still runs
            the sharded protocol (the serial golden path is
            ``mesh.run``, not this).
        sync_quantum_s: rendezvous cadence for directory replay and
            push delivery. Must be identical across runs being
            compared; changing it changes push timing (not safety).
        in_process: host every group in the coordinator process —
            same protocol, same results, no fork (debugging, or
            platforms without ``fork``).
        shard_obs_factory: zero-arg callable minting one fresh obs hook
            per shard group (e.g. ``Obs``). Library code may not
            construct hooks itself (the obs-policy contract), so
            per-shard instrumentation is opt-in: without a factory the
            shards run unobserved and only coordinator-side series
            (directory, car counts) land in ``mesh.obs``. With one,
            shard registries merge into ``mesh.obs.metrics`` after the
            run, in sorted group order — invariant across worker
            counts. Ignored when ``mesh.obs`` is None. Sim-time
            tracing is not supported in sharded runs either way.

    Raises:
        ConfigurationError: an invalid mesh, run length, worker count
            or quantum (checked before anything runs).
        ShardWorkerError: a forked worker raised or died; every other
            worker is terminated and reaped before it propagates.
    """
    if mesh.services:
        raise ConfigurationError(
            "subscribe() services need the single shared timeline — "
            "run serial (mesh.run), drop the services, or consume the "
            "merged sighting stream via mesh.add_sighting_tap() instead "
            "(taps replay coordinator-side, in canonical order)"
        )
    if workers < 1:
        raise ConfigurationError("need at least one worker")
    sync_quantum_s = float(sync_quantum_s)
    if not (math.isfinite(sync_quantum_s) and sync_quantum_s > 0):
        raise ConfigurationError(
            f"the sync quantum must be finite and positive, got {sync_quantum_s!r}"
        )
    push_sink: dict[str, list[tuple]] = {}

    def queue_push(intent: tuple, now_s: float) -> None:
        # A push that reached its pole's side of the link: hand it to
        # the owning shard at the next rendezvous; the shard re-checks
        # its live cache before planting.
        push_sink.setdefault(station_group[intent[0]], []).append(
            (intent, float(now_s))
        )

    # The itinerary consumes mesh.rng exactly as CityMesh.run does;
    # per-edge stream seeds are drawn after it, in sorted edge order —
    # both independent of worker count.
    duration_s, admissions = mesh._start(
        duration_s, check_live=False, deliver_push=queue_push
    )
    edge_seeds = {
        name: int(mesh.rng.integers(np.iinfo(np.int64).max))
        for name in sorted(mesh.edges)
    }
    groups = [
        _ShardGroup(
            mesh,
            edge_names,
            edge_seeds,
            duration_s,
            admissions,
            obs=None
            if mesh.obs is None or shard_obs_factory is None
            else shard_obs_factory(),
        )
        for edge_names in interference_groups(mesh)
    ]
    station_group = {
        name: group.key for group in groups for name in group._stations
    }

    workers = min(int(workers), len(groups))
    if in_process:
        hosts = [_LocalHost(groups)]
    else:
        ctx = multiprocessing.get_context("fork")
        # workers is capped at len(groups), so every host gets >= 1 group.
        hosts = [
            _ForkedHost(ctx, [g for i, g in enumerate(groups) if i % workers == w])
            for w in range(workers)
        ]

    finished = False
    try:
        intents_by_group: dict[str, list[tuple]] = {}
        for t_s in _quantum_boundaries(duration_s, sync_quantum_s):
            for host in hosts:
                host.send(("advance", t_s, intents_by_group))
            reports = [r for host in hosts for r in host.recv()[1]]
            # Replay the quantum's sightings over the backhaul plane —
            # and through it the directory and any sighting taps — in
            # canonical (t_s, group, arrival) order, then advance the
            # plane's links to the quantum boundary. Pushes collect in
            # push_sink for the next quantum.
            push_sink.clear()
            reports.sort(key=lambda r: (r[1], r[0], r[10]))
            for report in reports:
                mesh._report(*report[1:10])
            mesh._plane.advance(t_s)
            intents_by_group = dict(push_sink)
        # Pushes triggered by the final quantum's sightings are still
        # sent (they become push misses in the sweep, as in serial).
        for host in hosts:
            host.send(("apply", intents_by_group))
        for host in hosts:
            host.recv()
        for host in hosts:
            host.send(("finish",))
        payloads = {p["key"]: p for host in hosts for p in host.recv()[1]}
        finished = True
    finally:
        for host in hosts:
            host.close(abort=not finished)

    return _merge(mesh, payloads, duration_s, workers, sync_quantum_s, groups)


def _merge(
    mesh: CityMesh,
    payloads: dict[str, dict],
    duration_s: float,
    workers: int,
    sync_quantum_s: float,
    groups: list[_ShardGroup],
) -> ShardedMeshResult:
    """Rebuild the mesh-wide result from per-group payloads, canonically.

    The merged ledger is a *replay*, not a concatenation: sighting
    records stream in global ``(t_s, group, local index)`` order through
    a fresh ledger so decode/redecode classification sees city-wide
    knowledge, exactly as the serial shared ledger did. The push-miss
    sweep and the result itself then come from the epilogue the serial
    engine uses. Every per-edge result is re-pointed at the merged
    ledger — in the serial mesh all edge results reference the one
    shared ledger, and downstream consumers rely on that.
    """
    merged = HandoffLedger()
    ordered_keys = sorted(payloads)

    records = []
    for key in ordered_keys:
        for idx, rec in enumerate(payloads[key]["ledger"].records):
            records.append((rec.t_s, key, idx, rec))
    records.sort(key=lambda item: item[:3])
    for _, _, _, rec in records:
        merged.replay(rec)

    def gather(attr):
        out = []
        for key in ordered_keys:
            out.extend(
                (item.t_s, key, idx, item)
                for idx, item in enumerate(getattr(payloads[key]["ledger"], attr))
            )
        out.sort(key=lambda item: item[:3])
        return [item[3] for item in out]

    merged.pushes.extend(gather("pushes"))
    merged.push_misses.extend(gather("push_misses"))
    for attr in ("cell_entries", "cell_exits"):
        rows = []
        for key in ordered_keys:
            rows.extend(getattr(payloads[key]["ledger"], attr))
        getattr(merged, attr).extend(sorted(rows))

    edge_results, pushed = {}, {}
    for key in ordered_keys:
        edge_results.update(payloads[key]["edges"])
        pushed.update(payloads[key]["pushed"])
    for result in edge_results.values():
        result.ledger = merged

    if mesh.obs is not None:
        for key in ordered_keys:
            metrics = payloads[key]["metrics"]
            if metrics is not None:
                mesh.obs.metrics.merge(metrics)

    mesh.ledger = merged
    return mesh._conclude(
        ShardedMeshResult,
        duration_s,
        edges={name: edge_results[name] for name in mesh.edges},
        pushed=pushed,
        responses=sum(payloads[key]["responses"] for key in ordered_keys),
        corrupted_responses=sum(payloads[key]["corrupted"] for key in ordered_keys),
        workers=workers,
        sync_quantum_s=sync_quantum_s,
        groups=tuple(tuple(group.edge_names) for group in groups),
        events_processed={
            key: payloads[key]["events_processed"] for key in ordered_keys
        },
    )


# -- CI smoke --------------------------------------------------------------


def _smoke(workers: int, duration_s: float) -> int:  # pragma: no cover
    """Tiny invariance check for CI: sharded protocol, 1 worker vs N."""
    from .mesh import downtown_grid

    summaries = []
    for n in (1, workers):
        mesh = downtown_grid(2, 2, rng=7, rate_per_s=0.5)
        result = run_sharded(mesh, duration_s, workers=n)
        summaries.append(result.summary())
    # Compare as canonical JSON text: short runs legitimately carry NaN
    # means (no cross-corridor entries yet), and NaN != NaN would fail a
    # plain dict comparison even on identical results.
    canon = [json.dumps(s, sort_keys=True) for s in summaries]
    if canon[0] != canon[-1]:
        print("FAIL: worker-count invariance broken")
        return 1
    ledger = summaries[0]["handoff_ledger"]
    print(
        f"ok: workers 1 == {workers} "
        f"(sightings={ledger['sightings']}, pushes={ledger['pushes_sent']}, "
        f"cars={summaries[0]['cars_injected']})"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser(description="sharded mesh smoke test")
    parser.add_argument("--smoke", action="store_true", help="run the CI smoke")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--duration", type=float, default=12.0)
    args = parser.parse_args()
    if args.smoke:
        raise SystemExit(_smoke(args.workers, args.duration))
    parser.error("nothing to do (pass --smoke)")
