"""The benchmark workloads, built and run through the public API.

Every workload is a :class:`Workload`: ``plan`` fixes the work as a list
of units from the seed and the run length (never from a timing, so one
seed always means the same inputs and the same simulated results),
``prepare`` generates inputs that are not set-up, ``build`` sets one
unit up (the timed set-up), ``run`` executes it (the timed phase) and
``outcome`` reduces its output to the numbers the benchmark reports and
checks. ``check`` raises :class:`CheckFailed` when an output is wrong.

``BENCHMARK.json`` declares ``corridor_dense``, ``grid_sharded`` and
``billing_replay``. ``mesh_backhaul`` runs the same way but is left out
of it: its Poisson traffic (about 45 cars in a 20 s run) makes its
throughput swing by more than any usable bound from seed to seed.

Two kinds of run exist. ``corridor_dense``, ``mesh_backhaul`` and
``grid_sharded`` run several *distinct* small worlds derived from the
seed, because one world's load (cars, speeds, arrivals) varies too much
from seed to seed; their throughput is total simulated time over total
wall time. ``grid_sharded`` also reruns its first world once, and the
rerun must agree exactly. ``billing_replay`` reruns *one* generated
stream, so its repeats must agree exactly and its throughput is the
median over repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.tolling import ShardedAccountStore, TollingService, synthetic_reads
from repro.apps.tolling.events import CHARGED
from repro.errors import ConfigurationError
from repro.sim.city import (
    BackhaulConfig,
    CityCorridor,
    CityMesh,
    FaultPlan,
    downtown_grid,
    run_sharded,
)
from repro.sim.city.handoff import DECODE_FAILED
from repro.sim.scenario import city_corridor_scene
from repro.sim.traffic import TrafficLight


class CheckFailed(AssertionError):
    """An output check of the benchmark failed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def derive_seed(seed: int, index: int) -> int:
    """The seed of world ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Unit:
    """One piece of work: a world to build and run once."""

    index: int
    seed: int
    sim_s: float
    inputs: object = None
    #: index of the unit this one reruns (its outcome must match)
    repeat_of: int | None = None


@dataclass
class Outcome:
    """What one unit produced, reduced to reported and checked numbers.

    ``sim`` holds the simulated results (host-independent, exact for a
    seed); the rest are the counts the host metrics divide by.
    """

    sim_s: float
    reads: int
    attempted: int
    failed: int
    sim: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    #: "worlds": distinct worlds, throughput = sum(sim) / sum(wall);
    #: "repeats": one world rerun, throughput = median over repeats.
    mode = "worlds"
    #: Wall seconds one unit takes on a 2-core host, to size the run.
    unit_wall_s = 1.0
    min_units = 1
    #: append a rerun of the first world (worlds mode)
    rerun_first = False
    #: trace the shard side in process (``run`` takes ``in_process``)
    traced_in_process = False

    def plan(self, seed: int, seconds: float) -> list[Unit]:
        n = max(self.min_units, round(seconds / self.unit_wall_s))
        if self.mode == "repeats":
            return [Unit(i, seed, self.sim_s, repeat_of=0 if i else None) for i in range(n)]
        if self.rerun_first:
            n = max(n - 1, 1)
        units = [Unit(i, derive_seed(seed, i), self.sim_s) for i in range(n)]
        if self.rerun_first:
            units.append(Unit(n, units[0].seed, self.sim_s, repeat_of=0))
        return units

    def prepare(self, units: list[Unit]) -> None:
        """Generate inputs that are not part of set-up (untimed)."""

    def warmup(self, units: list[Unit]) -> None:
        """Fill lazy caches with a small untimed run."""

    def build(self, unit: Unit):
        raise NotImplementedError

    def run(self, world, unit: Unit):
        raise NotImplementedError

    def outcome(self, world, result, unit: Unit) -> Outcome:
        raise NotImplementedError

    def check(self, world, result, outcome: Outcome) -> None:
        """Per-unit output checks."""

    def layer_extras(self, world, result) -> dict:
        """Per-layer counters the program itself keeps (traced run)."""
        return {}

    def check_all(self, units: list[Unit], outcomes: list[Outcome]) -> None:
        """Reruns of a world must reproduce its simulated outcome exactly."""
        for unit, outcome in zip(units, outcomes):
            if unit.repeat_of is not None:
                first = outcomes[unit.repeat_of].sim
                require(
                    outcome.sim == first,
                    f"{self.name}: reruns of one world disagree: {first} != {outcome.sim}",
                )


# -- radio workloads ---------------------------------------------------------


def radio_outcome(
    sim_s, ledger, identifications, responses, corrupted, queries_sent
) -> Outcome:
    """Reduce a corridor or mesh result to the reported numbers."""
    counts = ledger.counts()
    summary = ledger.summary()
    tags = summary["tags_identified"]
    delays = [s.delay_s for s in identifications]
    return Outcome(
        sim_s=sim_s,
        reads=len(ledger.records),
        attempted=len(ledger.records) + responses,
        failed=counts.get(DECODE_FAILED, 0) + corrupted,
        sim={
            "tags_identified": tags,
            "queries_sent": queries_sent,
            "sightings": len(ledger.records),
            "decode_queries_spent": summary["decode_queries_spent"],
            "identifications": len(delays),
            "corrupted_responses": corrupted,
        },
        samples={"id_delay_s": delays},
    )


LANES = (-1.75, -5.25)


class CorridorDense(Workload):
    name = "corridor_dense"
    why = (
        "8 poles, 100 streaming cars, event MAC: the decode-bound street "
        "where counting, synthesis and decoding saturate"
    )
    sim_s = 4.0
    unit_wall_s = 3.0
    n_poles = 8
    n_cars = 100
    max_queries = 32

    def corridor(self, seed, sim_s, n_cars, n_poles):
        scene, trajectories = city_corridor_scene(
            n_poles=n_poles,
            pole_spacing_m=40.0,
            lane_ys_m=LANES,
            n_cars=n_cars,
            entry="stream",
            entry_window_s=0.75 * sim_s,
            rng=seed,
        )
        return CityCorridor.build(
            scene,
            trajectories,
            lane_ys_m=LANES,
            rng=seed,
            scheduling="event",
            max_queries=self.max_queries,
        )

    def warmup(self, units):
        self.corridor(units[0].seed, 1.5, 20, 3).run(1.5)

    def build(self, unit):
        return self.corridor(unit.seed, unit.sim_s, self.n_cars, self.n_poles)

    def run(self, world, unit):
        return world.run(unit.sim_s)

    def outcome(self, world, result, unit):
        out = radio_outcome(
            unit.sim_s,
            result.ledger,
            result.identifications,
            result.responses,
            result.corrupted_responses,
            result.queries_sent,
        )
        out.sim["burst_corruption_undercount"] = result.burst_corruption_undercount
        return out

    def check(self, world, result, outcome):
        require(
            result.corrupted_responses == 0,
            f"corridor: {result.corrupted_responses} corrupted responses under CSMA",
        )
        require(
            result.burst_corruption_undercount == 0,
            f"corridor: burst corruption under-counted by "
            f"{result.burst_corruption_undercount}",
        )


def build_main_line(seed: int, sim_s: float) -> tuple[CityMesh, TollingService]:
    """The A -> B -> C mesh of ``bench_backhaul`` with a faulted scheduled
    backhaul and a billing tap that keeps its events."""
    backhaul = BackhaulConfig(
        policy="scheduled",
        sync_period_s=1.0,
        fault_plan=FaultPlan.seeded(
            seed,
            duration_s=sim_s,
            n_outages=3,
            outage_s=4.0,
            drop_p=0.15,
            max_delay_s=1.0,
        ),
    )
    mesh = CityMesh(rng=seed, handoff="push", backhaul=backhaul)
    mesh.add_node("u", light=TrafficLight(green_s=8.0, yellow_s=1.0, red_s=4.0))
    mesh.add_node(
        "v", light=TrafficLight(green_s=8.0, yellow_s=1.0, red_s=4.0, offset_s=3.0)
    )
    mesh.add_edge("A", dst="u", n_poles=3)
    mesh.add_edge("B", src="u", dst="v", n_poles=3)
    mesh.add_edge("C", src="v", n_poles=3)
    mesh.add_traffic(
        [(("A", "B", "C"), 0.8), (("A", "B"), 0.2)],
        rate_per_s=0.6,
        speed_range_m_s=(10.0, 16.0),
    )
    # The lag allowance covers any sync delay, the final flush included.
    service = TollingService(
        policy="as-sighted", max_lag_s=10.0 * sim_s, keep_events=True
    )
    mesh.add_sighting_tap(service)
    return mesh, service


def mesh_outcome(result, sim_s: float) -> Outcome:
    identifications = [
        s for edge in result.edges.values() for s in edge.identifications
    ]
    out = radio_outcome(
        sim_s,
        result.ledger,
        identifications,
        result.responses,
        result.corrupted_responses,
        result.queries_sent,
    )
    out.sim["cross_entries"] = result.cross_entries
    out.sim["cross_resolved"] = result.cross_resolved
    return out


class MeshBackhaul(Workload):
    name = "mesh_backhaul"
    why = (
        "3-corridor mesh with push handoff, a faulted scheduled backhaul and "
        "a billing tap: long sparse run where the air log dominates"
    )
    sim_s = 15.0
    unit_wall_s = 3.8

    def warmup(self, units):
        mesh, _ = build_main_line(units[0].seed, 3.0)
        mesh.run(3.0)

    def build(self, unit):
        return build_main_line(unit.seed, unit.sim_s)

    def run(self, world, unit):
        return world[0].run(unit.sim_s)

    def outcome(self, world, result, unit):
        service = world[1]
        out = mesh_outcome(result, unit.sim_s)
        billing = service.finish()
        out.sim["toll_events"] = billing["toll_events"]
        out.sim["charged"] = billing["charged"]
        out.samples["charge_latency_s"] = [e.latency_s for e in service.events]
        return out

    def check(self, world, result, outcome):
        mesh, service = world
        # The plane is reachable only through the mesh's private handle;
        # bench_backhaul checks it the same way.
        plane = mesh._plane
        try:
            plane.check_consistent()
            service.check_consistent()
        except ConfigurationError as exc:
            raise CheckFailed(f"mesh: {exc}") from exc
        billing = service.summary()
        require(
            billing["pending"] == 0 and billing["unresolved"] == 0,
            f"mesh: {billing['pending']} pending, {billing['unresolved']} "
            "unresolved toll events after the final flush",
        )
        require(
            billing["charged"] == billing["toll_events"] == len(service.events),
            f"mesh: {billing['charged']} charged of {billing['toll_events']} "
            "toll events",
        )
        require(
            all(e.status == CHARGED for e in service.events)
            and service.accounts.total_charges == len(service.events),
            "mesh: a toll event was not charged exactly once",
        )

    def layer_extras(self, world, result):
        backhaul = result.backhaul
        return {
            "sim.city.backhaul.items_delivered": backhaul["items"]["delivered"],
            "sim.city.backhaul.batches_retried": backhaul["batches"]["retried"],
            "sim.city.backhaul.batches_dropped": backhaul["batches"]["dropped"],
            **tolling_extras(world[1].summary()),
        }


def tolling_extras(summary: dict) -> dict:
    reads = summary["reads"]
    return {
        "apps.tolling.duplicate_ratio": summary["duplicates_suppressed"] / reads
        if reads
        else 0.0,
        "apps.tolling.evictions": summary["accounts"]["evictions"],
        "apps.tolling.dedup_peak_entries": summary["dedup"]["peak_entries"],
    }


class GridSharded(Workload):
    name = "grid_sharded"
    why = (
        "100-corridor downtown grid through run_sharded with 2 forked "
        "workers: sparse groups, DES/MAC overhead, barriers and replay"
    )
    sim_s = 6.0
    unit_wall_s = 2.9
    min_units = 2
    rerun_first = True
    traced_in_process = True
    rows = cols = 10
    rate_per_s = 0.3
    workers = 2

    def grid(self, seed, rows, cols):
        return downtown_grid(rows, cols, rng=seed, rate_per_s=self.rate_per_s)

    def warmup(self, units):
        run_sharded(self.grid(units[0].seed, 2, 2), 2.0, workers=self.workers)

    def build(self, unit):
        return self.grid(unit.seed, self.rows, self.cols)

    def run(self, world, unit, in_process=False):
        return run_sharded(
            world, unit.sim_s, workers=self.workers, in_process=in_process
        )

    def outcome(self, world, result, unit):
        out = mesh_outcome(result, unit.sim_s)
        out.sim["events_processed"] = sum(result.events_processed.values())
        return out


class BillingReplay(Workload):
    name = "billing_replay"
    why = (
        "seeded synthetic reads through TollingService(as-sighted) with more "
        "accounts than the store's active-row cap: the billing plane, no radio"
    )
    mode = "repeats"
    sim_s = 0.0  # the span of the generated stream, set by prepare()
    unit_wall_s = 1.2
    min_units = 3
    n_accounts = 1_000_000
    n_crossings = 60_000
    rate_per_s = 200.0
    #: 16 x 1024 active rows, far below the accounts the replay touches,
    #: so settle-coldest eviction runs.
    n_shards = 16
    max_active_per_shard = 1024

    def prepare(self, units):
        reads = list(
            synthetic_reads(
                self.n_accounts,
                self.n_crossings,
                rate_per_s=self.rate_per_s,
                rng=units[0].seed,
            )
        )
        span_s = reads[-1].t_s - reads[0].t_s
        accounts = len({read.tag_id for read in reads})
        for unit in units:
            unit.inputs = (reads, accounts)
            unit.sim_s = span_s

    def warmup(self, units):
        service = self.build(units[0])[1]
        for read in units[0].inputs[0][:20_000]:
            service.ingest(read)
        service.finish()

    def build(self, unit):
        store = ShardedAccountStore(
            n_shards=self.n_shards, max_active_per_shard=self.max_active_per_shard
        )
        return store, TollingService(
            policy="as-sighted", accounts=store, keep_events=False
        )

    def run(self, world, unit):
        service = world[1]
        ingest = service.ingest
        for read in unit.inputs[0]:
            ingest(read)
        return service.finish()

    def outcome(self, world, result, unit):
        store = world[0]
        return Outcome(
            sim_s=unit.sim_s,
            reads=result["reads"],
            attempted=result["toll_events"],
            failed=result["toll_events"] - result["charged"] + result["unresolved"],
            sim={
                # Every read's account is charged (checked below), so the
                # distinct accounts of the stream are the accounts billed.
                "tags_identified": unit.inputs[1],
                "reads": result["reads"],
                "toll_events": result["toll_events"],
                "charged": result["charged"],
                "duplicates_suppressed": result["duplicates_suppressed"],
                "total_charged_cents": result["total_charged_cents"],
                "evictions": store.evictions,
                "peak_active": store.peak_active,
                "dedup_peak_entries": result["dedup"]["peak_entries"],
            },
        )

    def layer_extras(self, world, result):
        return tolling_extras(result)

    def check(self, world, result, outcome):
        store, service = world
        try:
            service.check_consistent()
            store.check_consistent()
        except ConfigurationError as exc:
            raise CheckFailed(f"billing: {exc}") from exc
        cap = self.n_shards * self.max_active_per_shard
        require(
            result["charged"] == result["toll_events"],
            f"billing: {result['charged']} charged of {result['toll_events']} events",
        )
        require(store.evictions > 0, "billing: the store never evicted")
        require(
            store.peak_active <= cap,
            f"billing: {store.peak_active} active rows over the cap {cap}",
        )


WORKLOADS = {
    w.name: w
    for w in (CorridorDense(), MeshBackhaul(), GridSharded(), BillingReplay())
}
