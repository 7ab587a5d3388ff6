"""Layer boundaries the traced run wraps, and the per-layer metrics.

``BOUNDARIES`` names, per layer, the calls into the program that get a
span. Two layers have no public boundary and use private hooks instead,
as ``benchmarks/bench_city_mesh.py`` already does:
``sim.city.parallel`` times ``_ShardGroup.advance`` (the shard side of a
quantum, in an in-process run) and ``_ForkedHost.recv`` (the
coordinator's barrier wait, in a forked run).

``PER_LAYER`` is the fixed list of per-layer metrics every traced run
reports, on every workload: a layer that does not run on a workload
reports 0.
"""

from __future__ import annotations

import statistics

from tracing import Tracer

BOUNDARIES = (
    ("sim.city.moving", "repro.sim.city.moving:MovingCollisionSource", ("query", "overhear")),
    ("core.reader", "repro.core.reader:CaraokeReader", ("observe",)),
    ("core.counting", "repro.core.counting:CollisionCounter", ("count", "count_multi")),
    ("dsp.peaks", "repro.dsp.peaks", ("local_noise_floor", "find_peaks_in_magnitudes")),
    ("core.decoding", "repro.core.reader:CaraokeReader", ("decode_session",)),
    ("core.decoding", "repro.core.decoding:DecodeSession", ("decode_all",)),
    ("core.localization", "repro.core.localization:LaneProjectionLocalizer", ("locate",)),
    ("core.mac", "repro.core.mac:ReaderMac", ("can_transmit", "next_opportunity")),
    (
        "sim.medium",
        "repro.sim.medium:AirLog",
        (
            "record_query",
            "record_response",
            "any_query_overlapping",
            "heard_state",
            "corrupted_responses",
        ),
    ),
    ("sim.events", "repro.sim.events:EventScheduler", ("run_until",)),
    (
        "sim.city.directory",
        "repro.sim.city.directory:IdentityDirectory",
        ("report", "resolve", "apply_delta"),
    ),
    (
        "sim.city.backhaul",
        "repro.sim.city.backhaul:BackhaulPlane",
        ("submit", "advance", "final_flush"),
    ),
    ("apps.tolling", "repro.apps.tolling.service:TollingService", ("ingest", "finish")),
    ("apps.tolling", "repro.apps.tolling.dedup:TollDedup", ("admit",)),
    ("apps.tolling", "repro.apps.tolling.accounts:ShardedAccountStore", ("charge",)),
)

MEDIUM_SCANS = ("any_query_overlapping", "heard_state", "corrupted_responses")

#: Cause ids: a DES event is ``scheduler << 32 | ordinal``; a billing
#: read is ``READ_CAUSE | ordinal``.
READ_CAUSE = 1 << 62


def span_name(layer: str, target: str, attr: str) -> str:
    owner = target.partition(":")[2] or target.rsplit(".", 1)[1]
    return f"{layer}/{owner}.{attr}"


# -- counts taken at the boundaries ------------------------------------------


def _note_count_multi(tracer, args, kwargs, result):
    # count(wave) delegates to count_multi([wave]), so this sees every capture.
    waves = args[1] if len(args) > 1 else kwargs["waves"]
    tracer.count("core.counting.captures", len(waves))


def _note_decode_all(tracer, args, kwargs, result):
    tracer.count("core.decoding.targets", len(result))
    tracer.count("core.decoding.decoded", sum(1 for r in result.values() if r.success))


def _note_resolve(tracer, args, kwargs, result):
    if result is not None:
        tracer.count("sim.city.directory.hits")


def _note_run_until(tracer, args, kwargs, result):
    tracer.count("sim.events.events", result)


def _note_ingest(tracer, args, kwargs, result):
    read = args[1]
    if read.delivered_s is not None:
        tracer.sample("sim.city.backhaul.sync_lag_s", read.delivered_s - read.t_s)


NOTES = {
    "ingest": _note_ingest,
    "count_multi": _note_count_multi,
    "decode_all": _note_decode_all,
    "resolve": _note_resolve,
    "run_until": _note_run_until,
}


def install(tracer: Tracer) -> None:
    """Wrap every boundary and tag spans with the DES event or read."""
    for layer, target, attrs in BOUNDARIES:
        for attr in attrs:
            tracer.patch(span_name(layer, target, attr), target, attr, NOTES.get(attr))
    schedulers: dict[int, int] = {}

    def make_step(step):
        def traced_step(scheduler):
            index = schedulers.setdefault(id(scheduler), len(schedulers))
            previous = tracer.cause
            tracer.cause = index << 32 | scheduler.processed
            try:
                return step(scheduler)
            finally:
                tracer.cause = previous

        return traced_step

    def make_ingest(ingest):
        reads = [0]

        def caused_ingest(service, read):
            previous = tracer.cause
            tracer.cause = READ_CAUSE | reads[0]
            reads[0] += 1
            try:
                return ingest(service, read)
            finally:
                tracer.cause = previous

        return caused_ingest

    tracer.hook("repro.sim.events:EventScheduler", "step", make_step)
    tracer.hook("repro.apps.tolling.service:TollingService", "ingest", make_ingest)


def install_shard_timer(tracer: Tracer, per_group: dict) -> None:
    """Time ``_ShardGroup.advance`` per group (in-process runs)."""
    clock = tracer.clock

    def make(advance):
        def timed_advance(group, t_s, intents):
            t0 = clock()
            try:
                return advance(group, t_s, intents)
            finally:
                per_group[group.key] = per_group.get(group.key, 0.0) + clock() - t0

        return timed_advance

    tracer.hook("repro.sim.city.parallel:_ShardGroup", "advance", make)


def install_barrier_timer(tracer: Tracer) -> None:
    """Span the coordinator's wait on each forked worker's reply."""
    tracer.patch(
        "sim.city.parallel/_ForkedHost.recv",
        "repro.sim.city.parallel:_ForkedHost",
        "recv",
        lambda tr, args, kwargs, result: tr.count(
            "sim.city.parallel.replies." + result[0]
        ),
    )


# -- the per-layer metrics ----------------------------------------------------

COUNT, SECONDS, RATIO = "count", "s", "ratio"

PER_LAYER = {
    "sim.city.moving.calls": COUNT,
    "sim.city.moving.self_s": SECONDS,
    "core.reader.calls": COUNT,
    "core.reader.self_s": SECONDS,
    "core.counting.calls": COUNT,
    "core.counting.captures": COUNT,
    "core.counting.self_s": SECONDS,
    "dsp.peaks.calls": COUNT,
    "dsp.peaks.self_s": SECONDS,
    "core.decoding.sessions": COUNT,
    "core.decoding.targets": COUNT,
    "core.decoding.decoded_ratio": RATIO,
    "core.decoding.self_s": SECONDS,
    "core.decoding.queries_per_id": COUNT,
    "core.decoding.id_delay_p50_s": SECONDS,
    "core.decoding.id_delay_samples": COUNT,
    "core.localization.calls": COUNT,
    "core.localization.self_s": SECONDS,
    "core.mac.calls": COUNT,
    "core.mac.self_s": SECONDS,
    "core.mac.deferrals": COUNT,
    "sim.medium.calls": COUNT,
    "sim.medium.self_s": SECONDS,
    "sim.medium.scan_s": SECONDS,
    "sim.events.events": COUNT,
    "sim.events.self_s": SECONDS,
    "sim.city.directory.calls": COUNT,
    "sim.city.directory.self_s": SECONDS,
    "sim.city.directory.hit_ratio": RATIO,
    "sim.city.directory.cross_resolution_rate": RATIO,
    "sim.city.backhaul.calls": COUNT,
    "sim.city.backhaul.self_s": SECONDS,
    "sim.city.backhaul.items_delivered": COUNT,
    "sim.city.backhaul.batches_retried": COUNT,
    "sim.city.backhaul.batches_dropped": COUNT,
    "sim.city.backhaul.sync_lag_p50_s": SECONDS,
    "sim.city.parallel.quanta": COUNT,
    "sim.city.parallel.barrier_wait_s": SECONDS,
    "sim.city.parallel.coordinator_s": SECONDS,
    "sim.city.parallel.shard_s.w0": SECONDS,
    "sim.city.parallel.shard_s.w1": SECONDS,
    "apps.tolling.reads": COUNT,
    "apps.tolling.self_s": SECONDS,
    "apps.tolling.ingest.self_s": SECONDS,
    "apps.tolling.finish.self_s": SECONDS,
    "apps.tolling.admit.self_s": SECONDS,
    "apps.tolling.charge.self_s": SECONDS,
    "apps.tolling.duplicate_ratio": RATIO,
    "apps.tolling.evictions": COUNT,
    "apps.tolling.dedup_peak_entries": COUNT,
    "apps.tolling.charge_latency_p50_s": SECONDS,
    "trace.wall_s": SECONDS,
    "trace.spans": COUNT,
    "trace.overhead_ratio": RATIO,
    "trace.coverage": RATIO,
    "trace.unattributed_s": SECONDS,
}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Self time and counts per layer from one traced run.

    Only span-derived numbers are filled in here; the caller adds the
    workload's own counters (backhaul, billing, parallel, outcomes).
    """
    out = {name: 0.0 for name in PER_LAYER}
    for layer, target, attrs in BOUNDARIES:
        for attr in attrs:
            name = span_name(layer, target, attr)
            self_s = tracer.self_seconds(name)
            out[f"{layer}.self_s"] += self_s
            if f"{layer}.calls" in out:
                out[f"{layer}.calls"] += tracer.entries(name)
            if layer == "sim.medium" and attr in MEDIUM_SCANS:
                out["sim.medium.scan_s"] += self_s
            if layer == "apps.tolling":
                out[f"apps.tolling.{attr}.self_s"] = self_s
                if attr == "ingest":
                    out["apps.tolling.reads"] = tracer.calls(name)
    decode = "core.decoding"
    out[f"{decode}.sessions"] = tracer.calls(
        span_name(decode, "repro.core.reader:CaraokeReader", "decode_session")
    )
    targets = tracer.counts.get(f"{decode}.targets", 0)
    out[f"{decode}.targets"] = targets
    out[f"{decode}.decoded_ratio"] = (
        tracer.counts.get(f"{decode}.decoded", 0) / targets if targets else 0.0
    )
    out["core.counting.captures"] = tracer.counts.get("core.counting.captures", 0)
    # The corridor asks for the next opportunity once per deferral.
    out["core.mac.deferrals"] = tracer.entries(
        span_name("core.mac", "repro.core.mac:ReaderMac", "next_opportunity")
    )
    out["sim.events.events"] = tracer.counts.get("sim.events.events", 0)
    resolves = tracer.calls(
        span_name("sim.city.directory", "repro.sim.city.directory:IdentityDirectory", "resolve")
    )
    out["sim.city.directory.hit_ratio"] = (
        tracer.counts.get("sim.city.directory.hits", 0) / resolves if resolves else 0.0
    )
    named_self_s = sum(stat[2] for stat in tracer.stats.values())
    out["trace.wall_s"] = wall_s
    out["trace.spans"] = tracer.n_spans()
    out["trace.coverage"] = named_self_s / wall_s if wall_s else 0.0
    out["trace.unattributed_s"] = wall_s - named_self_s
    return out


def outcome_metrics(outcomes, samples) -> dict:
    """Simulated per-layer outcomes, summed over the traced units."""
    sim = {}
    for outcome in outcomes:
        for key, value in outcome.sim.items():
            if isinstance(value, (int, float)):
                sim[key] = sim.get(key, 0) + value
    tags = sim.get("tags_identified", 0)
    delays = samples.get("id_delay_s", [])
    cross = sim.get("cross_entries", 0)
    return {
        "core.decoding.queries_per_id": sim.get("decode_queries_spent", 0) / tags
        if tags
        else 0.0,
        "core.decoding.id_delay_p50_s": _median(delays),
        "core.decoding.id_delay_samples": len(delays),
        "sim.city.directory.cross_resolution_rate": sim.get("cross_resolved", 0) / cross
        if cross
        else 0.0,
        "apps.tolling.charge_latency_p50_s": _median(samples.get("charge_latency_s", [])),
    }
