"""The repository benchmark: four city workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corridor_dense --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints every end-to-end
metric; ``--trace 1`` runs it once untraced and once with every layer
boundary wrapped in a span (see ``layers.py``) and prints the per-layer
metrics. Either way the output checks run, human-readable lines come
first and the last line of standard output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

The full result (run metadata, per-unit timings, simulated outcomes)
is also written to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``;
a traced run writes its spans next to it as ``.spans.npz``. Exit code 0
means every check passed; 1 means a check failed; 2 means the program
could not be found or imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (benchmark code only; the program loads later)
from tracing import Tracer  # noqa: E402

#: Set-up is sampled at least this often per run (median reported).
MIN_SETUP_SAMPLES = 21


#: The simulated outcomes printed beside the end-to-end metrics.
SIMULATED_UNITS = {
    "id_delay_p50_s": "sim_s",
    "id_delay_samples": "count",
    "decode_queries_per_id": "queries",
    "cross_resolution_rate": "ratio",
    "charge_latency_p50_s": "sim_s",
    "ops_failed_frac": "ratio",
}

END_TO_END = {
    "realtime_factor": "sim_s/s",
    "reads_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "tags_identified": "count",
    "ops_ok_frac": "ratio",
}


def import_program():
    """Put ``src/`` on the path and import the package, or exit 2."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {ROOT / 'src'}\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
        import workloads
    except ImportError:
        traceback.print_exc()
        sys.exit(2)
    return workloads


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + children_kib) / 1024.0


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


# -- one run -------------------------------------------------------------------


def timed_units(workload, units):
    """Build and run each unit; returns per-unit records and outcomes."""
    records, outcomes = [], []
    for unit in units:
        t0 = time.perf_counter()
        world = workload.build(unit)
        setup_s = time.perf_counter() - t0
        load_before = os.getloadavg()[0]
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        result = workload.run(world, unit)
        wall_s = time.perf_counter() - t0
        cpu_s = cpu_seconds() - cpu0
        outcome = workload.outcome(world, result, unit)
        records.append(
            {
                "unit": unit.index,
                "seed": unit.seed,
                "sim_s": outcome.sim_s,
                "setup_s": setup_s,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "reads": outcome.reads,
                "load_1m": [load_before, os.getloadavg()[0]],
            }
        )
        outcomes.append(outcome)
        workload.check(world, result, outcome)
    workload.check_all(units, outcomes)
    return records, outcomes


def distinct(units, outcomes) -> list:
    """Outcomes of the distinct worlds (reruns left out)."""
    return [o for u, o in zip(units, outcomes) if u.repeat_of is None]


def end_to_end(workload, units, records, outcomes, setup_samples) -> dict:
    if workload.mode == "repeats":
        rtf = median(r["sim_s"] / r["wall_s"] for r in records)
        reads_per_s = median(r["reads"] / r["wall_s"] for r in records)
    else:
        wall_s = sum(r["wall_s"] for r in records)
        rtf = sum(r["sim_s"] for r in records) / wall_s
        reads_per_s = sum(r["reads"] for r in records) / wall_s
    tags = sum(o.sim["tags_identified"] for o in distinct(units, outcomes))
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "realtime_factor": rtf,
        "reads_per_s": reads_per_s,
        "cpu_s": sum(r["cpu_s"] for r in records),
        "setup_s": median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
        "tags_identified": tags,
        "ops_ok_frac": 1.0 - failed / attempted if attempted else 0.0,
    }


def simulated_summary(units, outcomes) -> dict:
    """The host-independent outcomes, printed beside the host metrics."""
    worlds = distinct(units, outcomes)
    samples = {}
    for outcome in worlds:
        for key, values in outcome.samples.items():
            samples.setdefault(key, []).extend(values)
    per_layer = layers.outcome_metrics(worlds, samples)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "id_delay_p50_s": per_layer["core.decoding.id_delay_p50_s"],
        "id_delay_samples": per_layer["core.decoding.id_delay_samples"],
        "decode_queries_per_id": per_layer["core.decoding.queries_per_id"],
        "cross_resolution_rate": per_layer["sim.city.directory.cross_resolution_rate"],
        "charge_latency_p50_s": per_layer["apps.tolling.charge_latency_p50_s"],
        "ops_failed_frac": failed / attempted if attempted else 1.0,
    }


def run_timed(workload, seed: int, seconds: float) -> dict:
    units = workload.plan(seed, seconds)
    t0 = time.perf_counter()
    workload.prepare(units)
    generate_s = time.perf_counter() - t0
    workload.warmup(units)
    records, outcomes = timed_units(workload, units)
    setup_samples = [r["setup_s"] for r in records]
    while len(setup_samples) < MIN_SETUP_SAMPLES:
        unit = units[len(setup_samples) % len(units)]
        t0 = time.perf_counter()
        workload.build(unit)
        setup_samples.append(time.perf_counter() - t0)
    return {
        "metrics": end_to_end(workload, units, records, outcomes, setup_samples),
        "units": records,
        "setup_samples_s": setup_samples,
        "generate_s": generate_s,
        "simulated": simulated_summary(units, outcomes),
        "outcomes": [o.sim for o in outcomes],
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
    }


def run_traced(workload, seed: int, seconds: float) -> dict:
    """One unit untraced, then the same unit traced; per-layer metrics."""
    from workloads import CheckFailed

    units = workload.plan(seed, seconds)[:1]
    workload.prepare(units)
    workload.warmup(units)
    unit = units[0]
    in_process = {"in_process": True} if workload.traced_in_process else {}

    untraced = workload.build(unit)
    t0 = time.perf_counter()
    result = workload.run(untraced, unit, **in_process)
    untraced_wall_s = time.perf_counter() - t0
    reference = workload.outcome(untraced, result, unit)

    world = workload.build(unit)
    tracer = Tracer()
    per_group: dict[str, float] = {}
    layers.install(tracer)
    if in_process:
        layers.install_shard_timer(tracer, per_group)
    try:
        t0 = time.perf_counter()
        result = workload.run(world, unit, **in_process)
        wall_s = time.perf_counter() - t0
    finally:
        tracer.unpatch()
    outcome = workload.outcome(world, result, unit)
    workload.check(world, result, outcome)
    if outcome.sim != reference.sim:
        raise CheckFailed(
            f"tracing changed the simulated outcome: {reference.sim} != {outcome.sim}"
        )

    metrics = layers.layer_metrics(tracer, wall_s)
    metrics.update(layers.outcome_metrics([outcome], outcome.samples))
    metrics["trace.overhead_ratio"] = wall_s / untraced_wall_s
    lags = tracer.samples.get("sim.city.backhaul.sync_lag_s", [])
    metrics["sim.city.backhaul.sync_lag_p50_s"] = median(lags) if lags else 0.0
    metrics.update(workload.layer_extras(world, result))
    if in_process:
        metrics.update(parallel_metrics(workload, unit, per_group, outcome.sim))

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload.name}-seed{seed}-trace1.spans.npz"
    tracer.save(spans_path)
    return {
        "metrics": metrics,
        "untraced_wall_s": untraced_wall_s,
        "traced_wall_s": wall_s,
        "spans_file": spans_path.name,
        "outcomes": [outcome.sim],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }


def parallel_metrics(workload, unit, per_group: dict, in_process_sim: dict) -> dict:
    """Coordinator side of a forked ``run_sharded``; shard side per worker
    from the in-process run's per-group times (groups are dealt to
    workers round-robin, in the order they first advance)."""
    from workloads import require

    world = workload.build(unit)
    tracer = Tracer()
    layers.install_barrier_timer(tracer)
    try:
        t0 = time.perf_counter()
        result = workload.run(world, unit)
        wall_s = time.perf_counter() - t0
    finally:
        tracer.unpatch()
    forked_sim = workload.outcome(world, result, unit).sim
    require(
        forked_sim == in_process_sim,
        f"forked and in-process runs disagree: {forked_sim} != {in_process_sim}",
    )
    barrier_s = tracer.self_seconds("sim.city.parallel/_ForkedHost.recv")
    out = {
        "sim.city.parallel.quanta": tracer.counts.get("sim.city.parallel.replies.reports", 0)
        // workload.workers,
        "sim.city.parallel.barrier_wait_s": barrier_s,
        "sim.city.parallel.coordinator_s": wall_s - barrier_s,
    }
    for w in range(workload.workers):
        out[f"sim.city.parallel.shard_s.w{w}"] = sum(
            seconds
            for i, seconds in enumerate(per_group.values())
            if i % workload.workers == w
        )
    return out


# -- metadata ------------------------------------------------------------------


def blas_info() -> dict:
    """The BLAS numpy links and its thread count, as found (not set)."""
    import ctypes

    import numpy as np

    info = {"name": None, "threads": None}
    try:
        config = np.show_config(mode="dicts")
        info["name"] = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "blas" in line.lower()})
    except OSError:
        libs = []
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                info["threads"] = getter()
                info["library"] = os.path.basename(lib_path)
                return info
    return info


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    import subprocess

    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or None


def metadata() -> dict:
    import platform

    import numpy as np

    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "load_1m_start": os.getloadavg()[0],
    }


# -- entry point ---------------------------------------------------------------


def report(workload, args, run: dict, trace: bool) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    units = layers.PER_LAYER if trace else END_TO_END
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={int(trace)}")
    print(f"  meta {json.dumps(run['meta'], sort_keys=True)}")
    for name, value in run["metrics"].items():
        print(f"  {name:44s} {value:>16.6g} {units.get(name, '')}")
    if not trace:
        for name, value in run["simulated"].items():
            print(f"  sim {name:40s} {value:>16.6g} {SIMULATED_UNITS[name]}")
        walls = [r["wall_s"] for r in run["units"]]
        print(
            f"  units {len(walls)}: wall min {min(walls):.3f} s, median "
            f"{median(walls):.3f} s, max {max(walls):.3f} s; input generation "
            f"{run['generate_s']:.3f} s"
        )


def result_line(correct: bool, run: dict, names) -> dict:
    metrics = {}
    for name, unit in names.items():
        value = run.get("metrics", {}).get(name, 0.0)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    if not correct and "ops_ok_frac" in metrics:
        metrics["ops_ok_frac"]["value"] = 0.0
    attempted = max(int(run.get("attempted", 0)), 1)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": int(run.get("failed", 0)) if correct else attempted,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; pick from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    meta = metadata()
    correct, run = True, {}
    try:
        run = (run_traced if trace else run_timed)(workload, args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        correct = False
    meta["load_1m_end"] = os.getloadavg()[0]
    run["meta"] = meta
    names = layers.PER_LAYER if trace else END_TO_END
    if correct:
        report(workload, args, run, trace)
    line = result_line(correct, run, names)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{int(trace)}.json"
    out.write_text(
        json.dumps(
            {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
             "trace": int(trace), "result": line, **run},
            indent=1,
            sort_keys=True,
            default=float,
        )
    )
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
