"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

The smoke tests run every workload at ``--seconds 1`` (one unit each),
so the whole file takes about a minute on a 2-core host.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layer_diff  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_metric_names_are_well_formed_and_declared():
    spec = bench_spec()
    declared_e2e = [m["name"] for m in spec["end_to_end"]]
    declared_layer = [m["name"] for m in spec["per_layer"]]
    for name in declared_e2e + declared_layer + list(run.END_TO_END) + list(layers.PER_LAYER):
        assert NAME.fullmatch(name), name
        assert len(name) <= 64
    assert declared_e2e == list(run.END_TO_END)
    assert declared_layer == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
    for metric in spec["per_layer"]:
        assert metric["unit"] == layers.PER_LAYER[metric["name"]]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    line = last_json_line(done.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert set(line["metrics"]) == set(run.END_TO_END)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name
    for name in run.SIMULATED_UNITS:
        assert f"sim {name}" in done.stdout


def test_traced_run_reports_every_per_layer_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_sharded",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    line = last_json_line(done.stdout)
    assert line["correct"] is True
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert set(metrics) == set(layers.PER_LAYER)
    for name in ("sim.events.self_s", "core.mac.calls", "sim.city.parallel.quanta",
                 "sim.city.parallel.barrier_wait_s", "sim.city.parallel.shard_s.w1",
                 "sim.city.directory.calls", "sim.city.backhaul.calls"):
        assert metrics[name] > 0, name
    assert 0.5 < metrics["trace.coverage"] <= 1.0


def test_simulated_outcomes_repeat_exactly_for_a_seed():
    corridor = workloads.CorridorDense()
    unit = workloads.Unit(0, 7, 1.5)

    def outcome():
        world = corridor.corridor(unit.seed, unit.sim_s, 20, 3)
        return corridor.outcome(world, corridor.run(world, unit), unit)

    first, second = outcome(), outcome()
    assert first.sim == second.sim
    assert first.samples == second.samples


def test_self_times_are_non_negative_and_children_nest():
    corridor = workloads.CorridorDense()
    world = corridor.corridor(5, 1.5, 20, 3)
    tracer = Tracer()
    layers.install(tracer)
    try:
        corridor.run(world, workloads.Unit(0, 5, 1.5))
    finally:
        tracer.unpatch()
    assert tracer.n_spans() > 100
    assert all(s >= -1e-9 for s in tracer.span_self_times())
    for i, parent in enumerate(tracer.parent):
        if parent >= 0:
            assert tracer.start[parent] <= tracer.start[i]
            assert tracer.end[i] <= tracer.end[parent]
            assert tracer.cause_id[i] >= 0
    for calls, total_s, self_s, entries in tracer.stats.values():
        assert 0.0 <= self_s <= total_s + 1e-9
        assert entries <= calls
    # Unpatching restores the program exactly.
    from repro.core.counting import CollisionCounter

    assert not hasattr(CollisionCounter.count, "__wrapped__")


def test_failed_output_check_raises_ops_failed_frac(monkeypatch, capsys):
    billing = workloads.WORKLOADS["billing_replay"]

    def broken_check(world, result, outcome):
        raise workloads.CheckFailed("deliberately failed check")

    monkeypatch.setattr(billing, "check", broken_check)
    code = run.main(["--workload", "billing_replay", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    line = last_json_line(capsys.readouterr().out)
    assert code == 1
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= 1
    assert line["metrics"]["ops_ok_frac"]["value"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corridor_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_layer_diff_sorts_by_size(tmp_path, capsys):
    def result(metrics):
        return {"workload": "w", "trace": 1,
                "result": {"metrics": {k: {"value": v} for k, v in metrics.items()}}}

    old = {name: 0 for name in layers.PER_LAYER}
    new = dict(old, **{"core.counting.self_s": 0.5, "sim.medium.self_s": 2.0,
                       "core.mac.calls": 10})
    (tmp_path / "old.json").write_text(json.dumps(result(old)))
    (tmp_path / "new.json").write_text(json.dumps(result(new)))
    assert layer_diff.main([str(tmp_path / "old.json"), str(tmp_path / "new.json")]) == 0
    out = capsys.readouterr().out
    assert out.index("sim.medium.self_s") < out.index("core.counting.self_s")
    assert "core.mac.calls" in out
