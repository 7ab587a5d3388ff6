"""Compare two traced results layer by layer.

Usage::

    python3 perfbench/layer_diff.py OLD NEW

``OLD`` and ``NEW`` are each a traced result file written by
``run.py --trace 1`` (``perfbench/out/<workload>-seed<n>-trace1.json``)
or a directory of them. For every workload present on both sides it
prints the per-layer self-time deltas and then the count deltas, each
sorted by size, so that a regression names its layer.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import PER_LAYER  # noqa: E402


def load(path: Path) -> dict:
    """workload -> per-layer metric values, from a file or a directory."""
    files = sorted(path.glob("*-trace1.json")) if path.is_dir() else [path]
    out = {}
    for file in files:
        data = json.loads(file.read_text())
        if data.get("trace") != 1:
            continue
        metrics = {k: v["value"] for k, v in data["result"]["metrics"].items()}
        out[data["workload"]] = metrics
    return out


def deltas(old: dict, new: dict) -> tuple[list, list]:
    """(self-time rows, count rows), each sorted by the size of the change."""
    times, counts = [], []
    for name, unit in PER_LAYER.items():
        if name not in old or name not in new:
            continue
        a, b = old[name], new[name]
        if unit == "s":
            times.append((name, a, b, b - a))
        elif unit == "count":
            counts.append((name, a, b, b - a))
    times.sort(key=lambda row: -abs(row[3]))
    counts.sort(key=lambda row: -abs(row[3]) / max(abs(row[1]), 1.0))
    return times, counts


def render(workload: str, old: dict, new: dict) -> list[str]:
    times, counts = deltas(old, new)
    lines = [f"== {workload}"]
    lines.append(f"  {'self time / wait':44s} {'old s':>10s} {'new s':>10s} {'delta s':>10s}")
    for name, a, b, d in times:
        if a or b:
            lines.append(f"  {name:44s} {a:10.4f} {b:10.4f} {d:+10.4f}")
    lines.append(f"  {'count':44s} {'old':>10s} {'new':>10s} {'delta':>10s}")
    for name, a, b, d in counts:
        if a or b:
            lines.append(f"  {name:44s} {a:10.6g} {b:10.6g} {d:+10.6g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="per-layer deltas of two traced results")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    old, new = load(args.old), load(args.new)
    shared = sorted(set(old) & set(new))
    if not shared:
        sys.stderr.write("no workload traced on both sides\n")
        return 1
    for workload in shared:
        print("\n".join(render(workload, old[workload], new[workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
