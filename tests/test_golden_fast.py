"""Fast-tier golden pins: numeric drift in the radio kernels, per push.

The other golden sha256 pins run whole-corridor or whole-mesh worlds and
are marked ``slow``, so the per-push tier cannot see a kernel edit that
moves a number. These two pins are small enough for that tier (about
2 s together) and still run every per-round kernel — CFAR floor, peak
scan, tone fit, §6 AoA and lane projection, decoding — through the
corridor and the sharded mesh:

* a 3-pole corridor's handoff ledger and its sighting stream (which
  carries every localized fix's x coordinate, so the AoA path is pinned
  too);
* the summary of a 2x2 ``downtown_grid`` run through ``run_sharded``
  with two forked workers;
* the station reports and observations of three ``ReaderNetwork``
  rounds over the parking scene of ``examples/reader_network.py`` (the
  round-based driver for static ``query_fn`` streams).

The grid digest was captured before the per-round kernels were
vectorised. The corridor and network digests were re-captured when the
counter, the decoder and the peak readouts moved onto one sub-bin
refiner (magnitude, not power, statistic): the corridor then resolves
one more close tag pair, and the network's refined CFOs move by at most
0.14 Hz. Any change that moves a digest changes the simulation's output.
"""

from __future__ import annotations

import hashlib
import json

from repro.channel.geometry import RoadSegment
from repro.core import LaneProjectionLocalizer, ReaderNetwork, ReaderStation
from repro.sim.city import downtown_grid, run_sharded
from repro.sim.scenario import corridor_scene

from tests.test_city_corridor import small_corridor

CORRIDOR_LEDGER_SHA256 = (
    "3abd8734eb23f77631b69b5db88541d090d2cf280ce58ed724c21ba591198492"
)
CORRIDOR_SIGHTINGS_SHA256 = (
    "33769d6bba9e0aa49837e36ffa1da8b5fb7cdc8bce6b072c22457b6429697363"
)
GRID_SUMMARY_SHA256 = (
    "dfd82d60df953d7a854661085a19537da2e781d8084a31c837c79c19a9ff4989"
)
READER_NETWORK_SHA256 = (
    "21ca0a8214830f05883af4883740a2b206f86fc8b7c6520a3ecec0b195887c4c"
)
LEDGER_FIELDS = ("t_s", "station", "kind", "cfo_hz", "tag_id", "from_station", "n_queries")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sighting_row(station, tag_id, cfo_hz, t_s, x_m, localized, kind, n_queries):
    return [
        station.name,
        int(tag_id),
        float(cfo_hz),
        float(t_s),
        float(x_m),
        bool(localized),
        str(kind),
        int(n_queries),
    ]


class TestFastGoldenPins:
    def test_corridor_ledger_and_sightings(self):
        sightings = []

        def hook(corridor, station, *fields):
            sightings.append(_sighting_row(station, *fields))

        result = small_corridor(seed=17, on_sighting=hook).run(4.0)
        rows = [
            tuple(getattr(record, f) for f in LEDGER_FIELDS)
            for record in result.ledger.records
        ]
        assert _digest(repr(rows)) == CORRIDOR_LEDGER_SHA256
        assert sum(row[5] for row in sightings) > 0  # localized fixes pinned
        assert _digest(json.dumps(sightings)) == CORRIDOR_SIGHTINGS_SHA256

    def test_sharded_grid_summary(self):
        result = run_sharded(downtown_grid(2, 2, rng=11, rate_per_s=0.5), 8.0, workers=2)
        summary = json.dumps(result.summary(), sort_keys=True)
        assert _digest(summary) == GRID_SUMMARY_SHA256

    def test_reader_network_rounds(self):
        lanes = (-1.75, -5.25)
        scene = corridor_scene(
            pole_xs_m=[0.0, 24.0],
            lane_ys_m=list(lanes),
            cars=[(-6.0, 0), (5.0, 1), (26.0, 0)],
            rng=21,
        )
        network = ReaderNetwork(max_queries=32)
        cells = ((scene.road.x_min_m, 12.0), (12.0, scene.road.x_max_m))
        for index, (name, cell) in enumerate(zip(("pole-west", "pole-east"), cells)):
            cell_road = RoadSegment(
                x_min_m=cell[0],
                x_max_m=cell[1],
                y_center_m=scene.road.y_center_m,
                width_m=scene.road.width_m,
            )
            network.add_station(
                ReaderStation(
                    name=name,
                    reader=scene.reader(index),
                    query_fn=scene.simulator(index, rng=50 + index).query,
                    localizer=LaneProjectionLocalizer(road=cell_road, lane_ys_m=lanes),
                )
            )
        rows = []
        for report in network.run([0.0, 120.0, 240.0]):
            rows.append(
                [
                    report.station,
                    report.timestamp_s,
                    report.n_tags,
                    [float(cfo) for cfo in report.report.count.cfos_hz()],
                    [
                        [float(a.cfo_hz), [float(x) for x in a.alphas_rad], a.best_pair_index]
                        for a in report.report.aoas
                    ],
                    [
                        [
                            float(cfo),
                            float(result.cfo_hz),
                            None if result.packet is None else int(result.packet.tag_id),
                            result.n_queries,
                            result.n_overheard,
                        ]
                        for cfo, result in sorted(report.decode_results.items())
                    ],
                    [
                        [o.tag_id, [float(x) for x in o.position_m], o.timestamp_s, o.station, o.cell]
                        for o in report.observations
                    ],
                ]
            )
        assert sum(len(row[6]) for row in rows) > 0  # localized fixes pinned
        assert sum(len(row[5]) for row in rows) > 0  # fresh decodes pinned
        assert _digest(json.dumps(rows)) == READER_NETWORK_SHA256
