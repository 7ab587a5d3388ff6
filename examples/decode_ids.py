#!/usr/bin/env python
"""Decoding transponder ids from collisions (§8, Fig 8, Fig 16).

Shows coherent combining at work: with five tags colliding, the raw
signal is undecodable, but averaging CFO/channel-compensated replies
makes the target's Manchester bits emerge. Also shows why the obvious
band-pass-filter decoder cannot work (§8's opening argument).

Run:  python examples/decode_ids.py
"""

import numpy as np

from repro.baselines.bandpass_decoder import BandpassDecoder
from repro.core import CoherentDecoder, DecodeSession
from repro.core.cfo import estimate_channel, extract_cfo_peaks, refine_frequencies
from repro.sim.scenario import parking_scene


def ascii_eye(samples: np.ndarray, n_chips: int = 40, per_chip: int = 4) -> str:
    """A crude text rendering of the first chips of a real signal."""
    chips = samples[: n_chips * per_chip].reshape(n_chips, per_chip).mean(axis=1)
    lo, hi = np.percentile(chips, 5), np.percentile(chips, 95)
    span = max(hi - lo, 1e-12)
    return "".join("#" if (c - lo) / span > 0.5 else "_" for c in chips)


def main() -> None:
    scene, _, _ = parking_scene(target_spots=[1, 2, 3, 4, 5], n_background_cars=0, rng=31)
    simulator = scene.simulator(0, rng=32)

    first = simulator.query(0.0)
    peaks = extract_cfo_peaks(first.antenna(0), min_snr_db=15)
    target = peaks[0]
    print("=== Decoding under collision: 5 tags answering at once ===")
    print(f"detected spikes: {[round(p.cfo_hz / 1e3, 1) for p in peaks]} kHz")
    print(f"target: CFO {target.cfo_hz / 1e3:.1f} kHz")
    print()

    # --- Fig 8: the averaged signal becomes decodable -----------------------
    captures = [simulator.query(i * 1e-3).antenna(0) for i in range(16)]
    cfo = refine_frequencies(
        captures[0].samples, captures[0].times(), [target.cfo_hz], span_hz=977.0
    )[0]
    accumulator = np.zeros(captures[0].n_samples, dtype=complex)
    print("chip pattern of the compensated accumulation (first 40 chips):")
    for j, capture in enumerate(captures, start=1):
        h = estimate_channel(capture, cfo)
        t = capture.times()
        accumulator += capture.samples * np.exp(-2j * np.pi * cfo * t) / h
        if j in (1, 8, 16):
            print(f"  after {j:2d} replies: {ascii_eye(accumulator.real)}")
    print("  (Fig 8: random -> bits emerge after ~8-16 averages)")
    print()

    # --- the full stopping-rule decoder (§12.4), MRC vs one antenna ---------
    decoder = CoherentDecoder(scene.sample_rate_hz)
    sessions = {
        policy: DecodeSession(
            query_fn=lambda t: simulator.query(t), decoder=decoder, combining=policy
        )
        for policy in ("mrc", "single")
    }
    results = {
        policy: session.decode_all([p.cfo_hz for p in peaks], max_queries=64)
        for policy, session in sessions.items()
    }
    print("per-tag decode cost (1 query = 1 ms of air time):")
    for cfo_hz, result in sorted(results["mrc"].items()):
        status = (
            f"serial {result.packet.fields.serial_number:10d} "
            f"in {result.n_queries:2d} queries ({result.identification_time_ms:4.1f} ms)"
            if result.success
            else "FAILED within budget"
        )
        baseline = results["single"][cfo_hz]
        print(
            f"  CFO {cfo_hz / 1e3:7.1f} kHz: {status}"
            f"  [1 antenna: {baseline.n_queries:2d} queries]"
        )
    print("(Fig 16: ~4 ms at 2 colliding tags, ~16 ms at 5, growing with density;")
    print(" maximum-ratio combining the three antennas cuts the query count)")
    print()

    # --- the strawman: band-pass filtering (§8) -----------------------------
    bandpass = BandpassDecoder(half_bandwidth_hz=25e3)
    packet = bandpass.decode(captures[0], cfo)
    print("band-pass-filter decoder on the same capture:",
          "decoded (?!)" if packet else "fails (CRC never passes)")
    print("OOK data is spread across the band - filtering around the spike")
    print("throws the data away with the interference.")


if __name__ == "__main__":
    main()
