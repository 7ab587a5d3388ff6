"""Fig 8: a tag's bits emerge from the collision as replies are averaged.

The paper shows the time signal of a 5-tag collision before averaging
(random), after 8 averages (structure appears) and after 16 (decodable).
The quantitative handle is the SINR of the target's chip stream inside
the accumulated signal, which coherent combining grows linearly in N
while interferers grow as sqrt(N) (§8).
"""

import numpy as np

from bench_helpers import population_simulator
from conftest import scaled
from repro.core.cfo import estimate_channel, refine_frequencies
from repro.phy.modulation import OokModulator


def _target_sinr_db(accumulator: np.ndarray, n: int, bits: np.ndarray, fs: float) -> float:
    """SINR of the target chips inside an N-fold accumulation."""
    modulator = OokModulator(sample_rate_hz=fs)
    ideal = modulator.modulate_bits(bits) * n
    residual = accumulator.real[: ideal.size] - ideal
    signal_power = np.mean((ideal - ideal.mean()) ** 2)
    noise_power = np.mean(residual**2)
    return float(10 * np.log10(signal_power / noise_power))


def bench_fig08_averaging(benchmark, report):
    repeats = scaled(6)

    def experiment():
        sinr_by_n = {1: [], 4: [], 8: [], 16: []}
        decodable_at = []
        for seed in range(repeats):
            simulator = population_simulator(m=5, seed=800 + seed)
            collision = simulator.query(0.0)
            # Pick the strongest tag as the target, like the figure.
            strengths = [abs(e.channels[0]) for e in collision.truth]
            target = collision.truth[int(np.argmax(strengths))]
            cfo0 = target.cfo_hz(collision.lo_hz)
            captures = [simulator.query(i * 1e-3).antenna(0) for i in range(16)]
            cfo = refine_frequencies(
                captures[0].samples, captures[0].times(), [cfo0], span_hz=977.0
            )[0]
            accumulator = np.zeros(captures[0].n_samples, dtype=complex)
            for n, capture in enumerate(captures, start=1):
                h = estimate_channel(capture, cfo)
                t = capture.times()
                accumulator += capture.samples * np.exp(-2j * np.pi * cfo * t) / h
                if n in sinr_by_n:
                    sinr_by_n[n].append(
                        _target_sinr_db(
                            accumulator, n, target.response.bits, capture.sample_rate_hz
                        )
                    )
            decodable_at.append(np.nan)
        return {n: float(np.mean(v)) for n, v in sinr_by_n.items()}

    sinr = benchmark.pedantic(experiment, rounds=1, iterations=1)

    report("Fig 8 — target chip SINR vs number of averaged replies (5-tag collision)")
    for n in (1, 4, 8, 16):
        bar = "#" * max(0, int(round(sinr[n] + 10)))
        report(f"  N = {n:2d}: {sinr[n]:6.1f} dB  {bar}")
    report("")
    report("paper: bits are visually random at N=1, decodable by N=16")

    assert sinr[16] > sinr[8] > sinr[1], "SINR must grow with averaging"
    gain = sinr[16] - sinr[1]
    assert 7.0 < gain < 18.0, f"~N scaling expected (12 dB for 16x), got {gain:.1f} dB"
