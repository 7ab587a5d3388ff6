"""Unit tests for repro.core.mac and repro.sim.medium (§9)."""

import numpy as np
import pytest

from repro.constants import (
    CSMA_LISTEN_S,
    QUERY_DURATION_S,
    RESPONSE_DURATION_S,
    TURNAROUND_S,
)
from repro.core.mac import CsmaState, ReaderMac
from repro.errors import ConfigurationError
from repro.sim.medium import AirLog, Medium, ReaderNode, Transmission, TxKind


def random_air_log(seed: int) -> AirLog:
    """A seeded log recorded out of time order (bounded jitter plus a few
    stragglers), mixing positioned and unpositioned (``x_m=None``)
    transmissions and queries far longer than the standard 20 µs."""
    rng = np.random.default_rng(seed)
    air = AirLog()
    t = 0.0
    for _ in range(400):
        t += float(rng.exponential(150e-6))
        start = t + float(rng.uniform(-300e-6, 300e-6))
        if rng.random() < 0.03:
            start -= float(rng.uniform(0.0, 20e-3))  # a late record
        x_m = None if rng.random() < 0.3 else float(rng.uniform(0.0, 3000.0))
        roll = rng.random()
        if roll < 0.35:
            air.record_query(f"r{rng.integers(4)}", start, x_m=x_m)
        elif roll < 0.4:
            air.record(
                Transmission(
                    TxKind.QUERY,
                    "long",
                    start,
                    start + float(rng.uniform(0.0, 5e-3)),
                    x_m=x_m,
                )
            )
        else:
            air.record_response(f"tag{rng.integers(20)}", start, x_m=x_m)
    return air


class TestCsmaState:
    def test_idle_forever_when_silent(self):
        assert CsmaState().idle_since(5.0) == float("inf")

    def test_busy_interval_blocks(self):
        state = CsmaState()
        state.add_busy(1.0, 2.0)
        assert state.idle_since(1.5) == 0.0

    def test_idle_after_interval(self):
        state = CsmaState()
        state.add_busy(1.0, 2.0)
        assert state.idle_since(2.5) == pytest.approx(0.5)

    def test_intervals_merge(self):
        state = CsmaState()
        state.add_busy(1.0, 2.0)
        state.add_busy(1.5, 3.0)
        assert state.busy_intervals == [(1.0, 3.0)]

    def test_disjoint_intervals_kept(self):
        state = CsmaState()
        state.add_busy(1.0, 2.0)
        state.add_busy(5.0, 6.0)
        assert len(state.busy_intervals) == 2

    def test_empty_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            CsmaState().add_busy(2.0, 2.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            CsmaState().add_busy(1.0, 2.0, kind="chirp")

    def test_interval_ending_exactly_at_t_is_zero_idle(self):
        """A transmission ending exactly at ``t_s`` means the medium has
        been idle for zero time — the listen window starts over."""
        state = CsmaState()
        state.add_busy(1.0, 2.0)
        assert state.idle_since(2.0) == 0.0
        assert not ReaderMac().can_transmit(2.0, state)

    def test_abutting_intervals_merge(self):
        """Back-to-back energy is one continuous busy stretch."""
        state = CsmaState()
        state.add_busy(1.0, 2.0)
        state.add_busy(2.0, 3.0)
        assert state.busy_intervals == [(1.0, 3.0)]
        assert state.idle_since(3.0) == 0.0
        assert state.idle_since(3.5) == pytest.approx(0.5)

    def test_response_energy_subtracts_query_spans(self):
        state = CsmaState()
        state.add_busy(1.0, 4.0)  # unknown energy
        state.add_busy(2.0, 3.0, kind="query")
        assert state.response_energy_intervals() == [(1.0, 2.0), (3.0, 4.0)]

    def test_pure_query_energy_leaves_no_response_energy(self):
        state = CsmaState()
        state.add_busy(1.0, 2.0, kind="query")
        assert state.response_energy_intervals() == []
        assert state.response_idle_since(5.0) == float("inf")

    def test_response_windows_follow_each_query(self):
        state = CsmaState()
        state.add_busy(0.0, 20e-6, kind="query")
        (window,) = state.response_windows()
        assert window[0] == pytest.approx(20e-6 + TURNAROUND_S)
        assert window[1] == pytest.approx(20e-6 + TURNAROUND_S + RESPONSE_DURATION_S)


class TestReaderMac:
    def test_listen_window_is_120us(self):
        assert CSMA_LISTEN_S == pytest.approx(120e-6)
        assert CSMA_LISTEN_S == pytest.approx(QUERY_DURATION_S + TURNAROUND_S)

    def test_transmit_allowed_on_silent_medium(self):
        assert ReaderMac().can_transmit(0.0, CsmaState())

    def test_blocked_right_after_activity(self):
        state = CsmaState()
        state.add_busy(0.0, 1e-3)
        mac = ReaderMac()
        assert not mac.can_transmit(1e-3 + 50e-6, state)

    def test_allowed_after_full_listen(self):
        state = CsmaState()
        state.add_busy(0.0, 1e-3)
        mac = ReaderMac()
        assert mac.can_transmit(1e-3 + 121e-6, state)

    def test_next_opportunity(self):
        state = CsmaState()
        state.add_busy(0.0, 1e-3)
        mac = ReaderMac()
        t = mac.next_opportunity(1e-3, state)
        assert t == pytest.approx(1e-3 + CSMA_LISTEN_S)
        assert mac.can_transmit(t, state)

    def test_guaranteed_safe_predicate(self):
        mac = ReaderMac()
        assert mac.guaranteed_safe(130e-6)
        assert not mac.guaranteed_safe(100e-6)


class TestDeferToQueriesPolicies:
    """The §9 refinement: classified query energy is benign, while
    response energy, response windows and unclassified energy defer."""

    def query_just_ended(self, end_s=1.0):
        state = CsmaState()
        state.add_busy(end_s - QUERY_DURATION_S, end_s, kind="query")
        return state

    def test_default_policy_ignores_query_energy(self):
        """Right after another reader's query ends, a §9 reader may
        transmit — its own 20 µs query finishes before the other
        query's response slot opens."""
        state = self.query_just_ended(1.0)
        assert ReaderMac().can_transmit(1.0 + 10e-6, state)

    def test_default_policy_honors_response_window(self):
        """The query may not land inside the response slot a heard query
        opened (that is the §9 harmful case)."""
        state = self.query_just_ended(1.0)
        inside = 1.0 + TURNAROUND_S + 50e-6
        assert not ReaderMac().can_transmit(inside, state)

    def test_default_policy_keeps_own_slot_clear_of_announced_queries(self):
        """A reader never invites responses into a query it already
        knows is coming (an announced burst query)."""
        state = CsmaState()
        now = 1.0
        state.add_busy(now + 300e-6, now + 320e-6, kind="query")  # announced
        mac = ReaderMac()
        assert not mac.can_transmit(now, state)  # slot would cover it
        t = mac.next_opportunity(now, state)
        assert t > now
        assert mac.can_transmit(t, state)

    def test_both_policies_defer_to_unclassified_energy(self):
        state = CsmaState()
        state.add_busy(1.0 - 50e-6, 1.0)  # unknown kind
        assert not ReaderMac().can_transmit(1.0 + 50e-6, state)

    def test_next_opportunity_agrees_with_can_transmit(self):
        state = CsmaState()
        state.add_busy(0.0, 1e-3)
        state.add_busy(2e-3, 2.02e-3, kind="query")
        mac = ReaderMac()
        t = mac.next_opportunity(1e-3, state)
        assert mac.can_transmit(t, state)


class TestAirLog:
    def test_heard_state_classifies_kinds(self):
        air = AirLog()
        air.record_query("A", 0.0)
        air.record_response("tag0", 120e-6)
        state = air.heard_state(1e-3)
        assert state.query_spans() == [(0.0, QUERY_DURATION_S)]
        assert state.response_energy_intervals() == [
            (120e-6, 120e-6 + RESPONSE_DURATION_S)
        ]

    def test_announced_transmissions_visible(self):
        """Future-start recorded transmissions (a burst's remaining
        queries) are part of the carrier-sense picture."""
        air = AirLog()
        air.record_query("A", 5e-3)
        state = air.heard_state(1e-3)
        assert state.query_spans() == [(5e-3, 5e-3 + QUERY_DURATION_S)]
        # ... but future energy does not reset the idle clock.
        assert state.idle_since(1e-3) == float("inf")

    def test_corruption_accounting(self):
        air = AirLog()
        response = air.record_response("tag0", 0.0)
        air.record_query("B", 100e-6)  # lands inside the response
        assert air.corrupted_responses() == [response]
        assert air.response_corrupted(response)

    def test_horizon_drops_ancient_history(self):
        air = AirLog()
        air.record_query("A", 0.0)
        state = air.heard_state(1.0, horizon_s=10e-3)
        assert state.busy_intervals == []

    def test_distance_gates_sensing_and_corruption(self):
        """Mesh worlds: a far-away street's query is neither carrier-
        sensed nor able to corrupt a response; placing it near restores
        the single-street behavior; positions or range missing mean
        'audible everywhere' (the pre-mesh default, unchanged)."""
        air = AirLog()
        air.record_query("far", 100e-6, x_m=2000.0)
        response = air.record_response("tag0", 0.0, x_m=0.0)
        # A listener at x=0 with a 500 m hearing range hears the nearby
        # response but not the distant query.
        state = air.heard_state(1e-3, x_m=0.0, hear_range_m=500.0)
        assert state.query_spans() == []
        assert state.response_energy_intervals() == [(0.0, RESPONSE_DURATION_S)]
        assert not air.any_query_overlapping(
            response.start_s, response.end_s, x_m=0.0, hear_range_m=500.0
        )
        assert air.corrupted_responses(interference_range_m=500.0) == []
        assert not air.response_corrupted(response, interference_range_m=500.0)
        # The same query placed nearby is heard and corrupts.
        near = air.record_query("near", 150e-6, x_m=100.0)
        assert air.any_query_overlapping(
            response.start_s, response.end_s, x_m=0.0, hear_range_m=500.0
        )
        assert air.corrupted_responses(interference_range_m=500.0) == [response]
        # Without a range (or without positions), everything interferes.
        assert air.corrupted_responses() == [response]
        legacy = AirLog()
        legacy_response = legacy.record_response("tag0", 0.0)
        legacy.record_query("B", 100e-6)
        assert legacy.corrupted_responses(interference_range_m=1.0) == [
            legacy_response
        ]
        assert near.reaches(0.0, 500.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_corrupted_responses_sweep_matches_brute_force(self, seed):
        """The sweep returns exactly the responses the per-response
        brute-force check flags, in record order. The logs record out of
        time order (bounded jitter plus a few stragglers), mix positioned
        and unpositioned (``x_m=None``) transmissions, include queries
        far longer than the standard 20 µs, and are checked with and
        without a distance gate."""
        air = random_air_log(seed)
        for range_m in (None, 500.0, 0.0):
            expected = [
                r
                for r in air.responses()
                if air.response_corrupted(r, interference_range_m=range_m)
            ]
            assert expected, "the random log must exercise corruption"
            swept = air.corrupted_responses(interference_range_m=range_m)
            assert [id(r) for r in swept] == [id(r) for r in expected]

    @pytest.mark.parametrize("seed", range(8))
    def test_stepped_on_matches_brute_force(self, seed):
        """The bounded overlap check agrees with a scan of every query,
        with and without an excluded own query, a receiver position and
        a distance gate."""
        air = random_air_log(seed)
        queries = air.queries()
        rng = np.random.default_rng(100 + seed)
        horizon_s = max(q.end_s for q in queries)
        hits = excluded_hits = 0
        for _ in range(300):
            own = queries[int(rng.integers(len(queries)))] if rng.random() < 0.5 else None
            if own is None:
                start = float(rng.uniform(0.0, horizon_s))
                exclude = None
            else:
                # Open the interval inside the own query so excluding it matters.
                start = float(rng.uniform(own.start_s, own.end_s))
                exclude = (own.source, own.start_s)
            end = start + float(rng.choice([RESPONSE_DURATION_S, rng.uniform(1e-6, 2e-3)]))
            x_m = None if rng.random() < 0.3 else float(rng.uniform(0.0, 3000.0))
            for range_m in (None, 500.0, 0.0):
                expected = any(
                    q.start_s < end
                    and q.end_s > start
                    and q.reaches(x_m, range_m)
                    and (q.source, q.start_s) != exclude
                    for q in queries
                )
                got = air.stepped_on(start, end, exclude=exclude, x_m=x_m, range_m=range_m)
                assert got == expected
                hits += expected
                excluded_hits += exclude is not None and not expected and air.stepped_on(
                    start, end, x_m=x_m, range_m=range_m
                )
        assert hits, "the random intervals must exercise overlaps"
        assert excluded_hits, "the exclusion must change some verdicts"


class TestMedium:
    def test_csma_avoids_query_response_corruption(self):
        """§9's claim: with the 120 us listen rule, no reader query ever
        lands on top of a tag response."""
        medium = Medium(n_tags=3, rng=1)
        for name in ("A", "B", "C"):
            medium.add_reader(ReaderNode(name=name, use_csma=True))
        stats = medium.run(duration_s=0.5)
        assert stats["responses"] > 100
        assert stats["corrupted_responses"] == 0

    def test_blind_readers_corrupt_responses(self):
        """Without carrier sense, queries land inside response windows."""
        medium = Medium(n_tags=3, rng=2)
        for name in ("A", "B", "C"):
            medium.add_reader(ReaderNode(name=name, use_csma=False))
        stats = medium.run(duration_s=0.5)
        assert stats["corrupted_responses"] > 0

    def test_csma_defers_sometimes(self):
        medium = Medium(n_tags=2, rng=3)
        medium.add_reader(ReaderNode(name="A", use_csma=True, query_interval_s=0.7e-3))
        medium.add_reader(ReaderNode(name="B", use_csma=True, query_interval_s=0.7e-3))
        stats = medium.run(duration_s=0.5)
        assert stats["queries_deferred"] > 0
        assert stats["corrupted_responses"] == 0

    def test_queries_trigger_responses(self):
        medium = Medium(n_tags=4, rng=4)
        medium.add_reader(ReaderNode(name="A"))
        stats = medium.run(duration_s=0.1)
        assert stats["responses"] == 4 * stats["queries_sent"]

    def test_single_reader_never_defers(self):
        medium = Medium(n_tags=1, rng=5)
        medium.add_reader(ReaderNode(name="solo", query_interval_s=2e-3))
        stats = medium.run(duration_s=0.2)
        assert stats["queries_deferred"] == 0
        assert stats["corrupted_responses"] == 0

    def test_transmission_overlap_logic(self):
        a = Transmission(TxKind.QUERY, "A", 0.0, 1.0)
        b = Transmission(TxKind.RESPONSE, "t", 0.5, 1.5)
        c = Transmission(TxKind.RESPONSE, "t", 1.0, 2.0)
        assert a.overlaps(b)
        assert not a.overlaps(c)
