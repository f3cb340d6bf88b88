"""Property tests: the O(1)-per-event all-done stop equals the fleet scan.

``Simulator.run_until_all_done`` re-reads ``is_done`` only for the
station each event stepped.  The oracle is the idiom it replaces,
``run(stop_when=lambda s: all(a.is_done ...))``, which rescans the whole
fleet after every event.  On generated SST scenarios — every SST
algorithm, small ``n``, sync/worst/random schedules, seeds and crash
faults, including a station that crashes after it is done — both must
stop on the same event and leave the same state, and report the same
result when ``max_events`` runs out first.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from repro.core import Simulator
from repro.core.errors import ConfigurationError
from repro.core.station import AlwaysListen
from repro.scenarios import ScenarioSpec
from repro.timing import Synchronous

SEARCH_BUDGET = 20_000


def _all_done(sim):
    return all(sim.algorithm(sid).is_done for sid in sim.station_ids)


def _state(sim, returned):
    """What the two stops must agree on."""
    stations = []
    for sid in sim.station_ids:
        algo = sim.algorithm(sid)
        inner = getattr(algo, "inner", algo)  # see through Crashable
        stations.append((
            inner.outcome, algo.is_done, getattr(algo, "crashed", False),
            sim.slots_elapsed(sid),
        ))
    return (
        returned,
        sim.events_processed,
        sim.now,
        sim.max_slots_elapsed(),
        tuple(stations),
        tuple(
            (t.station_id, t.interval.start, t.interval.end, t.overlapped,
             t.packet)
            for t in sim.channel.live_records
        ),
        dataclasses.astuple(sim.channel.stats),
    )


def _run_both(spec, tail_budget, search_first):
    """Run ``spec`` under the new stop and under the oracle; return both."""
    states = []
    for fast in (True, False):
        sim = spec.build(keep_channel_history=True)
        if search_first:
            sim.run_until_success(max_events=SEARCH_BUDGET)
        limit = sim.events_processed + tail_budget
        if fast:
            returned = sim.run_until_all_done(limit)
        else:
            sim.run(max_events=limit, stop_when=_all_done)
            returned = _all_done(sim)
        states.append(_state(sim, returned))
    return states


def _spec(algorithm, n, max_slot, schedule, seed, crashes=()):
    return ScenarioSpec(
        algorithm=algorithm, n=n, max_slot=max_slot, schedule=schedule,
        seed=seed, rho=None,
        faults=tuple(
            {"kind": "crash", "station": sid, "at_slot": slot}
            for sid, slot in crashes
        ),
    )


@st.composite
def sst_specs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    crashed = draw(st.lists(
        st.integers(min_value=1, max_value=n), max_size=2, unique=True
    ))
    return _spec(
        draw(st.sampled_from(["abs", "doubling", "randomized"])),
        n,
        draw(st.sampled_from([1, 2, Fraction(3, 2)])),
        draw(st.sampled_from(["sync", "worst", "random"])),
        draw(st.integers(min_value=0, max_value=1_000)),
        [(sid, draw(st.integers(min_value=0, max_value=60)))
         for sid in crashed],
    )


@given(
    spec=sst_specs(),
    tail_budget=st.one_of(
        st.integers(min_value=0, max_value=40), st.just(3_000)
    ),
    search_first=st.booleans(),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_all_done_stop_matches_fleet_scan(spec, tail_budget, search_first):
    fast, oracle = _run_both(spec, tail_budget, search_first)
    assert fast == oracle
    event("all done" if fast[0] else "max_events ran out")
    event(f"{spec.algorithm}, {len(spec.faults)} crash(es)")


def _done_slots(spec):
    """Each station's own slot count when it first reads done, and its
    slot count when the whole fleet is done (object loop, no faults)."""
    sim = spec.build(engine="object")
    done_at = {}
    while not _all_done(sim) and sim.events_processed < SEARCH_BUDGET:
        sim.run(max_events=sim.events_processed + 1)
        for sid in sim.station_ids:
            if sid not in done_at and sim.algorithm(sid).is_done:
                done_at[sid] = sim.slots_elapsed(sid)
    final = {sid: sim.slots_elapsed(sid) for sid in sim.station_ids}
    return done_at, final


@given(
    algorithm=st.sampled_from(["abs", "doubling", "randomized"]),
    n=st.integers(min_value=3, max_value=6),
    schedule=st.sampled_from(["sync", "worst", "random"]),
    seed=st.integers(min_value=0, max_value=1_000),
    search_first=st.booleans(),
)
@settings(max_examples=15, deadline=None, derandomize=True)
def test_station_crashing_after_it_is_done(
    algorithm, n, schedule, seed, search_first
):
    """A done station that crashes reads not-done again, so neither
    stop may fire: both run out of events, with the same state."""
    plain = _spec(algorithm, n, 2, schedule, seed)
    done_at, final = _done_slots(plain)
    # A station that finished before the fleet did still steps again.
    late = [sid for sid, slot in done_at.items() if final[sid] > slot]
    assume(late)
    victim = min(late, key=lambda sid: (done_at[sid], sid))
    spec = _spec(
        algorithm, n, 2, schedule, seed,
        [(victim, done_at[victim] + 1)],
    )
    fast, oracle = _run_both(spec, 3_000, search_first)
    assert fast == oracle
    returned, stations = fast[0], fast[4]
    assert returned is False
    outcome, is_done, crashed, _slots = stations[victim - 1]
    assert outcome is not None and crashed and not is_done


class _Finished(AlwaysListen):
    """A station that is done from the start."""

    is_done = True


class TestEdges:
    def test_fresh_simulator_already_done_stops_after_slot_zero(self):
        for run_new in (True, False):
            sim = Simulator([_Finished(), _Finished()], Synchronous(), 1)
            if run_new:
                assert sim.run_until_all_done(100) is True
            else:
                sim.run(max_events=100, stop_when=_all_done)
            assert sim.events_processed == 0
            assert sim.max_slots_elapsed() == 0

    def test_started_simulator_steps_once_before_checking(self):
        # run(stop_when=...) tests after each event, so a continuation
        # of an already-done fleet still processes one event.
        counts = []
        for run_new in (True, False):
            sim = Simulator([_Finished(), _Finished()], Synchronous(), 1)
            sim.run(max_events=3)
            if run_new:
                assert sim.run_until_all_done(100) is True
            else:
                sim.run(max_events=100, stop_when=_all_done)
            counts.append(sim.events_processed)
        assert counts == [4, 4]

    def test_budget_already_spent_returns_done_state(self):
        sim = Simulator([AlwaysListen(), _Finished()], Synchronous(), 1)
        sim.run(max_events=5)
        assert sim.run_until_all_done(5) is False
        assert sim.events_processed == 5

    def test_forced_batch_engine_rejects_the_per_event_stop(self):
        pytest.importorskip("numpy")
        sim = _spec("abs", 4, 2, "worst", 0).build(engine="batch")
        with pytest.raises(ConfigurationError, match="run_until_all_done"):
            sim.run_until_all_done(1_000)
