"""Fig. 2: synchronous vs asynchronous transmission schedules.

The paper's figure shows three stations solving SST quickly under
synchrony while an asynchronous execution of the same protocol needs
more slots.  We regenerate both panels as ASCII timelines from real ABS
executions and assert the figure's quantitative moral: the asynchronous
run costs at least as many slots (and more wall-clock time) than the
synchronous one.
"""

from repro.algorithms import ABSLeaderElection
from repro.core import Simulator, Trace
from repro.timing import PerStationFixed, Synchronous
from repro.viz import render_timeline

from .reporting import emit

N, R_ASYNC = 3, 2


def _run(adversary, R):
    algos = {i: ABSLeaderElection(i, R) for i in range(1, N + 1)}
    trace = Trace(record_slots=True)
    sim = Simulator(
        algos, adversary, max_slot_length=R, trace=trace,
        keep_channel_history=True,
    )
    end = sim.run_until_success(max_events=200_000)
    assert end is not None
    # Let every station observe the outcome so the full schedule renders.
    sim.run_until_all_done(sim.events_processed + 200)
    return sim, trace, end


def test_fig2_sync_vs_async_schedule(benchmark):
    def run():
        sync = _run(Synchronous(), R=1)
        asynchronous = _run(
            PerStationFixed({1: 1, 2: "3/2", 3: 2}), R=R_ASYNC
        )
        return sync, asynchronous

    (sync_sim, sync_trace, sync_end), (async_sim, async_trace, async_end) = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    lines = [
        "Fig. 2: three stations solving SST (ABS)",
        "",
        f"-- synchronous execution (R = 1), SST solved at t = {sync_end} --",
        render_timeline(sync_trace, width=88),
        "",
        f"-- asynchronous execution (R = {R_ASYNC}, speeds 1 : 3/2 : 2), "
        f"SST solved at t = {async_end} --",
        render_timeline(async_trace, width=88),
    ]
    emit("fig2_schedules", lines)

    # The figure's moral: asynchrony does not come for free.
    assert async_end >= sync_end
    assert async_sim.max_slots_elapsed() >= sync_sim.max_slots_elapsed() - 1
    # Both panels really show per-slot feedback for all three stations.
    for trace in (sync_trace, async_trace):
        assert {record.station_id for record in trace.slots} == {1, 2, 3}
