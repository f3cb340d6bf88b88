#!/usr/bin/env python3
"""Leader election (SST) with ABS: watch asynchrony at work.

Runs the paper's ABS algorithm (Fig. 3) on the same station set under
three progressively nastier slot adversaries, printing the election
timeline for each.  The rendered glyphs show the paper's mechanics
directly: bit-0 stations transmit after short listens, bit-1 stations
overhear them and drop out, collisions push survivors to the next bit.

Run:  python examples/leader_election_demo.py
"""

from repro.algorithms import ABSLeaderElection
from repro.analysis import abs_slot_upper_bound
from repro.core import Simulator, Trace
from repro.timing import PerStationFixed, RandomUniform, Synchronous
from repro.viz import render_timeline

N, R = 5, 2

SCENARIOS = [
    ("synchronous (all slots length 1)", Synchronous(), 1),
    (
        "fixed speed skew (1 : 5/4 : 3/2 : 7/4 : 2)",
        PerStationFixed({1: 1, 2: "5/4", 3: "3/2", 4: "7/4", 5: 2}),
        R,
    ),
    ("random slot lengths in [1, 2]", RandomUniform(R, seed=13), R),
]


def main() -> None:
    for title, adversary, r_bound in SCENARIOS:
        algos = {i: ABSLeaderElection(i, r_bound) for i in range(1, N + 1)}
        trace = Trace(record_slots=True)
        sim = Simulator(
            algos, adversary, max_slot_length=r_bound, trace=trace,
            keep_channel_history=True,
        )
        solved_at = sim.run_until_success(max_events=2_000_000)
        sim.run_until_all_done(sim.events_processed + 500)
        winner = next(i for i, a in algos.items() if a.outcome == "won")
        bound = abs_slot_upper_bound(N, r_bound)

        print(f"\n=== {title} ===")
        print(
            f"SST solved at t = {solved_at}; winner: station {winner}; "
            f"max slots used: {sim.max_slots_elapsed()} "
            f"(Theorem 1 bound: {bound})"
        )
        print(render_timeline(trace, width=92))

    print(
        "\nEvery scenario elected exactly one leader — the paper's SST "
        "guarantee — at a slot cost within the O(R^2 log n) bound."
    )


if __name__ == "__main__":
    main()
