"""The vectorized batch engine is observably invisible.

Contract under test (see ``docs/vectorization.md``):

* **Auto-detection** — ``Simulator(engine="auto")`` promotes exactly the
  lattice-eligible runs whose algorithm and adversary classes have
  registered vector programs; every other configuration demotes to the
  object path with a human-readable reason in ``engine_detail``, and a
  *forced* ``engine="batch"`` raises that same reason.
* **Parity** — for every eligible configuration the batch kernel
  produces a bit-identical execution: same events, same delivery
  instants (exact rationals), same channel counters, same retained
  channel history, same pending event heap, same per-station runtime
  state.  Not approximately — ``==`` on everything.
* **Transparency** — engine choice never leaks into results: grid
  cells, chaos-disturbed pools, and trace spans agree with the object
  path in everything but wall-clock.
"""

import dataclasses
import enum
import pathlib
import random
from fractions import Fraction

import pytest

np = pytest.importorskip("numpy")

from repro.algorithms import (
    AOArrow,
    ABSLeaderElection,
    CAArrow,
    FaultTolerantCAArrow,
    KSelection,
    MBTFLike,
    NaiveTDMA,
    RRW,
    SlottedAloha,
)
from repro.analysis import run_cell
from repro.arrivals import ArrivalSource, StaticSchedule, UniformRate
from repro.core import Simulator
from repro.core.batch import BATCH_ALGORITHMS, BATCH_SCHEDULES, batch_blocker
from repro.core.errors import ConfigurationError, ProtocolError
from repro.core.station import (
    LISTEN,
    TRANSMIT_CONTROL,
    TRANSMIT_PACKET,
    AlwaysListen,
    AlwaysTransmit,
)
from repro.core.trace import Trace
from repro.obs.probes import ProbeBus
from repro.obs.profiling import PhaseProfiler
from repro.obs.tracing import Tracer, activate, deactivate
from repro.scenarios import ScenarioSpec, load_spec
from repro.scenarios.registry import ALGORITHMS, SCHEDULES
from repro.timing import (
    Adaptive,
    CyclicPattern,
    FixedLength,
    PerStationFixed,
    RandomUniform,
    Synchronous,
    TableDriven,
)
from repro.timing.adversary import WorstCaseCyclic

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"

#: Registered scenario algorithms with a vector program (everything
#: else must demote, naming its class).  The adaptive families — ABS
#: and the ARRoWs — promote through the masked-update programs of
#: ``repro.core.batch_adaptive``; ``doubling``/``randomized`` remain
#: object-path (no registered program).
BATCH_ELIGIBLE_ALGORITHMS = {
    "aloha", "mbtf", "rrw", "tdma",
    "abs", "ao-arrow", "ca-arrow", "ca-arrow-ft",
}

#: Scenario algorithms whose programs are adaptive masked-update ones.
ADAPTIVE_BATCH_ALGORITHMS = {"abs", "ao-arrow", "ca-arrow", "ca-arrow-ft"}

#: Bundled scenario files expected to auto-promote / demote.  The crash
#: and jammed ARRoW scenarios stay object-path: ``crash_fleet`` wraps
#: every station in ``Crashable`` (no program) and jammers make the
#: fleet heterogeneous.
BATCH_ELIGIBLE_SCENARIOS = {
    "aloha_random", "mbtf_sync", "rrw_sync", "tdma_sync",
    "abs_election_worst", "ao_arrow_worst", "ca_arrow_worst",
}

#: Registered schedule names -> extra spec parameters they require.
SCHEDULE_PARAMS = {
    "sync": {},
    "worst": {},
    "random": {},
    "fixed": {"length": "3/2"},
    "per-station-fixed": {"lengths": {"1": "1", "2": "3/2", "3": "2", "4": "1"}},
    "cyclic": {"patterns": {"1": ["1", "3/2"], "2": ["2", "1"],
                            "3": ["1"], "4": ["3/2"]}},
}


def spec_for(algorithm, schedule="sync", **overrides):
    params = dict(
        algorithm=algorithm, n=4, max_slot=2, rho="1/2", horizon=200,
        schedule={"name": schedule, **SCHEDULE_PARAMS.get(schedule, {})},
    )
    params.update(overrides)
    return ScenarioSpec(**params)


def fingerprint(sim, drain=True):
    """Every observable of a run — plus internal scheduling state.

    Stricter than the golden-parity fingerprint: the pending event
    heap, per-station runtime fields, and the retained channel record
    list must match too, so a batch run can be *continued* by the
    object loop (or vice versa) without any divergence later.
    """
    if drain:
        sim.channel.drain_all(sim.now)
    return (
        sim.events_processed,
        sim.now,
        sim.total_backlog,
        sim.trace.max_backlog,
        tuple(
            (p.packet_id, p.station_id, p.arrival_time, p.delivered_time,
             p.cost)
            for p in sim.delivered_packets
        ),
        dataclasses.astuple(sim.channel.stats),
        tuple(sorted(sim._event_heap)),
        tuple(
            (rt.station_id, rt.slot_index, rt.slot_start, rt.slot_end,
             rt.slots_elapsed, len(rt.queue))
            for rt in (sim.stations[sid] for sid in sim.station_ids)
        ),
        tuple(
            (t.station_id, t.interval.start, t.interval.end, t.overlapped,
             t.packet.packet_id if t.packet is not None else None)
            for t in sim.channel._transmissions
        ),
    )


def paired(spec, **build_kwargs):
    object_sim = spec.build(engine="object", **build_kwargs)
    batch_sim = spec.build(engine="batch", **build_kwargs)
    assert object_sim.engine == "object"
    assert batch_sim.engine == "batch"
    return object_sim, batch_sim


class LatticeNoHintSource(ArrivalSource):
    """On the integer lattice but adaptive: no ``next_arrival_hint``."""

    def arrivals_until(self, sim, upto):
        return ()

    def lattice_denominator(self):
        return 1


class TestEngineAutoDetection:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS.names()))
    def test_every_registered_algorithm_resolves_with_reason(self, name):
        sim = spec_for(name).build()
        if name in BATCH_ELIGIBLE_ALGORITHMS:
            assert sim.engine == "batch"
            # Promotion names the matched vector programs (satellite of
            # the adaptive-vectorization issue: --verbose-engine prints
            # the promotion path, not just demotion reasons).
            assert sim.engine_detail.startswith("promoted: ")
            cls = type(next(iter(sim.stations.values())).algorithm)
            assert cls.__name__ in sim.engine_detail
            assert f"{cls.__name__}Program" in sim.engine_detail
            if name in ADAPTIVE_BATCH_ALGORITHMS:
                assert "adaptive masked-update" in sim.engine_detail
                assert sim.engine_described == "batch(adaptive)"
            else:
                assert "non-adaptive" in sim.engine_detail
                assert sim.engine_described == "batch(nonadaptive)"
        else:
            # Ineligible -> object path, and the reason names the
            # blocking class so `repro run` output is actionable.
            assert sim.engine == "object"
            assert sim.engine_detail is not None
            cls = type(next(iter(sim.stations.values())).algorithm)
            assert cls.__name__ in sim.engine_detail

    @pytest.mark.parametrize("name", sorted(SCHEDULES.names()))
    def test_every_registered_schedule_is_vectorized(self, name):
        sim = spec_for("rrw", schedule=name).build()
        assert sim.engine == "batch", sim.engine_detail

    def test_registries_are_populated(self):
        assert {cls.__name__ for cls in BATCH_ALGORITHMS} >= {
            "SlottedAloha", "NaiveTDMA", "RRW", "MBTFLike", "KSelection",
            "ABSLeaderElection", "AOArrow", "CAArrow",
            "FaultTolerantCAArrow",
        }
        adaptive = {
            cls.__name__
            for cls, prog in BATCH_ALGORITHMS.items()
            if prog.adaptive
        }
        assert adaptive == {
            "ABSLeaderElection", "AOArrow", "CAArrow",
            "FaultTolerantCAArrow",
        }
        assert {cls.__name__ for cls in BATCH_SCHEDULES} >= {
            "Synchronous", "FixedLength", "PerStationFixed",
            "CyclicPattern", "WorstCaseCyclic", "TableDriven",
            "RandomUniform",
        }

    def test_off_lattice_adversary_demotes_with_reason(self):
        adversary = Adaptive(lambda sim, sid, idx: Fraction(3, 2))
        sim = Simulator(
            {i: RRW(i, 3) for i in range(1, 4)}, adversary,
            max_slot_length=2,
        )
        assert sim.engine == "object"
        assert "Fraction timebase" in sim.engine_detail

    def test_unvectorized_adversary_on_lattice_demotes_by_name(self):
        class RigidSync(Synchronous):
            """Lattice-friendly subclass with no registered program."""

        sim = Simulator(
            {i: RRW(i, 3) for i in range(1, 4)}, RigidSync(),
            max_slot_length=2,
        )
        assert sim.timebase.is_lattice
        assert sim.engine == "object"
        assert "RigidSync" in sim.engine_detail

    def test_probe_bus_demotes(self):
        spec = spec_for("rrw")
        sim = spec.build(probes=ProbeBus())
        assert sim.engine == "object"
        assert "ProbeBus" in sim.engine_detail

    def test_profiler_demotes(self):
        sim = spec_for("rrw").build(profiler=PhaseProfiler())
        assert sim.engine == "object"
        assert "PhaseProfiler" in sim.engine_detail

    def test_record_slots_demotes(self):
        sim = spec_for("rrw").build(trace=Trace(record_slots=True))
        assert sim.engine == "object"
        assert "record_slots" in sim.engine_detail

    def test_mixed_algorithm_classes_demote(self):
        fleet = {1: RRW(1, 3), 2: RRW(2, 3), 3: SlottedAloha(3, 0.5)}
        sim = Simulator(fleet, Synchronous(), max_slot_length=2)
        assert sim.engine == "object"
        assert "mixed" in sim.engine_detail

    def test_hintless_source_demotes(self):
        sim = Simulator(
            {i: RRW(i, 3) for i in range(1, 4)}, Synchronous(),
            max_slot_length=2, arrival_source=LatticeNoHintSource(),
        )
        assert sim.timebase.is_lattice
        assert sim.engine == "object"
        assert "next_arrival_hint" in sim.engine_detail

    def test_forced_batch_raises_the_detection_reason(self):
        spec = spec_for("doubling", rho=None)
        reason = batch_blocker(spec.build())
        with pytest.raises(ConfigurationError, match="DoublingABS"):
            spec.build(engine="batch")
        assert "DoublingABS" in reason

    def test_mixed_adaptive_nonadaptive_fleet_demotes(self):
        from repro.algorithms import AOArrow

        fleet = {1: AOArrow(1, 3, 2), 2: AOArrow(2, 3, 2), 3: RRW(3, 3)}
        sim = Simulator(fleet, Synchronous(), max_slot_length=2)
        assert sim.engine == "object"
        assert "mixed" in sim.engine_detail
        assert "AOArrow" in sim.engine_detail and "RRW" in sim.engine_detail
        with pytest.raises(ConfigurationError, match="mixed"):
            Simulator(
                dict(fleet), Synchronous(), max_slot_length=2,
                engine="batch",
            )

    def test_abs_threshold_overrides_demote(self):
        from repro.algorithms import ABSLeaderElection

        fleet = {i: ABSLeaderElection(i, 2) for i in range(1, 5)}
        fleet[2].core.threshold0_override = 7
        fleet[2].core.__post_init__()
        sim = Simulator(fleet, Synchronous(), max_slot_length=2)
        assert sim.engine == "object"
        assert "threshold overrides" in sim.engine_detail
        with pytest.raises(ConfigurationError, match="threshold overrides"):
            Simulator(
                dict(fleet), Synchronous(), max_slot_length=2,
                engine="batch",
            )

    def test_adaptive_fraction_timebase_falls_back_with_reason(self):
        from repro.algorithms import CAArrow as CA

        adversary = Adaptive(lambda sim, sid, idx: Fraction(3, 2))
        sim = Simulator(
            {i: CA(i, 3, 2) for i in range(1, 4)}, adversary,
            max_slot_length=2,
        )
        assert sim.engine == "object"
        assert "Fraction timebase" in sim.engine_detail
        with pytest.raises(ConfigurationError, match="Fraction timebase"):
            Simulator(
                {i: CA(i, 3, 2) for i in range(1, 4)}, adversary,
                max_slot_length=2, engine="batch",
            )

    def test_crashable_fleet_demotes_naming_the_wrapper(self):
        sim = load_spec(SCENARIOS / "ca_arrow_ft_crash.json").build()
        assert sim.engine == "object"
        assert "Crashable" in sim.engine_detail
        assert "no vectorized program" in sim.engine_detail

    def test_jammed_fleet_demotes_as_mixed(self):
        sim = load_spec(SCENARIOS / "ca_arrow_jammed.json").build()
        assert sim.engine == "object"
        assert "mixed" in sim.engine_detail

    def test_forced_batch_with_probes_raises(self):
        with pytest.raises(ConfigurationError, match="ProbeBus"):
            spec_for("rrw").build(engine="batch", probes=ProbeBus())

    def test_stop_when_auto_falls_back_forced_raises(self):
        spec = spec_for("rrw")
        auto = spec.build()  # resolves to batch
        assert auto.engine == "batch"
        auto.run(until_time=50, stop_when=lambda s: s.events_processed >= 10)
        assert auto.events_processed == 10  # per-event check ran
        forced = spec.build(engine="batch")
        with pytest.raises(ConfigurationError, match="stop_when"):
            forced.run(until_time=50, stop_when=lambda s: False)


class TestBatchObjectParity:
    @pytest.mark.parametrize(
        "path",
        sorted(p for p in SCENARIOS.glob("*.json")
               if p.stem in BATCH_ELIGIBLE_SCENARIOS),
        ids=lambda p: p.stem,
    )
    def test_eligible_bundled_scenarios_bit_identical(self, path):
        spec = load_spec(path).replace(horizon=600)
        assert spec.build().engine == "batch"
        object_sim, batch_sim = paired(spec)
        object_sim.run(until_time=spec.horizon)
        batch_sim.run(until_time=spec.horizon)
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    @pytest.mark.parametrize(
        "path",
        sorted(p for p in SCENARIOS.glob("*.json")
               if p.stem not in BATCH_ELIGIBLE_SCENARIOS),
        ids=lambda p: p.stem,
    )
    def test_ineligible_bundled_scenarios_demote_with_reason(self, path):
        sim = load_spec(path).build()
        assert sim.engine == "object"
        assert sim.engine_detail

    @pytest.mark.parametrize("schedule", sorted(SCHEDULE_PARAMS))
    def test_every_vector_schedule_bit_identical(self, schedule):
        spec = spec_for("rrw", schedule=schedule, horizon=300)
        object_sim, batch_sim = paired(spec)
        object_sim.run(until_time=spec.horizon)
        batch_sim.run(until_time=spec.horizon)
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_chunked_max_events_and_prune_boundaries(self):
        """max_events is cumulative; chunk cuts landing mid-tick-group
        must stay bit-identical, including the channel history pruned
        at every 512-event boundary (regression: the kernel once pruned
        with post-group low water instead of the boundary snapshot)."""
        spec = spec_for("rrw", n=7, horizon=400)
        object_sim, batch_sim = paired(spec)
        object_sim.run(until_time=spec.horizon)
        cuts = (7, 3, 1, 40, 5, 1000, 13)
        i = 0
        while batch_sim.now < spec.horizon:
            budget = batch_sim.events_processed + cuts[i % len(cuts)]
            batch_sim.run(until_time=spec.horizon, max_events=budget)
            if batch_sim.events_processed < budget:
                break  # horizon reached first
            i += 1
        assert object_sim.events_processed > 512  # prune actually fired
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_keep_channel_history_full_record_parity(self):
        spec = spec_for("aloha", schedule="random", horizon=250)
        object_sim, batch_sim = paired(spec, keep_channel_history=True)
        object_sim.run(until_time=spec.horizon)
        batch_sim.run(until_time=spec.horizon)
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_run_until_success_and_continuation(self):
        """SST parity: first success instant matches, and the finished
        batch run continues under the object semantics identically."""
        from repro.algorithms import KSelection
        from repro.timing import worst_case_for

        def build(engine):
            fleet = {
                i: KSelection(i, 3, Fraction(2)) for i in range(1, 13)
            }
            return Simulator(
                fleet, worst_case_for(Fraction(2)), max_slot_length=2,
                initial_packets=1, engine=engine,
            )

        object_sim, batch_sim = build("object"), build("batch")
        ends = (
            object_sim.run_until_success(max_events=100_000),
            batch_sim.run_until_success(max_events=100_000),
        )
        assert ends[0] is not None
        assert ends[0] == ends[1]
        assert fingerprint(object_sim, drain=False) == fingerprint(
            batch_sim, drain=False
        )
        object_sim.run(until_time=5000)
        batch_sim.run(until_time=5000)
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    @pytest.mark.parametrize("name", sorted(ADAPTIVE_BATCH_ALGORITHMS))
    @pytest.mark.parametrize("schedule", ["sync", "worst"])
    def test_adaptive_families_bit_identical(self, name, schedule):
        overrides = {"rho": None} if name == "abs" else {}
        spec = spec_for(name, schedule=schedule, n=6, horizon=400,
                        **overrides)
        object_sim, batch_sim = paired(spec)
        object_sim.run(until_time=spec.horizon)
        batch_sim.run(until_time=spec.horizon)
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_adaptive_chunked_max_events(self):
        """Mid-tick budget cuts on an adaptive program: the masked
        sub-steps must commute with any event-order prefix."""
        spec = spec_for("ao-arrow", n=7, horizon=400)
        object_sim, batch_sim = paired(spec)
        object_sim.run(until_time=spec.horizon)
        cuts = (7, 3, 1, 40, 5, 1000, 13)
        i = 0
        while batch_sim.now < spec.horizon:
            budget = batch_sim.events_processed + cuts[i % len(cuts)]
            batch_sim.run(until_time=spec.horizon, max_events=budget)
            if batch_sim.events_processed < budget:
                break
            i += 1
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_adaptive_engines_interleave_on_one_simulator(self):
        """Full bidirectional state sync: an auto(batch) run continued
        on a fresh object-engine clone of its own canonical state must
        agree — here checked by alternating horizon chunks against a
        pure object run."""
        spec = spec_for("ca-arrow-ft", n=5, horizon=600)
        reference = spec.build(engine="object")
        reference.run(until_time=spec.horizon)
        alternating = spec.build(engine="object")
        # Same canonical objects, alternating inner loops per chunk
        # (the kernel snapshots/writes back around every run call).
        for chunk in range(6):
            alternating._engine = "batch" if chunk % 2 else "object"
            alternating.run(until_time=(chunk + 1) * 100)
        assert fingerprint(reference) == fingerprint(alternating)

    def test_ft_skip_ladder_bit_identical(self):
        """A permanently silent ring id engages the skip/claim ladder
        (scalar hot path) on both engines identically."""
        from repro.algorithms import FaultTolerantCAArrow
        from repro.timing import worst_case_for

        def build(engine):
            fleet = {i: FaultTolerantCAArrow(i, 4, 2) for i in (1, 2, 3)}
            return Simulator(
                fleet, worst_case_for(Fraction(2)), max_slot_length=2,
                engine=engine, arrival_source=UniformRate(
                    rho=Fraction(1, 8), targets=[1, 2, 3], assumed_cost=2,
                ),
            )

        object_sim, batch_sim = build("object"), build("batch")
        object_sim.run(until_time=2000)
        batch_sim.run(until_time=2000)
        assert fingerprint(object_sim) == fingerprint(batch_sim)
        skips = sum(
            object_sim.stations[sid].algorithm.stats.skips
            for sid in object_sim.station_ids
        )
        claims = sum(
            object_sim.stations[sid].algorithm.stats.recoveries_claimed
            for sid in object_sim.station_ids
        )
        assert skips > 0 and claims > 0  # the ladder actually engaged
        for sid in object_sim.station_ids:
            a = object_sim.stations[sid].algorithm
            b = batch_sim.stations[sid].algorithm
            assert dataclasses.astuple(a.stats) == dataclasses.astuple(
                b.stats
            )
            assert (a.silent_run, a.skip_count, a.ladder_rounds) == (
                b.silent_run, b.skip_count, b.ladder_rounds
            )

    def test_ft_conflict_mode_staggering_bit_identical(self):
        """Conflict-mode claims stagger thresholds by (2R)^(id-1) with
        exact integers; identical pre-desynchronized fleets must resolve
        identically on both engines."""
        from repro.algorithms import FaultTolerantCAArrow

        def build(engine):
            fleet = {i: FaultTolerantCAArrow(i, 3, 2) for i in (1, 2, 3)}
            for i, algo in fleet.items():
                algo.conflict_mode = True
                algo.state = "claim"
                algo.skip_count = 1
                algo.silent_run = 5
                algo.turn = i
            return Simulator(
                fleet, Synchronous(), max_slot_length=2, engine=engine,
                initial_packets=2,
            )

        object_sim, batch_sim = build("object"), build("batch")
        object_sim.run(until_time=1500)
        batch_sim.run(until_time=1500)
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_ao_arrow_sync_signal_path_bit_identical(self):
        """Sparse arrivals leave super-threshold silences, engaging
        AO-ARRoW's sync_wait/sync_tx machinery on both engines."""
        spec = spec_for("ao-arrow", schedule="worst", rho="1/64",
                        horizon=3000)
        object_sim, batch_sim = paired(spec)
        object_sim.run(until_time=spec.horizon)
        batch_sim.run(until_time=spec.horizon)
        assert fingerprint(object_sim) == fingerprint(batch_sim)
        sync_signals = sum(
            object_sim.stations[sid].algorithm.stats.sync_signals_sent
            for sid in object_sim.station_ids
        )
        assert sync_signals > 0  # the path actually ran

    def test_abs_run_until_success_and_continuation(self):
        """SST on the standalone ABS fleet: first success matches, and
        the finished batch run continues identically."""
        spec = spec_for("abs", schedule="worst", rho=None, n=9,
                        horizon=5000)
        object_sim, batch_sim = paired(spec)
        ends = (
            object_sim.run_until_success(max_events=100_000),
            batch_sim.run_until_success(max_events=100_000),
        )
        assert ends[0] is not None
        assert ends[0] == ends[1]
        assert fingerprint(object_sim, drain=False) == fingerprint(
            batch_sim, drain=False
        )
        object_sim.run(until_time=5000)
        batch_sim.run(until_time=5000)
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_engine_choice_never_reaches_results(self):
        """Grid cells agree on everything a CellResult records."""
        cell = spec_for("rrw", horizon=400).to_cell(name="parity")
        object_result = run_cell(cell, engine="object")
        batch_result = run_cell(cell, engine="batch")
        assert object_result.engine == "object"
        assert batch_result.engine == "batch"
        assert object_result.engine_described == "object"
        assert batch_result.engine_described == "batch(nonadaptive)"
        exempt = {"engine", "engine_described", "timebase", "wall_s"}
        for field in dataclasses.fields(object_result):
            if field.name in exempt:
                continue
            assert getattr(object_result, field.name) == getattr(
                batch_result, field.name
            ), field.name


#: First-slot fleets: one factory ``(sid, n, R) -> automaton`` for every
#: registered algorithm program (the test below fails when a program is
#: registered without one).
FIRST_SLOT_FLEETS = {
    "AlwaysListen": lambda sid, n, r: AlwaysListen(),
    "AlwaysTransmit": lambda sid, n, r: AlwaysTransmit(),
    "SlottedAloha": lambda sid, n, r: SlottedAloha(sid, 0.5, seed=11),
    "NaiveTDMA": lambda sid, n, r: NaiveTDMA(sid, n),
    "RRW": lambda sid, n, r: RRW(sid, n),
    "MBTFLike": lambda sid, n, r: MBTFLike(sid, n),
    "KSelection": lambda sid, n, r: KSelection(sid, 2, r),
    "ABSLeaderElection": lambda sid, n, r: ABSLeaderElection(
        sid, r, carries_packet=sid % 2 == 1
    ),
    "AOArrow": lambda sid, n, r: AOArrow(sid, n, r),
    "CAArrow": lambda sid, n, r: CAArrow(sid, n, r),
    "FaultTolerantCAArrow": lambda sid, n, r: FaultTolerantCAArrow(sid, n, r),
}

#: First-slot schedules: one factory ``R -> adversary`` per registered
#: schedule program.
FIRST_SLOT_SCHEDULES = {
    "Synchronous": lambda r: Synchronous(),
    "FixedLength": lambda r: FixedLength("3/2"),
    "PerStationFixed": lambda r: PerStationFixed(
        {1: "1", 2: "3/2", 3: "2", 4: "1", 5: "3/2"}
    ),
    "CyclicPattern": lambda r: CyclicPattern(
        {1: ["2", "1"], 2: ["1"], 3: ["3/2", "2"], 4: ["1", "1", "2"],
         5: ["3/2"]}
    ),
    "WorstCaseCyclic": lambda r: WorstCaseCyclic(r),
    "TableDriven": lambda r: TableDriven({1: ["2", "1"], 4: ["3/2"]}, "1"),
    "RandomUniform": lambda r: RandomUniform(r, seed=5),
}

#: Arrivals at time 0 (two for station 3) plus later ones, so slot 0
#: sees pumped-and-delivered packets and pending ones stay behind.
ARRIVALS_AT_ZERO = [(0, 1), (0, 3), (0, 3), ("1/2", 2), (3, 5)]


def first_slot_sim(algorithm, schedule, setup, engine, n=5, r=2):
    fleet = {
        sid: FIRST_SLOT_FLEETS[algorithm](sid, n, r)
        for sid in range(1, n + 1)
    }
    if setup == "initial_packets":
        extra = {"initial_packets": 2}
    else:
        extra = {"arrival_source": StaticSchedule(ARRIVALS_AT_ZERO)}
    return Simulator(
        fleet, FIRST_SLOT_SCHEDULES[schedule](r), max_slot_length=r,
        engine=engine, **extra,
    )


def state_of(obj):
    """A comparable deep snapshot of an automaton, adversary or trace."""
    if isinstance(obj, (bool, int, float, str, Fraction, enum.Enum)) or obj is None:
        return obj
    if isinstance(obj, random.Random):
        return obj.getstate()
    if isinstance(obj, dict):
        return tuple(sorted((k, state_of(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(state_of(v) for v in obj)
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            (f.name, state_of(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        )
    return (type(obj).__name__, state_of(vars(obj)))


def full_state(sim):
    """:func:`fingerprint` (undrained) plus everything else slot 0
    touches: runtime actions and intervals, queue contents, pending
    arrivals, automata, the adversary (its RNG included) and the
    trace."""
    return fingerprint(sim, drain=False) + (
        sim._next_packet_id,
        sim._arrivals_not_before,
        tuple(
            (rt.slot_interval.start, rt.slot_interval.end, rt.action,
             None if rt.aboard_packet is None else rt.aboard_packet.packet_id,
             tuple(p.packet_id for p in rt.queue))
            for rt in (sim.stations[sid] for sid in sim.station_ids)
        ),
        tuple(
            (sid, tuple(p.packet_id for _at, p in pending))
            for sid, pending in sorted(sim._pending_arrivals.items())
        ),
        tuple(state_of(sim.algorithm(sid)) for sid in sim.station_ids),
        state_of(sim.slot_adversary),
        state_of(sim.trace),
    )


class TestFirstSlotParity:
    """On a fresh batch-engine simulator the kernel opens slot 0 itself
    (``BatchKernel._load``); the object engine opens it with
    ``Simulator._start``.  The two must leave identical state."""

    def test_every_registered_program_has_a_first_slot_case(self):
        assert {c.__name__ for c in BATCH_ALGORITHMS} == set(FIRST_SLOT_FLEETS)
        assert {c.__name__ for c in BATCH_SCHEDULES} == set(
            FIRST_SLOT_SCHEDULES
        )

    @pytest.mark.parametrize("setup", ["initial_packets", "arrivals_at_zero"])
    @pytest.mark.parametrize("schedule", sorted(FIRST_SLOT_SCHEDULES))
    @pytest.mark.parametrize("algorithm", sorted(FIRST_SLOT_FLEETS))
    def test_kernel_opened_slot_zero_matches_object_start(
        self, algorithm, schedule, setup
    ):
        object_sim = first_slot_sim(algorithm, schedule, setup, "object")
        batch_sim = first_slot_sim(algorithm, schedule, setup, "batch")
        object_sim.run(until_time=0)
        batch_sim.run(until_time=0)
        assert batch_sim._batch_kernel is not None
        assert full_state(object_sim) == full_state(batch_sim)
        # The opened slot continues identically on either engine.
        object_sim.run(until_time=40)
        batch_sim.run(until_time=40)
        assert full_state(object_sim) == full_state(batch_sim)

    def test_batch_runs_never_call_object_start(self, monkeypatch):
        def no_object_start(sim):
            raise AssertionError("Simulator._start ran on a batch run")

        monkeypatch.setattr(Simulator, "_start", no_object_start)
        for setup in ("initial_packets", "arrivals_at_zero"):
            first_slot_sim("AOArrow", "WorstCaseCyclic", setup, "batch").run(
                until_time=30
            )
        first_slot_sim(
            "ABSLeaderElection", "WorstCaseCyclic", "initial_packets", "batch"
        ).run_until_success(max_events=10_000)

    @pytest.mark.parametrize("algorithm", sorted(FIRST_SLOT_FLEETS))
    def test_max_events_one_chunks_from_a_fresh_simulator(self, algorithm):
        """A one-event budget on a fresh simulator opens slot 0 and then
        processes exactly one event, chunk after chunk."""
        object_sim = first_slot_sim(
            algorithm, "RandomUniform", "arrivals_at_zero", "object"
        )
        batch_sim = first_slot_sim(
            algorithm, "RandomUniform", "arrivals_at_zero", "batch"
        )
        for budget in range(1, 12):
            object_sim.run(max_events=budget)
            batch_sim.run(max_events=budget)
            assert full_state(object_sim) == full_state(batch_sim), budget

    @pytest.mark.parametrize(
        "algorithm", ["ABSLeaderElection", "KSelection", "AOArrow"]
    )
    @pytest.mark.parametrize("schedule", ["Synchronous", "WorstCaseCyclic"])
    def test_run_until_success_from_a_fresh_simulator(
        self, algorithm, schedule
    ):
        object_sim = first_slot_sim(
            algorithm, schedule, "initial_packets", "object"
        )
        batch_sim = first_slot_sim(
            algorithm, schedule, "initial_packets", "batch"
        )
        end = object_sim.run_until_success(max_events=50_000)
        assert end is not None
        assert batch_sim.run_until_success(max_events=50_000) == end
        assert full_state(object_sim) == full_state(batch_sim)

    @pytest.mark.parametrize(
        "first, message",
        [
            (TRANSMIT_PACKET, "transmitted a packet from an empty queue"),
            (TRANSMIT_CONTROL, "sent a control message but declares "
                               "uses_control_messages=False"),
        ],
    )
    def test_invalid_first_action_raises_canonical_error(
        self, monkeypatch, first, message
    ):
        class EagerStation(AlwaysListen):
            def first_action(self, ctx):
                return first if self is fleet[3] else LISTEN

        monkeypatch.setitem(
            BATCH_ALGORITHMS, EagerStation, BATCH_ALGORITHMS[AlwaysListen]
        )
        expected = f"station 3: EagerStation {message}"
        for engine in ("object", "batch"):
            fleet = {sid: EagerStation() for sid in range(1, 5)}
            sim = Simulator(
                fleet, Synchronous(), max_slot_length=2, engine=engine
            )
            with pytest.raises(ProtocolError) as caught:
                sim.run(until_time=5)
            assert str(caught.value) == expected, engine


class TestBatchChaosParity:
    """Batch-engine cells disturbed by the chaos harness still match an
    undisturbed serial run bit-for-bit, and RunHealth records the
    recoveries (the engine is a per-process run option, so respawned
    workers re-resolve it identically)."""

    def test_disturbed_batch_grid_matches_undisturbed_serial(self, tmp_path):
        from repro.exec import (
            ChaosEvent, ChaosPlan, chaos_tasks, fork_available, run_tasks,
        )

        if not fork_available():
            pytest.skip("fork-based pool unavailable")
        cells = [
            spec_for("rrw", horizon=300, rho=f"{k}/8").to_cell(name=f"b{k}")
            for k in range(1, 6)
        ]
        baseline = [run_cell(c) for c in cells]
        assert all(r.engine == "batch" for r in baseline)
        tasks = [(lambda c: (lambda: run_cell(c)))(c) for c in cells]
        plan = ChaosPlan(
            events=(
                ChaosEvent("crash", index=0, attempts=1),
                ChaosEvent("raise", index=2, attempts=1),
                ChaosEvent("hang", index=4, attempts=1),
            ),
            hang_s=30.0,
        )
        wrapped = chaos_tasks(tasks, plan, tmp_path / "chaos")
        run = run_tasks(
            wrapped, jobs=2, task_timeout=2.0, retries=3,
            backoff_base=0.001,
        )
        assert run.values == baseline
        assert all(r.engine == "batch" for r in run.values)
        assert run.health.worker_crashes >= 1
        assert run.health.timeouts >= 1
        assert run.health.retries >= 3
        assert run.health.failures == 0
        assert run.health.disturbed


class TestBatchObservability:
    def test_trace_spans_identical_but_for_engine(self, tmp_path):
        """RunHealth-adjacent observability: the cell span records the
        same stable/delivered facts on both engines."""
        cell = spec_for("aloha", horizon=300).to_cell(name="span-parity")
        attrs = {}
        for engine in ("object", "batch"):
            tracer = activate(Tracer(spool_dir=tmp_path / engine))
            try:
                run_cell(cell, engine=engine)
            finally:
                deactivate()
            spans = tracer.spans()
            [cell_span] = [s for s in spans if s["name"] == "cell"]
            attrs[engine] = cell_span["args"]
        assert attrs["object"]["engine"] == "object"
        assert attrs["batch"]["engine"] == "batch"
        for key in ("cell", "stable", "delivered"):
            assert attrs["object"][key] == attrs["batch"][key], key
