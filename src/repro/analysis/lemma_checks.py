"""Executable checks for the paper's ABS lemmas (Section III-A).

The correctness of ABS rests on four execution-level invariants that
the paper proves as Lemmas 1-4.  This module re-states each as a
predicate over a *recorded execution* and checks it mechanically —
the reproduction's analogue of proof-reading:

* **Lemma 1** — all alive stations start each phase within ``r`` time
  of each other;
* **Lemma 2** — until the first success, at least one station is still
  alive (no global deadlock by elimination);
* **Lemma 3** — when both bit-groups are non-empty in a phase, every
  bit-1 station is eliminated by the end of that phase;
* **Lemma 4** — no two transmissions within one phase are disjoint in
  time (all contemporaneous transmissions overlap).

Checks operate on an :class:`InstrumentedElection` run: a thin harness
around the simulator that records, per station, the phase-entry times
and per-phase transmissions of its ABS automaton.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..algorithms.abs_leader import ABSLeaderElection, id_bit
from ..core.simulator import Simulator
from ..core.timebase import Interval, Time, TimeLike, as_time
from ..timing.adversary import SlotAdversary


@dataclass(slots=True)
class PhaseEntry:
    """One station's entry into one ABS phase."""

    station_id: int
    phase: int
    time: Time


@dataclass(slots=True)
class PhaseTransmission:
    """One in-election transmission, tagged with its phase."""

    station_id: int
    phase: int
    interval: Interval


@dataclass(slots=True)
class ElectionRecord:
    """Everything the lemma checks need from one ABS execution."""

    n: int
    max_slot_length: Fraction
    realized_r: Fraction
    entries: List[PhaseEntry] = field(default_factory=list)
    transmissions: List[PhaseTransmission] = field(default_factory=list)
    eliminations: Dict[int, Tuple[int, Time]] = field(default_factory=dict)
    winner: Optional[int] = None
    first_success_end: Optional[Time] = None

    def entries_by_phase(self) -> Dict[int, List[PhaseEntry]]:
        by_phase: Dict[int, List[PhaseEntry]] = {}
        for entry in self.entries:
            by_phase.setdefault(entry.phase, []).append(entry)
        return by_phase


class _TrackingABS(ABSLeaderElection):
    """ABS wrapper that timestamps phase entries and transmissions.

    The timestamps come from the simulator's clock at the moment the
    automaton's decision takes effect (its slot boundary), which is
    exactly the paper's notion of "station i starts phase h".
    """

    def __init__(self, station_id, max_slot_length, record: ElectionRecord, sim_ref):
        super().__init__(station_id, max_slot_length)
        self._record = record
        self._sim_ref = sim_ref
        self._last_phase_logged = -1
        self._pending_transmit_phase: Optional[int] = None

    def _now(self) -> Time:
        sim = self._sim_ref[0]
        return sim.now if sim is not None else Fraction(0)

    def _log_phase_entry(self) -> None:
        if self.core.phase > self._last_phase_logged:
            self._last_phase_logged = self.core.phase
            self._record.entries.append(
                PhaseEntry(
                    station_id=self.core.station_id,
                    phase=self.core.phase,
                    time=self._now(),
                )
            )

    def first_action(self, ctx):
        self._log_phase_entry()  # phase 0 starts at time 0
        return super().first_action(ctx)

    def on_slot_end(self, ctx):
        was_done = self.core.done
        previous_state = self.core.state
        action = super().on_slot_end(ctx)
        now = self._now()
        if not was_done:
            if previous_state == "transmitted":
                # The feedback just consumed closed our transmission;
                # attribute it to the phase it happened in.
                phase = self.core.phase if self.core.outcome else self.core.phase - 1
                if self.core.outcome == "won":
                    phase = self.core.phase
                # A collided transmission advanced core.phase already;
                # the transmission belonged to the previous phase.
                sim = self._sim_ref[0]
                runtime = sim.stations[self.core.station_id]
                self._record.transmissions.append(
                    PhaseTransmission(
                        station_id=self.core.station_id,
                        phase=phase,
                        # Runtime slots are in internal timebase units;
                        # records are public observations.
                        interval=sim.timebase.interval_public(
                            runtime.slot_interval
                        ),
                    )
                )
            if self.core.done:
                if self.core.outcome == "won":
                    self._record.winner = self.core.station_id
                else:
                    self._record.eliminations[self.core.station_id] = (
                        self.core.phase,
                        now,
                    )
            else:
                self._log_phase_entry()
        return action


def run_instrumented_election(
    n: int,
    max_slot_length: TimeLike,
    adversary: SlotAdversary,
    realized_r: TimeLike,
    max_events: int = 2_000_000,
) -> ElectionRecord:
    """Run ABS with full phase instrumentation; return the record.

    ``realized_r`` must be (an upper bound on) the largest slot length
    the adversary actually produces — Lemma 1 is checked against it.
    """
    upper = as_time(max_slot_length)
    record = ElectionRecord(
        n=n, max_slot_length=upper, realized_r=as_time(realized_r)
    )
    sim_ref: List[Optional[Simulator]] = [None]
    algos = {
        i: _TrackingABS(i, upper, record, sim_ref) for i in range(1, n + 1)
    }
    sim = Simulator(algos, adversary, max_slot_length=upper,
                    keep_channel_history=True)
    sim_ref[0] = sim
    record.first_success_end = sim.run_until_success(max_events=max_events)
    sim.run_until_all_done(sim.events_processed + 10_000)
    return record


# ----------------------------------------------------------------------
# The lemma predicates
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class LemmaViolation:
    """A concrete counterexample found by a check."""

    lemma: str
    detail: str


def check_lemma1_phase_alignment(record: ElectionRecord) -> List[LemmaViolation]:
    """Lemma 1: alive stations start each phase within ``r`` of each other.

    The paper's induction gives skew ``r`` for simultaneous wake-up; we
    check against ``r`` with the round-boundary slack of one extra
    maximal slot (the analysis in DESIGN.md section 5), i.e. ``2r``.
    """
    violations: List[LemmaViolation] = []
    slack = 2 * record.realized_r
    for phase, entries in record.entries_by_phase().items():
        times = [entry.time for entry in entries]
        spread = max(times) - min(times)
        if spread > slack:
            violations.append(
                LemmaViolation(
                    lemma="Lemma 1",
                    detail=(
                        f"phase {phase}: entry spread {spread} exceeds "
                        f"2r = {slack} across {len(entries)} stations"
                    ),
                )
            )
    return violations


def check_lemma2_liveness(record: ElectionRecord) -> List[LemmaViolation]:
    """Lemma 2: before the first success, someone is always alive.

    Equivalent finite check: if every station exited, one of them won —
    elimination of all n stations with no winner is the violation.
    """
    if record.winner is None and len(record.eliminations) == record.n:
        return [
            LemmaViolation(
                lemma="Lemma 2",
                detail="all stations eliminated with no winner",
            )
        ]
    return []


def check_lemma3_bit_groups(record: ElectionRecord) -> List[LemmaViolation]:
    """Lemma 3: coexisting bit-1 stations die by the end of the phase.

    For every phase where both bit groups had alive entrants, every
    bit-1 entrant must be absent from the next phase's entrants.
    """
    violations: List[LemmaViolation] = []
    by_phase = record.entries_by_phase()
    for phase, entries in sorted(by_phase.items()):
        zeros = [e.station_id for e in entries if id_bit(e.station_id, phase) == 0]
        ones = [e.station_id for e in entries if id_bit(e.station_id, phase) == 1]
        if not zeros or not ones:
            continue
        next_entrants = {
            e.station_id for e in by_phase.get(phase + 1, [])
        }
        survivors = [sid for sid in ones if sid in next_entrants]
        if survivors:
            violations.append(
                LemmaViolation(
                    lemma="Lemma 3",
                    detail=(
                        f"phase {phase}: bit-1 stations {survivors} survived "
                        f"despite bit-0 stations {zeros} being alive"
                    ),
                )
            )
    return violations


def check_lemma4_no_disjoint_transmissions(
    record: ElectionRecord,
) -> List[LemmaViolation]:
    """Lemma 4: transmissions within one phase pairwise overlap in time."""
    violations: List[LemmaViolation] = []
    by_phase: Dict[int, List[PhaseTransmission]] = {}
    for transmission in record.transmissions:
        by_phase.setdefault(transmission.phase, []).append(transmission)
    for phase, transmissions in sorted(by_phase.items()):
        for i, first in enumerate(transmissions):
            for second in transmissions[i + 1 :]:
                if not first.interval.overlaps(second.interval):
                    violations.append(
                        LemmaViolation(
                            lemma="Lemma 4",
                            detail=(
                                f"phase {phase}: stations {first.station_id} "
                                f"and {second.station_id} transmitted in "
                                f"disjoint slots {first.interval} / "
                                f"{second.interval}"
                            ),
                        )
                    )
    return violations


def check_all_lemmas(record: ElectionRecord) -> List[LemmaViolation]:
    """Run every lemma check; an empty list is a clean bill of health."""
    violations: List[LemmaViolation] = []
    violations.extend(check_lemma1_phase_alignment(record))
    violations.extend(check_lemma2_liveness(record))
    violations.extend(check_lemma3_bit_groups(record))
    violations.extend(check_lemma4_no_disjoint_transmissions(record))
    return violations
