"""ABS — Asymmetric Binary Search leader election (Fig. 3, Section III).

ABS solves Single Successful Transmission (SST) on the partially
asynchronous channel in ``O(R^2 log n)`` slots (Theorem 1): exactly one
station exits *with winning* (its transmission succeeded alone) and all
others exit *by elimination*.

The automaton per station, phase ``i`` (box labels from Fig. 3):

1. **(1)** listen until the first silent slot (absorbs leftover
   transmissions from the previous phase, up to ``R + 1`` slots);
2. **(2)** read bit ``i`` of the station ID, least significant first;
3. **(3)/(4)** listen for a bit-dependent threshold of silent slots —
   ``3R`` when the bit is 0, ``4R^2 + 3R`` when it is 1 — exiting *by
   elimination* on hearing a busy channel;
4. **(5)** transmit one slot; an acknowledgment means *exit with
   winning* **(7)**, otherwise (collision) continue with the next phase.

The asymmetric thresholds are the paper's key trick: a silent period of
``3R`` slots of a bit-0 station lasts at most ``3R * R`` time, while a
bit-1 station listens long enough (``4R^2 + 3R >= 3R*R + R + ...``) that
it must overhear any bit-0 transmission regardless of the unknown slot
length ratio — so bit-1 stations always lose to coexisting bit-0
stations (Lemma 3), re-synchronizing the survivor set every phase
(Lemma 1).

Eliminations also trigger on *ack* while listening: an acknowledgment
proves some station already won, so SST is solved and the hearer exits.
The wrapper records whether elimination was by ack (winner known) or by
busy (election still running) — AO-ARRoW's loser logic needs the
distinction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..analysis.bounds import (
    abs_listen_threshold_bit0,
    abs_listen_threshold_bit1,
)
from ..core.errors import ProtocolError
from ..core.feedback import Feedback
from ..core.station import (
    LISTEN,
    TRANSMIT_CONTROL,
    TRANSMIT_PACKET,
    Action,
    SlotContext,
    StationAlgorithm,
)
from ..core.timebase import TimeLike, as_time


def id_bit(station_id: int, position: int) -> int:
    """Bit ``position`` (0 = least significant) of the station ID.

    Positions beyond the ID's bit length read as 0, which is equivalent
    to padding every ID with leading zeros: distinct IDs in ``[n]``
    still differ at some position below ``bit_length(n)``.
    """
    return (station_id >> position) & 1


#: ``(R, bit-0 threshold, bit-1 threshold)`` of the last ``R`` object
#: asked for.  A fleet built from one spec hands every station the same
#: ``R`` object, so the identity check below pays the validated
#: threshold lookup once per fleet instead of once per station.  Time
#: values are immutable, and an invalid ``R`` raises before it is
#: stored, so it raises again on every construction.
_last_thresholds: Tuple[object, int, int] = (object(), 0, 0)


def _paper_thresholds(max_slot_length: TimeLike) -> Tuple[int, int]:
    """The paper's ``(3R, 4R^2 + 3R)`` listening thresholds for ``R``."""
    global _last_thresholds
    last_r, bit0, bit1 = _last_thresholds
    if max_slot_length is not last_r:
        upper = as_time(max_slot_length)
        bit0 = abs_listen_threshold_bit0(upper)
        bit1 = abs_listen_threshold_bit1(upper)
        _last_thresholds = (max_slot_length, bit0, bit1)
    return bit0, bit1


@dataclass(slots=True)
class AbsCore:
    """The ABS state machine, drivable as a subroutine.

    :class:`ABSLeaderElection` wraps it as a standalone
    :class:`~repro.core.station.StationAlgorithm`; AO-ARRoW instantiates
    a fresh core for every election round and feeds it feedback until
    :attr:`outcome` becomes non-``None``.

    States (strings, mirroring the Fig. 3 boxes):

    * ``"wait_silence"`` — box (1);
    * ``"listen_threshold"`` — boxes (3)/(4), with ``silent_heard``
      counting the consecutive silent slots;
    * ``"transmitted"`` — the slot just spent in box (5);
    * terminal, with :attr:`outcome` ``"won"`` or ``"eliminated"``.
    """

    station_id: int
    max_slot_length: TimeLike
    carries_packet: bool = False
    state: str = "wait_silence"
    phase: int = 0
    silent_heard: int = 0
    threshold: int = 0
    outcome: Optional[str] = None
    eliminated_by_ack: bool = False
    slots_used: int = 0
    #: Ablation hooks: override the paper's listening thresholds (the
    #: ablation bench shows what breaks without the 3R / 4R^2+3R
    #: asymmetry).  ``None`` means the paper's values.
    threshold0_override: Optional[int] = None
    threshold1_override: Optional[int] = None
    _threshold0: int = field(init=False)
    _threshold1: int = field(init=False)

    def __post_init__(self) -> None:
        if self.station_id < 1:
            raise ProtocolError(
                f"ABS requires positive integer IDs, got {self.station_id}"
            )
        bit0, bit1 = _paper_thresholds(self.max_slot_length)
        self._threshold0 = (
            self.threshold0_override
            if self.threshold0_override is not None
            else bit0
        )
        self._threshold1 = (
            self.threshold1_override
            if self.threshold1_override is not None
            else bit1
        )

    @property
    def transmit_action(self) -> Action:
        return TRANSMIT_PACKET if self.carries_packet else TRANSMIT_CONTROL

    @property
    def done(self) -> bool:
        return self.outcome is not None

    def start(self) -> Action:
        """Action for the first slot of the election: listen (box (1))."""
        return LISTEN

    def _enter_phase_listen(self) -> None:
        """Box (2): read the next bit, arm the matching threshold."""
        bit = id_bit(self.station_id, self.phase)
        self.threshold = self._threshold1 if bit else self._threshold0
        self.silent_heard = 0
        self.state = "listen_threshold"

    def step(self, feedback: Feedback) -> Optional[Action]:
        """Consume one slot's feedback; return the next action.

        Returns ``None`` once the election is over for this station
        (check :attr:`outcome`).  The caller owns what happens next —
        the standalone wrapper idles, AO-ARRoW transitions.
        """
        if self.outcome is not None:
            raise ProtocolError("AbsCore.step called after termination")
        self.slots_used += 1

        if self.state == "wait_silence":  # box (1)
            if feedback is Feedback.ACK:
                # Somebody already won SST; no point competing.
                self.outcome = "eliminated"
                self.eliminated_by_ack = True
                return None
            if feedback is Feedback.SILENCE:
                self._enter_phase_listen()
                # The silent slot we just heard counts toward the
                # threshold listening of boxes (3)/(4)? No — the paper
                # separates box (1) from the threshold loop; counting
                # starts with the next slot.
            return LISTEN

        if self.state == "listen_threshold":  # boxes (3)/(4)
            if feedback is Feedback.BUSY:
                self.outcome = "eliminated"
                self.eliminated_by_ack = False
                return None
            if feedback is Feedback.ACK:
                self.outcome = "eliminated"
                self.eliminated_by_ack = True
                return None
            self.silent_heard += 1
            if self.silent_heard >= self.threshold:
                self.state = "transmitted"
                return self.transmit_action  # box (5)
            return LISTEN

        if self.state == "transmitted":  # feedback for box (5)
            if feedback is Feedback.ACK:
                self.outcome = "won"  # box (7)
                return None
            if feedback is Feedback.SILENCE:
                raise ProtocolError(
                    "channel reported silence for a slot this station "
                    "transmitted in — broken channel model"
                )
            # Collision: next phase with the next bit (back to box (1)).
            self.phase += 1
            self.state = "wait_silence"
            return LISTEN

        raise ProtocolError(f"AbsCore in unknown state {self.state!r}")


class ABSLeaderElection(StationAlgorithm):
    """Standalone ABS station for SST experiments.

    By default transmissions are control signals (``SST`` is about
    electing a transmitter, not delivering queued data); construct with
    ``carries_packet=True`` and pre-load one packet per station to model
    the "every station has one message" reading.

    After termination the station listens forever and reports
    :attr:`is_done`.
    """

    def __init__(
        self,
        station_id: int,
        max_slot_length: TimeLike,
        carries_packet: bool = False,
    ) -> None:
        self.core = AbsCore(
            station_id=station_id,
            max_slot_length=max_slot_length,
            carries_packet=carries_packet,
        )
        self.uses_control_messages = not carries_packet

    @property
    def outcome(self) -> Optional[str]:
        """``None`` while competing, then ``"won"`` or ``"eliminated"``."""
        return self.core.outcome

    @property
    def is_done(self) -> bool:
        return self.core.done

    @property
    def slots_used(self) -> int:
        """Slots this station spent inside the election (Theorem 1 metric)."""
        return self.core.slots_used

    def first_action(self, ctx: SlotContext) -> Action:
        return self.core.start()

    def on_slot_end(self, ctx: SlotContext) -> Action:
        feedback = self._require_feedback(ctx)
        if self.core.done:
            return LISTEN
        action = self.core.step(feedback)
        return action if action is not None else LISTEN
