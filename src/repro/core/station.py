"""Station algorithm interface: deterministic, cloneable slot automata.

Every algorithm in the paper (ABS, AO-ARRoW, CA-ARRoW, the synchronous
baselines) is presented as an automaton whose only inputs are

* the channel feedback at the end of each of the station's own slots, and
* the station's own queue length (arrivals become visible at slot
  boundaries — the paper performs all local operations "in-between two
  consecutive slots").

This module pins that interface down.  Two design rules matter for the
rest of the library:

1. **Determinism + explicit state.**  An algorithm object must behave as
   a pure function of its explicit attributes.  The adversarial
   constructions of Theorems 2 and 4 *require* this: the adversary
   deep-copies stations and simulates them forward under hypothetical
   feedback to choose its next move.  Randomized algorithms (slotted
   Aloha) carry their own seeded :class:`random.Random` as state, which
   deep-copies reproducibly.

2. **No hidden channels.**  Algorithms never see slot lengths, global
   time, other stations' state, or packet contents — only
   :class:`SlotContext`.  This enforces the model of Section II at the
   type level.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import Optional

from .errors import ProtocolError
from .feedback import Feedback


class ActionKind(enum.Enum):
    """What a station does with its next slot."""

    LISTEN = "listen"
    TRANSMIT = "transmit"


@dataclass(frozen=True, slots=True)
class Action:
    """A station's decision for its upcoming slot.

    Attributes:
        kind: Listen or transmit.
        carries_packet: For a transmit action, whether the head packet of
            the queue rides the transmission.  ``False`` denotes a
            *control message* ("empty signal" in the paper's Section VI)
            and is only legal for algorithms whose
            :attr:`StationAlgorithm.uses_control_messages` is true.
    """

    kind: ActionKind
    carries_packet: bool = False
    #: Precomputed ``kind is TRANSMIT`` — read on the event loop's hot
    #: path for every slot, so a derived field beats a property.
    is_transmit: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_transmit", self.kind is ActionKind.TRANSMIT)


#: Shared singletons for the three meaningful actions.
LISTEN = Action(ActionKind.LISTEN)
TRANSMIT_PACKET = Action(ActionKind.TRANSMIT, carries_packet=True)
TRANSMIT_CONTROL = Action(ActionKind.TRANSMIT, carries_packet=False)


class SlotContext:
    """Everything a station knows at one of its slot boundaries.

    A hand-written ``__slots__`` class (one is built per processed slot,
    so construction cost is hot-path cost).

    Attributes:
        feedback: Channel feedback for the slot that just ended, or
            ``None`` for the very first decision (no slot ended yet).
        queue_size: Number of packets currently waiting at this station,
            including any that arrived during the slot that just ended.
        slot_index: Ordinal of the slot that is about to begin (0 for the
            first slot).  This is the station's own count — a local step
            counter, **not** a clock; the model explicitly allows
            counting one's own slots while forbidding measuring them.
    """

    __slots__ = ("feedback", "queue_size", "slot_index")

    def __init__(
        self,
        feedback: Optional[Feedback],
        queue_size: int,
        slot_index: int,
    ) -> None:
        self.feedback = feedback
        self.queue_size = queue_size
        self.slot_index = slot_index

    def __eq__(self, other) -> bool:
        if isinstance(other, SlotContext):
            return (
                self.feedback == other.feedback
                and self.queue_size == other.queue_size
                and self.slot_index == other.slot_index
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SlotContext(feedback={self.feedback!r}, "
            f"queue_size={self.queue_size!r}, slot_index={self.slot_index!r})"
        )


class StationAlgorithm:
    """Base class for all channel-access automata.

    Subclasses implement :meth:`first_action` and :meth:`on_slot_end`
    and must keep *all* mutable state in instance attributes so that
    :meth:`clone` produces an independent, behaviourally identical copy.
    """

    #: Whether the algorithm may transmit without a queued packet
    #: (control messages / "empty signals").  Checked by the simulator.
    uses_control_messages: bool = False

    #: Declared design goal of never producing a collision.  The
    #: simulator does not trust this flag — benchmarks assert it against
    #: the channel's collision log.
    collision_free_by_design: bool = False

    def first_action(self, ctx: SlotContext) -> Action:
        """Decide the action for the station's first slot (time 0)."""
        raise NotImplementedError

    def on_slot_end(self, ctx: SlotContext) -> Action:
        """Consume feedback for the slot that ended; choose the next action."""
        raise NotImplementedError

    def clone(self) -> "StationAlgorithm":
        """Independent deep copy (used by adversaries for look-ahead)."""
        return copy.deepcopy(self)

    # ------------------------------------------------------------------
    # Optional terminal-state protocol (used by SST / leader election).
    # ------------------------------------------------------------------

    @property
    def is_done(self) -> bool:
        """True when the automaton reached a terminal state.

        A done station listens forever; the simulator may use this to
        stop a run early.  Dynamic-arrival algorithms never terminate and
        keep the default ``False``.

        Contract: the value depends only on the automaton's own state,
        and that state changes only inside its own :meth:`first_action`
        / :meth:`on_slot_end`.  It may flip either way (a crashed
        station that was done reads ``False``), but only during one of
        its own steps — which is what lets
        :meth:`~repro.core.simulator.Simulator.run_until_all_done`
        re-read just the station each event stepped.
        """
        return False

    def _require_feedback(self, ctx: SlotContext) -> Feedback:
        """Helper: extract feedback, rejecting a first-slot context."""
        if ctx.feedback is None:
            raise ProtocolError(
                f"{type(self).__name__}.on_slot_end called without feedback"
            )
        return ctx.feedback


class AlwaysListen(StationAlgorithm):
    """Trivial algorithm that never transmits.

    Useful as a passive observer in tests and as the terminal behaviour
    of eliminated SST stations.
    """

    def first_action(self, ctx: SlotContext) -> Action:
        return LISTEN

    def on_slot_end(self, ctx: SlotContext) -> Action:
        return LISTEN


class AlwaysTransmit(StationAlgorithm):
    """Trivial algorithm that transmits a control signal every slot.

    Used in channel-model tests (it jams everyone) and in adversarial
    scenarios.  Declares control-message capability because it transmits
    regardless of queue contents.
    """

    uses_control_messages = True

    def first_action(self, ctx: SlotContext) -> Action:
        return TRANSMIT_CONTROL if ctx.queue_size == 0 else TRANSMIT_PACKET

    def on_slot_end(self, ctx: SlotContext) -> Action:
        return TRANSMIT_CONTROL if ctx.queue_size == 0 else TRANSMIT_PACKET
