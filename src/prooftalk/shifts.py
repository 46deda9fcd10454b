"""Dialectical shift detection.

Splits a transcript into segments of a single operative dialogue type,
turns adjacent type changes into shifts (gradual or abrupt, replacing or
embedding), and judges whether each shift was licit: sliding from a
resolution-grade dialogue into a settlement- or accommodation-grade one
without saying so is illicit.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .engine import Move, MoveKind, kind_allowed
from .typology import DialogueType, GOAL_OF_TYPE, MainGoal

SHIFT_WINDOW = 3

# Tried in order when an undeclared drift admits several operative types.
_TYPE_PRIORITY = (
    DialogueType.INQUIRY,
    DialogueType.PERSUASION,
    DialogueType.INFORMATION_SEEKING,
    DialogueType.PEDAGOGICAL,
    DialogueType.DELIBERATION,
    DialogueType.NEGOTIATION,
    DialogueType.ERISTIC,
    DialogueType.DEBATE,
)

# Goal grade of each main goal: rank (higher is stronger) and name.
_GOAL_GRADE = {
    MainGoal.STABLE_RESOLUTION: (2, "resolution"),
    MainGoal.PRACTICAL_SETTLEMENT: (1, "settlement"),
    MainGoal.PROVISIONAL_ACCOMMODATION: (0, "accommodation"),
}


class Segment(NamedTuple):
    start_turn: int
    end_turn: int
    operative_type: DialogueType
    declared: bool
    # True when the boundary move alone fixed the new type (a declared
    # shift, or a move kind legal under exactly one type).
    sharp: bool = True


class ShiftKind(str, Enum):
    GRADUAL = "gradual"
    ABRUPT = "abrupt"


class ShiftMode(str, Enum):
    REPLACEMENT = "replacement"
    EMBEDDING = "embedding"


class Licitness(str, Enum):
    LICIT = "licit"
    ILLICIT = "illicit"


class Shift(NamedTuple):
    at_turn: int
    from_type: DialogueType
    to_type: DialogueType
    kind: ShiftKind
    mode: ShiftMode
    licitness: Licitness
    reason: str


def segment_moves(moves: tuple[Move, ...],
                  initial_type: DialogueType) -> list[Segment]:
    """Partition a move list into typed segments.

    Boundaries arise from declare_shift moves and from undeclared drifts:
    a move whose kind is illegal under the current type opens a new
    segment whose type is the highest-priority one under which the next
    `SHIFT_WINDOW` moves are all kind-legal.
    """
    if not moves:
        return []

    segments: list[Segment] = []
    current = initial_type
    start = moves[0].turn
    declared = False
    sharp = True

    def close(end_turn: int) -> None:
        segments.append(Segment(start, end_turn, current, declared, sharp))

    for i, move in enumerate(moves):
        if move.kind is MoveKind.DECLARE_SHIFT:
            if move.turn > start:
                close(move.turn - 1)
                start = move.turn
            current, declared, sharp = move.subject, True, True
        elif (isinstance(move.subject, str)
              and not kind_allowed(move.kind, current)):
            span = moves[i:i + SHIFT_WINDOW]
            # Never empty: negotiation allows every move kind.
            candidates = [
                t for t in _TYPE_PRIORITY
                if all(kind_allowed(m.kind, t) for m in span
                       if m.kind is not MoveKind.DECLARE_SHIFT)
            ]
            alone = [t for t in _TYPE_PRIORITY if kind_allowed(move.kind, t)]
            if move.turn > start:
                close(move.turn - 1)
                start = move.turn
            current, declared, sharp = candidates[0], False, len(alone) == 1
    close(moves[-1].turn)
    return segments


def judge_licitness(from_type: DialogueType, to_type: DialogueType,
                    declared: bool) -> tuple[Licitness, str]:
    """A declared shift is always licit; an undeclared one is illicit
    exactly when it weakens the goal grade."""
    if declared:
        return Licitness.LICIT, "shift was declared at the boundary"
    before, before_name = _GOAL_GRADE[GOAL_OF_TYPE[from_type]]
    after, after_name = _GOAL_GRADE[GOAL_OF_TYPE[to_type]]
    if after < before:
        return (Licitness.ILLICIT,
                f"{after_name}-grade {to_type.value} conclusion presented "
                f"in {before_name}-grade {from_type.value} context")
    return Licitness.LICIT, "goal grade does not weaken"


def detect_shifts(segments: list[Segment],
                  initial_type: DialogueType) -> list[Shift]:
    """One shift at each segment whose type differs from the one before
    it, starting from `initial_type`, the declared type that holds before
    the first move.  A shift embeds when the type it leaves resumes in a
    later segment, and replaces it otherwise."""
    last = {s.operative_type: i for i, s in enumerate(segments)}
    shifts: list[Shift] = []
    prev = initial_type
    for i, seg in enumerate(segments):
        if seg.operative_type == prev:
            continue
        kind = (ShiftKind.ABRUPT if seg.declared or seg.sharp
                else ShiftKind.GRADUAL)
        mode = (ShiftMode.EMBEDDING if last.get(prev, -1) > i
                else ShiftMode.REPLACEMENT)
        licitness, reason = judge_licitness(
            prev, seg.operative_type, seg.declared)
        shifts.append(Shift(seg.start_turn, prev, seg.operative_type,
                            kind, mode, licitness, reason))
        prev = seg.operative_type
    return shifts
