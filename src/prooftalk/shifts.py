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

from .engine import KIND_RULES, Move, MoveKind
from .typology import DialogueType, GOAL_OF_TYPE, MainGoal

SHIFT_WINDOW = 3

# Read once here rather than from the enum class on every move, as the
# engine does for its per-move code.
_DECLARE_SHIFT = MoveKind.DECLARE_SHIFT

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

    Boundaries arise from shifts declared to a dialogue type (a
    declare_shift to anything else opens none) and from undeclared drifts:
    a move whose kind is illegal under the current type opens a new
    segment whose type is the highest-priority one under which the next
    `SHIFT_WINDOW` moves are all kind-legal.
    """
    if not moves:
        return []

    segments: list[Segment] = []
    start = moves[0].turn
    # The open segment, from `start`; each boundary names the one it opens.
    current, declared, sharp = initial_type, False, True
    for i, (turn, _, kind, subject) in enumerate(moves):
        if kind is _DECLARE_SHIFT and isinstance(subject, DialogueType):
            opened = subject, True, True
        elif isinstance(subject, str) and KIND_RULES[kind, current] is not None:
            ahead = {m.kind for m in moves[i:i + SHIFT_WINDOW]}
            # The types that allow every kind ahead; never empty, as
            # negotiation allows every move kind.
            candidates = [t for t in _TYPE_PRIORITY
                          if {KIND_RULES[k, t] for k in ahead} == {None}]
            alone = [t for t in _TYPE_PRIORITY if KIND_RULES[kind, t] is None]
            opened = candidates[0], False, len(alone) == 1
        else:
            continue
        if turn > start:
            segments.append(Segment(start, turn - 1, current, declared, sharp))
            start = turn
        current, declared, sharp = opened
    segments.append(Segment(start, moves[-1].turn, current, declared, sharp))
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
