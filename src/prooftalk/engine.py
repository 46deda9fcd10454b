"""Dialogue replay engine.

Replays move sequences under per-type protocol rules, maintaining one
commitment store per participant.  A replay is one mutable fold: it
keeps each participant's commitments as a proposition -> polarity dict
and the history as a list, checks every move against them, and freezes
them into an immutable DialogueState once, at the end or at the first
violation.  apply_move is the same fold over a single move.
new_dialogue and the parser open two-party dialogues only; the fold
checks moves against a state with any number of stores.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import NamedTuple, Optional, Union

from .typology import (
    DialogueType,
    NoDispute,
    SITUATION_OF_TYPE,
    Stance,
    infer_initial_situation,
)

# Turns a challenged party has to produce a supporting assertion before
# the challenge counts as unanswered.
ANSWER_WINDOW = 2


class Role(str, Enum):
    PROVER = "prover"
    INTERLOCUTOR = "interlocutor"


class Participant(NamedTuple):
    id: str
    role: Role
    initial_stance: Stance


class MoveKind(str, Enum):
    ASSERT = "assert"
    CHALLENGE = "challenge"
    QUESTION = "question"
    CONCEDE = "concede"
    RETRACT = "retract"
    OFFER = "offer"          # propose a settlement; bargaining dialogues only
    THREAT = "threat"        # negotiation only
    DECLARE_SHIFT = "declare_shift"
    CLOSE = "close"


class Move(NamedTuple):
    turn: int
    speaker: str
    kind: MoveKind
    subject: Union[str, DialogueType]


class Polarity(str, Enum):
    AFFIRMED = "affirmed"
    DENIED = "denied"


class CommitmentStore(NamedTuple):
    owner: str
    commitments: frozenset[tuple[str, Polarity]] = frozenset()

    def polarity_of(self, prop: str) -> Optional[Polarity]:
        for p, pol in self.commitments:
            if p == prop:
                return pol
        return None


class Phase(str, Enum):
    OPEN = "open"
    CLOSED = "closed"


class _DialogueStateFields(NamedTuple):
    declared_type: DialogueType
    crucial_proposition: str
    participants: tuple[Participant, ...]
    stores: tuple[CommitmentStore, ...]
    history: tuple[Move, ...] = ()
    phase: Phase = Phase.OPEN
    current_type: DialogueType = None  # operative type; shifts update it
    settlement: Optional[str] = None


class DialogueState(_DialogueStateFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        state = super().__new__(cls, *args, **kwargs)
        if state.current_type is None:
            state = state._replace(current_type=state.declared_type)
        return state

    def store_of(self, participant: str) -> CommitmentStore:
        for s in self.stores:
            if s.owner == participant:
                return s
        raise KeyError(f"unknown participant '{participant}'")


class StanceMismatch(Exception):
    """Initial stances do not give rise to the declared dialogue type."""


class ProtocolViolation(Exception):
    def __init__(self, rule: str, message: str, turn: Optional[int] = None):
        super().__init__(message)
        self.rule = rule
        self.turn = turn


class ViolationInfo(NamedTuple):
    turn: int
    rule: str
    message: str


def new_dialogue(dialogue_type: DialogueType, crucial: str,
                 participants: tuple[Participant, ...],
                 settlement: Optional[str] = None) -> DialogueState:
    """Open a dialogue, seeding stores from initial stances.

    A committed stance seeds the store with the crucial proposition
    (true -> affirmed, false -> denied); ignorance seeds nothing.  The
    stances' inferred initial situation must match the declared type's
    survey column.
    """
    if len(participants) != 2:
        raise ValueError("exactly two participants are supported")
    if len({p.id for p in participants}) != 2:
        raise ValueError("participant ids must be unique")

    situation = infer_initial_situation(
        participants[0].initial_stance, participants[1].initial_stance)
    required = SITUATION_OF_TYPE[dialogue_type]
    if isinstance(situation, NoDispute) or situation.variant is not required:
        found = ("no dispute" if isinstance(situation, NoDispute)
                 else situation.variant.value)
        raise StanceMismatch(
            f"{dialogue_type.value} requires {required.value}; stances give {found}")

    seeded = {Stance.TRUE: frozenset({(crucial, Polarity.AFFIRMED)}),
              Stance.FALSE: frozenset({(crucial, Polarity.DENIED)}),
              Stance.UNKNOWN: frozenset()}
    return DialogueState(
        declared_type=dialogue_type,
        crucial_proposition=crucial,
        participants=tuple(participants),
        stores=tuple(CommitmentStore(p.id, seeded[p.initial_stance])
                     for p in participants),
        settlement=settlement,
    )


def _kind_rule(kind: MoveKind, dialogue_type: DialogueType) -> Optional[str]:
    """The rule a move of the kind breaks under the dialogue type, or None
    when the type allows the kind: the state-independent part of the
    legality matrix, from which KIND_RULES is built."""
    if kind is MoveKind.RETRACT and dialogue_type is DialogueType.INQUIRY:
        return "retract-forbidden-in-inquiry"
    if kind is MoveKind.OFFER and dialogue_type not in (
            DialogueType.DELIBERATION, DialogueType.NEGOTIATION):
        return "offer-move-outside-settlement-dialogue"
    if (kind is MoveKind.THREAT
            and dialogue_type is not DialogueType.NEGOTIATION):
        return "threat-move-outside-negotiation"
    return None


# One key for every (kind, type) pair: read by the replay and segmentation.
KIND_RULES = {(k, t): _kind_rule(k, t) for k in MoveKind for t in DialogueType}


# The members the per-move code compares against, read once here: loading
# `MoveKind.ASSERT` looks the member up on the enum class each time, at
# several times the cost of reading a module global, and the replay and
# the answer-window scan would make several such loads per move.
_ASSERT, _CHALLENGE, _CONCEDE = (
    MoveKind.ASSERT, MoveKind.CHALLENGE, MoveKind.CONCEDE)
_RETRACT, _DECLARE_SHIFT, _CLOSE = (
    MoveKind.RETRACT, MoveKind.DECLARE_SHIFT, MoveKind.CLOSE)
_AFFIRMED, _DENIED = Polarity.AFFIRMED, Polarity.DENIED
_CLOSED = Phase.CLOSED

# One participant's commitments: proposition -> polarity.
_Commitments = dict[str, Polarity]


def _check_move(phase: Phase, expected: int, operative: DialogueType,
                stores: dict[str, _Commitments],
                others: dict[str, list[_Commitments]], move: Move
                ) -> Optional[ViolationInfo]:
    """The violation the move commits, or None when it is legal.

    The dialogue is seen as its phase, the turn expected next, the
    operative type, each participant's commitments by proposition, and,
    for each participant, the commitments of every other one.
    """
    turn, speaker, kind, subject = move
    if phase is _CLOSED:
        return ViolationInfo(turn, "dialogue-closed", "no moves after close")
    if turn != expected:
        return ViolationInfo(turn, "turn-out-of-order",
                             f"expected turn {expected}, got {turn}")
    own = stores.get(speaker)
    if own is None:
        return ViolationInfo(turn, "unknown-speaker",
                             f"no participant '{speaker}'")

    if kind is _DECLARE_SHIFT:
        if not isinstance(subject, DialogueType):
            return ViolationInfo(
                turn, "shift-target-not-a-type",
                "declare_shift subject must be a dialogue type")
        return None
    if not isinstance(subject, str):
        return ViolationInfo(
            turn, "subject-not-a-proposition",
            f"{kind.value} subject must be a proposition id")

    rule = KIND_RULES[kind, operative]
    if rule is not None:
        return ViolationInfo(
            turn, rule, f"{kind.value} is not a {operative.value} move")

    if kind is _ASSERT:
        if own.get(subject) is _DENIED:
            return ViolationInfo(
                turn, "conflicting-commitment",
                f"'{speaker}' has denied '{subject}'; retract first")
    elif kind is _CHALLENGE:
        if own.get(subject) is _AFFIRMED:
            return ViolationInfo(
                turn, "challenge-own-assertion",
                f"'{speaker}' cannot challenge their own commitment to "
                f"'{subject}'")
        for other in others[speaker]:
            if subject in other:
                break
        else:
            return ViolationInfo(
                turn, "challenge-uncommitted",
                f"no other participant is committed to '{subject}'")
    elif kind is _CONCEDE:
        for other in others[speaker]:
            if other.get(subject) is _AFFIRMED:
                break
        else:
            return ViolationInfo(
                turn, "concede-unasserted",
                f"no other participant has affirmed '{subject}'")
    elif kind is _RETRACT:
        if subject not in own:
            return ViolationInfo(
                turn, "retract-without-commitment",
                f"'{speaker}' has no commitment to '{subject}'")
    return None


def _next_turn(state: DialogueState) -> int:
    return (state.history[-1].turn + 1) if state.history else 1


def _commitments(state: DialogueState
                 ) -> tuple[dict[str, _Commitments],
                            dict[str, list[_Commitments]]]:
    """Each participant's commitments as a dict by proposition, and for
    each participant the dicts of every other one (the same objects, so
    that the fold's updates show in both)."""
    stores = {s.owner: dict(s.commitments) for s in state.stores}
    others = {owner: [c for o, c in stores.items() if o != owner]
              for owner in stores}
    return stores, others


def _fold(state: DialogueState, moves: tuple[Move, ...],
          switch_at: dict[int, DialogueType]
          ) -> tuple[DialogueState, Optional[ViolationInfo]]:
    """Play the moves from the state until they run out or one is
    illegal: the state then, frozen once, and the violation if any.

    `switch_at` maps a turn to the operative type it switches to before
    that turn's move is checked.
    """
    stores, others = _commitments(state)
    phase, operative = state.phase, state.current_type
    first = expected = _next_turn(state)
    violation = None
    for move in moves:
        turn, speaker, kind, subject = move
        operative = switch_at.get(turn, operative)
        violation = _check_move(phase, expected, operative, stores, others,
                                move)
        if violation is not None:
            break
        expected += 1
        if kind is _CLOSE:
            phase = _CLOSED
        elif kind is _DECLARE_SHIFT:
            operative = subject
        elif kind is _ASSERT or kind is _CONCEDE:
            # Conceding withdraws a standing denial: the speaker gives in.
            stores[speaker][subject] = _AFFIRMED
        elif kind is _RETRACT:
            del stores[speaker][subject]
        # challenge/question/offer/threat leave stores unchanged
    # Every move played was due at the turn after the one before it.
    history = state.history + tuple(moves[:expected - first])
    frozen = state._replace(
        history=history, phase=phase, current_type=operative,
        stores=tuple([CommitmentStore(owner, frozenset(c.items()))
                      for owner, c in stores.items()]))
    return frozen, violation


def apply_move(state: DialogueState, move: Move) -> DialogueState:
    """Pure transition: validate the move and return the successor
    state, or raise ProtocolViolation."""
    successor, violation = _fold(state, (move,), {})
    if violation is not None:
        raise ProtocolViolation(violation.rule, violation.message,
                                violation.turn)
    return successor


def legal_moves(state: DialogueState, speaker: str,
                propositions: Optional[set[str]] = None) -> list[MoveKind]:
    """Move kinds with at least one acceptable instance for the speaker.

    Probes the move check over the given proposition universe (defaulting to
    propositions mentioned so far plus a fresh one, which covers kinds
    whose legality does not depend on prior commitments).
    """
    if state.phase is Phase.CLOSED:
        return []
    turn, operative = _next_turn(state), state.current_type
    view = (state.phase, turn, operative, *_commitments(state))
    if propositions is None:
        propositions = {state.crucial_proposition}
        if state.settlement:
            propositions.add(state.settlement)
        for s in state.stores:
            propositions.update(p for p, _ in s.commitments)
        for m in state.history:
            if isinstance(m.subject, str):
                propositions.add(m.subject)
        propositions.add("_fresh")

    kinds = []
    for kind in MoveKind:
        if KIND_RULES[kind, operative] is not None:
            continue  # the type forbids the kind, whatever its subject
        subjects = ([DialogueType.DELIBERATION] if kind is _DECLARE_SHIFT
                    else propositions)
        for subject in subjects:
            if _check_move(*view, Move(turn, speaker, kind, subject)) is None:
                kinds.append(kind)
                break
    return kinds


class GoalVerdict(NamedTuple):
    achieved: bool
    reason: str


def _unanswered_challenge(state: DialogueState) -> Optional[str]:
    """Subject of the first challenge left unanswered, if any.

    The challenged party (the other participant, in a two-party
    dialogue) must produce an assertion within their next ANSWER_WINDOW
    turns; a challenge with no such answer counts as unanswered.  One
    pass: each challenger's open challenges wait in issue order with the
    count of others' replies seen when they were made.
    """
    open_challenges: dict[str, deque[tuple[int, str, int]]] = {}
    replies: dict[str, int] = {}
    unanswered: list[tuple[int, str]] = []
    for i, (_, speaker, kind, subject) in enumerate(state.history):
        for challenger, waiting in open_challenges.items():
            if challenger == speaker or not waiting:
                continue
            if kind is _ASSERT:
                waiting.clear()
                continue
            replies[challenger] += 1
            while waiting and replies[challenger] - waiting[0][2] == ANSWER_WINDOW:
                unanswered.append(waiting.popleft()[:2])
        if kind is _CHALLENGE:
            open_challenges.setdefault(speaker, deque()).append(
                (i, subject, replies.setdefault(speaker, 0)))
    unanswered += [w[0][:2] for w in open_challenges.values() if w]
    return min(unanswered)[1] if unanswered else None


def goal_achieved(state: DialogueState) -> GoalVerdict:
    """Test the collective goal of the declared dialogue type."""
    crucial = state.crucial_proposition
    polarities = {p.id: state.store_of(p.id).polarity_of(crucial)
                  for p in state.participants}
    dtype = state.declared_type

    if dtype is DialogueType.INQUIRY:
        values = set(polarities.values())
        if None not in values and len(values) == 1:
            return GoalVerdict(True, "all participants share one verdict on "
                                     "the crucial proposition")
        return GoalVerdict(False, "no shared verdict on the crucial proposition")

    if dtype in (DialogueType.PERSUASION, DialogueType.DEBATE):
        unanswered = _unanswered_challenge(state)
        if unanswered is not None:
            return GoalVerdict(False, f"unanswered challenge on '{unanswered}'")
        prover = state.participants[0]
        target = Polarity.AFFIRMED if prover.initial_stance is Stance.TRUE \
            else Polarity.DENIED
        dissenters = [p for p in state.participants[1:]
                      if p.initial_stance != prover.initial_stance]
        if all(polarities[p.id] == target for p in dissenters):
            return GoalVerdict(True, "dissenting party now shares the "
                                     "proposer's commitment")
        return GoalVerdict(False, "dissenting party was not persuaded")

    if dtype in (DialogueType.INFORMATION_SEEKING, DialogueType.PEDAGOGICAL):
        informed = [p for p in state.participants
                    if p.initial_stance is not Stance.UNKNOWN]
        seekers = [p for p in state.participants
                   if p.initial_stance is Stance.UNKNOWN]
        if not informed or not seekers:
            return GoalVerdict(False, "no information asymmetry to resolve")
        source = Polarity.AFFIRMED if informed[0].initial_stance is Stance.TRUE \
            else Polarity.DENIED
        if all(polarities[p.id] == source for p in seekers):
            return GoalVerdict(True, "knowledge transferred to the seeker")
        return GoalVerdict(False, "seeker has not acquired the information")

    if dtype in (DialogueType.DELIBERATION, DialogueType.NEGOTIATION):
        if state.settlement is None:
            return GoalVerdict(False, "no settlement proposition designated")
        if all(state.store_of(p.id).polarity_of(state.settlement)
               is Polarity.AFFIRMED for p in state.participants):
            return GoalVerdict(True, "settlement proposition jointly affirmed")
        return GoalVerdict(False, "settlement proposition not jointly affirmed")

    # eristic: success is merely that both positions became explicit
    if all(pol is not None for pol in polarities.values()):
        return GoalVerdict(True, "both positions on the crucial proposition "
                                 "are explicit")
    return GoalVerdict(False, "positions not yet explicit")


class ReplayResult(NamedTuple):
    state: DialogueState  # final state, or the snapshot before the violation
    violation: Optional[ViolationInfo] = None

    @property
    def ok(self) -> bool:
        return self.violation is None


def replay_moves(initial: DialogueState, moves: tuple[Move, ...],
                 segments: list) -> ReplayResult:
    """Replay a move list in one fold, stopping at the first violation.

    `segments` are the moves' shift segments (`shifts.segment_moves`):
    each undeclared drift, one at the first move too, switches the
    operative type before the move that opens it is checked, so a
    transcript that coherently settles into another dialogue type
    replays cleanly.  At a violation the state is the one before the
    offending move, with that turn's drift switch applied.
    """
    switch_at = {s.start_turn: s.operative_type
                 for s in segments if not s.declared}
    return ReplayResult(*_fold(initial, moves, switch_at))
