"""Walton-style dialogue typology and proof-status assessment.

Encodes the finite survey tables once each, as embedded constants:
initial situation x main goal -> dialogue type, the per-type profile
strings, and the proof-dialogue rows under the situation and goal each
arises from (four rows are "suspect": dialogues that only resemble
proof).  The per-type maps and lookups are derived from them.  Status
assessment combines per-type outcomes into a single verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union


class Stance(str, Enum):
    """A participant's attitude to the crucial proposition."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


class SituationKind(str, Enum):
    CONFLICT = "conflict"
    OPEN_PROBLEM = "open_problem"
    INFO_ASYMMETRY = "info_asymmetry"


class AsymmetryDirection(str, Enum):
    INTERLOCUTOR_LACKS = "interlocutor_lacks"
    PROVER_LACKS = "prover_lacks"


@dataclass(frozen=True)
class InitialSituation:
    variant: SituationKind
    asymmetry_direction: Optional[AsymmetryDirection] = None
    irreconcilable: bool = False

    def __post_init__(self):
        if (self.asymmetry_direction is not None) != (
                self.variant is SituationKind.INFO_ASYMMETRY):
            raise ValueError("asymmetry_direction applies only to info asymmetry")
        if self.irreconcilable and self.variant is not SituationKind.CONFLICT:
            raise ValueError("irreconcilable applies only to conflicts")


class NoDispute(NamedTuple):
    """Both parties already agree; no dialogue arises."""


class MainGoal(str, Enum):
    STABLE_RESOLUTION = "stable_resolution"
    PRACTICAL_SETTLEMENT = "practical_settlement"
    PROVISIONAL_ACCOMMODATION = "provisional_accommodation"


class DialogueType(str, Enum):
    PERSUASION = "persuasion"
    INQUIRY = "inquiry"
    DELIBERATION = "deliberation"
    NEGOTIATION = "negotiation"
    INFORMATION_SEEKING = "information_seeking"
    ERISTIC = "eristic"
    DEBATE = "debate"
    PEDAGOGICAL = "pedagogical"


class UndefinedCell(Exception):
    """The situation/goal combination is ruled out by the typology."""


def infer_initial_situation(
        a: Stance, b: Stance) -> Union[NoDispute, InitialSituation]:
    """Derive the initial situation from two stances.

    The first stance is read as the prover's.  Agreement yields no
    dispute; a true/false split a conflict; double ignorance an open
    problem; one committed party an information asymmetry with the
    committed party as the potential source.
    """
    if a == b and a is not Stance.UNKNOWN:
        return NoDispute()
    if Stance.UNKNOWN not in (a, b):
        return InitialSituation(SituationKind.CONFLICT)
    if a is Stance.UNKNOWN and b is Stance.UNKNOWN:
        return InitialSituation(SituationKind.OPEN_PROBLEM)
    direction = (AsymmetryDirection.INTERLOCUTOR_LACKS
                 if b is Stance.UNKNOWN else AsymmetryDirection.PROVER_LACKS)
    return InitialSituation(SituationKind.INFO_ASYMMETRY, direction)


_TABLE1: dict[tuple[SituationKind, MainGoal], DialogueType] = {
    (SituationKind.CONFLICT, MainGoal.STABLE_RESOLUTION): DialogueType.PERSUASION,
    (SituationKind.CONFLICT, MainGoal.PRACTICAL_SETTLEMENT): DialogueType.NEGOTIATION,
    (SituationKind.CONFLICT, MainGoal.PROVISIONAL_ACCOMMODATION): DialogueType.ERISTIC,
    (SituationKind.OPEN_PROBLEM, MainGoal.STABLE_RESOLUTION): DialogueType.INQUIRY,
    (SituationKind.OPEN_PROBLEM, MainGoal.PRACTICAL_SETTLEMENT): DialogueType.DELIBERATION,
    (SituationKind.INFO_ASYMMETRY, MainGoal.STABLE_RESOLUTION): DialogueType.INFORMATION_SEEKING,
}

# The cell of each dialogue type: debate shares eristic's, and
# pedagogical dialogue shares information seeking's.
_CELL_OF_TYPE = {t: cell for cell, t in _TABLE1.items()}
_CELL_OF_TYPE[DialogueType.DEBATE] = _CELL_OF_TYPE[DialogueType.ERISTIC]
_CELL_OF_TYPE[DialogueType.PEDAGOGICAL] = \
    _CELL_OF_TYPE[DialogueType.INFORMATION_SEEKING]

# The situation each dialogue type's column requires, and the main goal
# its choice implies; used when checking declared dialogues.
SITUATION_OF_TYPE: dict[DialogueType, SituationKind] = {
    t: s for t, (s, _) in _CELL_OF_TYPE.items()}
GOAL_OF_TYPE: dict[DialogueType, MainGoal] = {
    t: g for t, (_, g) in _CELL_OF_TYPE.items()}


def classify_dialogue(s: InitialSituation, g: MainGoal) -> DialogueType:
    """Look up the dialogue type for a situation/goal pair.

    The three empty survey cells raise UndefinedCell: accommodation is
    unnecessary for a genuinely open problem, and mere ignorance of one
    party always admits a stable resolution.
    """
    try:
        return _TABLE1[(s.variant, g)]
    except KeyError:
        raise UndefinedCell(
            f"no dialogue type arises from {s.variant.value} with goal {g.value}"
        ) from None


class DialogueProfile(NamedTuple):
    initial_situation_text: str
    individual_goals_text: str
    collective_goal_text: str
    benefits_text: str


# Display strings are stored verbatim from the source survey, including
# the apparently typographical Pedagogical benefit "Reserve transfer".
_TABLE2: dict[DialogueType, DialogueProfile] = {
    DialogueType.PERSUASION: DialogueProfile(
        "Difference of opinion", "Persuade other party",
        "Resolve difference of opinion", "Understand positions"),
    DialogueType.INQUIRY: DialogueProfile(
        "Ignorance", "Contribute findings",
        "Prove or disprove conjecture", "Obtain knowledge"),
    DialogueType.DELIBERATION: DialogueProfile(
        "Contemplation of future consequences",
        "Promote personal goals", "Act on a thoughtful basis",
        "Formulate personal priorities"),
    DialogueType.NEGOTIATION: DialogueProfile(
        "Conflict of interest",
        "Maximize gains (self-interest)", "Settlement (without undue inequity)",
        "Harmony"),
    DialogueType.INFORMATION_SEEKING: DialogueProfile(
        "One party lacks information",
        "Obtain information", "Transfer of knowledge", "Help in goal activity"),
    DialogueType.ERISTIC: DialogueProfile(
        "Personal conflict",
        "Verbally hit out at and humiliate opponent", "Reveal deeper conflict",
        "Vent emotions"),
    DialogueType.DEBATE: DialogueProfile(
        "Adversarial", "Persuade third party",
        "Air strongest arguments for both sides", "Spread information"),
    DialogueType.PEDAGOGICAL: DialogueProfile(
        "Ignorance of one party", "Teaching and learning",
        "Transfer of knowledge", "Reserve transfer"),
}


def dialogue_profile(t: DialogueType) -> DialogueProfile:
    return _TABLE2[t]


class ProofDialogueType(str, Enum):
    PROOF_AS_INQUIRY = "proof_as_inquiry"
    PROOF_AS_PERSUASION = "proof_as_persuasion"
    PROOF_AS_PEDAGOGICAL = "proof_as_pedagogical"
    SUSPECT_INFO_SEEKING = "suspect_info_seeking"
    SUSPECT_DELIBERATION = "suspect_deliberation"
    SUSPECT_NEGOTIATION = "suspect_negotiation"
    SUSPECT_ERISTIC = "suspect_eristic"


class ProofDialogueRow(NamedTuple):
    suspect: bool
    initial_situation_text: str
    main_goal_text: str
    prover_goal_text: str
    interlocutor_goal_text: str


_CONFLICT = InitialSituation(SituationKind.CONFLICT)
_OPEN_PROBLEM = InitialSituation(SituationKind.OPEN_PROBLEM)

# Table 3: each proof-dialogue row under the situation and goal it
# arises from.  Open-mindedness is identified with an open problem.
_PROOF_DIALOGUES: dict[tuple[InitialSituation, MainGoal],
                       tuple[ProofDialogueType, ProofDialogueRow]] = {
    (_OPEN_PROBLEM, MainGoal.STABLE_RESOLUTION): (
        ProofDialogueType.PROOF_AS_INQUIRY, ProofDialogueRow(
            False, "Open-mindedness", "Prove or disprove conjecture",
            "Contribute to outcome", "Obtain knowledge")),
    (_CONFLICT, MainGoal.STABLE_RESOLUTION): (
        ProofDialogueType.PROOF_AS_PERSUASION, ProofDialogueRow(
            False, "Difference of opinion",
            "Resolve difference of opinion with rigour",
            "Persuade interlocutor", "Persuade prover")),
    (InitialSituation(SituationKind.INFO_ASYMMETRY,
                      AsymmetryDirection.INTERLOCUTOR_LACKS),
     MainGoal.STABLE_RESOLUTION): (
        ProofDialogueType.PROOF_AS_PEDAGOGICAL, ProofDialogueRow(
            False, "Interlocutor lacks information", "Transfer of knowledge",
            "Disseminate knowledge of results & methods", "Obtain knowledge")),
    (InitialSituation(SituationKind.INFO_ASYMMETRY,
                      AsymmetryDirection.PROVER_LACKS),
     MainGoal.STABLE_RESOLUTION): (
        ProofDialogueType.SUSPECT_INFO_SEEKING, ProofDialogueRow(
            True, "Prover lacks information", "Transfer of knowledge",
            "Obtain information", "Presumably inscrutable")),
    (_OPEN_PROBLEM, MainGoal.PRACTICAL_SETTLEMENT): (
        ProofDialogueType.SUSPECT_DELIBERATION, ProofDialogueRow(
            True, "Open-mindedness", "Reach a provisional conclusion",
            "Contribute to outcome", "Obtain warranted belief")),
    (_CONFLICT, MainGoal.PRACTICAL_SETTLEMENT): (
        ProofDialogueType.SUSPECT_NEGOTIATION, ProofDialogueRow(
            True, "Difference of opinion",
            "Exchange resources for a provisional conclusion",
            "Contribute to outcome", "Maximize value of exchange")),
    (InitialSituation(SituationKind.CONFLICT, irreconcilable=True),
     MainGoal.PROVISIONAL_ACCOMMODATION): (
        ProofDialogueType.SUSPECT_ERISTIC, ProofDialogueRow(
            True, "Irreconcilable difference of opinion",
            "Reveal deeper conflict", "Clarify position", "Clarify position")),
}
_TABLE3 = {t: row for t, row in _PROOF_DIALOGUES.values()}
_PROOF_ROWS = {key: t for key, (t, _) in _PROOF_DIALOGUES.items()}


def proof_dialogue_row(t: ProofDialogueType) -> ProofDialogueRow:
    return _TABLE3[t]


def classify_proof_dialogue(s: InitialSituation, g: MainGoal) -> ProofDialogueType:
    """Map a situation/goal pair to its proof-dialogue row; combinations
    outside the seven rows raise UndefinedCell."""
    try:
        return _PROOF_ROWS[(s, g)]
    except KeyError:
        raise UndefinedCell(
            f"no proof dialogue arises from {s.variant.value} with goal {g.value}"
        ) from None


class Outcome(str, Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    NOT_ATTEMPTED = "not_attempted"


class ProofStatusKind(str, Enum):
    IDEAL_PROOF = "ideal_proof"
    PROOF = "proof"
    NOT_PROOF = "not_proof"
    HEURISTIC_ONLY = "heuristic_only"
    NON_RIGOROUS_SETTLEMENT = "non_rigorous_settlement"


class ProofStatus(NamedTuple):
    variant: ProofStatusKind
    diagnostics: tuple[str, ...] = ()


_SUSPECT_ROWS = frozenset(t for t, row in _TABLE3.items() if row.suspect)


def assess_proof_status(
        outcomes: dict[ProofDialogueType, Outcome]) -> ProofStatus:
    """Combine per-type outcomes into a proof-status verdict.

    Success in both inquiry and persuasion is necessary for proof; with
    pedagogical success as well, the proof is ideal.  Otherwise the
    argument is not a proof, unless its only success is pedagogical
    (heuristically useful) or all successes lie in suspect settlement
    rows (a non-rigorous settlement).  Missing entries count as not
    attempted; not attempted counts as non-success.
    """
    successes = {t for t in ProofDialogueType
                 if outcomes.get(t) is Outcome.SUCCESS}
    missing = [t.value for t in (ProofDialogueType.PROOF_AS_INQUIRY,
                                 ProofDialogueType.PROOF_AS_PERSUASION)
               if t not in successes]
    if not missing:
        if ProofDialogueType.PROOF_AS_PEDAGOGICAL in successes:
            return ProofStatus(ProofStatusKind.IDEAL_PROOF, (
                "succeeded in inquiry, persuasion and pedagogical dialogues",))
        return ProofStatus(ProofStatusKind.PROOF, (
            "succeeded in both inquiry and persuasion dialogues; "
            "pedagogical success is neither necessary nor sufficient",))

    base = f"lacks success in: {', '.join(missing)}"

    if successes == {ProofDialogueType.PROOF_AS_PEDAGOGICAL}:
        return ProofStatus(ProofStatusKind.HEURISTIC_ONLY, (
            base, "only pedagogical success: heuristically useful, not a proof"))
    if successes and successes <= _SUSPECT_ROWS:
        return ProofStatus(ProofStatusKind.NON_RIGOROUS_SETTLEMENT, (
            base, "all successes lie in suspect settlement rows"))
    return ProofStatus(ProofStatusKind.NOT_PROOF, (base,))


def survey_tables() -> dict:
    """The embedded survey tables as one document: the `report` output.
    A record's keys are its field names without the `_text` suffix."""
    def record(r) -> dict:
        return {k.removesuffix("_text"): v for k, v in r._asdict().items()}

    return {
        "dialogue_types": {f"{s.value}/{g.value}": t.value
                           for (s, g), t in _TABLE1.items()},
        "profiles": {t.value: record(p) for t, p in _TABLE2.items()},
        "proof_dialogues": {t.value: record(r) for t, r in _TABLE3.items()},
    }
