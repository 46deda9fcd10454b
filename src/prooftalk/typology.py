"""Walton-style dialogue typology and proof-status assessment.

Encodes the finite survey tables as embedded constants: initial
situation x main goal -> dialogue type, the per-type profile strings,
and the proof-dialogue rows (four of which are "suspect": dialogues that
only resemble proof).  Status assessment combines per-type outcomes into
a single verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union


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


@dataclass(frozen=True)
class NoDispute:
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


@dataclass(frozen=True)
class DialogueProfile:
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


@dataclass(frozen=True)
class ProofDialogueRow:
    suspect: bool
    initial_situation_text: str
    main_goal_text: str
    prover_goal_text: str
    interlocutor_goal_text: str


_TABLE3: dict[ProofDialogueType, ProofDialogueRow] = {
    ProofDialogueType.PROOF_AS_INQUIRY: ProofDialogueRow(
        False, "Open-mindedness",
        "Prove or disprove conjecture", "Contribute to outcome",
        "Obtain knowledge"),
    ProofDialogueType.PROOF_AS_PERSUASION: ProofDialogueRow(
        False, "Difference of opinion",
        "Resolve difference of opinion with rigour", "Persuade interlocutor",
        "Persuade prover"),
    ProofDialogueType.PROOF_AS_PEDAGOGICAL: ProofDialogueRow(
        False, "Interlocutor lacks information", "Transfer of knowledge",
        "Disseminate knowledge of results & methods", "Obtain knowledge"),
    ProofDialogueType.SUSPECT_INFO_SEEKING: ProofDialogueRow(
        True, "Prover lacks information", "Transfer of knowledge",
        "Obtain information", "Presumably inscrutable"),
    ProofDialogueType.SUSPECT_DELIBERATION: ProofDialogueRow(
        True, "Open-mindedness",
        "Reach a provisional conclusion", "Contribute to outcome",
        "Obtain warranted belief"),
    ProofDialogueType.SUSPECT_NEGOTIATION: ProofDialogueRow(
        True, "Difference of opinion",
        "Exchange resources for a provisional conclusion",
        "Contribute to outcome", "Maximize value of exchange"),
    ProofDialogueType.SUSPECT_ERISTIC: ProofDialogueRow(
        True, "Irreconcilable difference of opinion", "Reveal deeper conflict",
        "Clarify position", "Clarify position"),
}


def proof_dialogue_row(t: ProofDialogueType) -> ProofDialogueRow:
    return _TABLE3[t]


_CONFLICT = InitialSituation(SituationKind.CONFLICT)
_OPEN_PROBLEM = InitialSituation(SituationKind.OPEN_PROBLEM)

_PROOF_ROWS: dict[tuple[InitialSituation, MainGoal], ProofDialogueType] = {
    (_OPEN_PROBLEM, MainGoal.STABLE_RESOLUTION):
        ProofDialogueType.PROOF_AS_INQUIRY,
    (_OPEN_PROBLEM, MainGoal.PRACTICAL_SETTLEMENT):
        ProofDialogueType.SUSPECT_DELIBERATION,
    (_CONFLICT, MainGoal.STABLE_RESOLUTION):
        ProofDialogueType.PROOF_AS_PERSUASION,
    (_CONFLICT, MainGoal.PRACTICAL_SETTLEMENT):
        ProofDialogueType.SUSPECT_NEGOTIATION,
    (InitialSituation(SituationKind.CONFLICT, irreconcilable=True),
     MainGoal.PROVISIONAL_ACCOMMODATION): ProofDialogueType.SUSPECT_ERISTIC,
    (InitialSituation(SituationKind.INFO_ASYMMETRY,
                      AsymmetryDirection.INTERLOCUTOR_LACKS),
     MainGoal.STABLE_RESOLUTION): ProofDialogueType.PROOF_AS_PEDAGOGICAL,
    (InitialSituation(SituationKind.INFO_ASYMMETRY,
                      AsymmetryDirection.PROVER_LACKS),
     MainGoal.STABLE_RESOLUTION): ProofDialogueType.SUSPECT_INFO_SEEKING,
}


def classify_proof_dialogue(s: InitialSituation, g: MainGoal) -> ProofDialogueType:
    """Map a situation/goal pair to its proof-dialogue row.

    Open-mindedness is identified with an open problem (lack of
    commitment on both sides).  Combinations outside the seven rows
    raise UndefinedCell.
    """
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


@dataclass(frozen=True)
class ProofStatus:
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
    def got(t: ProofDialogueType) -> Outcome:
        return outcomes.get(t, Outcome.NOT_ATTEMPTED)

    successes = {t for t in ProofDialogueType if got(t) is Outcome.SUCCESS}
    inquiry_ok = ProofDialogueType.PROOF_AS_INQUIRY in successes
    persuasion_ok = ProofDialogueType.PROOF_AS_PERSUASION in successes
    pedagogical_ok = ProofDialogueType.PROOF_AS_PEDAGOGICAL in successes

    if inquiry_ok and persuasion_ok:
        if pedagogical_ok:
            return ProofStatus(ProofStatusKind.IDEAL_PROOF, (
                "succeeded in inquiry, persuasion and pedagogical dialogues",))
        return ProofStatus(ProofStatusKind.PROOF, (
            "succeeded in both inquiry and persuasion dialogues; "
            "pedagogical success is neither necessary nor sufficient",))

    missing = [t.value for t, ok in (
        (ProofDialogueType.PROOF_AS_INQUIRY, inquiry_ok),
        (ProofDialogueType.PROOF_AS_PERSUASION, persuasion_ok)) if not ok]
    base = f"lacks success in: {', '.join(missing)}"

    if successes == {ProofDialogueType.PROOF_AS_PEDAGOGICAL}:
        return ProofStatus(ProofStatusKind.HEURISTIC_ONLY, (
            base, "only pedagogical success: heuristically useful, not a proof"))
    if successes and successes <= _SUSPECT_ROWS:
        return ProofStatus(ProofStatusKind.NON_RIGOROUS_SETTLEMENT, (
            base, "all successes lie in suspect settlement rows"))
    return ProofStatus(ProofStatusKind.NOT_PROOF, (base,))


# Main goal implied by choosing each dialogue type, and the situation its
# survey column requires; used when checking declared dialogues.
GOAL_OF_TYPE: dict[DialogueType, MainGoal] = {
    DialogueType.PERSUASION: MainGoal.STABLE_RESOLUTION,
    DialogueType.INQUIRY: MainGoal.STABLE_RESOLUTION,
    DialogueType.INFORMATION_SEEKING: MainGoal.STABLE_RESOLUTION,
    DialogueType.PEDAGOGICAL: MainGoal.STABLE_RESOLUTION,
    DialogueType.DELIBERATION: MainGoal.PRACTICAL_SETTLEMENT,
    DialogueType.NEGOTIATION: MainGoal.PRACTICAL_SETTLEMENT,
    DialogueType.ERISTIC: MainGoal.PROVISIONAL_ACCOMMODATION,
    DialogueType.DEBATE: MainGoal.PROVISIONAL_ACCOMMODATION,
}

SITUATION_OF_TYPE: dict[DialogueType, SituationKind] = {
    DialogueType.PERSUASION: SituationKind.CONFLICT,
    DialogueType.NEGOTIATION: SituationKind.CONFLICT,
    DialogueType.ERISTIC: SituationKind.CONFLICT,
    DialogueType.DEBATE: SituationKind.CONFLICT,
    DialogueType.INQUIRY: SituationKind.OPEN_PROBLEM,
    DialogueType.DELIBERATION: SituationKind.OPEN_PROBLEM,
    DialogueType.INFORMATION_SEEKING: SituationKind.INFO_ASYMMETRY,
    DialogueType.PEDAGOGICAL: SituationKind.INFO_ASYMMETRY,
}


def tables_to_json() -> str:
    """The embedded survey tables as a JSON document, keys sorted."""
    doc = {
        "dialogue_types": {
            (s.value + "/" + g.value): t.value
            for (s, g), t in _TABLE1.items()
        },
        "profiles": {
            t.value: {
                "initial_situation": p.initial_situation_text,
                "individual_goals": p.individual_goals_text,
                "collective_goal": p.collective_goal_text,
                "benefits": p.benefits_text,
            } for t, p in _TABLE2.items()
        },
        "proof_dialogues": {
            t.value: {
                "suspect": r.suspect,
                "initial_situation": r.initial_situation_text,
                "main_goal": r.main_goal_text,
                "prover_goal": r.prover_goal_text,
                "interlocutor_goal": r.interlocutor_goal_text,
            } for t, r in _TABLE3.items()
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
