"""Per-document analysis: the outputs of `classify` and `analyze`.

Each dialogue is opened, segmented once, replayed against its segments,
its shifts judged and its goal tested, into one outcome.  The outcomes
give each proof its status, and every output is rendered from them.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .engine import (DialogueState, GoalVerdict, StanceMismatch, ViolationInfo,
                     goal_achieved, new_dialogue, replay_moves)
from .markup import DialogueDecl, Document
from .shifts import detect_shifts, segment_moves
from .typology import (
    GOAL_OF_TYPE, DialogueType, InitialSituation, NoDispute, Outcome,
    ProofDialogueType, ProofStatus, SituationKind, UndefinedCell,
    assess_proof_status, classify_proof_dialogue, infer_initial_situation,
    proof_dialogue_row)


def _classify(decl: DialogueDecl) -> tuple[Optional[ProofDialogueType], dict]:
    """The dialogue's proof-dialogue row, None when no row applies, and
    its classification entry."""
    situation = infer_initial_situation(decl.participants[0].initial_stance,
                                        decl.participants[1].initial_stance)
    goal = GOAL_OF_TYPE[decl.declared_type]
    entry: dict = {"declared_type": decl.declared_type.value,
                   "main_goal": goal.value}
    if isinstance(situation, NoDispute):
        entry.update(initial_situation="no_dispute", proof_dialogue=None,
                     note="participants already agree; no dialogue arises")
        return None, entry
    # Eristic and debate treat a conflict as one that cannot be reconciled.
    if decl.declared_type in (DialogueType.ERISTIC, DialogueType.DEBATE) \
            and situation.variant is SituationKind.CONFLICT:
        situation = InitialSituation(situation.variant, irreconcilable=True)
    entry["initial_situation"] = situation.variant.value
    if situation.asymmetry_direction:
        entry["asymmetry_direction"] = situation.asymmetry_direction.value
    try:
        pd = classify_proof_dialogue(situation, goal)
    except UndefinedCell as exc:
        entry.update(proof_dialogue=None, note=str(exc))
        return None, entry
    entry["proof_dialogue"] = pd.value
    entry["suspect"] = proof_dialogue_row(pd).suspect
    return pd, entry


def classify_document(doc: Document) -> dict:
    """Dialogue name -> classification entry: the `classify` report."""
    return {name: _classify(decl)[1] for name, decl in doc.dialogues.items()}


def classify_text(doc: Document) -> str:
    """The `classify` text: a line per dialogue, by name."""
    return "\n".join(
        f"{name}: {e['declared_type']} ({e['initial_situation']} / "
        f"{e['main_goal']}) -> {e['proof_dialogue'] or 'undefined'}"
        for name, e in sorted(classify_document(doc).items())) + "\n"


class DialogueOutcome(NamedTuple):
    """A dialogue's outcome; a stance mismatch gives the name and error only."""
    name: str
    row: Optional[ProofDialogueType] = None  # None when no row applies
    classification: Optional[dict] = None
    verdict: Optional[GoalVerdict] = None
    violation: Optional[ViolationInfo] = None  # the first one
    state: Optional[DialogueState] = None  # at close: stores and phase
    segments: Optional[list] = None
    shifts: Optional[list] = None
    error: Optional[str] = None  # the StanceMismatch message

    @property
    def succeeded(self) -> bool:
        """Whether it reached its goal without a protocol violation."""
        return self.violation is None and self.verdict.achieved

    def entry(self) -> dict:
        """The dialogue's entry in the `analyze` report."""
        if self.error is not None:
            return {"dialogue_id": self.name, "error": self.error}
        v = self.violation
        return {
            "dialogue_id": self.name,
            "final_phase": self.state.phase.value,
            "goal": {"achieved": self.verdict.achieved,
                     "reason": self.verdict.reason},
            "violations": [] if v is None else [{"turn": v.turn, "rule": v.rule}],
            # The (proposition, polarity) pairs sort in C, by proposition; a
            # polarity is a `str` enum, which the writer quotes as its value.
            "stores": {s.owner: list(map(list, sorted(s.commitments)))
                       for s in self.state.stores},
            "segments": [
                {"start_turn": s.start_turn, "end_turn": s.end_turn,
                 "type": s.operative_type.value, "declared": s.declared}
                for s in self.segments],
            "shifts": [
                {"at_turn": s.at_turn, "from": s.from_type.value,
                 "to": s.to_type.value, "kind": s.kind.value,
                 "mode": s.mode.value, "licitness": s.licitness.value,
                 "reason": s.reason}
                for s in self.shifts],
            "classification": self.classification,
        }

    def line(self) -> str:
        """The dialogue's line in the `analyze` text."""
        if self.error is not None:
            return f"{self.name}: error: {self.error}"
        goal = "achieved" if self.verdict.achieved else "not achieved"
        line = (f"{self.name}: goal {goal} ({self.verdict.reason}); "
                f"{len(self.shifts)} shift(s)")
        if self.violation is not None:  # the replay stops at the first
            line += (f"; 1 violation(s), first: {self.violation.rule} "
                     f"at turn {self.violation.turn}")
        return line


def _outcome(decl: DialogueDecl) -> DialogueOutcome:
    try:
        initial = new_dialogue(decl.declared_type, decl.crucial,
                               decl.participants, decl.settlement)
    except StanceMismatch as exc:
        return DialogueOutcome(decl.name, error=str(exc))
    segments = segment_moves(decl.moves, decl.declared_type)
    result = replay_moves(initial, decl.moves, segments)
    return DialogueOutcome(
        decl.name, *_classify(decl), goal_achieved(result.state),
        result.violation, result.state, segments,
        detect_shifts(segments, decl.declared_type))


class Analysis(NamedTuple):
    """Each dialogue's outcome and each proof's rows and status, by name."""
    dialogues: list[DialogueOutcome]
    proofs: list[tuple[str, dict[ProofDialogueType, Outcome], ProofStatus]]

    def report(self) -> dict:
        """The `analyze` JSON report: an entry per dialogue and per proof."""
        return {"dialogues": [d.entry() for d in self.dialogues], "proofs": [
            {"proof_id": name,
             "outcomes": {t.value: o.value for t, o in outcomes.items()},
             "status": status.variant.value,
             "diagnostics": list(status.diagnostics)}
            for name, outcomes, status in self.proofs]}

    def text(self) -> str:
        """The `analyze` text: a line per dialogue, then per proof."""
        return "\n".join([d.line() for d in self.dialogues] + [
            f"proof {name}: {status.variant.value}"
            for name, _, status in self.proofs]) + "\n"

    @property
    def exit_status(self) -> int:
        """1 when a dialogue has an error or a protocol violation, else 0."""
        return 1 if any(d.error is not None or d.violation is not None
                        for d in self.dialogues) else 0


def analyze(doc: Document) -> Analysis:
    """Each dialogue's outcome, then each proof's status from them."""
    dialogues = [_outcome(doc.dialogues[name]) for name in sorted(doc.dialogues)]
    # A dialogue with an error, or with no row, feeds no proof.
    outcome_of = {
        d.name: (d.row, Outcome.SUCCESS if d.succeeded else Outcome.FAILURE)
        for d in dialogues if d.row is not None}
    proofs = []
    for name in sorted(doc.proofs):
        # One outcome per proof-dialogue row: when several of the listed
        # dialogues fall in one row, the last one listed decides it.
        outcomes = dict(outcome_of[d] for d in doc.proofs[name].dialogues
                        if d in outcome_of)
        proofs.append((name, outcomes, assess_proof_status(outcomes)))
    return Analysis(dialogues, proofs)


def analyze_document(doc: Document) -> dict:
    """The `analyze` report; a dialogue whose stances do not fit its type
    gets an `error` entry."""
    return analyze(doc).report()
