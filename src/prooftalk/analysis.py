"""Per-document analysis: the reports of `classify` and `analyze`.

Each dialogue is opened, segmented once, replayed against its segments,
its shifts judged and its goal tested; the dialogues' outcomes then give
each proof its status.
"""

from __future__ import annotations

from typing import Optional

from .engine import (
    Polarity,
    StanceMismatch,
    goal_achieved,
    new_dialogue,
    replay_moves,
)
from .markup import DialogueDecl, Document
from .shifts import detect_shifts, segment_moves
from .typology import (
    GOAL_OF_TYPE,
    DialogueType,
    InitialSituation,
    NoDispute,
    Outcome,
    ProofDialogueType,
    SituationKind,
    UndefinedCell,
    assess_proof_status,
    classify_proof_dialogue,
    infer_initial_situation,
    proof_dialogue_row,
)

# Read per commitment: a dict lookup is cheaper than the `value` property.
_POLARITY_NAME = {pol: pol.value for pol in Polarity}


def _classify(decl: DialogueDecl) -> tuple[dict, Optional[ProofDialogueType]]:
    """The dialogue's classification entry and its proof-dialogue row,
    None when no row applies."""
    prover, interlocutor = decl.participants[0], decl.participants[1]
    situation = infer_initial_situation(
        prover.initial_stance, interlocutor.initial_stance)
    goal = GOAL_OF_TYPE[decl.declared_type]
    entry: dict = {
        "declared_type": decl.declared_type.value,
        "main_goal": goal.value,
    }
    if isinstance(situation, NoDispute):
        entry["initial_situation"] = "no_dispute"
        entry["proof_dialogue"] = None
        entry["note"] = "participants already agree; no dialogue arises"
        return entry, None
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
        entry["proof_dialogue"] = None
        entry["note"] = str(exc)
        return entry, None
    entry["proof_dialogue"] = pd.value
    entry["suspect"] = proof_dialogue_row(pd).suspect
    return entry, pd


def classify_document(doc: Document) -> dict:
    """Dialogue name -> classification entry: the `classify` report."""
    return {name: _classify(decl)[0] for name, decl in doc.dialogues.items()}


def _analyze_dialogue(decl: DialogueDecl
                      ) -> tuple[dict, Optional[ProofDialogueType], bool]:
    """The dialogue's entry, its proof-dialogue row, and whether it
    reached its goal without a protocol violation."""
    initial = new_dialogue(
        decl.declared_type, decl.crucial, decl.participants, decl.settlement)
    segments = segment_moves(decl.moves, decl.declared_type)
    result = replay_moves(initial, decl.moves, segments)
    state = result.state
    verdict = goal_achieved(state)
    classification, pd = _classify(decl)
    entry = {
        "dialogue_id": decl.name,
        "final_phase": state.phase.value,
        "goal": {"achieved": verdict.achieved, "reason": verdict.reason},
        "violations": ([] if result.ok else
                       [{"turn": result.violation.turn,
                         "rule": result.violation.rule}]),
        "stores": {
            s.owner: sorted([p, _POLARITY_NAME[pol]]
                            for p, pol in s.commitments)
            for s in state.stores
        },
        "segments": [
            {"start_turn": s.start_turn, "end_turn": s.end_turn,
             "type": s.operative_type.value, "declared": s.declared}
            for s in segments
        ],
        "shifts": [
            {"at_turn": s.at_turn, "from": s.from_type.value,
             "to": s.to_type.value, "kind": s.kind.value,
             "mode": s.mode.value, "licitness": s.licitness.value,
             "reason": s.reason}
            for s in detect_shifts(segments, decl.declared_type)
        ],
        "classification": classification,
    }
    return entry, pd, verdict.achieved and result.ok


def analyze_document(doc: Document) -> dict:
    """The `analyze` report: an entry per dialogue and per proof, by name.

    A dialogue whose stances do not fit its type gets an `error` entry.
    """
    dialogues = []
    outcome_of: dict[str, tuple[ProofDialogueType, Outcome]] = {}
    for name in sorted(doc.dialogues):
        try:
            entry, pd, ok = _analyze_dialogue(doc.dialogues[name])
        except StanceMismatch as exc:
            dialogues.append({"dialogue_id": name, "error": str(exc)})
            continue
        dialogues.append(entry)
        if pd is not None:
            outcome_of[name] = (pd, Outcome.SUCCESS if ok else Outcome.FAILURE)

    proofs = []
    for name in sorted(doc.proofs):
        # One outcome per proof-dialogue row: when several of the listed
        # dialogues fall in one row, the last one listed decides it.
        outcomes = dict(outcome_of[d] for d in doc.proofs[name].dialogues
                        if d in outcome_of)
        verdict = assess_proof_status(outcomes)
        proofs.append({
            "proof_id": name,
            "outcomes": {t.value: o.value for t, o in outcomes.items()},
            "status": verdict.variant.value,
            "diagnostics": list(verdict.diagnostics),
        })
    return {"dialogues": dialogues, "proofs": proofs}
