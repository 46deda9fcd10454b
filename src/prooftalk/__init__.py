"""Structured mathematical argumentation: Toulmin layouts, typed
dialogues, commitment-store replay and shift analysis."""

from .model import (
    ArgumentGraph,
    CycleError,
    Diagnostic,
    Proposition,
    Qualifier,
    QualifierKind,
    Severity,
    SlotMismatch,
    ToulminArgument,
    add_link,
    export_dot,
    render_reading,
    validate_argument,
    validate_graph,
)
from .typology import (
    AsymmetryDirection,
    DialogueType,
    InitialSituation,
    MainGoal,
    NoDispute,
    Outcome,
    ProofDialogueType,
    ProofStatus,
    ProofStatusKind,
    SituationKind,
    Stance,
    UndefinedCell,
    assess_proof_status,
    classify_dialogue,
    classify_proof_dialogue,
    dialogue_profile,
    infer_initial_situation,
)
from .engine import (
    DialogueState,
    Move,
    MoveKind,
    Participant,
    Polarity,
    ProtocolViolation,
    Role,
    StanceMismatch,
    apply_move,
    goal_achieved,
    legal_moves,
    new_dialogue,
    replay_moves,
)
from .shifts import (
    Licitness,
    Segment,
    Shift,
    ShiftKind,
    ShiftMode,
    detect_shifts,
    judge_licitness,
)
from .markup import Document, MarkupError, parse_document, serialize, tokenize
from .analysis import analyze_document, classify_document

__version__ = "0.1.0"
