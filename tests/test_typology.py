import itertools

import pytest

from prooftalk.typology import (
    AsymmetryDirection,
    DialogueType,
    InitialSituation,
    MainGoal,
    NoDispute,
    Outcome,
    ProofDialogueType,
    ProofStatusKind,
    SituationKind,
    Stance,
    UndefinedCell,
    assess_proof_status,
    classify_dialogue,
    classify_proof_dialogue,
    dialogue_profile,
    infer_initial_situation,
    proof_dialogue_row,
    survey_tables,
)


class TestInferInitialSituation:
    def test_true_false_is_conflict(self):
        s = infer_initial_situation(Stance.TRUE, Stance.FALSE)
        assert s.variant is SituationKind.CONFLICT

    def test_double_unknown_is_open_problem(self):
        s = infer_initial_situation(Stance.UNKNOWN, Stance.UNKNOWN)
        assert s.variant is SituationKind.OPEN_PROBLEM

    def test_agreement_is_no_dispute(self):
        assert isinstance(
            infer_initial_situation(Stance.TRUE, Stance.TRUE), NoDispute)
        assert isinstance(
            infer_initial_situation(Stance.FALSE, Stance.FALSE), NoDispute)

    def test_all_nine_pairs(self):
        expected = {
            (Stance.TRUE, Stance.TRUE): "no_dispute",
            (Stance.FALSE, Stance.FALSE): "no_dispute",
            (Stance.TRUE, Stance.FALSE): SituationKind.CONFLICT,
            (Stance.FALSE, Stance.TRUE): SituationKind.CONFLICT,
            (Stance.UNKNOWN, Stance.UNKNOWN): SituationKind.OPEN_PROBLEM,
            (Stance.TRUE, Stance.UNKNOWN): SituationKind.INFO_ASYMMETRY,
            (Stance.FALSE, Stance.UNKNOWN): SituationKind.INFO_ASYMMETRY,
            (Stance.UNKNOWN, Stance.TRUE): SituationKind.INFO_ASYMMETRY,
            (Stance.UNKNOWN, Stance.FALSE): SituationKind.INFO_ASYMMETRY,
        }
        for pair, want in expected.items():
            got = infer_initial_situation(*pair)
            if want == "no_dispute":
                assert isinstance(got, NoDispute)
            else:
                assert got.variant is want

    def test_asymmetry_direction_tracks_committed_party(self):
        # prover committed, interlocutor ignorant
        s = infer_initial_situation(Stance.TRUE, Stance.UNKNOWN)
        assert s.asymmetry_direction is AsymmetryDirection.INTERLOCUTOR_LACKS
        s = infer_initial_situation(Stance.UNKNOWN, Stance.FALSE)
        assert s.asymmetry_direction is AsymmetryDirection.PROVER_LACKS

    def test_symmetric_up_to_direction_swap(self):
        for a, b in itertools.product(Stance, repeat=2):
            x, y = infer_initial_situation(a, b), infer_initial_situation(b, a)
            if isinstance(x, NoDispute):
                assert isinstance(y, NoDispute)
            else:
                assert x.variant is y.variant

    @pytest.mark.parametrize("variant, direction, irreconcilable", [
        (SituationKind.CONFLICT, AsymmetryDirection.PROVER_LACKS, False),
        (SituationKind.INFO_ASYMMETRY, None, False),
        (SituationKind.OPEN_PROBLEM, None, True)])
    def test_situation_checks_its_fields(
            self, variant, direction, irreconcilable):
        with pytest.raises(ValueError):
            InitialSituation(variant, direction, irreconcilable)


SITUATIONS = {
    SituationKind.CONFLICT: InitialSituation(SituationKind.CONFLICT),
    SituationKind.OPEN_PROBLEM: InitialSituation(SituationKind.OPEN_PROBLEM),
    SituationKind.INFO_ASYMMETRY: InitialSituation(
        SituationKind.INFO_ASYMMETRY, AsymmetryDirection.INTERLOCUTOR_LACKS),
}


class TestClassifyDialogue:
    TABLE = {
        (SituationKind.CONFLICT, MainGoal.STABLE_RESOLUTION):
            DialogueType.PERSUASION,
        (SituationKind.CONFLICT, MainGoal.PRACTICAL_SETTLEMENT):
            DialogueType.NEGOTIATION,
        (SituationKind.CONFLICT, MainGoal.PROVISIONAL_ACCOMMODATION):
            DialogueType.ERISTIC,
        (SituationKind.OPEN_PROBLEM, MainGoal.STABLE_RESOLUTION):
            DialogueType.INQUIRY,
        (SituationKind.OPEN_PROBLEM, MainGoal.PRACTICAL_SETTLEMENT):
            DialogueType.DELIBERATION,
        (SituationKind.INFO_ASYMMETRY, MainGoal.STABLE_RESOLUTION):
            DialogueType.INFORMATION_SEEKING,
    }

    def test_exhaustive_three_by_three(self):
        for kind, goal in itertools.product(SituationKind, MainGoal):
            situation = SITUATIONS[kind]
            if (kind, goal) in self.TABLE:
                assert classify_dialogue(situation, goal) \
                    is self.TABLE[(kind, goal)]
            else:
                with pytest.raises(UndefinedCell):
                    classify_dialogue(situation, goal)

    def test_open_problem_accommodation_is_undefined(self):
        with pytest.raises(UndefinedCell):
            classify_dialogue(SITUATIONS[SituationKind.OPEN_PROBLEM],
                              MainGoal.PROVISIONAL_ACCOMMODATION)


class TestDialogueProfile:
    def test_inquiry_collective_goal(self):
        assert dialogue_profile(DialogueType.INQUIRY).collective_goal_text \
            == "Prove or disprove conjecture"

    def test_quarrel_individual_goals(self):
        assert dialogue_profile(DialogueType.ERISTIC).individual_goals_text \
            == "Verbally hit out at and humiliate opponent"

    def test_debate_initial_situation(self):
        assert dialogue_profile(DialogueType.DEBATE).initial_situation_text \
            == "Adversarial"

    def test_total_over_all_eight_types(self):
        for t in DialogueType:
            assert dialogue_profile(t).benefits_text


def extended_situations():
    """All distinct situation shapes for the proof-dialogue grid."""
    return [
        InitialSituation(SituationKind.OPEN_PROBLEM),
        InitialSituation(SituationKind.CONFLICT),
        InitialSituation(SituationKind.CONFLICT, irreconcilable=True),
        InitialSituation(SituationKind.INFO_ASYMMETRY,
                         AsymmetryDirection.INTERLOCUTOR_LACKS),
        InitialSituation(SituationKind.INFO_ASYMMETRY,
                         AsymmetryDirection.PROVER_LACKS),
    ]


class TestClassifyProofDialogue:
    def test_open_problem_resolution_is_inquiry(self):
        t = classify_proof_dialogue(
            InitialSituation(SituationKind.OPEN_PROBLEM),
            MainGoal.STABLE_RESOLUTION)
        assert t is ProofDialogueType.PROOF_AS_INQUIRY
        assert proof_dialogue_row(t).suspect is False

    def test_prover_lacks_is_suspect(self):
        t = classify_proof_dialogue(
            InitialSituation(SituationKind.INFO_ASYMMETRY,
                             AsymmetryDirection.PROVER_LACKS),
            MainGoal.STABLE_RESOLUTION)
        assert t is ProofDialogueType.SUSPECT_INFO_SEEKING
        assert proof_dialogue_row(t).suspect is True

    def test_reconcilable_conflict_settlement_is_negotiation(self):
        t = classify_proof_dialogue(
            InitialSituation(SituationKind.CONFLICT),
            MainGoal.PRACTICAL_SETTLEMENT)
        assert t is ProofDialogueType.SUSPECT_NEGOTIATION
        assert proof_dialogue_row(t).main_goal_text \
            == "Exchange resources for a provisional conclusion"

    def test_exhaustive_extended_grid(self):
        open_problem, conflict, irreconcilable, pupil, prover = \
            extended_situations()
        stable, practical, provisional = (
            MainGoal.STABLE_RESOLUTION, MainGoal.PRACTICAL_SETTLEMENT,
            MainGoal.PROVISIONAL_ACCOMMODATION)
        expected = {
            (open_problem, stable): ProofDialogueType.PROOF_AS_INQUIRY,
            (open_problem, practical): ProofDialogueType.SUSPECT_DELIBERATION,
            (open_problem, provisional): None,
            (conflict, stable): ProofDialogueType.PROOF_AS_PERSUASION,
            (conflict, practical): ProofDialogueType.SUSPECT_NEGOTIATION,
            (conflict, provisional): None,
            (irreconcilable, stable): None,
            (irreconcilable, practical): None,
            (irreconcilable, provisional): ProofDialogueType.SUSPECT_ERISTIC,
            (pupil, stable): ProofDialogueType.PROOF_AS_PEDAGOGICAL,
            (pupil, practical): None,
            (pupil, provisional): None,
            (prover, stable): ProofDialogueType.SUSPECT_INFO_SEEKING,
            (prover, practical): None,
            (prover, provisional): None,
        }
        cells = {}
        for s in extended_situations():
            for g in MainGoal:
                try:
                    cells[(s, g)] = classify_proof_dialogue(s, g)
                except UndefinedCell:
                    cells[(s, g)] = None
        assert cells == expected

    def test_exactly_four_suspect_rows(self):
        suspect = {t for t in ProofDialogueType if proof_dialogue_row(t).suspect}
        assert suspect == {
            ProofDialogueType.SUSPECT_INFO_SEEKING,
            ProofDialogueType.SUSPECT_DELIBERATION,
            ProofDialogueType.SUSPECT_NEGOTIATION,
            ProofDialogueType.SUSPECT_ERISTIC,
        }


def all_outcome_maps():
    types = list(ProofDialogueType)
    for values in itertools.product(Outcome, repeat=len(types)):
        yield dict(zip(types, values))


class TestAssessProofStatus:
    S, F, N = Outcome.SUCCESS, Outcome.FAILURE, Outcome.NOT_ATTEMPTED

    def test_ideal_proof(self):
        status = assess_proof_status({
            ProofDialogueType.PROOF_AS_INQUIRY: self.S,
            ProofDialogueType.PROOF_AS_PERSUASION: self.S,
            ProofDialogueType.PROOF_AS_PEDAGOGICAL: self.S,
        })
        assert status.variant is ProofStatusKind.IDEAL_PROOF

    def test_wiles_first_attempt_is_not_proof(self):
        status = assess_proof_status({
            ProofDialogueType.PROOF_AS_INQUIRY: self.S,
            ProofDialogueType.PROOF_AS_PERSUASION: self.F,
        })
        assert status.variant is ProofStatusKind.NOT_PROOF

    def test_pedagogical_only_is_heuristic(self):
        status = assess_proof_status({
            ProofDialogueType.PROOF_AS_PEDAGOGICAL: self.S,
            ProofDialogueType.PROOF_AS_INQUIRY: self.F,
            ProofDialogueType.PROOF_AS_PERSUASION: self.F,
        })
        assert status.variant is ProofStatusKind.HEURISTIC_ONLY

    def test_pedagogical_failure_still_proof(self):
        status = assess_proof_status({
            ProofDialogueType.PROOF_AS_INQUIRY: self.S,
            ProofDialogueType.PROOF_AS_PERSUASION: self.S,
            ProofDialogueType.PROOF_AS_PEDAGOGICAL: self.F,
        })
        assert status.variant is ProofStatusKind.PROOF

    def test_suspect_successes_only_is_settlement(self):
        status = assess_proof_status({
            ProofDialogueType.SUSPECT_DELIBERATION: self.S,
            ProofDialogueType.SUSPECT_NEGOTIATION: self.S,
        })
        assert status.variant is ProofStatusKind.NON_RIGOROUS_SETTLEMENT

    def test_all_2187_maps_respect_necessity(self):
        proofish = {ProofStatusKind.PROOF, ProofStatusKind.IDEAL_PROOF}
        for outcomes in all_outcome_maps():
            status = assess_proof_status(outcomes)
            inquiry = outcomes[ProofDialogueType.PROOF_AS_INQUIRY]
            persuasion = outcomes[ProofDialogueType.PROOF_AS_PERSUASION]
            if inquiry is self.S and persuasion is self.S:
                assert status.variant in proofish
            if persuasion is not self.S:
                assert status.variant not in proofish
            if inquiry is not self.S:
                assert status.variant not in proofish
            assert status.diagnostics

    def test_flipping_pedagogical_never_crosses_proof_boundary(self):
        proofish = {ProofStatusKind.PROOF, ProofStatusKind.IDEAL_PROOF}
        for outcomes in all_outcome_maps():
            variants = set()
            for o in Outcome:
                flipped = dict(outcomes)
                flipped[ProofDialogueType.PROOF_AS_PEDAGOGICAL] = o
                variants.add(assess_proof_status(flipped).variant)
            sides = {v in proofish for v in variants}
            assert len(sides) == 1

    def test_missing_entries_count_as_not_attempted(self):
        assert assess_proof_status({}).variant is ProofStatusKind.NOT_PROOF


def test_tables_json_is_deterministic_and_complete():
    doc = survey_tables()
    assert doc == survey_tables()
    assert len(doc["profiles"]) == 8
    assert len(doc["proof_dialogues"]) == 7
    assert len(doc["dialogue_types"]) == 6
    assert doc["profiles"]["pedagogical"]["benefits"] == "Reserve transfer"
    assert doc["proof_dialogues"]["suspect_eristic"] == {
        "suspect": True,
        "initial_situation": "Irreconcilable difference of opinion",
        "main_goal": "Reveal deeper conflict",
        "prover_goal": "Clarify position",
        "interlocutor_goal": "Clarify position",
    }
