import itertools

import pytest

from prooftalk.analysis import analyze
from prooftalk.engine import (
    CommitmentStore,
    DialogueState,
    GoalVerdict,
    Move,
    MoveKind,
    Participant,
    Phase,
    Polarity,
    ProtocolViolation,
    ReplayResult,
    Role,
    StanceMismatch,
    apply_move,
    goal_achieved,
    legal_moves,
    new_dialogue,
    replay_moves,
)
from prooftalk.markup import DialogueDecl, Document
from prooftalk.shifts import Segment, segment_moves
from prooftalk.typology import DialogueType, Stance

PROPS = {"p1", "p2"}


def participants(a=Stance.UNKNOWN, b=Stance.UNKNOWN):
    return (Participant("alice", Role.PROVER, a),
            Participant("bob", Role.INTERLOCUTOR, b))


def inquiry_state():
    return new_dialogue(DialogueType.INQUIRY, "p1", participants())


def persuasion_state():
    return new_dialogue(DialogueType.PERSUASION, "p1",
                        participants(Stance.TRUE, Stance.FALSE))


def replay(initial, moves):
    return replay_moves(initial, moves,
                        segment_moves(moves, initial.declared_type))


class TestNewDialogue:
    def test_inquiry_from_mutual_ignorance(self):
        state = inquiry_state()
        assert state.phase is Phase.OPEN
        assert state.history == ()
        assert all(s.commitments == frozenset() for s in state.stores)

    def test_inquiry_rejects_conflict_stances(self):
        with pytest.raises(StanceMismatch):
            new_dialogue(DialogueType.INQUIRY, "p1",
                         participants(Stance.TRUE, Stance.FALSE))

    def test_persuasion_accepts_conflict(self):
        state = persuasion_state()
        assert state.store_of("alice").polarity_of("p1") is Polarity.AFFIRMED
        assert state.store_of("bob").polarity_of("p1") is Polarity.DENIED

    def test_no_dispute_rejected_everywhere(self):
        for t in DialogueType:
            with pytest.raises(StanceMismatch):
                new_dialogue(t, "p1", participants(Stance.TRUE, Stance.TRUE))

    def test_requires_two_participants(self):
        with pytest.raises(ValueError):
            new_dialogue(DialogueType.INQUIRY, "p1",
                         (Participant("solo", Role.PROVER, Stance.UNKNOWN),))

    def test_requires_distinct_participant_ids(self):
        twin = Participant("alice", Role.PROVER, Stance.UNKNOWN)
        with pytest.raises(ValueError):
            new_dialogue(DialogueType.INQUIRY, "p1", (twin, twin))

    def test_store_of_an_unknown_participant(self):
        with pytest.raises(KeyError):
            inquiry_state().store_of("z")


class TestDialogueState:
    def test_operative_type_defaults_to_the_declared_type(self):
        state = DialogueState(DialogueType.INQUIRY, "p1", participants(), ())
        assert state.current_type is DialogueType.INQUIRY
        state = DialogueState(DialogueType.INQUIRY, "p1", participants(), (),
                              current_type=DialogueType.DELIBERATION)
        assert state.current_type is DialogueType.DELIBERATION

    def test_fields_cannot_be_assigned(self):
        state = apply_move(inquiry_state(),
                           Move(1, "alice", MoveKind.ASSERT, "p1"))
        assert type(state) is DialogueState
        with pytest.raises(AttributeError):
            state.phase = Phase.CLOSED


class TestApplyMove:
    def test_assert_adds_affirmed(self):
        state = apply_move(inquiry_state(),
                           Move(1, "alice", MoveKind.ASSERT, "p1"))
        assert state.store_of("alice").polarity_of("p1") is Polarity.AFFIRMED
        assert len(state.history) == 1

    def test_retract_forbidden_in_inquiry(self):
        state = apply_move(inquiry_state(),
                           Move(1, "alice", MoveKind.ASSERT, "p1"))
        with pytest.raises(ProtocolViolation) as exc:
            apply_move(state, Move(2, "alice", MoveKind.RETRACT, "p1"))
        assert exc.value.rule == "retract-forbidden-in-inquiry"

    def test_retract_allowed_in_persuasion(self):
        state = apply_move(persuasion_state(),
                           Move(1, "alice", MoveKind.RETRACT, "p1"))
        assert state.store_of("alice").polarity_of("p1") is None

    def test_challenge_own_assertion_rejected(self):
        state = apply_move(inquiry_state(),
                           Move(1, "alice", MoveKind.ASSERT, "p1"))
        with pytest.raises(ProtocolViolation) as exc:
            apply_move(state, Move(2, "alice", MoveKind.CHALLENGE, "p1"))
        assert exc.value.rule == "challenge-own-assertion"

    def test_challenge_of_other_commitment_ok(self):
        state = apply_move(persuasion_state(),
                           Move(1, "bob", MoveKind.CHALLENGE, "p1"))
        # stores unchanged
        assert state.store_of("bob").polarity_of("p1") is Polarity.DENIED

    def test_threat_outside_negotiation(self):
        with pytest.raises(ProtocolViolation) as exc:
            apply_move(persuasion_state(),
                       Move(1, "alice", MoveKind.THREAT, "p1"))
        assert exc.value.rule == "threat-move-outside-negotiation"

    def test_threat_legal_in_negotiation(self):
        state = new_dialogue(DialogueType.NEGOTIATION, "p1",
                             participants(Stance.TRUE, Stance.FALSE))
        apply_move(state, Move(1, "alice", MoveKind.THREAT, "p1"))

    def test_concede_flips_denial(self):
        state = persuasion_state()
        state = apply_move(state, Move(1, "bob", MoveKind.CONCEDE, "p1"))
        assert state.store_of("bob").polarity_of("p1") is Polarity.AFFIRMED

    def test_assert_against_own_denial_rejected(self):
        with pytest.raises(ProtocolViolation) as exc:
            apply_move(persuasion_state(),
                       Move(1, "bob", MoveKind.ASSERT, "p1"))
        assert exc.value.rule == "conflicting-commitment"

    def test_close_ends_dialogue(self):
        state = apply_move(inquiry_state(),
                           Move(1, "alice", MoveKind.CLOSE, "p1"))
        assert state.phase is Phase.CLOSED
        with pytest.raises(ProtocolViolation):
            apply_move(state, Move(2, "bob", MoveKind.ASSERT, "p1"))

    def test_turn_gap_rejected(self):
        with pytest.raises(ProtocolViolation) as exc:
            apply_move(inquiry_state(),
                       Move(3, "alice", MoveKind.ASSERT, "p1"))
        assert exc.value.rule == "turn-out-of-order"

    def test_declare_shift_changes_operative_type(self):
        state = apply_move(
            inquiry_state(),
            Move(1, "alice", MoveKind.DECLARE_SHIFT, DialogueType.DELIBERATION))
        assert state.current_type is DialogueType.DELIBERATION
        assert state.declared_type is DialogueType.INQUIRY

    def test_determinism(self):
        move = Move(1, "alice", MoveKind.ASSERT, "p1")
        assert apply_move(inquiry_state(), move) \
            == apply_move(inquiry_state(), move)


def enumerate_moves(state, turn):
    """Every well-formed move at the given turn over the test universe."""
    for speaker in ("alice", "bob"):
        for kind in MoveKind:
            if kind is MoveKind.DECLARE_SHIFT:
                for t in (DialogueType.DELIBERATION, DialogueType.NEGOTIATION):
                    yield Move(turn, speaker, kind, t)
            else:
                for prop in sorted(PROPS):
                    yield Move(turn, speaker, kind, prop)


def abstract_key(state):
    return (tuple(sorted((s.owner, tuple(sorted(s.commitments)))
                         for s in state.stores)),
            state.phase, state.current_type)


class TestLegalMovesCoherence:
    def test_closed_dialogue_has_no_moves(self):
        state = apply_move(inquiry_state(),
                           Move(1, "alice", MoveKind.CLOSE, "p1"))
        assert legal_moves(state, "alice") == []

    def test_fresh_inquiry_kinds(self):
        kinds = legal_moves(inquiry_state(), "alice", PROPS)
        assert MoveKind.ASSERT in kinds
        assert MoveKind.QUESTION in kinds
        assert MoveKind.CLOSE in kinds
        assert MoveKind.RETRACT not in kinds

    def test_negotiation_offers_what_persuasion_excludes(self):
        nego = new_dialogue(DialogueType.NEGOTIATION, "p1",
                            participants(Stance.TRUE, Stance.FALSE))
        pers = persuasion_state()
        nego_kinds = set(legal_moves(nego, "alice", PROPS))
        pers_kinds = set(legal_moves(pers, "alice", PROPS))
        assert MoveKind.OFFER in nego_kinds - pers_kinds
        assert MoveKind.THREAT in nego_kinds - pers_kinds

    def test_coherent_with_apply_move_depth_four(self):
        # brute-force oracle over all reachable states, deduplicated on
        # the history-independent part of the state
        frontier = [inquiry_state()]
        seen = {abstract_key(frontier[0])}
        for _ in range(4):
            next_frontier = []
            for state in frontier:
                turn = len(state.history) + 1
                accepted_kinds = {"alice": set(), "bob": set()}
                for move in enumerate_moves(state, turn):
                    try:
                        succ = apply_move(state, move)
                    except ProtocolViolation:
                        continue
                    accepted_kinds[move.speaker].add(move.kind)
                    for store in succ.stores:
                        props = [p for p, _ in store.commitments]
                        assert len(props) == len(set(props)), \
                            "store holds both polarities"
                    key = abstract_key(succ)
                    if key not in seen:
                        seen.add(key)
                        next_frontier.append(succ)
                for speaker in ("alice", "bob"):
                    assert set(legal_moves(state, speaker, PROPS)) \
                        == accepted_kinds[speaker]
            frontier = next_frontier


class TestGoalAchieved:
    def test_fresh_dialogue_not_achieved(self):
        verdict = goal_achieved(inquiry_state())
        assert not verdict.achieved

    def test_inquiry_agreement_achieved(self):
        state = inquiry_state()
        state = apply_move(state, Move(1, "alice", MoveKind.ASSERT, "p1"))
        state = apply_move(state, Move(2, "bob", MoveKind.CONCEDE, "p1"))
        verdict = goal_achieved(state)
        assert verdict.achieved

    def test_persuasion_unconvinced_sceptic(self):
        state = apply_move(persuasion_state(),
                           Move(1, "alice", MoveKind.ASSERT, "p2"))
        assert not goal_achieved(state).achieved

    def test_persuasion_concession_achieves(self):
        state = persuasion_state()
        state = apply_move(state, Move(1, "bob", MoveKind.CONCEDE, "p1"))
        assert goal_achieved(state).achieved

    def test_unanswered_challenge_blocks_persuasion(self):
        state = persuasion_state()
        state = apply_move(state, Move(1, "alice", MoveKind.ASSERT, "p2"))
        state = apply_move(state, Move(2, "bob", MoveKind.CHALLENGE, "p2"))
        state = apply_move(state, Move(3, "alice", MoveKind.QUESTION, "p1"))
        state = apply_move(state, Move(4, "bob", MoveKind.CONCEDE, "p1"))
        state = apply_move(state, Move(5, "alice", MoveKind.CLOSE, "p1"))
        verdict = goal_achieved(state)
        assert not verdict.achieved
        assert "unanswered challenge" in verdict.reason

    def test_answered_challenge_allows_persuasion(self):
        state = persuasion_state()
        state = apply_move(state, Move(1, "alice", MoveKind.ASSERT, "p2"))
        state = apply_move(state, Move(2, "bob", MoveKind.CHALLENGE, "p2"))
        state = apply_move(state, Move(3, "alice", MoveKind.ASSERT, "p2"))
        state = apply_move(state, Move(4, "bob", MoveKind.CONCEDE, "p1"))
        assert goal_achieved(state).achieved

    def test_settlement_goal(self):
        state = new_dialogue(DialogueType.DELIBERATION, "p1",
                             participants(), settlement="p2")
        assert not goal_achieved(state).achieved
        state = apply_move(state, Move(1, "alice", MoveKind.ASSERT, "p2"))
        state = apply_move(state, Move(2, "bob", MoveKind.CONCEDE, "p2"))
        assert goal_achieved(state).achieved

    def test_eristic_explicit_positions(self):
        state = new_dialogue(DialogueType.ERISTIC, "p1",
                             participants(Stance.TRUE, Stance.FALSE))
        verdict = goal_achieved(state)
        assert verdict.achieved  # seeded stores already make positions explicit

    @pytest.mark.parametrize("dtype", [DialogueType.INFORMATION_SEEKING,
                                       DialogueType.PEDAGOGICAL])
    def test_information_transfer_goal(self, dtype):
        state = new_dialogue(dtype, "p1",
                             participants(Stance.TRUE, Stance.UNKNOWN))
        assert goal_achieved(state) == GoalVerdict(
            False, "seeker has not acquired the information")
        state = apply_move(state, Move(1, "alice", MoveKind.ASSERT, "p1"))
        state = apply_move(state, Move(2, "bob", MoveKind.CONCEDE, "p1"))
        assert goal_achieved(state) == GoalVerdict(
            True, "knowledge transferred to the seeker")

    def test_deliberation_without_settlement(self):
        state = new_dialogue(DialogueType.DELIBERATION, "p1", participants())
        assert goal_achieved(state) == GoalVerdict(
            False, "no settlement proposition designated")

    def test_eristic_position_withdrawn(self):
        state = new_dialogue(DialogueType.ERISTIC, "p1",
                             participants(Stance.TRUE, Stance.FALSE))
        state = apply_move(state, Move(1, "alice", MoveKind.RETRACT, "p1"))
        assert goal_achieved(state) == GoalVerdict(
            False, "positions not yet explicit")

    @pytest.mark.parametrize("dtype", [DialogueType.INFORMATION_SEEKING,
                                       DialogueType.PEDAGOGICAL])
    @pytest.mark.parametrize("stances", [(Stance.TRUE, Stance.FALSE),
                                         (Stance.UNKNOWN, Stance.UNKNOWN)])
    def test_information_goal_without_asymmetry(self, dtype, stances):
        # new_dialogue refuses these stances; a caller-built state that
        # has no informed party or no seeker gets a verdict, not an error
        state = DialogueState(
            dtype, "p1", participants(*stances),
            tuple(CommitmentStore(p.id) for p in participants(*stances)))
        assert goal_achieved(state) == GoalVerdict(
            False, "no information asymmetry to resolve")

    def test_inquiry_achievement_implies_no_dispute(self):
        from prooftalk.typology import NoDispute, infer_initial_situation
        state = inquiry_state()
        state = apply_move(state, Move(1, "alice", MoveKind.ASSERT, "p1"))
        state = apply_move(state, Move(2, "bob", MoveKind.CONCEDE, "p1"))
        assert goal_achieved(state).achieved
        final = {p.id: Stance.TRUE if state.store_of(p.id).polarity_of("p1")
                 is Polarity.AFFIRMED else Stance.FALSE
                 for p in state.participants}
        assert isinstance(
            infer_initial_situation(final["alice"], final["bob"]), NoDispute)


class TestReplay:
    def test_empty_moves_returns_initial(self):
        initial = inquiry_state()
        result = replay_moves(initial, (), [])
        assert result.violation is None
        assert result.state == initial

    def test_out_of_order_turns_reported(self):
        result = replay(inquiry_state(), (
            Move(1, "alice", MoveKind.ASSERT, "p1"),
            Move(3, "bob", MoveKind.QUESTION, "p1"),
        ))
        assert result.violation is not None
        assert result.violation.turn == 3
        assert result.violation.rule == "turn-out-of-order"
        # snapshot precedes the offending move
        assert len(result.state.history) == 1

    def test_undeclared_drift_segment_switches_operative_type(self):
        # an offer is not an inquiry move; the drift segment from turn 2
        # makes it a deliberation move
        moves = (Move(1, "alice", MoveKind.ASSERT, "p1"),
                 Move(2, "bob", MoveKind.OFFER, "p2"))
        assert replay_moves(inquiry_state(), moves, []).violation.rule \
            == "offer-move-outside-settlement-dialogue"
        drift = [Segment(1, 1, DialogueType.INQUIRY, False),
                 Segment(2, 2, DialogueType.DELIBERATION, False)]
        result = replay_moves(inquiry_state(), moves, drift)
        assert result.violation is None
        assert result.state.current_type is DialogueType.DELIBERATION

    def test_drift_at_the_first_move_switches_operative_type(self):
        # the segments open with a deliberation drift at turn 1, which
        # applies there as at any later turn
        moves = (Move(1, "alice", MoveKind.OFFER, "p2"),
                 Move(2, "bob", MoveKind.OFFER, "p2"))
        segments = segment_moves(moves, DialogueType.INQUIRY)
        assert segments == [Segment(1, 2, DialogueType.DELIBERATION, False,
                                    sharp=False)]
        result = replay_moves(inquiry_state(), moves, segments)
        assert result.violation is None
        assert result.state.current_type is DialogueType.DELIBERATION

    def test_wiles_fixture_persuasion_fails(self, corpus):
        decl = corpus["wiles_attempt"][1].dialogues["wiles_persuasion"]
        initial = new_dialogue(decl.declared_type, decl.crucial,
                               decl.participants)
        result = replay(initial, decl.moves)
        assert result.violation is None
        verdict = goal_achieved(result.state)
        assert not verdict.achieved

    def test_store_provenance_audit(self, corpus):
        # every commitment traces back to an assert/concede not later
        # retracted, or to the seeded initial stance
        for _, doc in corpus.values():
            for decl in doc.dialogues.values():
                initial = new_dialogue(decl.declared_type, decl.crucial,
                                       decl.participants, decl.settlement)
                result = replay(initial, decl.moves)
                assert result.violation is None
                for store in result.state.stores:
                    for prop, pol in store.commitments:
                        events = [
                            m for m in decl.moves
                            if m.speaker == store.owner and m.subject == prop
                            and m.kind in (MoveKind.ASSERT, MoveKind.CONCEDE,
                                           MoveKind.RETRACT)]
                        seeded = initial.store_of(store.owner).polarity_of(prop)
                        if events:
                            assert events[-1].kind is not MoveKind.RETRACT
                        else:
                            assert seeded == pol

    def test_replay_report_shape(self):
        decl = DialogueDecl("demo", DialogueType.INQUIRY, participants(), "p1",
                            None, (Move(1, "alice", MoveKind.ASSERT, "p1"),))
        report = analyze(Document(dialogues={"demo": decl})).report()
        [entry] = report["dialogues"]
        assert set(entry) == {"dialogue_id", "final_phase", "goal",
                              "violations", "stores", "segments", "shifts",
                              "classification"}
        assert entry["stores"]["alice"] == [["p1", "affirmed"]]
