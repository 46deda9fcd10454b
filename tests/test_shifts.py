import itertools

from prooftalk.engine import KIND_RULES, Move, MoveKind
from prooftalk.shifts import (
    Licitness,
    Segment,
    ShiftKind,
    ShiftMode,
    detect_shifts,
    judge_licitness,
    segment_moves,
)
from prooftalk.typology import DialogueType


def moves(*specs):
    out = []
    for turn, (speaker, kind, subject) in enumerate(specs, start=1):
        out.append(Move(turn, speaker, kind, subject))
    return tuple(out)


A, Q, C, O = MoveKind.ASSERT, MoveKind.QUESTION, MoveKind.CONCEDE, MoveKind.OFFER
DS = MoveKind.DECLARE_SHIFT


class TestSegmentation:
    def test_uniform_transcript_single_segment(self):
        ms = moves(("a", A, "p"), ("b", Q, "p"), ("b", C, "p"))
        segs = segment_moves(ms, DialogueType.INQUIRY)
        assert segs == [Segment(1, 3, DialogueType.INQUIRY, False, True)]

    def test_negotiation_allows_every_move_kind(self):
        # So an undeclared drift always has a candidate type.
        assert all(KIND_RULES[k, DialogueType.NEGOTIATION] is None
                   for k in MoveKind)

    def test_empty_transcript(self):
        assert segment_moves((), DialogueType.INQUIRY) == []

    def test_two_declared_shifts_make_three_segments(self):
        ms = moves(("a", A, "p"), ("b", Q, "p"), ("a", A, "p"), ("b", Q, "p"),
                   ("a", DS, DialogueType.DELIBERATION), ("b", Q, "p"),
                   ("a", A, "p"), ("b", Q, "p"),
                   ("a", DS, DialogueType.INQUIRY), ("b", Q, "p"),
                   ("a", A, "p"), ("b", C, "p"))
        segs = segment_moves(ms, DialogueType.INQUIRY)
        # hand trace: declared boundaries at turns 5 and 9
        assert [(s.start_turn, s.end_turn, s.operative_type, s.declared)
                for s in segs] == [
            (1, 4, DialogueType.INQUIRY, False),
            (5, 8, DialogueType.DELIBERATION, True),
            (9, 12, DialogueType.INQUIRY, True),
        ]

    def test_undeclared_bargaining_drift(self):
        ms = moves(("a", A, "p"), ("b", Q, "p"), ("a", A, "s"),
                   ("a", O, "s"), ("b", O, "s"), ("b", C, "s"))
        segs = segment_moves(ms, DialogueType.INQUIRY)
        # hand trace: offers begin at turn 4; deliberation admits them
        assert [(s.start_turn, s.end_turn, s.operative_type, s.declared)
                for s in segs] == [
            (1, 3, DialogueType.INQUIRY, False),
            (4, 6, DialogueType.DELIBERATION, False),
        ]

    def test_threat_pins_negotiation_sharply(self):
        ms = moves(("a", A, "p"), ("a", MoveKind.THREAT, "p"), ("b", C, "p"))
        segs = segment_moves(ms, DialogueType.PERSUASION)
        assert segs[1].operative_type is DialogueType.NEGOTIATION
        assert segs[1].sharp

    def test_segments_partition_turns(self):
        cases = [
            moves(("a", A, "p")),
            moves(("a", A, "p"), ("a", DS, DialogueType.NEGOTIATION),
                  ("a", O, "p"), ("b", Q, "p")),
            moves(("a", A, "p"), ("a", O, "p"), ("b", O, "p"), ("b", Q, "p")),
        ]
        for ms in [m for m in cases if m]:
            segs = segment_moves(ms, DialogueType.PERSUASION)
            covered = []
            for s in segs:
                assert s.start_turn <= s.end_turn
                covered.extend(range(s.start_turn, s.end_turn + 1))
            assert covered == list(range(1, ms[-1].turn + 1))


class TestDetectShifts:
    def test_single_segment_no_shifts(self):
        segs = [Segment(1, 5, DialogueType.INQUIRY, False)]
        assert detect_shifts(segs, segs[0].operative_type) == []

    def test_embedding_with_return_shift(self):
        segs = [Segment(1, 4, DialogueType.INQUIRY, True),
                Segment(5, 8, DialogueType.DELIBERATION, True),
                Segment(9, 12, DialogueType.INQUIRY, True)]
        shifts = detect_shifts(segs, segs[0].operative_type)
        assert len(shifts) == 2
        assert shifts[0].mode is ShiftMode.EMBEDDING
        assert shifts[0].from_type is DialogueType.INQUIRY
        assert shifts[0].to_type is DialogueType.DELIBERATION
        assert shifts[1].mode is ShiftMode.REPLACEMENT

    def test_replacement_without_resumption(self):
        segs = [Segment(1, 6, DialogueType.INQUIRY, False),
                Segment(7, 10, DialogueType.NEGOTIATION, False, sharp=False)]
        shifts = detect_shifts(segs, segs[0].operative_type)
        assert len(shifts) == 1
        assert shifts[0].mode is ShiftMode.REPLACEMENT
        assert shifts[0].kind is ShiftKind.GRADUAL

    def test_declared_boundary_is_abrupt(self):
        segs = [Segment(1, 2, DialogueType.INQUIRY, False),
                Segment(3, 4, DialogueType.ERISTIC, True)]
        shifts = detect_shifts(segs, segs[0].operative_type)
        assert shifts[0].kind is ShiftKind.ABRUPT

    def test_count_equals_adjacent_differing_pairs(self):
        types = [DialogueType.INQUIRY, DialogueType.DELIBERATION,
                 DialogueType.NEGOTIATION]
        for combo in itertools.product(types, repeat=5):
            segs = [Segment(i * 2 + 1, i * 2 + 2, t, True)
                    for i, t in enumerate(combo)]
            expected = sum(1 for x, y in zip(combo, combo[1:]) if x != y)
            assert len(detect_shifts(segs, segs[0].operative_type)) == expected

    def test_no_hidden_cross_boundary_state(self):
        segs = [Segment(1, 2, DialogueType.INQUIRY, False),
                Segment(3, 4, DialogueType.DELIBERATION, False, sharp=False),
                Segment(5, 6, DialogueType.NEGOTIATION, True)]
        combined = detect_shifts(segs, segs[0].operative_type)
        for i, shift in enumerate(combined):
            licitness, _ = judge_licitness(
                shift.from_type, shift.to_type, segs[i + 1].declared)
            assert licitness is shift.licitness


class TestJudgeLicitness:
    def test_undeclared_weakening_is_illicit(self):
        licitness, reason = judge_licitness(
            DialogueType.INQUIRY, DialogueType.DELIBERATION, declared=False)
        assert licitness is Licitness.ILLICIT
        assert "settlement-grade" in reason

    def test_declared_weakening_is_licit(self):
        licitness, _ = judge_licitness(
            DialogueType.INQUIRY, DialogueType.DELIBERATION, declared=True)
        assert licitness is Licitness.LICIT

    def test_strengthening_is_licit_even_undeclared(self):
        licitness, _ = judge_licitness(
            DialogueType.DELIBERATION, DialogueType.INQUIRY, declared=False)
        assert licitness is Licitness.LICIT

    def test_declared_never_illicit(self):
        for a, b in itertools.product(DialogueType, repeat=2):
            if a == b:
                continue
            licitness, _ = judge_licitness(a, b, declared=True)
            assert licitness is Licitness.LICIT

    def test_same_grade_is_licit(self):
        licitness, _ = judge_licitness(
            DialogueType.DELIBERATION, DialogueType.NEGOTIATION, declared=False)
        assert licitness is Licitness.LICIT

    def test_reason_names_persuasion_to_negotiation(self):
        licitness, reason = judge_licitness(
            DialogueType.PERSUASION, DialogueType.NEGOTIATION, declared=False)
        assert licitness is Licitness.ILLICIT
        assert reason == ("settlement-grade negotiation conclusion presented "
                          "in resolution-grade persuasion context")

    def test_reason_names_inquiry_to_eristic(self):
        licitness, reason = judge_licitness(
            DialogueType.INQUIRY, DialogueType.ERISTIC, declared=False)
        assert licitness is Licitness.ILLICIT
        assert reason == ("accommodation-grade eristic conclusion presented "
                          "in resolution-grade inquiry context")
