"""The linear-time cycle, link and challenge checks, the dialogue
replay fold (also on one transcript per rule it can name, and on a
three-party state), `legal_moves`, the segmentation, the legality
table, the one-pass shift detector, the regex tokenizer, the parser and the derived survey
tables agree with the reference versions in `oracles`, the CLI's JSON
writer agrees with the standard library's, and the CLI output on the
shipped corpus matches the recorded golden output byte for byte, also
`report` from a `python -m prooftalk.cli` process."""

import ast
import inspect
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import oracles
from test_fuzz import NEAR_MISSES, documents as fragment_documents
from test_markup import spanned_tokens
from prooftalk.analysis import analyze
from prooftalk.cli import _json, fixture_paths, main
from prooftalk.engine import (
    KIND_RULES,
    CommitmentStore,
    DialogueState,
    Move,
    MoveKind,
    Participant,
    Polarity,
    ProtocolViolation,
    Role,
    StanceMismatch,
    _unanswered_challenge,
    apply_move,
    legal_moves,
    new_dialogue,
    replay_moves,
)
from prooftalk.markup import (
    DialogueDecl,
    Document,
    MarkupError,
    _line_starts,
    _span,
    parse_document,
    serialize,
)
from prooftalk.model import (
    ArgumentGraph,
    CycleError,
    Link,
    LinkRole,
    Proposition,
    SlotMismatch,
    ToulminArgument,
    _has_cycle,
    add_link,
)
from prooftalk.shifts import Segment, detect_shifts, segment_moves
from prooftalk import engine, typology
from prooftalk.typology import DialogueType, Stance

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import dialogues  # noqa: E402  (the long_dialogues benchmark's generator)
import graphs  # noqa: E402  (the argument_graphs benchmark's generator)

N_ARGS = 6
nodes = st.integers(0, N_ARGS - 1)
roles = st.sampled_from(LinkRole)
# Unsorted link tuples over a few arguments: self-loops and duplicate
# edges (also with both roles) come up often.
link_tuples = st.lists(
    st.builds(lambda s, t, r: Link(f"a{s}", f"a{t}", r), nodes, nodes, roles),
    max_size=14).map(tuple)


@given(link_tuples)
def test_has_cycle_matches_reference(links):
    assert _has_cycle(links) is oracles.has_cycle(links)


def full_graph(links=()):
    """Every argument takes every claim, its own included, as a datum,
    and the next argument's claim as backing, so that any datum link
    and some backing links pass the slot check."""
    claims = [f"c{i}" for i in range(N_ARGS)]
    props = {p: Proposition(p, p) for p in claims + ["w"]}
    args = {f"a{i}": ToulminArgument(f"a{i}", tuple(claims), "w", f"c{i}",
                                     backing=f"c{(i + 1) % N_ARGS}")
            for i in range(N_ARGS)}
    return ArgumentGraph(props, args, links)


def outcome(add, graph, source, target, role):
    try:
        return add(graph, source, target, role)
    except (CycleError, SlotMismatch, KeyError) as exc:
        return type(exc), str(exc)


endpoints = st.one_of(nodes.map(lambda i: f"a{i}"), st.just("ghost"))


@st.composite
def acyclic_link_tuples(draw):
    """Unsorted, possibly duplicated links that all run forward in a
    random order of the arguments, so they contain no cycle."""
    rank = draw(st.permutations(range(N_ARGS)))
    pairs = draw(st.lists(st.tuples(nodes, nodes, roles), max_size=14))
    return tuple(
        Link(f"a{min(s, t, key=rank.index)}", f"a{max(s, t, key=rank.index)}", r)
        for s, t, r in pairs if s != t)


@given(acyclic_link_tuples(), endpoints, endpoints, roles)
def test_add_link_matches_reference(links, source, target, role):
    graph = full_graph(links)
    assert outcome(add_link, graph, source, target, role) == \
        outcome(oracles.add_link, graph, source, target, role)


@given(link_tuples, nodes, nodes)
def test_add_link_looks_only_for_a_cycle_through_the_new_link(
        links, source, target):
    # On a caller-built graph that may already hold a cycle, add_link
    # refuses exactly the links whose target reaches their source.
    graph = full_graph(links)
    source, target = f"a{source}", f"a{target}"
    closes = source == target or oracles.reaches(links, target, source)
    result = outcome(add_link, graph, source, target, LinkRole.DATUM)
    if closes:
        assert result[0] is CycleError
    else:
        assert result.links == tuple(sorted(
            links + (Link(source, target, LinkRole.DATUM),)))


moves = st.builds(
    lambda i, speaker, kind, subject: Move(i, speaker, kind, subject),
    st.integers(1, 99), st.sampled_from(["alice", "bob", "carol"]),
    st.sampled_from([MoveKind.ASSERT, MoveKind.CHALLENGE, MoveKind.CHALLENGE,
                     MoveKind.QUESTION, MoveKind.CONCEDE]),
    st.sampled_from(["p", "q", "r"]))


@given(st.lists(moves, max_size=16).map(tuple))
def test_unanswered_challenge_matches_reference(history):
    state = DialogueState(DialogueType.PERSUASION, "p", (), (), history)
    assert _unanswered_challenge(state) == oracles.unanswered_challenge(state)


@pytest.mark.parametrize("kind", MoveKind)
def test_kind_rule_matches_reference(kind):
    # A plain dict with a key for every pair, and no fallback for others.
    assert type(KIND_RULES) is dict
    assert set(KIND_RULES) == set(itertools.product(MoveKind, DialogueType))
    for t in DialogueType:
        expected = (None if oracles.kind_allowed(kind, t)
                    else oracles._kind_rule_id(kind, t))
        assert KIND_RULES[kind, t] == expected


# A shift to a proposition, which only the API builds.
SHIFT_TO_P = (Move(1, "alice", MoveKind.ASSERT, "q"),
              Move(2, "bob", MoveKind.DECLARE_SHIFT, "p"),
              Move(3, "alice", MoveKind.RETRACT, "q"),
              Move(4, "bob", MoveKind.OFFER, "p"),
              Move(5, "alice", MoveKind.THREAT, "p"))


def test_shift_to_a_proposition_opens_no_segment():
    # Retract stays legal under persuasion, an offer drifts, and the
    # replay stops at the shift.
    initial = OPENINGS[DialogueType.PERSUASION][0]
    moves = SHIFT_TO_P
    segments = segment_moves(moves, DialogueType.PERSUASION)
    assert segments == [
        Segment(1, 3, DialogueType.PERSUASION, False, True),
        Segment(4, 5, DialogueType.NEGOTIATION, False, False)]
    result = replay_moves(initial, moves, segments)
    assert result.violation.rule == "shift-target-not-a-type"
    assert result.violation.turn == 2
    assert result.state.history == moves[:1]
    assert result == oracles.replay_moves(initial, moves, segments)
    assert analyzed(initial, moves)["violations"] == [
        {"turn": 2, "rule": "shift-target-not-a-type"}]


def applied(apply, state, move):
    try:
        return apply(state, move)
    except ProtocolViolation as exc:
        return exc.turn, exc.rule, str(exc)


def _opening(dialogue_type, a, b):
    try:
        return new_dialogue(dialogue_type, "p", (
            Participant("alice", Role.PROVER, a),
            Participant("bob", Role.INTERLOCUTOR, b)), settlement="q")
    except StanceMismatch:
        return None


# Every dialogue type with the openings whose stances give rise to it.
OPENINGS = {t: [state for a in Stance for b in Stance
                if (state := _opening(t, a, b)) is not None]
            for t in DialogueType}
PROPS = ["p", "q", "r"]
SUBJECTS = ["p"] * 4 + PROPS + [DialogueType.INQUIRY, None]
SHIFT_TARGETS = list(DialogueType) + ["p"] * 4


def subjects(kind, faulty):
    if kind is MoveKind.DECLARE_SHIFT:
        return SHIFT_TARGETS if faulty else list(DialogueType)
    return SUBJECTS if faulty else PROPS


def legal_in_reference(state, move):
    try:
        oracles.check_move(state, move)
    except ProtocolViolation:
        return False
    return True


@st.composite
def transcripts(draw):
    """A two-party opening and a transcript whose moves are mostly legal
    in the reference fold, so that it runs long.  Now and then a random
    move may close the dialogue or break a rule: a turn out of order, an
    unknown speaker, a shift to a proposition, a move about no
    proposition, a kind the operative type forbids, a conflicting or
    missing commitment, a move after close.  Shifts are declared, and a
    kind the declared type forbids may open a drift."""
    dialogue_type = draw(st.sampled_from(DialogueType))
    initial = state = draw(st.sampled_from(OPENINGS[dialogue_type]))
    moves = []
    for _ in range(draw(st.integers(0, 30))):
        turn = len(state.history) + 1
        speaker = draw(st.sampled_from(["alice", "bob"]))
        legal = [move for move in (
            Move(turn, speaker, kind, subject)
            for kind in MoveKind if kind is not MoveKind.CLOSE
            for subject in subjects(kind, False))
            if legal_in_reference(state, move)]
        if legal and draw(st.integers(0, 7)):
            move = draw(st.sampled_from(legal))
        else:
            kind = draw(st.sampled_from(MoveKind))
            move = Move(turn + draw(st.sampled_from([0] * 10 + [-1, 1])),
                        draw(st.sampled_from([speaker] * 8 + ["carol"])),
                        kind, draw(st.sampled_from(subjects(kind, True))))
        moves.append(move)
        if legal_in_reference(state, move):
            state = oracles.apply_move(state, move)
    return initial, tuple(moves)


@st.composite
def replay_inputs(draw):
    """A transcript with its own segments, or with drift switches
    anywhere, at a violating turn among them."""
    initial, moves = draw(transcripts())
    drifts = st.lists(st.builds(
        lambda turn, t, declared: Segment(turn, turn, t, declared),
        st.integers(1, len(moves) + 1), st.sampled_from(DialogueType),
        st.booleans()), max_size=4)
    first = [Segment(1, 1, initial.declared_type, False)]
    segments = draw(st.one_of(
        st.just(segment_moves(moves, initial.declared_type)),
        drifts.map(lambda d: first + d)))
    return initial, moves, segments


def assert_apply_move_matches_reference(initial, moves):
    """Compare apply_move at each state of the reference fold, with the
    move as written and renumbered to the turn due, and go on from the
    state that one of them reaches."""
    state = initial
    for move in moves:
        due = Move(len(state.history) + 1, move.speaker, move.kind,
                   move.subject)
        for probe in (move, due):
            want = applied(oracles.apply_move, state, probe)
            assert applied(apply_move, state, probe) == want
            if isinstance(want, DialogueState):
                state = want
                break


@settings(max_examples=300)
@given(replay_inputs())
def test_replay_moves_matches_reference(case):
    initial, moves, segments = case
    assert replay_moves(initial, moves, segments) == \
        oracles.replay_moves(initial, moves, segments)


@settings(max_examples=200)
@given(transcripts())
def test_apply_move_matches_reference(case):
    assert_apply_move_matches_reference(*case)


@settings(max_examples=300)
@example((OPENINGS[DialogueType.PERSUASION][0], SHIFT_TO_P))
@given(transcripts())
def test_segment_moves_matches_reference(case):
    # Declared shifts, drifts and shifts to a proposition, from the
    # transcript's declared type and, for more drifts, from every type.
    _, moves = case
    for initial_type in DialogueType:
        assert segment_moves(moves, initial_type) == \
            oracles.segment_moves(moves, initial_type)


def M(turn, speaker, kind, subject):
    """A move with its kind given by name."""
    return Move(turn, speaker, MoveKind(kind), subject)


# One short transcript per rule the move check can name, each broken by
# its last move.  In the persuasion, alice affirms p and bob denies it.
PERSUADE = OPENINGS[DialogueType.PERSUASION][0]
RULE_CASES = {
    "dialogue-closed": (PERSUADE, (M(1, "alice", "close", "p"),
                                   M(2, "bob", "assert", "q"))),
    "turn-out-of-order": (PERSUADE, (M(1, "alice", "assert", "q"),
                                     M(3, "bob", "assert", "q"))),
    "unknown-speaker": (PERSUADE, (M(1, "carol", "assert", "q"),)),
    "shift-target-not-a-type": (PERSUADE, (
        M(1, "alice", "declare_shift", "p"),)),
    "subject-not-a-proposition": (PERSUADE, (M(1, "alice", "assert", None),)),
    "retract-forbidden-in-inquiry": (OPENINGS[DialogueType.INQUIRY][0], (
        M(1, "alice", "assert", "q"), M(2, "alice", "retract", "q"))),
    "offer-move-outside-settlement-dialogue": (PERSUADE, (
        M(1, "alice", "offer", "q"),)),
    "threat-move-outside-negotiation": (
        OPENINGS[DialogueType.DELIBERATION][0],
        (M(1, "alice", "offer", "q"), M(2, "bob", "threat", "q"))),
    "conflicting-commitment": (PERSUADE, (M(1, "alice", "assert", "q"),
                                          M(2, "bob", "assert", "p"))),
    "challenge-own-assertion": (PERSUADE, (M(1, "alice", "assert", "q"),
                                           M(2, "alice", "challenge", "q"))),
    "challenge-uncommitted": (PERSUADE, (M(1, "alice", "assert", "q"),
                                         M(2, "alice", "challenge", "r"))),
    "concede-unasserted": (PERSUADE, (M(1, "alice", "assert", "q"),
                                      M(2, "alice", "concede", "q"))),
    "retract-without-commitment": (PERSUADE, (M(1, "alice", "assert", "q"),
                                              M(2, "bob", "retract", "q"))),
}


def test_rule_cases_cover_every_rule_the_check_names():
    check = ast.parse(inspect.getsource(engine._check_move))
    named = {call.args[1].value for call in ast.walk(check)
             if isinstance(call, ast.Call)
             and getattr(call.func, "id", None) == "ViolationInfo"
             and isinstance(call.args[1], ast.Constant)}
    assert set(RULE_CASES) == named | set(KIND_RULES.values()) - {None}


@pytest.mark.parametrize("rule", sorted(RULE_CASES))
def test_each_rule_matches_reference(rule):
    # No drift switches: the declared type's kind rules hold throughout.
    initial, moves = RULE_CASES[rule]
    result = replay_moves(initial, moves, [])
    assert result == oracles.replay_moves(initial, moves, [])
    assert result.violation[:2] == (moves[-1].turn, rule)
    assert result.state.history == moves[:-1]
    assert applied(apply_move, result.state, moves[-1]) == \
        applied(oracles.apply_move, result.state, moves[-1]) == \
        result.violation


def test_three_store_replay_matches_reference():
    # new_dialogue opens two-party dialogues only, but the state takes
    # more.  Carol's commitments alone make alice's challenge and bob's
    # concession legal, and her own affirmation does not let her concede.
    people = (Participant("alice", Role.PROVER, Stance.TRUE),
              Participant("bob", Role.INTERLOCUTOR, Stance.FALSE),
              Participant("carol", Role.INTERLOCUTOR, Stance.UNKNOWN))
    initial = DialogueState(
        DialogueType.PERSUASION, "p", people,
        (CommitmentStore("alice", frozenset({("p", Polarity.AFFIRMED)})),
         CommitmentStore("bob", frozenset({("p", Polarity.DENIED)})),
         CommitmentStore("carol")))
    moves = (M(1, "carol", "assert", "r"), M(2, "carol", "assert", "s"),
             M(3, "alice", "challenge", "r"), M(4, "bob", "concede", "r"),
             M(5, "carol", "concede", "s"))
    result = replay_moves(initial, moves, [])
    assert result == oracles.replay_moves(initial, moves, [])
    assert result.violation[:2] == (5, "concede-unasserted")
    assert result.state.history == moves[:4]
    assert_apply_move_matches_reference(initial, moves)


def reference_universe(state):
    """The propositions `legal_moves` probes by default."""
    props = {state.crucial_proposition, "_fresh"}
    if state.settlement:
        props.add(state.settlement)
    props |= {p for s in state.stores for p, _ in s.commitments}
    return props | {m.subject for m in state.history
                    if isinstance(m.subject, str)}


def reference_legal_kinds(state, speaker, universe):
    """The kinds for which some probe passes the reference check."""
    turn = (state.history[-1].turn + 1) if state.history else 1
    return [kind for kind in MoveKind if any(
        legal_in_reference(state, Move(turn, speaker, kind, subject))
        for subject in ([DialogueType.DELIBERATION]
                        if kind is MoveKind.DECLARE_SHIFT else universe))]


@settings(max_examples=100)
@given(transcripts())
def test_legal_moves_matches_reference(case):
    initial, moves = case
    states = [initial]
    for move in moves:
        if legal_in_reference(states[-1], move):
            states.append(oracles.apply_move(states[-1], move))
    for state in states:
        for speaker in ("alice", "bob"):
            assert legal_moves(state, speaker, set(PROPS)) == \
                reference_legal_kinds(state, speaker, PROPS)
            assert legal_moves(state, speaker) == reference_legal_kinds(
                state, speaker, reference_universe(state))


def analyzed(initial, moves):
    """The `analyze` entry of the transcript from the opening state."""
    decl = DialogueDecl("d", initial.declared_type, initial.participants,
                        initial.crucial_proposition, initial.settlement,
                        moves)
    entry, = analyze(Document(dialogues={"d": decl})).report()["dialogues"]
    return entry


@settings(max_examples=200)
@example((OPENINGS[DialogueType.PERSUASION][0], SHIFT_TO_P))
@given(transcripts())
def test_analysis_names_only_dialogue_types(case):
    # Shifts to a proposition and moves about a type come up often; the
    # report still names a dialogue type as every segment's and every
    # shift's type.
    entry = analyzed(*case)
    types = {t.value for t in DialogueType}
    assert {s["type"] for s in entry["segments"]} <= types
    assert {s[end] for s in entry["shifts"] for end in ("from", "to")} <= types



# Few types, so that a type often repeats, also in adjacent segments,
# and all three goal grades come up.
shift_types = st.sampled_from([
    DialogueType.INQUIRY, DialogueType.PERSUASION,
    DialogueType.DELIBERATION, DialogueType.ERISTIC])


@st.composite
def shift_segments(draw):
    """A declared type and segments of one or two turns each, declared
    or not, with a sharp or a blurred boundary."""
    specs = draw(st.lists(
        st.tuples(shift_types, st.booleans(), st.booleans()), max_size=8))
    segments, turn = [], 1
    for t, declared, sharp in specs:
        end = turn + draw(st.integers(0, 1))
        segments.append(Segment(turn, end, t, declared, sharp))
        turn = end + 1
    return segments, draw(shift_types)


@settings(max_examples=300)
@example(([], DialogueType.INQUIRY))
@example(([Segment(1, 1, DialogueType.INQUIRY, False),
           Segment(2, 2, DialogueType.INQUIRY, True, False),
           Segment(3, 3, DialogueType.DELIBERATION, False, False),
           Segment(4, 4, DialogueType.INQUIRY, False)],
          DialogueType.DELIBERATION))
@given(shift_segments())
def test_detect_shifts_matches_reference(case):
    segments, declared_type = case
    opening = Segment(0, 0, declared_type, True)
    assert detect_shifts(segments, declared_type) == \
        oracles.detect_shifts([opening] + segments)

def fixture_dialogues():
    for path in fixture_paths():
        doc = parse_document(path.read_text(encoding="utf-8"))
        for decl in doc.dialogues.values():
            yield pytest.param(decl, id=f"{path.stem}:{decl.name}")


@pytest.mark.parametrize("decl", fixture_dialogues())
def test_replay_matches_reference_on_fixtures(decl):
    initial = new_dialogue(decl.declared_type, decl.crucial,
                           decl.participants, decl.settlement)
    segments = segment_moves(decl.moves, decl.declared_type)
    assert replay_moves(initial, decl.moves, segments) == \
        oracles.replay_moves(initial, decl.moves, segments)
    assert_apply_move_matches_reference(initial, decl.moves)


def markup_outcome(fn, source):
    """The function's result, or the errors it raised."""
    try:
        return fn(source)
    except MarkupError as exc:
        return exc.errors


# Characters where the token rules have edges: the whitespace set, comment
# and string delimiters, escapes, punctuation, identifier starts, ASCII
# digits and the digits and numerics that are not ASCII, plus vertical tab
# and no-break space, which are not whitespace.
EDGE_ALPHABET = ' \t\r\n#"\\<-{}:,;_aZé09²٣½\x0b\xa0'

edge_text = st.text(EDGE_ALPHABET)
# Runs of edge text, bare or quoted, so that strings holding newlines,
# escapes and quotes come up with more tokens after them.
edge_sources = st.lists(
    st.one_of(edge_text, edge_text.map('"{}"'.format))).map("".join)


def reference_tokens(source):
    return [(t.kind, t.value, t.span) for t in oracles.tokenize(source)]


def assert_tokenize_matches_reference(source):
    """The same kinds, values and spans (line, column, offset, length),
    the library's spans rebuilt from its offset tuples, or the same
    errors."""
    assert markup_outcome(spanned_tokens, source) == \
        markup_outcome(reference_tokens, source)


@settings(max_examples=500)
@given(st.one_of(st.text(), edge_sources))
def test_tokenize_matches_reference(source):
    assert_tokenize_matches_reference(source)


@pytest.mark.parametrize("path", fixture_paths(), ids=lambda p: p.name)
def test_tokenize_matches_reference_on_fixtures(path):
    assert_tokenize_matches_reference(path.read_text(encoding="utf-8"))


@settings(max_examples=300)
@example("")
@example("\n")
@example("a\r\nb\r\n")
@example("a\rb\r")
@given(st.one_of(edge_sources, st.text(" \r\nab")))
def test_span_helper_matches_a_direct_count(source):
    # Only LF ends a line: a CR, alone or before LF, is inside its line.
    starts = _line_starts(source)
    for offset in range(len(source) + 1):
        span = _span(starts, offset, 0)
        assert span.line == source.count("\n", 0, offset) + 1
        assert span.column == offset - (source.rfind("\n", 0, offset) + 1) + 1
        assert (span.offset, span.length) == (offset, 0)


def assert_parse_matches_reference(source):
    """The same document with the same argument spans, or the same
    errors in the same order."""
    got = markup_outcome(parse_document, source)
    want = markup_outcome(oracles.parse_document, source)
    if isinstance(want, list):
        assert got == want
        return
    doc, block_spans = want
    assert got == doc
    assert got.argument_spans == {
        key.removeprefix("argument:"): span
        for key, span in block_spans.items() if key.startswith("argument:")}


@settings(max_examples=300)
@example('"abc\\')
@given(st.one_of(st.text(), fragment_documents))
def test_parse_document_matches_reference(source):
    assert_parse_matches_reference(source)


@pytest.mark.parametrize("path", fixture_paths(), ids=lambda p: p.name)
def test_parse_document_matches_reference_on_fixtures(path):
    assert_parse_matches_reference(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("shape", graphs.SHAPES)
@pytest.mark.parametrize("n_args", [20, 60, 200])
def test_parse_document_matches_reference_on_benchmark_graphs(n_args, shape):
    # The shapes the argument_graphs benchmark times, read almost
    # entirely as whole statements.
    text, _ = graphs.make_document(f"differential:{n_args}:{shape}", n_args, shape)
    assert_parse_matches_reference(text)


@pytest.mark.parametrize("shape", graphs.SHAPES)
@pytest.mark.parametrize("n_args", [20, 60, 200])
def test_serialize_round_trips_benchmark_graphs(n_args, shape):
    # Arguments with several `uses` lines, to data and (in DAGs) to
    # backings: the serializer writes the links in the order the graph
    # keeps them, whether the parser resolved them or `add_link` put
    # them in one at a time in writing order.
    text, model = graphs.make_document(f"roundtrip:{n_args}:{shape}", n_args, shape)
    doc = parse_document(text)
    assert {link.role for link in doc.graph.links} == (
        {LinkRole.DATUM, LinkRole.BACKING} if shape == "dag" else {LinkRole.DATUM})
    canonical = serialize(doc)
    assert parse_document(canonical) == doc
    assert serialize(parse_document(canonical)) == canonical
    rebuilt = ArgumentGraph(doc.graph.propositions, doc.graph.arguments)
    for source, target, role in model["links"]:
        rebuilt = add_link(rebuilt, source, target, LinkRole(role))
    assert serialize(Document(rebuilt)) == canonical


@pytest.mark.parametrize("plant", dialogues.PLANTS)
def test_parse_document_matches_reference_on_benchmark_dialogues(plant):
    # The documents the long_dialogues benchmark times: a long run of
    # `prop` lines, then two dialogues of long `move` runs.
    text, _ = dialogues.make_document(f"differential:300:{plant}", 300, plant)
    assert_parse_matches_reference(text)


@pytest.mark.parametrize("line", NEAR_MISSES)
@pytest.mark.parametrize("block", ["", 'argument "a" {', 'dialogue "d" {'])
def test_near_misses_match_reference(block, line):
    # Where a statement is read whole: at the top level, and first in an
    # argument or a dialogue block.
    source = f'prop p: "P"\n{block}\n{line}\n' + ("}\n" if block else "")
    assert_parse_matches_reference(source)


# Lines that end a run of `move` or `prop` lines, besides the near misses.
RUN_BREAKS = (
    "move 3 x assert later",  # declared after the dialogue
    "move 3 x assert nowhere",  # never declared: reported at its span
    "move 3 x declare_shift fermat", "move 3 x conjecture p", "# a comment",
    'prop p: "other text"',
)
# Lines that end or test a run of argument entries.
ARGUMENT_BREAKS = (
    'data claim: "x"',  # a keyword id
    'data d1: "other text"',  # conflicts with an id earlier in the run
    'warrant v: "V"',  # a repeated single-valued slot
    'data q:\n"Q"',  # one slot over two lines
    'uses data <- argument "b"',
)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("run", ["move", "prop", "argument"])
@pytest.mark.parametrize("line", NEAR_MISSES + RUN_BREAKS + ARGUMENT_BREAKS)
def test_near_misses_in_a_run_match_reference(line, run, newline):
    # A run is read whole up to the first line it cannot take; the token
    # path reads that line, and the lines after it start a new run.
    if run == "move":
        lines = ['prop p: "P"', 'dialogue "d" {', "  type: persuasion",
                 "  participants: x, y", "  stance x p: true",
                 "  stance y p: false", "  move 1 x assert p",
                 "  move 2 y question p", f"  {line}", "  move 3 x assert p",
                 "  move 4 y declare_shift deliberation", "}"]
    elif run == "prop":
        lines = ['prop p: "P"', 'prop q: "Q"', line, 'prop r: "R"',
                 'prop s: "S"']
    else:
        lines = ['prop p: "P"', 'argument "b" {', '  data x: "X"',
                 '  claim q: "Q"', "}", 'argument "a" {', '  data d1: "D1"',
                 '  warrant w: "W"', '  data d2: "D2"', f"  {line}",
                 '  data q: "Q"', '  uses q <- argument "b"',
                 '  qualifier: probably', '  rebuttal r: "R"',
                 '  claim c: "C"', "}"]
    source = "\n".join(lines + ['prop later: "L"', ""])
    assert_parse_matches_reference(source.replace("\n", newline))


@pytest.mark.parametrize("name", [
    "_TABLE1", "GOAL_OF_TYPE", "SITUATION_OF_TYPE", "_TABLE3", "_PROOF_ROWS"])
def test_survey_table_matches_reference(name):
    assert getattr(typology, name) == getattr(oracles, name)


GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "fixture_outputs.json")
    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_fixture_output_matches_golden(case, monkeypatch, capsys):
    """A case is `FILE COMMAND [OPTION...]`, or a command without a file."""
    words = case.split()
    argv = words[1:] + words[:1] if words[0].endswith(".arg") else words
    monkeypatch.chdir(fixture_paths()[0].parent)
    code = main(argv)
    out, err = capsys.readouterr()
    assert {"exit": code, "stdout": out, "stderr": err} == GOLDEN[case]


def assert_text_matches_reference(path, capsys):
    """`classify` and `analyze` give as text what the reference builds
    from their JSON report, with the same exit status."""
    for command in ("classify", "analyze"):
        code = main([command, str(path), "--format", "json"])
        report, err = capsys.readouterr()
        text_code = main([command, str(path), "--format", "text"])
        text, text_err = capsys.readouterr()
        if code == 2:  # not loaded, or no dialogues to analyze
            assert (text, text_err, text_code) == ("", err, 2)
            continue
        report = json.loads(report)
        if command == "classify":
            want = (oracles.classify_text(report), 0)
        else:
            want = (oracles.analyze_text(report),
                    oracles.analyze_exit_status(report))
        assert (text, text_code) == want and code == want[1]


STANCE_MISMATCH = ('prop p: "x"\ndialogue "d" {\n  type: inquiry\n'
                   '  participants: a, b\n  stance a p: true\n'
                   '  stance b p: false\n}\n')
TEXT_CASES = {
    **{f"plant_{plant}": dialogues.make_document(f"text:{plant}", 100, plant)[0]
       for plant in dialogues.PLANTS},
    "stance_mismatch": STANCE_MISMATCH,
    **{path.stem: path.read_text(encoding="utf-8") for path in fixture_paths()},
}


@pytest.mark.parametrize("case", sorted(TEXT_CASES))
def test_text_output_matches_reference(case, tmp_path, capsys):
    # The plants hold a violation, an unanswered challenge and a drift.
    path = tmp_path / f"{case}.arg"
    path.write_text(TEXT_CASES[case], encoding="utf-8")
    assert_text_matches_reference(path, capsys)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fragment_documents)
def test_text_output_matches_reference_on_fragments(tmp_path, capsys, source):
    path = tmp_path / "fragments.arg"
    path.write_text(source, encoding="utf-8")
    assert_text_matches_reference(path, capsys)


def test_cli_runs_as_a_module():
    # The benchmark times `python -m prooftalk.cli` processes.
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-m", "prooftalk.cli", "report"],
                         env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, GOLDEN["report"]["stdout"])


# Strings with the characters the writer must escape as the standard
# library does: quotes, backslashes, control characters, non-ASCII
# and lone surrogates.
json_strings = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\xe9\ud800\udfff'),
    st.characters(blacklist_categories=())))
json_scalars = st.one_of(
    json_strings, st.integers(), st.integers(-2**100, 2**100),
    st.booleans(), st.none())
# Lists of equal-width string rows, which the writer emits in one step.
json_rows = st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(json_strings, min_size=width, max_size=width), min_size=1))
json_trees = st.recursive(json_scalars, lambda children: st.one_of(
    st.lists(children), st.lists(children).map(tuple),
    st.dictionaries(json_strings, children), json_rows), max_leaves=40)


@settings(max_examples=300)
@example({})
@example([[], (), {"": {}}])
@example({"stores": {"a": [["p", "affirmed"], ["q", "denied"]], "b": []}})
@example([["a", "b"]])  # a single row
@example([["a", "b"], ["c"]])  # a row of another width
@example([["a"], []])  # an empty row
@example([[], ["a"]])
@example([[], []])
@example([["a", "b"], ("c", "d")])  # a tuple row among lists
@example([["a", "b"], "cd"])  # a string, a dict and an int as wide as a row
@example([["a", "b"], {"c": "d", "e": "f"}])
@example([["a"], 7])
@example([["a", 1], ["b", 2]])
@example([["a", None]])
@example([["a"], [True]])
@example([["%", "%s"], ["%%", "100%d"]])
@example([[Polarity.AFFIRMED, "p"], ["q", Polarity.DENIED]])
@given(st.one_of(json_trees, json_rows))
def test_json_writer_matches_stdlib(value):
    assert _json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [1.5, {1, 2}, object()])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json(value)
    with pytest.raises(TypeError):
        _json({"nested": [value]})
