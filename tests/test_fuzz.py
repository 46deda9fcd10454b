"""Robustness: no input makes the parser or a command raise.

Documents are drawn as arbitrary text and as concatenations of grammar
fragments, among them the edge cases the parser has to reject with a
located error: an empty custom qualifier label, one- and three-party
`participants` lines and `uses` lines outside any argument.  Fragments
also carry CRLF line ends, tabs, a comment that may end the file,
Unicode identifiers, and near misses of the one-line statements that
the parser reads with one match.  A third kind of document is one
well-formed dialogue under a proof, whose run of `move` lines may hold
one near miss, so that draws reach replay and the goal check.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from prooftalk.cli import main
from prooftalk.markup import (
    MOVE_WORDS, TYPE_WORDS, Document, MarkupError, parse_document)
from prooftalk.typology import SITUATION_OF_TYPE, SituationKind

# Edges of the one-line statements that the parser reads with one match:
# most fall just outside, so the token path reads them (two hold a digit
# that is not ASCII, which the lexer rejects).
NEAR_MISSES = (
    'move 1 data assert p', 'move 1 x assert data', 'move 1 x declare_shift p',
    'move 1 x asserts p', 'move 007 x assert p', 'move 1 x assert p"s"',
    'move 1\tx\tassert\tp', 'prop data: "x"', 'prop p: "a \\" b"',
    'data p:"P"', 'stance x p: "P"', 'move \u0663 x assert p',
    'move 1 \u00b2x assert p', 'move 1234567890 x assert p',
    'qualifier: probably2', 'qualifier:probably', 'qualifier: custom "x"',
    'qualifier: probably "x"', 'uses argument <- argument "a"',
    'uses c <-argument "a"', 'uses c < - argument "a"', 'uses c <- proof "a"',
    'uses c <- argument "a\\"b"', 'uses \u00e9 <- argument "a"',
    'argument "a"{', 'argument "a\\"" {', 'dialogue"d" {', 'prop "p" {', '}}',
)

FRAGMENTS = (
    'version 1', 'prop p: "P"', 'prop q: "Q"', '}',
    'argument "a" {', 'argument "b" {', 'data p: "P"', 'data d: "D"',
    'warrant w: "W"', 'claim c: "C"', 'claim p: "P"', 'backing b: "B"',
    'rebuttal r: "R"', 'qualifier: probably', 'qualifier: necessarily',
    'qualifier: custom "beyond doubt"', 'qualifier: custom ""',
    'uses p <- argument "a"', 'uses c <- argument "b"',
    'dialogue "d" {', 'type: persuasion', 'type: inquiry', 'type: eristic',
    'participants: x, y', 'participants: x', 'participants: x, y, z',
    'stance x p: true', 'stance y p: false', 'stance y p: unknown',
    'settlement q', 'move 1 x assert p', 'move 2 y challenge p',
    'move 3 x declare_shift deliberation', 'move 3 x offer q',
    'move 4 y concede p', 'move 5 x close p',
    'proof "pr" {', 'dialogues: d', 'dialogues: "d"',
    'prop q: "Q"\r', '\tclaim c: "C"\t', '# comment, maybe at the end',
    'prop é_1: "É"', 'participants: ünal, ñ', 'stance ünal é_1: true',
    'move 1 ñ assert é_1', *NEAR_MISSES,
)

EMPTY_LABEL = 'argument "a" {\nqualifier: custom ""\n}'

documents = st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("\n".join)

# Runs of `move` lines, the valid ones numbered in order, with at most
# one near miss among them, in a well-formed dialogue under a proof, so
# that draws replay moves.
MOVE_NEAR_MISSES = [m for m in NEAR_MISSES if m.startswith("move")]
valid_moves = st.builds(
    lambda speaker, kind, prop, to: (
        speaker, kind, to if kind == "declare_shift" else prop),
    st.sampled_from("xy"), st.sampled_from(sorted(MOVE_WORDS)),
    st.sampled_from("pq"), st.sampled_from(sorted(TYPE_WORDS)))


def number_moves(lines) -> str:
    """Each (speaker, kind, subject) as the move of its place; near
    misses as they are."""
    return "\n".join(line if isinstance(line, str)
                     else "move {} {} {} {}".format(turn, *line)
                     for turn, line in enumerate(lines, 1))


# Each type with stances that give its situation, and two openings that
# fit no type: an agreement, and a conflict's type over an open problem.
STANCES_OF = {SituationKind.CONFLICT: ("true", "false"),
              SituationKind.OPEN_PROBLEM: ("unknown", "unknown"),
              SituationKind.INFO_ASYMMETRY: ("unknown", "true")}
OPENINGS = [(t.value, *STANCES_OF[k]) for t, k in SITUATION_OF_TYPE.items()] + [
    ("inquiry", "true", "true"), ("persuasion", "unknown", "unknown")]
dialogue_documents = st.builds(
    lambda opening, moves: (
        'prop p: "P"\nprop q: "Q"\ndialogue "d" {{\ntype: {}\n'
        'participants: x, y\nstance x p: {}\nstance y p: {}\n'.format(*opening)
        + moves + '\n}\nproof "pr" {\ndialogues: d\n}\n'),
    st.sampled_from(OPENINGS),
    st.builds(lambda head, miss, tail: number_moves(head + miss + tail),
              st.lists(valid_moves, max_size=12),
              st.lists(st.sampled_from(MOVE_NEAR_MISSES), max_size=1),
              st.lists(valid_moves, max_size=4)))


@settings(max_examples=300)
@example(EMPTY_LABEL)
@given(st.one_of(st.text(), documents, dialogue_documents))
def test_parse_returns_document_or_raises_markup_error(text):
    try:
        assert isinstance(parse_document(text), Document)
    except MarkupError as exc:
        # Located in the source, earliest first, one per span.
        spans = [e.span for e in exc.errors]
        assert all(s.line >= 1 and s.column >= 1
                   and s.offset + s.length <= len(text) for s in spans)
        assert [s.offset for s in spans] == sorted(s.offset for s in spans)
        assert len(set(spans)) == len(spans)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(EMPTY_LABEL)
@given(documents | dialogue_documents)
def test_commands_exit_with_a_code(tmp_path, capsys, text):
    path = tmp_path / "fuzz.arg"
    path.write_text(text, encoding="utf-8")
    for command in ("analyze", "classify", "validate", "diagram"):
        assert main([command, str(path)]) in (0, 1, 2)
    capsys.readouterr()
