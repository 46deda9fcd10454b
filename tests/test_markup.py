import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_fuzz import documents as fragment_documents
from prooftalk import markup
from prooftalk.analysis import analyze_document
from prooftalk.cli import fixture_paths
from prooftalk.engine import Move, MoveKind, Participant, Role
from prooftalk.markup import (
    KEYWORDS,
    DialogueDecl,
    Document,
    MarkupError,
    ProofDecl,
    SourceSpan,
    _line_starts,
    _span,
    parse_document,
    serialize,
    tokenize,
)
from prooftalk.model import (
    ArgumentGraph,
    Link,
    LinkRole,
    Proposition,
    Qualifier,
    QualifierKind,
    ToulminArgument,
)
from prooftalk.typology import DialogueType, Stance

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import dialogues  # noqa: E402  (the long_dialogues benchmark's generator)


def spanned_tokens(source):
    """The tokens as (kind, value, SourceSpan), each span built from the
    token's offset and length through the span helper."""
    starts = _line_starts(source)
    return [(kind, value, _span(starts, offset, length))
            for kind, value, offset, length in tokenize(source)]


class TestTokenize:
    def test_claim_line(self):
        tokens = tokenize('claim c: "Four colours suffice"')
        assert [(kind, value) for kind, value, _, _ in tokens] == [
            ("keyword", "claim"), ("ident", "c"), ("colon", ":"),
            ("string", "Four colours suffice")]

    def test_unterminated_string(self):
        with pytest.raises(MarkupError) as exc:
            tokenize('prop p: "unterminated')
        err = exc.value.errors[0]
        assert err.span.offset == 8
        assert "unterminated" in (err.hint or "")

    def test_comments_only_yield_nothing(self):
        assert tokenize("# just a comment\n  # another\n") == []

    def test_string_escapes(self):
        tokens = tokenize(r'"a \"quoted\" \\ backslash"')
        assert tokens[0][1] == 'a "quoted" \\ backslash'

    def test_escape_at_end_of_input_stays_inside_the_source(self):
        with pytest.raises(MarkupError) as exc:
            parse_document('"abc\\')
        err = exc.value.errors[0]
        assert err.span == SourceSpan(1, 1, 0, 5)
        assert err.hint == "illegal escape sequence"

    def test_keywords_match_readme(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(
            encoding="utf-8")
        words = re.search(r"keywords and cannot be used as identifiers:(.*?)\.\n",
                          readme, re.S)[1]
        assert set(re.findall(r"`(\w+)`", words)) == KEYWORDS

    def test_illegal_character(self):
        with pytest.raises(MarkupError) as exc:
            tokenize("prop @")
        assert exc.value.errors[0].span.column == 6

    def test_spans_are_one_based_and_accurate(self):
        src = 'prop x: "hi"\nprop y: "ho"'
        span = [span for _, value, span in spanned_tokens(src)
                if value == "y"][0]
        assert (span.line, span.column) == (2, 6)
        assert src[span.offset:span.offset + span.length] == "y"

    def test_deterministic(self):
        src = 'argument "a" { data d: "x" }'
        assert tokenize(src) == tokenize(src)

    def test_arrow_token(self):
        assert tokenize("<-")[0][0] == "arrow"

    def test_tokens_are_offset_tuples(self):
        assert tokenize('prop p: "x"\n') == [
            ("keyword", "prop", 0, 4), ("ident", "p", 5, 1),
            ("colon", ":", 6, 1), ("string", "x", 8, 3)]

    @pytest.mark.parametrize("path", fixture_paths(), ids=lambda p: p.name)
    def test_parse_builds_spans_only_for_arguments(self, path, monkeypatch):
        # Spans on demand: parsing a valid document builds one SourceSpan
        # per argument block, for Document.argument_spans, and none for
        # its other tokens.  The end-of-input token carries only its
        # offset, so its span is not built eagerly either.
        built = []

        def counting_span(*args):
            built.append(args)
            return SourceSpan(*args)

        monkeypatch.setattr(markup, "SourceSpan", counting_span)
        doc = parse_document(path.read_text(encoding="utf-8"))
        assert len(built) == len(doc.argument_spans)


class TestParseDocument:
    def test_alcolea_fixture_shape(self, corpus):
        doc = corpus["four_colour_alcolea"][1]
        arg = doc.graph.arguments["alcolea"]
        assert len(arg.data) == 3
        assert arg.warrant is not None
        assert arg.backing is not None
        assert arg.claim is not None
        assert arg.rebuttals == ()

    def test_alternative_fixture_qualifier_and_rebuttals(self, corpus):
        arg = corpus["four_colour_alternative"][1].graph.arguments["alternative"]
        assert arg.qualifier.kind is QualifierKind.ALMOST_CERTAINLY
        assert len(arg.rebuttals) == 2

    def test_missing_warrant_parses_validation_catches(self):
        doc = parse_document('argument "a" { data d: "x" claim c: "y" }')
        from prooftalk.model import validate_argument
        rules = [d.rule for d in validate_argument(doc.graph.arguments["a"],
                                                   doc.graph)]
        assert rules == ["missing-warrant"]

    def test_dangling_move_subject(self):
        src = ('prop p: "x"\n'
               'dialogue "d" {\n  type: inquiry\n  participants: a, b\n'
               '  stance a p: unknown\n  stance b p: unknown\n'
               '  move 1 a assert ghost\n}\n')
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        assert any(e.hint == "dangling reference" for e in exc.value.errors)

    def test_duplicate_prop_with_conflicting_text(self):
        with pytest.raises(MarkupError) as exc:
            parse_document('prop p: "one"\nprop p: "two"\n')
        assert "conflicting text" in exc.value.errors[0].hint

    def test_shared_text_redeclaration_is_reference(self):
        doc = parse_document(
            'argument "src" { data x: "a" warrant w1: "b" claim lemma: "L" }\n'
            'argument "dst" { data lemma: "L" warrant w2: "c" claim top: "T"\n'
            '  uses lemma <- argument "src" }\n')
        assert len(doc.graph.links) == 1
        link = doc.graph.links[0]
        assert (link.source, link.target) == ("src", "dst")

    def test_uses_cycle_rejected(self):
        src = ('argument "a" { data y: "Y" warrant w1: "w" claim x: "X"\n'
               '  uses y <- argument "b" }\n'
               'argument "b" { data x: "X" warrant w2: "w" claim y: "Y"\n'
               '  uses x <- argument "a" }\n')
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        assert any("cycle" in (e.hint or "") for e in exc.value.errors)

    def test_recovery_reports_multiple_errors_first_earliest(self):
        src = ('argument "a" { bogus }\n'
               'argument "b" { data d: "x" nonsense }\n')
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        errors = exc.value.errors
        assert len(errors) >= 2
        assert errors[0].span.offset <= min(e.span.offset for e in errors)

    @pytest.mark.parametrize("src, line, column", [
        ('argument "a" {\n  claim c: "C"\n', 3, 1),
        ('argument "a" {\n  claim c: "C"', 2, 15),
        ('dialogue "d" {\r\n\ttype: inquiry  # open', 2, 23),
    ])
    def test_end_of_input_error_at_the_end(self, src, line, column):
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        last = exc.value.errors[-1]
        assert last.found == "<end of input>"
        assert (last.span.line, last.span.column, last.span.offset,
                last.span.length) == (line, column, len(src), 0)

    def test_end_of_input_error_sorts_after_earlier_ones_once(self):
        # The unclosed block is one error, at the end and after the
        # missing colon.
        src = 'prop p: "P"\nargument "a" { data d "x"\n  claim c: "C"\n'
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        assert [(e.span.line, e.span.column, e.message)
                for e in exc.value.errors] == [
            (2, 23, "expected ':', found x"),
            (4, 1, "expected '}', found <end of input>")]

    @pytest.mark.parametrize("src, message", [
        ('prop p "x"', "expected ':', found x"),
        ('argument "a" x', "expected '{', found x"),
        ('argument "a" { uses c1 argument "b" }',
         "expected '<-', found argument"),
        ('proof "p" { dialogues: d', "expected '}', found <end of input>"),
    ])
    def test_punctuation_is_named_as_written(self, src, message):
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        assert message in [e.message for e in exc.value.errors]

    @pytest.mark.parametrize("src, line, column, message", [
        ('argument "s" {\n  data d: "D"\n  warrant w: "W"\n  claim x: "X"\n}\n'
         'argument "t" {\n  data c: "C"\n  warrant v: "V"\n  claim e: "E"\n'
         '  uses c <- argument "s"\n}\n', 10, 8,
         "expected claim of argument 's', found c "
         "(source claim does not match the slot)"),
        ('argument "a" {\n  qualifier: custom probably\n}\n', 2, 21,
         "expected custom qualifier label, found probably"),
        ('prop p: "P"\ndialogue "d" {\n  type: inquiry\n'
         '  participants: x, y\n  stance x p: maybe\n'
         '  stance y p: unknown\n}\n', 5, 15,
         "expected 'true', 'false' or 'unknown', found maybe"),
        ('dialogue {\n', 1, 10, "expected dialogue name, found {"),
        # A stray token in each kind of block body; the dialogue's also
        # runs to the end of input without its `}`.
        ('argument "a" {\n  data d: "D"\n  oops\n  warrant w: "W"\n'
         '  claim c: "C"\n}\n', 3, 3,
         "expected argument slot keyword, found oops"),
        ('prop p: "P"\ndialogue "d" {\n  type: inquiry\n  , \n'
         '  participants: x, y\n  stance x p: unknown\n'
         '  stance y p: unknown\n  move 1 x assert p\n', (4, 9), (3, 1),
         ("expected dialogue entry keyword, found ,",
          "expected '}', found <end of input>")),
        # Stance lines on two propositions, one cut short, and one for a
        # participant that `participants:` does not list.
        ('prop p: "P"\nprop q: "Q"\ndialogue "d" {\n  type: inquiry\n'
         '  participants: x, y\n  stance x p: unknown\n'
         '  stance y q: unknown\n}\n', 7, 12,
         "expected the crucial proposition, found q "
         "(stance lines must share one proposition)"),
        ('prop p: "P"\ndialogue "d" {\n  type: inquiry\n'
         '  participants: x, y\n  stance x p: unknown\n  stance y\n}\n',
         7, 1, "expected proposition id, found }"),
        ('prop p: "P"\ndialogue "d" {\n  type: inquiry\n'
         '  participants: x, y\n  stance z p: unknown\n}\n', 5, 10,
         "expected declared participant, found z "
         "(stance for unknown participant 'z')"),
        # A lexer fault ends the parse: it comes after the errors found
        # before it, nothing is resolved (the unknown source argument is
        # not reported), and the text it shows stops at the end of its line.
        ('argument "a" {\n  bogus\n}\nprop x: "unterminated\n', (2, 4),
         (3, 9), ("expected argument slot keyword, found bogus",
                  'expected closing quote, found "unterminated '
                  "(unterminated string)")),
        ('argument "a" {\n  data d: "D"\n  uses d <- argument "b"\n}\n'
         "@\n", 5, 1, "expected token, found @ (illegal character)"),
        ('prop x: "ab\\\n"\n', 1, 9,
         'expected string, found "ab\\ (illegal escape sequence)'),
        ('prop x: "ab\r\n# not a comment\n', 1, 9,
         'expected closing quote, found "ab (unterminated string)'),
    ])
    def test_located_error(self, src, line, column, message):
        # A row with several errors gives their lines, columns and
        # messages as tuples, in source order.
        want = (list(zip(line, column, message)) if isinstance(line, tuple)
                else [(line, column, message)])
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        assert [(e.span.line, e.span.column, e.message)
                for e in exc.value.errors] == want

    def test_one_error_per_span(self):
        # The token after the missing colon is no slot keyword either;
        # only the first error there is reported.
        src = 'argument "a" {\n  data d: "D"\n  warrant w "W"\n}\n'
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        assert [(e.span.line, e.span.column, e.message)
                for e in exc.value.errors] == [
            (3, 13, "expected ':', found W")]

    def test_dialogue_participants_roles_and_stances(self, corpus):
        decl = corpus["wiles_attempt"][1].dialogues["wiles_persuasion"]
        assert decl.participants[0] == Participant(
            "wiles", Role.PROVER, Stance.TRUE)
        assert decl.participants[1] == Participant(
            "referee", Role.INTERLOCUTOR, Stance.FALSE)
        assert decl.crucial == "fermat"
        assert decl.moves[1].kind is MoveKind.CHALLENGE

    def test_proof_block(self, corpus):
        doc = corpus["wiles_attempt"][1]
        assert doc.proofs["fermat"].dialogues == (
            "wiles_inquiry", "wiles_persuasion")

    def test_proof_references_must_resolve(self):
        with pytest.raises(MarkupError):
            parse_document('proof "p" { dialogues: ghost }')

    def test_error_span_points_at_found_text(self):
        src = 'prop p "missing colon"'
        try:
            parse_document(src)
        except MarkupError as exc:
            err = exc.value if hasattr(exc, "value") else exc
            for e in err.errors:
                snippet = src[e.span.offset:e.span.offset + e.span.length]
                assert e.found in snippet or snippet in e.found
        else:
            pytest.fail("expected a parse error")

    @pytest.mark.parametrize("names, found", [
        ("prover", "1"), ("prover, critic, judge", "3")])
    def test_dialogue_needs_exactly_two_participants(self, names, found):
        src = ('prop p: "x"\n'
               'dialogue "d" {\n  type: inquiry\n'
               f'  participants: {names}\n'
               '  stance prover p: unknown\n}\n')
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        (err,) = exc.value.errors
        assert (err.span.line, err.span.column) == (4, 3)
        assert (err.expected, err.found) == ("exactly two participants", found)

    def test_long_participant_list_gives_one_error(self):
        # Each id is checked against the ids seen so far, once.
        names = ", ".join(f"p{i}" for i in range(16000))
        src = ('prop p: "x"\n'
               'dialogue "d" {\n  type: inquiry\n'
               f'  participants: {names}\n'
               '  stance p0 p: unknown\n}\n')
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        (err,) = exc.value.errors
        assert (err.span.line, err.span.column) == (4, 3)
        assert (err.expected, err.found) == ("exactly two participants", "16000")

    def test_duplicate_participant_id(self):
        src = ('prop p: "x"\n'
               'dialogue "d" {\n  type: inquiry\n  participants: a, a\n'
               '  stance a p: unknown\n}\n')
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        (err,) = exc.value.errors
        assert (err.span.line, err.span.column) == (4, 20)
        assert err.hint == "duplicate participant"

    # A one-line head is read with one match of the head pattern; the
    # others, token by token.  Both paths report at the second name.
    @pytest.mark.parametrize("head, name", [
        (' "n"', "n"), ('\n"n"', "n"), ('\t"n"', "n"), (' # note\n"n"', "n"),
        (' "n\\"q"', 'n"q')],
        ids=["one_line", "name_on_next_line", "tab", "comment", "escaped_quote"])
    @pytest.mark.parametrize("what, block", [
        ("argument", '{ data x: "X" warrant w: "W" claim c: "C" }'),
        ("dialogue", '{ type: inquiry participants: a, b'
                     ' stance a p: unknown stance b p: unknown }'),
        ("proof", '{ dialogues: d }')])
    def test_duplicate_block_name(self, what, block, head, name):
        assert bool(markup._BLOCK_HEAD.match(what + head + " {")) == (
            head == ' "n"')
        src = ('prop p: "P"\n'
               'dialogue "d" { type: inquiry participants: a, b'
               ' stance a p: unknown stance b p: unknown }\n'
               f'{what}{head} {block}\n{what}{head} {block}\n')
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        (err,) = exc.value.errors
        at = src.rindex(head) + head.index('"')  # the second name token
        line = src.count("\n", 0, at) + 1
        assert err.span == SourceSpan(line, at - src.rfind("\n", 0, at), at,
                                      len(head) - head.index('"'))
        assert (err.expected, err.found, err.hint) == (
            f"fresh {what} name", name, f"duplicate {what}")

    def test_turn_with_non_ascii_digit(self):
        src = ('prop p: "x"\n'
               'dialogue "d" {\n  type: inquiry\n  participants: a, b\n'
               '  stance a p: unknown\n  move \u00b2 a assert p\n}\n')
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        (err,) = exc.value.errors
        assert (err.span.line, err.span.column) == (6, 8)
        assert err.found == "\u00b2"
        assert err.hint == "numbers use ASCII digits"

    @pytest.mark.parametrize("gap", [" ", "\t"])  # statement layout, or not
    def test_turn_too_long_for_int(self, gap):
        # More digits than Python's int() converts by default (4300).
        src = ('prop p: "x"\n'
               'dialogue "d" {\n  type: inquiry\n  participants: a, b\n'
               f'  stance a p: unknown\n  move{gap}{"1" * 5000}{gap}a assert p\n}}\n')
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        (err,) = exc.value.errors
        assert (err.span.line, err.span.column, err.span.length) == (6, 8, 5000)
        assert (err.expected, err.found, err.hint) == (
            "turn number", "1" * 20, "too long")

    def test_empty_custom_qualifier_label(self):
        src = ('argument "a" {\n  data d: "D"\n  warrant w: "W"\n'
               '  qualifier: custom ""\n  claim c: "C"\n}\n')
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        (err,) = exc.value.errors
        assert (err.span.line, err.span.column) == (4, 21)
        assert (err.expected, err.found) == ("custom qualifier label", '""')
        assert err.hint == "a custom label must be non-empty"

    @pytest.mark.parametrize("entry", [
        'claim c: "C"',     # read whole
        'claim c:\n"C"',    # read token by token
        'warrant w: "W"', 'backing b: "B"', 'qualifier: probably',
        'qualifier:\tprobably'])
    def test_repeated_single_valued_slot(self, entry):
        src = f'argument "a" {{\n  data d: "D"\n  {entry}\n  {entry}\n}}\n'
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        (err,) = exc.value.errors
        word = entry.split()[0].rstrip(":")
        assert err.span.offset == src.rindex(entry)
        assert (err.expected, err.found, err.hint) == (
            f"one '{word}' entry", word, "repeated entry")

    @pytest.mark.parametrize("entry", [
        'claim c: "C"', 'warrant w: "W"', 'backing b: "B"', 'qualifier: probably'])
    def test_repeated_slot_after_a_long_run(self, entry):
        # The repeat is read in the same run as the 50 data lines before it.
        data = "".join(f'  data d{i}: "D{i}"\n' for i in range(50))
        src = f'argument "a" {{\n  {entry}\n{data}  {entry}\n}}\n'
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        (err,) = exc.value.errors
        word = entry.split()[0].rstrip(":")
        assert err.span == _span(_line_starts(src), src.rindex(entry), len(word))
        assert (err.expected, err.found, err.hint) == (
            f"one '{word}' entry", word, "repeated entry")

    def test_conflicting_text_after_a_long_run(self):
        data = "".join(f'  data d{i}: "D{i}"\n' for i in range(50))
        src = f'prop d40: "other"\nargument "a" {{\n{data}  claim c: "C"\n}}\n'
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        (err,) = exc.value.errors
        assert err.span == _span(_line_starts(src), src.index('d40: "D40"'), 3)
        assert (err.expected, err.found, err.hint) == (
            "fresh proposition id", "d40", "duplicate id with conflicting text")

    @pytest.mark.parametrize("entry, expected", [
        ("type: inquiry", "one 'type' entry"),
        ("settlement p", "one 'settlement' entry"),
        ("stance a p: false", "one 'stance' entry for 'a'")])
    def test_repeated_single_valued_dialogue_entry(self, entry, expected):
        src = ('prop p: "P"\n'
               'dialogue "d" {\n  type: persuasion\n  participants: a, b\n'
               '  stance a p: true\n  stance b p: false\n  settlement p\n'
               f'  {entry}\n}}\n')
        with pytest.raises(MarkupError) as exc:
            parse_document(src)
        (err,) = exc.value.errors
        assert (err.span.line, err.span.column) == (8, 3)
        assert (err.expected, err.hint) == (expected, "repeated entry")

    def test_proof_may_come_before_its_dialogues(self):
        src = ('proof "pr" { dialogues: d }\nprop p: "P"\n'
               'dialogue "d" { type: inquiry participants: a, b'
               ' stance a p: unknown stance b p: unknown }\n')
        assert parse_document(src).proofs["pr"] == ProofDecl("pr", ("d",))

    def test_unknown_proof_dialogue_is_reported_at_the_proof(self):
        with pytest.raises(MarkupError) as exc:
            parse_document('prop p: "P"\n\nproof "pr" { dialogues: d, e }\n')
        (err,) = exc.value.errors
        assert (err.span.line, err.span.column, err.span.length) == (3, 1, 5)
        assert err.message == ("expected declared dialogue name, found proof "
                               "(proof 'pr' references unknown dialogue 'd')")


class TestStatements:
    """Whole one-line statements are read with one match each, so the
    parser lexes far fewer tokens than it reads statements."""

    def count_lexes(self, monkeypatch, source):
        lexed = []

        def counting_lex(source, pos):
            lexed.append(pos)
            return real_lex(source, pos)

        real_lex = markup._lex
        monkeypatch.setattr(markup, "_lex", counting_lex)
        doc = parse_document(source)
        return doc, len(lexed)

    def test_moves_are_read_whole(self, monkeypatch):
        kinds = ("assert", "question", "challenge", "concede")
        moves = [f"  move {t} {'ab'[t % 2]} {kinds[t % 4]} p{t % 7}"
                 for t in range(1, 500)]
        moves.append("  move 500 a declare_shift deliberation")
        src = ("".join(f'prop p{i}: "P{i}"\n' for i in range(7))
               + 'dialogue "d" {\n  type: inquiry\n  participants: a, b\n'
               + "  stance a p0: unknown\n  stance b p0: unknown\n"
               + "\n".join(moves) + "\n}\n")
        doc, lexes = self.count_lexes(monkeypatch, src)
        assert len(doc.dialogues["d"].moves) == 500
        assert doc.dialogues["d"].moves[-1].subject is DialogueType.DELIBERATION
        assert lexes <= 500 // 10

    def test_argument_slots_are_read_whole(self, monkeypatch):
        src = ('argument "a" {\n'
               + "".join(f'  data d{i}: "datum {i}"\n' for i in range(98))
               + '  warrant w: "W"\n  claim c: "C"\n}\n')
        doc, lexes = self.count_lexes(monkeypatch, src)
        assert len(doc.graph.arguments["a"].data) == 98
        assert lexes <= 100 // 10

    def test_argument_blocks_are_read_whole(self, monkeypatch):
        # A chain: heads, named slots, qualifiers, `uses` lines and braces.
        blocks = [f'argument "a{i}" {{\n'
                  + (f'  data c{i - 1}: "C{i - 1}"\n' if i else '  data d: "D"\n')
                  + f'  warrant w{i}: "W{i}"\n  qualifier: probably\n'
                  + f'  claim c{i}: "C{i}"\n'
                  + (f'  uses c{i - 1} <- argument "a{i - 1}"\n' if i else "")
                  + "}\n" for i in range(100)]
        doc, lexes = self.count_lexes(monkeypatch, "".join(blocks))
        assert len(doc.graph.arguments) == 100 and len(doc.graph.links) == 99
        assert doc.graph.arguments["a99"].qualifier == Qualifier(
            QualifierKind.PROBABLY)
        assert lexes <= (100 * 6 - 1) // 10

    def test_run_readers_build_bare_named_tuples(self):
        # The run readers build `Move` and `Proposition` with
        # `tuple.__new__`, which gives the record its constructor gives
        # only while the class is a bare named tuple.
        assert Move.__bases__ == (tuple,) and Proposition.__bases__ == (tuple,)
        doc = parse_document(
            'prop p: "P"\nargument "a" {\n  data d: "D"\n  claim p: "P"\n}\n'
            'dialogue "x" {\n  type: inquiry\n  participants: a, b\n'
            '  stance a p: unknown\n  stance b p: unknown\n'
            '  move 1 a assert p\n  move 2 b declare_shift deliberation\n}\n')
        props = doc.graph.propositions
        assert [type(q) for q in props.values()] == [Proposition] * 2
        assert props == {"p": Proposition("p", "P"), "d": Proposition("d", "D")}
        moves = doc.dialogues["x"].moves
        assert [type(m) for m in moves] == [Move] * 2
        assert moves == (Move(1, "a", MoveKind.ASSERT, "p"),
                         Move(2, "b", MoveKind.DECLARE_SHIFT,
                              DialogueType.DELIBERATION))

    def traced_parse(self, text):
        """The document, and the memory it holds and the parse's peak."""
        tracemalloc.start()
        try:
            doc = parse_document(text)
            return (doc, *tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()

    def test_parse_holds_little_beyond_the_document(self):
        # Runs are read one line per match: a pattern that repeats over a
        # whole run makes `re` keep state for every line it has passed.
        text, _ = dialogues.make_document("memory:8000:clean", 8000, "clean")
        doc, retained, peak = self.traced_parse(text)
        assert sum(len(d.moves) for d in doc.dialogues.values()) >= 8000
        assert peak <= 1.05 * retained

    def test_argument_parse_holds_little_beyond_the_document(self):
        # One run of 8000 slot lines.  (The runs of a benchmark chain are
        # about six lines long, and resolving its links briefly holds a
        # fifth of the document more, with any run reader.)
        text = ('argument "a" {\n'
                + "".join(f'  data d{i}: "datum {i}"\n' for i in range(8000))
                + '  warrant w: "W"\n  claim c: "C"\n}\n')
        doc, retained, peak = self.traced_parse(text)
        assert len(doc.graph.arguments["a"].data) == 8000
        assert peak <= 1.05 * retained


class TestDocument:
    def test_instances_share_no_dict(self):
        a, b = Document(), Document()
        assert a.graph is not b.graph
        for name in ("dialogues", "proofs", "argument_spans"):
            assert getattr(a, name) is not getattr(b, name)

    def test_equality_ignores_argument_spans(self):
        spanned = Document(argument_spans={"a1": SourceSpan(1, 1, 0, 8)})
        assert spanned == Document()
        assert Document(proofs={"p": ProofDecl("p", ())}) != Document()


class TestSerialize:
    def test_empty_document(self):
        assert serialize(Document()) == ""

    def test_single_standalone_prop(self):
        doc = Document(graph=ArgumentGraph(
            propositions={"p": Proposition("p", "hello")}))
        assert serialize(doc) == 'prop p: "hello"\n'

    def test_corpus_round_trip(self, corpus):
        for name, (_, doc) in corpus.items():
            again = parse_document(serialize(doc))
            assert again == doc, name

    def test_canonical_slot_order(self):
        doc = parse_document(
            'argument "a" { claim c: "C" rebuttal r: "R" data d: "D"\n'
            '  qualifier: probably backing b: "B" warrant w: "W" }')
        text = serialize(doc)
        body = text[text.index("{"):]
        positions = [body.index(k) for k in
                     ("data", "warrant", "backing", "qualifier",
                      "rebuttal", "claim")]
        assert positions == sorted(positions)

    def test_lf_endings_and_determinism(self, corpus):
        for _, doc in corpus.values():
            text = serialize(doc)
            assert "\r" not in text
            assert text == serialize(doc)


idents = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS and s not in {t.value for t in DialogueType}
    and s not in ("true", "false", "unknown", "necessarily",
                  "almost_certainly", "probably", "presumably", "custom"))
texts = st.text(min_size=1, max_size=30).filter(lambda s: s.strip())


@st.composite
def documents(draw):
    prop_ids = draw(st.lists(idents, min_size=4, max_size=7, unique=True))
    props = {p: Proposition(p, draw(texts)) for p in prop_ids}
    graph = ArgumentGraph(propositions=dict(props))

    if draw(st.booleans()):
        d, w, c = prop_ids[0], prop_ids[1], prop_ids[2]
        qualifier = draw(st.one_of(
            st.none(),
            st.sampled_from([Qualifier(QualifierKind.PROBABLY),
                             Qualifier(QualifierKind.CUSTOM, "beyond doubt")])))
        aid = draw(idents)
        graph.arguments[aid] = ToulminArgument(
            id=aid, data=(d,), warrant=w, claim=c, qualifier=qualifier)
        # A second argument that uses the first one's claim as its
        # datum or its backing.
        if draw(st.booleans()):
            uid = draw(idents.filter(lambda name: name != aid))
            role = draw(st.sampled_from(LinkRole))
            graph.arguments[uid] = ToulminArgument(
                id=uid, warrant=w, claim=prop_ids[3],
                data=(c,) if role is LinkRole.DATUM else (d,),
                backing=c if role is LinkRole.BACKING else None)
            graph.links = (Link(aid, uid, role),)

    dialogues = {}
    if draw(st.booleans()):
        crucial = prop_ids[-1]
        name = draw(idents)
        participants = (Participant("a", Role.PROVER, Stance.UNKNOWN),
                        Participant("b", Role.INTERLOCUTOR, Stance.UNKNOWN))
        moves = tuple(
            Move(i + 1, draw(st.sampled_from(["a", "b"])),
                 draw(st.sampled_from([MoveKind.ASSERT, MoveKind.QUESTION])),
                 draw(st.sampled_from(prop_ids)))
            for i in range(draw(st.integers(0, 3))))
        dialogues[name] = DialogueDecl(
            name, DialogueType.INQUIRY, participants, crucial, None, moves)
    return Document(graph=graph, dialogues=dialogues)


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(documents())
    def test_parse_serialize_identity(self, doc):
        assert parse_document(serialize(doc)) == doc


FIXTURE_TEXTS = [path.read_text(encoding="utf-8") for path in fixture_paths()]
SEPARATORS = (" ", "\t", "\n", " # c\n")


def rejoined(source, rng):
    """The source's tokens as written, each followed by a separator drawn
    at random.  A statement with a separator other than a blank between
    its fields is read token by token."""
    return "".join(source[offset:offset + length] + rng.choice(SEPARATORS)
                   for _, _, offset, length in tokenize(source))


def lexes(source):
    try:
        tokenize(source)
    except MarkupError:
        return False
    return True


def outcome(source):
    """The document, or its errors without their spans."""
    try:
        return parse_document(source)
    except MarkupError as exc:
        return [(e.expected, e.found, e.hint) for e in exc.errors]


class TestStatementBoundary:
    """Reading a statement whole and reading it token by token agree."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.sampled_from(FIXTURE_TEXTS),
                     fragment_documents.filter(lexes)),
           st.randoms(use_true_random=False))
    def test_separators_leave_the_outcome(self, source, rng):
        assert outcome(rejoined(source, rng)) == outcome(source)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(st.sampled_from(FIXTURE_TEXTS).map(parse_document),
                     documents()))
    def test_analysis_survives_a_round_trip(self, doc):
        assert analyze_document(parse_document(serialize(doc))) == \
            analyze_document(doc)
