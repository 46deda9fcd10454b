import gc
import json
import re

import pytest

from prooftalk import cli, markup, model
from prooftalk.analysis import analyze_document
from prooftalk.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    fixture_paths,
    main,
)


@pytest.fixture()
def fixtures():
    return {p.name: p for p in fixture_paths()}


@pytest.fixture()
def broken_file(tmp_path):
    path = tmp_path / "broken.arg"
    path.write_text('argument "a" { data d "missing colon" }\n',
                    encoding="utf-8")
    return path


@pytest.fixture()
def invalid_file(tmp_path):
    # parses fine, but the argument has no warrant
    path = tmp_path / "invalid.arg"
    path.write_text('argument "a" { data d: "x" claim c: "y" }\n',
                    encoding="utf-8")
    return path


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_fixtures_flag_lists_corpus(self, capsys):
        assert main(["--fixtures"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [str(p) for p in fixture_paths()]
        assert len(lines) == 7

    def test_fixture_files_exist(self):
        for path in fixture_paths():
            assert path.is_file(), path

    def test_bad_shift_window_is_usage_error(self, fixtures, capsys):
        code = main(["analyze", str(fixtures["wiles_attempt.arg"]),
                     "--shift-window", "0"])
        assert code == EXIT_USAGE
        assert "shift-window" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["validate"], ["nosuch"]])
    def test_argument_error_returns_usage_code(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "usage" in capsys.readouterr().out


class TestValidate:
    def test_clean_corpus_exits_zero(self, fixtures, capsys):
        for path in fixtures.values():
            assert main(["validate", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path / "nope.arg")])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_parse_error_reports_location(self, broken_file, capsys):
        assert main(["validate", str(broken_file)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{broken_file}:1:" in err

    def test_domain_error_for_missing_warrant(self, invalid_file, capsys):
        assert main(["validate", str(invalid_file)]) == EXIT_DOMAIN
        out = capsys.readouterr().out
        assert "error" in out and "warrant" in out

    def test_keeps_going_past_files_that_fail_to_load(
            self, tmp_path, broken_file, invalid_file, fixtures, capsys):
        missing = tmp_path / "nope.arg"
        code = main(["validate", str(missing), str(invalid_file),
                     str(broken_file), str(fixtures["harry.arg"])])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"{missing}: error: " in captured.err
        assert f"{broken_file}:1:" in captured.err
        assert f"{invalid_file}:1:1: error: " in captured.out

    # Argument "B" comes first; argument "A" (line 3) names a proposition
    # that is also called B, so each finding on A quotes both ids.
    COLLIDING = ('argument "B" { data x: "X" warrant w: "W" claim y: "Y" }\n'
                 '\n'
                 'argument "A" { data B: "b" warrant w: "W" claim CLAIM }\n')

    def test_finding_reported_at_its_own_argument(self, tmp_path, capsys):
        path = tmp_path / "collide.arg"
        path.write_text(self.COLLIDING.replace("CLAIM", 'B: "b"'),
                        encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_DOMAIN
        assert capsys.readouterr().out == (
            f"{path}:3:1: error: argument 'A' uses 'B' as both claim "
            "and datum\n")

    def test_dangling_reference_reported_at_its_own_argument(
            self, tmp_path, monkeypatch, capsys):
        # The parser declares every slot proposition, so the dangling
        # reference is made by dropping one from the parsed document.
        path = tmp_path / "collide.arg"
        path.write_text(self.COLLIDING.replace("CLAIM", 'z: "Z"'),
                        encoding="utf-8")
        doc = markup.parse_document(path.read_text(encoding="utf-8"))
        del doc.graph.propositions["B"]
        monkeypatch.setattr(markup, "parse_document", lambda source: doc)
        assert main(["validate", str(path)]) == EXIT_DOMAIN
        assert capsys.readouterr().out == (
            f"{path}:3:1: error: argument 'A' data refers to unknown "
            "proposition 'B'\n")


@pytest.mark.parametrize("source", [
    "participants: prover", "participants: prover, critic, judge",
    "participants: prover, prover", "participants: prover, critic\n"
    "  move \u00b2 prover assert p",
    pytest.param("participants: prover, critic\n  move " + "1" * 5000
                 + " prover assert p", id="turn of 5000 digits")])
@pytest.mark.parametrize("command", ["analyze", "validate", "diagram",
                                     "classify"])
def test_malformed_dialogue_is_located_usage_error(
        tmp_path, capsys, source, command):
    path = tmp_path / "malformed.arg"
    path.write_text('prop p: "x"\ndialogue "d" {\n  type: persuasion\n'
                    f'  {source}\n  stance prover p: true\n}}\n',
                    encoding="utf-8")
    assert main([command, str(path)]) == EXIT_USAGE
    assert re.match(rf"{re.escape(str(path))}:\d+:\d+: error: ",
                    capsys.readouterr().err)


@pytest.fixture()
def non_utf8_file(tmp_path):
    path = tmp_path / "latin1.arg"
    path.write_bytes(b'prop p: "\xff"\n')
    return path


@pytest.mark.parametrize("command", ["analyze", "classify", "validate",
                                     "diagram"])
def test_non_utf8_file_is_usage_error(non_utf8_file, command, capsys):
    assert main([command, str(non_utf8_file)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"{non_utf8_file}: error: ")


def test_validate_keeps_going_past_a_non_utf8_file(
        non_utf8_file, invalid_file, capsys):
    code = main(["validate", str(non_utf8_file), str(invalid_file)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{non_utf8_file}: error: ")
    assert f"{invalid_file}:1:1: error: " in captured.out


@pytest.mark.parametrize("source", [
    *(p.read_text(encoding="utf-8") for p in fixture_paths()),
    'argument "a" { data d: "x" claim c: "y" }\n',  # no warrant
    'argument "a" { data d "missing colon" }\n'],
    ids=[p.stem for p in fixture_paths()] + ["invalid", "broken"])
@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_byte_order_mark_is_ignored(
        source, command, tmp_path, monkeypatch, capsys):
    # Editors such as Notepad start a UTF-8 file with EF BB BF.  The same
    # relative name in two directories keeps the outputs comparable.
    outputs = []
    for folder, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "doc.arg").write_bytes(bom + source.encode())
        monkeypatch.chdir(tmp_path / folder)
        code = main([command, "doc.arg"])
        outputs.append((code, *capsys.readouterr()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("source, where", [
    ('prop p: "x"\rbogus\n', "1:13"),  # a lone CR is whitespace in its line
    ('prop p: "x"\r\nbogus\r\n', "2:1")], ids=["cr", "crlf"])
def test_file_is_read_as_the_library_parses_it(source, where, tmp_path, capsys):
    path = tmp_path / "doc.arg"
    path.write_bytes(source.encode())
    with pytest.raises(markup.MarkupError) as exc:
        markup.parse_document(source)
    (err,) = exc.value.errors
    assert f"{err.span.line}:{err.span.column}" == where
    assert main(["validate", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"{path}:{where}: error: expected 'prop', 'argument', 'dialogue' "
        "or 'proof', found bogus\n")


@pytest.mark.parametrize("command, fixture", [
    ("report", None), ("diagram", "harry.arg"),
    ("classify", "wiles_attempt.arg"), ("analyze", "wiles_attempt.arg")])
def test_out_to_missing_directory_is_usage_error(
        command, fixture, fixtures, tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    argv = [command] + ([str(fixtures[fixture])] if fixture else [])
    assert main(argv + ["--out", str(target)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{target}: error: ")
    assert captured.out == ""


class TestDiagram:
    def test_writes_dot_to_stdout(self, fixtures, capsys):
        assert main(["diagram", str(fixtures["harry.arg"])]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("digraph toulmin {")
        assert out.count("shape=box") == 6

    def test_out_flag_writes_file(self, fixtures, tmp_path):
        target = tmp_path / "harry.dot"
        assert main(["diagram", str(fixtures["harry.arg"]),
                     "--out", str(target)]) == EXIT_OK
        assert target.read_text(encoding="utf-8").startswith("digraph")

    def test_invalid_graph_is_domain_error(self, invalid_file, capsys):
        assert main(["diagram", str(invalid_file)]) == EXIT_DOMAIN
        assert "error" in capsys.readouterr().err

    def test_validates_the_graph_once(self, fixtures, monkeypatch, capsys):
        calls = []
        validate = model.validate_graph

        def counted(graph):
            calls.append(graph)
            return validate(graph)

        monkeypatch.setattr(model, "validate_graph", counted)
        monkeypatch.setattr(cli, "validate_graph", counted)
        assert main(["diagram", str(fixtures["harry.arg"])]) == EXIT_OK
        assert len(calls) == 1


class TestClassify:
    def test_text_output(self, fixtures, capsys):
        assert main(["classify", str(fixtures["wiles_attempt.arg"])]) \
            == EXIT_OK
        out = capsys.readouterr().out
        assert "wiles_inquiry: inquiry" in out
        assert "proof_as_inquiry" in out

    def test_json_output(self, fixtures, capsys):
        assert main(["classify", str(fixtures["wiles_attempt.arg"]),
                     "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["wiles_persuasion"]["proof_dialogue"] \
            == "proof_as_persuasion"
        assert report["wiles_inquiry"]["initial_situation"] == "open_problem"


class TestAnalyze:
    def test_wiles_attempt_not_proof(self, fixtures, capsys):
        # an unachieved goal is a finding, not a violation: exit stays 0
        code = main(["analyze", str(fixtures["wiles_attempt.arg"])])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        proof = report["proofs"][0]
        assert proof["status"] == "not_proof"
        assert proof["outcomes"] == {
            "proof_as_inquiry": "success",
            "proof_as_persuasion": "failure",
        }

    def test_shift_fixture_reports_illicit_shift(self, fixtures, capsys):
        assert main(["analyze", str(fixtures["shift_illicit.arg"])]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        drift = {e["dialogue_id"]: e for e in report["dialogues"]}["drift"]
        assert [s["licitness"] for s in drift["shifts"]] == ["illicit"]
        assert drift["shifts"][0]["kind"] == "gradual"

    def test_json_is_byte_stable(self, fixtures, capsys):
        main(["analyze", str(fixtures["shift_illicit.arg"])])
        first = capsys.readouterr().out
        main(["analyze", str(fixtures["shift_illicit.arg"])])
        assert capsys.readouterr().out == first

    def test_text_format(self, fixtures, capsys):
        assert main(["analyze", str(fixtures["wiles_attempt.arg"]),
                     "--format", "text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "proof fermat: not_proof" in out
        assert "not achieved" in out

    def test_document_without_dialogues_is_usage_error(
            self, fixtures, capsys):
        assert main(["analyze", str(fixtures["harry.arg"])]) == EXIT_USAGE
        assert "no dialogues" in capsys.readouterr().err

    def test_protocol_violation_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "bad.arg"
        path.write_text(
            'prop p: "x"\n'
            'dialogue "d" {\n  type: inquiry\n  participants: a, b\n'
            '  stance a p: unknown\n  stance b p: unknown\n'
            '  move 1 a assert p\n  move 2 b retract p\n}\n',
            encoding="utf-8")
        assert main(["analyze", str(path)]) == EXIT_DOMAIN
        report = json.loads(capsys.readouterr().out)
        violation = report["dialogues"][0]["violations"][0]
        assert violation["rule"] == "retract-without-commitment"

    def test_text_format_says_why_it_exits_one(self, tmp_path, capsys):
        path = tmp_path / "order.arg"
        path.write_text(
            'prop p: "x"\n'
            'dialogue "d" {\n  type: persuasion\n  participants: a, b\n'
            '  stance a p: true\n  stance b p: false\n'
            '  move 1 a assert p\n  move 1 b assert p\n}\n',
            encoding="utf-8")
        assert main(["analyze", str(path), "--format", "text"]) == EXIT_DOMAIN
        assert capsys.readouterr().out == (
            "d: goal not achieved (dissenting party was not persuaded); "
            "0 shift(s); 1 violation(s), first: turn-out-of-order at turn 1\n")

    def test_json_report_leaves_no_reference_cycles(self, fixtures):
        # The standard library's indenting encoder left its closures in
        # reference cycles on every report; the CLI's writer leaves none.
        doc = markup.parse_document(
            fixtures["wiles_attempt.arg"].read_text(encoding="utf-8"))
        report = analyze_document(doc)
        gc.collect()
        gc.disable()
        try:
            cli._json(report)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.fixture
    def mismatch_file(self, tmp_path):
        path = tmp_path / "mismatch.arg"
        path.write_text(
            'prop p: "x"\n'
            'dialogue "d" {\n  type: inquiry\n  participants: a, b\n'
            '  stance a p: true\n  stance b p: false\n}\n',
            encoding="utf-8")
        return path

    def test_stance_mismatch_is_domain_error(self, mismatch_file, capsys):
        assert main(["analyze", str(mismatch_file)]) == EXIT_DOMAIN
        report = json.loads(capsys.readouterr().out)
        assert report["dialogues"] == [{
            "dialogue_id": "d",
            "error": "inquiry requires open_problem; stances give conflict"}]

    def test_stance_mismatch_in_text_format(self, mismatch_file, capsys):
        assert main(["analyze", str(mismatch_file),
                     "--format", "text"]) == EXIT_DOMAIN
        assert capsys.readouterr().out == (
            "d: error: inquiry requires open_problem; stances give conflict\n")


class TestReport:
    def test_emits_full_tables(self, capsys):
        assert main(["report"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"dialogue_types", "profiles", "proof_dialogues"}
        assert doc["profiles"]["negotiation"]["collective_goal"] \
            == "Settlement (without undue inequity)"

    def test_later_calls_leave_no_parser_in_reference_cycles(self, tmp_path):
        # The argparse parser is built once per process, and the JSON
        # writer builds no cycles either.
        out = str(tmp_path / "tables.json")
        assert main(["report", "--out", out]) == EXIT_OK
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(["report", "--out", out]) == EXIT_OK
            gc.collect()
            cyclic = [type(o).__name__ for o in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert cyclic == []
