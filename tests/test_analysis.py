import pytest

from prooftalk import analysis
from prooftalk.markup import parse_document


def test_segments_each_dialogue_once(corpus, monkeypatch):
    calls = []
    segment = analysis.segment_moves

    def counted(moves, *args):
        calls.append(moves)
        return segment(moves, *args)

    monkeypatch.setattr(analysis, "segment_moves", counted)
    doc = corpus["shift_illicit"][1]
    analysis.analyze(doc).report()
    assert calls == [doc.dialogues[n].moves for n in sorted(doc.dialogues)]


def analyzed(dialogue_type, stances, moves):
    """The `analyze` entry of a lone dialogue with these stances and moves."""
    lines = "\n".join(f"  move {i} {m}" for i, m in enumerate(moves, 1))
    doc = parse_document(f'''prop p: "P"
dialogue "d" {{
  type: {dialogue_type}
  participants: a, b
  stance a p: {stances[0]}
  stance b p: {stances[1]}
{lines}
}}''')
    return analysis.analyze(doc).report()["dialogues"][0]


ILLICIT_DRIFT = {
    "from": "inquiry", "to": "deliberation", "kind": "gradual",
    "mode": "replacement", "licitness": "illicit",
    "reason": "settlement-grade deliberation conclusion presented in "
              "resolution-grade inquiry context"}


@pytest.mark.parametrize("opening, at_turn", [([], 1), (["a question p"], 2)],
                         ids=["first_move", "second_move"])
def test_drift_is_a_shift_at_any_move(opening, at_turn):
    entry = analyzed("inquiry", ("unknown", "unknown"),
                     opening + ["a offer p", "b offer p"])
    assert entry["shifts"] == [{"at_turn": at_turn, **ILLICIT_DRIFT}]
    assert entry["violations"] == []
    assert entry["segments"][-1] == {
        "start_turn": at_turn, "end_turn": at_turn + 1,
        "type": "deliberation", "declared": False}


def test_declared_shift_at_the_first_move():
    entry = analyzed("persuasion", ("true", "false"),
                     ["a declare_shift deliberation", "a offer p",
                      "b declare_shift persuasion", "a assert p"])
    assert entry["segments"] == [
        {"start_turn": 1, "end_turn": 2, "type": "deliberation",
         "declared": True},
        {"start_turn": 3, "end_turn": 4, "type": "persuasion",
         "declared": True}]
    assert [(s["at_turn"], s["from"], s["to"], s["kind"], s["mode"],
             s["licitness"]) for s in entry["shifts"]] == [
        (1, "persuasion", "deliberation", "abrupt", "embedding", "licit"),
        (3, "deliberation", "persuasion", "abrupt", "replacement", "licit")]
    assert entry["violations"] == []


def classified(dialogue_type, prover, interlocutor):
    """The `classify` entry of a lone dialogue with these stances."""
    doc = parse_document(f'''prop p: "P"
dialogue "d" {{
  type: {dialogue_type}
  participants: a, b
  stance a p: {prover}
  stance b p: {interlocutor}
}}''')
    return analysis.classify_document(doc)["d"]


@pytest.mark.parametrize("dialogue_type, prover, interlocutor, entry", [
    ("inquiry", "true", "true", {
        "declared_type": "inquiry", "main_goal": "stable_resolution",
        "initial_situation": "no_dispute", "proof_dialogue": None,
        "note": "participants already agree; no dialogue arises"}),
    ("eristic", "true", "false", {
        "declared_type": "eristic", "main_goal": "provisional_accommodation",
        "initial_situation": "conflict", "proof_dialogue": "suspect_eristic",
        "suspect": True}),
    ("debate", "false", "true", {
        "declared_type": "debate", "main_goal": "provisional_accommodation",
        "initial_situation": "conflict", "proof_dialogue": "suspect_eristic",
        "suspect": True}),
    ("information_seeking", "true", "unknown", {
        "declared_type": "information_seeking",
        "main_goal": "stable_resolution",
        "initial_situation": "info_asymmetry",
        "asymmetry_direction": "interlocutor_lacks",
        "proof_dialogue": "proof_as_pedagogical", "suspect": False}),
    ("pedagogical", "unknown", "false", {
        "declared_type": "pedagogical", "main_goal": "stable_resolution",
        "initial_situation": "info_asymmetry",
        "asymmetry_direction": "prover_lacks",
        "proof_dialogue": "suspect_info_seeking", "suspect": True}),
    ("eristic", "unknown", "unknown", {
        "declared_type": "eristic", "main_goal": "provisional_accommodation",
        "initial_situation": "open_problem", "proof_dialogue": None,
        "note": "no proof dialogue arises from open_problem with goal "
                "provisional_accommodation"}),
], ids=["no_dispute", "eristic_irreconcilable", "debate_irreconcilable",
        "information_seeking", "pedagogical", "undefined_cell"])
def test_classification_entry(dialogue_type, prover, interlocutor, entry):
    assert classified(dialogue_type, prover, interlocutor) == entry


# A persuasion that succeeds: the referee's challenge is answered and the
# referee concedes.  It falls in the same row as `wiles_persuasion`.
PERSUADED = '''dialogue "ok" {
  type: persuasion
  participants: wiles, referee
  stance wiles fermat: true
  stance referee fermat: false
  move 1 wiles assert euler_system
  move 2 referee challenge euler_system
  move 3 wiles assert fermat
  move 4 referee concede fermat
  move 5 referee close fermat
}

'''


def wiles_status(corpus, dialogues):
    """The status of the Wiles proof, with `ok` declared and the proof
    listing these dialogues."""
    source = corpus["wiles_attempt"][0].replace(
        'proof "fermat"', PERSUADED + 'proof "fermat"').replace(
        "dialogues: wiles_inquiry, wiles_persuasion",
        f"dialogues: {', '.join(dialogues)}")
    (proof,) = analysis.analyze(parse_document(source)).report()["proofs"]
    return proof["status"]


@pytest.mark.parametrize("dialogues, status", [
    (["wiles_inquiry", "ok", "wiles_persuasion"], "not_proof"),
    (["wiles_inquiry", "wiles_persuasion", "ok"], "proof"),
], ids=["failure_last", "success_last"])
def test_last_listed_dialogue_decides_its_row(corpus, dialogues, status):
    assert wiles_status(corpus, dialogues) == status


@pytest.mark.parametrize("dialogues", [
    ["wiles_inquiry", "ok"], ["wiles_inquiry", "wiles_persuasion"]])
def test_order_across_rows_leaves_the_status(corpus, dialogues):
    assert (wiles_status(corpus, dialogues)
            == wiles_status(corpus, dialogues[::-1]))
