"""Expected results for the seven bundled fixtures, written by hand from
the paper's narrative, and four malformed dialogues.

Wiles's first attempt and Kempe's argument both convinced their first
audience (inquiry succeeds) and failed under a referee's challenge that
went unanswered (persuasion fails), so neither is a proof.  The
`shift_illicit` pair slides from inquiry into deliberation once without
saying so (illicit, gradual) and once with a declaration (licit, abrupt).
The four argument fixtures are well formed and validate clean.
"""

from __future__ import annotations

FIXTURES = (
    "harry.arg",
    "theaetetus.arg",
    "four_colour_alcolea.arg",
    "four_colour_alternative.arg",
    "wiles_attempt.arg",
    "kempe_acceptance.arg",
    "shift_illicit.arg",
)

# Slot tables of the argument fixtures, as the Toulmin layouts read.
ARGUMENTS = {
    "harry.arg": {
        "id": "harry", "data": ["d1"], "warrant": "w1", "backing": "b1",
        "rebuttals": ["r1", "r2"], "claim": "c1", "label": "presumably"},
    "theaetetus.arg": {
        "id": "theaetetus", "data": ["d1"], "warrant": "w1", "backing": "b1",
        "rebuttals": [], "claim": "c1",
        "label": "with strict geometrical necessity"},
    "four_colour_alcolea.arg": {
        "id": "alcolea", "data": ["d1", "d2", "d3"], "warrant": "w1",
        "backing": "b1", "rebuttals": [], "claim": "c1", "label": "so"},
    "four_colour_alternative.arg": {
        "id": "alternative", "data": ["d4"], "warrant": "w1", "backing": "b1",
        "rebuttals": ["r1", "r2"], "claim": "c1",
        "label": "almost certainly"},
}


def _dialogue(phase, achieved, stores, segments, shifts, proof_dialogue):
    return {"final_phase": phase, "goal_achieved": achieved,
            "violations": [], "stores": stores, "segments": segments,
            "shifts": shifts, "proof_dialogue": proof_dialogue}


_A, _D = "affirmed", "denied"

ANALYZE = {
    "wiles_attempt.arg": {
        "exit": 0,
        "dialogues": {
            "wiles_inquiry": _dialogue(
                "closed", True,
                {"audience": [["fermat", _A]],
                 "wiles": [["euler_system", _A], ["fermat", _A]]},
                [(1, 4, "inquiry", False)], [], "proof_as_inquiry"),
            "wiles_persuasion": _dialogue(
                "closed", False,
                {"referee": [["fermat", _D]],
                 "wiles": [["euler_system", _A], ["fermat", _A]]},
                [(1, 5, "persuasion", False)], [], "proof_as_persuasion"),
        },
        "proofs": {"fermat": {
            "outcomes": {"proof_as_inquiry": "success",
                         "proof_as_persuasion": "failure"},
            "status": "not_proof"}},
    },
    "kempe_acceptance.arg": {
        "exit": 0,
        "dialogues": {
            "kempe_inquiry": _dialogue(
                "closed", True,
                {"community": [["fourcolour", _A]],
                 "kempe": [["fourcolour", _A], ["pentagon_reducible", _A]]},
                [(1, 4, "inquiry", False)], [], "proof_as_inquiry"),
            "heawood_persuasion": _dialogue(
                "closed", False,
                {"heawood": [["fourcolour", _D]],
                 "kempe": [["fourcolour", _A], ["pentagon_reducible", _A]]},
                [(1, 5, "persuasion", False)], [], "proof_as_persuasion"),
        },
        "proofs": {"four_colour_kempe": {
            "outcomes": {"proof_as_inquiry": "success",
                         "proof_as_persuasion": "failure"},
            "status": "not_proof"}},
    },
    "shift_illicit.arg": {
        "exit": 0,
        "dialogues": {
            "drift": _dialogue(
                "closed", False,
                {"advocate": [["budget", _A], ["goldbach", _A]],
                 "colleague": [["budget", _A]]},
                [(1, 3, "inquiry", False), (4, 7, "deliberation", False)],
                [(4, "inquiry", "deliberation", "gradual", "replacement",
                  "illicit")],
                "proof_as_inquiry"),
            "declared": _dialogue(
                "closed", False,
                {"advocate": [["budget", _A], ["goldbach", _A]],
                 "colleague": [["budget", _A]]},
                [(1, 2, "inquiry", False), (3, 7, "deliberation", True)],
                [(3, "inquiry", "deliberation", "abrupt", "replacement",
                  "licit")],
                "proof_as_inquiry"),
        },
        "proofs": {},
    },
}

# Per dialogue: (initial situation, proof-dialogue row) from `classify`.
CLASSIFY = {
    "wiles_attempt.arg": {
        "wiles_inquiry": ("open_problem", "proof_as_inquiry"),
        "wiles_persuasion": ("conflict", "proof_as_persuasion")},
    "kempe_acceptance.arg": {
        "kempe_inquiry": ("open_problem", "proof_as_inquiry"),
        "heawood_persuasion": ("conflict", "proof_as_persuasion")},
    "shift_illicit.arg": {
        "drift": ("open_problem", "proof_as_inquiry"),
        "declared": ("open_problem", "proof_as_inquiry")},
}

# Each should end in exit code 2 with a located error; today every one
# escapes `main()` as an exception instead.
MALFORMED = {
    "one_participant.arg": """\
prop p: "a claim with no one to dispute it"
dialogue "solo" {
  type: persuasion
  participants: prover
  stance prover p: true
  move 1 prover assert p
}
""",
    "three_participants.arg": """\
prop p: "a claim three parties dispute"
dialogue "crowd" {
  type: persuasion
  participants: prover, critic, judge
  stance prover p: true
  stance critic p: false
  move 1 prover assert p
}
""",
    "duplicate_participants.arg": """\
prop p: "a claim disputed with oneself"
dialogue "mirror" {
  type: persuasion
  participants: prover, prover
  stance prover p: true
  move 1 prover assert p
}
""",
    "unicode_turn.arg": """\
prop p: "a claim made at turn two, written as a superscript"
dialogue "superscript" {
  type: persuasion
  participants: prover, critic
  stance prover p: true
  stance critic p: false
  move 1 prover assert p
  move ² critic challenge p
}
""",
}
