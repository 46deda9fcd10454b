"""Seeded proof-attempt documents for the `long_dialogues` workload.

Each document of n moves holds a persuasion dialogue of two thirds of
them whose challenges are answered, an inquiry dialogue of the other
third that drifts into deliberation twice and is declared back each
time, and a `proof` block over both.  A document may carry one
planted fault late in the persuasion transcript:

* `violation`  -- a move that breaks a protocol rule;
* `unanswered` -- a challenge the prover never answers in time;
* `drift`      -- a threat that slides persuasion into negotiation.

The generator keeps its own model of every transcript while writing it:
commitment stores, the segment plan and the planted fault.  `expected`
is derived from that model alone, never by running prooftalk.
"""

from __future__ import annotations

import random

PLANTS = ("clean", "violation", "unanswered", "drift")

# Goal grade of each dialogue type a document uses: an undeclared shift
# that lowers it is illicit.
_GRADE = {"persuasion": 2, "inquiry": 2, "deliberation": 1, "negotiation": 1}

_WORDS = ("prime", "modular", "elliptic", "reducible", "planar", "bounded",
          "finite", "compact", "regular", "chain", "lattice", "curve",
          "graph", "colouring", "form", "group", "field", "map")


class _Transcript:
    """One dialogue as written, with the analysis prooftalk should give."""

    def __init__(self, name, dtype, ids, stances, crucial, settlement=None):
        self.name = name
        self.dtype = dtype
        self.ids = ids
        self.stances = stances
        self.crucial = crucial
        self.settlement = settlement
        self.lines = []
        self.turn = 0
        self.stores = {pid: {} for pid in ids}
        for pid, stance in zip(ids, stances):
            if stance == "true":
                self.stores[pid][crucial] = "affirmed"
            elif stance == "false":
                self.stores[pid][crucial] = "denied"
        # [start_turn, type, declared, sharp]; end turns follow at the end
        self.segments = [[1, dtype, False, True]]
        self.violation = None
        self.frozen_stores = None
        self.closed = False
        self.unanswered = None

    def move(self, speaker, kind, subject):
        self.turn += 1
        self.lines.append(f"  move {self.turn} {speaker} {kind} {subject}")
        if self.violation is not None:
            return  # replay stops at the violation; later moves are text only
        store = self.stores[speaker]
        if kind in ("assert", "concede"):
            store[subject] = "affirmed"
        elif kind == "retract":
            del store[subject]
        elif kind == "close":
            self.closed = True

    def violate(self, speaker, kind, subject, rule):
        self.frozen_stores = {pid: dict(s) for pid, s in self.stores.items()}
        self.violation = (self.turn + 1, rule)
        self.move(speaker, kind, subject)

    def shift(self, to_type, declared, sharp=True):
        """The next move opens a segment of `to_type`."""
        self.segments.append([self.turn + 1, to_type, declared, sharp])

    def text(self):
        out = [f'dialogue "{self.name}" {{', f"  type: {self.dtype}",
               "  participants: " + ", ".join(self.ids)]
        for pid, stance in zip(self.ids, self.stances):
            out.append(f"  stance {pid} {self.crucial}: {stance}")
        if self.settlement:
            out.append(f"  settlement {self.settlement}")
        out.extend(self.lines)
        out.append("}")
        return "\n".join(out)

    def expected(self, goal_achieved):
        stores = self.frozen_stores if self.violation else self.stores
        ends = [s[0] - 1 for s in self.segments[1:]] + [self.turn]
        segments = [(start, end, t, declared)
                    for (start, t, declared, _), end in zip(self.segments, ends)]
        shifts = []
        for i in range(1, len(self.segments)):
            _, before, _, _ = self.segments[i - 1]
            start, after, declared, sharp = self.segments[i]
            resumed = any(s[1] == before for s in self.segments[i + 1:])
            illicit = not declared and _GRADE[after] < _GRADE[before]
            shifts.append((start, before, after,
                           "abrupt" if declared or sharp else "gradual",
                           "embedding" if resumed else "replacement",
                           "illicit" if illicit else "licit"))
        return {
            "final_phase": "closed" if self.closed and not self.violation
            else "open",
            "goal_achieved": goal_achieved,
            "violations": [self.violation] if self.violation else [],
            "stores": {pid: sorted([p, pol] for p, pol in s.items())
                       for pid, s in stores.items()},
            "segments": segments,
            "shifts": shifts,
        }


class _Props:
    def __init__(self, rng):
        self.rng = rng
        self.decls = []
        self.count = {}

    def new(self, prefix, text=None):
        n = self.count.get(prefix, 0) + 1
        self.count[prefix] = n
        pid = f"{prefix}{n}"
        if text is None:
            words = " ".join(self.rng.choice(_WORDS)
                             for _ in range(self.rng.randint(1, 3)))
            text = f"the {words} case"
        self.decls.append(f'prop {pid}: "{text}"')
        return pid


def _persuasion(rng, props, n_moves, plant):
    crucial = props.new("c", "the conjecture holds for every admissible case")
    d = _Transcript("persuade", "persuasion", ("prover", "critic"),
                    ("true", "false"), crucial)
    P, C = "prover", "critic"
    conceded = []  # propositions the critic affirmed and may retract
    # the critic contests the conjecture itself; the prover answers
    d.move(P, "assert", crucial)
    d.move(C, "challenge", crucial)
    d.move(P, "assert", props.new("s"))
    plant_at = int(n_moves * rng.uniform(0.85, 0.92))
    planted = plant == "clean"
    while d.turn < n_moves - 3:
        if not planted and d.turn >= plant_at:
            planted = True
            if plant == "violation":
                _plant_violation(rng, props, d, conceded)
            elif plant == "unanswered":
                s = props.new("s")
                d.move(P, "assert", s)
                d.move(C, "challenge", s)
                d.move(P, "question", s)
                d.move(P, "question", crucial)
                d.unanswered = s
            else:
                d.shift("negotiation", declared=False, sharp=True)
                d.move(P, "threat", crucial)
            continue
        s, t = props.new("s"), props.new("s")
        pattern = rng.randrange(5)
        d.move(P, "assert", s)
        if pattern == 0:
            d.move(C, "challenge", s)
            d.move(P, "assert", t)
            d.move(C, "concede", s)
            conceded.append(s)
        elif pattern == 1:
            d.move(C, "question", s)
            d.move(P, "assert", t)
            d.move(C, "concede", t)
            conceded.append(t)
        elif pattern == 2:
            d.move(C, "challenge", s)
            d.move(P, "question", s)
            d.move(P, "assert", t)
            d.move(C, "concede", t)
            conceded.append(t)
        elif pattern == 3:
            d.move(C, "challenge", s)
            d.move(C, "question", s)
            d.move(P, "assert", t)
            d.move(C, "concede", s)
            conceded.append(s)
        elif conceded:
            d.move(C, "retract", conceded.pop(rng.randrange(len(conceded))))
            d.move(P, "assert", t)
        else:
            d.move(P, "assert", t)
    d.move(P, "assert", crucial)
    d.move(C, "concede", crucial)
    d.move(P, "close", crucial)
    # Every challenge but a planted one is answered at once, so the goal
    # turns on that challenge and on whether the critic conceded in time.
    achieved = d.unanswered is None and d.violation is None
    return d, achieved


def _plant_violation(rng, props, d, conceded):
    P, C = "prover", "critic"
    kind = rng.randrange(4)
    if kind == 0:
        d.violate(C, "assert", d.crucial, "conflicting-commitment")
    elif kind == 1:
        d.violate(C, "challenge", props.new("x"), "challenge-uncommitted")
    elif kind == 2:
        d.violate(P, "retract", props.new("x"), "retract-without-commitment")
    else:
        d.violate(C, "concede", props.new("x"), "concede-unasserted")


def _inquiry(rng, props, n_moves, crucial):
    settlement = props.new("b", "near-certainty at a fixed budget will do")
    d = _Transcript("inquire", "inquiry", ("seeker", "peer"),
                    ("unknown", "unknown"), crucial, settlement)
    ids = ("seeker", "peer")
    drifts = sorted(rng.sample(range(n_moves // 8, n_moves * 7 // 8 - 10), 2))
    while d.turn < n_moves - 3:
        x, y = ids if rng.random() < 0.5 else ids[::-1]
        if drifts and d.turn >= drifts[0]:
            drifts.pop(0)
            # an offer is no inquiry move: the analyser sees a gradual
            # drift into deliberation, until it is declared back
            d.shift("deliberation", declared=False, sharp=False)
            d.move(x, "offer", settlement)
            d.move(y, "assert", settlement)
            d.move(x, "concede", settlement)
            for _ in range(rng.randint(0, 3)):
                d.move(y, "question", settlement)
            d.shift("inquiry", declared=True)
            d.move(x, "declare_shift", "inquiry")
            continue
        u = props.new("u")
        d.move(x, "assert", u)
        if rng.random() < 0.5:
            d.move(y, "question", u)
            d.move(y, "concede", u)
        else:
            d.move(y, "challenge", u)
            d.move(x, "assert", props.new("u"))
            d.move(y, "concede", u)
    d.move("seeker", "assert", crucial)
    d.move("peer", "concede", crucial)
    d.move("seeker", "close", crucial)
    return d, True


def make_document(seed, n_moves, plant):
    """Text of one document of about `n_moves` moves, and its expected
    `analyze` result."""
    rng = random.Random(seed)
    props = _Props(rng)
    pers, pers_ok = _persuasion(rng, props, n_moves * 2 // 3, plant)
    inq, inq_ok = _inquiry(rng, props, n_moves - n_moves * 2 // 3,
                           pers.crucial)
    text = "\n".join(
        [f"# proof attempt: {n_moves} moves, plant {plant}"]
        + props.decls
        + ["", pers.text(), "", inq.text(), "",
           'proof "attempt" {', "  dialogues: inquire, persuade", "}", ""])
    dialogues = {
        "persuade": dict(pers.expected(pers_ok),
                         proof_dialogue="proof_as_persuasion"),
        "inquire": dict(inq.expected(inq_ok),
                        proof_dialogue="proof_as_inquiry"),
    }
    outcomes = {e["proof_dialogue"]: "success" if e["goal_achieved"]
                and not e["violations"] else "failure"
                for e in dialogues.values()}
    status = ("proof" if set(outcomes.values()) == {"success"}
              else "not_proof")
    return text, {
        "exit": 1 if pers.violation else 0,
        "dialogues": dialogues,
        "proofs": {"attempt": {"outcomes": outcomes, "status": status}},
        "moves": pers.turn + inq.turn,
    }
