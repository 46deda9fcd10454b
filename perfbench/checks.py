"""Checks of prooftalk's outputs against expectations computed apart
from it.  Each check returns a list of problems; an empty list passes."""

from __future__ import annotations

import json
import re
from collections import Counter

_FINDING = re.compile(r":(\d+):(\d+): (error|warning): .*?'([^']+)'")
_LOCATED_ERROR = re.compile(r":\d+:\d+: error: ", re.M)
_EDGE = re.compile(r'^\s*"([^"]+)" -> "([^"]+)"(?: \[(.*)\])?;$')
_NODE = re.compile(r'^\s*"([^"]+)" \[shape=(?:box|plaintext), label="(.*)"\];$')


def diff(label, got, want):
    """Problems where `got` departs from `want`, compared key by key."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = [f"{label}: unexpected key {k!r}" for k in got.keys() - want.keys()]
        for k in want:
            if k not in got:
                out.append(f"{label}: missing {k!r}")
            else:
                out.extend(diff(f"{label}.{k}", got[k], want[k]))
        return out
    if got != want:
        return [f"{label}: got {_short(got)}, want {_short(want)}"]
    return []


def _short(value):
    text = repr(value)
    return text if len(text) <= 160 else text[:157] + "..."


def analyze_view(stdout):
    """The parts of `analyze` JSON that the expectations cover."""
    report = json.loads(stdout)
    return {
        "dialogues": {e["dialogue_id"]: {
            "final_phase": e["final_phase"],
            "goal_achieved": e["goal"]["achieved"],
            "violations": [(v["turn"], v["rule"]) for v in e["violations"]],
            "stores": e["stores"],
            "segments": [(s["start_turn"], s["end_turn"], s["type"],
                          s["declared"]) for s in e["segments"]],
            "shifts": [(s["at_turn"], s["from"], s["to"], s["kind"],
                        s["mode"], s["licitness"]) for s in e["shifts"]],
            "proof_dialogue": e["classification"]["proof_dialogue"],
        } for e in report["dialogues"]},
        "proofs": {p["proof_id"]: {"outcomes": p["outcomes"],
                                   "status": p["status"]}
                   for p in report["proofs"]},
    }


def check_analyze(result, want):
    rc, out, _ = result
    problems = diff("analyze.exit", rc, want["exit"])
    try:
        view = analyze_view(out)
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"analyze: unreadable report ({exc!r})"]
    return problems + diff("analyze", view, {
        "dialogues": want["dialogues"], "proofs": want["proofs"]})


def check_validate(result, findings):
    """`findings`: set of (line, column, severity, argument id)."""
    rc, out, _ = result
    got = set()
    for line in out.splitlines():
        m = _FINDING.search(line)
        got.add((int(m[1]), int(m[2]), m[3], m[4]) if m else line)
    want_rc = 1 if any(f[2] == "error" for f in findings) else 0
    return diff("validate.exit", rc, want_rc) + diff(
        "validate.findings", sorted(got, key=str), sorted(findings, key=str))


def expected_dot(args, propositions):
    """Nodes with their labels, and the edge multiset, of the diagram of
    `args` (slot tables: id, data, warrant, backing, rebuttals, claim,
    label) over the proposition ids `propositions`."""
    nodes = {f"p_{p}": None for p in propositions}
    edges = Counter()
    for a in args:
        q = f'q_{a["id"]}'
        nodes[q] = a["label"]
        for d in a["data"]:
            edges[(f"p_{d}", q, "")] += 1
        edges[(q, f'p_{a["claim"]}', "")] += 1
        edges[(f'p_{a["warrant"]}', q, "style=dashed")] += 1
        if a["backing"]:
            edges[(f'p_{a["backing"]}', f'p_{a["warrant"]}', "")] += 1
        for r in a["rebuttals"]:
            edges[(f"p_{r}", q, 'style=dotted, label="unless"')] += 1
    return nodes, edges


def check_diagram(result, nodes, edges):
    """`nodes` maps node ids to the qualifier label of junction nodes
    (None for propositions, whose labels are not compared)."""
    rc, out, _ = result
    got_nodes, got_edges = {}, Counter()
    for line in out.splitlines():
        m = _EDGE.match(line)
        if m:
            got_edges[(m[1], m[2], m[3] or "")] += 1
            continue
        m = _NODE.match(line)
        if m:
            got_nodes[m[1]] = m[2] if m[1].startswith("q_") else None
    missing, extra = edges - got_edges, got_edges - edges
    problems = diff("diagram.exit", rc, 0) + diff("diagram.nodes",
                                                   got_nodes, nodes)
    if missing or extra:
        problems.append(f"diagram.edges: missing {_short(sorted(missing))}, "
                        f"extra {_short(sorted(extra))}")
    return problems


def check_classify(result, want):
    """`want` maps each dialogue to (initial situation, proof dialogue)."""
    rc, out, _ = result
    try:
        report = json.loads(out)
        got = {name: (e["initial_situation"], e["proof_dialogue"])
               for name, e in report.items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"classify: unreadable report ({exc!r})"]
    return diff("classify.exit", rc, 0) + diff("classify", got, want)


def check_rebuild(got_links, raised, links):
    """The add_link rebuild: final link set, and whether the planted
    back-edge raised CycleError."""
    problems = diff("rebuild.links", sorted(got_links), sorted(set(links)))
    if not raised:
        problems.append("rebuild: planted back-edge did not raise CycleError")
    return problems


def rejects_malformed(result):
    """A malformed input must end in exit code 2 with a located error."""
    rc, _, err = result
    return rc == 2 and bool(_LOCATED_ERROR.search(err))
