"""Verdict laws: properties of the whole output of `analyze`, `classify`
and `validate`, which any change to how verdicts are made must keep or
say that it changes.

- Round trip: a document and the parse of its serialization give the
  same outputs.  `validate` is compared as `validate_graph`'s
  diagnostics, which hold no span: the CLI adds each argument's line,
  and serializing moves lines.
- Block order: shuffling the top-level blocks and `prop` lines of the
  serialization changes no output.
- Irrelevance: a freshly named dialogue that no proof lists, or a new
  proof, leaves every other entry as it was.
- Failure is local: breaking one dialogue's protocol leaves every other
  dialogue's entry, and every proof that does not list it, as it was.

Documents are the well-formed drafts of `test_fuzz.dialogue_documents`
that parse, the shipped fixtures, the `long_dialogues` plants at 1000
moves and both `argument_graphs` shapes at 100 arguments.
"""

import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prooftalk.analysis import analyze, classify_document
from prooftalk.cli import fixture_paths
from prooftalk.markup import (
    Document,
    MarkupError,
    ProofDecl,
    _quote,
    parse_document,
    serialize,
)
from prooftalk.model import validate_graph
from test_fuzz import dialogue_documents

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import dialogues  # noqa: E402  (the long_dialogues benchmark's generator)
import graphs  # noqa: E402  (the argument_graphs benchmark's generator)

SOURCES = {
    **{path.stem: path for path in fixture_paths()},
    **{f"plant_{plant}": (dialogues, plant, 1000) for plant in dialogues.PLANTS},
    **{f"graph_{shape}": (graphs, shape, 100) for shape in graphs.SHAPES},
}


@cache
def source(name: str) -> str:
    """The text of a named fixture or generated document."""
    where = SOURCES[name]
    if isinstance(where, Path):
        return where.read_text(encoding="utf-8")
    generator, kind, size = where
    return generator.make_document(f"laws:{kind}", size, kind)[0]


def parsed(text: str):
    """The document, or None when the text does not parse."""
    try:
        return parse_document(text)
    except MarkupError:
        return None


def outputs(doc):
    """The `analyze` report, the `classify` report and the diagnostics."""
    return analyze(doc).report(), classify_document(doc), validate_graph(doc.graph)


def statements(text: str) -> list[str]:
    """The top-level statements of a serialization: each `prop` line, and
    each block, which `serialize` sets apart with a blank line."""
    out = []
    for chunk in text.split("\n\n"):
        chunk = chunk.strip("\n")
        out += chunk.split("\n") if chunk.startswith("prop ") else [chunk]
    return out


def fresh(name: str, taken) -> str:
    while name in taken:
        name += "_"
    return name


def check_round_trip(doc) -> None:
    assert outputs(parse_document(serialize(doc))) == outputs(doc)


def check_block_order(doc, rng) -> None:
    stmts = statements(serialize(doc))
    rng.shuffle(stmts)
    assert outputs(parse_document("\n".join(stmts) + "\n")) == outputs(doc)


def check_fresh_dialogue(doc, rng) -> None:
    """A copy of one of the document's dialogues, cut after a random
    number of its moves so that its outcome may differ, or a fixed inquiry
    when it has none, under a name no block has, listed by no proof."""
    name = fresh("fresh", doc.dialogues)
    text = serialize(doc)
    if doc.dialogues:
        copied = rng.choice(sorted(doc.dialogues))
        (block,) = [s for s in statements(text)
                    if s.startswith(f"dialogue {_quote(copied)} {{")]
        lines = block.split("\n")  # the moves come last, before the `}`
        first = next((i for i, line in enumerate(lines)
                      if line.startswith("  move ")), len(lines) - 1)
        lines[0] = f"dialogue {_quote(name)} {{"
        block = "\n".join(lines[:rng.randint(first, len(lines) - 1)] + ["}"])
    else:
        pid = fresh("fresh_p", doc.graph.propositions)
        block = (f'prop {pid}: "P"\ndialogue "{name}" {{\n  type: inquiry\n'
                 f'  participants: x, y\n  stance x {pid}: unknown\n'
                 f'  stance y {pid}: unknown\n  move 1 x assert {pid}\n'
                 f'  move 2 y concede {pid}\n  move 3 x close {pid}\n}}')
    report, classes, diagnostics = outputs(parse_document(text + block + "\n"))
    entries = report["dialogues"]
    assert [e["dialogue_id"] for e in entries].count(name) == 1
    report["dialogues"] = [e for e in entries if e["dialogue_id"] != name]
    del classes[name]
    assert (report, classes, diagnostics) == outputs(doc)


def check_fresh_proof(doc, rng) -> None:
    """A proof under a name no proof has, listing some of the dialogues
    that the document's proofs list; none when they list none."""
    listable = sorted({d for proof in doc.proofs.values() for d in proof.dialogues})
    if not listable:
        return
    name = fresh("fresh", doc.proofs)
    listed = rng.sample(listable, rng.randint(1, len(listable)))
    report, classes, diagnostics = outputs(parse_document(
        serialize(doc) + f"proof {_quote(name)} {{\n"
        f"  dialogues: {', '.join(listed)}\n}}\n"))
    report["proofs"] = [p for p in report["proofs"] if p["proof_id"] != name]
    assert (report, classes, diagnostics) == outputs(doc)


def check_local_failure(doc, rng) -> None:
    """One dialogue with moves gets a copy of one of them right after it,
    which repeats a turn, so that its entry reports a violation (or the
    error it had).  A new proof lists the other dialogues, if any, since
    the proofs of the inputs list every dialogue they have."""
    movers = sorted(name for name, decl in doc.dialogues.items() if decl.moves)
    if not movers:
        return
    name = rng.choice(movers)
    proofs = dict(doc.proofs)
    if rest := tuple(sorted(set(doc.dialogues) - {name})):
        proof = fresh("fresh", proofs)
        proofs[proof] = ProofDecl(proof, rest)
    whole = Document(doc.graph, doc.dialogues, proofs)
    decl = doc.dialogues[name]
    at = rng.randrange(len(decl.moves))
    broken = Document(doc.graph, {**doc.dialogues, name: decl._replace(
        moves=decl.moves[:at + 1] + decl.moves[at:])}, proofs)

    def others(version):
        report, classes, diagnostics = outputs(version)
        entries = {e["dialogue_id"]: e for e in report["dialogues"]}
        broken_entry = entries.pop(name)
        del classes[name]
        proofs = [p for p in report["proofs"]
                  if name not in version.proofs[p["proof_id"]].dialogues]
        return broken_entry, (entries, proofs, classes, diagnostics)

    entry, kept = others(broken)
    assert entry.get("error") or entry["violations"]
    assert kept == others(whole)[1]


@settings(max_examples=150, deadline=None)
@given(dialogue_documents, st.randoms(use_true_random=False))
def test_laws_hold_on_fuzzed_dialogues(text, rng):
    doc = parsed(text)
    assume(doc is not None)
    check_round_trip(doc)
    check_block_order(doc, rng)
    check_fresh_dialogue(doc, rng)
    check_fresh_proof(doc, rng)
    check_local_failure(doc, rng)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_round_trip(name):
    check_round_trip(parse_document(source(name)))


@settings(max_examples=4, deadline=None)
@given(rng=st.randoms(use_true_random=False))
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_block_order(name, rng):
    check_block_order(parse_document(source(name)), rng)


@settings(max_examples=4, deadline=None)
@given(rng=st.randoms(use_true_random=False))
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_irrelevance(name, rng):
    doc = parse_document(source(name))
    check_fresh_dialogue(doc, rng)
    check_fresh_proof(doc, rng)


@settings(max_examples=4, deadline=None)
@given(rng=st.randoms(use_true_random=False))
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_failure_is_local(name, rng):
    check_local_failure(parse_document(source(name)), rng)
