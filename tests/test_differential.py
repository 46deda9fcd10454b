"""The linear-time cycle, link and challenge checks and the regex
tokenizer agree with the reference versions in `oracles`, and the CLI
output on the shipped corpus matches the recorded golden output byte
for byte."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from prooftalk.cli import fixture_paths, main
from prooftalk.engine import DialogueState, Move, MoveKind, _unanswered_challenge
from prooftalk.markup import MarkupError, tokenize
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
from prooftalk.typology import DialogueType

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


def lexed(lex, source):
    try:
        return lex(source)
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


@settings(max_examples=500)
@given(st.one_of(st.text(), edge_sources))
def test_tokenize_matches_reference(source):
    assert lexed(tokenize, source) == lexed(oracles.tokenize, source)


@pytest.mark.parametrize("path", fixture_paths(), ids=lambda p: p.name)
def test_tokenize_matches_reference_on_fixtures(path):
    source = path.read_text(encoding="utf-8")
    assert lexed(tokenize, source) == lexed(oracles.tokenize, source)


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
