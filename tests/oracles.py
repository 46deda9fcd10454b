"""Reference implementations kept for differential tests.

These are the straightforward versions that `prooftalk` replaced with
linear-time ones, and the character-by-character tokenizer that the
master-regex one replaced.  They define the expected answers: the
library functions must agree with them on every input the tests
generate.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from prooftalk.engine import ANSWER_WINDOW, DialogueState, MoveKind
from prooftalk.markup import KEYWORDS, MarkupError, ParseError, SourceSpan, Token
from prooftalk.model import (
    ArgumentGraph,
    CycleError,
    Link,
    LinkRole,
    SlotMismatch,
    _claim_in_slot,
)


def has_cycle(links: tuple[Link, ...]) -> bool:
    """One depth-first search per edge: does its target reach its source?"""
    adjacency: dict[str, set[str]] = {}
    for link in links:
        adjacency.setdefault(link.source, set()).add(link.target)

    def reaches(start: str, goal: str) -> bool:
        stack, visited = [start], set()
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in visited:
                continue
            visited.add(node)
            stack.extend(adjacency.get(node, ()))
        return False

    return any(reaches(succ, node)
               for node in adjacency for succ in adjacency[node])


def reaches(links: tuple[Link, ...], start: str, goal: str) -> bool:
    """Whether a path of one or more links leads from start to goal."""
    frontier = [l.target for l in links if l.source == start]
    seen: set[str] = set()
    while frontier:
        node = frontier.pop()
        if node == goal:
            return True
        if node not in seen:
            seen.add(node)
            frontier.extend(l.target for l in links if l.source == node)
    return False


def add_link(graph: ArgumentGraph, source: str, target: str,
             role: LinkRole) -> ArgumentGraph:
    """Add the link, then test the whole new link set for a cycle."""
    if source not in graph.arguments:
        raise KeyError(f"unknown argument '{source}'")
    if target not in graph.arguments:
        raise KeyError(f"unknown argument '{target}'")
    link = Link(source, target, role)
    if not _claim_in_slot(graph, link):
        raise SlotMismatch(
            f"claim of '{source}' does not occupy the {role.value} slot of '{target}'")
    new_links = tuple(sorted(graph.links + (link,)))
    if has_cycle(new_links):
        raise CycleError(f"link {source}->{target} would close a support cycle")
    return replace(graph, links=new_links)


def unanswered_challenge(state: DialogueState) -> Optional[str]:
    """Scan the rest of the history once per challenge."""
    for i, move in enumerate(state.history):
        if move.kind is not MoveKind.CHALLENGE:
            continue
        responses = [m for m in state.history[i + 1:]
                     if m.speaker != move.speaker][:ANSWER_WINDOW]
        if not any(m.kind is MoveKind.ASSERT for m in responses):
            return move.subject
    return None


_DIGITS = frozenset("0123456789")
_PUNCT = {"{": "lbrace", "}": "rbrace", ":": "colon", ",": "comma",
          ";": "semicolon"}


def tokenize(source: str) -> list[Token]:
    """Lex the source into tokens; raises MarkupError with an exact span
    on an unterminated string or illegal character."""
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def advance(text: str) -> None:
        nonlocal i, line, col
        for ch in text:
            i += 1
            if ch == "\n":
                line, col = line + 1, 1
            else:
                col += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(ch)
            continue
        if ch == "#":
            end = source.find("\n", i)
            advance(source[i:] if end < 0 else source[i:end])
            continue
        start_span = (line, col, i)
        if ch == "<" and source.startswith("<-", i):
            tokens.append(Token("arrow", "<-", SourceSpan(*start_span, 2)))
            advance("<-")
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, SourceSpan(*start_span, 1)))
            advance(ch)
            continue
        if ch == '"':
            j, parts = i + 1, []
            while j < n and source[j] != '"':
                if source[j] == "\\":
                    if j + 1 < n and source[j + 1] in ('"', "\\"):
                        parts.append(source[j + 1])
                        j += 2
                        continue
                    raise MarkupError([ParseError(
                        SourceSpan(*start_span, j + 2 - i), "string",
                        source[i:j + 2], "illegal escape sequence")])
                parts.append(source[j])
                j += 1
            if j >= n:
                raise MarkupError([ParseError(
                    SourceSpan(*start_span, 1), "closing quote",
                    source[i:min(i + 20, n)], "unterminated string")])
            tokens.append(Token("string", "".join(parts),
                                SourceSpan(*start_span, j + 1 - i)))
            advance(source[i:j + 1])
            continue
        if ch in _DIGITS:
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            tokens.append(Token("int", source[i:j], SourceSpan(*start_span, j - i)))
            advance(source[i:j])
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, SourceSpan(*start_span, j - i)))
            advance(word)
            continue
        raise MarkupError([ParseError(
            SourceSpan(*start_span, 1), "token", ch,
            "numbers use ASCII digits" if ch.isdigit() else "illegal character")])
    return tokens
