"""Reference implementations kept for differential tests.

These are the straightforward versions that `prooftalk` replaced with
linear-time ones (among them the dialogue replay that folded
`apply_move` over immutable states, copying the history and a store at
every move), and the character-by-character tokenizer that the
master-regex one replaced.  They define the expected answers: the
library functions must agree with them on every input the tests
generate.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from prooftalk.engine import (
    ANSWER_WINDOW,
    CommitmentStore,
    DialogueState,
    Move,
    MoveKind,
    Phase,
    Polarity,
    ProtocolViolation,
    ReplayResult,
    ViolationInfo,
    _kind_rule_id,
    kind_allowed,
)
from prooftalk.markup import KEYWORDS, MarkupError, ParseError, SourceSpan, Token
from prooftalk.model import (
    ArgumentGraph,
    CycleError,
    Link,
    LinkRole,
    SlotMismatch,
    _claim_in_slot,
)
from prooftalk.typology import DialogueType


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


# Store updates of the reference `apply_move`.
def with_commitment(store: CommitmentStore, prop: str,
                    polarity: Polarity) -> CommitmentStore:
    return CommitmentStore(store.owner, store.commitments | {(prop, polarity)})


def without(store: CommitmentStore, prop: str) -> CommitmentStore:
    return CommitmentStore(
        store.owner, frozenset(c for c in store.commitments if c[0] != prop))


def check_move(state: DialogueState, move: Move) -> None:
    """Raise ProtocolViolation when the move is illegal in the state."""
    if state.phase is Phase.CLOSED:
        raise ProtocolViolation("dialogue-closed",
                                "no moves after close", move.turn)
    expected = (state.history[-1].turn + 1) if state.history else 1
    if move.turn != expected:
        raise ProtocolViolation(
            "turn-out-of-order",
            f"expected turn {expected}, got {move.turn}", move.turn)
    if all(p.id != move.speaker for p in state.participants):
        raise ProtocolViolation("unknown-speaker",
                                f"no participant '{move.speaker}'", move.turn)

    if move.kind is MoveKind.DECLARE_SHIFT:
        if not isinstance(move.subject, DialogueType):
            raise ProtocolViolation(
                "shift-target-not-a-type",
                "declare_shift subject must be a dialogue type", move.turn)
        return
    if not isinstance(move.subject, str):
        raise ProtocolViolation(
            "subject-not-a-proposition",
            f"{move.kind.value} subject must be a proposition id", move.turn)

    if not kind_allowed(move.kind, state.current_type):
        raise ProtocolViolation(
            _kind_rule_id(move.kind, state.current_type),
            f"{move.kind.value} is not a {state.current_type.value} move",
            move.turn)

    own = state.store_of(move.speaker)
    others = [s for s in state.stores if s.owner != move.speaker]

    if move.kind is MoveKind.ASSERT:
        if own.polarity_of(move.subject) is Polarity.DENIED:
            raise ProtocolViolation(
                "conflicting-commitment",
                f"'{move.speaker}' has denied '{move.subject}'; retract first",
                move.turn)
    elif move.kind is MoveKind.CHALLENGE:
        if own.polarity_of(move.subject) is Polarity.AFFIRMED:
            raise ProtocolViolation(
                "challenge-own-assertion",
                f"'{move.speaker}' cannot challenge their own commitment to "
                f"'{move.subject}'", move.turn)
        if all(s.polarity_of(move.subject) is None for s in others):
            raise ProtocolViolation(
                "challenge-uncommitted",
                f"no other participant is committed to '{move.subject}'",
                move.turn)
    elif move.kind is MoveKind.CONCEDE:
        if all(s.polarity_of(move.subject) is not Polarity.AFFIRMED
               for s in others):
            raise ProtocolViolation(
                "concede-unasserted",
                f"no other participant has affirmed '{move.subject}'",
                move.turn)
    elif move.kind is MoveKind.RETRACT:
        if own.polarity_of(move.subject) is None:
            raise ProtocolViolation(
                "retract-without-commitment",
                f"'{move.speaker}' has no commitment to '{move.subject}'",
                move.turn)


def apply_move(state: DialogueState, move: Move) -> DialogueState:
    """Pure transition: validate the move and return the successor state."""
    check_move(state, move)
    history = state.history + (move,)

    if move.kind is MoveKind.CLOSE:
        return replace(state, history=history, phase=Phase.CLOSED)
    if move.kind is MoveKind.DECLARE_SHIFT:
        return replace(state, history=history, current_type=move.subject)

    stores = list(state.stores)
    idx = next(i for i, s in enumerate(stores) if s.owner == move.speaker)
    if move.kind is MoveKind.ASSERT:
        stores[idx] = with_commitment(stores[idx], move.subject, Polarity.AFFIRMED)
    elif move.kind is MoveKind.CONCEDE:
        # Conceding withdraws a standing denial: the speaker gives in.
        stores[idx] = with_commitment(without(stores[idx], move.subject),
                                      move.subject, Polarity.AFFIRMED)
    elif move.kind is MoveKind.RETRACT:
        stores[idx] = without(stores[idx], move.subject)
    # challenge/question/offer/threat leave stores unchanged
    return replace(state, history=history, stores=tuple(stores))


def replay_moves(initial: DialogueState, moves: tuple[Move, ...],
                 segments: list) -> ReplayResult:
    """Fold apply_move over a move list, stopping at the first violation.

    `segments` are the moves' shift segments (`shifts.segment_moves`):
    each undeclared drift switches the operative type before the move
    that opens it is applied, so a transcript that coherently settles
    into another dialogue type replays cleanly.
    """
    switch_at = {s.start_turn: s.operative_type
                 for s in segments[1:] if not s.declared}
    state = initial
    for move in moves:
        if move.turn in switch_at:
            state = replace(state, current_type=switch_at[move.turn])
        try:
            state = apply_move(state, move)
        except ProtocolViolation as exc:
            return ReplayResult(state, ViolationInfo(
                move.turn, exc.rule, str(exc)))
    return ReplayResult(state)


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
