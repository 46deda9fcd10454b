"""Reference implementations kept for differential tests.

These are the straightforward versions that `prooftalk` replaced with
linear-time ones (among them the dialogue replay that folded
`apply_move` over immutable states, copying the history and a store at
every move), the character-by-character tokenizer that the master-regex
one replaced, and the parser whose block parsers each repeated the block
head, the entry loop and the slot rule.  They define the expected
answers: the library functions must agree with them on every input the
tests generate.  The reference tokenizer builds a `Token` with a full
`SourceSpan` for every token, as the library's did before it returned
offset tuples.  The survey tables that `typology` now derives from
Tables 1 and 3 are kept here as they were written out by hand, and the
legality matrix that `engine.KIND_RULES` now holds once is kept as the
two functions that each branched on the move kind.  The shift detector
that rescanned the later segments at each shift, and took the declared
type as a turn-0 segment spliced in front, is kept as it was, and so is
the segmentation that closed the segment before each boundary through a
closure written out in both the declared-shift and the drift branch.
The text outputs of `classify` and `analyze` are kept as the CLI built
them, by reading the fields of the JSON report back, with the rule that
made `analyze` exit 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from prooftalk.engine import (
    ANSWER_WINDOW,
    KIND_RULES,
    CommitmentStore,
    DialogueState,
    Move,
    MoveKind,
    Participant,
    Phase,
    Polarity,
    ProtocolViolation,
    ReplayResult,
    Role,
    ViolationInfo,
)
from prooftalk.markup import (
    KEYWORDS,
    DialogueDecl,
    Document,
    MarkupError,
    ParseError,
    ProofDecl,
    SourceSpan,
)
from prooftalk.model import (
    ArgumentGraph,
    CycleError,
    Link,
    LinkRole,
    Proposition,
    Qualifier,
    QualifierKind,
    SlotMismatch,
    ToulminArgument,
    _claim_in_slot,
    _has_cycle,
)
from prooftalk.shifts import (
    SHIFT_WINDOW,
    _DECLARE_SHIFT,
    _TYPE_PRIORITY,
    Segment,
    Shift,
    ShiftKind,
    ShiftMode,
    judge_licitness,
)
from prooftalk.typology import (
    AsymmetryDirection,
    DialogueType,
    InitialSituation,
    MainGoal,
    ProofDialogueRow,
    ProofDialogueType,
    SituationKind,
    Stance,
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
    return ArgumentGraph(graph.propositions, graph.arguments, new_links)


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


def kind_allowed(kind: MoveKind, dialogue_type: DialogueType) -> bool:
    """State-independent part of the legality matrix."""
    if kind is MoveKind.RETRACT:
        return dialogue_type is not DialogueType.INQUIRY
    if kind is MoveKind.OFFER:
        return dialogue_type in (DialogueType.DELIBERATION,
                                 DialogueType.NEGOTIATION)
    if kind is MoveKind.THREAT:
        return dialogue_type is DialogueType.NEGOTIATION
    return True


def _kind_rule_id(kind: MoveKind, dialogue_type: DialogueType) -> str:
    if kind is MoveKind.RETRACT:
        return f"retract-forbidden-in-{dialogue_type.value}"
    if kind is MoveKind.THREAT:
        return "threat-move-outside-negotiation"
    return f"{kind.value}-move-outside-settlement-dialogue"


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
        return state._replace(history=history, phase=Phase.CLOSED)
    if move.kind is MoveKind.DECLARE_SHIFT:
        return state._replace(history=history, current_type=move.subject)

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
    return state._replace(history=history, stores=tuple(stores))


def replay_moves(initial: DialogueState, moves: tuple[Move, ...],
                 segments: list) -> ReplayResult:
    """Fold apply_move over a move list, stopping at the first violation.

    `segments` are the moves' shift segments (`shifts.segment_moves`):
    each undeclared drift switches the operative type before the move
    that opens it is applied, so a transcript that coherently settles
    into another dialogue type replays cleanly.
    """
    switch_at = {s.start_turn: s.operative_type
                 for s in segments if not s.declared}
    state = initial
    for move in moves:
        if move.turn in switch_at:
            state = state._replace(current_type=switch_at[move.turn])
        try:
            state = apply_move(state, move)
        except ProtocolViolation as exc:
            return ReplayResult(state, ViolationInfo(
                move.turn, exc.rule, str(exc)))
    return ReplayResult(state)


def segment_moves(moves: tuple[Move, ...],
                  initial_type: DialogueType) -> list[Segment]:
    """Partition a move list into typed segments.

    Boundaries arise from shifts declared to a dialogue type (a
    declare_shift to anything else opens none) and from undeclared drifts:
    a move whose kind is illegal under the current type opens a new
    segment whose type is the highest-priority one under which the next
    `SHIFT_WINDOW` moves are all kind-legal.
    """
    if not moves:
        return []

    segments: list[Segment] = []
    current = initial_type
    start = moves[0].turn
    declared = False
    sharp = True

    def close(end_turn: int) -> None:
        segments.append(Segment(start, end_turn, current, declared, sharp))

    for i, (turn, _, kind, subject) in enumerate(moves):
        if kind is _DECLARE_SHIFT and isinstance(subject, DialogueType):
            if turn > start:
                close(turn - 1)
                start = turn
            current, declared, sharp = subject, True, True
        elif isinstance(subject, str) and KIND_RULES[kind, current] is not None:
            ahead = {m.kind for m in moves[i:i + SHIFT_WINDOW]}
            # The types that allow every kind ahead; never empty, as
            # negotiation allows every move kind.
            candidates = [t for t in _TYPE_PRIORITY
                          if {KIND_RULES[k, t] for k in ahead} == {None}]
            alone = [t for t in _TYPE_PRIORITY if KIND_RULES[kind, t] is None]
            if turn > start:
                close(turn - 1)
                start = turn
            current, declared, sharp = candidates[0], False, len(alone) == 1
    close(moves[-1].turn)
    return segments


def detect_shifts(segments: list[Segment]) -> list[Shift]:
    """One shift per adjacent pair of differing-type segments.

    Callers put a turn-0 opening segment of the declared type,
    `Segment(0, 0, declared_type, True)`, in front of the segments, so
    that a boundary at the first move is a shift.
    """
    shifts: list[Shift] = []
    for i in range(1, len(segments)):
        prev, seg = segments[i - 1], segments[i]
        if seg.operative_type == prev.operative_type:
            continue
        kind = (ShiftKind.ABRUPT if seg.declared or seg.sharp
                else ShiftKind.GRADUAL)
        resumed = any(s.operative_type == prev.operative_type
                      for s in segments[i + 1:])
        mode = ShiftMode.EMBEDDING if resumed else ShiftMode.REPLACEMENT
        licitness, reason = judge_licitness(
            prev.operative_type, seg.operative_type, seg.declared)
        shifts.append(Shift(seg.start_turn, prev.operative_type,
                            seg.operative_type, kind, mode, licitness, reason))
    return shifts

@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    span: SourceSpan


def _end_span(source: str) -> SourceSpan:
    """The empty span just past the last character of the source."""
    line_start = source.rfind("\n") + 1
    return SourceSpan(source.count("\n") + 1, len(source) - line_start + 1,
                      len(source), 0)


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
                        SourceSpan(*start_span, min(j + 2, n) - i), "string",
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


# The reference parser's word tables.  It records each block's keyword
# span in a dict of its own.
QUALIFIER_WORDS = {
    "necessarily": QualifierKind.NECESSARILY,
    "almost_certainly": QualifierKind.ALMOST_CERTAINLY,
    "probably": QualifierKind.PROBABLY,
    "presumably": QualifierKind.PRESUMABLY,
}
TYPE_WORDS = {t.value: t for t in DialogueType}
STANCE_WORDS = {s.value: s for s in Stance}
MOVE_WORDS = {k.value: k for k in MoveKind}


class _Parser:
    def __init__(self, tokens: list[Token], end: SourceSpan):
        self.tokens = tokens
        self.eof = Token("eof", "<end of input>", end)
        self.pos = 0
        self.errors: list[ParseError] = []
        self.doc = Document()
        self.block_spans: dict[str, SourceSpan] = {}
        # (slot_id, source_arg_name, target_arg_name, span)
        self.uses: list[tuple[str, str, str, SourceSpan]] = []
        # (prop_id, span) references to resolve after the full parse
        self.pending_refs: list[tuple[str, SourceSpan]] = []
        # (proof keyword span, proof name, dialogue names) to resolve
        # after the full parse
        self.pending_proofs: list[tuple[SourceSpan, str, list[str]]] = []

    def peek(self) -> Token:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else self.eof

    def next(self) -> Token:
        tok = self.peek()
        if self.pos < len(self.tokens):
            self.pos += 1
        return tok

    def error(self, expected: str, tok: Optional[Token] = None,
              hint: Optional[str] = None) -> None:
        tok = tok or self.peek()
        found = tok.value if tok.kind != "eof" else "<end of input>"
        self.errors.append(ParseError(tok.span, expected, found, hint))

    def expect(self, kind: str, expected: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind:
            return self.next()
        self.error(expected or {"colon": "':'", "lbrace": "'{'",
                                "rbrace": "'}'", "arrow": "'<-'"}[kind])
        return None

    def expect_kw(self, word: str) -> bool:
        tok = self.peek()
        if tok.kind == "keyword" and tok.value == word:
            self.next()
            return True
        self.error(f"'{word}'")
        return False

    def ident_list(self, expected: str) -> list[Token]:
        """A comma-separated identifier list; missing entries are errors."""
        idents = [self.expect("ident", expected)]
        while self.peek().kind == "comma":
            self.next()
            idents.append(self.expect("ident", expected))
        return [ident for ident in idents if ident is not None]

    def at_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.value in words

    def skip_block(self) -> None:
        """Recovery: skip to the end of the current block or to the next
        top-level declaration keyword."""
        depth = 0
        while self.peek().kind != "eof":
            tok = self.peek()
            if depth == 0 and self.at_kw("prop", "argument", "dialogue", "proof"):
                return
            self.next()
            if tok.kind == "lbrace":
                depth += 1
            elif tok.kind == "rbrace":
                depth -= 1
                if depth <= 0:
                    return

    def repeated(self, kw: Token, key: Optional[str] = None) -> None:
        """A second single-valued entry (a second stance line for
        participant `key`), reported at its keyword."""
        self.errors.append(ParseError(
            kw.span, f"one '{kw.value}' entry"
            + (f" for '{key}'" if key else ""), kw.value,
            "repeated entry"))

    # --- propositions ------------------------------------------------

    def declare_prop(self, pid: str, text: str, span: SourceSpan) -> None:
        existing = self.doc.graph.propositions.get(pid)
        if existing is None:
            self.doc.graph.propositions[pid] = Proposition(pid, text)
        elif existing.text != text:
            self.errors.append(ParseError(
                span, "fresh proposition id", pid,
                "duplicate id with conflicting text"))

    # --- top level ---------------------------------------------------

    def parse(self) -> Document:
        if self.at_kw("version"):
            self.next()
            self.expect("int", "version number")
        while self.peek().kind != "eof":
            if self.at_kw("prop"):
                self.parse_prop()
            elif self.at_kw("argument"):
                self.parse_argument()
            elif self.at_kw("dialogue"):
                self.parse_dialogue()
            elif self.at_kw("proof"):
                self.parse_proof()
            else:
                self.error("'prop', 'argument', 'dialogue' or 'proof'")
                self.skip_block()
        self.resolve_uses()
        self.resolve_refs()
        return self.doc

    def parse_prop(self) -> None:
        self.next()  # prop
        ident = self.expect("ident", "proposition id")
        if not self.expect("colon") or ident is None:
            self.skip_block()
            return
        text = self.expect("string", "proposition text")
        if text is None:
            self.skip_block()
            return
        self.declare_prop(ident.value, text.value, ident.span)

    # --- argument blocks ---------------------------------------------

    def parse_argument(self) -> None:
        kw = self.next()  # argument
        name = self.expect("string", "argument name")
        if name is None or not self.expect("lbrace"):
            self.skip_block()
            return
        if name.value in self.doc.graph.arguments:
            self.error("fresh argument name", name, "duplicate argument")
        data: list[str] = []
        rebuttals: list[str] = []
        warrant = claim = backing = None
        qualifier: Optional[Qualifier] = None

        def named_slot() -> Optional[str]:
            ident = self.expect("ident", "proposition id")
            if ident is None or not self.expect("colon"):
                return None
            text = self.expect("string", "proposition text")
            if text is None:
                return None
            self.declare_prop(ident.value, text.value, ident.span)
            return ident.value

        while not self.peek().kind == "rbrace":
            tok = self.peek()
            if tok.kind == "eof":
                self.error("'}'")
                break
            if self.at_kw("data"):
                self.next()
                pid = named_slot()
                if pid is not None:
                    data.append(pid)
            elif self.at_kw("rebuttal"):
                self.next()
                pid = named_slot()
                if pid is not None:
                    rebuttals.append(pid)
            elif self.at_kw("warrant"):
                entry = self.next()
                pid = named_slot()
                if pid is not None and warrant is not None:
                    self.repeated(entry)
                elif pid is not None:
                    warrant = pid
            elif self.at_kw("backing"):
                entry = self.next()
                pid = named_slot()
                if pid is not None and backing is not None:
                    self.repeated(entry)
                elif pid is not None:
                    backing = pid
            elif self.at_kw("claim"):
                entry = self.next()
                pid = named_slot()
                if pid is not None and claim is not None:
                    self.repeated(entry)
                elif pid is not None:
                    claim = pid
            elif self.at_kw("qualifier"):
                entry = self.next()
                if self.expect("colon"):
                    q = self.parse_qualifier()
                    if q is not None and qualifier is not None:
                        self.repeated(entry)
                    elif q is not None:
                        qualifier = q
            elif self.at_kw("uses"):
                self.next()
                ident = self.expect("ident", "slot proposition id")
                if ident and self.expect("arrow") and self.expect_kw("argument"):
                    src = self.expect("string", "argument name")
                    if src:
                        self.uses.append(
                            (ident.value, src.value, name.value, ident.span))
            else:
                self.error("argument slot keyword", tok)
                self.next()
        self.expect("rbrace")
        self.doc.graph.arguments[name.value] = ToulminArgument(
            id=name.value, data=tuple(data), warrant=warrant, claim=claim,
            backing=backing, qualifier=qualifier, rebuttals=tuple(rebuttals))
        self.block_spans[f"argument:{name.value}"] = kw.span

    def parse_qualifier(self) -> Optional[Qualifier]:
        tok = self.next()
        if tok.kind == "ident" and tok.value in QUALIFIER_WORDS:
            return Qualifier(QUALIFIER_WORDS[tok.value])
        if tok.kind == "ident" and tok.value == "custom":
            label = self.expect("string", "custom qualifier label")
            if label is None:
                return None
            if not label.value:
                self.errors.append(ParseError(
                    label.span, "custom qualifier label", '""',
                    "a custom label must be non-empty"))
                return None
            return Qualifier(QualifierKind.CUSTOM, label.value)
        self.error("qualifier keyword", tok)
        return None

    # --- dialogue blocks ---------------------------------------------

    def parse_dialogue(self) -> None:
        kw = self.next()  # dialogue
        name = self.expect("string", "dialogue name")
        if name is None or not self.expect("lbrace"):
            self.skip_block()
            return
        if name.value in self.doc.dialogues:
            self.error("fresh dialogue name", name, "duplicate dialogue")

        declared_type: Optional[DialogueType] = None
        order: list[str] = []
        order_tok: Optional[Token] = None
        stances: dict[str, Stance] = {}
        crucial: Optional[str] = None
        settlement: Optional[str] = None
        moves: list[Move] = []

        while self.peek().kind != "rbrace":
            tok = self.peek()
            if tok.kind == "eof":
                self.error("'}'")
                break
            if self.at_kw("type"):
                kw = self.next()
                if self.expect("colon"):
                    t = self.next()
                    if (t.kind == "ident" and t.value in TYPE_WORDS
                            and declared_type is not None):
                        self.repeated(kw)
                    elif t.kind == "ident" and t.value in TYPE_WORDS:
                        declared_type = TYPE_WORDS[t.value]
                    else:
                        self.error("dialogue type name", t)
            elif self.at_kw("participants"):
                order_tok = self.next()
                if self.expect("colon"):
                    for ident in self.ident_list("participant id"):
                        if ident.value in order:
                            self.error("fresh participant id", ident,
                                       "duplicate participant")
                        order.append(ident.value)
            elif self.at_kw("stance"):
                kw = self.next()
                pid = self.expect("ident", "participant id")
                prop = self.expect("ident", "proposition id")
                if pid and prop and self.expect("colon"):
                    v = self.next()
                    if v.kind == "ident" and v.value in STANCE_WORDS:
                        if pid.value in stances:
                            self.repeated(kw, pid.value)
                        else:
                            stances[pid.value] = STANCE_WORDS[v.value]
                    else:
                        self.error("'true', 'false' or 'unknown'", v)
                        continue
                    if crucial is not None and crucial != prop.value:
                        self.error("the crucial proposition", prop,
                                   "stance lines must share one proposition")
                    else:
                        crucial = prop.value
                        self.pending_refs.append((prop.value, prop.span))
            elif self.at_kw("settlement"):
                kw = self.next()
                ident = self.expect("ident", "proposition id")
                if ident and settlement is not None:
                    self.repeated(kw)
                elif ident:
                    settlement = ident.value
                if ident:
                    self.pending_refs.append((ident.value, ident.span))
            elif self.at_kw("move"):
                self.next()
                turn = self.expect("int", "turn number")
                speaker = self.expect("ident", "speaker id")
                kind_tok = self.next()
                if kind_tok.kind != "keyword" or kind_tok.value not in MOVE_WORDS:
                    self.error("move kind", kind_tok)
                    continue
                kind = MOVE_WORDS[kind_tok.value]
                subj_tok = self.next()
                subject: Union[str, DialogueType, None] = None
                if kind is MoveKind.DECLARE_SHIFT:
                    if subj_tok.kind == "ident" and subj_tok.value in TYPE_WORDS:
                        subject = TYPE_WORDS[subj_tok.value]
                    else:
                        self.error("dialogue type name", subj_tok)
                elif subj_tok.kind == "ident":
                    subject = subj_tok.value
                    self.pending_refs.append((subj_tok.value, subj_tok.span))
                else:
                    self.error("proposition id", subj_tok)
                if turn and speaker and subject is not None:
                    moves.append(Move(int(turn.value), speaker.value,
                                      kind, subject))
            else:
                self.error("dialogue entry keyword", tok)
                self.next()
        self.expect("rbrace")

        if declared_type is None:
            self.error("'type' declaration in dialogue block", name)
            return
        if crucial is None:
            self.error("at least one 'stance' line in dialogue block", name)
            return
        if len(order) != 2:
            self.errors.append(ParseError(
                (order_tok or name).span, "exactly two participants",
                str(len(order)), "dialogues are two-party"))
        participants = tuple(
            Participant(pid,
                        Role.PROVER if i == 0 else Role.INTERLOCUTOR,
                        stances.get(pid, Stance.UNKNOWN))
            for i, pid in enumerate(order))
        for pid in stances:
            if pid not in order:
                self.error("declared participant", name,
                           f"stance for unknown participant '{pid}'")
        self.doc.dialogues[name.value] = DialogueDecl(
            name.value, declared_type, participants, crucial, settlement,
            tuple(moves))
        self.block_spans[f"dialogue:{name.value}"] = kw.span

    # --- proof blocks ------------------------------------------------

    def parse_proof(self) -> None:
        kw = self.next()  # proof
        name = self.expect("string", "proof name")
        if name is None or not self.expect("lbrace"):
            self.skip_block()
            return
        if name.value in self.doc.proofs:
            self.error("fresh proof name", name, "duplicate proof")
        names: list[str] = []
        if self.expect_kw("dialogues") and self.expect("colon"):
            names = [ident.value for ident in self.ident_list("dialogue name")]
        self.expect("rbrace")
        self.pending_proofs.append((kw.span, name.value, names))
        self.doc.proofs[name.value] = ProofDecl(name.value, tuple(names))
        self.block_spans[f"proof:{name.value}"] = kw.span

    # --- resolution --------------------------------------------------

    def resolve_uses(self) -> None:
        links = set(self.doc.graph.links)
        for slot_id, src, target, span in self.uses:
            graph = self.doc.graph
            if src not in graph.arguments:
                self.errors.append(ParseError(
                    span, "declared argument", src, "unknown source argument"))
                continue
            target_arg = graph.arguments[target]
            if slot_id in target_arg.data:
                role = LinkRole.DATUM
            elif slot_id == target_arg.backing:
                role = LinkRole.BACKING
            else:
                self.errors.append(ParseError(
                    span, "a datum or backing of this argument", slot_id,
                    "uses clause must name a local slot"))
                continue
            if graph.arguments[src].claim != slot_id:
                self.errors.append(ParseError(
                    span, f"claim of argument '{src}'", slot_id,
                    "source claim does not match the slot"))
                continue
            links.add(Link(src, target, role))
        self.doc.graph.links = tuple(sorted(links))
        if _has_cycle(self.doc.graph.links):
            anchor = self.uses[-1][3] if self.uses else SourceSpan(1, 1, 0, 1)
            self.errors.append(ParseError(
                anchor, "acyclic support links", "uses",
                "support cycle between arguments"))

    def resolve_refs(self) -> None:
        for pid, span in self.pending_refs:
            if pid not in self.doc.graph.propositions:
                self.errors.append(ParseError(
                    span, "declared proposition", pid, "dangling reference"))
        for span, name, names in self.pending_proofs:
            for n in names:
                if n not in self.doc.dialogues:
                    self.errors.append(ParseError(
                        span, "declared dialogue name", "proof",
                        f"proof '{name}' references unknown dialogue '{n}'"))

def parse_document(source: str) -> tuple[Document, dict[str, SourceSpan]]:
    """Parse markup text into the document and its block spans, keyed
    `argument:NAME`, `dialogue:NAME` and `proof:NAME`; raises MarkupError
    listing every recoverable error, the first one earliest in the
    source.  A span holds at most one error, the first one found there."""
    parser = _Parser(tokenize(source), _end_span(source))
    doc = parser.parse()
    if parser.errors:
        first: dict[SourceSpan, ParseError] = {}
        for err in parser.errors:
            first.setdefault(err.span, err)
        raise MarkupError(sorted(first.values(), key=lambda e: e.span.offset))
    return doc, parser.block_spans


# The survey tables as written by hand before the per-type maps and the
# proof-dialogue index were derived from Tables 1 and 3.  The library's
# tables must equal these.
_TABLE1: dict[tuple[SituationKind, MainGoal], DialogueType] = {
    (SituationKind.CONFLICT, MainGoal.STABLE_RESOLUTION): DialogueType.PERSUASION,
    (SituationKind.CONFLICT, MainGoal.PRACTICAL_SETTLEMENT): DialogueType.NEGOTIATION,
    (SituationKind.CONFLICT, MainGoal.PROVISIONAL_ACCOMMODATION): DialogueType.ERISTIC,
    (SituationKind.OPEN_PROBLEM, MainGoal.STABLE_RESOLUTION): DialogueType.INQUIRY,
    (SituationKind.OPEN_PROBLEM, MainGoal.PRACTICAL_SETTLEMENT): DialogueType.DELIBERATION,
    (SituationKind.INFO_ASYMMETRY, MainGoal.STABLE_RESOLUTION): DialogueType.INFORMATION_SEEKING,
}

_TABLE3: dict[ProofDialogueType, ProofDialogueRow] = {
    ProofDialogueType.PROOF_AS_INQUIRY: ProofDialogueRow(
        False, "Open-mindedness",
        "Prove or disprove conjecture", "Contribute to outcome",
        "Obtain knowledge"),
    ProofDialogueType.PROOF_AS_PERSUASION: ProofDialogueRow(
        False, "Difference of opinion",
        "Resolve difference of opinion with rigour", "Persuade interlocutor",
        "Persuade prover"),
    ProofDialogueType.PROOF_AS_PEDAGOGICAL: ProofDialogueRow(
        False, "Interlocutor lacks information", "Transfer of knowledge",
        "Disseminate knowledge of results & methods", "Obtain knowledge"),
    ProofDialogueType.SUSPECT_INFO_SEEKING: ProofDialogueRow(
        True, "Prover lacks information", "Transfer of knowledge",
        "Obtain information", "Presumably inscrutable"),
    ProofDialogueType.SUSPECT_DELIBERATION: ProofDialogueRow(
        True, "Open-mindedness",
        "Reach a provisional conclusion", "Contribute to outcome",
        "Obtain warranted belief"),
    ProofDialogueType.SUSPECT_NEGOTIATION: ProofDialogueRow(
        True, "Difference of opinion",
        "Exchange resources for a provisional conclusion",
        "Contribute to outcome", "Maximize value of exchange"),
    ProofDialogueType.SUSPECT_ERISTIC: ProofDialogueRow(
        True, "Irreconcilable difference of opinion", "Reveal deeper conflict",
        "Clarify position", "Clarify position"),
}

_CONFLICT = InitialSituation(SituationKind.CONFLICT)
_OPEN_PROBLEM = InitialSituation(SituationKind.OPEN_PROBLEM)

_PROOF_ROWS: dict[tuple[InitialSituation, MainGoal], ProofDialogueType] = {
    (_OPEN_PROBLEM, MainGoal.STABLE_RESOLUTION):
        ProofDialogueType.PROOF_AS_INQUIRY,
    (_OPEN_PROBLEM, MainGoal.PRACTICAL_SETTLEMENT):
        ProofDialogueType.SUSPECT_DELIBERATION,
    (_CONFLICT, MainGoal.STABLE_RESOLUTION):
        ProofDialogueType.PROOF_AS_PERSUASION,
    (_CONFLICT, MainGoal.PRACTICAL_SETTLEMENT):
        ProofDialogueType.SUSPECT_NEGOTIATION,
    (InitialSituation(SituationKind.CONFLICT, irreconcilable=True),
     MainGoal.PROVISIONAL_ACCOMMODATION): ProofDialogueType.SUSPECT_ERISTIC,
    (InitialSituation(SituationKind.INFO_ASYMMETRY,
                      AsymmetryDirection.INTERLOCUTOR_LACKS),
     MainGoal.STABLE_RESOLUTION): ProofDialogueType.PROOF_AS_PEDAGOGICAL,
    (InitialSituation(SituationKind.INFO_ASYMMETRY,
                      AsymmetryDirection.PROVER_LACKS),
     MainGoal.STABLE_RESOLUTION): ProofDialogueType.SUSPECT_INFO_SEEKING,
}

GOAL_OF_TYPE: dict[DialogueType, MainGoal] = {
    DialogueType.PERSUASION: MainGoal.STABLE_RESOLUTION,
    DialogueType.INQUIRY: MainGoal.STABLE_RESOLUTION,
    DialogueType.INFORMATION_SEEKING: MainGoal.STABLE_RESOLUTION,
    DialogueType.PEDAGOGICAL: MainGoal.STABLE_RESOLUTION,
    DialogueType.DELIBERATION: MainGoal.PRACTICAL_SETTLEMENT,
    DialogueType.NEGOTIATION: MainGoal.PRACTICAL_SETTLEMENT,
    DialogueType.ERISTIC: MainGoal.PROVISIONAL_ACCOMMODATION,
    DialogueType.DEBATE: MainGoal.PROVISIONAL_ACCOMMODATION,
}

SITUATION_OF_TYPE: dict[DialogueType, SituationKind] = {
    DialogueType.PERSUASION: SituationKind.CONFLICT,
    DialogueType.NEGOTIATION: SituationKind.CONFLICT,
    DialogueType.ERISTIC: SituationKind.CONFLICT,
    DialogueType.DEBATE: SituationKind.CONFLICT,
    DialogueType.INQUIRY: SituationKind.OPEN_PROBLEM,
    DialogueType.DELIBERATION: SituationKind.OPEN_PROBLEM,
    DialogueType.INFORMATION_SEEKING: SituationKind.INFO_ASYMMETRY,
    DialogueType.PEDAGOGICAL: SituationKind.INFO_ASYMMETRY,
}


# The text outputs as `cli.cmd_classify` and `cli.cmd_analyze` built
# them from the JSON report, and `cmd_analyze`'s exit status.
def classify_text(report: dict) -> str:
    lines = []
    for name in sorted(report):
        e = report[name]
        lines.append(f"{name}: {e['declared_type']} "
                     f"({e['initial_situation']} / {e['main_goal']}) "
                     f"-> {e['proof_dialogue'] or 'undefined'}")
    return "\n".join(lines) + "\n"


def analyze_text(report: dict) -> str:
    lines = []
    for e in report["dialogues"]:
        if "error" in e:
            lines.append(f"{e['dialogue_id']}: error: {e['error']}")
            continue
        goal = "achieved" if e["goal"]["achieved"] else "not achieved"
        line = (f"{e['dialogue_id']}: goal {goal} "
                f"({e['goal']['reason']}); {len(e['shifts'])} shift(s)")
        if e["violations"]:
            first = e["violations"][0]
            line += (f"; {len(e['violations'])} violation(s), first: "
                     f"{first['rule']} at turn {first['turn']}")
        lines.append(line)
    for e in report["proofs"]:
        lines.append(f"proof {e['proof_id']}: {e['status']}")
    return "\n".join(lines) + "\n"


def analyze_exit_status(report: dict) -> int:
    failed = any("error" in e or e["violations"] for e in report["dialogues"])
    return 1 if failed else 0
