"""Lexer, parser and serializer for the `.arg` markup format.

The format declares propositions, Toulmin argument blocks and dialogue
transcripts (see the grammar in the README).  Parsing reports every
error it can recover to, each with an exact source span; serializing a
valid document and reparsing it yields a structurally equal document.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .engine import Move, MoveKind, Participant, Role
from .model import (
    ArgumentGraph,
    Link,
    LinkRole,
    Proposition,
    Qualifier,
    QualifierKind,
    ToulminArgument,
    _LINK_ORDER,
    _has_cycle,
)
from .typology import DialogueType, Stance


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    offset: int
    length: int


@dataclass(frozen=True)
class ParseError:
    span: SourceSpan
    expected: str
    found: str
    hint: Optional[str] = None

    @property
    def message(self) -> str:
        msg = f"expected {self.expected}, found {self.found}"
        if self.hint:
            msg += f" ({self.hint})"
        return msg


class MarkupError(Exception):
    def __init__(self, errors: list[ParseError]):
        self.errors = errors
        first = errors[0]
        super().__init__(
            f"{first.span.line}:{first.span.column}: {first.message}"
            + (f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""))


# The words that open a top-level block, and the entry words of argument
# and dialogue blocks.
_BLOCK_WORDS = ("prop", "argument", "dialogue", "proof")
_ARGUMENT_SLOTS = frozenset({
    "data", "warrant", "backing", "qualifier", "rebuttal", "claim", "uses"})
_DIALOGUE_ENTRIES = frozenset({
    "type", "participants", "stance", "settlement", "move"})

QUALIFIER_WORDS = {k.value: k for k in QualifierKind}
TYPE_WORDS = {t.value: t for t in DialogueType}
STANCE_WORDS = {s.value: s for s in Stance}
MOVE_WORDS = {k.value: k for k in MoveKind}

# How an expected punctuation token is named in an error message.
_SHOWN = {"colon": "':'", "lbrace": "'{'", "rbrace": "'}'", "arrow": "'<-'"}

KEYWORDS = frozenset({"version", *_BLOCK_WORDS, "dialogues", *_ARGUMENT_SLOTS,
                      *_DIALOGUE_ENTRIES, *MOVE_WORDS})


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    span: SourceSpan


# One match skips whitespace and comments, then captures one token in the
# group named after its kind.  A string that does not close, or holds an
# escape other than \" and \\, matches `badstring` up to the fault.  With
# no token group matched, the match ends at the end of input or at an
# illegal character.
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]+ | \#[^\n]*)*
    (?: (?P<arrow><-) | (?P<lbrace>\{) | (?P<rbrace>\}) | (?P<colon>:)
      | (?P<comma>,) | (?P<semicolon>;)
      | (?P<string>"(?:[^"\\]|\\["\\])*")
      | (?P<badstring>"(?:[^"\\]|\\["\\])*)
      | (?P<int>[0-9]+) | (?P<word>\w+) )?
""", re.VERBOSE)
_ESCAPE = re.compile(r'\\(["\\])')


def tokenize(source: str) -> list[Token]:
    """Lex the source into tokens; raises MarkupError with an exact span
    on an unterminated string, illegal escape or illegal character."""
    tokens: list[Token] = []
    line, line_start, counted, pos = 1, 0, 0, 0
    while True:
        m = _TOKEN.match(source, pos)
        kind = m.lastgroup
        start = m.start(kind) if kind else m.end()
        newlines = source.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", counted, start) + 1
        counted, pos = start, m.end()
        column = start - line_start + 1
        if kind == "badstring" and pos < len(source):
            fault = source[start:pos + 2]  # the escape may end the input
            raise MarkupError([ParseError(
                SourceSpan(line, column, start, len(fault)), "string", fault,
                "illegal escape sequence")])
        if kind == "badstring":
            raise MarkupError([ParseError(
                SourceSpan(line, column, start, 1), "closing quote",
                source[start:start + 20], "unterminated string")])
        if kind is None or kind == "word" and not (
                source[start].isalpha() or source[start] == "_"):
            if start == len(source):
                return tokens
            ch = source[start]
            raise MarkupError([ParseError(
                SourceSpan(line, column, start, 1), "token", ch,
                "numbers use ASCII digits" if ch.isdigit() else "illegal character")])
        value = m[kind]
        if kind == "word":
            kind = "keyword" if value in KEYWORDS else "ident"
        elif kind == "string":
            value = _ESCAPE.sub(r"\1", value[1:-1])
        tokens.append(Token(kind, value, SourceSpan(line, column, start, pos - start)))


@dataclass(frozen=True)
class DialogueDecl:
    name: str
    declared_type: DialogueType
    participants: tuple[Participant, ...]
    crucial: str
    settlement: Optional[str]
    moves: tuple[Move, ...]


@dataclass(frozen=True)
class ProofDecl:
    name: str
    dialogues: tuple[str, ...]


@dataclass
class Document:
    graph: ArgumentGraph = field(default_factory=ArgumentGraph)
    dialogues: dict[str, DialogueDecl] = field(default_factory=dict)
    proofs: dict[str, ProofDecl] = field(default_factory=dict)
    # Span of each argument block's keyword, by argument name.
    argument_spans: dict[str, SourceSpan] = field(
        default_factory=dict, compare=False, repr=False)


class _Parser:
    def __init__(self, tokens: list[Token], end: SourceSpan):
        tokens.append(Token("eof", "<end of input>", end))
        self.tokens = tokens
        self.pos = 0
        self.errors: list[ParseError] = []
        self.doc = Document()
        # (slot_id, source_arg_name, target_arg_name, span)
        self.uses: list[tuple[str, str, str, SourceSpan]] = []
        # (prop_id, span) references to resolve after the full parse
        self.pending_refs: list[tuple[str, SourceSpan]] = []

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, expected: str, tok: Optional[Token] = None,
              hint: Optional[str] = None) -> None:
        tok = tok or self.peek()
        self.errors.append(ParseError(tok.span, expected, tok.value, hint))

    def expect(self, kind: str, expected: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind:
            return self.next()
        self.error(expected or _SHOWN[kind])
        return None

    def expect_kw(self, word: str) -> bool:
        if self.at_kw(word):
            self.next()
            return True
        self.error(f"'{word}'")
        return False

    def lookup(self, table: dict, expected: str):
        """The next word's entry in the table, or None after an error.
        Type, stance and qualifier words are identifiers; move kinds are
        keywords."""
        tok = self.next()
        if tok.kind in ("ident", "keyword") and tok.value in table:
            return table[tok.value]
        self.error(expected, tok)
        return None

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
            if depth == 0 and self.at_kw(*_BLOCK_WORDS):
                return
            self.next()
            if tok.kind == "lbrace":
                depth += 1
            elif tok.kind == "rbrace":
                depth -= 1
                if depth <= 0:
                    return

    def open_block(self, what: str) -> Optional[tuple[Token, Token]]:
        """`keyword "name" {`: the keyword and name tokens, or None after
        skipping a malformed block."""
        kw = self.next()
        name = self.expect("string", f"{what} name")
        if name is None or not self.expect("lbrace"):
            self.skip_block()
            return None
        return kw, name

    def entries(self, expected: str, words: frozenset[str]) -> Iterator[Token]:
        """Each entry keyword of a block body, through its closing `}`;
        any other token is reported and skipped."""
        while True:
            tok = self.next()
            if tok.kind == "rbrace":
                return
            if tok.kind == "eof":
                self.error("'}'", tok)
                return
            if tok.kind == "keyword" and tok.value in words:
                yield tok
            else:
                self.error(expected, tok)

    def named_prop(self) -> Optional[str]:
        """`id: "text"`, declaring the proposition: its id, or None."""
        ident = self.expect("ident", "proposition id")
        if ident is None or not self.expect("colon"):
            return None
        text = self.expect("string", "proposition text")
        if text is None:
            return None
        pid = ident.value
        existing = self.doc.graph.propositions.get(pid)
        if existing is None:
            self.doc.graph.propositions[pid] = Proposition(pid, text.value)
        elif existing.text != text.value:
            self.errors.append(ParseError(
                ident.span, "fresh proposition id", pid,
                "duplicate id with conflicting text"))
        return pid

    # --- top level ---------------------------------------------------

    def parse(self) -> Document:
        if self.at_kw("version"):
            self.next()
            self.expect("int", "version number")
        while self.peek().kind != "eof":
            if self.at_kw(*_BLOCK_WORDS):
                getattr(self, "parse_" + self.peek().value)()
            else:
                self.error("'prop', 'argument', 'dialogue' or 'proof'")
                self.skip_block()
        self.resolve_uses()
        self.resolve_refs()
        return self.doc

    def parse_prop(self) -> None:
        self.next()  # prop
        if self.named_prop() is None:
            self.skip_block()

    # --- argument blocks ---------------------------------------------

    def parse_argument(self) -> None:
        block = self.open_block("argument")
        if block is None:
            return
        kw, name = block
        if name.value in self.doc.graph.arguments:
            self.error("fresh argument name", name, "duplicate argument")
        repeated: dict[str, list[str]] = {"data": [], "rebuttal": []}
        single: dict[str, Optional[str]] = dict.fromkeys(
            ("warrant", "backing", "claim"))
        qualifier: Optional[Qualifier] = None
        for entry in self.entries("argument slot keyword", _ARGUMENT_SLOTS):
            if entry.value == "qualifier":
                if self.expect("colon"):
                    qualifier = self.parse_qualifier() or qualifier
            elif entry.value == "uses":
                ident = self.expect("ident", "slot proposition id")
                if ident and self.expect("arrow") and self.expect_kw("argument"):
                    src = self.expect("string", "argument name")
                    if src:
                        self.uses.append(
                            (ident.value, src.value, name.value, ident.span))
            elif (pid := self.named_prop()) is not None:
                if entry.value in repeated:
                    repeated[entry.value].append(pid)
                else:
                    single[entry.value] = pid
        self.doc.graph.arguments[name.value] = ToulminArgument(
            name.value, tuple(repeated["data"]), qualifier=qualifier,
            rebuttals=tuple(repeated["rebuttal"]), **single)
        self.doc.argument_spans[name.value] = kw.span

    def parse_qualifier(self) -> Optional[Qualifier]:
        kind = self.lookup(QUALIFIER_WORDS, "qualifier keyword")
        if kind is not QualifierKind.CUSTOM:
            return None if kind is None else Qualifier(kind)
        label = self.expect("string", "custom qualifier label")
        if label is None:
            return None
        if not label.value:
            self.errors.append(ParseError(
                label.span, "custom qualifier label", '""',
                "a custom label must be non-empty"))
            return None
        return Qualifier(kind, label.value)

    # --- dialogue blocks ---------------------------------------------

    def parse_dialogue(self) -> None:
        block = self.open_block("dialogue")
        if block is None:
            return
        _, name = block
        if name.value in self.doc.dialogues:
            self.error("fresh dialogue name", name, "duplicate dialogue")

        declared_type: Optional[DialogueType] = None
        order: list[str] = []
        order_tok: Optional[Token] = None
        stances: dict[str, Stance] = {}
        crucial: Optional[str] = None
        settlement: Optional[str] = None
        moves: list[Move] = []

        for entry in self.entries("dialogue entry keyword", _DIALOGUE_ENTRIES):
            if entry.value == "type":
                if self.expect("colon"):
                    declared_type = (self.lookup(TYPE_WORDS, "dialogue type name")
                                     or declared_type)
            elif entry.value == "participants":
                order_tok = entry
                if self.expect("colon"):
                    for ident in self.ident_list("participant id"):
                        if ident.value in order:
                            self.error("fresh participant id", ident,
                                       "duplicate participant")
                        order.append(ident.value)
            elif entry.value == "stance":
                pid = self.expect("ident", "participant id")
                prop = self.expect("ident", "proposition id")
                if not (pid and prop and self.expect("colon")):
                    continue
                stance = self.lookup(STANCE_WORDS, "'true', 'false' or 'unknown'")
                if stance is None:
                    continue
                stances[pid.value] = stance
                if crucial is not None and crucial != prop.value:
                    self.error("the crucial proposition", prop,
                               "stance lines must share one proposition")
                else:
                    crucial = prop.value
                    self.pending_refs.append((prop.value, prop.span))
            elif entry.value == "settlement":
                ident = self.expect("ident", "proposition id")
                if ident:
                    settlement = ident.value
                    self.pending_refs.append((ident.value, ident.span))
            else:  # move
                turn = self.expect("int", "turn number")
                speaker = self.expect("ident", "speaker id")
                kind = self.lookup(MOVE_WORDS, "move kind")
                if kind is None:
                    continue
                subject: Union[str, DialogueType, None] = None
                if kind is MoveKind.DECLARE_SHIFT:
                    subject = self.lookup(TYPE_WORDS, "dialogue type name")
                elif (subj_tok := self.next()).kind == "ident":
                    subject = subj_tok.value
                    self.pending_refs.append((subj_tok.value, subj_tok.span))
                else:
                    self.error("proposition id", subj_tok)
                if turn and speaker and subject is not None:
                    moves.append(Move(int(turn.value), speaker.value,
                                      kind, subject))

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

    # --- proof blocks ------------------------------------------------

    def parse_proof(self) -> None:
        block = self.open_block("proof")
        if block is None:
            return
        kw, name = block
        names: list[str] = []
        if self.expect_kw("dialogues") and self.expect("colon"):
            names = [ident.value for ident in self.ident_list("dialogue name")]
        self.expect("rbrace")
        for n in names:
            if n not in self.doc.dialogues:
                self.error("declared dialogue name", kw,
                           f"proof '{name.value}' references unknown "
                           f"dialogue '{n}'")
        self.doc.proofs[name.value] = ProofDecl(name.value, tuple(names))

    # --- resolution --------------------------------------------------

    def resolve_uses(self) -> None:
        graph = self.doc.graph
        links: set[Link] = set()
        for slot_id, src, target, span in self.uses:
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
        graph.links = tuple(sorted(links, key=_LINK_ORDER))
        if _has_cycle(graph.links):
            # A cycle needs links, so there is a `uses` line to anchor it.
            self.errors.append(ParseError(
                self.uses[-1][3], "acyclic support links", "uses",
                "support cycle between arguments"))

    def resolve_refs(self) -> None:
        for pid, span in self.pending_refs:
            if pid not in self.doc.graph.propositions:
                self.errors.append(ParseError(
                    span, "declared proposition", pid, "dangling reference"))


def _end_span(source: str) -> SourceSpan:
    """The empty span just past the last character of the source."""
    line_start = source.rfind("\n") + 1
    return SourceSpan(source.count("\n") + 1, len(source) - line_start + 1,
                      len(source), 0)


def parse_document(source: str) -> Document:
    """Parse markup text; raises MarkupError listing every recoverable
    error, the first one earliest in the source.  A span holds at most
    one error, the first one found there."""
    parser = _Parser(tokenize(source), _end_span(source))
    doc = parser.parse()
    if parser.errors:
        first: dict[SourceSpan, ParseError] = {}
        for err in parser.errors:
            first.setdefault(err.span, err)
        raise MarkupError(sorted(first.values(), key=lambda e: e.span.offset))
    return doc


# --- serialization ----------------------------------------------------

def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _slot_props(graph: ArgumentGraph) -> set[str]:
    used: set[str] = set()
    for arg in graph.arguments.values():
        used.update(arg.data)
        used.update(arg.rebuttals)
        used.update(p for p in (arg.warrant, arg.claim, arg.backing) if p)
    return used


def serialize(doc: Document) -> str:
    """Canonical text for a document: slot order data, warrant, backing,
    qualifier, rebuttals, claim; two-space indent; LF line endings;
    blocks sorted by name.  parse(serialize(doc)) == doc structurally."""
    graph = doc.graph
    lines: list[str] = []

    in_slots = _slot_props(graph)
    for pid in sorted(graph.propositions):
        if pid not in in_slots:
            lines.append(f"prop {pid}: {_quote(graph.propositions[pid].text)}")

    def text_of(pid: str) -> str:
        return _quote(graph.propositions[pid].text)

    uses: dict[str, list[Link]] = {}
    for link in sorted(graph.links, key=_LINK_ORDER):
        uses.setdefault(link.target, []).append(link)

    for aid in sorted(graph.arguments):
        arg = graph.arguments[aid]
        if lines:
            lines.append("")
        lines.append(f"argument {_quote(aid)} {{")
        for d in arg.data:
            lines.append(f"  data {d}: {text_of(d)}")
        if arg.warrant is not None:
            lines.append(f"  warrant {arg.warrant}: {text_of(arg.warrant)}")
        if arg.backing is not None:
            lines.append(f"  backing {arg.backing}: {text_of(arg.backing)}")
        if arg.qualifier is not None:
            kind = arg.qualifier.kind
            lines.append(f"  qualifier: {kind.value}" + (
                f" {_quote(arg.qualifier.label)}"
                if kind is QualifierKind.CUSTOM else ""))
        for r in arg.rebuttals:
            lines.append(f"  rebuttal {r}: {text_of(r)}")
        if arg.claim is not None:
            lines.append(f"  claim {arg.claim}: {text_of(arg.claim)}")
        for link in uses.get(aid, ()):
            slot = graph.arguments[link.source].claim
            lines.append(f"  uses {slot} <- argument {_quote(link.source)}")
        lines.append("}")

    for dname in sorted(doc.dialogues):
        d = doc.dialogues[dname]
        if lines:
            lines.append("")
        lines.append(f"dialogue {_quote(dname)} {{")
        lines.append(f"  type: {d.declared_type.value}")
        lines.append("  participants: " + ", ".join(p.id for p in d.participants))
        for p in d.participants:
            lines.append(
                f"  stance {p.id} {d.crucial}: {p.initial_stance.value}")
        if d.settlement is not None:
            lines.append(f"  settlement {d.settlement}")
        for m in d.moves:
            subject = (m.subject.value if isinstance(m.subject, DialogueType)
                       else m.subject)
            lines.append(
                f"  move {m.turn} {m.speaker} {m.kind.value} {subject}")
        lines.append("}")

    for pname in sorted(doc.proofs):
        p = doc.proofs[pname]
        if lines:
            lines.append("")
        lines.append(f"proof {_quote(pname)} {{")
        lines.append("  dialogues: " + ", ".join(p.dialogues))
        lines.append("}")

    return "\n".join(lines) + ("\n" if lines else "")
