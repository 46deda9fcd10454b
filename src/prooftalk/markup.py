"""Lexer, parser and serializer for the `.arg` markup format.

The format declares propositions, Toulmin argument blocks and dialogue
transcripts (see the grammar in the README).  Parsing reports every
error it can recover to, each with an exact source span; serializing a
valid document and reparsing it yields a structurally equal document.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, NamedTuple, Optional, Union

from .engine import Move, MoveKind, Participant, Role
from .model import (
    ArgumentGraph,
    Link,
    LinkRole,
    Proposition,
    Qualifier,
    QualifierKind,
    ToulminArgument,
    _has_cycle,
)
from .typology import DialogueType, Stance


class SourceSpan(NamedTuple):
    line: int
    column: int
    offset: int
    length: int


class ParseError(NamedTuple):
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


# A token is a plain tuple (kind, value, offset, length): its line and
# column are worked out only when a span is reported.
_Lexeme = tuple[str, str, int, int]

# One match skips whitespace and comments, then captures one token in the
# group named after its kind.  A string that does not close, or holds an
# escape other than \" and \\, matches `badstring` up to the fault.  With
# no token group matched, the match ends at the end of input or at an
# illegal character.  The pattern matches at every position, so
# `finditer` never skips text.
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]+ | \#[^\n]*)*
    (?: (?P<arrow><-) | (?P<lbrace>\{) | (?P<rbrace>\}) | (?P<colon>:)
      | (?P<comma>,) | (?P<semicolon>;)
      | (?P<string>"(?:[^"\\]|\\["\\])*")
      | (?P<badstring>"(?:[^"\\]|\\["\\])*)
      | (?P<int>[0-9]+) | (?P<word>\w+) )?
""", re.VERBOSE)
_ESCAPE = re.compile(r'\\(["\\])')


def _line_starts(source: str) -> list[int]:
    """The offset at which each line of the source starts.  Only LF ends
    a line; a CR is whitespace inside it."""
    return list(accumulate(
        (len(line) + 1 for line in source.split("\n")[:-1]), initial=0))


def _span(line_starts: list[int], offset: int, length: int) -> SourceSpan:
    """The span at `offset`, with its one-based line and column looked up
    in the source's line starts."""
    line = bisect_right(line_starts, offset)
    return SourceSpan(line, offset - line_starts[line - 1] + 1, offset, length)


def tokenize(source: str) -> list[_Lexeme]:
    """Lex the source into (kind, value, offset, length) tuples; raises
    MarkupError with an exact span on an unterminated string, illegal
    escape or illegal character."""
    tokens: list[_Lexeme] = []
    append = tokens.append
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind is None:
            if m.end() == len(source):
                break
            raise _lex_error(source, m.end(), m.end())
        start, end = m.span(kind)
        value = source[start:end]
        if kind == "word":
            if not (value[0].isalpha() or value[0] == "_"):
                raise _lex_error(source, start, end)
            kind = "keyword" if value in KEYWORDS else "ident"
        elif kind == "string":
            value = value[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
        elif kind == "badstring":
            raise _lex_error(source, start, end)
        append((kind, value, start, end - start))
    return tokens


def _lex_error(source: str, start: int, end: int) -> MarkupError:
    """The error for the fault at `start`: a string whose match stops at
    `end`, on an illegal escape or at the end of input, or else an
    illegal character."""
    starts = _line_starts(source)
    if source[start] != '"':
        ch = source[start]
        return MarkupError([ParseError(
            _span(starts, start, 1), "token", ch,
            "numbers use ASCII digits" if ch.isdigit() else "illegal character")])
    if end < len(source):
        fault = source[start:end + 2]  # the escape may end the input
        return MarkupError([ParseError(
            _span(starts, start, len(fault)), "string", fault,
            "illegal escape sequence")])
    return MarkupError([ParseError(
        _span(starts, start, 1), "closing quote", source[start:start + 20],
        "unterminated string")])


class DialogueDecl(NamedTuple):
    name: str
    declared_type: DialogueType
    participants: tuple[Participant, ...]
    crucial: str
    settlement: Optional[str]
    moves: tuple[Move, ...]


class ProofDecl(NamedTuple):
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
    """Reads tokens as (kind, value, offset, length) tuples: `tok[0]` is
    the kind and `tok[1]` the value."""

    def __init__(self, tokens: list[_Lexeme], source: str):
        tokens.append(("eof", "<end of input>", len(source), 0))
        self.tokens = tokens
        self.source = source
        # Built by the first span reported, if any.
        self.line_starts: Optional[list[int]] = None
        self.pos = 0
        self.errors: list[ParseError] = []
        self.doc = Document()
        # (slot id token, source_arg_name, target_arg_name)
        self.uses: list[tuple[_Lexeme, str, str]] = []
        # proposition id tokens to resolve after the full parse
        self.pending_refs: list[_Lexeme] = []

    def span(self, tok: _Lexeme) -> SourceSpan:
        if self.line_starts is None:
            self.line_starts = _line_starts(self.source)
        return _span(self.line_starts, tok[2], tok[3])

    def peek(self) -> _Lexeme:
        return self.tokens[self.pos]

    def next(self) -> _Lexeme:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, expected: str, tok: Optional[_Lexeme] = None,
              hint: Optional[str] = None) -> None:
        tok = tok or self.peek()
        self.errors.append(ParseError(self.span(tok), expected, tok[1], hint))

    def expect(self, kind: str, expected: Optional[str] = None) -> Optional[_Lexeme]:
        tok = self.peek()
        if tok[0] == kind:
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
        if tok[0] in ("ident", "keyword") and tok[1] in table:
            return table[tok[1]]
        self.error(expected, tok)
        return None

    def ident_list(self, expected: str) -> list[_Lexeme]:
        """A comma-separated identifier list; missing entries are errors."""
        idents = [self.expect("ident", expected)]
        while self.peek()[0] == "comma":
            self.next()
            idents.append(self.expect("ident", expected))
        return [ident for ident in idents if ident is not None]

    def at_kw(self, *words: str) -> bool:
        kind, value, _, _ = self.peek()
        return kind == "keyword" and value in words

    def skip_block(self) -> None:
        """Recovery: skip to the end of the current block or to the next
        top-level declaration keyword."""
        depth = 0
        while self.peek()[0] != "eof":
            if depth == 0 and self.at_kw(*_BLOCK_WORDS):
                return
            kind = self.next()[0]
            if kind == "lbrace":
                depth += 1
            elif kind == "rbrace":
                depth -= 1
                if depth <= 0:
                    return

    def open_block(self, what: str,
                   declared: dict) -> Optional[tuple[_Lexeme, _Lexeme]]:
        """`keyword "name" {`: the keyword and name tokens, or None after
        skipping a malformed block.  A name already `declared` is reported."""
        kw = self.next()
        name = self.expect("string", f"{what} name")
        if name is None or not self.expect("lbrace"):
            self.skip_block()
            return None
        if name[1] in declared:
            self.error(f"fresh {what} name", name, f"duplicate {what}")
        return kw, name

    def entries(self, expected: str,
                words: frozenset[str]) -> Iterator[tuple[str, _Lexeme]]:
        """Each entry keyword of a block body, as its word and its token,
        through the closing `}`; any other token is reported and skipped."""
        while True:
            tok = self.next()
            kind, value = tok[0], tok[1]
            if kind == "rbrace":
                return
            if kind == "eof":
                self.error("'}'", tok)
                return
            if kind == "keyword" and value in words:
                yield value, tok
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
        pid = ident[1]
        existing = self.doc.graph.propositions.get(pid)
        if existing is None:
            self.doc.graph.propositions[pid] = Proposition(pid, text[1])
        elif existing.text != text[1]:
            self.error("fresh proposition id", ident,
                       "duplicate id with conflicting text")
        return pid

    # --- top level ---------------------------------------------------

    def parse(self) -> Document:
        if self.at_kw("version"):
            self.next()
            self.expect("int", "version number")
        while self.peek()[0] != "eof":
            if self.at_kw(*_BLOCK_WORDS):
                getattr(self, "parse_" + self.peek()[1])()
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
        block = self.open_block("argument", self.doc.graph.arguments)
        if block is None:
            return
        kw, name_tok = block
        name = name_tok[1]
        repeated: dict[str, list[str]] = {"data": [], "rebuttal": []}
        single: dict[str, Optional[str]] = dict.fromkeys(
            ("warrant", "backing", "claim"))
        qualifier: Optional[Qualifier] = None
        for word, _ in self.entries("argument slot keyword", _ARGUMENT_SLOTS):
            if word == "qualifier":
                if self.expect("colon"):
                    qualifier = self.parse_qualifier() or qualifier
            elif word == "uses":
                ident = self.expect("ident", "slot proposition id")
                if ident and self.expect("arrow") and self.expect_kw("argument"):
                    src = self.expect("string", "argument name")
                    if src:
                        self.uses.append((ident, src[1], name))
            elif (pid := self.named_prop()) is not None:
                if word in repeated:
                    repeated[word].append(pid)
                else:
                    single[word] = pid
        self.doc.graph.arguments[name] = ToulminArgument(
            name, tuple(repeated["data"]), qualifier=qualifier,
            rebuttals=tuple(repeated["rebuttal"]), **single)
        self.doc.argument_spans[name] = self.span(kw)

    def parse_qualifier(self) -> Optional[Qualifier]:
        kind = self.lookup(QUALIFIER_WORDS, "qualifier keyword")
        if kind is not QualifierKind.CUSTOM:
            return None if kind is None else Qualifier(kind)
        label = self.expect("string", "custom qualifier label")
        if label is None:
            return None
        if not label[1]:
            self.errors.append(ParseError(
                self.span(label), "custom qualifier label", '""',
                "a custom label must be non-empty"))
            return None
        return Qualifier(kind, label[1])

    # --- dialogue blocks ---------------------------------------------

    def parse_dialogue(self) -> None:
        block = self.open_block("dialogue", self.doc.dialogues)
        if block is None:
            return
        _, name_tok = block
        name = name_tok[1]

        declared_type: Optional[DialogueType] = None
        order: list[str] = []
        order_tok = name_tok
        stances: dict[str, Stance] = {}
        crucial: Optional[str] = None
        settlement: Optional[str] = None
        moves: list[Move] = []

        for word, entry in self.entries("dialogue entry keyword",
                                        _DIALOGUE_ENTRIES):
            if word == "type":
                if self.expect("colon"):
                    declared_type = (self.lookup(TYPE_WORDS, "dialogue type name")
                                     or declared_type)
            elif word == "participants":
                order_tok = entry
                if self.expect("colon"):
                    for ident in self.ident_list("participant id"):
                        if ident[1] in order:
                            self.error("fresh participant id", ident,
                                       "duplicate participant")
                        order.append(ident[1])
            elif word == "stance":
                pid = self.expect("ident", "participant id")
                prop = self.expect("ident", "proposition id")
                if not (pid and prop and self.expect("colon")):
                    continue
                stance = self.lookup(STANCE_WORDS, "'true', 'false' or 'unknown'")
                if stance is None:
                    continue
                stances[pid[1]] = stance
                if crucial is not None and crucial != prop[1]:
                    self.error("the crucial proposition", prop,
                               "stance lines must share one proposition")
                else:
                    crucial = prop[1]
                    self.pending_refs.append(prop)
            elif word == "settlement":
                ident = self.expect("ident", "proposition id")
                if ident:
                    settlement = ident[1]
                    self.pending_refs.append(ident)
            else:  # move
                turn = self.expect("int", "turn number")
                speaker = self.expect("ident", "speaker id")
                kind = self.lookup(MOVE_WORDS, "move kind")
                if kind is None:
                    continue
                subject: Union[str, DialogueType, None] = None
                if kind is MoveKind.DECLARE_SHIFT:
                    subject = self.lookup(TYPE_WORDS, "dialogue type name")
                elif (subj_tok := self.next())[0] == "ident":
                    subject = subj_tok[1]
                    self.pending_refs.append(subj_tok)
                else:
                    self.error("proposition id", subj_tok)
                if turn and speaker and subject is not None:
                    moves.append(Move(int(turn[1]), speaker[1], kind, subject))

        if declared_type is None:
            self.error("'type' declaration in dialogue block", name_tok)
            return
        if crucial is None:
            self.error("at least one 'stance' line in dialogue block", name_tok)
            return
        if len(order) != 2:
            self.errors.append(ParseError(
                self.span(order_tok), "exactly two participants",
                str(len(order)), "dialogues are two-party"))
        participants = tuple(
            Participant(pid,
                        Role.PROVER if i == 0 else Role.INTERLOCUTOR,
                        stances.get(pid, Stance.UNKNOWN))
            for i, pid in enumerate(order))
        for pid in stances:
            if pid not in order:
                self.error("declared participant", name_tok,
                           f"stance for unknown participant '{pid}'")
        self.doc.dialogues[name] = DialogueDecl(
            name, declared_type, participants, crucial, settlement,
            tuple(moves))

    # --- proof blocks ------------------------------------------------

    def parse_proof(self) -> None:
        block = self.open_block("proof", self.doc.proofs)
        if block is None:
            return
        kw, name_tok = block
        name = name_tok[1]
        names: list[str] = []
        if self.expect_kw("dialogues") and self.expect("colon"):
            names = [ident[1] for ident in self.ident_list("dialogue name")]
        self.expect("rbrace")
        for n in names:
            if n not in self.doc.dialogues:
                self.error("declared dialogue name", kw,
                           f"proof '{name}' references unknown "
                           f"dialogue '{n}'")
        self.doc.proofs[name] = ProofDecl(name, tuple(names))

    # --- resolution --------------------------------------------------

    def resolve_uses(self) -> None:
        graph = self.doc.graph
        links: set[Link] = set()
        for ident, src, target in self.uses:
            slot_id = ident[1]
            if src not in graph.arguments:
                self.errors.append(ParseError(
                    self.span(ident), "declared argument", src,
                    "unknown source argument"))
                continue
            target_arg = graph.arguments[target]
            if slot_id in target_arg.data:
                role = LinkRole.DATUM
            elif slot_id == target_arg.backing:
                role = LinkRole.BACKING
            else:
                self.error("a datum or backing of this argument", ident,
                           "uses clause must name a local slot")
                continue
            if graph.arguments[src].claim != slot_id:
                self.error(f"claim of argument '{src}'", ident,
                           "source claim does not match the slot")
                continue
            links.add(Link(src, target, role))
        graph.links = tuple(sorted(links))
        if _has_cycle(graph.links):
            # A cycle needs links, so there is a `uses` line to anchor it.
            self.errors.append(ParseError(
                self.span(self.uses[-1][0]), "acyclic support links", "uses",
                "support cycle between arguments"))

    def resolve_refs(self) -> None:
        for tok in self.pending_refs:
            if tok[1] not in self.doc.graph.propositions:
                self.error("declared proposition", tok, "dangling reference")


def parse_document(source: str) -> Document:
    """Parse markup text; raises MarkupError listing every recoverable
    error, the first one earliest in the source.  A span holds at most
    one error, the first one found there."""
    parser = _Parser(tokenize(source), source)
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
    for link in sorted(graph.links):
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
