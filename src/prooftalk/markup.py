"""Lexer, parser and serializer for the `.arg` markup format.

The format declares propositions, Toulmin argument blocks and dialogue
transcripts (see the grammar in the README).  Parsing reports every
error it can recover to, each with an exact source span; serializing a
valid document and reparsing it yields a structurally equal document.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple, Optional, Union

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
        return (f"expected {self.expected}, found {self.found}"
                + (f" ({self.hint})" if self.hint else ""))


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
_NAMED_SLOTS = frozenset({"data", "warrant", "backing", "rebuttal", "claim"})
_ARGUMENT_SLOTS = _NAMED_SLOTS | {"qualifier", "uses"}
_DIALOGUE_ENTRIES = frozenset({
    "type", "participants", "stance", "settlement", "move"})

QUALIFIER_WORDS = {k.value: k for k in QualifierKind}
TYPE_WORDS = {t.value: t for t in DialogueType}
STANCE_WORDS = {s.value: s for s in Stance}
MOVE_WORDS = {k.value: k for k in MoveKind}
_DECLARE_SHIFT = MoveKind.DECLARE_SHIFT

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
# illegal character.  The pattern matches at every position, so `_lex`
# never skips text.
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]+ | \#[^\n]*)*
    (?: (?P<arrow><-) | (?P<lbrace>\{) | (?P<rbrace>\}) | (?P<colon>:)
      | (?P<comma>,) | (?P<semicolon>;)
      | (?P<string>"(?:[^"\\]|\\["\\])*")
      | (?P<badstring>"(?:[^"\\]|\\["\\])*)
      | (?P<int>[0-9]+) | (?P<word>\w+) )?
""", re.VERBOSE)
_ESCAPE = re.compile(r'\\(["\\])')
_ONE_LINE = re.compile(r"[^\r\n]*")

# One-line statements read whole with one match of a pattern take only text
# that lexes the same: ASCII identifier starts (keywords are turned away
# after the match), blanks between fields, strings without escapes, whole
# table words (not `custom`: a label follows), and turns of at most nine
# digits, which `int` always reads.  A block head is one match of
# `_BLOCK_HEAD`.  A run of argument entries is a loop of matches of
# `_ARGUMENT_LINE`, one line each (the last group names the form; groups 2-4
# of a named slot are word, id and text), and so is a run of `move` lines,
# or of top-level `prop` lines, with `_MOVE_LINE` or `_PROP_LINE`, whose
# words are looked up in their tables after the match.  `Move` and
# `Proposition` are bare named tuples, whose generated `__new__` only packs
# its arguments into a tuple: these loops build them with `tuple.__new__`
# and spare a Python call per line.
_ID = r"[A-Za-z_]\w*"
_NAMED = rf'[ ]+ (?P<id>{_ID}) [ ]*:[ ]* "(?P<text>[^"\\]*)"'
_BLOCK_HEAD = re.compile(rf"""[ \t\r\n]*(?P<block>{"|".join(
    w for w in _BLOCK_WORDS if w != "prop")})[ ]*(?P<name>"[^"\\]*")[ ]*\{{""")
_ARGUMENT_LINE = re.compile(rf"""[ \t\r\n]* (?:
    (?P<named> (?P<word>data|warrant|backing|rebuttal|claim) {_NAMED} )
  | (?P<qualifier> qualifier [ ]*:[ ]* (?P<degree>{"|".join(
        w for w in QUALIFIER_WORDS if w != "custom")})\b )
  | (?P<uses> uses [ ]+ (?P<slot>{_ID}) [ ]* <- [ ]* argument [ ]*
        "(?P<source>[^"\\]*)" )
  | (?P<close> \}} ) )""", re.VERBOSE)
# Groups: id and text; turn, speaker, kind word and subject word.
_PROP_LINE = re.compile(rf'[ \t\r\n]*prop{_NAMED}', re.VERBOSE)
_MOVE_LINE = re.compile(
    rf"[ \t\r\n]*move[ ]+([0-9]{{1,9}})[ ]+({_ID})[ ]+({_ID})[ ]+({_ID})")


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


def _lex(source: str, pos: int) -> _Lexeme:
    """The token after offset `pos`, past whitespace and comments, or the
    end-of-input token; raises MarkupError with an exact span on an
    unterminated string, illegal escape or illegal character."""
    m = _TOKEN.match(source, pos)
    kind = m.lastgroup
    if kind is None:
        if m.end() == len(source):
            return ("eof", "<end of input>", len(source), 0)
        raise _lex_error(source, m.end(), m.end())
    start, end = m.span(kind)
    value = source[start:end]
    if kind == "word":
        if not (value[0].isalpha() or value[0] == "_"):
            raise _lex_error(source, start, end)
        kind = "keyword" if value in KEYWORDS else "ident"
    elif kind == "string":
        value = _ESCAPE.sub(r"\1", value[1:-1])
    elif kind == "badstring":
        raise _lex_error(source, start, end)
    return (kind, value, start, end - start)


def tokenize(source: str) -> list[_Lexeme]:
    """Lex the whole source into (kind, value, offset, length) tuples."""
    tokens = [_lex(source, 0)]
    while tokens[-1][0] != "eof":
        tokens.append(_lex(source, tokens[-1][2] + tokens[-1][3]))
    return tokens[:-1]


def _lex_error(source: str, start: int, end: int) -> MarkupError:
    """The error for the fault at `start`: a string whose match stops at
    `end`, on an illegal escape or at the end of input, or else an
    illegal character.  The text shown stops at the end of its line."""
    starts = _line_starts(source)
    if source[start] != '"':
        ch = source[start]
        return MarkupError([ParseError(
            _span(starts, start, 1), "token", ch,
            "numbers use ASCII digits" if ch.isdigit() else "illegal character")])
    if end < len(source):
        fault = source[start:end + 2]  # the escape may end the input
        return MarkupError([ParseError(
            _span(starts, start, len(fault)), "string",
            _ONE_LINE.match(fault)[0], "illegal escape sequence")])
    return MarkupError([ParseError(
        _span(starts, start, 1), "closing quote",
        _ONE_LINE.match(source, start, start + 20)[0], "unterminated string")])


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


class Document:
    """The parser fills a document in place.  Equality and repr leave
    out `argument_spans`, each argument block's keyword span by name."""
    __slots__ = ("graph", "dialogues", "proofs", "argument_spans")

    def __init__(self, graph: Optional[ArgumentGraph] = None,
                 dialogues: Optional[dict[str, DialogueDecl]] = None,
                 proofs: Optional[dict[str, ProofDecl]] = None,
                 argument_spans: Optional[dict[str, SourceSpan]] = None):
        self.graph = ArgumentGraph() if graph is None else graph
        self.dialogues = {} if dialogues is None else dialogues
        self.proofs = {} if proofs is None else proofs
        self.argument_spans = {} if argument_spans is None else argument_spans

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.graph, self.dialogues, self.proofs) == (
            other.graph, other.dialogues, other.proofs)

    def __repr__(self):
        return (f"Document(graph={self.graph!r}, "
                f"dialogues={self.dialogues!r}, proofs={self.proofs!r})")


class _Parser:
    """Lexes on demand: `end` is the offset past the last token or
    statement read, and `tok` the lookahead token, lexed when `peek` needs
    it.  A token's `tok[0]` is its kind and `tok[1]` its value.  `parse`
    reads every `prop` run or line and block head (one `_BLOCK_HEAD`
    match, or token by token), checks block names, and dispatches to the
    block parsers.  Where the token path meets a `move` or `prop` keyword,
    `read_moves` or `read_props` reads that line and the rest of its run
    whole, and `read_slots` reads the entries of an argument block from
    its head, or from the end of the last entry read token by token.  A
    run ends at the first line it cannot take: the token path reads that
    line, and reports any error in it."""

    def __init__(self, source: str):
        self.source = source
        self.end = 0
        self.tok: Optional[_Lexeme] = None
        # Built by the first error reported, if any.
        self.line_starts: Optional[list[int]] = None
        self.lines = self.counted = 0  # newlines before `counted` (blocks in order)
        self.errors: dict[SourceSpan, ParseError] = {}  # the first at each span
        self.doc = Document()
        # (slot id token, source_arg_name, target_arg_name)
        self.uses: list[tuple[_Lexeme, str, str]] = []
        # proposition id tokens to resolve after the full parse
        self.pending_refs: list[_Lexeme] = []
        # (proof keyword token, proof name, dialogue name) to resolve
        self.pending_proofs: list[tuple[_Lexeme, str, str]] = []

    def span(self, tok: _Lexeme) -> SourceSpan:
        if self.line_starts is None:
            self.line_starts = _line_starts(self.source)
        return _span(self.line_starts, tok[2], tok[3])

    def peek(self) -> _Lexeme:
        if self.tok is None:
            self.tok = _lex(self.source, self.end)
        return self.tok

    def next(self) -> _Lexeme:
        tok = self.peek()
        self.tok, self.end = None, tok[2] + tok[3]
        return tok

    def error(self, expected: str, tok: Optional[_Lexeme] = None,
              hint: Optional[str] = None, found: Optional[str] = None) -> None:
        """Report at `tok`, the lookahead by default, what it holds or `found`."""
        tok = tok or self.peek()
        span = self.span(tok)
        self.errors.setdefault(span, ParseError(
            span, expected, tok[1] if found is None else found, hint))

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

    def entry(self, expected: str, words: frozenset[str]) -> Optional[_Lexeme]:
        """The next entry keyword of a block body, or None past its `}`;
        any other token is reported and skipped, and the end of input as a
        missing `}`."""
        while (tok := self.next())[0] != "rbrace":
            if tok[0] == "keyword" and tok[1] in words:
                return tok
            if tok[0] == "eof":
                self.error("'}'", tok)
                return None
            self.error(expected, tok)
        return None

    def put(self, held: dict, key: str, kw: _Lexeme, value) -> None:
        """Put the value of the entry at keyword `kw` under `key`: a list
        gains it; a single value given twice is reported at `kw`."""
        have = held.get(key)
        if have is None:
            held[key] = value
        elif isinstance(have, list):
            have.append(value)
        else:
            self.error(f"one '{kw[1]}' entry" + (
                "" if key == kw[1] else f" for '{key}'"), kw, "repeated entry")

    def declare(self, ident: _Lexeme, text: str) -> str:
        """Declare the proposition `ident: "text"`; its id."""
        pid = ident[1]
        existing = self.doc.graph.propositions.get(pid)
        if existing is None:
            self.doc.graph.propositions[pid] = Proposition(pid, text)
        elif existing.text != text:
            self.error("fresh proposition id", ident,
                       "duplicate id with conflicting text")
        return pid

    def named_prop(self) -> Optional[str]:
        """Declare `id: "text"` token by token: its id, or None."""
        ident = self.expect("ident", "proposition id")
        if ident is None or not self.expect("colon"):
            return None
        text = self.expect("string", "proposition text")
        return None if text is None else self.declare(ident, text[1])

    # --- top level ---------------------------------------------------

    def parse(self) -> Document:
        if self.at_kw("version"):
            self.next()
            self.expect("int", "version number")
        declared = {"argument": self.doc.graph.arguments,
                    "dialogue": self.doc.dialogues, "proof": self.doc.proofs}
        while True:
            if self.tok is None and (
                    head := _BLOCK_HEAD.match(self.source, self.end)):
                self.end = head.end()
                what, quoted = head.group("block", "name")
                kw = ("keyword", what, head.start("block"), len(what))
                name = ("string", quoted[1:-1], head.start("name"), len(quoted))
            else:
                kind, what, pos, _ = self.peek()
                if kind == "eof":
                    break
                if kind != "keyword" or what not in _BLOCK_WORDS:
                    self.error("'prop', 'argument', 'dialogue' or 'proof'")
                    self.skip_block()
                    continue
                kw = self.next()
                if what == "prop":
                    if not self.read_props(pos) and self.named_prop() is None:
                        self.skip_block()
                    continue
                name = self.expect("string", f"{what} name")
                if name is None or not self.expect("lbrace"):
                    self.skip_block()
                    continue
            if name[1] in declared[what]:
                self.error(f"fresh {what} name", name, f"duplicate {what}")
            getattr(self, "parse_" + what)(kw, name)
        self.resolve_uses()
        self.resolve_refs()
        return self.doc

    def read_props(self, pos: int) -> bool:
        """Declare the run of `prop ID: "TEXT"` lines from `pos`, the offset
        of the `prop` just lexed, up to the first line `_PROP_LINE` or a
        keyword id turns away; whether the run held a line."""
        source, props, match, new, start = (
            self.source, self.doc.graph.propositions, _PROP_LINE.match,
            tuple.__new__, pos)
        while line := match(source, pos):
            pid, text = line.groups()
            if pid in KEYWORDS:
                break
            if pid in props:
                self.declare(("ident", pid, line.start(1), len(pid)), text)
            else:
                props[pid] = new(Proposition, (pid, text))
            pos = line.end()
        if pos == start:
            return False
        self.end = pos
        return True

    # --- argument blocks ---------------------------------------------

    def parse_argument(self, kw: _Lexeme, name_tok: _Lexeme) -> None:
        name = name_tok[1]
        slots: dict = {"data": [], "rebuttal": [], "warrant": None,
                       "backing": None, "claim": None, "qualifier": None}
        while not self.read_slots(slots, name):  # an entry, token by token
            entry = self.entry("argument slot keyword", _ARGUMENT_SLOTS)
            if entry is None:
                break
            word = entry[1]
            if word == "qualifier":
                if self.expect("colon") and (q := self.parse_qualifier()):
                    self.put(slots, word, entry, q)
            elif word == "uses":
                ident = self.expect("ident", "slot proposition id")
                if ident and self.expect("arrow") and self.expect_kw("argument"):
                    src = self.expect("string", "argument name")
                    if src:
                        self.uses.append((ident, src[1], name))
            elif (pid := self.named_prop()) is not None:
                self.put(slots, word, entry, pid)
        self.doc.graph.arguments[name] = ToulminArgument(
            name, tuple(slots["data"]), slots["warrant"], slots["claim"],
            slots["backing"], slots["qualifier"], tuple(slots["rebuttal"]))
        self.lines += self.source.count("\n", self.counted, kw[2])
        self.counted = kw[2]
        self.doc.argument_spans[name] = SourceSpan(
            self.lines + 1, kw[2] - self.source.rfind("\n", 0, kw[2]), *kw[2:])

    def read_slots(self, slots: dict, name: str) -> bool:
        """Read the run of argument entries at `end` into `slots` and `uses`,
        up to the first line `_ARGUMENT_LINE` or a keyword id turns away;
        whether the run ended with the block's `}`."""
        if self.tok is not None:
            return False
        source, props, match, keywords, new, pos = (
            self.source, self.doc.graph.propositions, _ARGUMENT_LINE.match,
            KEYWORDS, tuple.__new__, self.end)
        while line := match(source, pos):
            form = line.lastgroup
            if form == "named":
                word, pid, text = line.group(2, 3, 4)
                if pid in keywords:
                    break
                if (prop := props.get(pid)) is None:
                    props[pid] = new(Proposition, (pid, text))
                elif prop.text != text:
                    self.declare(("ident", pid, line.start("id"), len(pid)), text)
                value = pid
            elif form == "qualifier":
                word, value = form, Qualifier(QUALIFIER_WORDS[line["degree"]])
            elif form == "uses":
                if (slot := line["slot"]) in keywords:
                    break
                self.uses.append((("ident", slot, line.start("slot"), len(slot)),
                                  line["source"], name))
                pos = line.end()
                continue
            else:  # the block's `}`
                self.end = line.end()
                return True
            if (have := slots[word]) is None:
                slots[word] = value
            elif isinstance(have, list):
                have.append(value)
            else:  # a repeat, reported at its keyword
                self.put(slots, word, ("keyword", word, line.start(form), len(word)),
                         value)
            pos = line.end()
        self.end = pos
        return False

    def parse_qualifier(self) -> Optional[Qualifier]:
        kind = self.lookup(QUALIFIER_WORDS, "qualifier keyword")
        if kind is not QualifierKind.CUSTOM:
            return None if kind is None else Qualifier(kind)
        label = self.expect("string", "custom qualifier label")
        if label is None:
            return None
        if not label[1]:
            self.error("custom qualifier label", label,
                       "a custom label must be non-empty", '""')
            return None
        return Qualifier(kind, label[1])

    # --- dialogue blocks ---------------------------------------------

    def parse_dialogue(self, kw: _Lexeme, name_tok: _Lexeme) -> None:
        name = name_tok[1]

        single: dict = {}  # type, settlement
        order: list[str] = []
        seen: set[str] = set()  # the ids in `order`
        order_tok = name_tok
        stances: dict[str, tuple[_Lexeme, Stance]] = {}  # by participant id
        crucial: Optional[str] = None
        moves: list[Move] = []

        while entry := self.entry("dialogue entry keyword", _DIALOGUE_ENTRIES):
            word = entry[1]
            if word == "type":
                if self.expect("colon") and (t := self.lookup(
                        TYPE_WORDS, "dialogue type name")):
                    self.put(single, word, entry, t)
            elif word == "participants":
                order_tok = entry
                if self.expect("colon"):
                    for ident in self.ident_list("participant id"):
                        if ident[1] in seen:
                            self.error("fresh participant id", ident,
                                       "duplicate participant")
                        seen.add(ident[1])
                        order.append(ident[1])
            elif word == "stance":
                pid = self.expect("ident", "participant id")
                prop = self.expect("ident", "proposition id")
                if not (pid and prop and self.expect("colon")):
                    continue
                stance = self.lookup(STANCE_WORDS, "'true', 'false' or 'unknown'")
                if stance is None:
                    continue
                self.put(stances, pid[1], entry, (pid, stance))
                if crucial is not None and crucial != prop[1]:
                    self.error("the crucial proposition", prop,
                               "stance lines must share one proposition")
                else:
                    crucial = prop[1]
                    self.pending_refs.append(prop)
            elif word == "settlement":
                ident = self.expect("ident", "proposition id")
                if ident:
                    self.put(single, word, entry, ident[1])
                    self.pending_refs.append(ident)
            elif not self.read_moves(entry[2], moves):  # a move, token by token
                turn = self.expect("int", "turn number")
                speaker = self.expect("ident", "speaker id")
                kind = self.lookup(MOVE_WORDS, "move kind")
                if kind is None:
                    continue
                subject: Union[str, DialogueType, None] = None
                if kind is _DECLARE_SHIFT:
                    subject = self.lookup(TYPE_WORDS, "dialogue type name")
                elif (subj_tok := self.next())[0] == "ident":
                    subject = subj_tok[1]
                    self.pending_refs.append(subj_tok)
                else:
                    self.error("proposition id", subj_tok)
                if turn and speaker and subject is not None:
                    try:
                        moves.append(Move(int(turn[1]), speaker[1], kind, subject))
                    except ValueError:  # more digits than `int` reads
                        self.error("turn number", turn, "too long", turn[1][:20])

        if "type" not in single:
            self.error("'type' declaration in dialogue block", name_tok)
            return
        if crucial is None:
            self.error("at least one 'stance' line in dialogue block", name_tok)
            return
        if len(order) != 2:
            self.error("exactly two participants", order_tok,
                       "dialogues are two-party", str(len(order)))
        participants = tuple(
            Participant(pid, Role.PROVER if i == 0 else Role.INTERLOCUTOR,
                        stances[pid][1] if pid in stances else Stance.UNKNOWN)
            for i, pid in enumerate(order))
        for pid, _ in stances.values():
            if pid[1] not in seen:
                self.error("declared participant", pid,
                           f"stance for unknown participant '{pid[1]}'")
        self.doc.dialogues[name] = DialogueDecl(
            name, single["type"], participants, crucial,
            single.get("settlement"), tuple(moves))

    def read_moves(self, pos: int, moves: list[Move]) -> bool:
        """Append the run of `move` lines from `pos`, the offset of the `move`
        just lexed, up to the first line `_MOVE_LINE`, the word tables or a
        keyword speaker or subject turn away; whether the run held a line."""
        source, props, refs, start = (
            self.source, self.doc.graph.propositions, self.pending_refs, pos)
        match, kinds, types, keywords, shift, new = (
            _MOVE_LINE.match, MOVE_WORDS.get, TYPE_WORDS.get, KEYWORDS,
            _DECLARE_SHIFT, tuple.__new__)
        while line := match(source, pos):
            turn, speaker, word, subject = line.groups()
            if (kind := kinds(word)) is None or speaker in keywords:
                break
            if kind is shift:
                if (subject := types(subject)) is None:
                    break
            elif subject in keywords:
                break
            elif subject not in props:  # check it later
                refs.append(("ident", subject, line.start(4), len(subject)))
            moves.append(new(Move, (int(turn), speaker, kind, subject)))
            pos = line.end()
        if pos == start:
            return False
        self.end = pos
        return True

    # --- proof blocks ------------------------------------------------

    def parse_proof(self, kw: _Lexeme, name_tok: _Lexeme) -> None:
        name = name_tok[1]
        names: list[str] = []
        if self.expect_kw("dialogues") and self.expect("colon"):
            names = [ident[1] for ident in self.ident_list("dialogue name")]
        self.expect("rbrace")
        self.doc.proofs[name] = ProofDecl(name, tuple(names))
        self.pending_proofs += [(kw, name, n) for n in names]

    # --- resolution --------------------------------------------------

    def resolve_uses(self) -> None:
        graph = self.doc.graph
        links: set[Link] = set()
        for ident, src, target in self.uses:
            slot_id = ident[1]
            if src not in graph.arguments:
                self.error("declared argument", ident, "unknown source argument", src)
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
            self.error("acyclic support links", self.uses[-1][0],
                       "support cycle between arguments", "uses")

    def resolve_refs(self) -> None:
        for tok in self.pending_refs:
            if tok[1] not in self.doc.graph.propositions:
                self.error("declared proposition", tok, "dangling reference")
        for kw, name, n in self.pending_proofs:
            if n not in self.doc.dialogues:
                self.error("declared dialogue name", kw,
                           f"proof '{name}' references unknown dialogue '{n}'")


def parse_document(source: str) -> Document:
    """Parse markup text; raises MarkupError listing every recoverable
    error, the first one earliest in the source.  A span holds at most
    one error, the first one found there.  A lexer fault ends the list."""
    parser = _Parser(source)
    try:
        doc = parser.parse()
    except MarkupError as fault:  # a lexer fault ends the parse unresolved
        parser.errors |= {err.span: err for err in fault.errors}
    if parser.errors:
        raise MarkupError(sorted(parser.errors.values(),
                                 key=lambda e: e.span.offset))
    return doc


# --- serialization ----------------------------------------------------

def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def serialize(doc: Document) -> str:
    """Canonical text for a document: slot order data, warrant, backing,
    qualifier, rebuttals, claim; two-space indent; LF line endings;
    blocks sorted by name.  parse(serialize(doc)) == doc structurally."""
    graph = doc.graph
    in_slots = {pid for arg in graph.arguments.values() for pid in (
        *arg.data, *arg.rebuttals, arg.warrant, arg.claim, arg.backing)}
    lines = [f"prop {pid}: {_quote(graph.propositions[pid].text)}"
             for pid in sorted(graph.propositions) if pid not in in_slots]

    def block(head: str) -> None:
        if lines:
            lines.append("")
        lines.append(head + " {")

    def named(word: str, pids) -> None:
        lines.extend(f"  {word} {pid}: {_quote(graph.propositions[pid].text)}"
                     for pid in pids if pid is not None)

    uses: dict[str, list[Link]] = {}
    for link in graph.links:  # kept sorted
        uses.setdefault(link.target, []).append(link)

    for aid in sorted(graph.arguments):
        arg = graph.arguments[aid]
        block(f"argument {_quote(aid)}")
        named("data", arg.data)
        named("warrant", (arg.warrant,))
        named("backing", (arg.backing,))
        if arg.qualifier is not None:
            kind = arg.qualifier.kind
            lines.append(f"  qualifier: {kind.value}" + (
                f" {_quote(arg.qualifier.label)}"
                if kind is QualifierKind.CUSTOM else ""))
        named("rebuttal", arg.rebuttals)
        named("claim", (arg.claim,))
        for link in uses.get(aid, ()):
            slot = graph.arguments[link.source].claim
            lines.append(f"  uses {slot} <- argument {_quote(link.source)}")
        lines.append("}")

    for dname in sorted(doc.dialogues):
        d = doc.dialogues[dname]
        block(f"dialogue {_quote(dname)}")
        lines.append(f"  type: {d.declared_type.value}")
        lines.append("  participants: " + ", ".join(p.id for p in d.participants))
        lines += [f"  stance {p.id} {d.crucial}: {p.initial_stance.value}"
                  for p in d.participants]
        if d.settlement is not None:
            lines.append(f"  settlement {d.settlement}")
        lines += [f"  move {m.turn} {m.speaker} {m.kind.value} "
                  f"{getattr(m.subject, 'value', m.subject)}" for m in d.moves]
        lines.append("}")

    for pname in sorted(doc.proofs):
        block(f"proof {_quote(pname)}")
        lines += ["  dialogues: " + ", ".join(doc.proofs[pname].dialogues), "}"]

    return "\n".join(lines) + ("\n" if lines else "")
