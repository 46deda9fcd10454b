"""Toulmin-style argument layouts.

An argument carries data, a warrant and a claim (all required), plus
optional backing, a modal qualifier and rebuttal conditions.  Arguments
chain into an acyclic graph when one argument's claim serves as a datum
or as backing for another.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import NamedTuple, Optional


class Proposition(NamedTuple):
    id: str
    text: str


class QualifierKind(str, Enum):
    NECESSARILY = "necessarily"
    ALMOST_CERTAINLY = "almost_certainly"
    PROBABLY = "probably"
    PRESUMABLY = "presumably"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Qualifier:
    kind: QualifierKind
    label: Optional[str] = None

    def __post_init__(self):
        if self.kind is QualifierKind.CUSTOM:
            if not self.label:
                raise ValueError("custom qualifier requires a label")
        elif self.label is None:  # almost_certainly reads "almost certainly"
            object.__setattr__(self, "label",
                               self.kind.value.replace("_", " "))


class ToulminArgument(NamedTuple):
    id: str
    data: tuple[str, ...]
    warrant: Optional[str]
    claim: Optional[str]
    backing: Optional[str] = None
    qualifier: Optional[Qualifier] = None
    rebuttals: tuple[str, ...] = ()


class LinkRole(str, Enum):
    DATUM = "datum"
    BACKING = "backing"


class Link(NamedTuple):
    source: str
    target: str
    role: LinkRole


_LINK_SOURCE = attrgetter("source")


@dataclass
class ArgumentGraph:
    """Links are kept sorted: construction sorts them, and `add_link`
    inserts each new one in order."""
    propositions: dict[str, Proposition] = field(default_factory=dict)
    arguments: dict[str, ToulminArgument] = field(default_factory=dict)
    links: tuple[Link, ...] = ()

    def __post_init__(self) -> None:
        self.links = tuple(sorted(self.links))


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


class Diagnostic(NamedTuple):
    rule: str
    slot: str
    severity: Severity
    message: str
    argument: Optional[str] = None  # the argument at fault; None graph-wide


class CycleError(Exception):
    """Adding the link would let an argument transitively support itself."""


class SlotMismatch(Exception):
    """The source argument's claim does not occupy the named slot in the target."""


def validate_argument(arg: ToulminArgument, graph: ArgumentGraph) -> list[Diagnostic]:
    """Structural checks for one argument; diagnostics, never exceptions."""
    out: list[Diagnostic] = []

    def err(rule, slot, message):
        out.append(Diagnostic(rule, slot, Severity.ERROR, message, arg.id))

    if not arg.data:
        err("missing-data", "data", f"argument '{arg.id}' has no data")
    if arg.warrant is None:
        err("missing-warrant", "warrant", f"argument '{arg.id}' has no warrant")
    if arg.claim is None:
        err("missing-claim", "claim", f"argument '{arg.id}' has no claim")

    refs = [("data", d) for d in arg.data]
    if arg.warrant is not None:
        refs.append(("warrant", arg.warrant))
    if arg.claim is not None:
        refs.append(("claim", arg.claim))
    if arg.backing is not None:
        refs.append(("backing", arg.backing))
    refs.extend(("rebuttal", r) for r in arg.rebuttals)
    for slot, ref in refs:
        if ref not in graph.propositions:
            err("unresolved-reference", slot,
                f"argument '{arg.id}' {slot} refers to unknown proposition '{ref}'")

    if arg.claim is not None and arg.claim in arg.data:
        err("claim-coincides-with-datum", "claim",
            f"argument '{arg.id}' uses '{arg.claim}' as both claim and datum")

    if (arg.qualifier is not None
            and arg.qualifier.kind is QualifierKind.NECESSARILY
            and arg.rebuttals):
        out.append(Diagnostic(
            "necessarily-with-rebuttals", "rebuttals", Severity.WARNING,
            f"argument '{arg.id}' claims necessity yet lists rebuttals; "
            "exceptions may only exist outside the declared field", arg.id))
    return out


def validate_graph(graph: ArgumentGraph) -> list[Diagnostic]:
    """Validate every argument plus the cross-argument link structure."""
    out: list[Diagnostic] = []
    for arg_id in sorted(graph.arguments):
        out.extend(validate_argument(graph.arguments[arg_id], graph))
    for link in graph.links:
        if link.source not in graph.arguments or link.target not in graph.arguments:
            out.append(Diagnostic(
                "unresolved-link", "links", Severity.ERROR,
                f"link {link.source}->{link.target} references a missing argument"))
            continue
        if not _claim_in_slot(graph, link):
            out.append(Diagnostic(
                "link-slot-mismatch", link.role.value, Severity.ERROR,
                f"claim of '{link.source}' does not occupy the {link.role.value} "
                f"slot of '{link.target}'", link.target))
    if _has_cycle(graph.links):
        out.append(Diagnostic(
            "support-cycle", "links", Severity.ERROR,
            "link relation contains a support cycle"))
    return out


def _claim_in_slot(graph: ArgumentGraph, link: Link) -> bool:
    claim = graph.arguments[link.source].claim
    target = graph.arguments[link.target]
    if link.role is LinkRole.DATUM:
        return claim is not None and claim in target.data
    return claim is not None and claim == target.backing


def _has_cycle(links: tuple[Link, ...]) -> bool:
    """Whether the links contain a directed cycle (a self-link counts).

    Kahn's algorithm in O(V + E): repeatedly peel off arguments that no
    remaining link points to; whatever cannot be peeled lies on a cycle.
    """
    successors: dict[str, list[str]] = {}
    indegree: dict[str, int] = {}
    for link in links:
        successors.setdefault(link.source, []).append(link.target)
        indegree.setdefault(link.source, 0)
        indegree[link.target] = indegree.get(link.target, 0) + 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    peeled = 0
    while ready:
        peeled += 1
        for succ in successors.get(ready.pop(), ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    return peeled < len(indegree)


def _reaches(links: tuple[Link, ...], start: str, goal: str) -> bool:
    """Whether `goal` can be reached from `start` along links sorted by
    source; each visited argument finds its outgoing links by bisection."""
    stack, seen = [start], {start}
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        lo = bisect_left(links, node, key=_LINK_SOURCE)
        hi = bisect_right(links, node, lo, key=_LINK_SOURCE)
        for link in links[lo:hi]:
            if link.target not in seen:
                seen.add(link.target)
                stack.append(link.target)
    return False


def add_link(graph: ArgumentGraph, source: str, target: str,
             role: LinkRole) -> ArgumentGraph:
    """Return a new graph with the support link added.

    Raises SlotMismatch when the source's claim is not the target's datum
    or backing as named, and CycleError when the link would close a cycle,
    that is when `target` already reaches `source` (or they are the same
    argument).  Only cycles through the new link are looked for: on a
    caller-built graph whose links already contain a cycle, which neither
    `parse_document` nor `add_link` produces, a link that closes no new
    cycle is added; `validate_graph` reports the existing cycle.
    """
    if source not in graph.arguments:
        raise KeyError(f"unknown argument '{source}'")
    if target not in graph.arguments:
        raise KeyError(f"unknown argument '{target}'")
    link = Link(source, target, role)
    if not _claim_in_slot(graph, link):
        raise SlotMismatch(
            f"claim of '{source}' does not occupy the {role.value} slot of '{target}'")
    at = bisect_right(graph.links, link)
    new_links = graph.links[:at] + (link,) + graph.links[at:]
    if _reaches(new_links, target, source):
        raise CycleError(f"link {source}->{target} would close a support cycle")
    new = ArgumentGraph(graph.propositions, graph.arguments)
    new.links = new_links  # already sorted
    return new


def render_reading(arg: ToulminArgument, graph: ArgumentGraph) -> str:
    """Canonical one-sentence reading of a valid argument.

    Shape: "Given D, we can (modulo the qualifier) claim C, since W
    (on account of B), unless R", with absent slots elided.
    """
    errors = [d for d in validate_argument(arg, graph)
              if d.severity is Severity.ERROR]
    if errors:
        raise ValueError(
            f"argument '{arg.id}' is invalid: {errors[0].message}")

    def text(pid: str) -> str:
        return graph.propositions[pid].text

    given = ", and ".join(text(d) for d in arg.data)
    modal = f" {arg.qualifier.label}" if arg.qualifier is not None else ""
    sentence = f"Given {given}, we can{modal} claim {text(arg.claim)}, since {text(arg.warrant)}"
    if arg.backing is not None:
        sentence += f" (on account of {text(arg.backing)})"
    if arg.rebuttals:
        sentence += ", unless " + ", or ".join(text(r) for r in arg.rebuttals)
    return sentence


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def export_dot(graph: ArgumentGraph) -> str:
    """Deterministic DOT rendering of the argument graph.

    One box node per proposition; per argument a qualifier junction node
    through which data flow to the claim, with the warrant attached to
    that flow, backing feeding the warrant, and rebuttals hanging off the
    qualifier.  Output is byte-stable: everything sorted by id.
    """
    errors = [d for d in validate_graph(graph) if d.severity is Severity.ERROR]
    if errors:
        raise ValueError(f"invalid argument graph: {errors[0].message}")

    lines = ["digraph toulmin {"]
    for pid in sorted(graph.propositions):
        prop = graph.propositions[pid]
        lines.append(
            f'  "p_{pid}" [shape=box, label="{_dot_escape(pid + ": " + prop.text)}"];')
    for aid in sorted(graph.arguments):
        arg = graph.arguments[aid]
        qnode = f"q_{aid}"
        qlabel = arg.qualifier.label if arg.qualifier is not None else "so"
        lines.append(f'  subgraph "cluster_{aid}" {{')
        lines.append(f'    label="{_dot_escape(aid)}";')
        lines.append(f'    "{qnode}" [shape=plaintext, label="{_dot_escape(qlabel)}"];')
        lines.append("  }")
        for d in arg.data:
            lines.append(f'  "p_{d}" -> "{qnode}";')
        if arg.claim is not None:
            lines.append(f'  "{qnode}" -> "p_{arg.claim}";')
        if arg.warrant is not None:
            lines.append(f'  "p_{arg.warrant}" -> "{qnode}" [style=dashed];')
        if arg.backing is not None and arg.warrant is not None:
            lines.append(f'  "p_{arg.backing}" -> "p_{arg.warrant}";')
        for r in arg.rebuttals:
            lines.append(f'  "p_{r}" -> "{qnode}" [style=dotted, label="unless"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
