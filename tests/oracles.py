"""Reference implementations kept for differential tests.

These are the straightforward versions that `prooftalk` replaced with
linear-time ones.  They define the expected answers: the library
functions must agree with them on every input the tests generate.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from prooftalk.engine import ANSWER_WINDOW, DialogueState, MoveKind
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
