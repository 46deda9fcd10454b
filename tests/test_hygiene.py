"""Source hygiene, read from the syntax tree of each module: no unused
imports, and the layering the analysis pipeline relies on (the engine
does not reach up into shift analysis; the CLI goes through the
pipeline rather than the layers beneath it), and the CLI is the one
module that writes JSON.  The move check returns the rule a move breaks,
so `apply_move` is the one place that raises it as `ProtocolViolation`.
Also: README's command synopses name exactly the options the CLI parser
takes, and plain records are named tuples, with a dataclass kept only
where a record checks or derives a field or the parser mutates it."""

import argparse
import ast
import re
from pathlib import Path

import pytest

from prooftalk.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prooftalk"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def tree_of(name):
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def imported_modules(tree):
    """Every sibling module an import anywhere in the tree names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("prooftalk")
            module = module.lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:  # from . import engine
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "prooftalk" and len(parts) > 1:
                    found.add(parts[1])
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in bound.items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_engine_imports_nothing_from_shifts():
    assert "shifts" not in imported_modules(tree_of("engine.py"))


def test_cli_imports_neither_engine_nor_shifts():
    assert not {"engine", "shifts"} & imported_modules(tree_of("cli.py"))


def test_only_the_cli_imports_json():
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(tree_of(path.name)):
            if (isinstance(node, ast.Import)
                    and any(a.name == "json" for a in node.names)
                    or isinstance(node, ast.ImportFrom)
                    and node.module == "json"):
                importers.add(path.name)
    assert importers == {"cli.py"}


def names(node, name):
    return any(isinstance(n, ast.Name) and n.id == name
               for n in ast.walk(node))


def test_only_apply_move_raises_protocol_violation_and_none_catches_it():
    naming, catching = set(), set()
    for path in MODULES:
        for node in ast.walk(tree_of(path.name)):
            if (isinstance(node, ast.FunctionDef)
                    and names(node, "ProtocolViolation")):
                naming.add(f"{path.stem}.{node.name}")
            elif (isinstance(node, ast.ExceptHandler) and node.type
                    and names(node.type, "ProtocolViolation")):
                catching.add(f"{path.stem}:{node.lineno}")
    assert naming == {"engine.apply_move"}
    assert catching == set()


def readme_synopses():
    """Subcommand -> the options its line in README's Commands block names."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Commands:\n\n```sh\n(.*?)```", readme, re.S).group(1)
    synopses = {}
    for line in block.splitlines():
        synopsis = line.split("#")[0]
        synopses[synopsis.split()[1]] = set(
            re.findall(r"--[a-z][a-z-]*", synopsis))
    return synopses


def parser_options():
    """Subcommand -> the options its parser takes, --help aside."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
            for name, p in sub.choices.items()}


def test_readme_commands_name_every_parser_option():
    assert readme_synopses() == parser_options()


def decorated_dataclasses():
    """Every class in the package under `@dataclass` or
    `@dataclasses.dataclass`, called or not."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(tree_of(path.name)):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(n, "id", getattr(n, "attr", None)) == "dataclass"
                    for d in node.decorator_list for n in ast.walk(d)):
                found.add(node.name)
    return found


def test_dataclasses_are_only_the_checked_or_mutated_records():
    # Qualifier and InitialSituation check their fields, DialogueState
    # derives current_type, and the parser fills ArgumentGraph and
    # Document in place.
    assert decorated_dataclasses() == {
        "Qualifier", "InitialSituation", "DialogueState",
        "ArgumentGraph", "Document"}
