"""Source hygiene, read from the syntax tree of each module: no unused
imports, and the layering the analysis pipeline relies on (the engine
does not reach up into shift analysis; the CLI goes through the
pipeline rather than the layers beneath it, and reads no field of the
reports it writes), and the CLI is the one module that writes JSON.
The move check returns the rule a move breaks, so `apply_move` is the
one place that raises it as `ProtocolViolation`.
Also: README's command synopses name exactly the options the CLI parser
takes; no module imports `dataclasses` (plain and checked records are
named tuples, and the records the parser fills are plain classes), and
importing the CLI in a fresh interpreter loads neither `dataclasses` nor
`inspect`; every public module-level name has a caller (in the package,
the acceptance tests or a named file outside the package), and no compiled
pattern needs a newer Python than the one pyproject.toml declares.  Each
kind of finding has one constructor: the parser builds a `ParseError` only
where it reports one, a lexer fault included, and each validator builds
its `Diagnostic`s in one helper.  The code
that runs once per move (the move check, and the loops of the replay
fold, the answer-window scan and the segmentation) loads no enum member
from its class and builds no generator: no test times the replay, so
this is what keeps that per-move cost from coming back unnoticed.  The
parser defines no generator function either.  The layering holds at
run time too: the package root is its docstring alone, so a module
imported alone in a fresh interpreter loads only the modules its own
imports reach; and the imports of the traced benchmark run load every
layer it wraps."""

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
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


def test_package_root_is_its_docstring_alone():
    (stmt,) = tree_of("__init__.py").body
    assert isinstance(stmt, ast.Expr) and isinstance(stmt.value.value, str)


def reached_modules(name):
    """The module and every sibling its module-level imports reach,
    transitively; an import deferred into a function or an `if` block
    does not load at import time, so it is not followed."""
    siblings = {path.stem for path in MODULES}
    reached, todo = set(), [name]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            for node in tree_of(f"{module}.py").body:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    todo += imported_modules(node) & siblings
    return reached


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_importing_a_module_loads_only_what_its_imports_reach(path):
    # A fresh interpreter, so the layering holds at run time and not only
    # in the syntax tree: no module loads a layer it does not import.
    loaded = "[n for n in sys.modules if n.partition('.')[0] == 'prooftalk']"
    script = f"import sys, prooftalk.{path.stem}\nprint(*{loaded})"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert set(out.split()) == {"prooftalk"} | {
        f"prooftalk.{m}" for m in reached_modules(path.stem)}


def test_engine_imports_nothing_from_shifts():
    assert "shifts" not in imported_modules(tree_of("engine.py"))


def test_cli_imports_neither_engine_nor_shifts():
    assert not {"engine", "shifts"} & imported_modules(tree_of("cli.py"))


def test_cli_reads_no_report_field():
    # `analysis` renders every output from the dialogue outcomes, so the
    # CLI indexes no report by a field name.
    fields = [node.lineno for node in ast.walk(tree_of("cli.py"))
              if isinstance(node, ast.Subscript)
              and isinstance(node.slice, ast.Constant)
              and isinstance(node.slice.value, str)]
    assert fields == []


def importers_of(stdlib):
    """The package files with an import, anywhere in the tree, of the
    module `stdlib` or one of its submodules."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(tree_of(path.name)):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.partition(".")[0] == stdlib for m in modules):
                found.add(path.name)
    return found


def test_only_the_cli_imports_json():
    assert importers_of("json") == importers_of("_json") == {"cli.py"}


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


# Functions that run once per move or loop over the moves, by module;
# markup's run readers loop over statement lines.
PER_MOVE = {"engine.py": {"_check_move", "_fold", "_unanswered_challenge"},
            "markup.py": {"read_moves", "read_props", "read_slots"},
            "shifts.py": {"segment_moves"}}
ENUMS = {"MoveKind", "Polarity", "Phase"}
# Bare named tuples, which per-move code builds with `tuple.__new__`
# rather than through their generated `__new__`.
BARE_RECORDS = {"Move", "Proposition"}


@pytest.mark.parametrize("module", sorted(PER_MOVE))
def test_per_move_code_loads_no_enum_member_and_builds_no_generator(module):
    found = set()
    for node in ast.walk(tree_of(module)):
        if isinstance(node, ast.FunctionDef) and node.name in PER_MOVE[module]:
            found.add(node.name)
            for n in ast.walk(node):
                member = (isinstance(n, ast.Attribute)
                          and isinstance(n.value, ast.Name)
                          and n.value.id in ENUMS)
                assert not member, \
                    f"{node.name}:{n.lineno} loads {n.value.id}.{n.attr}"
                assert not isinstance(n, ast.GeneratorExp), \
                    f"{node.name}:{n.lineno} builds a generator"
                built = (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                         and n.func.id in BARE_RECORDS)
                assert not built, f"{node.name}:{n.lineno} calls {n.func.id}"
    assert found == PER_MOVE[module]


def test_parser_defines_no_generator():
    # A generator step on the statement path cost the parser measurably;
    # its block bodies share one plain entry step instead.
    generators = {node.name for node in ast.walk(tree_of("markup.py"))
                  if isinstance(node, ast.FunctionDef) and any(
                      isinstance(n, (ast.Yield, ast.YieldFrom))
                      for n in ast.walk(node))}
    assert generators == set()


def builders_of(record):
    """`module.function` for each call of `record` in the package, the
    function named through its enclosing classes and functions."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == record):
                found.add(where)
            visit(child, where)

    for path in MODULES:
        visit(tree_of(path.name), path.stem)
    return found


def test_one_constructor_per_finding():
    # A parse error is built where it is reported, which keeps the first
    # at each span, a lexer fault's too; each validator builds its
    # diagnostics in one helper.
    assert builders_of("ParseError") == {"markup._Parser.error"}
    assert builders_of("Diagnostic") == {"model.validate_argument.err",
                                         "model.validate_graph.err"}


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


def test_no_module_imports_dataclasses():
    # A record that checks or derives a field is a named tuple with a
    # checking `__new__`; one the parser fills is a plain class.
    assert importers_of("dataclasses") == set()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Each costs start-up time on every command.  -S, so that no site
    # .pth file loads them first.
    script = "import sys, prooftalk.cli\nprint(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert not {"dataclasses", "inspect"} & set(out.split())


def test_the_traced_benchmark_run_finds_every_layer_loaded():
    # The traced run of perfbench/run.py imports what its `_load_prooftalk`
    # imports, then wraps each layer function in its loaded module: a
    # layer that those imports stop loading fails here too.
    script = ("import prooftalk.cli, prooftalk.model, spans\n"
              "tracer = spans.Tracer()\ntracer.install()\ntracer.uninstall()")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


# Public names with no caller in the package or the acceptance tests,
# each with the file outside the package that calls it.
UNCALLED_PUBLIC = {
    "markup.tokenize": "perfbench/spans.py",  # traced as its own layer
    "model.add_link": "perfbench/run.py",  # the argument_graphs rebuild
}


@pytest.mark.parametrize("name, caller", sorted(UNCALLED_PUBLIC.items()))
def test_uncalled_public_name_is_called_from_its_file(name, caller):
    text = (ROOT / caller).read_text(encoding="utf-8")
    assert re.search(rf"\b{re.escape(name)}\b", text), f"{caller}: {name}"


def defined_names(stmt):
    """The public names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        found = {stmt.name}
    elif isinstance(stmt, ast.Assign):
        found = {n.id for t in stmt.targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)}
    elif isinstance(stmt, ast.AnnAssign):
        found = {stmt.target.id}
    else:
        found = set()
    return {name for name in found if not name.startswith("_")}


def read_names(stmt):
    """Every name and attribute the statement reads."""
    return ({n.id for n in ast.walk(stmt)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)})


def test_public_names_have_a_caller():
    defined, read = set(), set()
    for path in MODULES:
        for stmt in tree_of(path.name).body:
            names = defined_names(stmt)
            defined |= {(path.stem, name) for name in names}
            read |= read_names(stmt) - names
    acceptance = ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    read |= {alias.name for node in ast.walk(acceptance)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").startswith("prooftalk")
             for alias in node.names}
    uncalled = {f"{module}.{name}" for module, name in defined
                if name not in read}
    assert uncalled == set(UNCALLED_PUBLIC)


# Possessive quantifiers and atomic groups are new in Python 3.11's `re`;
# pyproject.toml declares Python 3.10.
_PYTHON_3_11_SYNTAX = re.compile(r"[*+?}]\+|\(\?>")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_patterns_compile_on_python_3_10(path):
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    module = importlib.import_module(f"prooftalk.{path.stem}")
    for name, value in vars(module).items():
        if isinstance(value, re.Pattern):
            text = re.sub(r"\\.", "_", value.pattern)  # escaped characters
            if value.flags & re.VERBOSE:
                text = re.sub(r"\s", "", text)
            assert not _PYTHON_3_11_SYNTAX.search(text), name
