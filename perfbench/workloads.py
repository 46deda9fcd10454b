"""The three workloads: the documents of one round, the commands applied
to each, and the expectations each command's output is checked against.

A round holds the same documents, in the same order, every time it is
run, so every run attempts whole rounds of the same operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import checks
import corpus
import dialogues
import graphs

# (transcript length, plants) per step of the long_dialogues ladder.
# Shorter documents are the more common, and the median document falls
# inside the 2k step rather than between two steps.  An 8k document is
# one `analyze` call of about 2 s: with it a 40 s run held about ten
# rounds, and the fastest of ten such calls moved with the machine's
# slow spells, so the ladder stops at 4k.
DIALOGUE_MIX = ((1000, dialogues.PLANTS), (2000, dialogues.PLANTS),
                (4000, ("clean",)))
# (argument count, shapes) per step of the argument_graphs ladder.  The
# cubic add_link rebuild of a 400-argument chain alone takes 2-4 s: with
# it a 40 s run held about five rounds, too few samples of each step to
# find its fastest time, so the ladder stops at 200.
GRAPH_MIX = ((50, ("chain", "dag", "chain", "dag")),
             (100, ("chain", "dag", "chain", "dag")),
             (200, ("chain", "dag")))


@dataclass
class Doc:
    name: str
    path: str
    size: int                       # source bytes
    commands: list                  # (command name, argv for cli.main)
    expected: dict                  # command name -> expectation
    timed: bool = True              # False for the malformed inputs
    step: int = 0                   # ladder step (moves or arguments)
    ladder: bool = False            # one per step and round: the _x2 ratios
    dialogues: int = 0
    model: dict = field(default_factory=dict)  # argument_graphs: generator model


@dataclass
class Workload:
    docs: list
    cli: list                       # (doc, command, argv) run as CLI processes
    cli_per_round: int              # CLI processes after each round
    warmup: list                    # argv lists run once before timing
    schedule: list                  # indices into docs: one round


def _small_twice(docs, largest_small):
    """One round: every document, and those of at most `largest_small`
    (arguments or moves) once more.  The median document is among them:
    more samples bring each of its steps' fastest runs closer to the
    time it takes on a quiet machine."""
    return [*range(len(docs)),
            *(i for i, d in enumerate(docs) if d.step <= largest_small)]


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8", newline="\n")
    return str(path)


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    return {"corpus": _corpus, "long_dialogues": _long_dialogues,
            "argument_graphs": _argument_graphs}[name](seed, root, workdir)


def _corpus(seed, root, workdir):
    fixtures = root / "src" / "prooftalk" / "fixtures"
    order = list(corpus.FIXTURES)
    random.Random(seed).shuffle(order)
    docs = []
    for fname in order:
        text = (fixtures / fname).read_text(encoding="utf-8")
        path = _write(workdir, fname, text)
        commands, expected = [], {}
        if fname in corpus.ANALYZE:
            commands.append(("analyze", ["analyze", path]))
            expected["analyze"] = corpus.ANALYZE[fname]
        commands.append(("validate", ["validate", path]))
        expected["validate"] = set()
        arg = corpus.ARGUMENTS.get(fname)
        if arg:
            commands.append(("diagram", ["diagram", path]))
            props = [arg["warrant"], arg["backing"], arg["claim"],
                     *arg["data"], *arg["rebuttals"]]
            expected["diagram"] = checks.expected_dot([arg], props)
        commands.append(("classify",
                         ["classify", path, "--format", "json"]))
        expected["classify"] = corpus.CLASSIFY.get(fname, {})
        docs.append(Doc(fname, path, len(text.encode()), commands, expected,
                        dialogues=len(corpus.CLASSIFY.get(fname, {}))))
    for fname, text in corpus.MALFORMED.items():
        path = _write(workdir, fname, text)
        commands = [("analyze", ["analyze", path]),
                    ("validate", ["validate", path]),
                    ("classify", ["classify", path, "--format", "json"])]
        docs.append(Doc(fname, path, len(text.encode()), commands, {},
                        timed=False))
    timed = [d for d in docs if d.timed]
    cli = [(d, c, argv) for d in timed for c, argv in d.commands]
    warmup = [argv for d in timed
              if d.name in ("harry.arg", "wiles_attempt.arg")
              for _, argv in d.commands]
    return Workload(docs, cli, 1, warmup, list(range(len(docs))))


def _long_dialogues(seed, root, workdir):
    docs = []
    for moves, plants in DIALOGUE_MIX:
        for plant in plants:
            name = f"dialogue_{moves}_{plant}.arg"
            text, want = dialogues.make_document(
                f"{seed}:{moves}:{plant}", moves, plant)
            path = _write(workdir, name, text)
            docs.append(Doc(name, path, len(text.encode()),
                            [("analyze", ["analyze", path])],
                            {"analyze": want}, step=moves,
                            ladder=plant == "clean", dialogues=2))
    median_doc = next(d for d in docs if d.step == 2000 and d.ladder)
    smallest = next(d for d in docs if d.ladder)
    return Workload(docs, [(median_doc, *median_doc.commands[0])], 3,
                    [smallest.commands[0][1]], _small_twice(docs, 2000))


def _argument_graphs(seed, root, workdir):
    docs = []
    for n_args, shapes in GRAPH_MIX:
        for i, shape in enumerate(shapes):
            name = f"graph_{n_args}_{shape}_{i}.arg"
            text, model = graphs.make_document(
                f"{seed}:{n_args}:{shape}:{i}", n_args, shape)
            path = _write(workdir, name, text)
            docs.append(Doc(
                name, path, len(text.encode()),
                [("validate", ["validate", path]),
                 ("diagram", ["diagram", path])],
                {"validate": model["findings"],
                 "diagram": checks.expected_dot(model["args"],
                                                model["texts"]),
                 "rebuild": model["links"]},
                step=n_args, ladder=shape == "chain" and i == 0,
                model=model))
    median_doc = next(d for d in docs if d.step == 100)
    smallest = docs[0]
    cli = [(median_doc, c, argv) for c, argv in median_doc.commands]
    return Workload(docs, cli, 4, [argv for _, argv in smallest.commands],
                    _small_twice(docs, 100))
