#!/usr/bin/env python3
"""End-to-end benchmark of prooftalk.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the repository root.  Generates the workload's `.arg` inputs
from the seed, times every command the workload applies to each
document through `prooftalk.cli.main` in this process (one document at
a time), checks every output, then times `python -m prooftalk.cli`
processes.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics,
or with `--trace 1` the per-layer metrics of a separate traced run.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("corpus", "long_dialogues", "argument_graphs")
SETUP_REPEATS = 9
IMPORT_PROBES = 7

# Runs in a fresh interpreter: the import of prooftalk and a warm-up
# pass, timed from inside so that interpreter start-up is left out.
_SETUP_PROBE = """\
import contextlib, io, json, sys, time
start = time.perf_counter()
import prooftalk.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        prooftalk.cli.main(argv)
print(repr(time.perf_counter() - start))
"""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _load_prooftalk():
    if not (SRC / "prooftalk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no prooftalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import prooftalk.cli
    import prooftalk.model
    if SRC.resolve() not in Path(prooftalk.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported prooftalk from "
                         f"{prooftalk.__file__}, not from {SRC}")
    return prooftalk


def set_up(name, seed, workdir, pt):
    """Generate and write the inputs, then import and warm up prooftalk
    in a fresh process; repeated, and the median time reported."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        load = workloads.build(name, seed, ROOT, workdir)
        for doc in load.docs:
            if doc.model:
                _prepare_rebuild(doc.model, pt.model)
        generated = time.perf_counter() - start
        probe = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, json.dumps(load.warmup)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            check=False)
        if probe.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{probe.stderr}")
        times.append(generated + float(probe.stdout.split()[-1]))
    return load, statistics.median(times)


def _prepare_rebuild(model, m):
    """The link-free graph that the add_link rebuild starts from."""
    props = {pid: m.Proposition(pid, text)
             for pid, text in model["texts"].items()}
    args = {}
    for a in model["args"]:
        qualifier = (m.Qualifier(m.QualifierKind(a["qualifier"]))
                     if a["qualifier"] else None)
        args[a["id"]] = m.ToulminArgument(
            a["id"], tuple(a["data"]), a["warrant"], a["claim"],
            a["backing"], qualifier, tuple(a["rebuttals"]))
    model["graph"] = m.ArgumentGraph(props, args, ())
    model["steps"] = [(s, t, m.LinkRole(role)) for s, t, role in model["links"]]
    model["back"] = (*model["back_edge"], m.LinkRole.DATUM)


def run_doc(doc, pt):
    """Apply the document's commands (and rebuild), timing each step:
    every command and, on `argument_graphs`, every `add_link` call of the
    rebuild and the back-edge.  Outputs are read back after the clock
    stops.  Returns (step times in ns, command results, rebuild)."""
    clock = time.perf_counter_ns
    steps, buffers, rebuilt = [], [], None
    for command, argv in doc.commands:
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = pt.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation
            rc = exc
        steps.append(clock() - start)
        buffers.append((command, rc, out, err))
    if doc.model:
        graph, add_link = doc.model["graph"], pt.model.add_link
        for source, target, role in doc.model["steps"]:
            start = clock()
            graph = add_link(graph, source, target, role)
            steps.append(clock() - start)
        start = clock()
        try:
            add_link(graph, *doc.model["back"])
            raised = False
        except pt.model.CycleError:
            raised = True
        steps.append(clock() - start)
        rebuilt = (graph.links, raised)
    results = [(c, (rc, out.getvalue(), err.getvalue()))
               for c, rc, out, err in buffers]
    return steps, results, rebuilt


_CHECKS = {
    "analyze": checks.check_analyze,
    "validate": checks.check_validate,
    "diagram": lambda result, want: checks.check_diagram(result, *want),
    "classify": checks.check_classify,
}


def check_doc(doc, results, rebuilt):
    """(failed, problems) for one document operation."""
    if not doc.timed:
        return not all(checks.rejects_malformed(r) for _, r in results), []
    if any(isinstance(r[0], BaseException) for _, r in results):
        return True, [f"{doc.name}: {c} raised {r[0]!r}"
                      for c, r in results if isinstance(r[0], BaseException)]
    problems = []
    for command, result in results:
        problems += [f"{doc.name}: {p}" for p in
                     _CHECKS[command](result, doc.expected[command])]
    if rebuilt is not None:
        links = [(l.source, l.target, l.role.value) for l in rebuilt[0]]
        problems += [f"{doc.name}: {p}" for p in checks.check_rebuild(
            links, rebuilt[1], doc.expected["rebuild"])]
    return False, problems


@dataclass
class Rounds:
    # doc index -> (ns, operation) of its fastest whole run, which a
    # traced run reads its layer times from
    best: dict = field(default_factory=dict)
    floor: dict = field(default_factory=dict)  # doc index -> fastest ns per step
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    walls: dict = field(default_factory=dict)  # CLI command -> fastest ns
    peak_kb: int = 0


def run_rounds(load, seconds, seed, pt, workdir, tracer=None):
    """Whole rounds over the workload's documents until `seconds` pass,
    each followed by the round's CLI processes (none when tracing).

    The work of a document's step is the same every time, and slower
    runs of it differ only by interference from other processes on the
    machine.  So each step keeps its fastest run, and a document's time
    is the sum of those; a long document is many short steps, each of
    which can land in a quiet moment.  A CLI command's wall time is
    likewise its fastest run.  Each round runs its documents in a new
    order drawn from the seed, so that no document always follows the
    same one, or always comes first after the round's CLI processes.
    Successive rounds, with their CLI processes, are held to each CPU
    this process may use in turn: each CPU's slow spells come and go on
    their own, so every step gets samples from all of them."""
    out = Rounds()
    rng = random.Random(seed)
    processes = itertools.cycle(enumerate(load.cli))
    allowed = os.sched_getaffinity(0)
    cpus = itertools.cycle(sorted(allowed))
    deadline = time.perf_counter() + seconds
    last_round = None
    try:
        while (last_round is None
               or time.perf_counter() + last_round <= deadline):
            os.sched_setaffinity(0, {next(cpus)})
            round_start = time.perf_counter()
            for index in rng.sample(load.schedule, len(load.schedule)):
                doc = load.docs[index]
                gc.collect()
                if tracer is not None:
                    tracer.doc = out.attempted if doc.timed else None
                steps, results, rebuilt = run_doc(doc, pt)
                bad, found = check_doc(doc, results, rebuilt)
                if doc.timed and not bad:
                    elapsed, best = sum(steps), out.best.get(index)
                    if best is None or elapsed < best[0]:
                        out.best[index] = (elapsed, out.attempted)
                    out.floor[index] = list(
                        map(min, out.floor.get(index, steps), steps))
                out.attempted += 1
                out.failed += bad
                out.problems += found
            for _ in range(0 if tracer else load.cli_per_round):
                which, (doc, command, argv) = next(processes)
                wall = cli_process(doc, command, argv, workdir, out)
                out.walls[which] = min(wall, out.walls.get(which, wall))
            last_round = time.perf_counter() - round_start
    finally:
        os.sched_setaffinity(0, allowed)
    return out


def cli_process(doc, command, argv, workdir, out):
    """Wall time of one `python -m prooftalk.cli` process; records its
    peak resident memory and checks its output."""
    out_path, err_path = workdir / "cli.out", workdir / "cli.err"
    with open(out_path, "wb") as stdout, open(err_path, "wb") as stderr:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(
            [sys.executable, "-m", "prooftalk.cli", *argv],
            stdout=stdout, stderr=stderr, cwd=ROOT, env=_child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter_ns() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out.peak_kb = max(out.peak_kb, usage.ru_maxrss)
    result = (proc.returncode, out_path.read_text(encoding="utf-8"),
              err_path.read_text(encoding="utf-8"))
    out.problems += [f"{doc.name} (process): {p}" for p in
                     _CHECKS[command](result, doc.expected[command])]
    return wall


def import_ms():
    """Wall time of a process that only imports prooftalk.cli, minus
    that of a bare interpreter; medians of alternating runs."""
    times = {"import prooftalk.cli": [], "pass": []}
    for _ in range(IMPORT_PROBES):
        for code, samples in times.items():
            start = time.perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                           env=_child_env(), check=True)
            samples.append(time.perf_counter_ns() - start)
    return (statistics.median(times["import prooftalk.cli"])
            - statistics.median(times["pass"])) / 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pt = _load_prooftalk()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        load, setup_s = set_up(args.workload, args.seed, workdir, pt)
        for warm in load.warmup:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                pt.cli.main(warm)
        # The generated inputs and their expectations stay alive for the
        # whole run; freezing them keeps the collector from rescanning
        # them during every timed document, as a CLI process never would.
        gc.collect()
        gc.freeze()
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            rounds = run_rounds(load, args.seconds, args.seed, pt, workdir,
                                tracer)
        finally:
            if tracer:
                tracer.uninstall()
        doc_ns = {i: sum(steps) for i, steps in rounds.floor.items()}
        doc_p50_ms = statistics.median(doc_ns.values()) / 1e6
        if tracer:
            metrics = spans.layer_metrics(
                tracer, {op: load.docs[i]
                         for i, (_, op) in rounds.best.items()})
            metrics["cli.import_ms"] = (import_ms(), "ms")
            metrics["trace.doc_p50_ms"] = (doc_p50_ms, "ms")
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "doc_p50_ms": (doc_p50_ms, "ms"),
                "kb_per_s": (sum(load.docs[i].size for i in doc_ns) / 1024
                             / (sum(doc_ns.values()) / 1e9), "KB/s"),
                "cli_wall_ms": (statistics.median(rounds.walls.values())
                                / 1e6, "ms"),
                "peak_rss_mb": (rounds.peak_kb / 1024, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for problem in rounds.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not rounds.problems
    print(json.dumps({
        "correct": correct, "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
