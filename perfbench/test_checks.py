"""The benchmark's checks pass on prooftalk's real outputs and catch a
wrong answer.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import os
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpus  # noqa: E402
import dialogues  # noqa: E402
import graphs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

pt = run._load_prooftalk()


@pytest.fixture(scope="module")
def workdir():
    path = run.ROOT / ".perfbench_work" / f"tests-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    with contextlib.suppress(OSError):
        path.parent.rmdir()


def _outputs(doc):
    _, results, rebuilt = run.run_doc(doc, pt)
    return dict(results), rebuilt


@pytest.fixture(scope="module")
def corpus_docs(workdir):
    load = workloads.build("corpus", 0, run.ROOT, workdir)
    return {d.name: (d, *_outputs(d)) for d in load.docs}


def _doc(workdir, name, text, commands):
    path = str(workdir / name)
    Path(path).write_text(text, encoding="utf-8")
    return workloads.Doc(name, path, len(text), [
        (c, [c, path] + (["--format", "json"] if c == "classify" else []))
        for c in commands], {})


@pytest.fixture(scope="module")
def dialogue_docs(workdir):
    out = {}
    for plant in dialogues.PLANTS:
        text, want = dialogues.make_document(f"test:{plant}", 300, plant)
        doc = _doc(workdir, f"{plant}.arg", text, ["analyze"])
        doc.expected["analyze"] = want
        out[plant] = (doc, *_outputs(doc))
    return out


@pytest.fixture(scope="module")
def graph_docs(workdir):
    out = {}
    for shape in graphs.SHAPES:
        text, model = graphs.make_document(f"test:{shape}", 30, shape)
        run._prepare_rebuild(model, pt.model)
        doc = _doc(workdir, f"{shape}.arg", text, ["validate", "diagram"])
        doc.model = model
        doc.expected.update(
            validate=model["findings"], rebuild=model["links"],
            diagram=checks.expected_dot(model["args"], model["texts"]))
        out[shape] = (doc, *_outputs(doc))
    return out


def _problems(doc, results, rebuilt, expected=None):
    if expected is not None:
        doc = copy.copy(doc)
        doc.expected = expected
    failed, problems = run.check_doc(doc, list(results.items()), rebuilt)
    assert not failed
    return problems


def test_corpus_outputs_pass(corpus_docs):
    for name in corpus.FIXTURES:
        assert _problems(*corpus_docs[name]) == [], name


def test_generated_outputs_pass(dialogue_docs, graph_docs):
    for entry in [*dialogue_docs.values(), *graph_docs.values()]:
        assert _problems(*entry) == [], entry[0].name


def test_flipped_corpus_verdict_is_caught(corpus_docs):
    doc, results, rebuilt = corpus_docs["wiles_attempt.arg"]
    want = copy.deepcopy(doc.expected)
    want["analyze"]["proofs"]["fermat"]["status"] = "proof"
    assert any("status" in p for p in _problems(doc, results, rebuilt, want))
    want = copy.deepcopy(doc.expected)
    want["analyze"]["dialogues"]["wiles_persuasion"]["goal_achieved"] = True
    assert _problems(doc, results, rebuilt, want)


def test_flipped_licitness_is_caught(corpus_docs, dialogue_docs):
    doc, results, rebuilt = corpus_docs["shift_illicit.arg"]
    want = copy.deepcopy(doc.expected)
    shift = want["analyze"]["dialogues"]["drift"]["shifts"][0]
    want["analyze"]["dialogues"]["drift"]["shifts"][0] = (*shift[:5], "licit")
    assert _problems(doc, results, rebuilt, want)

    doc, results, rebuilt = dialogue_docs["drift"]
    want = copy.deepcopy(doc.expected)
    shifts = want["analyze"]["dialogues"]["persuade"]["shifts"]
    assert shifts[-1][1:3] == ("persuasion", "negotiation")
    shifts[-1] = (*shifts[-1][:3], "gradual", *shifts[-1][4:])
    assert _problems(doc, results, rebuilt, want)


def test_wrong_commitment_or_violation_is_caught(dialogue_docs):
    doc, results, rebuilt = dialogue_docs["violation"]
    want = copy.deepcopy(doc.expected)
    turn, rule = want["analyze"]["dialogues"]["persuade"]["violations"][0]
    want["analyze"]["dialogues"]["persuade"]["violations"] = [(turn + 1, rule)]
    assert _problems(doc, results, rebuilt, want)

    doc, results, rebuilt = dialogue_docs["clean"]
    want = copy.deepcopy(doc.expected)
    critic = want["analyze"]["dialogues"]["persuade"]["stores"]["critic"]
    critic.pop()
    assert any("stores" in p for p in _problems(doc, results, rebuilt, want))


def test_dropped_dot_edge_is_caught(corpus_docs, graph_docs):
    doc, results, rebuilt = corpus_docs["harry.arg"]
    rc, out, err = results["diagram"]
    edge = next(line for line in out.splitlines() if "->" in line)
    dropped = dict(results, diagram=(rc, out.replace(edge + "\n", ""), err))
    assert any("diagram.edges" in p
               for p in _problems(doc, dropped, rebuilt))

    doc, results, rebuilt = graph_docs["dag"]
    rc, out, err = results["diagram"]
    relabelled = out.replace('label="so"', 'label="necessarily"', 1)
    assert relabelled != out
    assert _problems(doc, dict(results, diagram=(rc, relabelled, err)),
                     rebuilt)


def test_missing_finding_or_link_is_caught(graph_docs):
    doc, results, rebuilt = graph_docs["chain"]
    rc, out, err = results["validate"]
    assert out, "the generated chain should carry a warning"
    dropped = dict(results, validate=(rc, out.split("\n", 1)[1], err))
    assert _problems(doc, dropped, rebuilt)

    links, raised = rebuilt
    assert _problems(doc, results, (links[1:], raised))
    assert _problems(doc, results, (links, False))


def test_malformed_inputs_need_a_located_usage_error(corpus_docs):
    assert checks.rejects_malformed((2, "", "x.arg:3:9: error: expected y\n"))
    assert not checks.rejects_malformed((2, "", "error: no location\n"))
    assert not checks.rejects_malformed((0, "", ""))
    assert not checks.rejects_malformed((ValueError("boom"), "", ""))
    for name in corpus.MALFORMED:
        doc, results, rebuilt = corpus_docs[name]
        failed, problems = run.check_doc(doc, list(results.items()), rebuilt)
        expected = not all(checks.rejects_malformed(r)
                           for r in results.values())
        assert (failed, problems) == (expected, [])
