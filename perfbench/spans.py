"""Per-layer spans, recorded from outside prooftalk.

`Tracer.install` replaces every binding of each layer's public
functions in the loaded `prooftalk` modules with a wrapper that records
a span: layer name, start, end and the enclosing span.  Spans of one
document share its index.  A span's self time is its duration minus
that of the spans it encloses, so `parse_document` time excludes the
`tokenize` it calls, and `main` self time is the CLI's own overhead.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter_ns

# Layer functions wrapped in the traced run, with the work count each
# span records (bytes tokenized, moves replayed, links added).
LAYER_FUNCTIONS = {
    "markup.tokenize": lambda args: len(args[0].encode()),
    "markup.parse_document": None,
    "engine.new_dialogue": None,
    "engine.replay_moves": lambda args: len(args[1]),
    "engine.goal_achieved": None,
    "shifts.segment_moves": None,
    "shifts.detect_shifts": None,
    "model.validate_graph": None,
    "model.export_dot": None,
    "model.add_link": lambda args: 1,
    "typology.classify_proof_dialogue": None,
    "typology.assess_proof_status": None,
    "cli.main": None,
}

# Per-document layer times: metric -> span names whose self times it sums.
LAYER_TIMES = {
    "markup.tokenize_ms": ("markup.tokenize",),
    "markup.parse_ms": ("markup.parse_document",),
    "engine.replay_ms": ("engine.new_dialogue", "engine.replay_moves"),
    "engine.goal_ms": ("engine.goal_achieved",),
    "shifts.segment_ms": ("shifts.segment_moves",),
    "shifts.detect_ms": ("shifts.detect_shifts",),
    "model.validate_graph_ms": ("model.validate_graph",),
    "model.export_dot_ms": ("model.export_dot",),
    "model.add_link_ms": ("model.add_link",),
    "typology.assess_ms": ("typology.classify_proof_dialogue",
                           "typology.assess_proof_status"),
    "cli.overhead_ms": ("cli.main",),
}

# Growth between the two largest ladder steps: ~2 linear, ~4 quadratic.
RATIOS = {
    "markup.tokenize_x2": "markup.tokenize_ms",
    "markup.parse_x2": "markup.parse_ms",
    "engine.replay_x2": "engine.replay_ms",
    "engine.goal_x2": "engine.goal_ms",
    "model.validate_graph_x2": "model.validate_graph_ms",
    "model.add_link_x2": "model.add_link_ms",
}

# Throughputs: metric -> (span names, scale of the work count, unit).
RATES = {
    "markup.tokenize_mb_per_s": (("markup.tokenize",), 1 / 2**20, "MB/s"),
    "engine.replay_moves_per_s": (("engine.replay_moves",), 1, "moves/s"),
    "model.add_link_per_s": (("model.add_link",), 1, "links/s"),
}


class Tracer:
    def __init__(self):
        self.spans = []     # [doc, name, start, end, parent index, work]
        self.stack = []
        self.doc = None
        self._patched = []

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            count = work(args) if work else 0
            spans.append([self.doc, name, perf_counter_ns(), 0,
                          stack[-1] if stack else None, count])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][3] = perf_counter_ns()
                stack.pop()
        return traced

    def install(self):
        """Wrap each layer function wherever a prooftalk module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "prooftalk" or n.startswith("prooftalk.")]
        for name, work in LAYER_FUNCTIONS.items():
            module, attr = name.split(".")
            original = getattr(sys.modules[f"prooftalk.{module}"], attr)
            wrapper = self._wrap(name, original, work)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def uninstall(self):
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def self_times(self):
        """doc -> span name -> [self time ns, span count, work count]."""
        child = [0] * len(self.spans)
        for doc, name, start, end, parent, work in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (doc, name, start, end, parent, work) in enumerate(self.spans):
            entry = out.setdefault(doc, {}).setdefault(name, [0, 0, 0])
            entry[0] += end - start - child[i]
            entry[1] += 1
            entry[2] += work
        return out


def layer_metrics(tracer, docs):
    """Per-layer metrics of a traced run.

    `docs` maps each traced document index to its Doc.  A layer's per-document median
    is taken over the documents on which the layer ran; a layer that ran
    on none of them reads 0, as does a ratio on a workload without a
    doubling ladder.
    """
    per_doc = tracer.self_times()
    metrics = {}
    for metric, names in LAYER_TIMES.items():
        values = [sum(per_doc[i][n][0] for n in names if n in per_doc[i])
                  for i in docs if any(n in per_doc.get(i, {}) for n in names)]
        metrics[metric] = (statistics.median(values) / 1e6 if values else 0.0,
                           "ms")

    for metric, (names, scale, unit) in RATES.items():
        ns = work = 0
        for i in docs:
            spans = per_doc.get(i, {})
            for n in names:
                if n in spans:
                    ns += spans[n][0]
                    work += spans[n][2]
        metrics[metric] = (work * scale / (ns / 1e9) if ns else 0.0, unit)

    for metric, base in RATIOS.items():
        names = LAYER_TIMES[base]
        by_step = {}
        for i, doc in docs.items():
            if doc.ladder:
                ns = sum(per_doc.get(i, {}).get(n, [0])[0] for n in names)
                by_step.setdefault(doc.step, []).append(ns)
        steps = sorted(by_step)
        ratio = 0.0
        if len(steps) >= 2:
            low = statistics.median(by_step[steps[-2]])
            high = statistics.median(by_step[steps[-1]])
            ratio = high / low if low else 0.0
        metrics[metric] = (ratio, "ratio")

    calls = sum(per_doc.get(i, {}).get("shifts.segment_moves", [0, 0])[1]
                for i in docs)
    analyzed = sum(doc.dialogues * sum(1 for c, _ in doc.commands
                                       if c == "analyze")
                   for i, doc in docs.items())
    metrics["shifts.segment_calls_per_dialogue"] = (
        calls / analyzed if analyzed else 0.0, "count")
    return metrics
