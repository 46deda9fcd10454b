"""Seeded argument-only documents for the `argument_graphs` workload.

Two shapes: a `chain`, where each argument's datum is the previous
argument's claim, and a fan-in `dag`, where each argument takes one to
three data from the claims of earlier arguments and sometimes backs its
warrant with another earlier claim.  About one argument in ten claims
necessity while listing a rebuttal, which `validate` reports as a
warning.  One early argument also lists, as a plain datum with no `uses`
clause, the claim of an argument it already supports: that is the
planted back-edge, which `add_link` must refuse with `CycleError`.

The expected validate findings, diagram and link set are derived from
the generator's own model, never from running prooftalk.
"""

from __future__ import annotations

import random

SHAPES = ("chain", "dag")

_QUALIFIERS = (None, "probably", "presumably", "almost_certainly")
# The word a diagram prints at each argument's qualifier junction.
LABELS = {None: "so", "necessarily": "necessarily", "probably": "probably",
          "presumably": "presumably", "almost_certainly": "almost certainly"}
_WORDS = ("reducible", "unavoidable", "planar", "coloured", "bounded",
          "verified", "regular", "finite", "critical", "normal", "minimal")


def _sentence(rng, what, i):
    words = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(2, 4)))
    return f"{what} {i}: every {words} map"


def make_document(seed, n_args, shape):
    """Text of one document with `n_args` arguments, and the generator's
    model of it: propositions, arguments, links in writing order, the
    planted back-edge and the expected validate findings."""
    rng = random.Random(seed)
    texts = {}      # proposition id -> text
    args = []       # dicts: id, data, warrant, backing, qualifier, rebuttals, claim
    links = []      # (source, target, role) in the order they are written
    for i in range(n_args):
        aid = f"a{i}"
        data = []
        if shape == "chain":
            sources = [i - 1] if i else []
        else:
            sources = sorted(rng.sample(range(i), min(i, rng.randint(1, 3))))
        if not sources or rng.random() < 0.5:
            data.append(f"d{i}")
            texts[f"d{i}"] = _sentence(rng, "datum", i)
        for j in sources:
            data.append(f"c{j}")
            links.append((f"a{j}", aid, "datum"))
        backing = None
        spare = [j for j in range(i) if j not in sources]
        if shape == "dag" and spare and rng.random() < 0.4:
            j = rng.choice(spare)
            backing = f"c{j}"
            links.append((f"a{j}", aid, "backing"))
        elif rng.random() < 0.5:
            backing = f"k{i}"
            texts[backing] = _sentence(rng, "backing", i)
        rebuttals = []
        if rng.random() < 0.1:
            qualifier = "necessarily"
            rebuttals.append(f"r{i}")
        else:
            qualifier = rng.choice(_QUALIFIERS)
            if rng.random() < 0.3:
                rebuttals.append(f"r{i}")
        for r in rebuttals:
            texts[r] = _sentence(rng, "rebuttal", i)
        texts[f"w{i}"] = _sentence(rng, "warrant", i)
        texts[f"c{i}"] = _sentence(rng, "claim", i)
        args.append({"id": aid, "data": data, "warrant": f"w{i}",
                     "backing": backing, "qualifier": qualifier,
                     "label": LABELS[qualifier],
                     "rebuttals": rebuttals, "claim": f"c{i}"})

    # The back-edge runs from a descendant of an early argument to it.
    children, uses = {}, {}
    for src, dst, _ in links:
        children.setdefault(src, []).append(dst)
        uses.setdefault(dst, []).append(src)
    target = next(a["id"] for a in args if a["id"] in children)
    reach, stack = set(), [target]
    while stack:
        for nxt in children.get(stack.pop(), ()):
            if nxt not in reach:
                reach.add(nxt)
                stack.append(nxt)
    source = rng.choice(sorted(reach, key=lambda a: int(a[1:])))
    args[int(target[1:])]["data"].append(f"c{source[1:]}")

    lines = [f"# argument graph: {shape}, {n_args} arguments"]
    arg_lines = {}
    for a in args:
        lines.append("")
        arg_lines[a["id"]] = len(lines) + 1
        lines.append(f'argument "{a["id"]}" {{')
        for d in a["data"]:
            lines.append(f'  data {d}: "{texts[d]}"')
        lines.append(f'  warrant {a["warrant"]}: "{texts[a["warrant"]]}"')
        if a["backing"]:
            lines.append(f'  backing {a["backing"]}: "{texts[a["backing"]]}"')
        if a["qualifier"]:
            lines.append(f'  qualifier: {a["qualifier"]}')
        for r in a["rebuttals"]:
            lines.append(f'  rebuttal {r}: "{texts[r]}"')
        lines.append(f'  claim {a["claim"]}: "{texts[a["claim"]]}"')
        for src in uses.get(a["id"], ()):
            lines.append(f'  uses c{src[1:]} <- argument "{src}"')
        lines.append("}")

    warnings = {(arg_lines[a["id"]], 1, "warning", a["id"]) for a in args
                if a["qualifier"] == "necessarily" and a["rebuttals"]}
    return "\n".join(lines) + "\n", {
        "texts": texts,
        "args": args,
        "links": links,
        "back_edge": (source, target),
        "findings": warnings,
    }
