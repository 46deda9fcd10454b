"""Command-line front end.

Commands: validate, diagram, classify, analyze, report.  Exit codes:
0 clean, 1 domain-level failure (invalid arguments, protocol
violations), 2 usage, I/O or parse failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import chain
from pathlib import Path

try:  # CPython's accelerator, without the rest of the json package
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote

from . import markup, typology
from .analysis import analyze, classify_document, classify_text
from .model import Severity, export_dot, validate_graph

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def fixture_paths() -> list[Path]:
    """The bundled `.arg` files, in name order."""
    return sorted(Path(__file__).with_name("fixtures").glob("*.arg"))


def _load(path: str) -> markup.Document | int:
    try:
        # Decoded whole, so that a lone CR stays inside its line; drops a BOM.
        source = Path(path).read_bytes().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{path}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return markup.parse_document(source)
    except markup.MarkupError as exc:
        for err in exc.errors:
            print(f"{path}:{err.span.line}:{err.span.column}: error: "
                  f"{err.message}", file=sys.stderr)
        return EXIT_USAGE


def _scalar(value) -> str:
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def _rows(rows: list, indent: str) -> str | None:
    """The JSON text of a list of equal-width, non-empty lists of strings,
    nested at the indent, or None for a list of any other shape: every
    string is quoted in one pass and fills one row template."""
    width = len(rows[0])
    if not width or set(map(type, rows)) != {list} \
            or set(map(len, rows)) != {width}:
        return None
    try:
        cells = tuple(map(_quote, chain.from_iterable(rows)))
    except TypeError:  # a cell that is not a string
        return None
    inner, cell = indent + "  ", indent + "    "
    row = "[" + cell + ("," + cell).join(["%s"] * width) + inner + "]"
    return ("[" + inner + ("," + inner).join([row] * len(rows))
            + indent + "]") % cells


def _write(value, out: list[str], indent: str) -> None:
    """Append the value's JSON text to out, nested at the indent (a
    newline and the spaces of the value's own line).  Each key and
    scalar goes out in one piece with the separator before it, and a
    list of string rows in one piece."""
    keyed = isinstance(value, dict)
    if keyed:
        items, brackets = sorted(value.items()), "{}"
    elif isinstance(value, (list, tuple)):
        if value and type(value[0]) is list and (
                text := _rows(value, indent)) is not None:
            out.append(text)
            return
        items, brackets = value, "[]"
    else:
        out.append(_scalar(value))
        return
    if not items:
        out.append(brackets)
        return
    inner = indent + "  "
    lead, sep = brackets[0] + inner, "," + inner
    for item in items:
        if keyed:
            key, item = item
            lead += _quote(key) + ": "
        if isinstance(item, str):
            out.append(lead + _quote(item))
        elif isinstance(item, (dict, list, tuple)):
            out.append(lead)
            _write(item, out, inner)
        else:
            out.append(lead + _scalar(item))
        lead = sep
    out.append(indent + brackets[1])


def _json(doc) -> str:
    """The bytes of `json.dumps(doc, indent=2, sort_keys=True)` and a
    newline, for str, int, bool, None, lists, tuples and str-keyed
    dicts; any other value raises TypeError.  Unlike the standard
    library's indenting encoder, this leaves no reference cycles."""
    out: list[str] = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _emit(text: str, out_path) -> int:
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8", newline="\n")
        except OSError as exc:
            print(f"{out_path}: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate(args) -> int:
    status = EXIT_OK
    unloaded = False
    for path in args.paths:
        doc = _load(path)
        if isinstance(doc, int):
            unloaded = True
            continue
        diagnostics = validate_graph(doc.graph)
        for diag in diagnostics:
            span = doc.argument_spans.get(diag.argument)
            line, col = (span.line, span.column) if span else (1, 1)
            print(f"{path}:{line}:{col}: {diag.severity.value}: {diag.message}")
        if any(d.severity is Severity.ERROR for d in diagnostics):
            status = EXIT_DOMAIN
    return EXIT_USAGE if unloaded else status


def cmd_diagram(args) -> int:
    doc = _load(args.path)
    if isinstance(doc, int):
        return doc
    try:
        dot = export_dot(doc.graph)
    except ValueError:
        # export_dot names only the first error; report them all.
        for d in validate_graph(doc.graph):
            if d.severity is Severity.ERROR:
                print(f"{args.path}: error: {d.message}", file=sys.stderr)
        return EXIT_DOMAIN
    return _emit(dot, args.out)


def cmd_classify(args) -> int:
    doc = _load(args.path)
    if isinstance(doc, int):
        return doc
    text = (classify_text(doc) if args.format == "text"
            else _json(classify_document(doc)))
    return _emit(text, args.out)


def cmd_analyze(args) -> int:
    doc = _load(args.path)
    if isinstance(doc, int):
        return doc
    if not doc.dialogues:
        print(f"{args.path}: error: document contains no dialogues",
              file=sys.stderr)
        return EXIT_USAGE
    result = analyze(doc)
    text = result.text() if args.format == "text" else _json(result.report())
    return _emit(text, args.out) or result.exit_status


def cmd_report(args) -> int:
    return _emit(_json(typology.survey_tables()), args.out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves
    it unchanged, and each new one would leave its objects in reference
    cycles."""
    parser = argparse.ArgumentParser(
        prog="prooftalk",
        description="Validate, diagram and analyze argument markup files.")
    parser.add_argument("--fixtures", action="store_true",
                        help="print paths of the embedded corpus files")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("validate", help="structural validation of arguments")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("diagram", help="emit a DOT diagram of the arguments")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("classify", help="classify dialogues in a document")
    p.add_argument("path")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("analyze",
                       help="replay dialogues, detect shifts, assess proofs")
    p.add_argument("path")
    p.add_argument("--format", choices=["text", "json"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="emit the embedded typology tables")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error, or --help
        return exc.code
    if args.fixtures:
        for path in fixture_paths():
            print(path)
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
