"""Command line front end.

Subcommands: generate, verify, bounds, search, sweep, export, replay.
Coloring JSON is the interchange format between stages, so each one can
be exercised alone.  Exit codes follow a fixed contract: 0 for a valid
result, 1 for an invalid coloring or a proved absence, 2 for usage and
input problems, 3 for an exceeded search budget.  Each subcommand's
handler returns its text, and ``run`` alone writes outputs and manifests.
Every subcommand but ``replay`` can record a run manifest, from which
``replay`` reproduces the primary output byte for byte: it re-runs the
recorded arguments through the same subcommand, an ``-o`` given to
``replay`` replaces the recorded one, and a replay writes no manifest.
Each handler imports the modules it runs, and the parser none, so a
process loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .errors import (
    BudgetExceededError,
    CannotStepDownError,
    ConstructionError,
    InvalidColoringError,
    InvalidParameterError,
    NotIntervalColorableError,
    SchemaError,
)
from .grids import DEFAULT_MAX_EDGES, Family, build, dumps_canonical, edge_count

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# the named families, each with a construction, offered by --family
# without loading that module
_FAMILIES = tuple(f.value for f in Family)


class _UsageError(Exception):
    pass


# Exit code and stderr message for each failure a subcommand may raise; a
# subclass without an entry of its own takes its nearest base's.
_FAILURES = {
    _UsageError: (EXIT_USAGE, "error: {exc}"),
    json.JSONDecodeError: (
        EXIT_USAGE,
        "parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
    ),
    SchemaError: (EXIT_USAGE, "schema error: {exc}"),
    UnicodeDecodeError: (EXIT_USAGE, "error: input is not UTF-8: {exc}"),
    OSError: (EXIT_USAGE, "error: {exc}"),
    InvalidParameterError: (EXIT_USAGE, "error: {exc}"),
    CannotStepDownError: (EXIT_USAGE, "error: {exc}"),
    InvalidColoringError: (EXIT_INVALID, "invalid coloring: {exc}"),
    ConstructionError: (EXIT_INVALID, "construction failed: {exc}"),
    NotIntervalColorableError: (EXIT_INVALID, "error: {exc}"),
    BudgetExceededError: (EXIT_BUDGET, "search budget exceeded: {exc}"),
    # a backstop: no input is refused for its size before it is built
    MemoryError: (EXIT_USAGE, "error: out of memory: the instance is too large"),
}


def _fail(exc: Exception) -> int:
    """Report a failure listed in ``_FAILURES`` on stderr; return its exit code."""
    code, message = next(_FAILURES[k] for k in type(exc).__mro__ if k in _FAILURES)
    print(message.format(exc=exc), file=sys.stderr)
    return code


def _path(name: str) -> Path:
    """``name`` as a path; a NUL, which ``open`` refuses, is a usage error."""
    if "\0" in name:
        raise _UsageError(f"path contains a NUL character: {name!r}")
    return Path(name)


def _load_json(path: str) -> dict:
    """JSON read from ``path``, or stdin for '-', with nesting and number
    limits reported as schema errors."""
    stdin = contextlib.nullcontext(sys.stdin)
    with stdin if path == "-" else _path(path).open("r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except (RecursionError, ValueError) as exc:
            # nested too deeply, or an integer beyond Python's digit limit
            raise SchemaError(f"unreadable JSON: {type(exc).__name__}: {exc}") from None


def _drop_flag(argv: list[str], name: str) -> list[str]:
    """``argv`` without the named long flag and its value, given in full or as
    a prefix, which argparse accepts only when it names one option; tokens
    from ``--`` on are kept."""
    out = []
    skip = False
    for i, token in enumerate(argv):
        spelling, eq, _ = token.partition("=")
        if skip:
            skip = False
        elif token == "--":
            return out + argv[i:]
        elif len(spelling) > 2 and name.startswith(spelling):
            skip = not eq
        else:
            out.append(token)
    return out


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise _UsageError(f"range must look like A..B, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"range bounds must be integers, got {text!r}") from None
    if lo > hi:
        raise _UsageError(f"empty range {text!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> tuple[int, str, str | None]:
    from .colorings import coloring_documents
    from .constructions import construct

    result = construct(args.family, args.m, args.n, args.t)
    [doc] = coloring_documents([result.coloring], [result.rule_trace])
    summary = f"{args.family} m={args.m} n={args.n} t={result.coloring.palette_size}"
    return EXIT_VALID, summary, doc + "\n"


def _cmd_verify(args: argparse.Namespace) -> tuple[int, str, str | None]:
    from .colorings import coloring_from_json_dict, verify_interval

    doc = _load_json(args.path)
    coloring, _ = coloring_from_json_dict(doc)
    report = verify_interval(coloring)
    if args.json:
        text = dumps_canonical(report.to_json_dict())
    else:
        text = report.format_table() + "\n"
    code = EXIT_VALID if report.interval else EXIT_INVALID
    return code, f"interval={report.interval}", text


def _cmd_bounds(args: argparse.Namespace) -> tuple[int, str, str | None]:
    from .bounds import bounds_table, bounds_table_csv

    families = _FAMILIES if args.family == "both" else [args.family]
    m_range = _parse_range(args.m_range)
    n_range = _parse_range(args.n_range)
    rows = bounds_table(families, m_range, n_range, args.oracle_budget)
    return EXIT_VALID, f"{len(rows)} rows", bounds_table_csv(rows)


def _cmd_search(args: argparse.Namespace) -> tuple[int, str, str | None]:
    from .colorings import coloring_documents
    from .search import Outcome, SearchBudget, exact_W, exact_w, find_interval_coloring

    budget = SearchBudget(
        max_edges=DEFAULT_MAX_EDGES if args.max_edges is None else args.max_edges,
        max_nodes=args.max_nodes,
        time_cap_s=args.timeout,
    )
    # an instance over the edge cap is refused before it is built, and one
    # outside its family's range before it is counted
    why = budget.refusal(edge_count(args.family, args.m, args.n))
    if why:
        raise BudgetExceededError(why)
    g = build(args.family, args.m, args.n)
    if args.t is not None:
        result = find_interval_coloring(g, args.t, budget)
        if result.outcome is Outcome.BUDGET_EXCEEDED:
            raise BudgetExceededError(result.detail)
        if result.outcome is Outcome.FOUND:
            [doc] = coloring_documents([result.coloring])
            return EXIT_VALID, f"found t={args.t}", doc + "\n"
        print(
            f"no interval {args.t}-coloring exists "
            f"({result.nodes} nodes searched)",
            file=sys.stderr,
        )
        return EXIT_INVALID, f"absent t={args.t}", None
    name = "w" if args.exact_w else "W"
    value = exact_w(g, budget) if args.exact_w else exact_W(g, budget)
    return EXIT_VALID, f"exact_{name}={value}", f"{value}\n"


def _cmd_sweep(args: argparse.Namespace) -> tuple[int, str, str | None]:
    from .colorings import coloring_documents
    from .constructions import spectrum_sweep

    colorings = spectrum_sweep(args.m, args.n)
    # {"colorings": [...]} with each document two levels in
    docs = coloring_documents(colorings, indent="    ")
    summary = f"{len(docs)} colorings t={colorings[0].palette_size}..4"
    body = ",\n    ".join(docs)
    return EXIT_VALID, summary, f'{{\n  "colorings": [\n    {body}\n  ]\n}}\n'


def _cmd_export(args: argparse.Namespace) -> tuple[int, str, str | None]:
    from .colorings import coloring_from_json_dict, require_interval
    from .export import to_csv, to_dot

    doc = _load_json(args.path)
    coloring, trace = coloring_from_json_dict(doc)
    require_interval(coloring, InvalidColoringError, "coloring to export")
    text = to_dot(coloring) if args.format == "dot" else to_csv(coloring, trace)
    return EXIT_VALID, f"{args.format} export", text


def _cmd_replay(args: argparse.Namespace) -> tuple[int, str, str | None]:
    doc = _load_json(args.manifest_path)
    if not isinstance(doc, dict) or "argv" not in doc:
        raise SchemaError("manifest must be an object with an 'argv' array")
    argv = doc["argv"]
    if not isinstance(argv, list) or not all(isinstance(s, str) for s in argv):
        raise SchemaError("'argv' must be an array of strings")
    if argv[:1] == ["replay"]:
        # replay records no manifest, so such an argv is forged or cyclic
        raise SchemaError("a manifest cannot replay another replay")
    # argparse exits on an argv that no longer parses; run passes its code on
    recorded = build_parser().parse_args(argv)
    if args.output is None:
        args.output = recorded.output  # run writes where the recorded run wrote
    return recorded.handler(recorded)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalmesh",
        description="interval edge colorings of cylinder and torus grids",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="emit a constructed coloring as JSON")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--t", type=int, help="palette size (torus: any value down to 4)")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("verify", help="check a coloring JSON file")
    p.add_argument("path", help="coloring JSON path, or - for stdin")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bounds", help="emit the bounds table as CSV")
    p.add_argument("--family", choices=[*_FAMILIES, "both"], default="both")
    p.add_argument("--m-range", "-m-range", dest="m_range", required=True, metavar="A..B")
    p.add_argument("--n-range", "-n-range", dest="n_range", required=True, metavar="A..B")
    p.add_argument(
        "--oracle-budget",
        type=int,
        metavar="EDGES",
        help="fill exact columns for instances with at most EDGES edges",
    )
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("search", help="exhaustive search for interval colorings")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=int, help="decide this palette size")
    group.add_argument("--exact-w", action="store_true", help="least feasible palette")
    group.add_argument(
        "--exact-W", dest="exact_W", action="store_true", help="greatest feasible palette"
    )
    p.add_argument(
        "--max-edges",
        type=int,
        help=f"instance size cap (default {DEFAULT_MAX_EDGES})",
    )
    p.add_argument(
        "--max-nodes",
        type=int,
        help="cap on color attempts, counting only colors inside both endpoints' "
        "distance bounds",
    )
    p.add_argument(
        "--timeout", type=float, metavar="S", help="wall time cap in seconds, a number >= 0"
    )
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("sweep", help="torus colorings for every t down to 4")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("export", help="render a coloring as DOT or CSV")
    p.add_argument("path", help="coloring JSON path, or - for stdin")
    p.add_argument("--format", choices=["dot", "csv"], required=True)
    p.set_defaults(handler=_cmd_export)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest_path", help="manifest JSON path")
    p.set_defaults(handler=_cmd_replay)

    # shared flags, last in every subcommand's help
    for name, p in sub.choices.items():
        p.add_argument(
            "-o", "--output", metavar="FILE", help="write to FILE instead of stdout"
        )
        if name != "replay":
            p.add_argument(
                "--manifest", metavar="FILE", help="write a replayable run manifest"
            )
    return parser


def run(argv: list[str]) -> int:
    outputs: list[str] = []
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        code, result, text = args.handler(args)
        if text is not None and args.output not in (None, "-"):
            _path(args.output).write_text(text, encoding="utf-8")
            outputs.append(args.output)
        elif text is not None:
            sys.stdout.write(text)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help, on this argv or on
        # the one replay parses; pass both through
        if exc.code is None:
            return EXIT_VALID
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except tuple(_FAILURES) as exc:
        code = _fail(exc)
        result = f"failed: {type(exc).__name__}"
    path = getattr(args, "manifest", None)
    if path is None:
        return code
    read = getattr(args, "path", None)  # the file verify or export reads, failed or not
    manifest = {
        "tool": "intervalmesh",
        "version": __version__,
        "subcommand": args.subcommand,
        "argv": _drop_flag(argv, "--manifest"),
        "parameters": {
            k: v
            for k, v in vars(args).items()
            if k not in ("handler", "manifest", "subcommand") and v is not None
        },
        "inputs": [] if read is None else [read],
        "outputs": outputs,
        "wall_time_s": round(time.perf_counter() - started, 6),
        "result": result,
    }
    try:
        _path(path).write_text(dumps_canonical(manifest), encoding="utf-8")
    except (OSError, _UsageError) as exc:
        return _fail(exc)
    return code


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
