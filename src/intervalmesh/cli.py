"""Command line front end.

Subcommands: generate, verify, bounds, search, sweep, export, replay.
Coloring JSON is the interchange format between stages, so each one can
be exercised alone.  Exit codes follow a fixed contract: 0 for a valid
result, 1 for an invalid coloring or a proved absence, 2 for usage and
input problems, 3 for an exceeded search budget.  Every subcommand can
record a run manifest from which ``replay`` reproduces the primary
output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .bounds import bounds_table, bounds_table_csv
from .colorings import (
    coloring_from_json_dict,
    coloring_to_json_dict,
    require_interval,
    verify_interval,
)
from .constructions import CONSTRUCTIONS, construct, spectrum_sweep, step_down_to
from .errors import (
    BudgetExceededError,
    CannotStepDownError,
    ConstructionError,
    DisconnectedGraphError,
    InvalidColoringError,
    InvalidParameterError,
    NonBipartiteError,
    NotIntervalColorableError,
    NotRegularError,
    SchemaError,
)
from .export import to_csv, to_dot
from .grids import Family, admits, build, dumps_canonical, edge_count, max_degree
from .search import (
    DEFAULT_MAX_EDGES,
    Outcome,
    SearchBudget,
    edge_cap_refusal,
    exact_W,
    exact_w,
    find_interval_coloring,
)

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


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
    DisconnectedGraphError: (EXIT_USAGE, "error: {exc}"),
    NonBipartiteError: (EXIT_USAGE, "error: {exc}"),
    NotRegularError: (EXIT_USAGE, "error: {exc}"),
    CannotStepDownError: (EXIT_USAGE, "error: {exc}"),
    InvalidColoringError: (EXIT_INVALID, "invalid coloring: {exc}"),
    ConstructionError: (EXIT_INVALID, "construction failed: {exc}"),
    NotIntervalColorableError: (EXIT_INVALID, "error: {exc}"),
    BudgetExceededError: (EXIT_BUDGET, "search budget exceeded: {exc}"),
}


def _fail(exc: Exception) -> int:
    """Report a failure listed in ``_FAILURES`` on stderr; return its exit code."""
    code, message = next(_FAILURES[k] for k in type(exc).__mro__ if k in _FAILURES)
    print(message.format(exc=exc), file=sys.stderr)
    return code


def _emit(text: str, path: str | None) -> list[str]:
    """Write to the output path, or stdout when the path is absent or '-'."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return []
    Path(path).write_text(text, encoding="utf-8")
    return [path]


def _parse_json(fh) -> dict:
    """``json.load``, with nesting and number limits reported as schema errors."""
    try:
        return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except (RecursionError, ValueError) as exc:
        # nested too deeply, or an integer beyond Python's digit limit
        raise SchemaError(f"unreadable JSON: {type(exc).__name__}: {exc}") from None


def _load_json(path: str) -> dict:
    if path == "-":
        return _parse_json(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_json(fh)


def _write_manifest(
    path: str | None,
    subcommand: str,
    argv: list[str],
    parameters: dict,
    inputs: list[str],
    outputs: list[str],
    wall_time_s: float,
    result: str,
) -> None:
    if path is None:
        return
    manifest = {
        "tool": "intervalmesh",
        "version": __version__,
        "subcommand": subcommand,
        "argv": argv,
        "parameters": parameters,
        "inputs": inputs,
        "outputs": outputs,
        "wall_time_s": round(wall_time_s, 6),
        "result": result,
    }
    Path(path).write_text(dumps_canonical(manifest), encoding="utf-8")


def _drop_flag(argv: list[str], *names: str) -> list[str]:
    """``argv`` without each named flag, given as ``NAME VALUE`` or ``NAME=VALUE``."""
    out = []
    skip = False
    for token in argv:
        if skip:
            skip = False
        elif token in names:
            skip = True
        elif not token.startswith(tuple(f"{name}=" for name in names)):
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


def _cmd_generate(args: argparse.Namespace) -> tuple[int, str, list[str]]:
    family = Family(args.family)
    result = construct(family, args.m, args.n)
    claimed = result.coloring.palette_size
    t = claimed if args.t is None else args.t
    if t == claimed:
        doc = coloring_to_json_dict(result.coloring, result.rule_trace)
    elif family is Family.CYLINDER:
        # an explicit rule: C(1, 2n) is a regular cycle, yet it is offered
        # only at its claimed palette like every other cylinder
        raise _UsageError(
            f"cylinder ({args.m},{args.n}) is constructible only at t={claimed}"
        )
    else:
        low = max_degree(result.coloring.graph)
        if not low <= t < claimed:
            raise _UsageError(
                f"{family.value} ({args.m},{args.n}) supports t in "
                f"{low}..{claimed}, got {t}"
            )
        doc = coloring_to_json_dict(step_down_to(result.coloring, t))
    outputs = _emit(dumps_canonical(doc), args.output)
    summary = f"{family.value} m={args.m} n={args.n} t={t}"
    return EXIT_VALID, summary, outputs


def _cmd_verify(args: argparse.Namespace) -> tuple[int, str, list[str]]:
    doc = _load_json(args.path)
    coloring, _ = coloring_from_json_dict(doc)
    report = verify_interval(coloring)
    if args.json:
        text = dumps_canonical(report.to_json_dict())
    else:
        text = report.format_table() + "\n"
    outputs = _emit(text, args.output)
    code = EXIT_VALID if report.interval else EXIT_INVALID
    return code, f"interval={report.interval}", outputs


def _cmd_bounds(args: argparse.Namespace) -> tuple[int, str, list[str]]:
    families = list(CONSTRUCTIONS) if args.family == "both" else [args.family]
    m_range = _parse_range(args.m_range)
    n_range = _parse_range(args.n_range)
    rows = bounds_table(families, m_range, n_range, args.oracle_budget)
    outputs = _emit(bounds_table_csv(rows), args.output)
    return EXIT_VALID, f"{len(rows)} rows", outputs


def _cmd_search(args: argparse.Namespace) -> tuple[int, str, list[str]]:
    budget = SearchBudget(
        max_edges=DEFAULT_MAX_EDGES if args.max_edges is None else args.max_edges,
        max_nodes=args.max_nodes,
        time_cap_s=args.timeout,
    )
    # an instance over the edge cap is refused before it is built
    refused = (
        edge_cap_refusal(edge_count(args.family, args.m, args.n), budget)
        if admits(args.family, args.m, args.n)
        else None
    )
    if args.t is not None:
        result = refused or find_interval_coloring(
            build(args.family, args.m, args.n), args.t, budget
        )
        if result.outcome is Outcome.FOUND:
            doc = coloring_to_json_dict(result.coloring)
            outputs = _emit(dumps_canonical(doc), args.output)
            return EXIT_VALID, f"found t={args.t}", outputs
        if result.outcome is Outcome.ABSENT:
            print(
                f"no interval {args.t}-coloring exists "
                f"({result.nodes} nodes searched)",
                file=sys.stderr,
            )
            return EXIT_INVALID, f"absent t={args.t}", []
        print(f"search budget exceeded: {result.detail}", file=sys.stderr)
        return EXIT_BUDGET, f"budget-exceeded t={args.t}", []
    if refused is not None:
        raise BudgetExceededError(refused.detail)
    g = build(args.family, args.m, args.n)
    name = "w" if args.exact_w else "W"
    value = exact_w(g, budget) if args.exact_w else exact_W(g, budget)
    outputs = _emit(f"{value}\n", args.output)
    return EXIT_VALID, f"exact_{name}={value}", outputs


def _cmd_sweep(args: argparse.Namespace) -> tuple[int, str, list[str]]:
    colorings = spectrum_sweep(args.m, args.n)
    docs = [coloring_to_json_dict(c) for c in colorings]
    outputs = _emit(dumps_canonical({"colorings": docs}), args.output)
    summary = f"{len(docs)} colorings t={colorings[0].palette_size}..4"
    return EXIT_VALID, summary, outputs


def _cmd_export(args: argparse.Namespace) -> tuple[int, str, list[str]]:
    doc = _load_json(args.path)
    coloring, trace = coloring_from_json_dict(doc)
    require_interval(coloring, InvalidColoringError, "coloring to export")
    text = to_dot(coloring) if args.format == "dot" else to_csv(coloring, trace)
    outputs = _emit(text, args.output)
    return EXIT_VALID, f"{args.format} export", outputs


def _cmd_replay(args: argparse.Namespace) -> tuple[int, str, list[str]]:
    doc = _load_json(args.manifest_path)
    if not isinstance(doc, dict) or "argv" not in doc:
        raise SchemaError("manifest must be an object with an 'argv' array")
    argv = doc["argv"]
    if not isinstance(argv, list) or not all(isinstance(s, str) for s in argv):
        raise SchemaError("'argv' must be an array of strings")
    if argv[:1] == ["replay"]:
        # replay records no manifest, so such an argv is forged or cyclic
        raise SchemaError("a manifest cannot replay another replay")
    if args.output is not None:
        argv = _drop_flag(argv, "-o", "--output") + ["-o", args.output]
    code = run(argv)
    return code, f"replayed {doc.get('subcommand', '?')}", []


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_manifest_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", metavar="FILE", help="write a replayable run manifest")


def _add_output_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "-o", "--output", metavar="FILE", help="write to FILE instead of stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalmesh",
        description="interval edge colorings of cylinder and torus grids",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    families = [family.value for family in CONSTRUCTIONS]

    p = sub.add_parser("generate", help="emit a constructed coloring as JSON")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--t", type=int, help="palette size (torus: any value down to 4)")
    _add_output_flag(p)
    _add_manifest_flag(p)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("verify", help="check a coloring JSON file")
    p.add_argument("path", help="coloring JSON path, or - for stdin")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    _add_output_flag(p)
    _add_manifest_flag(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bounds", help="emit the bounds table as CSV")
    p.add_argument("--family", choices=[*families, "both"], default="both")
    p.add_argument("--m-range", "-m-range", dest="m_range", required=True, metavar="A..B")
    p.add_argument("--n-range", "-n-range", dest="n_range", required=True, metavar="A..B")
    p.add_argument(
        "--oracle-budget",
        type=int,
        metavar="EDGES",
        help="fill exact columns for instances with at most EDGES edges",
    )
    _add_output_flag(p)
    _add_manifest_flag(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("search", help="exhaustive search for interval colorings")
    p.add_argument("--family", choices=families, required=True)
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
    p.add_argument("--timeout", type=float, metavar="S", help="wall time cap in seconds")
    _add_output_flag(p)
    _add_manifest_flag(p)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("sweep", help="torus colorings for every t down to 4")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    _add_output_flag(p)
    _add_manifest_flag(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("export", help="render a coloring as DOT or CSV")
    p.add_argument("path", help="coloring JSON path, or - for stdin")
    p.add_argument("--format", choices=["dot", "csv"], required=True)
    _add_output_flag(p)
    _add_manifest_flag(p)
    p.set_defaults(handler=_cmd_export)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest_path", help="manifest JSON path")
    _add_output_flag(p)
    p.set_defaults(handler=_cmd_replay)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        if exc.code is None:
            return EXIT_VALID
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    started = time.perf_counter()
    try:
        code, result, outputs = args.handler(args)
    except tuple(_FAILURES) as exc:
        code = _fail(exc)
        result, outputs = f"failed: {type(exc).__name__}", []
    # the file that verify, export or replay reads, failed or not
    read = getattr(args, "path", None) or getattr(args, "manifest_path", None)
    inputs = [] if read is None else [read]
    wall = time.perf_counter() - started
    parameters = {
        k: v
        for k, v in vars(args).items()
        if k not in ("handler", "manifest", "subcommand") and v is not None
    }
    try:
        _write_manifest(
            getattr(args, "manifest", None),
            args.subcommand,
            _drop_flag(argv, "--manifest"),
            parameters,
            inputs,
            outputs,
            wall,
            result,
        )
    except OSError as exc:
        return _fail(exc)
    return code


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
