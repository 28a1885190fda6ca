"""In-memory span recorder for the benchmark's traced runs.

Layer boundaries are the package's public functions.  Each one is wrapped
once and the wrapper is bound under every name through which the package
calls it: module attributes (``bounds.diameter``, ``cli.verify_interval``,
``search.theorem1_upper`` ...) and values of module-level dicts such as
the family-to-builder table the JSON parser rebuilds graphs with.  No
source file of the package changes.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span and ``op`` the benchmark operation it belongs to.
Counts that come from return values (search nodes, JSON bytes) are kept
as events tagged with the same operation.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from types import ModuleType

# (span name, defining module, function) for every traced boundary.
LAYER_FUNCTIONS = (
    ("grids.build", "grids", "build_cylinder"),
    ("grids.build", "grids", "build_torus"),
    ("grids.diameter", "grids", "diameter"),
    ("grids.dumps", "grids", "dumps_canonical"),
    ("constructions.construct", "constructions", "cylinder_coloring"),
    ("constructions.construct", "constructions", "torus_coloring"),
    ("constructions.step_down", "constructions", "step_down"),
    ("colorings.verify", "colorings", "verify_interval"),
    ("colorings.to_json", "colorings", "coloring_to_json_dict"),
    ("colorings.from_json", "colorings", "coloring_from_json_dict"),
    ("export.csv", "export", "to_csv"),
    ("export.dot", "export", "to_dot"),
    ("bounds.row", "bounds", "bounds_row"),
    ("bounds.lower_bound", "bounds", "lower_bound"),
    ("bounds.theorem1_upper", "bounds", "theorem1_upper"),
    ("search.decide", "search", "find_interval_coloring"),
    ("search.scan", "search", "exact_w"),
    ("search.scan", "search", "exact_W"),
    ("cli.run", "cli", "run"),
)

# Per-layer metrics in the order they are printed: name -> unit.
PER_LAYER_UNITS = {
    "grids.build.calls": "count",
    "grids.build.ms": "ms",
    "grids.diameter.calls": "count",
    "grids.diameter.ms": "ms",
    "grids.diameter.per_row": "ratio",
    "grids.dumps.ms": "ms",
    "colorings.json_bytes": "bytes",
    "constructions.construct.calls": "count",
    "constructions.construct.ms": "ms",
    "constructions.construct.self_ms": "ms",
    "constructions.step_down.calls": "count",
    "constructions.step_down.ms": "ms",
    "constructions.step_down.self_ms": "ms",
    "colorings.verify.calls": "count",
    "colorings.verify.ms": "ms",
    "colorings.verify.per_step_down": "ratio",
    "colorings.to_json.ms": "ms",
    "colorings.to_json.self_ms": "ms",
    "colorings.from_json.ms": "ms",
    "colorings.from_json.self_ms": "ms",
    "export.csv.ms": "ms",
    "export.dot.ms": "ms",
    "bounds.row.calls": "count",
    "bounds.row.self_ms": "ms",
    "bounds.lower_bound.ms": "ms",
    "bounds.theorem1_upper.ms": "ms",
    "search.decide.calls": "count",
    "search.decide.ms": "ms",
    "search.nodes": "count",
    "search.found.nodes": "count",
    "search.absent.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.scan.decisions": "count",
    "search.budget_exceeded": "count",
    "cli.interp_ms": "ms",
    "cli.startup_ms": "ms",
    "cli.run.ms": "ms",
}

# Deterministic counts: two runs of the same code and seed agree exactly.
DETERMINISTIC = tuple(
    name
    for name, unit in PER_LAYER_UNITS.items()
    if unit in ("count", "bytes", "ratio")
)


class Tracer:
    """Records spans and events in memory once installed.

    A span's slot is reserved when its call starts and filled when it
    returns, so parents get lower indices than their children.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.events: list[tuple[int | None, str, object, int]] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(self, args, value)
            return value

        return traced

    def event(self, key: str, detail: object, value: int) -> None:
        self.events.append((self.op, key, detail, value))

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Bind a wrapper under every name that refers to a layer function."""
        targets = list(modules.values())
        for name, home, attr in LAYER_FUNCTIONS:
            original = getattr(modules[home], attr, None)
            if original is None:
                # the function is gone from this commit; its metrics read 0
                continue
            wrapper = self.wrap(name, original, _AFTER.get(name))
            for module in targets:
                for key, value in list(vars(module).items()):
                    if key.startswith("__"):
                        continue
                    if value is original:
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper

    def dump(self, path) -> None:
        """Write every span as one JSON array per line, times in ms."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start * 1e3, end * 1e3, parent, op]) + "\n")

    def layer_metrics(self, ops: range) -> dict[str, float]:
        """Aggregate spans and events of the operations in ``ops``."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[3] is not None and span[4] in ops:
                child[span[3]] += span[2] - span[1]
        own: dict[str, float] = defaultdict(float)
        scan_decisions = 0
        for index, span in enumerate(self.spans):
            if span[4] not in ops:
                continue
            name, start, end, parent, _ = span
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[index]
            if name == "search.decide" and self._inside(parent, "search.scan"):
                scan_decisions += 1
        counts: dict[str, int] = defaultdict(int)
        for op, key, _, value in self.events:
            if op in ops:
                counts[key] += value

        def ms(name: str) -> float:
            return total[name] * 1e3

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "grids.build.calls": calls["grids.build"],
            "grids.build.ms": ms("grids.build"),
            "grids.diameter.calls": calls["grids.diameter"],
            "grids.diameter.ms": ms("grids.diameter"),
            "grids.diameter.per_row": ratio(calls["grids.diameter"], calls["bounds.row"]),
            "grids.dumps.ms": ms("grids.dumps"),
            "colorings.json_bytes": counts["colorings.json_bytes"],
            "constructions.construct.calls": calls["constructions.construct"],
            "constructions.construct.ms": ms("constructions.construct"),
            "constructions.construct.self_ms": own["constructions.construct"] * 1e3,
            "constructions.step_down.calls": calls["constructions.step_down"],
            "constructions.step_down.ms": ms("constructions.step_down"),
            "constructions.step_down.self_ms": own["constructions.step_down"] * 1e3,
            "colorings.verify.calls": calls["colorings.verify"],
            "colorings.verify.ms": ms("colorings.verify"),
            "colorings.verify.per_step_down": ratio(
                calls["colorings.verify"], calls["constructions.step_down"]
            ),
            "colorings.to_json.ms": ms("colorings.to_json"),
            "colorings.to_json.self_ms": own["colorings.to_json"] * 1e3,
            "colorings.from_json.ms": ms("colorings.from_json"),
            "colorings.from_json.self_ms": own["colorings.from_json"] * 1e3,
            "export.csv.ms": ms("export.csv"),
            "export.dot.ms": ms("export.dot"),
            "bounds.row.calls": calls["bounds.row"],
            "bounds.row.self_ms": own["bounds.row"] * 1e3,
            "bounds.lower_bound.ms": ms("bounds.lower_bound"),
            "bounds.theorem1_upper.ms": ms("bounds.theorem1_upper"),
            "search.decide.calls": calls["search.decide"],
            "search.decide.ms": ms("search.decide"),
            "search.nodes": counts["search.nodes"],
            "search.found.nodes": counts["search.found.nodes"],
            "search.absent.nodes": counts["search.absent.nodes"],
            "search.nodes_per_s": ratio(counts["search.nodes"], total["search.decide"]),
            "search.scan.decisions": scan_decisions,
            "search.budget_exceeded": counts["search.budget_exceeded"],
            "cli.run.ms": ms("cli.run"),
        }

    def node_counts(self, ops: range) -> dict[str, int]:
        """Search nodes per (graph, palette) pair, first decision of each."""
        out: dict[str, int] = {}
        for op, key, detail, value in self.events:
            if key == "search.nodes" and op in ops and detail not in out:
                out[detail] = value
        return dict(sorted(out.items()))

    def _inside(self, index: int | None, name: str) -> bool:
        while index is not None:
            span = self.spans[index]
            if span[0] == name:
                return True
            index = span[3]
        return False


def _after_decide(tracer: Tracer, args: tuple, result) -> None:
    g, t = args[0], args[1]
    label = f"{g.family.value}({g.m},{g.n}) t={t}"
    tracer.event("search.nodes", label, result.nodes)
    outcome = result.outcome.value
    if outcome == "found":
        tracer.event("search.found.nodes", label, result.nodes)
    elif outcome == "absent":
        tracer.event("search.absent.nodes", label, result.nodes)
    else:
        tracer.event("search.budget_exceeded", label, 1)


def _after_dumps(tracer: Tracer, args: tuple, text: str) -> None:
    doc = args[0]
    if isinstance(doc, dict) and ("edges" in doc or "colorings" in doc):
        # canonical JSON is ASCII (ensure_ascii), so characters are bytes
        tracer.event("colorings.json_bytes", None, len(text))


_AFTER = {"search.decide": _after_decide, "grids.dumps": _after_dumps}
