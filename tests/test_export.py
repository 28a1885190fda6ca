"""CSV export against the row-by-row ``csv.writer`` export it replaced."""

from __future__ import annotations

import csv
import io
from enum import IntEnum

import pytest

from intervalmesh import EdgeColoring
from intervalmesh.colorings import coloring_to_json_dict
from intervalmesh.constructions import construct
from intervalmesh.export import to_csv
from intervalmesh.grids import vertex_name


def reference_to_csv(c, rule_trace=None):
    """``to_csv`` as it was: one ``writerow`` per edge."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["u", "v", "rule", "color"])
    rules = ("",) * c.graph.num_edges if rule_trace is None else rule_trace
    name = {v: vertex_name(v) for v in c.graph.vertices}
    for (u, v), color, rule in zip(c.graph.edges, c.aligned, rules, strict=True):
        writer.writerow([name[u], name[v], rule, color])
    return buf.getvalue()


# every rule here but the plain ones needs csv's quoting, or is the empty
# cell that a row of one cell would quote
NEEDS_QUOTING = ["a,b", 'say "hi"', "two\nlines", "cr\r", '""', " lead", "", '"', "plain"]


class Shade(IntEnum):
    LIGHT = 1
    DARK = 2


class Tint(int):
    def __str__(self) -> str:
        return f"tint,{int(self)}"


def test_csv_matches_the_row_by_row_export_on_every_family():
    for family, m, n in (("cylinder", 1, 2), ("cylinder", 3, 4), ("torus", 2, 3), ("torus", 3, 2)):
        result = construct(family, m, n)
        for trace in (None, result.rule_trace):
            assert to_csv(result.coloring, trace) == reference_to_csv(result.coloring, trace)


def test_csv_quotes_rules_as_csv_does():
    c = construct("torus", 2, 2).coloring
    trace = tuple(NEEDS_QUOTING[i % len(NEEDS_QUOTING)] for i in range(c.graph.num_edges))
    assert to_csv(c, trace) == reference_to_csv(c, trace)
    for rule in NEEDS_QUOTING:
        same = (rule,) * c.graph.num_edges
        assert to_csv(c, same) == reference_to_csv(c, same)
    # rules that are not exact strings are written as csv writes them
    odd = (None, 1, 2.5, ["x", "y"], "a,b") * (c.graph.num_edges // 5) + ("",) * (
        c.graph.num_edges % 5)
    assert to_csv(c, odd) == reference_to_csv(c, odd)


def test_csv_writes_int_subclass_colors_as_csv_does():
    base = construct("cylinder", 1, 2).coloring
    for color in (Shade.LIGHT, Tint(1)):
        c = EdgeColoring(base.graph, (color, 2, 2, 3), 3)
        for trace in (None, ("a,b", "", " lead", "x")):
            assert to_csv(c, trace) == reference_to_csv(c, trace)


def test_a_trace_of_the_wrong_length_is_refused():
    c = construct("cylinder", 1, 2).coloring
    # an empty trace is a trace that covers no edge, not a missing one
    for trace in ((), ("a",), ("a",) * (c.graph.num_edges + 1)):
        for write in (to_csv, coloring_to_json_dict, reference_to_csv):
            with pytest.raises(ValueError):
                write(c, trace)
