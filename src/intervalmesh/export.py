"""DOT and CSV renderings of colorings.

Vertex names follow the ``x_<ring>_<layer>`` convention so drawings and
spreadsheets read the same way; rows and edge lines come out in the
canonical edge order, making both formats byte-stable.
"""

from __future__ import annotations

import csv
from itertools import chain
from types import SimpleNamespace

from .colorings import EdgeColoring
from .grids import GridVertex, MeshGraph, vertex_name

__all__ = ["to_dot", "to_csv"]


def to_dot(c: EdgeColoring) -> str:
    g = c.graph
    lines = [
        "graph coloring {",
        f'  label="{g.family.value} m={g.m} n={g.n} t={c.palette_size}";',
        "  node [shape=circle];",
    ]
    name = _names(g)
    for (u, v), color in zip(g.edges, c.aligned):
        lines.append(f'  {name[u]} -- {name[v]} [label="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_csv(c: EdgeColoring, rule_trace: tuple[str, ...] | None = None) -> str:
    """CSV rows u, v, rule, color; ``rule_trace`` is aligned with ``graph.edges``.

    The rows are written by one ``%s,%s,%s,%s`` template over one flat
    tuple.  Each rule cell is ``csv``'s own text, written once per distinct
    rule (once per row unless all are exact ``str``), and so is each color
    unless all are exact ints, whose text never needs quoting.
    """
    g = c.graph
    rules = rule_trace or ("",) * g.num_edges
    if set(map(type, rules)) <= {str}:
        rules = map({rule: _cell(rule) for rule in set(rules)}.__getitem__, rules)
    else:
        rules = map(_cell, rules)
    colors = c.aligned if set(map(type, c.aligned)) <= {int} else map(_cell, c.aligned)
    name = _names(g).__getitem__
    us, vs = zip(*g.edges)
    cells = zip(map(name, us), map(name, vs), rules, colors, strict=True)
    return "u,v,rule,color\n" + "%s,%s,%s,%s\n" * g.num_edges % tuple(chain.from_iterable(cells))


# csv's text of one row, returned by its file's ``write`` (``str``); the line
# end is the export's, since csv quotes a cell that holds one of its characters
_csv_row = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def _cell(value: object) -> str:
    """``value`` as ``csv.writer`` writes it past a row's first cell (where
    an empty string stays empty rather than the quoted ``""`` of a row of
    one empty cell)."""
    return _csv_row(("", value))[1:-1]


def _names(g: MeshGraph) -> dict[GridVertex, str]:
    """Each vertex's name, formatted once rather than once per incident edge."""
    return {v: vertex_name(v) for v in g.vertices}
