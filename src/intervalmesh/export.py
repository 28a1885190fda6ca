"""DOT and CSV renderings of colorings.

Vertex names follow the ``x_<ring>_<layer>`` convention so drawings and
spreadsheets read the same way; rows and edge lines come out in the
canonical edge order, making both formats byte-stable.
"""

from __future__ import annotations

import csv
import io

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
    """CSV rows u, v, rule, color; ``rule_trace`` is aligned with ``graph.edges``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["u", "v", "rule", "color"])
    rules = rule_trace or ("",) * c.graph.num_edges
    name = _names(c.graph)
    for (u, v), color, rule in zip(c.graph.edges, c.aligned, rules, strict=True):
        writer.writerow([name[u], name[v], rule, color])
    return buf.getvalue()


def _names(g: MeshGraph) -> dict[GridVertex, str]:
    """Each vertex's name, formatted once rather than once per incident edge."""
    return {v: vertex_name(v) for v in g.vertices}
