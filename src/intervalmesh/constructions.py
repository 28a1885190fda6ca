"""Closed-form interval colorings of cylinder and torus grids.

``cylinder_coloring(m, n)`` paints the cylinder on m layers and 2n rings
with palette 1..3m+n-2.  ``torus_coloring(m, n)`` paints the torus on 2m
by 2n vertices with palette 1..max(3m+n, 3n+m); when m > n it colors the
transposed torus and pulls the result back through the factor-swap
isomorphism.  Every edge is painted by exactly one named rule and the
rule trace is kept, so exports can say which rule produced each color.
Constructions verify their own output and fail loudly, naming a broken
vertex and its incident colors, rather than return a bad coloring.

``CONSTRUCTIONS`` maps each family that has one to its construction;
``construct(family, m, n)`` dispatches through it.

``step_down`` converts an interval t-coloring of a regular graph into an
interval (t-1)-coloring by recoloring the color-t edges to t - degree;
``step_down_to`` iterates it to a target palette and ``spectrum_sweep``
to exhibit a torus coloring for every palette size from the maximum down
to 4.  Both verify the last coloring of the chain before returning it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .colorings import EdgeColoring, verify_interval
from .errors import (
    CannotStepDownError,
    ConstructionError,
    InvalidColoringError,
    InvalidParameterError,
    NotRegularError,
)
from .grids import (
    Edge,
    Family,
    GridVertex,
    MeshGraph,
    build_cylinder,
    build_torus,
    is_regular,
    max_degree,
    vertex_name,
)

__all__ = [
    "ConstructionResult",
    "cylinder_coloring",
    "torus_coloring",
    "CONSTRUCTIONS",
    "construct",
    "step_down",
    "step_down_to",
    "spectrum_sweep",
    "CYLINDER_RULES",
    "TORUS_RULES",
]

CYLINDER_RULES = (
    "ring-asc",
    "ring-desc",
    "ring-wrap",
    "rung-asc",
    "rung-desc",
    "rung-first",
)

TORUS_RULES = CYLINDER_RULES + ("seam-mid", "seam-low")


@dataclass(frozen=True)
class ConstructionResult:
    """A verified coloring plus the rule that painted each edge."""

    coloring: EdgeColoring
    claimed_t: int
    rule_trace: dict[Edge, str]


class _Painter:
    """Collects rule assignments; repainting an edge must agree exactly.

    The torus rules touch the mid rung edges twice (the mirror image of
    layer m is layer m itself there); agreement is asserted instead of
    silently overwriting.
    """

    def __init__(self, g: MeshGraph):
        self.g = g
        self.colors: dict[Edge, int] = {}
        self.trace: dict[Edge, str] = {}

    def put(self, a: GridVertex, b: GridVertex, color: int, rule: str) -> None:
        e = Edge.between(a, b)
        if e not in self.g.edge_set:
            raise ConstructionError(f"rule {rule} painted a non-edge {e}")
        if e in self.colors:
            if self.colors[e] != color or self.trace[e] != rule:
                raise ConstructionError(
                    f"rules {self.trace[e]} and {rule} disagree on {e}: "
                    f"{self.colors[e]} vs {color}"
                )
            return
        self.colors[e] = color
        self.trace[e] = rule


def _checked(coloring: EdgeColoring) -> EdgeColoring:
    """The coloring itself once it verifies; otherwise name where it broke."""
    report = verify_interval(coloring)
    if not report.interval:
        for entry in report.entries:
            if not (entry.proper and entry.is_interval):
                raise ConstructionError(
                    f"construction broke at vertex {vertex_name(entry.vertex)}: "
                    f"incident colors {entry.colors}"
                )
        raise ConstructionError(
            f"construction left palette 1..{coloring.palette_size} uncovered; "
            f"used {sorted(set(coloring.colors.values()))}"
        )
    return coloring


def _finalize(
    g: MeshGraph, colors: dict[Edge, int], trace: dict[Edge, str], t: int
) -> ConstructionResult:
    unpainted = g.edge_set.difference(colors)
    if unpainted:
        raise ConstructionError(
            f"{len(unpainted)} edges left unpainted, first {min(unpainted)}"
        )
    coloring = _checked(EdgeColoring(g, colors, t))
    return ConstructionResult(coloring=coloring, claimed_t=t, rule_trace=trace)


def cylinder_coloring(m: int, n: int) -> ConstructionResult:
    """Interval coloring of the cylinder on m layers, 2n rings, palette 3m+n-2.

    Ring edges of layer i climb from 3i-2 at the first ring to 3i+n-2,
    then descend back; the wrap edge reuses 3i-1.  Rung colors between
    layers i and i+1 fill the same window shifted by one, so consecutive
    layers share enough colors to keep every vertex consecutive.
    """
    g = build_cylinder(m, n)
    p = _Painter(g)
    width = 2 * n
    for i in range(1, m + 1):
        for j in range(1, n + 2):
            p.put(GridVertex(i, j), GridVertex(i, j + 1), 3 * i + j - 3, "ring-asc")
        for j in range(n + 2, width):
            p.put(
                GridVertex(i, j), GridVertex(i, j + 1), 3 * i - j + 2 * n - 1, "ring-desc"
            )
        p.put(GridVertex(i, 1), GridVertex(i, width), 3 * i - 1, "ring-wrap")
    for i in range(1, m):
        for j in range(2, n + 2):
            p.put(GridVertex(i, j), GridVertex(i + 1, j), 3 * i + j - 2, "rung-asc")
        for j in range(n + 2, width + 1):
            p.put(
                GridVertex(i, j), GridVertex(i + 1, j), 3 * i - j + 2 * n + 1, "rung-desc"
            )
        p.put(GridVertex(i, 1), GridVertex(i + 1, 1), 3 * i, "rung-first")
    return _finalize(g, p.colors, p.trace, 3 * m + n - 2)


def _torus_coloring_direct(m: int, n: int) -> ConstructionResult:
    """Torus coloring for m <= n: layers i and 2m+1-i are painted alike."""
    assert m <= n
    g = build_torus(m, n)
    p = _Painter(g)
    height = 2 * m
    width = 2 * n
    for i in range(1, m + 1):
        for layer in (i, 2 * m + 1 - i):
            for j in range(1, n + 2):
                p.put(
                    GridVertex(layer, j),
                    GridVertex(layer, j + 1),
                    i + 3 * j - 3,
                    "ring-asc",
                )
            for j in range(n + 2, width):
                p.put(
                    GridVertex(layer, j),
                    GridVertex(layer, j + 1),
                    i - 3 * j + 6 * n + 3,
                    "ring-desc",
                )
            p.put(GridVertex(layer, 1), GridVertex(layer, width), i + 3, "ring-wrap")
        for top in (i, 2 * m - i):
            for j in range(2, n + 2):
                p.put(
                    GridVertex(top, j),
                    GridVertex(top + 1, j),
                    i + 3 * j - 4,
                    "rung-asc",
                )
            for j in range(n + 2, width + 1):
                p.put(
                    GridVertex(top, j),
                    GridVertex(top + 1, j),
                    i - 3 * j + 6 * n + 5,
                    "rung-desc",
                )
            p.put(GridVertex(top, 1), GridVertex(top + 1, 1), i + 2, "rung-first")
    for j in range(3, n + 2):
        for ring in (j, width + 3 - j):
            p.put(GridVertex(1, ring), GridVertex(height, ring), 3 * j - 4, "seam-mid")
    p.put(GridVertex(1, 1), GridVertex(height, 1), 2, "seam-low")
    p.put(GridVertex(1, 2), GridVertex(height, 2), 2, "seam-low")
    return _finalize(g, p.colors, p.trace, 3 * n + m)


def torus_coloring(m: int, n: int) -> ConstructionResult:
    """Interval coloring of the torus on 2m by 2n vertices.

    Palette is exactly max(3m+n, 3n+m).  The direct rules need m <= n;
    for m > n the transposed torus is colored and mapped back through
    the coordinate swap (layer, ring) -> (ring, layer).
    """
    if m > n:
        base = _torus_coloring_direct(n, m)
        g = build_torus(m, n)
        colors: dict[Edge, int] = {}
        trace: dict[Edge, str] = {}
        for e, color in base.coloring.colors.items():
            swapped = Edge.between(
                GridVertex(e.u.ring, e.u.layer), GridVertex(e.v.ring, e.v.layer)
            )
            colors[swapped] = color
            trace[swapped] = base.rule_trace[e]
        return _finalize(g, colors, trace, base.claimed_t)
    return _torus_coloring_direct(m, n)


CONSTRUCTIONS: dict[Family, Callable[[int, int], ConstructionResult]] = {
    Family.CYLINDER: cylinder_coloring,
    Family.TORUS: torus_coloring,
}


def construct(family: Family | str, m: int, n: int) -> ConstructionResult:
    """The closed-form coloring of a named family at parameters (m, n)."""
    family = Family(family)
    if family not in CONSTRUCTIONS:
        raise InvalidParameterError(f"no construction for family {family.value}")
    return CONSTRUCTIONS[family](m, n)


def step_down(c: EdgeColoring) -> EdgeColoring:
    """Interval (t-1)-coloring from an interval t-coloring of a regular graph.

    Every endpoint of a color-t edge shows the top window t-d+1..t, so
    those edges can take color t-d without breaking properness, and each
    touched window slides down by one.  Raises if the graph is not
    regular, the input does not verify, or t is already the degree.
    """
    g = c.graph
    if not is_regular(g):
        raise NotRegularError("step-down needs a regular graph")
    report = verify_interval(c)
    if not report.interval:
        bad = report.violating_vertices
        where = f" at vertex {vertex_name(bad[0])}" if bad else " (palette uncovered)"
        raise InvalidColoringError(f"step-down input is not an interval coloring{where}")
    d = max_degree(g)
    t = c.palette_size
    if t <= d:
        raise CannotStepDownError(f"palette 1..{t} is already at the degree bound")
    recolored = {
        e: (t - d if color == t else color) for e, color in c.colors.items()
    }
    return EdgeColoring(g, recolored, t - 1)


def step_down_to(c: EdgeColoring, t: int) -> EdgeColoring:
    """Interval t-coloring from ``c`` by repeated ``step_down``, verified once."""
    while c.palette_size > t:
        c = step_down(c)
    return _checked(c)


def spectrum_sweep(m: int, n: int) -> list[EdgeColoring]:
    """Verified torus colorings for every palette size down to 4.

    Starts from ``torus_coloring(m, n)`` and applies ``step_down`` until
    the 4-regular degree bound; the result lists palettes
    max(3m+n, 3n+m), ..., 5, 4 in order.  Each step checks its input, and
    the last coloring is verified before it is returned.
    """
    out = [torus_coloring(m, n).coloring]
    while out[-1].palette_size > 4:
        out.append(step_down(out[-1]))
    _checked(out[-1])
    return out
