"""Closed-form interval colorings of cylinder and torus grids.

``cylinder_coloring(m, n)`` paints the cylinder on m layers and 2n rings
with palette 1..3m+n-2.  ``torus_coloring(m, n)`` paints the torus on 2m
by 2n vertices with palette 1..max(3m+n, 3n+m); when m > n it paints
the rules of the transposed torus through the factor-swap isomorphism,
so the graph is built and verified once.  Every edge is painted by
exactly one named rule and the rule trace, aligned with ``graph.edges``
like the colors, is kept, so exports can say which rule produced each
color.
Constructions verify their own output and fail loudly, naming a broken
vertex and its incident colors, rather than return a bad coloring.

``CONSTRUCTIONS`` maps each family that has one to its construction;
``construct(family, m, n)`` dispatches through it.

``step_down`` converts an interval t-coloring of a regular graph into an
interval (t-1)-coloring by recoloring the color-t edges to t - degree;
``step_down_to`` iterates it to a target palette and ``spectrum_sweep``
to exhibit a torus coloring for every palette size from the maximum down
to 4.  ``step_down`` verifies its result, and all three pass their output
through the gate ``require_interval``, which raises naming a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .colorings import EdgeColoring, require_interval
from .errors import (
    CannotStepDownError,
    ConstructionError,
    InvalidColoringError,
    InvalidParameterError,
    NotRegularError,
)
from .grids import (
    Family,
    GridVertex,
    MeshGraph,
    _edge_name,
    _family,
    build_cylinder,
    build_torus,
    is_regular,
    max_degree,
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
    """A verified coloring; ``rule_trace[i]`` names the rule that painted
    ``graph.edges[i]``."""

    coloring: EdgeColoring
    claimed_t: int
    rule_trace: tuple[str, ...]


class _Painter:
    """Collects rule assignments; repainting an edge must agree exactly.

    The torus rules touch the mid rung edges twice (the mirror image of
    layer m is layer m itself there); agreement is checked instead of
    silently overwriting.  With ``swap`` every vertex a rule names as
    (layer, ring) is painted at (ring, layer) instead.
    """

    def __init__(self, g: MeshGraph, swap: bool = False):
        self.g = g
        self.swap = swap
        self.colors: list[int | None] = [None] * g.num_edges
        self.rules: list[str | None] = [None] * g.num_edges

    def put(self, a: GridVertex, b: GridVertex, color: int, rule: str) -> None:
        if self.swap:
            a, b = a[::-1], b[::-1]
        i = self.g.position(a, b)
        if i is None:
            raise ConstructionError(f"rule {rule} painted a non-edge {_edge_name(a, b)}")
        if self.rules[i] is not None:
            if self.colors[i] != color or self.rules[i] != rule:
                raise ConstructionError(
                    f"rules {self.rules[i]} and {rule} disagree on {_edge_name(a, b)}: "
                    f"{self.colors[i]} vs {color}"
                )
            return
        self.colors[i] = color
        self.rules[i] = rule

    def finish(self, t: int) -> ConstructionResult:
        """The verified coloring, once every edge is painted."""
        unpainted = self.rules.count(None)
        if unpainted:
            first = _edge_name(*self.g.edges[self.rules.index(None)])
            raise ConstructionError(f"{unpainted} edges left unpainted, first {first}")
        coloring = require_interval(
            EdgeColoring(self.g, tuple(self.colors), t), ConstructionError, "construction"
        )
        return ConstructionResult(coloring, t, tuple(self.rules))


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
            p.put((i, j), (i, j + 1), 3 * i + j - 3, "ring-asc")
        for j in range(n + 2, width):
            p.put((i, j), (i, j + 1), 3 * i - j + 2 * n - 1, "ring-desc")
        p.put((i, 1), (i, width), 3 * i - 1, "ring-wrap")
    for i in range(1, m):
        for j in range(2, n + 2):
            p.put((i, j), (i + 1, j), 3 * i + j - 2, "rung-asc")
        for j in range(n + 2, width + 1):
            p.put((i, j), (i + 1, j), 3 * i - j + 2 * n + 1, "rung-desc")
        p.put((i, 1), (i + 1, 1), 3 * i, "rung-first")
    return p.finish(3 * m + n - 2)


def torus_coloring(m: int, n: int) -> ConstructionResult:
    """Interval coloring of the torus on 2m by 2n vertices.

    Palette is exactly max(3m+n, 3n+m).  The rules are written for the
    torus with the shorter factor as layers; for m > n they are painted
    through the coordinate swap (layer, ring) -> (ring, layer), and
    layers i and 2m+1-i (rings, when swapped) are painted alike.
    """
    g = build_torus(m, n)
    p = _Painter(g, swap=m > n)
    m, n = min(m, n), max(m, n)
    height = 2 * m
    width = 2 * n
    for i in range(1, m + 1):
        for layer in (i, 2 * m + 1 - i):
            for j in range(1, n + 2):
                p.put((layer, j), (layer, j + 1), i + 3 * j - 3, "ring-asc")
            for j in range(n + 2, width):
                p.put((layer, j), (layer, j + 1), i - 3 * j + 6 * n + 3, "ring-desc")
            p.put((layer, 1), (layer, width), i + 3, "ring-wrap")
        for top in (i, 2 * m - i):
            for j in range(2, n + 2):
                p.put((top, j), (top + 1, j), i + 3 * j - 4, "rung-asc")
            for j in range(n + 2, width + 1):
                p.put((top, j), (top + 1, j), i - 3 * j + 6 * n + 5, "rung-desc")
            p.put((top, 1), (top + 1, 1), i + 2, "rung-first")
    for j in range(3, n + 2):
        for ring in (j, width + 3 - j):
            p.put((1, ring), (height, ring), 3 * j - 4, "seam-mid")
    p.put((1, 1), (height, 1), 2, "seam-low")
    p.put((1, 2), (height, 2), 2, "seam-low")
    return p.finish(3 * n + m)


CONSTRUCTIONS: dict[Family, Callable[[int, int], ConstructionResult]] = {
    Family.CYLINDER: cylinder_coloring,
    Family.TORUS: torus_coloring,
}


def construct(family: Family | str, m: int, n: int) -> ConstructionResult:
    """The closed-form coloring of a named family at parameters (m, n)."""
    family = _family(family)
    if family not in CONSTRUCTIONS:
        raise InvalidParameterError(f"no construction for family {family.value}")
    return CONSTRUCTIONS[family](m, n)


def step_down(c: EdgeColoring) -> EdgeColoring:
    """Interval (t-1)-coloring from an interval t-coloring of a regular graph.

    Every endpoint of a color-t edge shows the top window t-d+1..t, so
    those edges can take color t-d without breaking properness, and each
    touched window slides down by one.  Raises if the graph is not
    regular, the input does not verify, or t is already the degree.  The
    result is verified before it is returned, so stepping it again finds
    its report already kept.
    """
    g = c.graph
    if not is_regular(g):
        raise NotRegularError("step-down needs a regular graph")
    require_interval(c, InvalidColoringError, "step-down input")
    d = max_degree(g)
    t = c.palette_size
    if t <= d:
        raise CannotStepDownError(f"palette 1..{t} is already at the degree bound")
    recolored = tuple(t - d if color == t else color for color in c.aligned)
    return require_interval(EdgeColoring(g, recolored, t - 1), ConstructionError, "step-down")


def step_down_to(c: EdgeColoring, t: int) -> EdgeColoring:
    """Interval t-coloring from ``c`` by repeated ``step_down``, verified;
    t above the palette of ``c`` is refused, since stepping only lowers it."""
    if t > c.palette_size:
        raise InvalidParameterError(f"cannot step palette 1..{c.palette_size} up to 1..{t}")
    while c.palette_size > t:
        c = step_down(c)
    return require_interval(c, ConstructionError, "stepped coloring")


def spectrum_sweep(m: int, n: int) -> list[EdgeColoring]:
    """Verified torus colorings for every palette size down to 4.

    Starts from ``torus_coloring(m, n)`` and applies ``step_down`` until
    the 4-regular degree bound; the result lists palettes
    max(3m+n, 3n+m), ..., 5, 4 in order.  Every coloring in it is
    verified.
    """
    out = [torus_coloring(m, n).coloring]
    while out[-1].palette_size > 4:
        out.append(step_down(out[-1]))
    require_interval(out[-1], ConstructionError, "stepped coloring")
    return out
