"""Closed-form interval colorings of cylinder and torus grids.

``cylinder_coloring(m, n)`` paints the cylinder on m layers and 2n rings
with palette 1..3m+n-2.  ``torus_coloring(m, n)`` paints the torus on 2m
by 2n vertices with palette 1..max(3m+n, 3n+m); when m > n it paints
the rules of the transposed torus through the factor-swap isomorphism,
so the graph is built and verified once.  Every edge is painted by
exactly one named rule, a closed formula in the edge's coordinates
asked once per edge, and the rule trace, aligned with ``graph.edges``
like the colors, is kept, so exports can say which rule produced each
color.
Constructions verify their own output and fail loudly, naming a broken
vertex and its incident colors, rather than return a bad coloring.

``step_down`` converts an interval t-coloring of a regular graph into an
interval (t-1)-coloring by recoloring the color-t edges to t - degree;
``spectrum_sweep`` iterates it to exhibit a torus coloring for every
palette size from the maximum down to 4.

``construct(family, m, n, t)`` is the one place that decides the
palettes a family is generated at: a cylinder at its construction's
palette alone, a torus at any t from its degree 4 up to its
construction's, stepped down from that.  It reaches each family's
construction through the private table ``_CONSTRUCTIONS``.  Every
coloring here passes the gate ``require_interval``, which raises naming
a vertex.
"""

from __future__ import annotations

from itertools import starmap
from typing import Callable, NamedTuple

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
    _edge,
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
    "construct",
    "step_down",
    "spectrum_sweep",
]

class ConstructionResult(NamedTuple):
    """A verified coloring; ``rule_trace[i]`` names the rule that painted
    ``graph.edges[i]``, and is ``None`` for a stepped coloring."""

    coloring: EdgeColoring
    rule_trace: tuple[str, ...] | None


def _paint(
    g: MeshGraph, rule: Callable[[GridVertex, GridVertex], tuple[int, str]], t: int,
    swap: bool = False,
) -> ConstructionResult:
    """The verified coloring that ``rule`` gives each edge of ``g``.

    ``rule(a, b)`` returns the color and rule name of the edge from ``a``
    to ``b`` (a < b); it is asked once per edge, in ``graph.edges``
    order, so colors and trace come out aligned.  With ``swap`` every
    endpoint is read as (ring, layer) and the pair ordered again, so the
    rules of the transposed grid paint ``g``.
    """
    edges = [_edge(a[::-1], b[::-1]) for a, b in g.edges] if swap else g.edges
    colors, rules = zip(*starmap(rule, edges))
    coloring = require_interval(EdgeColoring(g, colors, t), ConstructionError, "construction")
    return ConstructionResult(coloring, rules)


def cylinder_coloring(m: int, n: int) -> ConstructionResult:
    """Interval coloring of the cylinder on m layers, 2n rings, palette 3m+n-2.

    Ring edges of layer i climb from 3i-2 at the first ring to 3i+n-2,
    then descend back; the wrap edge reuses 3i-1.  Rung colors between
    layers i and i+1 fill the same window shifted by one, so consecutive
    layers share enough colors to keep every vertex consecutive.
    """
    g = build_cylinder(m, n)

    def rule(a: GridVertex, b: GridVertex) -> tuple[int, str]:
        (i, j), (k, j2) = a, b
        if i == k:  # ring edge of layer i
            if j == 1 and j2 == 2 * n:
                return 3 * i - 1, "ring-wrap"
            if j <= n + 1:
                return 3 * i + j - 3, "ring-asc"
            return 3 * i - j + 2 * n - 1, "ring-desc"
        # rung edge (i, j)-(i+1, j)
        if j == 1:
            return 3 * i, "rung-first"
        if j <= n + 1:
            return 3 * i + j - 2, "rung-asc"
        return 3 * i - j + 2 * n + 1, "rung-desc"

    return _paint(g, rule, 3 * m + n - 2)


def torus_coloring(m: int, n: int) -> ConstructionResult:
    """Interval coloring of the torus on 2m by 2n vertices.

    Palette is exactly max(3m+n, 3n+m).  The rules are written for the
    torus with the shorter factor as layers; for m > n they are painted
    through the coordinate swap (layer, ring) -> (ring, layer), and
    layers i and 2m+1-i (rings, when swapped) are painted alike.
    """
    g = build_torus(m, n)
    swap = m > n
    m, n = min(m, n), max(m, n)

    def rule(a: GridVertex, b: GridVertex) -> tuple[int, str]:
        (layer, j), (layer2, j2) = a, b
        if layer == layer2:  # ring edge, painted like its mirror layer 2m+1-layer
            i = min(layer, 2 * m + 1 - layer)
            if j == 1 and j2 == 2 * n:
                return i + 3, "ring-wrap"
            if j <= n + 1:
                return i + 3 * j - 3, "ring-asc"
            return i - 3 * j + 6 * n + 3, "ring-desc"
        if layer2 == layer + 1:  # rung edge, painted like its mirror rung below 2m-layer
            i = min(layer, 2 * m - layer)
            if j == 1:
                return i + 2, "rung-first"
            if j <= n + 1:
                return i + 3 * j - 4, "rung-asc"
            return i - 3 * j + 6 * n + 5, "rung-desc"
        # seam edge (1, j)-(2m, j), painted like its mirror ring 2n+3-j
        if j <= 2:
            return 2, "seam-low"
        return 3 * min(j, 2 * n + 3 - j) - 4, "seam-mid"

    return _paint(g, rule, 3 * n + m, swap)


_CONSTRUCTIONS: dict[Family, Callable[[int, int], ConstructionResult]] = {
    Family.CYLINDER: cylinder_coloring,
    Family.TORUS: torus_coloring,
}


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


def construct(family: Family | str, m: int, n: int, t: int | None = None) -> ConstructionResult:
    """The verified coloring of a named family at parameters (m, n) and palette t.

    Every named family has a construction in ``_CONSTRUCTIONS``.  With t
    None or the construction's own palette it is the construction, rule
    trace included.  A torus also takes any t from its degree up, stepped
    down from the construction with no rule trace; a cylinder, C(1, 2n)
    included although that cycle is regular, takes no other t.
    """
    family = _family(family)
    result = _CONSTRUCTIONS[family](m, n)
    c = result.coloring
    if t is None or t == c.palette_size:
        return result
    if family is Family.CYLINDER:
        raise InvalidParameterError(f"cylinder ({m},{n}) is constructible only at t={c.palette_size}")
    low = max_degree(c.graph)
    if not low <= t < c.palette_size:
        raise InvalidParameterError(
            f"{family.value} ({m},{n}) supports t in {low}..{c.palette_size}, got {t}"
        )
    while c.palette_size > t:
        c = step_down(c)
    return ConstructionResult(require_interval(c, ConstructionError, "stepped coloring"), None)


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
