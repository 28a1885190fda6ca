"""Closed-form interval colorings of cylinder and torus grids.

``cylinder_coloring(m, n)`` paints the cylinder on m layers and 2n rings
with palette 1..3m+n-2.  ``torus_coloring(m, n)`` paints the torus on 2m
by 2n vertices with palette 1..max(3m+n, 3n+m); when m > n its rules
read each vertex as (ring, layer), the transposed torus's coordinates,
so the graph is built and verified once.  Every edge is painted by
exactly one named rule, a closed formula in the edge's coordinates
asked once per edge, and the rule trace, aligned with ``graph.edges``
like the colors, is kept, so exports can say which rule produced each
color.
Constructions verify their own output and fail loudly, naming a broken
vertex and its incident colors, rather than return a bad coloring.

``step_down`` converts an interval t-coloring into an interval
(t-1)-coloring by recoloring each color-t edge, whose two ends must share
one degree d < t, to t - d; ``spectrum_sweep`` iterates it to exhibit a
torus coloring for every palette size from the maximum down to 4.

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
)
from .grids import (
    Family,
    GridVertex,
    MeshGraph,
    _edge_name,
    _family,
    build_cylinder,
    build_torus,
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
    g: MeshGraph, rule: Callable[[GridVertex, GridVertex], tuple[int, str]], t: int
) -> ConstructionResult:
    """The verified coloring that ``rule`` gives each edge of ``g``.

    ``rule(a, b)`` returns the color and rule name of the edge from ``a``
    to ``b`` (a < b); it is asked once per edge, in ``graph.edges``
    order, so colors and trace come out aligned.
    """
    colors, rules = zip(*starmap(rule, g.edges))
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
    torus with the shorter factor as layers; for m > n they read each
    vertex through the coordinate swap (layer, ring) -> (ring, layer),
    which keeps every edge's endpoints in ascending order, and layers i
    and 2m+1-i (rings, when swapped) are painted alike.
    """
    g = build_torus(m, n)
    x, y = (1, 0) if m > n else (0, 1)
    m, n = min(m, n), max(m, n)

    def rule(a: GridVertex, b: GridVertex) -> tuple[int, str]:
        layer, j, layer2, j2 = a[x], a[y], b[x], b[y]
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

    return _paint(g, rule, 3 * n + m)


_CONSTRUCTIONS: dict[Family, Callable[[int, int], ConstructionResult]] = {
    Family.CYLINDER: cylinder_coloring,
    Family.TORUS: torus_coloring,
}


def step_down(c: EdgeColoring) -> EdgeColoring:
    """Interval (t-1)-coloring from an interval t-coloring.

    Each color-t edge must be balanced, its two ends of one degree d, with
    t > d.  Both ends then show the top window t-d+1..t, so the edge can
    take color t-d, and since the color-t edges form a matching each
    touched window slides down by one.  On a regular graph every edge is
    balanced.  Raises if the input does not verify, or a color-t edge is
    unbalanced (naming it) or already at t = d.  The result is verified
    before it is returned, so stepping it again finds its report already
    kept.
    """
    g = c.graph
    require_interval(c, InvalidColoringError, "step-down input")
    t = c.palette_size
    recolored = list(c.aligned)
    for p, color in enumerate(recolored):
        if color == t:
            a, b = g.edges[p]
            d, d2 = len(g.incident[a]), len(g.incident[b])
            if d != d2:
                raise CannotStepDownError(f"color-{t} edge {_edge_name(a, b)} joins degrees {d} and {d2}")
            if t <= d:
                raise CannotStepDownError(f"palette 1..{t} is already at the degree bound")
            recolored[p] = t - d
    return require_interval(EdgeColoring(g, tuple(recolored), t - 1), ConstructionError, "step-down")


def construct(family: Family | str, m: int, n: int, t: int | None = None) -> ConstructionResult:
    """The verified coloring of a named family at parameters (m, n) and palette t.

    Every named family has a construction in ``_CONSTRUCTIONS``.  With t
    None or the construction's own palette it is the construction, rule
    trace included.  A torus also takes any int t from its degree up, stepped
    down from the construction with no rule trace.  A cylinder takes no
    other t, although ``step_down`` takes C(m, 2n) down to its degree for
    m <= 2 and two palettes down for m >= 3; which others it is offered
    at is left to ROADMAP item 4.
    """
    family = _family(family)
    result = _CONSTRUCTIONS[family](m, n)
    c = result.coloring
    if t is None or (type(t) is int and t == c.palette_size):
        return result
    if family is Family.CYLINDER:
        raise InvalidParameterError(f"cylinder ({m},{n}) is constructible only at t={c.palette_size}")
    low = max_degree(c.graph)
    if type(t) is not int or not low <= t < c.palette_size:
        raise InvalidParameterError(
            f"{family.value} ({m},{n}) supports t in {low}..{c.palette_size}, got {t!r}"
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
