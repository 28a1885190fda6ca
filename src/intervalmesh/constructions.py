"""Closed-form interval colorings of cylinder and torus grids.

``cylinder_coloring(m, n)`` paints the cylinder on m layers and 2n rings
with palette 1..3m+n-2.  ``torus_coloring(m, n)`` paints the torus on 2m
by 2n vertices with palette 1..max(3m+n, 3n+m); when m > n it reads each
vertex as (ring, layer), the transposed torus's coordinates, so the
graph is built and verified once.  Each closed form is a term of the
edge's line plus one of its slot, read from tables built once per call
in O(m + n) that also name each slot's rule: a ring edge on layer i at
ring slot s takes ``layer[i] + ring[s]``, a rung at layer slot s on ring
j ``rung[s] + across[j]``.  One comprehension over ``graph.edges`` reads
the colors; the aligned rule trace, which exports use to say which rule
produced each color, is painted the same way from the rule rows on its
first read, so a bounds row paints none.
Constructions verify their own output and fail loudly, naming a broken
vertex and its incident colors, rather than return a bad coloring.

``step_down`` converts an interval t-coloring into an interval
(t-1)-coloring by recoloring each color-t edge, whose two ends must share
one degree d < t, to t - d; ``spectrum_sweep`` iterates it to exhibit a
torus coloring for every palette size from the maximum down to 4.

``construct(family, m, n, t)`` is the one place that decides the
palettes a family is generated at: a cylinder at its construction's
palette alone, a torus at any t from its degree 4 up to its
construction's, stepped down from that.  It picks the construction by
``Family.closed``: ``torus_coloring`` for a closed layer factor,
``cylinder_coloring`` for a path.  Every coloring here passes the gate
``require_interval``, which raises naming a vertex.
"""

from __future__ import annotations

from typing import NamedTuple

from .colorings import EdgeColoring, require_interval
from .errors import (
    CannotStepDownError,
    ConstructionError,
    InvalidColoringError,
    InvalidParameterError,
)
from .grids import (
    Family,
    MeshGraph,
    _admitted,
    _edge_name,
    _Record,
    build_cylinder,
    build_torus,
)

__all__ = [
    "ConstructionResult",
    "cylinder_coloring",
    "torus_coloring",
    "construct",
    "step_down",
    "spectrum_sweep",
]

class ConstructionResult(_Record):
    """A verified coloring; ``rule_trace[i]`` names the rule that painted
    ``graph.edges[i]``, and is ``None`` for a stepped coloring.

    A construction's trace is painted from its rule rows (``_Side.rule``
    of its ring edges, then of its rungs) on first read and kept in
    ``_trace``, so a caller that reads only the coloring paints none.
    Equality, hash and repr read ``coloring`` and ``rule_trace``.
    """

    __slots__ = ("coloring", "_rules", "_trace")
    _compared = ("coloring", "rule_trace")

    def __init__(self, coloring: EdgeColoring,
                 rules: tuple[list[list[str]], list[list[str]]] | None = None) -> None:
        self._fill(coloring, rules, None)

    @property
    def rule_trace(self) -> tuple[str, ...] | None:
        if self._trace is None and self._rules is not None:
            ring_rule, rung_rule = self._rules
            trace = tuple([
                ring_rule[j if l - j == 1 else l][i] if i == k
                else rung_rule[i if k - i == 1 else k][j]
                for (i, j), (k, l) in self.coloring.graph.edges
            ])
            object.__setattr__(self, "_trace", trace)
        return self._trace


class _Side(NamedTuple):
    """The tables that paint one kind of edge: on line x at slot s, color
    ``line[x] + slot[s]`` and rule ``rule[s][x]``.  Ring edge (x, j)-(x, j+1)
    is on layer x at slot j, the wrap (x, 1)-(x, R) at slot R; rung
    (i, x)-(i+1, x) on ring x at slot i, the seam (1, x)-(L, x) at slot L."""

    line: list[int]
    slot: list[int]
    rule: list[list[str]]


def _paint(g: MeshGraph, rings: _Side, rungs: _Side, t: int) -> ConstructionResult:
    """The verified coloring that paints the ring edges of ``g`` by
    ``rings`` and its rungs by ``rungs``, in ``graph.edges`` order, with no
    call per edge: one comprehension reads the colors, and the result
    keeps both sides' rule rows to paint its trace on first read."""
    (layer, ring, _), (across, rung, _) = rings, rungs
    colors = tuple([
        layer[i] + ring[j if l - j == 1 else l] if i == k
        else across[j] + rung[i if k - i == 1 else k]
        for (i, j), (k, l) in g.edges
    ])
    coloring = require_interval(EdgeColoring(g, colors, t), ConstructionError, "construction")
    return ConstructionResult(coloring, (rings.rule, rungs.rule))


def _rule_rows(n: int, lines: int) -> tuple[list[list[str]], list[str]]:
    """The rule rows of ring slots 0..2n, each read by lines 0..``lines``,
    and the rung rules by ring 0..2n: ascending up to n + 1, descending
    after, with the wrap and the first ring apart."""
    asc, desc, wrap = ([rule] * (lines + 1) for rule in ("ring-asc", "ring-desc", "ring-wrap"))
    return [asc] * (n + 2) + [desc] * (n - 2) + [wrap], (
        ["rung-first"] * 2 + ["rung-asc"] * n + ["rung-desc"] * (n - 1))


def cylinder_coloring(m: int, n: int) -> ConstructionResult:
    """Interval coloring of the cylinder on m layers, 2n rings, palette 3m+n-2.

    Ring edges of layer i climb from 3i-2 at the first ring to 3i+n-2,
    then descend back; the wrap edge reuses 3i-1.  Rung colors between
    layers i and i+1 fill the same window shifted by one, so consecutive
    layers share enough colors to keep every vertex consecutive.
    """
    g = build_cylinder(m, n)
    layer = [3 * i for i in range(m + 1)]  # also the rung term of layer slot i
    ring = [j - 3 if j <= n + 1 else 2 * n - 1 - j for j in range(2 * n)] + [-1]
    across = [0 if j == 1 else j - 2 if j <= n + 1 else 2 * n + 1 - j for j in range(2 * n + 1)]
    ring_rule, rung_rule = _rule_rows(n, m)
    rings, rungs = _Side(layer, ring, ring_rule), _Side(across, layer, [rung_rule] * m)
    return _paint(g, rings, rungs, _palette(Family.CYLINDER, m, n))


def torus_coloring(m: int, n: int) -> ConstructionResult:
    """Interval coloring of the torus on 2m by 2n vertices.

    Palette is exactly max(3m+n, 3n+m).  The tables are written for the
    torus with the shorter factor as layers; for m > n each edge is read
    through the coordinate swap (layer, ring) -> (ring, layer), which
    trades ring edges for rungs, so the two sides are exchanged.  Layers
    i and 2m+1-i (rings, when swapped) are painted alike.
    """
    g = build_torus(m, n)
    swap = m > n
    m, n = min(m, n), max(m, n)
    layer = [min(i, 2 * m + 1 - i) for i in range(2 * m + 1)]
    rung = [min(s, 2 * m - s) for s in range(2 * m + 1)]  # 0 at the seam, slot 2m
    ring = [3 * j - 3 if j <= n + 1 else 6 * n + 3 - 3 * j for j in range(2 * n)] + [3]
    across = [2 if j == 1 else 3 * j - 4 if j <= n + 1 else 6 * n + 5 - 3 * j for j in range(2 * n + 1)]
    ring_rule, rung_rule = _rule_rows(n, 2 * m)
    seam_rule = ["seam-low"] * 3 + ["seam-mid"] * (2 * n - 2)
    rings = _Side(layer, ring, ring_rule)
    rungs = _Side(across, rung, [rung_rule] * 2 * m + [seam_rule])
    if swap:
        rings, rungs = rungs, rings
    return _paint(g, rings, rungs, _palette(Family.TORUS, m, n))


def _palette(family: Family, m: int, n: int) -> int:
    """The palette of the family's construction at (m, n), unbuilt."""
    return 3 * max(m, n) + min(m, n) if family.closed else 3 * m + n - 2


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
            a, b = g.ends[p]
            d, d2 = g.degree[a], g.degree[b]
            if d != d2:
                name = _edge_name(*g.edges[p])
                raise CannotStepDownError(f"color-{t} edge {name} joins degrees {d} and {d2}")
            if t <= d:
                raise CannotStepDownError(f"palette 1..{t} is already at the degree bound")
            recolored[p] = t - d
    return require_interval(EdgeColoring(g, tuple(recolored), t - 1), ConstructionError, "step-down")


def construct(family: Family | str, m: int, n: int, t: int | None = None) -> ConstructionResult:
    """The verified coloring of a named family at parameters (m, n) and palette t.

    Each named family has one construction, ``torus_coloring`` when its
    layer factor is closed and ``cylinder_coloring`` when not.  With t
    None or the construction's own palette it is the construction, rule
    trace included.  A torus also takes any int t from its degree up, stepped
    down from the construction with no rule trace.  A cylinder takes no
    other t, although ``step_down`` takes C(m, 2n) down to its degree for
    m <= 2 and two palettes down for m >= 3; which others it is offered
    at is left to ROADMAP item 4.  Any other t is refused by the closed-form
    palette, after the range of (m, n) and before anything is built.
    """
    family = _admitted(family, m, n)
    top = _palette(family, m, n)
    if t is None or (type(t) is int and t == top):
        return (torus_coloring if family.closed else cylinder_coloring)(m, n)
    if not family.closed:
        raise InvalidParameterError(f"cylinder ({m},{n}) is constructible only at t={top}")
    # a torus is 4-regular
    if type(t) is not int or not 4 <= t < top:
        raise InvalidParameterError(f"torus ({m},{n}) supports t in 4..{top}, got {t!r}")
    c = torus_coloring(m, n).coloring
    while c.palette_size > t:
        c = step_down(c)
    return ConstructionResult(require_interval(c, ConstructionError, "stepped coloring"))


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
