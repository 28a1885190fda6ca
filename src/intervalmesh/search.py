"""Exhaustive backtracking search for interval t-colorings.

This is the package's independent oracle: small instances are decided
exactly, with a three-valued outcome so a truncated search is never
mistaken for a proof of absence.  Edge order (breadth-first from the
least vertex), color order (ascending), and pruning are all fixed, so
identical queries give identical results.

Every color placed bounds the colors of every vertex by a path-weight
distance (the Asratian-Kamalian argument behind W <= diam(G)(Δ-1)+1,
applied to a partial coloring).  An edge only tries the colors inside
both endpoints' bounds (a node is one such attempt), a placement that
leaves some vertex too few colors is refused, and the first edge's
colors are halved by the color-reversal symmetry;
``find_interval_coloring`` gives the arguments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush

from .bounds import theorem1_upper
from .colorings import EdgeColoring, require_interval
from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    InvalidColoringError,
    InvalidParameterError,
    NotIntervalColorableError,
)
from .grids import GridVertex, MeshGraph, _bfs, max_degree

__all__ = [
    "SearchBudget",
    "Outcome",
    "SearchResult",
    "find_interval_coloring",
    "edge_cap_refusal",
    "exact_w",
    "exact_W",
    "DEFAULT_MAX_EDGES",
]

DEFAULT_MAX_EDGES = 16

_TIME_CHECK_MASK = 0x3FF  # consult the clock every 1024 nodes


@dataclass(frozen=True)
class SearchBudget:
    """Limits for one exhaustive search.

    ``max_edges`` refuses larger instances outright; ``max_nodes`` caps
    backtracking nodes (color attempts); ``time_cap_s`` is wall time in
    seconds and must be ``>= 0`` (NaN is not).  ``None`` disables a cap.
    """

    max_edges: int = DEFAULT_MAX_EDGES
    max_nodes: int | None = None
    time_cap_s: float | None = None

    def __post_init__(self) -> None:
        # a NaN cap would compare False with every elapsed time and never stop
        if self.time_cap_s is not None and not self.time_cap_s >= 0:
            raise InvalidParameterError(
                f"time cap must be a number >= 0 seconds, got {self.time_cap_s}"
            )


class Outcome(str, Enum):
    FOUND = "found"
    ABSENT = "absent"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchResult:
    outcome: Outcome
    coloring: EdgeColoring | None
    nodes: int
    detail: str = ""
    pruned: int = 0  # attempts refused by the distance bound


def edge_cap_refusal(num_edges: int, budget: SearchBudget) -> SearchResult | None:
    """The result for an instance of ``num_edges`` edges over the budget's
    edge cap, or None when the instance fits."""
    if num_edges <= budget.max_edges:
        return None
    return SearchResult(
        Outcome.BUDGET_EXCEEDED,
        None,
        0,
        f"instance has {num_edges} edges, budget allows {budget.max_edges}",
    )


def _bfs_edge_order(g: MeshGraph) -> list[int]:
    """Edge positions in breadth-first discovery order from the least vertex.

    Each vertex, in discovery order, lists its edges not listed yet;
    ``g.incident[u]`` runs in ascending order of the other endpoint.
    """
    reached = _bfs(g, g.vertices[0])
    if len(reached) != g.num_vertices:
        raise DisconnectedGraphError("search requires a connected graph")
    return list(dict.fromkeys([i for u in reached for i in g.incident[u]]))


def _path_weights(g: MeshGraph, index: dict[GridVertex, int]) -> list[list[int]]:
    """Least vertex-weighted path lengths, by vertex ``index`` (its position
    in ``g.vertices``).

    Entry [x][v] is the least sum of d(w) - 1 over the vertices w of a
    path from x to v, both ends included, so [x][x] is d(x) - 1.  In an
    interval coloring two colors seen at x and at v differ by at most
    this much: consecutive edges of the path share a vertex w, whose
    colors lie within d(w) - 1 of each other.  Dijkstra from every vertex.
    """
    weight = [g.degree(v) - 1 for v in g.vertices]
    neighbours: list[list[int]] = [[] for _ in weight]
    for a, b in g.edges:
        neighbours[index[a]].append(index[b])
        neighbours[index[b]].append(index[a])
    table = []
    for x, wx in enumerate(weight):
        dist: list[int | None] = [None] * len(weight)
        heap = [(wx, x)]
        while heap:
            d, u = heappop(heap)
            if dist[u] is not None:
                continue
            dist[u] = d
            for w in neighbours[u]:
                if dist[w] is None:
                    heappush(heap, (d + weight[w], w))
        table.append(dist)
    return table


def find_interval_coloring(
    g: MeshGraph, t: int, budget: SearchBudget | None = None
) -> SearchResult:
    """Decide whether ``g`` has an interval t-coloring, within a budget.

    Edges are colored in breadth-first order, each with colors ascending;
    one color attempt is one node.  A color c on an edge (a, b) confines
    every color at a vertex v to [c - r, c + r], where r is the lesser
    path weight (``_path_weights``) from a or from b to v.  Every vertex
    keeps the bounds [L, U] that the placed colors give it, and an edge
    tries only the colors inside both endpoints' bounds, 1..t and above
    the last color it tried.  An attempt is refused when the color
    repeats at an endpoint, when fewer edges would remain than colors
    still unused, or, counted in ``pruned``, when the tightened bounds
    leave some vertex of degree d fewer than d colors, or leave no vertex
    able to take an unused color 1 or t.  The first edge never takes a
    color above (t+1)//2: c -> t+1-c maps interval t-colorings to
    interval t-colorings, and the search returns the least coloring in
    its edge order, whose first color is the smaller of a mirrored pair.
    Outcome ``absent`` is only reported after the whole tree has been
    exhausted, or at once when t exceeds the edge count or falls below
    the maximum degree.  A found coloring is verified before it is
    returned.

    A vertex's bounds are kept as the set of colors that can start its
    run of d consecutive colors, one bit field per vertex in a single
    int: a placement is one AND with a precomputed mask, and one
    addition tests every field for emptiness at once.
    """
    if t < 1:
        raise InvalidParameterError(f"palette size must be >= 1, got {t}")
    if budget is None:
        budget = SearchBudget()
    refused = edge_cap_refusal(g.num_edges, budget)
    if refused is not None:
        return refused
    order = _bfs_edge_order(g)
    num_edges = len(order)
    degree = [g.degree(v) for v in g.vertices]
    if t > num_edges or t < max(degree):
        # each color of a surjective coloring needs an edge of its own, and
        # each vertex a color per edge
        return SearchResult(Outcome.ABSENT, None, 0)
    index = {v: i for i, v in enumerate(g.vertices)}
    ends = [(index[a], index[b]) for a, b in (g.edges[i] for i in order)]
    weights = _path_weights(g, index)
    # Vertex v owns bits [v*width, (v+1)*width) of a start set; bit
    # v*width + base + s set: v's run of colors may start at s.  A color c
    # at x confines v's colors to [c - r, c + r], r = weights[x][v], and a
    # reach of t - 1 confines nothing, so base >= every reach that matters
    # keeps the cuts below non-negative.  The top bit of a field takes the
    # carry of the emptiness test.
    base = min(t - 1, max(map(max, weights)))
    width = base + t + 2
    field = (1 << width) - 1
    offset = [v * width + base for v in range(len(degree))]
    allowed = carry_in = carry_out = can_top = can_bottom = 0
    for o, d in zip(offset, degree):
        allowed |= ((1 << (t - d + 1)) - 1) << (o + 1)
        carry_in |= ((1 << t) - 1) << (o + 1)
        carry_out |= 1 << (o + t + 1)
        can_top |= 1 << (o + t - d + 1)
        can_bottom |= 1 << (o + 1)
    # cut[x]: the starts c-r..c+r-d+1 of every v for a color c at x, less
    # the shift by c; a color on edge (a, b) cuts with cut[a] & cut[b]
    cut = []
    for row in weights:
        bits = 0
        for p, d, o in zip(row, degree, offset):
            r = min(p, base)
            bits |= ((1 << (2 * r - d + 2)) - 1) << (o - r)
        cut.append(bits)
    # per edge: endpoints, their field offsets, the terms that turn a
    # field's top bit into its top color, and the cut
    edge_plan = [
        (a, b, offset[a] - base, offset[b] - base, degree[a] - base - 2,
         degree[b] - base - 2, cut[a] & cut[b])
        for a, b in ends
    ]
    low = base + 1  # bit_length of a field's start-1 bit, less one color

    state = [allowed] + [0] * num_edges  # start sets before each edge
    mask = [0] * len(degree)  # bit c set: color c sits at the vertex
    used_count = [0] * (t + 1)
    unused = t
    # an edge's color, 0 while it has none; a revisited edge resumes after it
    assigned: list[int] = [0] * num_edges
    max_nodes = budget.max_nodes
    time_cap_s = budget.time_cap_s
    nodes = 0
    pruned = 0
    started = time.monotonic()

    idx = 0
    while True:
        if idx == num_edges:
            aligned = [0] * num_edges
            for i, c in zip(order, assigned):
                aligned[i] = c
            coloring = EdgeColoring(g, tuple(aligned), t)
            require_interval(coloring, InvalidColoringError, "found coloring")
            return SearchResult(Outcome.FOUND, coloring, nodes, pruned=pruned)
        a, b, oa, ob, ta, tb, cut = edge_plan[idx]
        allowed = state[idx]
        ma = mask[a]
        mb = mask[b]
        fa = allowed >> oa & field
        fb = allowed >> ob & field
        # colors run from the least start to the greatest start + d - 1
        c = max(
            assigned[idx] + 1,
            (fa & -fa).bit_length() - low,
            (fb & -fb).bit_length() - low,
        )
        top = min(
            t if idx else (t + 1) // 2, fa.bit_length() + ta, fb.bit_length() + tb
        )
        placed = ma | mb
        # the colors still unused after placing c must fit on the edges left
        left = num_edges - idx - 1
        while c <= top:
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                return SearchResult(
                    Outcome.BUDGET_EXCEEDED, None, nodes, "node cap reached", pruned
                )
            if (
                time_cap_s is not None
                and nodes & _TIME_CHECK_MASK == 0
                and time.monotonic() - started > time_cap_s
            ):
                return SearchResult(
                    Outcome.BUDGET_EXCEEDED, None, nodes, "time cap reached", pruned
                )
            if not placed >> c & 1 and unused - (used_count[c] == 0) <= left:
                tightened = allowed & cut << c
                if (
                    (tightened + carry_in) & carry_out == carry_out
                    and (c == t or used_count[t] or tightened & can_top)
                    and (c == 1 or used_count[1] or tightened & can_bottom)
                ):
                    break
                pruned += 1
            c += 1
        else:
            # no color fits: undo the previous edge, resume after its color
            assigned[idx] = 0
            idx -= 1
            if idx < 0:
                return SearchResult(Outcome.ABSENT, None, nodes, pruned=pruned)
            a, b = ends[idx]
            c = assigned[idx]
            mask[a] ^= 1 << c
            mask[b] ^= 1 << c
            used_count[c] -= 1
            if used_count[c] == 0:
                unused += 1
            continue
        mask[a] = ma | 1 << c
        mask[b] = mb | 1 << c
        if used_count[c] == 0:
            unused -= 1
        used_count[c] += 1
        assigned[idx] = c
        state[idx + 1] = tightened
        idx += 1


def _first_feasible(g: MeshGraph, budget: SearchBudget | None, descending: bool) -> int:
    """First palette in [max(1, max degree), diameter bound] that admits a coloring.

    Scans upward, or downward when ``descending``.  Raises
    ``BudgetExceededError`` instead of guessing when the instance is over
    the edge cap or any single search is truncated.
    """
    refused = edge_cap_refusal(g.num_edges, budget or SearchBudget())
    if refused is not None:
        raise BudgetExceededError(refused.detail)
    lo = max(1, max_degree(g))  # an edgeless graph still needs one color
    hi = theorem1_upper(g)
    palettes = range(hi, lo - 1, -1) if descending else range(lo, hi + 1)
    for t in palettes:
        result = find_interval_coloring(g, t, budget)
        if result.outcome is Outcome.FOUND:
            return t
        if result.outcome is Outcome.BUDGET_EXCEEDED:
            raise BudgetExceededError(f"search for t={t} truncated: {result.detail}")
    raise NotIntervalColorableError(
        f"no interval t-coloring for any t in [{lo}, {hi}]"
    )


def exact_w(g: MeshGraph, budget: SearchBudget | None = None) -> int:
    """Least palette size admitting an interval coloring, by upward scan.

    Starts at the maximum degree (every palette must cover some vertex's
    full degree), and at 1 for an edgeless graph.
    """
    return _first_feasible(g, budget, descending=False)


def exact_W(g: MeshGraph, budget: SearchBudget | None = None) -> int:
    """Greatest palette size admitting an interval coloring, by downward scan."""
    return _first_feasible(g, budget, descending=True)
