"""Exhaustive backtracking search for interval t-colorings.

This is the package's independent oracle: small instances are decided
exactly, with a three-valued outcome so a truncated search is never
mistaken for a proof of absence.  Edge order (breadth-first from the
least vertex), color order (ascending), and pruning are all fixed, so
identical queries give identical results.

An edge only tries the colors inside both endpoints' feasible windows
(a node is one such attempt), and the first edge's colors are halved by
the color-reversal symmetry; ``find_interval_coloring`` gives both
arguments.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .bounds import theorem1_upper
from .colorings import EdgeColoring, require_interval
from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    InvalidColoringError,
    InvalidParameterError,
    NotIntervalColorableError,
)
from .grids import Edge, MeshGraph, max_degree

__all__ = [
    "SearchBudget",
    "Outcome",
    "SearchResult",
    "find_interval_coloring",
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
    seconds.  ``None`` disables a cap.
    """

    max_edges: int = DEFAULT_MAX_EDGES
    max_nodes: int | None = None
    time_cap_s: float | None = None


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


def _bfs_edge_order(g: MeshGraph) -> list[Edge]:
    """Edges in breadth-first discovery order from the least vertex."""
    root = g.vertices[0]
    listed: set[Edge] = set()
    order: list[Edge] = []
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            e = Edge.between(u, w)
            if e not in listed:
                listed.add(e)
                order.append(e)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != g.num_vertices or len(order) != g.num_edges:
        raise DisconnectedGraphError("search requires a connected graph")
    return order


def find_interval_coloring(
    g: MeshGraph, t: int, budget: SearchBudget | None = None
) -> SearchResult:
    """Decide whether ``g`` has an interval t-coloring, within a budget.

    Each vertex keeps its placed colors as one int bitmask.  A vertex of
    degree d whose colors span [lo, hi] can only take colors in
    [hi-d+1, lo+d-1] (a run of d consecutive colors must hold the span),
    so an edge tries only the colors inside both endpoints' windows and
    1..t, ascending; one attempt is one node.  An attempt is refused when
    the color repeats at an endpoint, or when fewer edges would remain
    than colors still unused.  The first edge never takes a color above
    (t+1)//2: c -> t+1-c maps interval t-colorings to interval
    t-colorings, and the search returns the least coloring in its edge
    order, whose first color is the smaller of a mirrored pair.  Outcome
    ``absent`` is only reported after the whole tree has been exhausted,
    or at once when t exceeds the edge count.  A found coloring is
    verified before it is returned.
    """
    if t < 1:
        raise InvalidParameterError(f"palette size must be >= 1, got {t}")
    if budget is None:
        budget = SearchBudget()
    if g.num_edges > budget.max_edges:
        return SearchResult(
            Outcome.BUDGET_EXCEEDED,
            None,
            0,
            f"instance has {g.num_edges} edges, budget allows {budget.max_edges}",
        )
    order = _bfs_edge_order(g)
    num_edges = len(order)
    if t > num_edges:
        # each color of a surjective coloring needs an edge of its own
        return SearchResult(Outcome.ABSENT, None, 0)
    index = {v: i for i, v in enumerate(g.vertices)}
    ends = [(index[e.u], index[e.v]) for e in order]
    degree = [g.degree(v) for v in g.vertices]
    mask = [0] * len(degree)  # bit c set: color c sits at the vertex
    used_count = [0] * (t + 1)
    unused = t
    assigned: list[int] = [0] * num_edges
    next_color = [1] * num_edges
    max_nodes = budget.max_nodes
    time_cap_s = budget.time_cap_s
    nodes = 0
    started = time.monotonic()

    idx = 0
    while True:
        if idx == num_edges:
            coloring = EdgeColoring(g, dict(zip(order, assigned)), t)
            require_interval(coloring, InvalidColoringError, "found coloring")
            return SearchResult(Outcome.FOUND, coloring, nodes)
        a, b = ends[idx]
        ma = mask[a]
        mb = mask[b]
        c = next_color[idx]
        top = t if idx else (t + 1) // 2
        # a vertex of degree d with colors in [lo, hi] admits [hi-d+1, lo+d-1]
        if ma:
            d = degree[a]
            c = max(c, ma.bit_length() - d)
            top = min(top, (ma & -ma).bit_length() + d - 2)
        if mb:
            d = degree[b]
            c = max(c, mb.bit_length() - d)
            top = min(top, (mb & -mb).bit_length() + d - 2)
        placed = ma | mb
        # the colors still unused after placing c must fit on the edges left
        left = num_edges - idx - 1
        while c <= top:
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                return SearchResult(
                    Outcome.BUDGET_EXCEEDED, None, nodes, "node cap reached"
                )
            if (
                time_cap_s is not None
                and nodes & _TIME_CHECK_MASK == 0
                and time.monotonic() - started > time_cap_s
            ):
                return SearchResult(
                    Outcome.BUDGET_EXCEEDED, None, nodes, "time cap reached"
                )
            if not placed >> c & 1 and unused - (used_count[c] == 0) <= left:
                break
            c += 1
        else:
            # no color fits: undo the previous edge, resume after its color
            next_color[idx] = 1
            idx -= 1
            if idx < 0:
                return SearchResult(Outcome.ABSENT, None, nodes)
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
        next_color[idx] = c + 1
        idx += 1


def _first_feasible(g: MeshGraph, budget: SearchBudget | None, descending: bool) -> int:
    """First palette in [max degree, diameter bound] that admits a coloring.

    Scans upward, or downward when ``descending``.  Raises
    ``BudgetExceededError`` instead of guessing when any single search is
    truncated.
    """
    lo = max_degree(g)
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
    full degree).
    """
    return _first_feasible(g, budget, descending=False)


def exact_W(g: MeshGraph, budget: SearchBudget | None = None) -> int:
    """Greatest palette size admitting an interval coloring, by downward scan."""
    return _first_feasible(g, budget, descending=True)
