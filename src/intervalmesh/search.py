"""Exhaustive backtracking search for interval t-colorings.

This is the package's independent oracle: small instances are decided
exactly, with a three-valued outcome so a truncated search is never
mistaken for a proof of absence.  Anchor pairs, edge order, color order
(ascending) and pruning are all fixed, so identical queries give
identical results.

Colors seen at vertices x and y of an interval coloring differ by at
most the path weight P[x][y], the least sum of d(w) - 1 over the
vertices w of a path from x to y (the Asratian-Kamalian argument behind
W <= diam(G)(Δ-1)+1).  Every interval t-coloring has an edge e of color
1, which an automorphism moves onto its edge orbit's representative, and
an edge f of color t with t - 1 <= min P[x][y] over x in e and y in f.
So the search runs once per such pair, with e anchored at color 1 and f
at color t, and no pair qualifies above 1 + max over e, f of min P[x][y].
A run colors e, f, then the other edges by breadth-first level from the
nearer of the two, so the edges whose colors f squeezes near t come
early.  Inside a run every color placed bounds every vertex's colors by
the same path weights; ``find_interval_coloring`` gives the rules.

A graph's search plan is built at its first search and kept on the
graph; each pair's edge order joins it the first time that pair is
searched.  A palette builds its start mask from the plan's per-degree
masks, one multiply per degree, and each run places its two anchors
before its attempt loop.
"""

from __future__ import annotations

import math
import time
from enum import Enum
from typing import Iterator, NamedTuple

from .colorings import EdgeColoring, require_interval
from .errors import (
    BudgetExceededError,
    InvalidColoringError,
    InvalidParameterError,
    NotIntervalColorableError,
)
from .grids import (
    DEFAULT_MAX_EDGES, MeshGraph, _incidence, _Record, _representatives, max_degree,
    theorem1_upper,
)

__all__ = [
    "SearchBudget",
    "Outcome",
    "SearchResult",
    "find_interval_coloring",
    "exact_w",
    "exact_W",
]

_TIME_CHECK_MASK = 0x3FF  # consult the clock every 1024 nodes


class SearchBudget(_Record):
    """Limits for one exhaustive search.

    ``max_edges`` refuses larger instances outright, and ``refusal`` is
    the one place that checks it; ``max_nodes`` caps backtracking nodes
    (color attempts); ``time_cap_s`` is wall time in seconds.  Each cap
    must be an ``int`` of at least 0, the time may also be a ``float``
    (not NaN), and ``None`` disables it.
    """

    __slots__ = _compared = ("max_edges", "max_nodes", "time_cap_s")

    def __init__(self, max_edges: int | None = DEFAULT_MAX_EDGES, max_nodes: int | None = None,
                 time_cap_s: float | None = None) -> None:
        for name, cap in (("edge", max_edges), ("node", max_nodes)):
            if cap is not None and (type(cap) is not int or cap < 0):
                raise InvalidParameterError(f"{name} cap must be >= 0, got {cap!r}")
        # a NaN cap would compare False with every elapsed time and never stop
        if time_cap_s is not None and (type(time_cap_s) not in (int, float)
                                       or not time_cap_s >= 0):
            raise InvalidParameterError(
                f"time cap must be a number >= 0 seconds, got {time_cap_s!r}"
            )
        self._fill(max_edges, max_nodes, time_cap_s)

    def refusal(self, num_edges: int) -> str:
        """Why an instance of ``num_edges`` edges is over the edge cap, or ""
        when it fits."""
        if self.max_edges is None or num_edges <= self.max_edges:
            return ""
        return f"instance has {num_edges} edges, budget allows {self.max_edges}"


class Outcome(str, Enum):
    FOUND = "found"
    ABSENT = "absent"
    BUDGET_EXCEEDED = "budget-exceeded"


class SearchResult(NamedTuple):
    outcome: Outcome
    coloring: EdgeColoring | None
    nodes: int
    detail: str = ""
    # the anchor pairs searched, in order: (e, f, nodes), e and f positions
    # in graph.edges
    pairs: tuple[tuple[int, int, int], ...] = ()


def _bfs_edge_order(ends: tuple[tuple[int, int], ...], incident: list[tuple[int, ...]],
                    first: int) -> list[int]:
    """Edge positions in breadth-first order from the edge at ``first``, in
    ``_build_plan``'s view: that edge, then the edges not listed yet of each
    vertex in discovery order from the edge's least endpoint, each vertex's
    by ascending other end (the order of ``incident[u]``)."""
    reached = [ends[first][0]]  # the queue, read while it grows
    seen = set(reached)
    order = {first: None}  # each edge keeps the place it was first listed at
    for u in reached:
        for i in incident[u]:
            order[i] = None
            for w in ends[i]:
                if w not in seen:
                    seen.add(w)
                    reached.append(w)
    return list(order)


def _path_weights(ends: tuple[tuple[int, int], ...],
                  incident: list[tuple[int, ...]]) -> list[list[int]]:
    """Least vertex-weighted path lengths, by vertex, in ``_build_plan``'s
    integer view.

    Entry [x][v] is the least sum of d(w) - 1 over the vertices w of a
    path from x to v, both ends included, so [x][x] is d(x) - 1.  In an
    interval coloring two colors seen at x and at v differ by at most
    this much: consecutive edges of the path share a vertex w, whose
    colors lie within d(w) - 1 of each other.  From every vertex, the
    vertices whose entry fell relax their neighbours, level by level.
    """
    weight = [len(edges) - 1 for edges in incident]
    # the other end of each of a vertex's edges, in the order of its edges
    neighbours = [[a + b - u for a, b in map(ends.__getitem__, edges)]
                  for u, edges in enumerate(incident)]
    unreached = sum(weight) + 1  # above every path's weight
    table = []
    for x, wx in enumerate(weight):
        dist = [unreached] * len(weight)
        dist[x] = wx
        level = [x]
        while level:
            fell = []
            for u in level:
                du = dist[u]
                for w in neighbours[u]:
                    if du + weight[w] < dist[w]:
                        dist[w] = du + weight[w]
                        fell.append(w)
            level = fell
        table.append(dist)
    return table


class _Plan(NamedTuple):
    """What a search needs of a graph, whatever the palette.

    ``incident`` holds each vertex's edge positions by vertex index
    (position in ``graph.vertices``), and ``spread`` maps each degree d
    present to the bit 0 of the field of every vertex of degree d, so
    ``max(spread)`` is Δ.  ``reach`` is the largest path weight and
    ``width`` the bits of a vertex's field.
    ``rows`` holds, per edge position, the endpoints, their field offsets,
    the terms that turn a field's top bit into its top color, and the
    edge's cut.  ``anchors`` holds, for each edge-orbit representative e
    in ascending position, the breadth-first edge order from e and,
    aligned with it, the least P[x][y] over x in e and y in that edge.
    ``runs`` maps each anchor pair (e, f) searched so far to its edge
    order (``_run_order``) and the ``rows`` in that order.  It lives on
    the plan, not in a table keyed by (e, f) alone, since those rows are
    this graph's; even another graph's order alone, though sound, can be
    far slower.
    """

    incident: list[tuple[int, ...]]
    spread: dict[int, int]
    reach: int
    width: int
    rows: list[tuple[int, int, int, int, int, int, int]]
    anchors: list[tuple[int, list[int], list[int]]]
    runs: dict[tuple[int, int], tuple[list[int], list[tuple[int, ...]]]]


def _plan(g: MeshGraph) -> _Plan:
    """The plan of ``g`` (``_build_plan``), built at the first call and kept on ``g``."""
    plan = g._plan
    if plan is None:
        plan = _build_plan(g)
        object.__setattr__(g, "_plan", plan)
    return plan


def _build_plan(g: MeshGraph) -> _Plan:
    """The search plan of ``g``, from its flat integer view: a vertex is its
    position in ``g.vertices``, ``g.ends`` holds each edge's two vertices,
    ``g.degree`` each vertex's degree, and ``incident`` each vertex's edge
    positions (``grids._incidence``).  ``g`` is connected, being a family
    member, so every edge lies in each anchor's breadth-first order."""
    ends, degree = g.ends, g.degree
    incident = _incidence(g)
    weights = _path_weights(ends, incident)
    reach = max(map(max, weights))
    # Vertex v owns bits [v*width, (v+1)*width) of a start set; bit
    # v*width + reach + s set: v's run of colors may start at s.  A color
    # c at x confines v's colors to [c - r, c + r], r = weights[x][v], so
    # cut[x] << c keeps v's starts c-r..c+r-d+1; a color on edge (a, b)
    # cuts with cut[a] & cut[b].  No mask depends on t: an anchor pair
    # needs t - 1 <= reach, so every palette searched has t <= reach + 1.
    # The lowest start kept, c - r >= 1 - reach, lies in the field; the
    # highest, c + r - d + 1 <= 2*reach + 2 - d, may pass it, but only
    # onto starts <= -1 - d of the next vertex, which no state holds.
    # Inside 1..t-d+1 an unclipped cut keeps what r clipped to t - 1 keeps.
    width = 2 * reach + 3
    offset = [v * width + reach for v in range(len(degree))]
    spread = dict.fromkeys(degree, 0)
    for v, d in enumerate(degree):
        spread[d] |= 1 << (v * width)
    cut = []
    for row in weights:
        bits = 0
        for r, d, o in zip(row, degree, offset):
            bits |= ((1 << (2 * r - d + 2)) - 1) << (o - r)
        cut.append(bits)
    rows = [(a, b, offset[a] - reach, offset[b] - reach, degree[a] - reach - 2,
             degree[b] - reach - 2, cut[a] & cut[b]) for a, b in ends]
    anchors = []
    for e in _representatives(g):
        a, b = ends[e]
        near = list(map(min, weights[a], weights[b]))  # min over x in e of P[x][v]
        order = _bfs_edge_order(ends, incident, e)
        anchors.append((e, order, [min(near[x], near[y]) for x, y in (ends[i] for i in order)]))
    return _Plan(incident, spread, reach, width, rows, anchors, {})


def _anchor_pairs(
    plan: _Plan, t: int
) -> Iterator[tuple[int, int, list[int], list[tuple[int, ...]]]]:
    """(e, f, edge order, rows in that order) of every anchor pair of
    palette t, in search order.

    e runs over the representatives, and f over the edges in breadth-first
    order from e with t - 1 <= min P[x][y] over x in e and y in f.  A
    pair's order (``_run_order``) depends on e and f alone, so it is built
    the first time the pair is searched and kept in ``plan.runs``.
    """
    runs = plan.runs
    for e, order, far in plan.anchors:
        for f, p in zip(order[1:], far[1:]):
            if p >= t - 1:
                run = runs.get((e, f))
                if run is None:
                    run_order = _run_order(plan, order, f)
                    run = runs[e, f] = run_order, [plan.rows[i] for i in run_order]
                yield e, f, *run


def _run_order(plan: _Plan, order: list[int], f: int) -> list[int]:
    """The edge order of the run anchored at e = ``order[0]`` and ``f``: e,
    f, then the other edges by their level from the nearer anchor, ties
    kept in e's breadth-first ``order``.  An edge's level from an anchor
    is the least hop distance from an end of the anchor to an end of the
    edge, so the levels come from one breadth-first pass from all four
    anchor ends."""
    rows = plan.rows
    e = order[0]
    reached = [*rows[e][:2], *rows[f][:2]]  # the queue, read while it grows
    hops = [-1] * len(plan.incident)
    for v in reached:
        hops[v] = 0
    for u in reached:
        for i in plan.incident[u]:
            for w in rows[i][:2]:
                if hops[w] < 0:
                    hops[w] = hops[u] + 1
                    reached.append(w)
    rest = [i for i in order[1:] if i != f]
    rest.sort(key=lambda i: min(hops[rows[i][0]], hops[rows[i][1]]))  # stable
    return [e, f] + rest


def find_interval_coloring(
    g: MeshGraph, t: int, budget: SearchBudget | None = None
) -> SearchResult:
    """Decide whether ``g`` has an interval t-coloring, within a budget.

    Every interval t-coloring has an edge e of color 1 and an edge f of
    color t.  An automorphism moves e onto the representative of its edge
    orbit (``grids._representatives``), and the colors 1 at e and t at f
    differ by at most the path weight (``_path_weights``) between any end
    of e and any end of f.  So the search runs once per anchor pair: e
    over the representatives by ascending edge position, and for each e,
    f over the other edges in breadth-first order from e that satisfy
    t - 1 <= min P[x][y] over x in e and y in f.  A run colors e, then
    f, then the other edges by breadth-first level from the nearer anchor
    (the least hop distance from an end of e or f to an end of the edge),
    ties in breadth-first order from e; e tries only color 1 and f only
    color t.  The outcome is ``found`` at the first run that finds a
    coloring, and ``absent`` only when every run is exhausted, with 0
    nodes and no pairs when none qualifies: W <= 1 + max over e, f of
    min P[x][y].
    ``nodes`` is summed over the runs, which ``pairs`` lists in order
    with the nodes of each; the node and time caps bound the total, and
    the clock is read every 1024 nodes of it.

    Within a run, edges take colors ascending; one color attempt is one
    node.  A color c on an edge (a, b) confines every color at a vertex v
    to [c - r, c + r], where r is the lesser path weight from a or from b
    to v.  Every vertex keeps the bounds [L, U] that the placed colors
    give it, and an edge tries only the colors inside both endpoints'
    bounds, 1..t and above the last color it tried.  An attempt is
    refused when the color repeats at an endpoint, or when fewer edges
    would remain than colors still unused.  Outcome ``absent`` is also
    reported at once when t exceeds the edge count or falls below the
    maximum degree.  A found coloring is verified before it is returned.

    A vertex's bounds are kept as the set of colors that can start its
    run of d consecutive colors, one bit field per vertex in a single
    int, and a placement is one AND with a mask.  Every such mask is
    part of ``g``'s plan, which all searches of ``g`` share, and so is each
    pair's edge order with its rows.  A palette builds only the mask of
    the starts 1..t-d+1, from the plan's mask of each degree's fields,
    one multiply per degree.  Each run places e and f before its attempt
    loop, so every other edge's colors are bounded by its ends' starts
    alone, which lie in 1..t.
    """
    if type(t) is not int or t < 1:
        raise InvalidParameterError(f"palette size must be >= 1, got {t!r}")
    if budget is None:
        budget = SearchBudget()
    why = budget.refusal(g.num_edges)
    if why:
        return SearchResult(Outcome.BUDGET_EXCEEDED, None, 0, why)
    plan = _plan(g)
    if t > g.num_edges or t < max(plan.spread):
        # each color of a surjective coloring needs an edge of its own, and
        # each vertex a color per edge
        return SearchResult(Outcome.ABSENT, None, 0)
    # the starts 1..t-d+1 copied into the field of every vertex of degree d;
    # with an anchor pair, t <= reach + 1, so no field spills over
    allowed = sum((((1 << (t - d + 1)) - 1) << (plan.reach + 1)) * fields
                  for d, fields in plan.spread.items())

    searched = []
    nodes = 0
    started = time.monotonic()
    for e, f, order, rows in _anchor_pairs(plan, t):
        before = nodes
        colors, nodes, stop = _run(rows, t, allowed, plan, budget, nodes, started)
        searched.append((e, f, nodes - before))
        if stop:
            return SearchResult(Outcome.BUDGET_EXCEEDED, None, nodes, stop, tuple(searched))
        if colors is not None:
            aligned = [0] * len(order)
            for i, c in zip(order, colors):
                aligned[i] = c
            coloring = EdgeColoring(g, tuple(aligned), t)
            require_interval(coloring, InvalidColoringError, "found coloring")
            return SearchResult(Outcome.FOUND, coloring, nodes, "", tuple(searched))
    return SearchResult(Outcome.ABSENT, None, nodes, "", tuple(searched))


def _cap(nodes: int, budget: SearchBudget, started: float) -> tuple[str, float]:
    """Why a cap stops a search at its ``nodes``-th node ("" if none), and
    the next node count at which one can (``math.inf`` if none can).

    The node cap stops it at node max_nodes + 1, and the time cap reads
    the clock at every multiple of 1024 nodes, wherever a run starts.
    """
    max_nodes = budget.max_nodes
    time_cap_s = budget.time_cap_s
    if max_nodes is not None and nodes > max_nodes:
        return "node cap reached", nodes
    due = math.inf if max_nodes is None else max_nodes + 1
    if time_cap_s is not None:
        if nodes & _TIME_CHECK_MASK == 0 and time.monotonic() - started > time_cap_s:
            return "time cap reached", nodes
        due = min(due, (nodes | _TIME_CHECK_MASK) + 1)  # the next multiple of 1024
    return "", due


def _run(
    rows: list[tuple], t: int, allowed: int, plan: _Plan,
    budget: SearchBudget, nodes: int, started: float,
) -> tuple[list[int] | None, int, str]:
    """One anchored run over the edges ``rows`` (see ``find_interval_coloring``).

    e = ``rows[0]`` takes color 1 and f = ``rows[1]`` color t before the
    attempt loop, one node each, and a backtrack out of the third row
    ends the run.  ``allowed`` holds the starts before e; ``nodes`` counts on
    from earlier runs.  Returns the colors in row order (None once the
    tree is exhausted), the node count, and why a cap stopped it ("" if
    none).  A node is compared with the caps only at ``due``, the next
    count at which one can stop the search (``_cap``); a run's first node
    is one such count.

    No attempt tests that a start set stays nonempty or that colors 1
    and t stay reachable: neither can fail.  A color tried on (a, b) lies
    inside both ends' bounds, and P[x][a] <= P[x][v] + P[v][a] - (d(v) - 1)
    (a path through v counts v twice), so its cut of v's starts meets
    every earlier cut and 1..t-d+1; intervals that meet pairwise share a
    start, a run of d(v) colors.  Colors 1 and t are used once both
    anchors are placed, and e leaves f's ends, t - 1 away, a start for t.
    Nor can either anchor be refused: t <= the edge count, and t >= 2.
    Every other edge tries only colors inside its ends' starts, so 1..t.
    """
    field = (1 << plan.width) - 1
    low = plan.reach + 1
    num_edges = len(rows)
    state = [0] * (num_edges + 1)  # start sets before each edge
    mask = [0] * len(plan.incident)  # bit c set: color c sits at the vertex
    used_count = [0] * (t + 1)
    # an edge's color, 0 while it has none; a revisited edge resumes after it
    assigned: list[int] = [0] * num_edges
    due = nodes + 1
    for idx, c in ((0, 1), (1, t)):
        nodes += 1
        if nodes >= due:
            stop, due = _cap(nodes, budget, started)
            if stop:
                return None, nodes, stop
        a, b, *_, cut = rows[idx]
        mask[a] |= 1 << c
        mask[b] |= 1 << c
        used_count[c] = 1
        assigned[idx] = c
        allowed &= cut << c
    state[2] = allowed
    unused = t - 2

    idx = 2
    while True:
        if idx == num_edges:
            return assigned, nodes, ""
        a, b, oa, ob, ta, tb, cut = rows[idx]
        allowed = state[idx]
        ma = mask[a]
        mb = mask[b]
        fa = allowed >> oa & field
        fb = allowed >> ob & field
        # colors run from the least start to the greatest start + d - 1
        c = assigned[idx] + 1
        least = (fa & -fa).bit_length() - low
        if least > c:
            c = least
        least = (fb & -fb).bit_length() - low
        if least > c:
            c = least
        top = fa.bit_length() + ta
        most = fb.bit_length() + tb
        if most < top:
            top = most
        placed = ma | mb
        # the colors still unused after placing c must fit on the edges left
        left = num_edges - idx - 1
        while c <= top:
            nodes += 1
            if nodes >= due:
                stop, due = _cap(nodes, budget, started)
                if stop:
                    return None, nodes, stop
            if not placed >> c & 1 and unused - (used_count[c] == 0) <= left:
                break
            c += 1
        else:
            # no color fits: undo the previous edge, resume after its color
            assigned[idx] = 0
            idx -= 1
            if idx < 2:
                return None, nodes, ""
            a, b = rows[idx][:2]
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
        state[idx + 1] = allowed & cut << c
        idx += 1


def _first_feasible(g: MeshGraph, budget: SearchBudget | None, descending: bool) -> int:
    """First palette in [max degree, diameter bound] that admits a coloring.

    Scans upward, or downward when ``descending``; every palette shares
    ``g``'s one search plan.  A palette above 1 + max over e, f of
    min P[x][y] (see ``find_interval_coloring``) has no anchor pair and
    is absent without a node.  Raises ``BudgetExceededError`` instead of
    guessing when the instance is over the edge cap or any single search
    is truncated.
    """
    if budget is None:
        budget = SearchBudget()  # one default for every palette of the scan
    why = budget.refusal(g.num_edges)
    if why:
        raise BudgetExceededError(why)
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

    Starts at the maximum degree: every palette must cover some vertex's
    full degree.
    """
    return _first_feasible(g, budget, descending=False)


def exact_W(g: MeshGraph, budget: SearchBudget | None = None) -> int:
    """Greatest palette size admitting an interval coloring, by downward scan."""
    return _first_feasible(g, budget, descending=True)
