"""Exhaustive-search oracle tests: frozen outcomes, budgets, determinism."""

from __future__ import annotations

import gc
import hashlib
import re
import weakref

import pytest

from intervalmesh import (
    Outcome,
    SearchBudget,
    build_cylinder,
    build_torus,
    cylinder_coloring,
    exact_W,
    exact_w,
    find_interval_coloring,
    theorem1_upper,
    verify_interval,
)
from intervalmesh import cli, colorings, grids, search
from intervalmesh.colorings import EdgeColoring
from intervalmesh.constructions import construct
from intervalmesh.errors import (
    BudgetExceededError,
    InvalidColoringError,
    InvalidParameterError,
    NotIntervalColorableError,
)
from intervalmesh.grids import Family, build


def E(i1, j1, i2, j2):
    return tuple(sorted([(i1, j1), (i2, j2)]))


def test_c4_t3_found_coloring_frozen():
    result = find_interval_coloring(build_cylinder(1, 2), 3)
    assert result.outcome is Outcome.FOUND
    assert verify_interval(result.coloring).interval
    # ascending color order from the BFS root lands on 1,2,3,2 around the ring
    assert result.coloring.colors == {
        E(1, 1, 1, 2): 1,
        E(1, 2, 1, 3): 2,
        E(1, 3, 1, 4): 3,
        E(1, 1, 1, 4): 2,
    }


def test_c4_t4_absent():
    result = find_interval_coloring(build_cylinder(1, 2), 4)
    assert result.outcome is Outcome.ABSENT
    assert result.coloring is None


def test_c6_outcomes():
    c6 = build_cylinder(1, 3)
    found = find_interval_coloring(c6, 4)
    assert found.outcome is Outcome.FOUND
    assert verify_interval(found.coloring).interval
    assert find_interval_coloring(c6, 5).outcome is Outcome.ABSENT


def test_exact_values_small_instances():
    c4 = build_cylinder(1, 2)
    assert exact_w(c4) == 2
    assert exact_W(c4) == 3
    assert exact_W(build_cylinder(1, 3)) == 4
    assert exact_w(build_cylinder(2, 2)) == 3


def test_exact_W_of_the_cube_cylinder():
    # the 12-edge cylinder tops out at its constructive bound, one below
    # the diameter bound of 7
    g = build_cylinder(2, 2)
    assert construct(Family.CYLINDER, 2, 2).coloring.palette_size == 6
    assert theorem1_upper(g) == 7
    assert exact_W(g) == 6


def test_spectrum_continuity_in_budget():
    g = build_cylinder(2, 2)
    feasible = []
    for t in range(3, 8):
        outcome = find_interval_coloring(g, t).outcome
        assert outcome in (Outcome.FOUND, Outcome.ABSENT)
        if outcome is Outcome.FOUND:
            feasible.append(t)
    assert feasible == list(range(3, 7))  # contiguous, no holes


def test_construction_claims_match_oracle():
    for m, n in ((1, 2), (1, 3), (1, 4), (2, 2)):
        res = cylinder_coloring(m, n)
        found = find_interval_coloring(res.coloring.graph, res.coloring.palette_size)
        assert found.outcome is Outcome.FOUND


def test_default_budget_refuses_large_instances():
    result = find_interval_coloring(build_torus(2, 2), 8)
    assert result.outcome is Outcome.BUDGET_EXCEEDED
    assert "32 edges" in result.detail
    with pytest.raises(BudgetExceededError):
        exact_W(build_torus(2, 2))


def test_scans_over_the_edge_cap_are_refused_before_any_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("an instance over the edge cap must not be searched")

    monkeypatch.setattr(search, "theorem1_upper", refuse)
    monkeypatch.setattr(search, "find_interval_coloring", refuse)
    for scan in (exact_w, exact_W):
        with pytest.raises(BudgetExceededError) as info:
            scan(build_torus(2, 2), SearchBudget(max_edges=16))
        assert str(info.value) == "instance has 32 edges, budget allows 16"


def test_a_scan_that_finds_no_palette_is_not_colorable(monkeypatch, capsys):
    tried = []

    def absent(g, t, budget=None):
        tried.append(t)
        return search.SearchResult(Outcome.ABSENT, None, 0)

    monkeypatch.setattr(search, "find_interval_coloring", absent)
    g = build_cylinder(2, 2)
    message = r"^no interval t-coloring for any t in \[3, 7\]$"
    for scan, palettes in ((exact_w, [3, 4, 5, 6, 7]), (exact_W, [7, 6, 5, 4, 3])):
        tried.clear()
        with pytest.raises(NotIntervalColorableError, match=message):
            scan(g)
        assert tried == palettes
    argv = ["search", "--family", "cylinder", "-m", "2", "-n", "2", "--exact-W"]
    assert cli.run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no interval t-coloring for any t in [3, 7]\n"


def test_node_cap_is_not_reported_as_absence():
    g = build_torus(2, 2)
    result = find_interval_coloring(g, 11, SearchBudget(max_edges=32, max_nodes=50))
    assert result.outcome is Outcome.BUDGET_EXCEEDED
    assert result.nodes == 51
    # the truncated pair is listed with the nodes it took
    assert result.pairs == ((0, 25, 51),)
    full = find_interval_coloring(g, 11, SearchBudget(max_edges=32))
    assert full.outcome is Outcome.ABSENT


def test_time_cap_zero_exceeds_quickly():
    # the clock is read every 1024 nodes; this proof takes 10,907
    g = build_cylinder(3, 4)
    result = find_interval_coloring(g, 12, SearchBudget(max_edges=40, time_cap_s=0.0))
    assert result.outcome is Outcome.BUDGET_EXCEEDED
    assert result.nodes == 1024


@pytest.mark.parametrize("time_cap_s", [None, 1e9])
def test_node_cap_fires_at_exactly_one_node_past_it_across_runs(time_cap_s):
    # this proof takes 10,907 nodes over 20 anchor pairs; a time cap that
    # never fires must not move the node cap's stop
    g = build_cylinder(3, 4)

    def search_under(cap):
        budget = SearchBudget(max_edges=40, max_nodes=cap, time_cap_s=time_cap_s)
        return find_interval_coloring(g, 12, budget)

    capped = search_under(700)
    assert (capped.outcome, capped.nodes, capped.detail) == (
        Outcome.BUDGET_EXCEEDED, 701, "node cap reached")
    assert len(capped.pairs) == 4 and capped.pairs[-1] == (0, 26, 486)
    capped = search_under(10906)
    assert (capped.outcome, capped.nodes) == (Outcome.BUDGET_EXCEEDED, 10907)
    assert len(capped.pairs) == 20
    full = search_under(10907)
    assert (full.outcome, full.nodes) == (Outcome.ABSENT, 10907)


def test_node_cap_fires_at_the_anchors():
    # the one pair's run spends a node on e, one on f, and two on the rest
    g = build_cylinder(1, 2)
    for cap in (0, 1, 2):
        capped = find_interval_coloring(g, 3, SearchBudget(max_nodes=cap))
        assert (capped.outcome, capped.nodes) == (Outcome.BUDGET_EXCEEDED, cap + 1)
        assert capped.pairs == ((0, 3, cap + 1),)
    found = find_interval_coloring(g, 3)
    assert (found.outcome, found.nodes) == (Outcome.FOUND, 4)


def test_the_clock_is_read_every_1024_nodes_across_runs(monkeypatch):
    reads = []
    monotonic = search.time.monotonic
    monkeypatch.setattr(search.time, "monotonic", lambda: reads.append(None) or monotonic())
    g = build_cylinder(3, 4)
    result = find_interval_coloring(g, 12, SearchBudget(max_edges=40, time_cap_s=1e9))
    assert (result.outcome, result.nodes) == (Outcome.ABSENT, 10907)
    # once at the start, then at nodes 1024, 2048, ..., 10240
    assert len(reads) == 11
    reads.clear()
    assert find_interval_coloring(g, 12, SearchBudget(max_edges=40)).nodes == 10907
    assert len(reads) <= 1


def test_time_cap_must_be_a_number_at_least_zero():
    # NaN compares False with every elapsed time, so it would never stop a search
    for bad in (float("nan"), -1.0, -1e-9, float("-inf"), "1", True, []):
        with pytest.raises(InvalidParameterError, match="time cap must be a number >= 0"):
            SearchBudget(time_cap_s=bad)
    result = find_interval_coloring(build_cylinder(1, 2), 3, SearchBudget(time_cap_s=float("inf")))
    assert result.outcome is Outcome.FOUND


def test_caps_must_be_at_least_zero_and_none_lifts_them():
    for kwargs in ({"max_edges": -1}, {"max_nodes": -5}, {"max_edges": 8, "max_nodes": -1}):
        with pytest.raises(InvalidParameterError, match=r"^(edge|node) cap must be >= 0, got -\d$"):
            SearchBudget(**kwargs)
    # a cap that is not an int is refused the same way, its value quoted
    for kwargs in ({"max_edges": "5"}, {"max_nodes": 2.5}, {"max_edges": True}):
        shown = re.escape(repr(*kwargs.values()))
        with pytest.raises(InvalidParameterError, match=rf"^(edge|node) cap must be >= 0, got {shown}$"):
            SearchBudget(**kwargs)
    g = build_cylinder(1, 2)
    zero = SearchBudget(max_edges=0, max_nodes=0)
    assert find_interval_coloring(g, 3, zero).outcome is Outcome.BUDGET_EXCEEDED
    uncapped = SearchBudget(max_edges=None)
    assert find_interval_coloring(g, 3, uncapped).outcome is Outcome.FOUND
    assert (exact_w(g, uncapped), exact_W(g, uncapped)) == (2, 3)
    assert find_interval_coloring(build_torus(2, 2), 11, uncapped).outcome is Outcome.ABSENT


def test_determinism():
    g = build_cylinder(1, 4)
    a = find_interval_coloring(g, 5)
    b = find_interval_coloring(g, 5)
    assert a.outcome is b.outcome is Outcome.FOUND
    assert a.coloring.colors == b.coloring.colors
    assert a.nodes == b.nodes


def test_bad_palette_parameter():
    # 3.0 would reach a shift, and True would be searched as the palette 1
    for bad in (0, 3.0, True):
        with pytest.raises(InvalidParameterError, match=f"^palette size must be >= 1, got {bad!r}$"):
            find_interval_coloring(build_cylinder(1, 2), bad)


def test_exact_scans_respect_bounds():
    for m, n in ((1, 2), (1, 3), (2, 2)):
        g = build_cylinder(m, n)
        w = exact_w(g)
        W = exact_W(g)
        assert w <= W
        assert construct(Family.CYLINDER, m, n).coloring.palette_size <= W <= theorem1_upper(g)


# Node counts of the current anchor pairs and attempt order. A pruning
# change alters them on purpose and records the new values here; the test
# ids name the instance only, so a re-pin keeps them.
NODE_COUNTS = [
    (Family.CYLINDER, 2, 2, 3, Outcome.FOUND, 22),
    (Family.CYLINDER, 2, 2, 6, Outcome.FOUND, 18),
    (Family.CYLINDER, 2, 2, 7, Outcome.ABSENT, 8),
    (Family.CYLINDER, 1, 5, 7, Outcome.ABSENT, 0),
    (Family.CYLINDER, 1, 6, 2, Outcome.FOUND, 17),
    (Family.CYLINDER, 1, 6, 7, Outcome.FOUND, 12),
    (Family.CYLINDER, 1, 6, 8, Outcome.ABSENT, 0),
    (Family.CYLINDER, 2, 3, 9, Outcome.ABSENT, 8),
    (Family.CYLINDER, 3, 2, 10, Outcome.ABSENT, 8),
    (Family.CYLINDER, 2, 4, 11, Outcome.ABSENT, 8),
    (Family.TORUS, 2, 2, 11, Outcome.ABSENT, 344),
    # where the palette-free bit fields are widest against t
    (Family.TORUS, 3, 3, 5, Outcome.FOUND, 174),
    (Family.TORUS, 2, 4, 17, Outcome.ABSENT, 688),
    (Family.CYLINDER, 3, 4, 12, Outcome.ABSENT, 10907),
    (Family.TORUS, 3, 3, 16, Outcome.ABSENT, 2656),
]


@pytest.mark.parametrize(
    ("family", "m", "n", "t", "outcome", "nodes"),
    NODE_COUNTS,
    ids=[f"{family.value}({m},{n})-t{t}" for family, m, n, t, *_ in NODE_COUNTS],
)
def test_search_node_counts_are_pinned(family, m, n, t, outcome, nodes):
    result = find_interval_coloring(build(family, m, n), t, SearchBudget(max_edges=72))
    assert (result.outcome, result.nodes) == (outcome, nodes)
    assert sum(spent for _, _, spent in result.pairs) == nodes


def test_anchor_pairs_are_listed_in_search_order():
    budget = SearchBudget(max_edges=32)
    g = build_cylinder(2, 2)
    result = find_interval_coloring(g, 7, budget)
    # ring edge (1,1)-(1,2) with color 1 and ring edge (2,3)-(2,4) with color 7,
    # then rung (1,1)-(2,1) with color 1 and rung (1,3)-(2,3) with color 7
    assert result.pairs == ((0, 11, 4), (2, 6, 4))
    assert [g.edges[i] for i in (0, 11, 2, 6)] == [
        E(1, 1, 1, 2), E(2, 3, 2, 4), E(1, 1, 2, 1), E(1, 3, 2, 3)
    ]
    found = find_interval_coloring(g, 6, budget)
    assert found.pairs == ((0, 11, 18),)
    assert (found.coloring.aligned[0], found.coloring.aligned[11]) == (1, 6)
    # a palette too wide for every pair is absent before any node
    assert find_interval_coloring(build_cylinder(1, 5), 7).pairs == ()


def level_order(g, e, f):
    """e, f, then the other edges by level from the nearer anchor, ties in
    breadth-first order from e.  An edge's level is its least hop distance
    from an end of e or f, by a breadth-first search of ``g``'s own
    vertices and edges."""
    neighbours = {v: [] for v in g.vertices}
    for a, b in g.edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    dist = {v: 0 for v in g.edges[e] + g.edges[f]}
    queue = list(dist)
    for u in queue:
        for w in neighbours[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    rank = {i: r for r, i in enumerate(search._bfs_edge_order(*plan_view(g), e))}
    rest = sorted(set(range(g.num_edges)) - {e, f},
                  key=lambda i: (min(map(dist.get, g.edges[i])), rank[i]))
    return [e, f] + rest


@pytest.mark.parametrize(
    "g",
    [build_cylinder(1, 4), build_cylinder(2, 2), build_cylinder(3, 4), build_torus(2, 2),
     build_torus(3, 2), build_torus(3, 3)],
    ids=["C(1,8)", "C(2,4)", "C(3,8)", "T(4,4)", "T(6,4)", "T(6,6)"],
)
def test_runs_are_ordered_by_level_from_the_nearer_anchor(g):
    plan = search._plan(g)
    # t = 1 admits every edge but e as f
    pairs = list(search._anchor_pairs(plan, 1))
    assert len(pairs) == len(plan.anchors) * (g.num_edges - 1)
    for e, f, order, rows in pairs:
        assert order == level_order(g, e, f), (e, f)
        assert rows == [plan.rows[i] for i in order]
        assert plan.runs[e, f] == (order, rows)


def test_each_graph_keeps_its_own_run_orders():
    # both graphs have 32 edges and search the pair (0, 25) first, in orders
    # of their own
    torus, ring = build_torus(2, 2), build_cylinder(1, 16)
    budget = SearchBudget(max_edges=32)
    for g, t, spent in ((torus, 11, 344), (ring, 9, 40), (torus, 11, 344), (ring, 9, 40)):
        assert find_interval_coloring(g, t, budget).pairs == ((0, 25, spent),)
    for g in (torus, ring):
        runs = search._plan(g).runs
        assert list(runs) == [(0, 25)]
        assert runs[0, 25][0] == level_order(g, 0, 25)
    assert search._plan(torus).runs[0, 25][0] != search._plan(ring).runs[0, 25][0]


def test_torus_family_absence_profile_does_not_depend_on_n():
    # T(4,2n) has no interval (3n+5)-coloring, by two exhausted pairs of
    # 344 nodes each for every n checked
    for n in range(3, 9):
        result = find_interval_coloring(build_torus(2, n), 3 * n + 5, SearchBudget(max_edges=None))
        assert result.outcome is Outcome.ABSENT, n
        assert [spent for _, _, spent in result.pairs] == [344, 344], n


def test_a_scan_shares_one_plan(monkeypatch):
    built = []
    build_plan = search._build_plan
    monkeypatch.setattr(search, "_build_plan", lambda g: built.append(g) or build_plan(g))
    g = build_cylinder(2, 2)  # a fresh graph: each test starts with an empty graph cache
    assert exact_W(g) == 6
    assert exact_w(g) == 3
    assert find_interval_coloring(g, 6).outcome is Outcome.FOUND
    assert find_interval_coloring(g, 7).outcome is Outcome.ABSENT
    assert built == [g]


def test_a_searched_graph_is_collected_once_dropped():
    g = grids.MeshGraph(Family.CYLINDER, 2, 2)  # outside the graph cache
    result = find_interval_coloring(g, 4)
    assert result.outcome is Outcome.FOUND and g._plan is not None
    ref = weakref.ref(g)
    del g, result
    gc.collect()
    assert ref() is None


def test_distance_bound_refusals_are_counted():
    # the bound refuses a color before it becomes a node, so its refusals
    # show as the nodes a proof does not need
    budget = SearchBudget(max_edges=32)
    result = find_interval_coloring(build_cylinder(2, 2), 7, budget)
    assert (result.outcome, result.nodes) == (Outcome.ABSENT, 8)
    found = find_interval_coloring(build_cylinder(2, 2), 3, budget)
    assert (found.outcome, found.nodes) == (Outcome.FOUND, 22)


def test_torus_witness_matches_the_window_only_search():
    # digest of the witness that the search found before the distance
    # bound existed, after 2,317,042 nodes
    result = find_interval_coloring(build_torus(2, 2), 10, SearchBudget(max_edges=32))
    assert result.outcome is Outcome.FOUND
    digest = hashlib.sha256(",".join(map(str, result.coloring.aligned)).encode())
    assert digest.hexdigest() == (
        "7566a4ca571c7560c21ed568b9879898c18dcd746c0d3e1bd16ae95920d99171"
    )


def floyd_warshall_path_weights(g):
    """All-pairs least sums of d - 1 over a path's vertices, both ends included."""
    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    w = [len(g.incident[v]) - 1 for v in g.vertices]
    inf = float("inf")
    dist = [[w[x] if x == y else inf for y in range(n)] for x in range(n)]
    for a, b in g.edges:
        x, y = index[a], index[b]
        dist[x][y] = dist[y][x] = w[x] + w[y]
    for k in range(n):
        for x in range(n):
            for y in range(n):
                # k is counted in both halves, once too often
                via = dist[x][k] + dist[k][y] - w[k]
                if via < dist[x][y]:
                    dist[x][y] = via
    return dist


@pytest.mark.parametrize(
    "g",
    [build_cylinder(m, n) for m in (2, 3) for n in (2, 3)]
    + [build_torus(2, 2)]
    # T(6,6) has 36 vertices
    + [build_cylinder(1, 3), build_cylinder(1, 4)]
    + [build_torus(3, 3)],
    ids=["C(2,4)", "C(2,6)", "C(3,4)", "C(3,6)", "T(4,4)", "C6", "C(1,8)", "T(6,6)"],
)
def test_path_weights_match_floyd_warshall(g):
    assert search._path_weights(*plan_view(g)) == floyd_warshall_path_weights(g)


def plan_view(g):
    """The search plan's integer view of ``g``: each edge's two vertex
    indices, and each vertex's edge positions."""
    index = {v: i for i, v in enumerate(g.vertices)}
    return [(index[a], index[b]) for a, b in g.edges], list(g.incident.values())


def reference_search(g, t):
    """Colors 1..t tried on every edge in BFS order, refused by the
    per-endpoint span and repeat rules and the surjectivity count."""
    order = [g.edges[i] for i in search._bfs_edge_order(*plan_view(g), 0)]
    return unpruned(g, t, [(e, range(1, t + 1)) for e in order])


def unpruned(g, t, steps):
    """Colors for the edges of ``steps`` in order, each tried ascending from
    its own range, refused by the span, repeat and count rules alone."""
    placed = {v: [] for v in g.vertices}
    colors = {}

    def fits(v, c):
        lst = placed[v]
        return not lst or (c not in lst and max(lst + [c]) - min(lst + [c]) < len(g.incident[v]))

    def extend(idx):
        if idx == len(steps):
            return True
        e, choices = steps[idx]
        u, v = e
        for c in choices:
            unused = t - len(set(colors.values()) | {c})
            if fits(u, c) and fits(v, c) and unused <= len(steps) - idx - 1:
                placed[u].append(c)
                placed[v].append(c)
                colors[e] = c
                if extend(idx + 1):
                    return True
                placed[u].pop()
                placed[v].pop()
                del colors[e]
        return False

    return colors if extend(0) else None


def anchored_reference(g, t):
    """The unpruned search with two ends anchored: every representative e
    with color 1 and every other edge f with color t, unfiltered, in the
    engine's pair and edge order.  The first coloring found, with its pair,
    or None."""
    for e in grids._representatives(g):
        order = search._bfs_edge_order(*plan_view(g), e)
        for f in order[1:]:
            steps = [(e, range(1, 2)), (f, range(t, t + 1))]
            steps += [(i, range(1, t + 1)) for i in order[1:] if i != f]
            colors = unpruned(g, t, [(g.edges[i], choices) for i, choices in steps])
            if colors is not None:
                return colors, e, f
    return None


@pytest.mark.parametrize(
    "g",
    [build_cylinder(1, n) for n in range(2, 6)]
    + [build_cylinder(2, 2)],
    ids=["C(1,4)", "C(1,6)", "C(1,8)", "C(1,10)", "C(2,4)"],
)
def test_search_agrees_with_unpruned_reference(g):
    for t in range(1, g.num_edges + 1):
        expected = reference_search(g, t)
        result = find_interval_coloring(g, t)
        if expected is None:
            assert result.outcome is Outcome.ABSENT, t
        else:
            assert result.outcome is Outcome.FOUND, t
            witness, e, f = anchored_reference(g, t)
            assert result.coloring.colors == witness, t
            assert result.pairs[-1][:2] == (e, f), t
            assert result.coloring.aligned[e] == 1, t
            assert result.coloring.aligned[f] == t, t


def test_palette_beyond_edge_count_is_absent_at_once():
    result = find_interval_coloring(build_cylinder(1, 2), 10**5)
    assert (result.outcome, result.nodes) == (Outcome.ABSENT, 0)


def test_palette_below_max_degree_is_absent_at_once():
    result = find_interval_coloring(build_cylinder(2, 2), 2)
    assert (result.outcome, result.nodes) == (Outcome.ABSENT, 0)


def test_found_witness_is_checked_without_assert(monkeypatch):
    # colors 1, 3 alternate around C_4, so every vertex sees a gap
    g = build_cylinder(1, 2)
    gap = verify_interval(EdgeColoring(g, (1, 3, 3, 1), 3))
    assert gap.violating_vertices[0] == (1, 1)

    monkeypatch.setattr(colorings, "verify_interval", lambda coloring: gap)
    with pytest.raises(InvalidColoringError, match="x_1_1"):
        find_interval_coloring(build_cylinder(1, 2), 3)
