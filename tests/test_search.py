"""Exhaustive-search oracle tests: frozen outcomes, budgets, determinism."""

from __future__ import annotations

import hashlib

import pytest

from intervalmesh import (
    Outcome,
    SearchBudget,
    build_cylinder,
    build_path,
    build_torus,
    cartesian_product,
    cylinder_coloring,
    exact_W,
    exact_w,
    find_interval_coloring,
    theorem1_upper,
    verify_interval,
)
from intervalmesh import colorings, search
from intervalmesh.colorings import EdgeColoring
from intervalmesh.constructions import construct
from intervalmesh.errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    InvalidColoringError,
    InvalidParameterError,
)
from intervalmesh.grids import Family, _assemble


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


def test_node_cap_is_not_reported_as_absence():
    g = build_cylinder(2, 2)
    result = find_interval_coloring(g, 7, SearchBudget(max_nodes=50))
    assert result.outcome is Outcome.BUDGET_EXCEEDED
    assert result.nodes > 0
    full = find_interval_coloring(g, 7)
    assert full.outcome is Outcome.ABSENT


def test_time_cap_zero_exceeds_quickly():
    g = build_cylinder(2, 2)
    result = find_interval_coloring(g, 7, SearchBudget(time_cap_s=0.0))
    assert result.outcome is Outcome.BUDGET_EXCEEDED


def test_determinism():
    g = build_cylinder(1, 4)
    a = find_interval_coloring(g, 5)
    b = find_interval_coloring(g, 5)
    assert a.outcome is b.outcome is Outcome.FOUND
    assert a.coloring.colors == b.coloring.colors
    assert a.nodes == b.nodes


def test_bad_palette_parameter():
    with pytest.raises(InvalidParameterError):
        find_interval_coloring(build_cylinder(1, 2), 0)


def test_search_requires_connected_graph():
    g = _assemble(Family.PRODUCT, None, None, [(1, 1), (2, 2)], [])
    with pytest.raises(DisconnectedGraphError):
        find_interval_coloring(g, 1)


def test_exact_scans_respect_bounds():
    for m, n in ((1, 2), (1, 3), (2, 2)):
        g = build_cylinder(m, n)
        w = exact_w(g)
        W = exact_W(g)
        assert w <= W
        assert construct(Family.CYLINDER, m, n).coloring.palette_size <= W <= theorem1_upper(g)


# Node counts of the current attempt order. A pruning change alters them
# on purpose and records the new values here.
@pytest.mark.parametrize(
    ("m", "n", "t", "outcome", "nodes"),
    [
        (2, 2, 3, Outcome.FOUND, 24),
        (2, 2, 6, Outcome.FOUND, 53),
        (2, 2, 7, Outcome.ABSENT, 1612),
        (1, 5, 7, Outcome.ABSENT, 118),
        (1, 6, 2, Outcome.FOUND, 18),
        (1, 6, 7, Outcome.FOUND, 32),
        (1, 6, 8, Outcome.ABSENT, 184),
        (2, 3, 9, Outcome.ABSENT, 14851),
        (3, 2, 10, Outcome.ABSENT, 34416),
        (2, 4, 11, Outcome.ABSENT, 104386),
    ],
)
def test_search_node_counts_are_pinned(m, n, t, outcome, nodes):
    result = find_interval_coloring(build_cylinder(m, n), t, SearchBudget(max_edges=32))
    assert (result.outcome, result.nodes) == (outcome, nodes)


def test_distance_bound_refusals_are_counted():
    budget = SearchBudget(max_edges=32)
    result = find_interval_coloring(build_cylinder(2, 2), 7, budget)
    assert (result.nodes, result.pruned) == (1612, 313)
    # a 3-coloring of C(2,4) is found without a refusal by the bound
    assert find_interval_coloring(build_cylinder(2, 2), 3, budget).pruned == 0


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
    n = g.num_vertices
    index = {v: i for i, v in enumerate(g.vertices)}
    w = [g.degree(v) - 1 for v in g.vertices]
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
    + [build_torus(2, 2), cartesian_product(build_path(3), build_path(3))],
    ids=["C(2,4)", "C(2,6)", "C(3,4)", "C(3,6)", "T(4,4)", "P3xP3"],
)
def test_path_weights_match_floyd_warshall(g):
    index = {v: i for i, v in enumerate(g.vertices)}
    assert search._path_weights(g, index) == floyd_warshall_path_weights(g)


def reference_search(g, t):
    """Colors 1..t tried on every edge in BFS order, refused by the
    per-endpoint span and repeat rules and the surjectivity count."""
    order = [g.edges[i] for i in search._bfs_edge_order(g)]
    placed = {v: [] for v in g.vertices}
    colors = {}

    def fits(v, c):
        lst = placed[v]
        return not lst or (c not in lst and max(lst + [c]) - min(lst + [c]) < g.degree(v))

    def extend(idx):
        if idx == len(order):
            return True
        u, v = e = order[idx]
        for c in range(1, t + 1):
            unused = t - len(set(colors.values()) | {c})
            if fits(u, c) and fits(v, c) and unused <= len(order) - idx - 1:
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


@pytest.mark.parametrize(
    "g",
    [build_cylinder(1, n) for n in range(2, 6)]
    + [
        build_cylinder(2, 2),
        cartesian_product(build_path(3), build_path(3)),
        cartesian_product(build_path(2), build_path(4)),
    ],
    ids=["C(1,4)", "C(1,6)", "C(1,8)", "C(1,10)", "C(2,4)", "P3xP3", "P2xP4"],
)
def test_search_agrees_with_unpruned_reference(g):
    first = g.edges[search._bfs_edge_order(g)[0]]
    for t in range(1, g.num_edges + 1):
        expected = reference_search(g, t)
        result = find_interval_coloring(g, t)
        if expected is None:
            assert result.outcome is Outcome.ABSENT, t
        else:
            assert result.outcome is Outcome.FOUND, t
            assert result.coloring.colors == expected, t
            assert result.coloring.colors[first] <= (t + 1) // 2, t


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
