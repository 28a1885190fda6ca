"""Graph construction and query tests, with independent oracles for derived values."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalmesh import (
    EdgeColoring,
    Family,
    build_cylinder,
    build_even_cycle,
    build_path,
    build_torus,
    cartesian_product,
    coloring_from_json_dict,
    coloring_to_json_dict,
    cylinder_coloring,
    diameter,
    is_bipartite,
    is_regular,
    max_degree,
)
from intervalmesh.errors import (
    DisconnectedGraphError,
    InvalidParameterError,
    SchemaError,
)
from intervalmesh import grids
from intervalmesh.grids import _assemble, admits, build, dumps_canonical, edge_count


def degree_by_edge_scan(g, v):
    # independent of the incident index: recount from the edge list
    return sum(1 for e in g.edges if v in e)


def test_path_sizes():
    for m in (1, 2, 5):
        g = build_path(m)
        assert g.num_vertices == m
        assert g.num_edges == m - 1


def test_path_invalid():
    with pytest.raises(InvalidParameterError):
        build_path(0)


def test_even_cycle_basic():
    g = build_even_cycle(4)
    assert g.num_vertices == 4
    assert g.num_edges == 4
    assert all(g.degree(v) == 2 for v in g.vertices)
    assert g.n == 2 and g.m is None


def test_even_cycle_invalid():
    for bad in (2, 3, 5, 0, -4):
        with pytest.raises(InvalidParameterError):
            build_even_cycle(bad)


def test_cylinder_vertex_and_edge_counts():
    for m in (1, 2, 3, 7):
        for n in (2, 3, 5):
            g = build_cylinder(m, n)
            assert g.num_vertices == 2 * m * n
            assert g.num_edges == 2 * m * n + (m - 1) * 2 * n


def test_cylinder_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        build_cylinder(0, 2)
    with pytest.raises(InvalidParameterError):
        build_cylinder(1, 1)


def test_cylinder_degrees():
    # layer count controls the maximum degree: 2 on a bare cycle, 3 with one
    # neighbor layer, 4 with layers on both sides
    assert max_degree(build_cylinder(1, 3)) == 2
    assert max_degree(build_cylinder(2, 2)) == 3
    assert max_degree(build_cylinder(3, 2)) == 4
    g = build_cylinder(3, 2)
    for v in g.vertices:
        assert g.degree(v) == degree_by_edge_scan(g, v)
        assert g.degree(v) in (3, 4)


def test_cylinder_m1_equals_even_cycle():
    c = build_cylinder(1, 2)
    cyc = build_even_cycle(4)
    assert c.vertices == cyc.vertices
    assert c.edges == cyc.edges


def test_is_regular_examples():
    assert is_regular(build_cylinder(2, 2))
    assert is_regular(build_cylinder(1, 4))
    assert not is_regular(build_cylinder(3, 2))
    assert is_regular(build_torus(2, 2))


def test_torus_counts_and_regularity():
    for m in (2, 3):
        for n in (2, 4):
            g = build_torus(m, n)
            assert g.num_vertices == 4 * m * n
            assert g.num_edges == 8 * m * n
            assert is_regular(g)
            assert max_degree(g) == 4


def test_torus_invalid_parameters():
    for m, n in ((1, 2), (2, 1), (0, 0)):
        with pytest.raises(InvalidParameterError):
            build_torus(m, n)


def test_bipartite_by_coordinate_parity():
    # (layer + ring) parity is a proper 2-coloring because every edge steps
    # one coordinate by 1 or wraps across an odd span
    for g in (build_cylinder(3, 3), build_torus(2, 3), build_even_cycle(6)):
        assert is_bipartite(g)
        for u, v in g.edges:
            assert sum(u) % 2 != sum(v) % 2


def test_product_identity_factor():
    prod = cartesian_product(build_path(1), build_even_cycle(4))
    cyc = build_even_cycle(4)
    assert prod.vertices == cyc.vertices
    assert prod.edges == cyc.edges


def test_product_counts_frozen():
    g = cartesian_product(build_path(2), build_even_cycle(4))
    assert (g.num_vertices, g.num_edges) == (8, 12)
    h = cartesian_product(build_even_cycle(4), build_even_cycle(4))
    assert (h.num_vertices, h.num_edges) == (16, 32)
    assert is_regular(h) and max_degree(h) == 4


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=5))
def test_product_edge_count_law(m, n):
    g1 = build_path(m)
    g2 = build_even_cycle(2 * n)
    g = cartesian_product(g1, g2)
    assert g.num_vertices == g1.num_vertices * g2.num_vertices
    assert (
        g.num_edges
        == g1.num_vertices * g2.num_edges + g2.num_vertices * g1.num_edges
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=5))
def test_cylinder_equals_product(m, n):
    direct = build_cylinder(m, n)
    prod = cartesian_product(build_path(m), build_even_cycle(2 * n))
    assert direct.vertices == prod.vertices
    assert direct.edges == prod.edges


def bfs_diameter(g):
    # the general path, one breadth-first search per vertex
    return max(grids._eccentricity(g, v) for v in g.vertices)


def test_diameter_small_cases():
    assert diameter(build_even_cycle(4)) == 2
    assert diameter(build_even_cycle(8)) == 4
    for m, n in ((1, 2), (2, 2), (3, 4), (5, 2)):
        assert diameter(build_cylinder(m, n)) == m + n - 1
    # the family table's closed forms against BFS eccentricities
    graphs = [build_path(m) for m in range(1, 9)]
    graphs += [build_even_cycle(2 * n) for n in range(2, 9)]
    graphs += [build_cylinder(m, n) for m in range(1, 6) for n in range(2, 6)]
    for g in graphs:
        assert diameter(g) == bfs_diameter(g), (g.family, g.m, g.n)
    product = cartesian_product(build_path(3), build_even_cycle(6))
    assert diameter(product) == bfs_diameter(product) == 5


def floyd_warshall_diameter(g):
    verts = list(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    size = len(verts)
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(size)] for i in range(size)]
    for u, v in g.edges:
        i, j = idx[u], idx[v]
        dist[i][j] = dist[j][i] = 1
    for k in range(size):
        dk = dist[k]
        for i in range(size):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(size):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return max(max(row) for row in dist)


def test_diameter_torus_against_floyd_warshall():
    g = build_torus(2, 2)
    assert diameter(g) == 4
    assert diameter(g) == floyd_warshall_diameter(g)
    for m in range(2, 5):
        for n in range(2, 5):
            h = build_torus(m, n)
            assert diameter(h) == floyd_warshall_diameter(h) == m + n


def test_named_family_diameter_needs_no_search(monkeypatch):
    def refuse(g, start):
        raise AssertionError("breadth-first search on a named family")

    monkeypatch.setattr(grids, "_eccentricity", refuse)
    assert diameter(build_path(4)) == 3
    assert diameter(build_even_cycle(6)) == 3
    assert diameter(build_cylinder(2, 3)) == 4
    assert diameter(build_torus(2, 3)) == 5
    with pytest.raises(AssertionError):
        diameter(cartesian_product(build_path(2), build_even_cycle(4)))


def test_named_family_is_bipartite_without_search(monkeypatch):
    named = [build_path(4), build_even_cycle(6), build_cylinder(2, 3), build_torus(2, 3)]
    product = cartesian_product(build_path(3), build_even_cycle(4))

    def refuse(*args):
        raise AssertionError("breadth-first search on a named family")

    # every breadth-first walk in grids starts from a deque
    monkeypatch.setattr(grids, "deque", refuse)
    for g in named:
        assert is_bipartite(g)
    with pytest.raises(AssertionError):
        is_bipartite(product)


def test_is_bipartite_checks_every_component():
    def cycle(layer, length):
        ring = [(layer, j) for j in range(1, length + 1)]
        return ring, list(zip(ring, ring[1:] + ring[:1]))

    square, square_edges = cycle(1, 4)
    triangle, triangle_edges = cycle(2, 3)
    hexagon, hexagon_edges = cycle(2, 6)
    odd = _assemble(
        Family.PRODUCT, None, None, square + triangle, square_edges + triangle_edges
    )
    even = _assemble(
        Family.PRODUCT, None, None, square + hexagon, square_edges + hexagon_edges
    )
    assert not is_bipartite(odd)
    assert is_bipartite(even)


def test_diameter_disconnected_raises():
    g = _assemble(Family.PRODUCT, None, None, [(1, 1), (2, 2)], [])
    with pytest.raises(DisconnectedGraphError):
        diameter(g)


def test_edge_canonical_order_and_loop_rejection():
    a, b = (2, 1), (1, 3)
    # a reversed pair is stored with its endpoints in ascending order
    g = _assemble(Family.PRODUCT, None, None, [a, b], [(a, b)])
    assert g.edges == ((b, a),)
    assert g.position(a, b) == g.position(b, a) == 0
    with pytest.raises(InvalidParameterError, match="loop edge at x_1_2"):
        _assemble(Family.PRODUCT, None, None, [a, b], [(a, a)])


def test_assemble_rejects_bad_structure():
    v1, v2 = (1, 1), (1, 2)
    with pytest.raises(InvalidParameterError):
        _assemble(Family.PRODUCT, None, None, [v1, v2], [(v1, v2), (v2, v1)])
    with pytest.raises(InvalidParameterError):
        _assemble(Family.PRODUCT, None, None, [v1], [(v1, v2)])
    with pytest.raises(InvalidParameterError):
        _assemble(Family.PRODUCT, None, None, [(0, 1)], [])


def test_degree_unknown_vertex():
    g = build_even_cycle(4)
    with pytest.raises(InvalidParameterError):
        g.degree((9, 9))


def test_json_output_is_canonical():
    doc = coloring_to_json_dict(cylinder_coloring(2, 2).coloring)
    assert list(doc) == ["family", "m", "n", "vertices", "edges", "t"]
    assert doc["vertices"] == sorted(doc["vertices"])
    again = coloring_to_json_dict(cylinder_coloring(2, 2).coloring)
    assert dumps_canonical(doc) == dumps_canonical(again)


def test_claimed_size_is_checked_before_building(monkeypatch):
    def refuse(*args):
        pytest.fail("the claimed grid was built before its size was compared")

    doc = coloring_to_json_dict(EdgeColoring(build_even_cycle(4), (1, 2, 2, 3), 3))
    doc.update(family="cylinder", m=10**5, n=10**4)
    original = grids.build_cylinder
    monkeypatch.setattr(grids, "build_cylinder", refuse)
    for table in [v for v in vars(grids).values() if isinstance(v, dict)]:
        for key, value in table.items():
            if value is original:
                monkeypatch.setitem(table, key, refuse)
    with pytest.raises(SchemaError, match="do not match"):
        coloring_from_json_dict(doc)


def test_family_table_builds_and_bounds_parameters():
    assert build("cylinder", 2, 3).edges == build_cylinder(2, 3).edges
    assert build(Family.TORUS, 2, 2).edges == build_torus(2, 2).edges
    assert build("even_cycle", None, 3).edges == build_even_cycle(6).edges
    assert admits("cylinder", 1, 2) and not admits("torus", 1, 2)
    assert not admits("cylinder", 2, 1)
    with pytest.raises(InvalidParameterError):
        build("product", 2, 2)


def test_closed_form_edge_count_matches_built_graphs():
    for m in range(1, 7):
        assert edge_count("path", m, None) == build_path(m).num_edges
    for n in range(2, 7):
        assert edge_count("even_cycle", None, n) == build_even_cycle(2 * n).num_edges
        for m in range(1, 6):
            assert edge_count("cylinder", m, n) == build_cylinder(m, n).num_edges
        for m in range(2, 6):
            assert edge_count("torus", m, n) == build_torus(m, n).num_edges
