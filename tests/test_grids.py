"""Graph construction and query tests, with independent oracles for derived values."""

from __future__ import annotations

import copy
import json
import re
from collections import deque
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intervalmesh import (
    EdgeColoring,
    Family,
    build_cylinder,
    build_torus,
    coloring_from_json_dict,
    coloring_to_json_dict,
    cylinder_coloring,
    diameter,
    max_degree,
)
from intervalmesh.errors import InvalidParameterError, SchemaError
from intervalmesh import grids, verify_interval
from intervalmesh.bounds import bounds_row
from intervalmesh.cli import run
from intervalmesh.constructions import construct, spectrum_sweep
from intervalmesh.grids import admits, build, dumps_canonical, edge_count

from helpers import position
from test_constructions import reference_torus


def degree_by_edge_scan(g, v):
    # independent of the incident index: recount from the edge list
    return sum(1 for e in g.edges if v in e)


def test_even_cycle_basic():
    # the even cycle is the cylinder of one layer
    g = build_cylinder(1, 2)
    assert len(g.vertices) == 4
    assert g.num_edges == 4
    assert all(len(g.incident[v]) == 2 for v in g.vertices)
    assert (g.m, g.n) == (1, 2)


def test_cylinder_vertex_and_edge_counts():
    for m in (1, 2, 3, 7):
        for n in (2, 3, 5):
            g = build_cylinder(m, n)
            assert len(g.vertices) == 2 * m * n
            assert g.num_edges == 2 * m * n + (m - 1) * 2 * n


def test_cylinder_invalid_parameters():
    with pytest.raises(InvalidParameterError, match=r"^cylinder needs m >= 1, got m=0$"):
        build_cylinder(0, 2)
    with pytest.raises(InvalidParameterError, match=r"^cylinder needs n >= 2, got n=1$"):
        build_cylinder(1, 1)


def test_cylinder_degrees():
    # layer count controls the maximum degree: 2 on a bare cycle, 3 with one
    # neighbor layer, 4 with layers on both sides
    assert max_degree(build_cylinder(1, 3)) == 2
    assert max_degree(build_cylinder(2, 2)) == 3
    assert max_degree(build_cylinder(3, 2)) == 4
    g = build_cylinder(3, 2)
    for v in g.vertices:
        assert len(g.incident[v]) == degree_by_edge_scan(g, v)
        assert len(g.incident[v]) in (3, 4)


def test_cylinder_m1_equals_even_cycle():
    c = build_cylinder(1, 2)
    assert c.vertices == ((1, 1), (1, 2), (1, 3), (1, 4))
    assert c.edges == (((1, 1), (1, 2)), ((1, 1), (1, 4)), ((1, 2), (1, 3)), ((1, 3), (1, 4)))


def test_torus_counts_and_regularity():
    for m in (2, 3):
        for n in (2, 4):
            g = build_torus(m, n)
            assert len(g.vertices) == 4 * m * n
            assert g.num_edges == 8 * m * n
            assert max_degree(g) == 4


def test_torus_invalid_parameters():
    for m, n, message in (
        (1, 2, "torus needs m >= 2, got m=1"),
        (2, 1, "torus needs n >= 2, got n=1"),
        (0, 0, "torus needs m >= 2, got m=0"),
    ):
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            build_torus(m, n)


def test_bipartite_by_coordinate_parity():
    # (layer + ring) parity is a proper 2-coloring because every edge steps
    # one coordinate by 1 or wraps across an odd span
    for g in (build_cylinder(3, 3), build_torus(2, 3), build_cylinder(1, 3)):
        for u, v in g.edges:
            assert sum(u) % 2 != sum(v) % 2


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=5))
def test_product_edge_count_law(m, n):
    # the cylinder is the Cartesian product of a path on m vertices and
    # m - 1 edges with an even cycle, the cylinder of one layer
    ring = build_cylinder(1, n)
    g = build_cylinder(m, n)
    assert len(g.vertices) == m * len(ring.vertices)
    assert g.num_edges == m * ring.num_edges + len(ring.vertices) * (m - 1)


def bfs_diameter(g):
    # one breadth-first search per vertex, each reaching every vertex; a
    # reference walk over the edge list, written here, not the package's
    neighbours = {v: [] for v in g.vertices}
    for a, b in g.edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    eccentricities = []
    for v in g.vertices:
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in neighbours[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        assert len(dist) == len(g.vertices)
        eccentricities.append(max(dist.values()))
    return max(eccentricities)


def test_diameter_small_cases():
    assert diameter(build_cylinder(1, 4)) == 4
    for m, n in ((1, 2), (2, 2), (3, 4), (5, 2)):
        assert diameter(build_cylinder(m, n)) == m + n - 1
    # the family table's closed forms against BFS eccentricities
    graphs = [build_cylinder(1, n) for n in range(6, 9)]
    graphs += [build_cylinder(m, n) for m in range(1, 6) for n in range(2, 6)]
    graphs += [build_torus(m, n) for m in range(2, 5) for n in range(2, 5)]
    for g in graphs:
        assert diameter(g) == bfs_diameter(g), (g.family, g.m, g.n)


# Each named family's layer and ring counts, and whether each closes into a
# cycle, written out here rather than read from the package.
FAMILY_GRIDS = {
    "cylinder": (1, 2, lambda m, n: (m, False, 2 * n, True)),
    "torus": (2, 2, lambda m, n: (2 * m, True, 2 * n, True)),
}


def neighbour_rule_grid(layers, closed_layers, rings, closed_rings):
    """Vertices, edges and diameter from the neighbour rules alone: (i, j) ~
    (i, j + 1) and (i, j) ~ (i + 1, j), plus (i, rings) ~ (i, 1) and
    (layers, j) ~ (1, j) on a closed factor; the diameter by BFS over them."""
    vertices = [(i, j) for i in range(1, layers + 1) for j in range(1, rings + 1)]
    adjacent = {v: set() for v in vertices}
    for i, j in vertices:
        steps = [(i, j + 1), (i + 1, j)]
        if closed_rings and j == rings:
            steps.append((i, 1))
        if closed_layers and i == layers:
            steps.append((1, j))
        for w in steps:
            if w in adjacent and w != (i, j):
                adjacent[(i, j)].add(w)
                adjacent[w].add((i, j))
    edges = sorted({(min(a, b), max(a, b)) for a in adjacent for b in adjacent[a]})

    def eccentricity(root):
        seen, frontier, depth = {root}, {root}, 0
        while True:
            frontier = {w for u in frontier for w in adjacent[u]} - seen
            if not frontier:
                return depth
            seen |= frontier
            depth += 1

    return vertices, edges, max(map(eccentricity, vertices))


def test_named_families_match_their_neighbour_rules():
    # the torus runs to m = 9, past every n, so transposed members (m > n)
    # as wide as T(18, 4) are built too
    checked = 0
    for family, (min_m, min_n, shape) in FAMILY_GRIDS.items():
        for m in range(min_m, 10 if family == "torus" else 7):
            for n in range(min_n, 7):
                vertices, edges, diam = neighbour_rule_grid(*shape(m, n))
                g = build(family, m, n)
                assert list(g.vertices) == vertices, (family, m, n)
                assert list(g.edges) == edges, (family, m, n)
                # keys in vertex order, each vertex's edge positions ascending
                incident = [(v, tuple(k for k, e in enumerate(edges) if v in e)) for v in vertices]
                assert list(g.incident.items()) == incident, (family, m, n)
                assert [position(g, b, a) for a, b in edges] == list(range(len(edges))), (family, m, n)
                assert edge_count(family, m, n) == len(edges), (family, m, n)
                assert diameter(g) == diam, (family, m, n)
                checked += 1
    assert checked == 6 * 5 + 8 * 5


def test_the_flat_view_matches_the_edge_scan():
    for family, least in (("cylinder", 1), ("torus", 2)):
        for m in range(least, 7):
            for n in range(2, 7):
                g = grids._grid.__wrapped__(Family(family), m, n)  # fresh: nothing read yet
                index = g.vertices.index
                assert g.ends == tuple((index(a), index(b)) for a, b in g.edges), (family, m, n)
                assert g.degree == tuple(degree_by_edge_scan(g, v) for v in g.vertices), (family, m, n)
                assert g._incident is None, (family, m, n)
                incident = [(v, tuple(k for k, e in enumerate(g.edges) if v in e)) for v in g.vertices]
                assert list(g.incident.items()) == incident, (family, m, n)
                assert g._incident is g.incident


def test_a_bounds_row_builds_neither_lazy_view():
    bounds_row("torus", 3, 3)
    hits = grids._grid.cache_info().hits
    g = build("torus", 3, 3)
    assert grids._grid.cache_info().hits == hits + 1  # the row's own graph
    assert g._incident is None
    result = construct("torus", 3, 3)
    assert result.coloring.graph is g and result._trace is None
    assert result.rule_trace == reference_torus(3, 3)[1]  # painted on this first read
    assert result._trace is result.rule_trace and g._incident is None


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


def factor_symmetries(k, closed):
    """Generators of a factor's symmetries, as maps of 1..k: a cycle's
    rotation and reflection, or a path's reversal."""
    reverse = lambda j: k + 1 - j  # noqa: E731
    return [lambda j: j % k + 1, reverse] if closed else [reverse]


def edge_orbits(g, layer, ring):
    """Edge orbits of the group generated by the symmetries of the layer and
    ring factors acting on their copies, and by the transpose (i, j) -> (j, i)
    when the factors are alike; each orbit as a set of edge positions."""
    maps = [lambda v, s=s: (s(v[0]), v[1]) for s in factor_symmetries(*layer)]
    maps += [lambda v, s=s: (v[0], s(v[1])) for s in factor_symmetries(*ring)]
    if layer == ring:
        maps.append(lambda v: (v[1], v[0]))
    parent = list(range(g.num_edges))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, (a, b) in enumerate(g.edges):
        for f in maps:
            image = position(g, f(a), f(b))
            assert image is not None, "a symmetry must map edges to edges"
            parent[find(i)] = find(image)
    orbits = {}
    for i in range(g.num_edges):
        orbits.setdefault(find(i), set()).add(i)
    return list(orbits.values())


@pytest.mark.parametrize(
    ("family", "m", "n"),
    [("cylinder", m, n) for m in range(1, 6) for n in range(2, 5)]
    + [("torus", m, n) for m in (2, 3) for n in (2, 3)],
)
def test_every_edge_orbit_has_one_representative(family, m, n):
    g = build(family, m, n)
    layers, closed_layers, rings, closed_rings = FAMILY_GRIDS[family][2](m, n)
    listed = grids._representatives(g)
    assert listed == sorted(set(listed))
    for orbit in edge_orbits(g, (layers, closed_layers), (rings, closed_rings)):
        assert len(orbit & set(listed)) == 1, [g.edges[i] for i in sorted(orbit)]


def test_edge_canonical_order_and_loop_rejection():
    g = build_cylinder(2, 2)
    # every edge is stored with its endpoints in ascending order, and found
    # from either end
    assert all(a < b for a, b in g.edges)
    for i, (a, b) in enumerate(g.edges):
        assert position(g, a, b) == position(g, b, a) == i
    a, b = (2, 1), (1, 1)
    assert position(g, a, b) == position(g, b, a) == g.edges.index((b, a))
    assert position(g, a, a) is None
    doc = coloring_to_json_dict(cylinder_coloring(2, 2).coloring)
    doc["edges"][0]["u"] = doc["edges"][0]["v"] = list(a)
    with pytest.raises(SchemaError, match="^loop edge at x_1_2$"):
        coloring_from_json_dict(doc)


def test_representatives_list_the_orbit_edges():
    grids._grid.cache_clear()
    for family, m, n, listed in (
        ("cylinder", 3, 4, [((1, 1), (1, 2)), ((1, 1), (2, 1)), ((2, 1), (2, 2))]),
        ("torus", 3, 2, [((1, 1), (1, 2)), ((1, 1), (2, 1))]),
    ):
        bounds_row(family, m, n)
        g = build(family, m, n)  # the graph the row was built on, still cached
        assert [g.edges[i] for i in grids._representatives(g)] == listed


def test_json_output_is_canonical():
    doc = coloring_to_json_dict(cylinder_coloring(2, 2).coloring)
    assert list(doc) == ["family", "m", "n", "vertices", "edges", "t"]
    assert doc["vertices"] == sorted(doc["vertices"])
    again = coloring_to_json_dict(cylinder_coloring(2, 2).coloring)
    assert dumps_canonical(doc) == dumps_canonical(again)


def test_claimed_size_is_checked_before_building(monkeypatch):
    def refuse(*args):
        pytest.fail("the claimed grid was built before its size was compared")

    doc = coloring_to_json_dict(EdgeColoring(build_cylinder(1, 2), (1, 2, 2, 3), 3))
    doc.update(family="cylinder", m=10**5, n=10**4)
    monkeypatch.setattr(grids, "_product", refuse)  # every grid build goes through it
    with pytest.raises(SchemaError, match="do not match"):
        coloring_from_json_dict(doc)


def test_family_table_builds_and_bounds_parameters():
    assert build("cylinder", 2, 3).edges == build_cylinder(2, 3).edges
    assert build(Family.TORUS, 2, 2).edges == build_torus(2, 2).edges
    assert admits("cylinder", 1, 2) and not admits("torus", 1, 2)
    assert not admits("cylinder", 2, 1)
    for f in Family:
        assert f.closed is (f is Family.TORUS)
        assert admits(f, 1 + f.closed, 2) and not admits(f, int(f.closed), 2)
    with pytest.raises(InvalidParameterError, match=r"^unknown family 'product'$"):
        build("product", 2, 2)


def test_the_graph_cache_keeps_the_last_two_members():
    first = build_cylinder(2, 3)
    assert build("cylinder", 2, 3) is first
    assert grids._grid(Family.CYLINDER, 2, 3) is first
    build_torus(2, 2)
    build_cylinder(1, 3)
    assert grids._grid.cache_info().currsize == 2
    assert build_cylinder(2, 3) is not first
    assert build_cylinder(2, 3) == first


def test_the_graph_cache_keeps_bool_and_int_apart():
    # the range check runs before the cache, so a cached m=1 graph never
    # answers m=True
    assert type(build_cylinder(1, 2).m) is int
    with pytest.raises(InvalidParameterError, match=r"^cylinder needs m >= 1, got m=True$"):
        build_cylinder(True, 2)
    assert type(build_cylinder(1, 2).m) is int


# [1] cannot key the graph cache, so it is refused before the cache is asked
@pytest.mark.parametrize("bad", [None, 2.0, True, "2", [1]])
def test_a_parameter_that_is_not_an_int_is_refused(bad):
    text = rf"^cylinder needs m >= 1, got m={re.escape(repr(bad))}$"
    with pytest.raises(InvalidParameterError, match=text):
        build("cylinder", bad, 2)
    with pytest.raises(InvalidParameterError, match=text):
        construct("cylinder", bad, 2)
    with pytest.raises(InvalidParameterError, match=text):
        edge_count("cylinder", bad, 2)
    with pytest.raises(InvalidParameterError, match=text):
        grids.MeshGraph("cylinder", bad, 2)
    assert not admits("cylinder", bad, 2)
    with pytest.raises(InvalidParameterError, match=r"^torus needs n >= 2, got n="):
        build("torus", 2, bad)
    with pytest.raises(InvalidParameterError, match=r"^torus needs n >= 2, got n="):
        grids.MeshGraph("torus", 2, bad)


def test_edge_count_refuses_what_build_refuses():
    for family, m, n in [("cylinder", 0, 2), ("cylinder", 2, 1), ("torus", 1, 2),
                         ("cylinder", None, 2), ("torus", 2, None)]:
        with pytest.raises(InvalidParameterError) as built:
            build(family, m, n)
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(str(built.value))}$"):
            edge_count(family, m, n)
        # the graph's one constructor admits (m, n) as build does
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(str(built.value))}$"):
            grids.MeshGraph(family, m, n)
    with pytest.raises(InvalidParameterError, match=r"^torus needs m >= 2, got m=1$"):
        grids.MeshGraph(grids.Family.TORUS, 1, 2)
    with pytest.raises(InvalidParameterError, match=r"^unknown family 'moebius'$"):
        grids.MeshGraph("moebius", 2, 2)


def test_a_build_that_raises_is_not_cached():
    for _ in range(3):
        with pytest.raises(InvalidParameterError, match="m >= 2, got m=1"):
            build_torus(1, 2)
    assert grids._grid.cache_info().currsize == 0


def test_a_cached_graph_is_left_as_built(tmp_path):
    g = build_torus(2, 2)
    doc = tmp_path / "t5.json"
    assert run(["generate", "--family", "torus", "-m", "2", "-n", "2", "--t", "5",
                "-o", str(doc)]) == 0
    assert run(["verify", str(doc)]) == 0
    assert run(["export", str(doc), "--format", "csv"]) == 0
    assert run(["export", str(doc), "--format", "dot"]) == 0
    assert run(["search", "--family", "torus", "-m", "2", "-n", "2", "--t", "4",
                "--max-edges", "32"]) == 0
    coloring, _ = coloring_from_json_dict(json.loads(doc.read_text()))
    spectrum_sweep(2, 2)
    assert coloring.graph is build_torus(2, 2) is g
    fresh = grids._grid.__wrapped__(Family.TORUS, 2, 2)
    assert fresh is not g
    assert g.incident == fresh.incident


def test_closed_form_edge_count_matches_built_graphs():
    for n in range(2, 7):
        for m in range(1, 6):
            assert edge_count("cylinder", m, n) == build_cylinder(m, n).num_edges
        for m in range(2, 6):
            assert edge_count("torus", m, n) == build_torus(m, n).num_edges
    # the closed-form greatest degree against a scan of every vertex
    for family, least in (("cylinder", 1), ("torus", 2)):
        for m in range(least, 13):
            for n in range(2, 13):
                g = build(family, m, n)
                assert max_degree(g) == max(map(len, g.incident.values())), (family, m, n)


def stdlib_dumps(d):
    """What ``dumps_canonical`` must write: ``json.dumps(indent=2)``, or its exception type."""
    try:
        return json.dumps(d, indent=2) + "\n"
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def canonical_or_exception(d):
    try:
        return dumps_canonical(d)
    except Exception as exc:  # noqa: BLE001
        return type(exc)


def family_colorings():
    """A coloring of every family at every size up to m, n = 6, with its rule
    trace where it has one: constructed, and with numbered edges for a
    cylinder of one layer."""
    for n in range(2, 7):
        g = build_cylinder(1, n)
        aligned = tuple(i % 5 + 1 for i in range(g.num_edges))
        yield EdgeColoring(g, aligned, max(aligned)), None
    for family in ("cylinder", "torus"):
        for m in range(1, 7):
            for n in range(1, 7):
                if admits(family, m, n):
                    result = construct(family, m, n)
                    yield result.coloring, result.rule_trace


def test_writer_matches_json_dumps_on_every_family_and_size():
    for coloring, trace in family_colorings():
        ruled = trace or tuple(f"rule-{i}" for i in range(coloring.graph.num_edges))
        for rule_trace in (None, ruled):
            doc = coloring_to_json_dict(coloring, rule_trace)
            assert dumps_canonical(doc) == stdlib_dumps(doc)


def test_writer_matches_json_dumps_on_sweeps_reports_and_manifests(tmp_path):
    sweep = {"colorings": [coloring_to_json_dict(c) for c in spectrum_sweep(2, 3)]}
    assert dumps_canonical(sweep) == stdlib_dumps(sweep)
    for coloring, _ in family_colorings():
        report = verify_interval(coloring).to_json_dict()
        assert dumps_canonical(report) == stdlib_dumps(report)
    manifest = tmp_path / "m.json"
    out = tmp_path / "a.json"
    argv = ["search", "--family", "cylinder", "-m", "1", "-n", "2", "--t", "2"]
    assert run([*argv, "--timeout", "5.5", "-o", str(out), "--manifest", str(manifest)]) == 0
    for path in (out, manifest):
        text = path.read_text(encoding="utf-8")
        assert dumps_canonical(json.loads(text)) == text == stdlib_dumps(json.loads(text))


class Shade(IntEnum):
    RED = 1


# quotes, backslashes, control and non-ASCII characters, lone surrogates
TEXT = st.text(st.sampled_from('"\\\n\té\u2028\ud800\udfff/x')) | st.text(
    st.characters(exclude_categories=())
)

# values that must not be written through a template: not exact ints, pairs of
# the wrong length, strings that need escaping, and containers json renders itself
HOSTILE = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(),
    st.just(Shade.RED),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.lists(st.integers(min_value=-5, max_value=5), max_size=3),
    TEXT,
    st.dictionaries(
        st.one_of(st.integers(), st.booleans(), st.none(), st.text(max_size=2)),
        st.integers(),
        max_size=2,
    ),
    st.just({1, 2}),
)


@st.composite
def damaged_documents(draw):
    """A small coloring document with one to three faults, sometimes inside a sweep."""
    result = construct(draw(st.sampled_from(["cylinder", "torus"])), 2, 2)
    doc = coloring_to_json_dict(result.coloring, draw(st.sampled_from([None, result.rule_trace])))
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(doc["edges"])) if doc["edges"] else {}
        key = draw(st.sampled_from(["u", "v", "color", "rule"]))
        pairs = [p for p in (row.get("u"), row.get("v"), *doc["vertices"]) if type(p) is list]
        pair = draw(st.sampled_from(pairs)) if pairs else []
        kind = draw(st.sampled_from(
            ["value", "rule", "coordinate", "resize", "drop", "extra", "reorder", "empty"]
        ))
        if kind == "value":
            row[key] = draw(HOSTILE)
        elif kind == "rule":
            row["rule"] = draw(TEXT)
        elif kind == "coordinate" and pair:
            pair[draw(st.integers(0, len(pair) - 1))] = draw(HOSTILE)
        elif kind == "resize":
            # a 1- or 3-element pair
            pair[1:] = [] if draw(st.booleans()) else [*pair[1:], draw(st.integers(0, 9))]
        elif kind == "drop":
            row.pop(key, None)
        elif kind == "extra":
            row[draw(st.one_of(st.text(max_size=3), st.integers(), st.none()))] = draw(HOSTILE)
        elif kind == "reorder":
            items = list(row.items())
            row.clear()
            row.update(draw(st.permutations(items)))
        elif kind == "empty":
            doc[draw(st.sampled_from(["vertices", "edges"]))].clear()
    if draw(st.booleans()):
        doc = {"colorings": [doc, copy.deepcopy(doc)]}
    return doc


def _rows_with_rules(*rules):
    """A torus document whose first rows carry ``rules`` and the rest none."""
    doc = coloring_to_json_dict(construct("torus", 2, 2).coloring)
    for row, rule in zip(doc["edges"], rules):
        row["rule"] = rule
    return doc


def _rows_made(make):
    """A torus document whose every row is ``make(row)``."""
    doc = coloring_to_json_dict(construct("torus", 2, 2).coloring)
    doc["edges"] = [make(row) for row in doc["edges"]]
    return doc


@settings(max_examples=300, deadline=None)
@given(damaged_documents())
@example(_rows_made(lambda r: {"color": r["color"], "v": r["v"], "u": r["u"]}))
@example(_rows_made(lambda r: {"%": r["u"], "%d": r["color"], "a%sb": "%d"}))
@example(_rows_made(lambda r: {'"': r["u"], "\u00e9": r["color"], "\\": "\u00e9"}))
@example(_rows_made(lambda r: {**r, "v": r["u"]}))
@example(_rows_made(lambda r: {}))
@example(_rows_made(lambda r: {**r, "even": r["color"] % 2 == 0}))
@example(_rows_made(lambda r: {1: r["u"], 2: r["color"]}))
@example(_rows_with_rules(None))
@example(_rows_with_rules(0))
@example(_rows_with_rules([]))
@example(_rows_with_rules("ring", None, 0, []))
@example({"colorings": [_rows_with_rules(None), _rows_with_rules(*["r"] * 32)]})
@example(_rows_made(lambda r: {"u": r["u"], "proper": r["color"] > 2, "interval": True}))
@example(_rows_made(lambda r: {"mixed": r["color"] % 3 == 0 or r["color"]}))
@example(_rows_made(lambda r: {"colors": [*r["u"], r["color"]]}))
@example(_rows_made(lambda r: {"colors": [*r["u"], *r["v"]], "degree": 4}))
@example(_rows_made(lambda r: {"colors": r["u"] * (r["color"] % 2 + 1)}))
@example(_rows_made(lambda r: {"colors": [], "color": r["color"]}))
@example({"triples": [[1, 2, 3], [4, 5, 6]], "ragged": [[1], [2, 3]], "empty": [[], []]})
@example(verify_interval(construct("torus", 2, 2).coloring).to_json_dict())
@example(verify_interval(construct("cylinder", 2, 2).coloring).to_json_dict())
def test_writer_matches_json_dumps_on_damaged_documents(doc):
    assert canonical_or_exception(doc) == stdlib_dumps(doc)


def test_writer_raises_what_json_dumps_raises():
    doc = coloring_to_json_dict(cylinder_coloring(2, 2).coloring)
    doc["edges"][3]["color"] = {3}
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        dumps_canonical(doc)
