"""Bipartite grid graphs on path, cycle, cylinder, and torus meshes.

A vertex is a plain ``(layer, ring)`` pair of 1-based ints, and an edge
the pair of its endpoints in ascending order.  A cylinder on
``m`` layers and ``2n`` rings is the Cartesian product of a path with an
even cycle; the torus closes the layer factor into an even cycle too.
Edge lists are kept in a single canonical order so that serialization,
iteration, and search are deterministic.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, NamedTuple

from .errors import (
    DisconnectedGraphError,
    InvalidParameterError,
    SchemaError,
)

__all__ = [
    "Family",
    "MeshGraph",
    "build_path",
    "build_even_cycle",
    "build_cylinder",
    "build_torus",
    "cartesian_product",
    "build",
    "edge_count",
    "admits",
    "vertex_name",
    "max_degree",
    "is_regular",
    "is_bipartite",
    "diameter",
    "dumps_canonical",
]


class Family(str, Enum):
    PATH = "path"
    EVEN_CYCLE = "even_cycle"
    CYLINDER = "cylinder"
    TORUS = "torus"
    PRODUCT = "product"


GridVertex = tuple[int, int]  # (layer, ring)
Edge = tuple[GridVertex, GridVertex]  # endpoints in ascending order


def vertex_name(v: GridVertex) -> str:
    """The ``x_<ring>_<layer>`` name used by reports, exports and errors."""
    layer, ring = v
    return f"x_{ring}_{layer}"


def _edge_name(a: GridVertex, b: GridVertex) -> str:
    return f"{vertex_name(a)}-{vertex_name(b)}"


def _edge(a: GridVertex, b: GridVertex) -> Edge:
    """The edge joining ``a`` and ``b``: its endpoints in ascending order."""
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class MeshGraph:
    """A finite simple graph with grid-coordinate vertices.

    ``vertices`` and ``edges`` are sorted tuples; ``incident`` (the one
    vertex lookup: the positions in ``edges`` of each vertex's edges) and
    ``edge_index`` (each edge's position in ``edges``) are built once at
    assembly time and excluded from equality.
    """

    family: Family
    m: int | None
    n: int | None
    vertices: tuple[GridVertex, ...]
    edges: tuple[Edge, ...]
    incident: dict[GridVertex, tuple[int, ...]] = field(repr=False, compare=False)
    edge_index: dict[Edge, int] = field(repr=False, compare=False)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: GridVertex) -> int:
        if v not in self.incident:
            raise InvalidParameterError(f"vertex {vertex_name(v)} not in graph")
        return len(self.incident[v])

    def position(self, a: GridVertex, b: GridVertex) -> int | None:
        """Position in ``edges`` of the edge joining ``a`` and ``b``, or None."""
        return self.edge_index.get(_edge(a, b))


def _assemble(
    family: Family,
    m: int | None,
    n: int | None,
    vertices: Iterable[GridVertex],
    edge_pairs: Iterable[Edge],
) -> MeshGraph:
    vs = tuple(sorted(set(vertices)))
    if not vs:
        raise InvalidParameterError("graph needs at least one vertex")
    for v in vs:
        if min(v) < 1:
            raise InvalidParameterError(f"vertex {vertex_name(v)} has a coordinate below 1")
    vset = set(vs)
    edges = []
    seen: set[Edge] = set()
    for a, b in edge_pairs:
        if a == b:
            raise InvalidParameterError(f"loop edge at {vertex_name(a)}")
        e = _edge(a, b)
        if a not in vset or b not in vset:
            raise InvalidParameterError(f"edge {_edge_name(*e)} leaves the vertex set")
        if e in seen:
            raise InvalidParameterError(f"duplicate edge {_edge_name(*e)}")
        seen.add(e)
        edges.append(e)
    edges.sort()
    # sorted edges list each vertex's edges in ascending order of the other end
    inc: dict[GridVertex, list[int]] = {v: [] for v in vs}
    for i, (a, b) in enumerate(edges):
        inc[a].append(i)
        inc[b].append(i)
    return MeshGraph(
        family=family,
        m=m,
        n=n,
        vertices=vs,
        edges=tuple(edges),
        incident={v: tuple(es) for v, es in inc.items()},
        edge_index={e: i for i, e in enumerate(edges)},
    )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _ring_edges(layer: int, length: int) -> list[Edge]:
    """Cycle edges within one layer: (j, j+1) for j < length, plus the wrap."""
    out = [((layer, j), (layer, j + 1)) for j in range(1, length)]
    out.append(((layer, 1), (layer, length)))
    return out


def build_path(m: int) -> MeshGraph:
    """Path on ``m`` vertices, laid out as layers 1..m on ring 1."""
    if m < 1:
        raise InvalidParameterError(f"path needs m >= 1, got {m}")
    vertices = [(i, 1) for i in range(1, m + 1)]
    edges = [((i, 1), (i + 1, 1)) for i in range(1, m)]
    return _assemble(Family.PATH, m, None, vertices, edges)


def build_even_cycle(length: int) -> MeshGraph:
    """Cycle on an even number of vertices, laid out as rings on layer 1."""
    if length < 4 or length % 2 != 0:
        raise InvalidParameterError(
            f"even cycle needs an even length >= 4, got {length}"
        )
    vertices = [(1, j) for j in range(1, length + 1)]
    return _assemble(Family.EVEN_CYCLE, None, length // 2, vertices, _ring_edges(1, length))


def build_cylinder(m: int, n: int) -> MeshGraph:
    """Cylinder grid on ``m`` layers and ``2n`` rings.

    Layer ``i`` carries a cycle on rings 1..2n; consecutive layers are
    joined by one rung per ring.  Equals ``cartesian_product(build_path(m),
    build_even_cycle(2 * n))`` vertex for vertex.
    """
    if m < 1:
        raise InvalidParameterError(f"cylinder needs m >= 1, got m={m}")
    if n < 2:
        raise InvalidParameterError(f"cylinder needs n >= 2, got n={n}")
    width = 2 * n
    vertices = [(i, j) for i in range(1, m + 1) for j in range(1, width + 1)]
    edges: list[Edge] = []
    for i in range(1, m + 1):
        edges.extend(_ring_edges(i, width))
    for i in range(1, m):
        for j in range(1, width + 1):
            edges.append(((i, j), (i + 1, j)))
    return _assemble(Family.CYLINDER, m, n, vertices, edges)


def build_torus(m: int, n: int) -> MeshGraph:
    """Torus grid on ``2m`` layers and ``2n`` rings.

    Both factors are even cycles, so the graph is 4-regular and bipartite.
    """
    if m < 2:
        raise InvalidParameterError(f"torus needs m >= 2, got m={m}")
    if n < 2:
        raise InvalidParameterError(f"torus needs n >= 2, got n={n}")
    height, width = 2 * m, 2 * n
    vertices = [(i, j) for i in range(1, height + 1) for j in range(1, width + 1)]
    edges: list[Edge] = []
    for i in range(1, height + 1):
        edges.extend(_ring_edges(i, width))
    for j in range(1, width + 1):
        for i in range(1, height):
            edges.append(((i, j), (i + 1, j)))
        edges.append(((1, j), (height, j)))
    return _assemble(Family.TORUS, m, n, vertices, edges)


def cartesian_product(g1: MeshGraph, g2: MeshGraph) -> MeshGraph:
    """Cartesian product, with vertex (a, b) relabeled to grid coordinates.

    The layer of a product vertex is the 1-based rank of ``a`` among
    ``g1.vertices`` and the ring is the rank of ``b`` among ``g2.vertices``,
    so products of paths and even cycles coincide with the direct builders.
    """
    rank1 = {v: i for i, v in enumerate(g1.vertices, start=1)}
    rank2 = {v: i for i, v in enumerate(g2.vertices, start=1)}
    vertices = [(rank1[a], rank2[b]) for a in g1.vertices for b in g2.vertices]
    edges: list[Edge] = []
    for a in g1.vertices:
        for u, v in g2.edges:
            edges.append(((rank1[a], rank2[u]), (rank1[a], rank2[v])))
    for b in g2.vertices:
        for u, v in g1.edges:
            edges.append(((rank1[u], rank2[b]), (rank1[v], rank2[b])))
    return _assemble(Family.PRODUCT, None, None, vertices, edges)


class _FamilyLaw(NamedTuple):
    """How a named family is built from (m, n), its size and its diameter.

    ``min_m``/``min_n`` are the least admissible parameters; ``None``
    means the family takes no such parameter.  ``build`` looks the
    builder up at call time, so rebinding a builder name reaches it.
    ``num_edges`` and ``diameter`` are closed forms: a cylinder has 2n
    edges on each of its m rings and on each of its m - 1 rung layers,
    and a torus is 4-regular on 4mn vertices.  A Cartesian product's
    diameter is the sum of its factors', with m - 1 for a path on m
    vertices and n for a cycle on 2n vertices.
    """

    build: Callable[[int | None, int | None], MeshGraph]
    min_m: int | None
    min_n: int | None
    num_vertices: Callable[[int | None, int | None], int]
    num_edges: Callable[[int | None, int | None], int]
    diameter: Callable[[int | None, int | None], int]


_FAMILIES = {
    Family.PATH: _FamilyLaw(
        lambda m, n: build_path(m), 1, None, lambda m, n: m, lambda m, n: m - 1,
        lambda m, n: m - 1,
    ),
    Family.EVEN_CYCLE: _FamilyLaw(
        lambda m, n: build_even_cycle(2 * n), None, 2, lambda m, n: 2 * n,
        lambda m, n: 2 * n, lambda m, n: n,
    ),
    Family.CYLINDER: _FamilyLaw(
        lambda m, n: build_cylinder(m, n), 1, 2, lambda m, n: 2 * m * n,
        lambda m, n: 2 * n * (2 * m - 1), lambda m, n: m - 1 + n,
    ),
    Family.TORUS: _FamilyLaw(
        lambda m, n: build_torus(m, n), 2, 2, lambda m, n: 4 * m * n,
        lambda m, n: 8 * m * n, lambda m, n: m + n,
    ),
}


def _family(name: Family | str) -> Family:
    """The family called ``name``; an unknown name is an invalid parameter."""
    try:
        return Family(name)
    except ValueError:
        raise InvalidParameterError(f"unknown family {name!r}") from None


def _law(family: Family | str) -> _FamilyLaw:
    family = _family(family)
    if family not in _FAMILIES:
        raise InvalidParameterError(f"family {family.value} has no (m, n) builder")
    return _FAMILIES[family]


def build(family: Family | str, m: int | None, n: int | None) -> MeshGraph:
    """The member of a named family with parameters (m, n)."""
    return _law(family).build(m, n)


def edge_count(family: Family | str, m: int | None, n: int | None) -> int:
    """|E| of the member of a named family with parameters (m, n), unbuilt."""
    return _law(family).num_edges(m, n)


def admits(family: Family | str, m: int, n: int) -> bool:
    """Whether (m, n) lies in the parameter range of a named family."""
    law = _law(family)
    return (law.min_m is None or m >= law.min_m) and (law.min_n is None or n >= law.min_n)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def max_degree(g: MeshGraph) -> int:
    return max(map(len, g.incident.values()))


def is_regular(g: MeshGraph) -> bool:
    return len(set(map(len, g.incident.values()))) == 1


def _bfs(g: MeshGraph, root: GridVertex) -> dict[GridVertex, int]:
    """Distance from ``root`` of every vertex it reaches, in discovery order."""
    dist = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        step = dist[u] + 1
        for i in g.incident[u]:
            for w in g.edges[i]:
                if w not in dist:
                    dist[w] = step
                    queue.append(w)
    return dist


def is_bipartite(g: MeshGraph) -> bool:
    """Whether ``g`` has a proper 2-coloring of its vertices.

    Every named family in ``_FAMILIES`` is bipartite by construction (only
    the builders label a graph with a named family); any other graph is
    bipartite when every edge joins breadth-first distances of different
    parity, each component measured from its least vertex.
    """
    if g.family in _FAMILIES:
        return True
    dist: dict[GridVertex, int] = {}
    for root in g.vertices:
        if root not in dist:
            dist.update(_bfs(g, root))
    return all((dist[a] ^ dist[b]) & 1 for a, b in g.edges)


def _eccentricity(g: MeshGraph, start: GridVertex) -> int:
    dist = _bfs(g, start)
    if len(dist) != g.num_vertices:
        raise DisconnectedGraphError("graph is disconnected, diameter is infinite")
    return max(dist.values())


def diameter(g: MeshGraph) -> int:
    """Largest shortest-path distance.

    A named family's diameter comes from its closed form in ``_FAMILIES``
    (only the builders label a graph with a named family); any other graph
    takes a breadth-first search per vertex.
    """
    law = _FAMILIES.get(g.family)
    if law is not None:
        return law.diameter(g.m, g.n)
    return max(_eccentricity(g, v) for v in g.vertices)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _parse_vertex(obj: object) -> GridVertex:
    # exact type test: True and 1.0 hash and compare equal to 1, so an edge
    # lookup alone would take them for coordinates
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        layer, ring = obj
        if type(layer) is int and type(ring) is int:
            return layer, ring
    raise SchemaError(f"vertex must be a [layer, ring] pair of integers, got {obj!r}")


def _parse_optional_size(d: dict, key: str) -> int | None:
    value = d.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{key!r} must be an integer or null, got {value!r}")
    return value


def _member_name(family: Family, m: int | None, n: int | None) -> str:
    return f"family {family.value!r} with m={m}, n={n}"


def _listed_graph(d: dict, pairs: list[Edge]) -> MeshGraph:
    """The graph a document lists, given its rows as parsed edges.

    A recognized family is built once from (m, n) after its closed-form
    vertex count is compared with the listing; only ``product`` graphs are
    assembled from ``pairs``.  Whether each pair is an edge of a built
    family is left to the caller, which places the rows.
    """
    for key in ("family", "vertices"):
        if key not in d:
            raise SchemaError(f"graph document is missing {key!r}")
    try:
        family = _family(d["family"])
    except InvalidParameterError as exc:
        raise SchemaError(str(exc)) from None
    m = _parse_optional_size(d, "m")
    n = _parse_optional_size(d, "n")
    if not isinstance(d["vertices"], list):
        raise SchemaError("'vertices' must be an array")
    vertices = [_parse_vertex(v) for v in d["vertices"]]
    vertex_set = set(vertices)
    if len(vertex_set) != len(vertices):
        raise SchemaError("duplicate vertices in document")
    law = _FAMILIES.get(family)
    if law is None:
        try:
            return _assemble(family, m, n, vertices, pairs)
        except InvalidParameterError as exc:
            raise SchemaError(str(exc)) from None
    if (m is None) != (law.min_m is None) or (n is None) != (law.min_n is None):
        raise SchemaError(f"family {family.value!r} has inconsistent m/n")
    # compare sizes first, so a claimed (m, n) is never built beyond the listing
    if law.num_vertices(m, n) != len(vertices):
        raise SchemaError(f"listed vertices do not match {_member_name(family, m, n)}")
    try:
        g = law.build(m, n)
    except InvalidParameterError as exc:
        raise SchemaError(str(exc)) from None
    if g.incident.keys() != vertex_set:
        raise SchemaError(f"listed vertices do not match {_member_name(family, m, n)}")
    return g


def dumps_canonical(d: dict) -> str:
    """Stable JSON rendering used for every file the package writes."""
    return json.dumps(d, indent=2, sort_keys=False) + "\n"
