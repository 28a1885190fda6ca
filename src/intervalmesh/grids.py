"""Bipartite grid graphs on cylinder and torus meshes.

Every graph is the member (m, n) of one of these two named families,
so it is connected and bipartite by construction, and its size,
diameter and edge orbits follow from its family's layer factor
without a search.  A vertex is a plain ``(layer, ring)`` pair of 1-based
ints, and an edge the pair of its endpoints in ascending order.  Both
families are the Cartesian product of a layer factor with the ring
factor, the cycle on ``2n`` vertices: a cylinder's layer factor is the
path on ``m`` vertices, and a torus's the cycle on ``2m``.  Edge lists
are kept in a single canonical order so that serialization, iteration,
and search are deterministic.  ``dumps_canonical`` writes reports,
manifests and any other JSON value, and knows no document's keys: the
coloring document, its writer and reader included, belongs to
``colorings`` alone.
"""

from __future__ import annotations

import functools
import json
import operator
from enum import Enum
from itertools import chain

from .errors import InvalidParameterError

__all__ = [
    "Family",
    "MeshGraph",
    "build_cylinder",
    "build_torus",
    "build",
    "edge_count",
    "DEFAULT_MAX_EDGES",
    "admits",
    "vertex_name",
    "max_degree",
    "diameter",
    "theorem1_upper",
    "dumps_canonical",
]


class Family(str, Enum):
    """The two named families, told apart by one fact, ``closed``: the
    layer factor of a member (m, n) is the cycle on 2m vertices for a torus
    and the path on m for a cylinder.  A path needs one vertex and a simple
    cycle on 2m vertices needs m >= 2, so the least m is ``1 + closed``."""

    CYLINDER = "cylinder"
    TORUS = "torus"

    def __init__(self, value: str) -> None:
        self.closed = value == "torus"


GridVertex = tuple[int, int]  # (layer, ring)
Edge = tuple[GridVertex, GridVertex]  # endpoints in ascending order


def vertex_name(v: GridVertex) -> str:
    """The ``x_<ring>_<layer>`` name used by reports, exports and errors."""
    layer, ring = v
    return f"x_{ring}_{layer}"


def _edge_name(a: GridVertex, b: GridVertex) -> str:
    return f"{vertex_name(a)}-{vertex_name(b)}"


class _Record:
    """Base of the package's immutable records, kept in ``__slots__``.

    Equality (same class only), hash and repr read the fields named in
    ``_compared``; no field can be assigned or deleted once ``__init__``
    has set it through ``object.__setattr__``.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the compared fields as a tuple, read in C
        cls._values = operator.attrgetter(*cls._compared)

    def _fill(self, *values: object) -> None:
        """Set the slots, in ``__slots__`` order; called once, by ``__init__``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._compared])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple[None, dict]) -> None:
        # copy and pickle restore the slots here, past __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class MeshGraph(_Record):
    """The member (m, n) of a named family, with grid-coordinate vertices.

    ``MeshGraph(family, m, n)`` is the one constructor: it refuses (m, n)
    outside the family's range as ``build`` does, and takes its views from
    ``_product``.  Equality, hash and repr read ``family``, ``m`` and
    ``n`` alone, since they fix every view.  ``vertices`` and ``edges``
    are sorted tuples; ``ends[p]`` holds the positions in ``vertices`` of
    the two ends of ``edges[p]``, and ``degree`` each vertex's degree by
    position.  ``incident``, the positions in ``edges`` of each vertex's
    edges keyed by vertex, is derived from ``ends`` on first read and
    kept in ``_incident``.  A graph is shared by every caller that builds
    the same member while it is cached, so its views are read-only: never
    mutate them.  ``_plan`` holds the search's plan from the graph's first
    search on (``search._plan``).  A graph can be weakly referenced.
    """

    __slots__ = ("family", "m", "n", "vertices", "edges", "ends", "degree", "_incident", "_plan",
                 "__weakref__")
    _compared = ("family", "m", "n")

    def __init__(self, family: Family | str, m: int, n: int) -> None:
        family = _admitted(family, m, n)
        self._fill(family, m, n, *_product(family, m, n), None, None)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def incident(self) -> dict[GridVertex, tuple[int, ...]]:
        """Vertex -> the positions of its edges (``_incidence``), keyed in
        ``vertices`` order; built on first read and kept."""
        if self._incident is None:
            object.__setattr__(self, "_incident", dict(zip(self.vertices, _incidence(self))))
        return self._incident


def _incidence(g: MeshGraph) -> list[tuple[int, ...]]:
    """Each vertex's edge positions by vertex position, from ``g.ends``:
    ascending, since each edge is appended to both ends' lists in turn."""
    lists: list[list[int]] = [[] for _ in g.vertices]
    for p, (a, b) in enumerate(g.ends):
        lists[a].append(p)
        lists[b].append(p)
    return list(map(tuple, lists))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _product(family: Family, m: int, n: int) -> tuple[
        tuple[GridVertex, ...], tuple[Edge, ...], tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The views ``vertices``, ``edges``, ``ends`` and ``degree`` of the
    member (m, n) of a named family: the Cartesian product of its layer
    factor on L vertices (``Family.closed``) with the cycle on R = 2n.
    Vertex (i, j) sits on layer i and ring j; every layer carries a copy
    of the ring's edges and every ring a copy of the layer factor's.

    One pass over the sorted vertices makes the edges already in canonical
    order, with no sort: vertex (i, j) emits its edges to larger neighbours
    in ascending order of the other end, (i, j+1) on its ring, the wrap
    (i, R) when j = 1, (i+1, j) on the next layer, and the seam (L, j)
    when i = 1 and the layers are closed (a cycle here has at least 4
    vertices, so no two coincide).  The pass appends each edge's two
    vertex positions to ``ends``, and keeps no per-vertex list; one
    comprehension then makes each edge from the tuples of ``vertices``.
    The degrees are closed forms: 4 on a torus; on a cylinder 2 when
    m = 1, else 3 on the two end layers and 4 inside."""
    closed = family.closed
    layers, rings = 2 * m if closed else m, 2 * n
    vertices = tuple([(i, j) for i in range(1, layers + 1) for j in range(1, rings + 1)])
    ends: list[tuple[int, int]] = []  # vertex positions, each edge's in ascending order
    for p, (i, j) in enumerate(vertices):
        if j < rings:
            ends.append((p, p + 1))
        if j == 1:
            ends.append((p, p + rings - 1))
        if i < layers:
            ends.append((p, p + rings))
        if i == 1 and closed:
            ends.append((p, p + (layers - 1) * rings))
    edges = tuple([(vertices[p], vertices[q]) for p, q in ends])
    by_layer = ([4] * layers if closed
                else [2 + (i > 1) + (i < layers) for i in range(1, layers + 1)])
    degree = tuple([d for d in by_layer for _ in range(rings)])
    return vertices, edges, tuple(ends), degree


@functools.lru_cache(maxsize=2)
def _grid(family: Family, m: int, n: int) -> MeshGraph:
    """The member (m, n) of a named family, whose range ``build`` or the
    coloring document's reader has checked, made by ``MeshGraph``.

    The last two members built are kept, so a document parsed right after
    its construction gets the very graph that construction built (shared,
    hence read-only: see ``MeshGraph``).  Every key is a ``Family`` and
    an exact ``int`` for each parameter, since both refuse anything else
    first (``True`` included, so it never meets a kept ``m=1`` graph).
    """
    return MeshGraph(family, m, n)


def build_cylinder(m: int, n: int) -> MeshGraph:
    """Cylinder grid on ``m`` layers and ``2n`` rings.

    Layer ``i`` carries a cycle on rings 1..2n; consecutive layers are
    joined by one rung per ring: the product of a path on ``m`` vertices
    with a cycle on ``2n``.
    """
    return build(Family.CYLINDER, m, n)


def build_torus(m: int, n: int) -> MeshGraph:
    """Torus grid on ``2m`` layers and ``2n`` rings.

    Both factors are even cycles, so the graph is 4-regular and bipartite.
    """
    return build(Family.TORUS, m, n)


def _measure(family: Family, m: int, n: int) -> tuple[int, int, int, int]:
    """|V|, |E|, diameter and greatest degree of the member (m, n), unbuilt.
    The layer factor on L vertices has L - 1 edges, diameter L - 1 and
    degree min(2, L - 1) as a path, L edges, diameter L // 2 and degree 2
    as a cycle; the ring, the cycle on 2n, has 2n edges, diameter n and
    degree 2.  The product has 2n·L vertices, each factor's edges once per
    vertex of the other, and the sums of the diameters and degrees."""
    layers = 2 * m if family.closed else m
    edges, diam, degree = ((layers, layers // 2, 2) if family.closed
                           else (layers - 1, layers - 1, min(2, layers - 1)))
    return 2 * n * layers, 2 * n * (layers + edges), diam + n, 2 + degree


def _representatives(g: MeshGraph) -> list[int]:
    """Positions in ``g.edges``, ascending, of one edge from each edge orbit.

    The orbits follow from the family's layer factor (``Family.closed``):
    the symmetries of each factor (rotations and reflections of a cycle,
    the reversal of a path) act on its copies, and a transpose swaps the
    factors of a torus with m = n.  A cycle has one vertex orbit and one
    edge orbit; a path on m vertices has vertex orbits i <= ceil(m/2) and
    edge orbits (i, i+1), i <= floor(m/2).  A ring edge (i, j)-(i, j+1)
    pairs a layer vertex orbit with the ring's edge orbit, a rung
    (i, j)-(i+1, j) a layer edge orbit with the ring's vertex orbit, and
    the transpose folds each rung onto a ring edge.  So a torus lists the
    ring edge (1,1)-(1,2) and the rung (1,1)-(2,1), the ring edge alone
    when m = n; a cylinder lists (i,1)-(i,2) for i <= ceil(m/2) and
    (i,1)-(i+1,1) for i <= floor(m/2).  Each is found by ``g.edges.index``:
    a search plan asks once, for m edges at most.
    """
    if g.family.closed:
        edges = [((1, 1), (1, 2)), ((1, 1), (2, 1))][: 1 if g.m == g.n else 2]
    else:
        edges = [((i, 1), (i, 2)) for i in range(1, (g.m + 1) // 2 + 1)]
        edges += [((i, 1), (i + 1, 1)) for i in range(1, g.m // 2 + 1)]
    return sorted(map(g.edges.index, edges))


def _shortfall(family: Family, m: int, n: int) -> str:
    """The first parameter that is not an ``int`` of at least its least
    value, as ``m >= 1, got m=0`` (or ``got m=None``, ``got m=True``);
    empty when (m, n) lies in the family's range."""
    for name, value, least in (("m", m, 1 + family.closed), ("n", n, 2)):
        if type(value) is not int or value < least:
            return f"{name} >= {least}, got {name}={value!r}"
    return ""


def _family(name: Family | str) -> Family:
    """The family called ``name``; an unknown name is an invalid parameter."""
    try:
        return Family(name)
    except ValueError:
        raise InvalidParameterError(f"unknown family {name!r}") from None


def _admitted(name: Family | str, m: int, n: int) -> Family:
    """The family called ``name``, once (m, n) is found in its range."""
    family = _family(name)
    shortfall = _shortfall(family, m, n)
    if shortfall:
        raise InvalidParameterError(f"{family.value} needs {shortfall}")
    return family


def build(family: Family | str, m: int, n: int) -> MeshGraph:
    """The member of a named family with parameters (m, n).  The range is
    checked before the graph cache is asked, so a parameter that cannot be
    a cache key, such as a list, is refused as out of range too."""
    return _grid(_admitted(family, m, n), m, n)


# the edge cap of an exhaustive search unless its budget says otherwise;
# kept here so that the CLI's help text names it without loading the search
DEFAULT_MAX_EDGES = 16


def edge_count(family: Family | str, m: int, n: int) -> int:
    """|E| of the member of a named family with parameters (m, n), unbuilt;
    (m, n) outside the family's range is refused as ``build`` refuses it."""
    return _measure(_admitted(family, m, n), m, n)[1]


def admits(family: Family | str, m: int, n: int) -> bool:
    """Whether (m, n) lies in the parameter range of a named family."""
    return not _shortfall(_family(family), m, n)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def max_degree(g: MeshGraph) -> int:
    """Greatest vertex degree, from the family's layer factor
    (``Family.closed``, see ``_measure``): no vertex is read."""
    return _measure(g.family, g.m, g.n)[3]


def diameter(g: MeshGraph) -> int:
    """Largest shortest-path distance, from the family's layer factor
    (``Family.closed``, see ``_measure``): no breadth-first search is run."""
    return _measure(g.family, g.m, g.n)[2]


def theorem1_upper(g: MeshGraph) -> int:
    """Diameter upper bound on the greatest palette of a bipartite graph.

    Every graph is a member of a named family, bipartite by construction,
    so the bound's hypothesis holds without a check.
    """
    return diameter(g) * (max_degree(g) - 1) + 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _int_coords(items: list | tuple, k: int = 2) -> tuple[int, ...] | None:
    """The items' coordinates in order, when every item is a list of ``k``
    exact ints; else None.  Three passes in C: types, lengths, coordinates."""
    if set(map(type, items)) <= {list} and set(map(len, items)) <= {k}:
        coords = tuple(chain.from_iterable(items))
        if set(map(type, coords)) <= {int}:
            return coords
    return None


def dumps_canonical(d: dict) -> str:
    """Stable JSON rendering of reports, manifests and any other value.

    Byte for byte ``json.dumps(d, indent=2) + "\\n"``, without ``json``'s
    pure-Python encoder: dicts with ``str`` keys and lists are walked, and a
    list of lists of k exact ints, for one k, or of dicts that share one
    tuple of ``str`` keys and hold only exact ints, only exact strs, only
    exact bools or only lists of k exact ints in each column, is written by
    one ``%``-template over the flat tuple of its values.  The writer knows
    no document's keys: the coloring document belongs to ``colorings``
    alone.  Values are matched by exact type, so a float or int subclass
    never reaches ``%d`` and a bool is written ``true`` or ``false``;
    strings are quoted by ``json.encoder``'s own
    ``encode_basestring_ascii``.  Anything else goes to ``json.dumps``.
    """
    return _render(d, "") + "\n"


_quote = json.encoder.encode_basestring_ascii
_JSON_BOOL = ("false", "true")


def _int_list(k: int, ind: str) -> str:
    """The template of a list of k ints as ``json.dumps(indent=2)`` writes
    it at ``ind``."""
    return "[\n" + ",\n".join([f"{ind}  %d"] * k) + f"\n{ind}]" if k else "[]"


def _templated(items: list, ind: str) -> str | None:
    """A list's items as template rows at ``ind``, written by one ``%``
    over one flat tuple; None unless all fit one (see ``dumps_canonical``).
    The item types, the rows' key tuples and each column are read in one
    pass each, and ``_int_coords`` decides the int lists, whose length is
    the first one's."""
    kinds = set(map(type, items))
    if kinds == {list}:
        coords = _int_coords(items, k := len(items[0]))
        if coords is None:
            return None
        return ",\n".join([ind + _int_list(k, ind)] * len(items)) % coords
    shapes = set(map(tuple, items)) if kinds == {dict} else set()
    keys = shapes.pop() if len(shapes) == 1 else ()
    if not keys or not set(map(type, keys)) <= {str}:
        return None  # a dict with no keys is "{}", and json.dumps turns a key into a str
    inner, fields, slots = ind + "  ", [], []
    for key in keys:
        column = tuple(map(operator.itemgetter(key), items))
        kind = set(map(type, column))
        if kind == {int} or kind == {str}:
            fields.append("%d" if kind == {int} else "%s")
            slots.append(column if kind == {int} else tuple(map(_quote, column)))
        elif kind == {bool}:
            fields.append("%s")
            slots.append(tuple(map(_JSON_BOOL.__getitem__, column)))
        elif kind == {list} and (coords := _int_coords(column, k := len(column[0]))) is not None:
            fields.append(_int_list(k, inner))
            slots += [coords[i::k] for i in range(k)]
        else:
            return None
    body = ",\n".join([f"{inner}{_quote(key).replace('%', '%%')}: {field}"
                       for key, field in zip(keys, fields)])
    flat = [None] * (len(slots) * len(items))
    for j, slot in enumerate(slots):
        flat[j::len(slots)] = slot
    return ",\n".join([f"{ind}{{\n{body}\n{ind}}}"] * len(items)) % tuple(flat)


def _render(x: object, ind: str) -> str:
    """``x`` as ``json.dumps(x, indent=2)`` writes it when it starts at ``ind``."""
    kind = type(x)
    if kind is int:
        return int.__repr__(x)
    if kind is str:
        return _quote(x)
    if x is None or kind is bool:
        return "null" if x is None else "true" if x else "false"
    inner = ind + "  "
    if kind is dict and x and all(type(k) is str for k in x):
        body = ",\n".join([f"{inner}{_quote(k)}: {_render(v, inner)}" for k, v in x.items()])
        return f"{{\n{body}\n{ind}}}"
    if kind is list and x:
        body = _templated(x, inner) or ",\n".join([inner + _render(i, inner) for i in x])
        return f"[\n{body}\n{ind}]"
    if isinstance(x, (dict, list, tuple)) and x:
        return json.dumps(x, indent=2).replace("\n", "\n" + ind)
    return json.dumps(x)  # indent changes nothing outside a non-empty container
