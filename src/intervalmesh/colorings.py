"""Edge colorings, vertex spectra, and the interval verifier.

A coloring is *interval* when it is proper, uses every color of its
palette 1..t, and gives each vertex a consecutive run of incident
colors.  A coloring is immutable: its colors sit in a tuple aligned with
``graph.edges``, and ``verify_interval`` computes its report once and
keeps it on the coloring.  Verification never raises on a bad coloring:
the report names the vertices where it breaks, and builds per-vertex
diagnostics only when they are read.  ``require_interval`` is the one
gate that turns a failed report into an error.

The coloring document, the JSON a coloring is written as and read from,
belongs to this module alone: its row keys, its writer, its reader and
its checks of rows and vertices.  ``coloring_documents`` writes a
coloring's document as text from one template per graph, with no dict;
the CLI writes every document through it.  ``coloring_to_json_dict`` is
the document's dict view, which ``grids.dumps_canonical`` writes to the
same bytes as it writes any JSON value, knowing none of its keys.
"""

from __future__ import annotations

import operator
from itertools import chain, repeat
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import InvalidColoringError, InvalidParameterError, SchemaError
from .grids import (
    Edge,
    Family,
    GridVertex,
    MeshGraph,
    _admitted,
    _edge_name,
    _grid,
    _int_coords,
    _int_list,
    _measure,
    _quote,
    _Record,
    vertex_name,
)

__all__ = [
    "EdgeColoring",
    "VertexSpectrum",
    "SpectrumReport",
    "verify_interval",
    "require_interval",
    "coloring_documents",
    "coloring_to_json_dict",
    "coloring_from_json_dict",
]


class EdgeColoring(_Record):
    """A total assignment of integer colors to the edges of one graph.

    ``aligned[i]`` is the color of ``graph.edges[i]``, one integer per
    edge, kept as a tuple (a list passed in is copied).  ``colors`` is a
    read-only view of it keyed by edge (the sorted pair of
    ``(layer, ring)`` vertices).  ``palette_size`` is the declared
    palette 1..t, an integer by the colors' rule (a bool is refused).
    Assigned colors are not forced into that range here; out-of-range
    colors are reported by :func:`verify_interval` instead of rejected, so
    that damaged colorings can still be diagnosed.  Equality, hash and
    repr read the graph, the colors and the palette.
    """

    __slots__ = ("graph", "aligned", "palette_size", "_report", "_colors")
    _compared = ("graph", "aligned", "palette_size")

    def __init__(self, graph: MeshGraph, aligned: tuple[int, ...], palette_size: int) -> None:
        # the colors' type rule: a float or bool palette would verify, and its
        # document would write a "t" that the parser refuses
        if not isinstance(palette_size, int) or isinstance(palette_size, bool) or palette_size < 1:
            raise InvalidColoringError(f"palette size must be >= 1, got {palette_size!r}")
        edges = graph.edges
        if len(aligned) != len(edges):
            raise InvalidColoringError(
                f"coloring has {len(aligned)} colors for {len(edges)} edges"
            )
        # one pass in C; the loop names the first bad edge, or passes an int subclass
        if not set(map(type, aligned)) <= {int}:
            for e, c in zip(edges, aligned):
                if not isinstance(c, int) or isinstance(c, bool):
                    raise InvalidColoringError(
                        f"color of {_edge_name(*e)} is not an integer: {c!r}"
                    )
        self._fill(graph, tuple(aligned), palette_size, None, None)

    @property
    def colors(self) -> Mapping[Edge, int]:
        """Read-only edge -> color view of ``aligned``, built on first read."""
        if self._colors is None:
            view = MappingProxyType(dict(zip(self.graph.edges, self.aligned)))
            object.__setattr__(self, "_colors", view)
        return self._colors


class VertexSpectrum(NamedTuple):
    vertex: GridVertex
    colors: tuple[int, ...]
    degree: int
    proper: bool
    is_interval: bool


def _vertex_flags(colors: list[int]) -> tuple[bool, bool]:
    """Whether one vertex's incident colors are distinct, and consecutive too."""
    d = len(colors)
    proper = len(set(colors)) == d
    return proper, proper and max(colors) - min(colors) == d - 1


class SpectrumReport(_Record):
    """Full verification outcome for one coloring.

    ``graph`` and ``aligned`` are the verified coloring's, left out of
    equality, hash and repr; ``entries`` rebuilds the per-vertex spectra
    from them on each read.
    """

    __slots__ = ("palette_size", "proper", "surjective", "interval", "violating_vertices",
                 "graph", "aligned")
    _compared = __slots__[:5]

    def __init__(self, palette_size: int, proper: bool, surjective: bool, interval: bool,
                 violating_vertices: tuple[GridVertex, ...], graph: MeshGraph,
                 aligned: tuple[int, ...]) -> None:
        self._fill(palette_size, proper, surjective, interval, violating_vertices, graph, aligned)

    @property
    def entries(self) -> tuple[VertexSpectrum, ...]:
        out = []
        for v, incident in self.graph.incident.items():
            cols = sorted(self.aligned[i] for i in incident)
            out.append(VertexSpectrum(v, tuple(cols), len(cols), *_vertex_flags(cols)))
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "palette_size": self.palette_size,
            "proper": self.proper,
            "surjective": self.surjective,
            "interval": self.interval,
            "violations": [list(v) for v in self.violating_vertices],
            "vertices": [
                {
                    "vertex": list(e.vertex),
                    "colors": list(e.colors),
                    "degree": e.degree,
                    "proper": e.proper,
                    "is_interval": e.is_interval,
                }
                for e in self.entries
            ],
        }

    def format_table(self) -> str:
        lines = [
            f"palette 1..{self.palette_size}  proper={self.proper}  "
            f"surjective={self.surjective}  interval={self.interval}",
            "vertex     degree  colors",
        ]
        for e in self.entries:
            mark = "" if e.proper and e.is_interval else "  <- violated"
            cols = ",".join(map(str, e.colors))
            lines.append(f"{vertex_name(e.vertex):<10} {e.degree:>6}  {cols}{mark}")
        return "\n".join(lines)


# A color c in 1.._K sets bit c of its vertex's field, and every other
# color the one stray bit _K + 2, so a field has at most 1027 bits, about
# 16 machine words.  Bit _K + 1 is never set, so the stray bit is never
# part of a run of two or more.  Every palette the package builds for
# m, n <= 250 (at most 1..4*250) lies inside 1.._K.
_K = 1024
_STRAY = 1 << (_K + 2)


def verify_interval(c: EdgeColoring) -> SpectrumReport:
    """Check properness, palette coverage, and per-vertex consecutiveness.

    Diagnostic by design: every outcome is encoded in flags, and
    ``violating_vertices`` names each vertex whose incident colors
    repeat or leave a gap.  One pass over the graph's ``ends`` ORs each
    edge's color bit (see ``_K``) into both ends' fields.  A vertex of
    degree d (``graph.degree``) is accepted when its field ``b`` is d
    consecutive set bits, that is ``b == low * (2**d - 1)`` for its lowest
    set bit ``low``: exact for in-range colors.  Only a vertex that fails
    reads ``graph.incident``, and the list test ``_vertex_flags`` decides
    it, so a repeat, a gap or a stray color is reported as the list test
    reports it.  The report is computed on the first call and kept on the
    coloring, which cannot change, for every later call.
    """
    if c._report is not None:
        return c._report
    colors = c.aligned
    used = set(colors)
    lo, hi = min(used), max(used)
    if 1 <= lo and hi <= _K:
        bit = [1 << x for x in colors]
    else:
        bit = [1 << x if 1 <= x <= _K else _STRAY for x in colors]
    g = c.graph
    field = [0] * len(g.vertices)
    for (a, b), x in zip(g.ends, bit):
        field[a] |= x
        field[b] |= x
    violating = []
    all_proper = True
    for p, b, d in zip(range(len(field)), field, g.degree):
        if b != (b & -b) * ((1 << d) - 1):
            v = g.vertices[p]
            proper_v, interval_v = _vertex_flags([colors[i] for i in g.incident[v]])
            if not interval_v:
                violating.append(v)
                all_proper = all_proper and proper_v
    t = c.palette_size
    # t distinct colors inside 1..t are exactly 1..t; the test never
    # builds the palette, so a document claiming a huge t costs O(|E|)
    surjective = len(used) == t and lo == 1 and hi == t
    report = SpectrumReport(
        palette_size=t,
        proper=all_proper,
        surjective=surjective,
        interval=all_proper and surjective and not violating,
        violating_vertices=tuple(violating),
        graph=c.graph,
        aligned=colors,
    )
    object.__setattr__(c, "_report", report)
    return report


def require_interval(
    c: EdgeColoring, error: type[Exception], subject: str
) -> EdgeColoring:
    """``c`` itself when it is an interval coloring, else raise ``error``.

    The message names ``subject`` and the first violated vertex as
    ``x_<ring>_<layer>`` with its incident colors, or the uncovered
    palette.  This is a raise, not an ``assert``, so it also holds under
    ``python -O``.  A report already kept on ``c`` is read without a
    further call.
    """
    report = c._report or verify_interval(c)
    if report.interval:
        return c
    if report.violating_vertices:
        v = report.violating_vertices[0]
        cols = sorted(c.aligned[i] for i in c.graph.incident[v])
        raise error(f"{subject} breaks at vertex {vertex_name(v)}: incident colors {cols}")
    raise error(f"{subject} leaves palette 1..{c.palette_size} uncovered")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


_ROW = ("u", "v", "color", "rule")  # a row's keys, the rule in every row or in none


def _edge_coords(g: MeshGraph) -> tuple[int, ...]:
    """The endpoints of ``g.edges`` as one flat tuple: ``u`` then ``v`` of
    each edge in turn, two coordinates each, as a document lists its rows."""
    return tuple(chain.from_iterable(chain.from_iterable(g.edges)))


def _template(g: MeshGraph, ruled: bool, ind: str) -> str:
    """The document of a coloring of ``g`` as it starts at ``ind``, with the
    vertices and every row's endpoints written in and each row's color (and
    rule), then t, left as ``%d`` (``%s``): one ``%`` over ``g``'s flat
    vertex and edge coordinates makes it."""
    i1, i2, i3 = ind + "  ", ind + "    ", ind + "      "
    pair = _int_list(2, i3)
    rule = f',\n{i3}"rule": %%s' if ruled else ""
    row = f'{i2}{{\n{i3}"u": {pair},\n{i3}"v": {pair},\n{i3}"color": %%d{rule}\n{i2}}}'
    text = "".join([
        f'{{\n{i1}"family": {_quote(g.family.value)},\n{i1}"m": {g.m},\n{i1}"n": {g.n},\n',
        f'{i1}"vertices": [\n', ",\n".join([i2 + _int_list(2, i2)] * len(g.vertices)),
        f'\n{i1}],\n{i1}"edges": [\n', ",\n".join([row] * len(g.edges)),
        f'\n{i1}],\n{i1}"t": %%d\n{ind}}}',
    ])
    return text % (*chain.from_iterable(g.vertices), *_edge_coords(g))


def coloring_documents(
    colorings: Sequence[EdgeColoring],
    traces: Sequence[tuple[str, ...] | None] | None = None,
    indent: str = "",
) -> list[str]:
    """Each coloring's document as text, as ``json.dumps(indent=2)`` writes
    ``coloring_to_json_dict(c, trace)`` when it starts at ``indent``, with
    no newline after it; ``traces``, when given, holds one rule trace or
    None per coloring.  No dict is built: each distinct graph's document is
    made once into a template (``_template``), and each coloring's is one
    ``%`` over its colors, its rules (each distinct rule quoted once) and
    its palette size.  A trace must hold one str per edge; one of any
    other length raises ``ValueError``, as ``coloring_to_json_dict`` does.
    """
    templates: dict[tuple[int, bool], str] = {}
    out = []
    for c, trace in zip(colorings, [None] * len(colorings) if traces is None else traces,
                        strict=True):
        g, ruled = c.graph, trace is not None
        # the colorings hold their graphs, so no id is reused during the call
        key = (id(g), ruled)
        if key not in templates:
            templates[key] = _template(g, ruled, indent)
        if not ruled:
            out.append(templates[key] % (*c.aligned, c.palette_size))
            continue
        if len(trace) != len(c.aligned):
            raise ValueError(f"rule trace has {len(trace)} rules for {len(c.aligned)} edges")
        quoted = {rule: _quote(rule) for rule in set(trace)}
        flat = [c.palette_size] * (2 * len(trace) + 1)
        flat[0:-1:2] = c.aligned
        flat[1:-1:2] = map(quoted.__getitem__, trace)
        out.append(templates[key] % tuple(flat))
    return out


def coloring_to_json_dict(
    c: EdgeColoring, rule_trace: tuple[str, ...] | None = None
) -> dict:
    """The coloring document as a dict; ``rule_trace`` is aligned with
    ``graph.edges``.  ``coloring_documents`` writes the same document as
    text without building it."""
    g = c.graph
    rows = [
        {"u": list(u), "v": list(v), "color": color}
        for (u, v), color in zip(g.edges, c.aligned)
    ]
    if rule_trace is not None:
        for row, rule in zip(rows, rule_trace, strict=True):
            row["rule"] = rule
    return {
        "family": g.family.value,
        "m": g.m,
        "n": g.n,
        "vertices": [list(v) for v in g.vertices],
        "edges": rows,
        "t": c.palette_size,
    }


def coloring_from_json_dict(d: dict) -> tuple[EdgeColoring, tuple[str, ...] | None]:
    """Parse a coloring document; returns the coloring and any rule trace.

    Every row is checked before any graph exists (``_read_rows``).  Rows
    listed in ``graph.edges`` order, as the package writes them, are then
    placed by one comparison of their endpoints with the built graph's
    edges; rows in any other order through ``_placed``.  Either way the
    colors and the trace are aligned with ``graph.edges``, and every edge
    must be listed exactly once.
    """
    if not isinstance(d, dict):
        raise SchemaError("coloring document must be a JSON object")
    if "t" not in d:
        raise SchemaError("coloring document is missing 't'")
    t = d["t"]
    if not isinstance(t, int) or isinstance(t, bool) or t < 1:
        raise SchemaError(f"'t' must be a positive integer, got {t!r}")
    rows = d.get("edges")
    if not isinstance(rows, list):
        raise SchemaError("'edges' must be an array")
    coords, colors, rules = _read_rows(rows)
    g = _listed_graph(d)
    if coords != _edge_coords(g):
        colors, rules = _placed(g, coords, colors, rules)
    return EdgeColoring(g, tuple(colors), t), (None if rules is None else tuple(rules))


def _parse_vertex(obj: object) -> GridVertex:
    # exact type test: True and 1.0 hash and compare equal to 1, so an edge
    # lookup alone would take them for coordinates
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        layer, ring = obj
        if type(layer) is int and type(ring) is int:
            return layer, ring
    raise SchemaError(f"vertex must be a [layer, ring] pair of integers, got {obj!r}")


def _member_name(family: Family, m: int, n: int) -> str:
    return f"family {family.value!r} with m={m}, n={n}"


def _listed_graph(d: dict) -> MeshGraph:
    """The graph a document names and lists.

    (m, n) must lie in its family's range, and the member is built once
    after its closed-form vertex count is compared with the listing (or
    taken from ``grids._grid``'s cache when this process has just built
    it).  The listed vertices are read in one pass when ``_int_coords``
    reads them all, else one at a time, naming the first that is not a
    vertex.  Whether each row is an edge of the graph is left to the
    caller, which places the rows.
    """
    for key in ("family", "vertices"):
        if key not in d:
            raise SchemaError(f"coloring document is missing {key!r}")
    m, n = d.get("m"), d.get("n")
    try:
        family = _admitted(d["family"], m, n)
    except InvalidParameterError as exc:
        raise SchemaError(str(exc)) from None
    listed = d["vertices"]
    if not isinstance(listed, list):
        raise SchemaError("'vertices' must be an array")
    vertices = (list(map(tuple, listed)) if _int_coords(listed) is not None
                else [_parse_vertex(v) for v in listed])
    vertex_set = set(vertices)
    if len(vertex_set) != len(vertices):
        raise SchemaError("duplicate vertices in document")
    # compare sizes first, so a claimed (m, n) is never built beyond the listing
    if _measure(family, m, n)[0] != len(vertices):
        raise SchemaError(f"listed vertices do not match {_member_name(family, m, n)}")
    g = _grid(family, m, n)
    # the sizes agree and the listing has no duplicates, so this is equality
    if not vertex_set.issuperset(g.vertices):
        raise SchemaError(f"listed vertices do not match {_member_name(family, m, n)}")
    return g


def _read_rows(rows: list) -> tuple[tuple[int, ...], Sequence[int], Sequence[str] | None]:
    """The rows' endpoint coordinates (``u`` then ``v`` of each row in
    turn, as one flat tuple), colors and rules (None when no row has one).

    Plain dicts with a rule in every row or in none are read in passes in
    C over all rows: each key's column, then the endpoints by
    ``_int_coords`` (two different lists of two exact ints), the colors
    (exact ints) and the rules (strs).  Any rows those passes leave
    undecided go to ``_walk_rows``, which accepts some (tuple endpoints,
    int-subclass colors, dict subclasses) and names the first bad row in
    the others.
    """
    if rows and set(map(type, rows)) == {dict}:
        ruled = sum(map(operator.contains, rows, repeat("rule")))
        if ruled in (0, len(rows)):
            try:
                us, vs, colors, *rules = [tuple(map(operator.itemgetter(key), rows))
                                          for key in (_ROW if ruled else _ROW[:3])]
            except KeyError:  # a row without one of the keys
                return _walk_rows(rows)
            coords = _int_coords(tuple(chain.from_iterable(zip(us, vs))))
            if (coords is not None and not any(map(operator.eq, us, vs))
                    and set(map(type, colors)) <= {int}
                    and set(map(type, chain.from_iterable(rules))) <= {str}):
                return coords, colors, (rules[0] if rules else None)
    return _walk_rows(rows)


def _walk_rows(rows: list) -> tuple[tuple[int, ...], list[int], list[str] | None]:
    """``_read_rows`` one row at a time, raising at the first bad row."""
    coords, colors, rules = [], [], []
    for item in rows:
        if not isinstance(item, dict) or "u" not in item or "v" not in item:
            raise SchemaError(f"colored edge must be an object with u/v, got {item!r}")
        if "color" not in item:
            raise SchemaError(f"edge {item.get('u')}-{item.get('v')} has no color")
        col = item["color"]
        if not isinstance(col, int) or isinstance(col, bool):
            raise SchemaError(f"edge color must be an integer, got {col!r}")
        a, b = _parse_vertex(item["u"]), _parse_vertex(item["v"])
        if a == b:
            raise SchemaError(f"loop edge at {vertex_name(a)}")
        if "rule" in item:
            if not isinstance(item["rule"], str):
                name = _edge_name(min(a, b), max(a, b))
                raise SchemaError(f"edge {name} rule must be a string, got {item['rule']!r}")
            rules.append(item["rule"])
        coords += a + b
        colors.append(col)
    if rules and len(rules) != len(rows):
        raise SchemaError("rule trace must cover every edge or none")
    return tuple(coords), colors, rules or None


def _placed(g: MeshGraph, coords: tuple[int, ...], colors: Sequence[int],
            rules: Sequence[str] | None) -> tuple[list[int], list[str] | None]:
    """The colors and rules of rows listed out of ``graph.edges`` order,
    moved to their edges' positions, which one dict over ``g.edges`` gives
    in one pass; only a row that is not an edge, or is listed twice, is
    looked for row by row, to name the first."""
    a, b = list(zip(coords[0::4], coords[1::4])), list(zip(coords[2::4], coords[3::4]))
    pairs = list(zip(map(min, a, b), map(max, a, b)))
    positions = list(map(dict(zip(g.edges, range(len(g.edges)))).get, pairs))
    what = _member_name(g.family, g.m, g.n)
    if None in positions or len(set(positions)) != len(positions):
        seen = set()
        for e, pos in zip(pairs, positions):
            if pos is None:
                raise SchemaError(f"{_edge_name(*e)} is not an edge of {what}")
            if pos in seen:
                raise SchemaError(f"edge {_edge_name(*e)} is listed twice")
            seen.add(pos)
    if len(positions) != g.num_edges:
        missing = g.num_edges - len(positions)
        raise SchemaError(f"{missing} of the {g.num_edges} edges of {what} are not listed")
    order = sorted(range(len(positions)), key=positions.__getitem__)
    return list(map(colors.__getitem__, order)), rules and list(map(rules.__getitem__, order))
