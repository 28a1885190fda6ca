"""Edge colorings, vertex spectra, and the interval verifier.

A coloring is *interval* when it is proper, uses every color of its
palette 1..t, and gives each vertex a consecutive run of incident
colors.  A coloring is immutable: its colors sit in a tuple aligned with
``graph.edges``, and ``verify_interval`` computes its report once and
keeps it on the coloring.  Verification never raises on a bad coloring:
the report names the vertices where it breaks, and builds per-vertex
diagnostics only when they are read.  ``require_interval`` is the one
gate that turns a failed report into an error.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import InvalidColoringError, SchemaError
from .grids import (
    Edge,
    GridVertex,
    MeshGraph,
    _edge,
    _edge_name,
    _listed_graph,
    _member_name,
    _parse_vertex,
    _Record,
    vertex_name,
)

__all__ = [
    "EdgeColoring",
    "VertexSpectrum",
    "SpectrumReport",
    "verify_interval",
    "require_interval",
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
    return proper, proper and (d == 0 or max(colors) - min(colors) == d - 1)


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
    repeat or leave a gap.  A vertex of degree d ORs its colors' bits
    (see ``_K``) and is accepted when the field ``b`` is d consecutive set
    bits, that is ``b == low * (2**d - 1)`` for its lowest set bit
    ``low``: exact for in-range colors.  Any other vertex is decided by
    the list test ``_vertex_flags``, so a repeat, a gap or a stray color
    is reported as the list test reports it.  The report is computed on the first call
    and kept on the coloring, which cannot change, for every later call.
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
    violating = []
    all_proper = True
    for v, edges in c.graph.incident.items():
        b = 0
        for i in edges:
            b |= bit[i]
        if b != (b & -b) * ((1 << len(edges)) - 1):
            proper_v, interval_v = _vertex_flags([colors[i] for i in edges])
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


def coloring_to_json_dict(
    c: EdgeColoring, rule_trace: tuple[str, ...] | None = None
) -> dict:
    """The coloring document; ``rule_trace`` is aligned with ``graph.edges``."""
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

    The rows are read twice.  The first pass, before any graph exists,
    checks each row and parses its endpoints; the second writes each
    row's color and rule at its edge's position in the built graph, so
    the trace is aligned with ``graph.edges``.  Every edge must be listed
    exactly once.
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
    pairs = []
    ruled = 0
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
        pairs.append(_edge(a, b))
        if "rule" in item:
            if not isinstance(item["rule"], str):
                name = _edge_name(*pairs[-1])
                raise SchemaError(f"edge {name} rule must be a string, got {item['rule']!r}")
            ruled += 1
    if ruled and ruled != len(rows):
        raise SchemaError("rule trace must cover every edge or none")
    g = _listed_graph(d)
    what = _member_name(g.family, g.m, g.n)
    colors: list[int | None] = [None] * g.num_edges
    rules = [""] * g.num_edges
    for e, item in zip(pairs, rows):
        pos = g.edge_index.get(e)
        if pos is None:
            raise SchemaError(f"{_edge_name(*e)} is not an edge of {what}")
        if colors[pos] is not None:
            raise SchemaError(f"edge {_edge_name(*e)} is listed twice")
        colors[pos] = item["color"]
        if ruled:
            rules[pos] = item["rule"]
    if len(rows) != g.num_edges:
        missing = g.num_edges - len(rows)
        raise SchemaError(f"{missing} of the {g.num_edges} edges of {what} are not listed")
    return EdgeColoring(g, tuple(colors), t), (tuple(rules) if ruled else None)
