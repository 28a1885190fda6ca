"""Edge colorings, vertex spectra, and the interval verifier.

A coloring is *interval* when it is proper, uses every color of its
palette 1..t, and gives each vertex a consecutive run of incident
colors.  Verification never raises on a bad coloring: it returns a
report with per-vertex diagnostics so callers can name the vertices
where a coloring breaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    InvalidColoringError,
    SchemaError,
    UnknownVertexError,
)
from .grids import (
    Edge,
    GridVertex,
    MeshGraph,
    _graph_from_listing,
    _parse_edge,
    graph_to_json_dict,
    vertex_name,
)

__all__ = [
    "EdgeColoring",
    "VertexSpectrum",
    "SpectrumReport",
    "spectrum",
    "verify_interval",
    "coloring_to_json_dict",
    "coloring_from_json_dict",
]


@dataclass(frozen=True)
class EdgeColoring:
    """A total assignment of integer colors to the edges of one graph.

    ``palette_size`` is the declared palette 1..t.  Assigned colors are
    not forced into that range here; out-of-range colors are reported by
    :func:`verify_interval` instead of rejected, so that damaged
    colorings can still be diagnosed.
    """

    graph: MeshGraph
    colors: dict[Edge, int] = field(compare=False)
    palette_size: int

    def __post_init__(self) -> None:
        if self.palette_size < 1:
            raise InvalidColoringError(
                f"palette size must be >= 1, got {self.palette_size}"
            )
        missing = self.graph.edge_set.difference(self.colors)
        extra = set(self.colors).difference(self.graph.edge_set)
        if missing or extra:
            raise InvalidColoringError(
                f"coloring must cover the edge set exactly "
                f"({len(missing)} missing, {len(extra)} unknown)"
            )
        for e, c in self.colors.items():
            if not isinstance(c, int) or isinstance(c, bool):
                raise InvalidColoringError(f"color of {e} must be an integer, got {c!r}")

    def with_edge_color(self, e: Edge, color: int) -> "EdgeColoring":
        """Copy with one edge recolored; used for perturbation tests."""
        if e not in self.graph.edge_set:
            raise InvalidColoringError(f"edge {e} not in graph")
        updated = dict(self.colors)
        updated[e] = color
        return EdgeColoring(self.graph, updated, self.palette_size)


def spectrum(c: EdgeColoring, v: GridVertex) -> frozenset[int]:
    """Set of colors on the edges incident to ``v``."""
    if v not in c.graph.adjacency:
        raise UnknownVertexError(f"vertex {v} not in graph")
    return frozenset(c.colors[e] for e in c.graph.incident[v])


@dataclass(frozen=True)
class VertexSpectrum:
    vertex: GridVertex
    colors: tuple[int, ...]
    degree: int
    proper: bool
    is_interval: bool

    @property
    def lo(self) -> int | None:
        return self.colors[0] if self.colors else None

    @property
    def hi(self) -> int | None:
        return self.colors[-1] if self.colors else None


@dataclass(frozen=True)
class SpectrumReport:
    """Full verification outcome for one coloring."""

    palette_size: int
    proper: bool
    surjective: bool
    interval: bool
    entries: tuple[VertexSpectrum, ...]

    @property
    def violating_vertices(self) -> tuple[GridVertex, ...]:
        return tuple(
            e.vertex for e in self.entries if not (e.proper and e.is_interval)
        )

    def to_json_dict(self) -> dict:
        return {
            "palette_size": self.palette_size,
            "proper": self.proper,
            "surjective": self.surjective,
            "interval": self.interval,
            "violations": [[v.layer, v.ring] for v in self.violating_vertices],
            "vertices": [
                {
                    "vertex": [e.vertex.layer, e.vertex.ring],
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


def verify_interval(c: EdgeColoring) -> SpectrumReport:
    """Check properness, palette coverage, and per-vertex consecutiveness.

    Diagnostic by design: every outcome is encoded in flags, and
    ``violating_vertices`` names each vertex whose incident colors
    repeat or leave a gap.
    """
    g = c.graph
    entries = []
    all_proper = True
    all_intervals = True
    for v in g.vertices:
        cols = sorted(c.colors[e] for e in g.incident[v])
        d = len(cols)
        distinct = len(set(cols))
        proper_v = distinct == d
        if d == 0:
            interval_v = True
        else:
            interval_v = proper_v and cols[-1] - cols[0] == d - 1
        all_proper = all_proper and proper_v
        all_intervals = all_intervals and interval_v
        entries.append(
            VertexSpectrum(
                vertex=v,
                colors=tuple(cols),
                degree=d,
                proper=proper_v,
                is_interval=interval_v,
            )
        )
    used = set(c.colors.values())
    # fewer distinct colors than t never cover 1..t; testing that first
    # keeps the work bounded by |E| whatever palette a document claims
    surjective = len(used) == c.palette_size and used == set(range(1, c.palette_size + 1))
    return SpectrumReport(
        palette_size=c.palette_size,
        proper=all_proper,
        surjective=surjective,
        interval=all_proper and surjective and all_intervals,
        entries=tuple(entries),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def coloring_to_json_dict(
    c: EdgeColoring, rule_trace: dict[Edge, str] | None = None
) -> dict:
    d = graph_to_json_dict(c.graph)
    d["t"] = c.palette_size
    rows = []
    for e in c.graph.edges:
        row = {
            "u": [e.u.layer, e.u.ring],
            "v": [e.v.layer, e.v.ring],
            "color": c.colors[e],
        }
        if rule_trace is not None:
            row["rule"] = rule_trace[e]
        rows.append(row)
    d["edges"] = rows
    return d


def coloring_from_json_dict(d: dict) -> tuple[EdgeColoring, dict[Edge, str] | None]:
    """Parse a coloring document; returns the coloring and any rule trace."""
    if not isinstance(d, dict):
        raise SchemaError("coloring document must be a JSON object")
    if "t" not in d:
        raise SchemaError("coloring document is missing 't'")
    t = d["t"]
    if not isinstance(t, int) or isinstance(t, bool) or t < 1:
        raise SchemaError(f"'t' must be a positive integer, got {t!r}")
    if not isinstance(d.get("edges"), list):
        raise SchemaError("'edges' must be an array")
    colors_by_edge: dict[Edge, int] = {}
    trace: dict[Edge, str] = {}
    saw_rule = False
    for item in d["edges"]:
        if not isinstance(item, dict) or "u" not in item or "v" not in item:
            raise SchemaError(f"colored edge must be an object with u/v, got {item!r}")
        if "color" not in item:
            raise SchemaError(f"edge {item.get('u')}-{item.get('v')} has no color")
        col = item["color"]
        if not isinstance(col, int) or isinstance(col, bool):
            raise SchemaError(f"edge color must be an integer, got {col!r}")
        e = _parse_edge(item["u"], item["v"])
        if e in colors_by_edge:
            raise SchemaError(f"edge {e} colored twice")
        colors_by_edge[e] = col
        if "rule" in item:
            saw_rule = True
            trace[e] = str(item["rule"])
    g = _graph_from_listing(d, list(colors_by_edge))
    try:
        coloring = EdgeColoring(g, colors_by_edge, t)
    except InvalidColoringError as exc:
        raise SchemaError(str(exc)) from None
    if saw_rule and len(trace) != len(colors_by_edge):
        raise SchemaError("rule trace must cover every edge or none")
    return coloring, (trace if saw_rule else None)
