"""Verifier and spectrum tests: frozen small cases plus invariant properties."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalmesh import (
    EdgeColoring,
    Family,
    build_cylinder,
    build_torus,
    coloring_from_json_dict,
    coloring_to_json_dict,
    cylinder_coloring,
    max_degree,
    torus_coloring,
    verify_interval,
)
from intervalmesh import colorings, grids
from intervalmesh.cli import run
from intervalmesh.colorings import require_interval
from intervalmesh.constructions import construct
from intervalmesh.grids import build
from intervalmesh.errors import InvalidColoringError, InvalidParameterError, SchemaError

from helpers import position


def ring4_coloring(colors, t):
    """C_4 with colors (ring1, ring2, ring3, wrap) in cycle order."""
    g = build_cylinder(1, 2)
    v = [(1, j) for j in range(1, 5)]
    at = {position(g, a, b): col for a, b, col in zip(v, v[1:] + v[:1], colors)}
    return EdgeColoring(g, tuple(at[i] for i in range(4)), t)


def recolored(c, e, color):
    """``c`` with edge ``e`` painted ``color``."""
    aligned = list(c.aligned)
    aligned[position(c.graph, *e)] = color
    return EdgeColoring(c.graph, tuple(aligned), c.palette_size)


def test_c4_interval_example():
    c = ring4_coloring([1, 2, 3, 2], 3)
    report = verify_interval(c)
    assert report.proper and report.surjective and report.interval
    spectra = {e.vertex: set(e.colors) for e in report.entries}
    assert spectra == {
        (1, 1): {1, 2},
        (1, 2): {1, 2},
        (1, 3): {2, 3},
        (1, 4): {2, 3},
    }


def test_c4_gap_example():
    c = ring4_coloring([1, 3, 1, 3], 3)
    report = verify_interval(c)
    assert report.proper
    assert not report.interval
    assert len(report.violating_vertices) == 4


def test_c4_improper():
    c = ring4_coloring([1, 1, 1, 1], 1)
    report = verify_interval(c)
    assert not report.proper
    assert not report.interval
    assert report.violating_vertices


def test_spectrum_of_constructions():
    cyl = verify_interval(cylinder_coloring(2, 2).coloring)
    assert cyl.entries[0].vertex == (1, 1)
    assert cyl.entries[0].colors == (1, 2, 3)
    tor = verify_interval(torus_coloring(2, 2).coloring)
    assert tor.entries[0].vertex == (1, 1)
    assert tor.entries[0].colors == (1, 2, 3, 4)


def test_proper_and_surjective_flags():
    cyl = cylinder_coloring(3, 2).coloring
    report = verify_interval(cyl)
    assert report.proper and report.surjective
    tor = torus_coloring(2, 2).coloring
    assert verify_interval(tor).proper
    wide = EdgeColoring(cyl.graph, cyl.aligned, cyl.palette_size + 1)
    report = verify_interval(wide)
    assert report.proper and not report.surjective
    assert not report.interval


def test_coloring_must_cover_edge_set():
    g = build_cylinder(1, 2)
    with pytest.raises(InvalidColoringError, match="3 colors for 4 edges"):
        EdgeColoring(g, (1, 2, 3), 3)
    with pytest.raises(InvalidColoringError, match="5 colors for 4 edges"):
        EdgeColoring(g, (1, 2, 3, 2, 1), 3)
    with pytest.raises(InvalidColoringError):
        ring4_coloring([1, 2, 3, 2], 0)


def test_verifier_diagnoses_out_of_range_colors():
    # damaged colorings are reported, never raised on
    base = cylinder_coloring(2, 2).coloring
    edge_of_one = next(e for e, col in base.colors.items() if col == 1)
    low = recolored(base, edge_of_one, 0)
    report = verify_interval(low)
    assert not report.interval and report.violating_vertices
    edge_of_top = next(
        e for e, col in base.colors.items() if col == base.palette_size
    )
    high = recolored(base, edge_of_top, base.palette_size + 1)
    report = verify_interval(high)
    assert not report.interval and report.violating_vertices


def test_coloring_is_immutable():
    c = cylinder_coloring(1, 2).coloring
    e = c.graph.edges[0]
    with pytest.raises(TypeError):
        c.colors[e] = 1
    with pytest.raises(AttributeError):
        c.aligned = (1, 1, 1, 1)
    assert c.colors[e] == c.aligned[0] == 1


def test_a_coloring_copies_a_list_of_colors():
    # the caller's list may change after the report is kept on the coloring
    built = cylinder_coloring(1, 2).coloring
    cols = list(built.aligned)
    c = EdgeColoring(built.graph, cols, built.palette_size)
    assert verify_interval(c).interval
    cols[0] = 99
    assert type(c.aligned) is tuple and c.aligned == built.aligned
    assert require_interval(c, InvalidColoringError, "coloring") is c
    assert c == built and hash(c) == hash(built)


def test_coloring_takes_only_the_aligned_tuple():
    g = build_cylinder(1, 2)
    c = EdgeColoring(g, (1, 2, 2, 3), 3)
    assert c.colors == dict(zip(g.edges, (1, 2, 2, 3)))
    assert c == ring4_coloring([1, 2, 3, 2], 3)
    with pytest.raises(InvalidColoringError, match="not an integer"):
        EdgeColoring(g, (1, 2, 3, "2"), 3)
    # a mapping from edges to colors is refused: its keys are not colors
    with pytest.raises(InvalidColoringError, match="not an integer"):
        EdgeColoring(g, dict(c.colors), 3)


def test_a_color_that_is_not_an_int_is_refused_naming_its_edge():
    # the first bad edge in graph.edges order is named, whatever follows it
    g = build_cylinder(1, 2)
    assert g.edges[2] == ((1, 2), (1, 3))
    for bad in (True, 2.0):
        message = f"^color of x_2_1-x_3_1 is not an integer: {bad!r}$"
        with pytest.raises(InvalidColoringError, match=message):
            EdgeColoring(g, (1, 2, bad, 3.5), 3)

    # an int subclass passes the colors' type rule
    class Color(int):
        pass

    c = EdgeColoring(g, (1, 2, Color(2), 3), 3)
    assert c.aligned == (1, 2, 2, 3) and verify_interval(c).interval


def test_interval_implies_tight_vertex_windows():
    for coloring in (cylinder_coloring(3, 3).coloring, torus_coloring(2, 3).coloring):
        report = verify_interval(coloring)
        assert report.interval
        for entry in report.entries:
            assert len(set(entry.colors)) == entry.degree
            assert entry.colors[-1] - entry.colors[0] == entry.degree - 1


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=4))
def test_reversal_invariance_cylinder(m, n):
    # the mirror relabeling c -> t+1-c preserves every interval property
    c = cylinder_coloring(m, n).coloring
    t = c.palette_size
    mirrored = EdgeColoring(c.graph, tuple(t + 1 - col for col in c.aligned), t)
    assert verify_interval(mirrored).interval


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=4))
def test_reversal_invariance_torus(m, n):
    c = torus_coloring(m, n).coloring
    t = c.palette_size
    mirrored = EdgeColoring(c.graph, tuple(t + 1 - col for col in c.aligned), t)
    assert verify_interval(mirrored).interval


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=4))
def test_verified_palette_at_least_max_degree(m, n):
    c = cylinder_coloring(m, n).coloring
    assert verify_interval(c).interval
    assert c.palette_size >= max_degree(c.graph)


def test_report_serialization_names_vertices():
    base = cylinder_coloring(2, 2).coloring
    edge = base.graph.edges[0]
    mutated = recolored(base, edge, base.colors[edge] + 1)
    doc = verify_interval(mutated).to_json_dict()
    assert doc["interval"] is False
    assert doc["violations"]
    table = verify_interval(mutated).format_table()
    assert "violated" in table


def test_coloring_json_round_trip():
    res = cylinder_coloring(2, 3)
    doc = coloring_to_json_dict(res.coloring, res.rule_trace)
    loaded, trace = coloring_from_json_dict(json.loads(json.dumps(doc)))
    assert loaded.colors == res.coloring.colors
    assert loaded.palette_size == res.coloring.palette_size
    assert trace == res.rule_trace

    bare = coloring_to_json_dict(res.coloring)
    loaded2, trace2 = coloring_from_json_dict(bare)
    assert loaded2.colors == res.coloring.colors
    assert trace2 is None

    # every family comes back as the same graph
    graphs = [
        build_cylinder(1, 3),
        build_cylinder(2, 3),
        build_torus(2, 2),
    ]
    for g in graphs:
        c = EdgeColoring(g, tuple(range(1, g.num_edges + 1)), g.num_edges)
        doc = json.loads(json.dumps(coloring_to_json_dict(c)))
        assert coloring_from_json_dict(doc) == (c, None)


def test_coloring_json_schema_errors():
    res = cylinder_coloring(1, 2)
    doc = coloring_to_json_dict(res.coloring)

    def copy():
        return json.loads(json.dumps(doc))

    def rejects(bad, message):
        with pytest.raises(SchemaError) as info:
            coloring_from_json_dict(bad)
        assert str(info.value) == message

    missing_t = {k: v for k, v in doc.items() if k != "t"}
    rejects(missing_t, "coloring document is missing 't'")

    for key in ("family", "vertices"):
        rejects({k: v for k, v in doc.items() if k != key}, f"coloring document is missing {key!r}")
    rejects({k: v for k, v in doc.items() if k != "edges"}, "'edges' must be an array")
    rejects({**doc, "vertices": {"x_1_1": [1, 1]}}, "'vertices' must be an array")

    for family in ("moebius", "path", "even_cycle"):
        rejects({**doc, "family": family}, f"unknown family {family!r}")
    rejects({**doc, "n": None}, "cylinder needs n >= 2, got n=None")
    rejects({**doc, "m": True}, "cylinder needs m >= 1, got m=True")
    rejects({**doc, "m": 2.0}, "cylinder needs m >= 1, got m=2.0")
    rejects({**doc, "vertices": doc["vertices"] + [[1, 1]]}, "duplicate vertices in document")

    bad_color = copy()
    bad_color["edges"][0]["color"] = "red"
    rejects(bad_color, "edge color must be an integer, got 'red'")

    missing_color = copy()
    del missing_color["edges"][0]["color"]
    rejects(missing_color, "edge [1, 1]-[1, 2] has no color")

    doubled = copy()
    doubled["edges"].append(doubled["edges"][0])
    rejects(doubled, "edge x_1_1-x_2_1 is listed twice")

    dropped = copy()
    del dropped["edges"][-1]
    rejects(dropped, "1 of the 4 edges of family 'cylinder' with m=1, n=2 are not listed")

    partial_trace = copy()
    partial_trace["edges"][0]["rule"] = "ring-asc"
    rejects(partial_trace, "rule trace must cover every edge or none")

    looped = copy()
    looped["edges"][0]["v"] = looped["edges"][0]["u"]
    rejects(looped, "loop edge at x_1_1")

    # 1.0 and True hash and compare equal to 1, so an edge lookup alone
    # would accept them
    for bad in ([1.0, 1], [1, True], ["1", 1], [1, 1, 1]):
        message = f"vertex must be a [layer, ring] pair of integers, got {bad!r}"
        retyped = copy()
        retyped["edges"][0]["u"] = bad
        rejects(retyped, message)
        retyped = copy()
        retyped["vertices"][0] = bad
        rejects(retyped, message)


def test_a_product_document_is_an_unknown_family():
    doc = coloring_to_json_dict(torus_coloring(2, 3).coloring)
    doc.update(family="product", m=None, n=None)
    with pytest.raises(SchemaError) as info:
        coloring_from_json_dict(doc)
    assert str(info.value) == "unknown family 'product'"


def test_a_palette_that_is_not_an_int_is_refused():
    # either would verify, and its document would write a "t" that the
    # parser refuses
    g = build("cylinder", 1, 2)
    for bad in (3.0, True):
        with pytest.raises(InvalidColoringError, match=f"^palette size must be >= 1, got {bad!r}$"):
            EdgeColoring(g, (1, 2, 2, 3), bad)


def test_a_rule_that_is_not_a_string_is_refused():
    res = cylinder_coloring(1, 2)
    doc = coloring_to_json_dict(res.coloring, res.rule_trace)
    for bad in (None, 3, [1, 2]):
        ruled = json.loads(json.dumps(doc))
        ruled["edges"][1]["rule"] = bad
        with pytest.raises(SchemaError) as info:
            coloring_from_json_dict(ruled)
        assert str(info.value) == f"edge x_1_1-x_4_1 rule must be a string, got {bad!r}"
    assert coloring_from_json_dict(doc) == (res.coloring, res.rule_trace)


def test_rows_are_checked_before_the_graph_is_built(monkeypatch):
    doc = coloring_to_json_dict(cylinder_coloring(2, 3).coloring)

    def refuse(*args):
        pytest.fail("the graph was built before every row was checked")

    monkeypatch.setattr(colorings, "_listed_graph", refuse)
    last = len(doc["edges"]) - 1
    for key, value, message in (
        ("color", 1.5, "edge color must be an integer"),
        ("u", [1, True], "vertex must be a"),
        ("v", doc["edges"][last]["u"], "loop edge at"),
        ("rule", "ring-asc", "rule trace must cover every edge or none"),
        ("rule", None, "rule must be a string"),
    ):
        bad = json.loads(json.dumps(doc))
        bad["edges"][last][key] = value
        with pytest.raises(SchemaError, match=message):
            coloring_from_json_dict(bad)


def _counted_assemblies(monkeypatch):
    """The family of every graph assembled from now on, in call order."""
    calls = []
    original = grids._product

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(grids, "_product", counting)
    return calls


def test_coloring_document_is_assembled_once(monkeypatch):
    doc = coloring_to_json_dict(cylinder_coloring(2, 3).coloring)
    grids._grid.cache_clear()  # a parse in a fresh process
    calls = _counted_assemblies(monkeypatch)
    coloring_from_json_dict(doc)
    assert calls == [Family.CYLINDER]


def test_a_document_parsed_after_its_construction_reuses_its_graph(monkeypatch):
    built = torus_coloring(2, 3).coloring
    doc = json.loads(json.dumps(coloring_to_json_dict(built)))
    calls = _counted_assemblies(monkeypatch)
    parsed, _ = coloring_from_json_dict(doc)
    assert parsed.graph is built.graph
    assert parsed.aligned == built.aligned
    assert calls == []


# each graph with an interval coloring of it, or None where any colors will do
VERIFIER_CASES = [
    *((c.graph, c.aligned) for c in (cylinder_coloring(1, 2).coloring,
                                     cylinder_coloring(2, 3).coloring,
                                     torus_coloring(2, 2).coloring,
                                     torus_coloring(3, 2).coloring)),
    (build_cylinder(3, 2), None),
]
_K = colorings._K
_ODD_COLORS = st.one_of(st.integers(-3, 12),
                        st.sampled_from([_K - 1, _K, _K + 1, _K + 2, _K + 3, 10**6]))
# 0 keeps the palette; -1 puts color 0 in it; _K - 12 ends at or below _K;
# _K - 3 and _K - 1 run across _K/_K+1; _K + 1 and 10**6 put every color above _K
_SHIFTS = [0, 0, -1, _K - 12, _K - 3, _K - 1, _K + 1, 10**6]


def _gate_message(c):
    try:
        require_interval(c, InvalidColoringError, "coloring")
    except InvalidColoringError as exc:
        return str(exc)
    return None


def _reference_report(g, colors, t):
    """The flags, violated vertices, entries and gate message of a coloring,
    read off each vertex's sorted incident colors: consecutive means every
    step between neighbours in that list is exactly 1."""
    entries, violating = [], []
    for v, incident in g.incident.items():
        cols = sorted(colors[i] for i in incident)
        distinct = len(set(cols)) == len(cols)
        consecutive = all(b - a == 1 for a, b in zip(cols, cols[1:]))
        entries.append((v, tuple(cols), len(cols), distinct, consecutive))
        if not consecutive:
            violating.append(v)
    proper = all(e[3] for e in entries)
    surjective = set(colors) == set(range(1, t + 1))
    interval = proper and surjective and not violating
    if interval:
        message = None
    elif violating:
        layer, ring = violating[0]
        cols = sorted(colors[i] for i in g.incident[violating[0]])
        message = f"coloring breaks at vertex x_{ring}_{layer}: incident colors {cols}"
    else:
        message = f"coloring leaves palette 1..{t} uncovered"
    return (proper, surjective, interval, violating), entries, message


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(VERIFIER_CASES), data=st.data())
def test_bit_field_verifier_matches_the_list_test(case, data):
    g, interval = case
    if interval is None:
        colors = data.draw(st.lists(st.integers(1, 5), min_size=g.num_edges,
                                    max_size=g.num_edges), label="colors")
    else:
        shift = data.draw(st.sampled_from(_SHIFTS), label="shift")
        colors = [c + shift for c in interval]
    for i in data.draw(st.lists(st.integers(0, max(g.num_edges - 1, 0)), max_size=3)
                       if g.num_edges else st.just([]), label="damaged"):
        colors[i] = data.draw(_ODD_COLORS, label="color")
    t = data.draw(st.integers(1, 14), label="t")
    c = EdgeColoring(g, tuple(colors), t)
    report = verify_interval(c)
    flags, entries, message = _reference_report(g, colors, t)
    assert (report.proper, report.surjective, report.interval,
            list(report.violating_vertices)) == flags
    assert [tuple(e) for e in report.entries] == entries
    assert _gate_message(c) == message


def _mutate(doc: dict, kind: str, data) -> None:
    rows = doc["edges"]
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    if kind == "drop":
        del rows[i]
    elif kind == "duplicate":
        rows.append(dict(rows[i]))
    elif kind == "replace":
        rows[i] = {**rows[i], "v": data.draw(st.sampled_from(doc["vertices"]))}
    elif kind == "reverse":
        rows[i] = {**rows[i], "u": rows[i]["v"], "v": rows[i]["u"]}
    elif kind == "shift":
        if data.draw(st.booleans(), label="shift a listed vertex"):
            target = data.draw(st.sampled_from(doc["vertices"]), label="vertex")
        else:
            target = rows[i][data.draw(st.sampled_from(["u", "v"]))]
        target[data.draw(st.integers(0, 1), label="axis")] += data.draw(
            st.sampled_from([-1, 1]), label="delta"
        )
    elif kind == "type":
        if data.draw(st.booleans(), label="retype a listed vertex"):
            target = data.draw(st.sampled_from(doc["vertices"]), label="vertex")
        else:
            target = rows[i][data.draw(st.sampled_from(["u", "v"]))]
        # 1.0 and true hash and compare equal to 1
        value = data.draw(st.sampled_from([1.0, True, "1", None]), label="value")
        if value is None:
            target.append(1)
        else:
            target[data.draw(st.integers(0, 1), label="axis")] = value
    elif kind in ("m", "n"):
        doc[kind] += data.draw(st.sampled_from([-1, 1]), label="delta")
    else:
        others = [f.value for f in grids._FAMILIES if f.value != doc["family"]]
        doc["family"] = data.draw(st.sampled_from(others), label="family")


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["cylinder", "torus"]),
    m=st.integers(2, 3),
    n=st.integers(2, 3),
    kind=st.sampled_from(
        ["drop", "duplicate", "replace", "reverse", "shift", "type", "m", "n", "family"]
    ),
    data=st.data(),
)
def test_mutated_documents_parse_exactly_or_raise_schema_error(
    family, m, n, kind, data, tmp_path_factory
):
    doc = json.loads(json.dumps(coloring_to_json_dict(construct(family, m, n).coloring)))
    _mutate(doc, kind, data)
    try:
        coloring, _ = coloring_from_json_dict(json.loads(json.dumps(doc)))
    except SchemaError:
        pass
    else:
        assert kind != "type", "a coordinate that is not an integer pair was accepted"
        assert coloring.graph == grids.build(doc["family"], doc["m"], doc["n"])
        assert coloring.colors == {
            tuple(sorted((tuple(row["u"]), tuple(row["v"])))): row["color"]
            for row in doc["edges"]
        }
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) in (0, 1, 2)


# ---------------------------------------------------------------------------
# the reader against the row-by-row reader it replaced
# ---------------------------------------------------------------------------


def reference_listed_graph(d: dict):
    """``colorings._listed_graph`` as it was, parsing one vertex at a time."""
    for key in ("family", "vertices"):
        if key not in d:
            raise SchemaError(f"coloring document is missing {key!r}")
    m, n = d.get("m"), d.get("n")
    try:
        family = grids._family(d["family"])
        law = grids._admitted(family, m, n)
    except InvalidParameterError as exc:
        raise SchemaError(str(exc)) from None
    if not isinstance(d["vertices"], list):
        raise SchemaError("'vertices' must be an array")
    vertices = [colorings._parse_vertex(v) for v in d["vertices"]]
    vertex_set = set(vertices)
    if len(vertex_set) != len(vertices):
        raise SchemaError("duplicate vertices in document")
    if grids._measure(law, m, n)[0] != len(vertices):
        raise SchemaError(f"listed vertices do not match {colorings._member_name(family, m, n)}")
    g = grids._grid(family, m, n)
    if g.incident.keys() != vertex_set:
        raise SchemaError(f"listed vertices do not match {colorings._member_name(family, m, n)}")
    return g


def reference_from_json_dict(d: dict):
    """``coloring_from_json_dict`` as it was: every row checked, then
    placed through a dict of edge positions, one row at a time."""
    _edge_name, _parse_vertex = grids._edge_name, colorings._parse_vertex
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
            raise SchemaError(f"loop edge at {grids.vertex_name(a)}")
        pairs.append((min(a, b), max(a, b)))
        if "rule" in item:
            if not isinstance(item["rule"], str):
                name = _edge_name(*pairs[-1])
                raise SchemaError(f"edge {name} rule must be a string, got {item['rule']!r}")
            ruled += 1
    if ruled and ruled != len(rows):
        raise SchemaError("rule trace must cover every edge or none")
    g = reference_listed_graph(d)
    what = colorings._member_name(g.family, g.m, g.n)
    colors = [None] * g.num_edges
    rules = [""] * g.num_edges
    index = {e: i for i, e in enumerate(g.edges)}
    for e, item in zip(pairs, rows):
        pos = index.get(e)
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


class Tint(int):
    """An int subclass: accepted as a color, and kept as given."""


def _vary(doc: dict, kind: str, data) -> None:
    """``_mutate``, or a change that the reader must decide row by row."""
    rows = doc["edges"]
    picked = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=4),
                       label="rows")
    if kind == "shuffle":
        rows[:] = data.draw(st.permutations(rows), label="order")
    elif kind == "swap":
        for i in picked:
            rows[i]["u"], rows[i]["v"] = rows[i]["v"], rows[i]["u"]
    elif kind == "tuples":
        for i in picked:
            rows[i]["u"] = tuple(rows[i]["u"])
        k = picked[0] % len(doc["vertices"])
        doc["vertices"][k] = tuple(doc["vertices"][k])
    elif kind == "tint":
        rows[picked[0]]["color"] = Tint(rows[picked[0]]["color"])
    elif kind == "color":
        rows[picked[0]]["color"] = data.draw(st.sampled_from([True, 1.0, "1", None]), label="color")
    elif kind == "key":
        rows[picked[0]].pop(data.draw(st.sampled_from(["u", "v", "color"]), label="key"))
    elif kind == "row":
        rows[picked[0]] = data.draw(st.sampled_from([None, [], "row"]), label="row")
    elif kind == "extra":
        rows[picked[0]]["note"] = data.draw(st.sampled_from(["x", None, 1]), label="note")
    elif kind == "rule":
        rows[picked[0]]["rule"] = data.draw(st.sampled_from([None, 0, [], "r"]), label="rule")
    elif kind == "mixed":
        for i in picked:
            rows[i].pop("rule", None) if "rule" in rows[i] else rows[i].update(rule="r")
    else:
        _mutate(doc, kind, data)


def _read(reader, doc):
    try:
        coloring, trace = reader(doc)
    except Exception as exc:  # the two readers must fail alike
        return type(exc), str(exc)
    return coloring, trace, list(map(type, coloring.aligned))


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["cylinder", "torus"]),
    m=st.integers(2, 3),
    n=st.integers(2, 3),
    ruled=st.booleans(),
    kinds=st.lists(st.sampled_from(
        ["drop", "duplicate", "replace", "reverse", "shift", "type", "m", "n", "family",
         "shuffle", "swap", "tint", "color", "extra", "rule", "mixed"]), min_size=1, max_size=3),
    # these leave rows that the kinds above cannot edit, so they come last
    last=st.sampled_from([None, "tuples", "key", "row"]),
    data=st.data(),
)
def test_the_reader_matches_the_row_by_row_reader(family, m, n, ruled, kinds, last, data):
    result = construct(family, m, n)
    doc = json.loads(json.dumps(coloring_to_json_dict(
        result.coloring, result.rule_trace if ruled else None)))
    for kind in kinds + [last] * (last is not None):
        if doc["edges"]:
            _vary(doc, kind, data)
    assert _read(coloring_from_json_dict, doc) == _read(reference_from_json_dict, doc)
