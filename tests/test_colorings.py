"""Verifier and spectrum tests: frozen small cases plus invariant properties."""

from __future__ import annotations

import dataclasses
import json

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
    max_degree,
    torus_coloring,
    verify_interval,
)
from intervalmesh import colorings, grids
from intervalmesh.cli import run
from intervalmesh.constructions import construct
from intervalmesh.errors import InvalidColoringError, SchemaError


def ring4_coloring(colors, t):
    """C_4 with colors (ring1, ring2, ring3, wrap) in cycle order."""
    g = build_even_cycle(4)
    v = [(1, j) for j in range(1, 5)]
    at = {g.position(a, b): col for a, b, col in zip(v, v[1:] + v[:1], colors)}
    return EdgeColoring(g, tuple(at[i] for i in range(4)), t)


def recolored(c, e, color):
    """``c`` with edge ``e`` painted ``color``."""
    aligned = list(c.aligned)
    aligned[c.graph.position(*e)] = color
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
    g = build_even_cycle(4)
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
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.aligned = (1, 1, 1, 1)
    assert c.colors[e] == c.aligned[0] == 1


def test_coloring_takes_only_the_aligned_tuple():
    g = build_even_cycle(4)
    c = EdgeColoring(g, (1, 2, 2, 3), 3)
    assert c.colors == dict(zip(g.edges, (1, 2, 2, 3)))
    assert c == ring4_coloring([1, 2, 3, 2], 3)
    with pytest.raises(InvalidColoringError, match="not an integer"):
        EdgeColoring(g, (1, 2, 3, "2"), 3)
    # a mapping from edges to colors is refused: its keys are not colors
    with pytest.raises(InvalidColoringError, match="not an integer"):
        EdgeColoring(g, dict(c.colors), 3)


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

    # every family, products included, comes back as the same graph
    graphs = [
        build_path(3),
        build_even_cycle(6),
        build_cylinder(2, 3),
        build_torus(2, 2),
        cartesian_product(build_path(2), build_even_cycle(4)),
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
        rejects({k: v for k, v in doc.items() if k != key}, f"graph document is missing {key!r}")
    rejects({k: v for k, v in doc.items() if k != "edges"}, "'edges' must be an array")

    rejects({**doc, "family": "moebius"}, "unknown family 'moebius'")
    rejects({**doc, "n": None}, "family 'cylinder' has inconsistent m/n")
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
    ):
        bad = json.loads(json.dumps(doc))
        bad["edges"][last][key] = value
        with pytest.raises(SchemaError, match=message):
            coloring_from_json_dict(bad)


def test_coloring_document_is_assembled_once(monkeypatch):
    doc = coloring_to_json_dict(cylinder_coloring(2, 3).coloring)
    calls = []
    original = grids._assemble

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(grids, "_assemble", counting)
    coloring_from_json_dict(doc)
    assert calls == [Family.CYLINDER]


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
