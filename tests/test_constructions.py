"""Closed-form construction tests: frozen instances, rule coverage, step-down."""

from __future__ import annotations

import re
from itertools import starmap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalmesh import (
    EdgeColoring,
    build_cylinder,
    build_torus,
    cylinder_coloring,
    max_degree,
    spectrum_sweep,
    step_down,
    torus_coloring,
    verify_interval,
)
from intervalmesh import colorings, constructions, grids
from intervalmesh.constructions import construct
from intervalmesh.errors import (
    CannotStepDownError,
    ConstructionError,
    InvalidColoringError,
    InvalidParameterError,
)
from intervalmesh.grids import GridVertex

from helpers import position


def E(i1, j1, i2, j2):
    return tuple(sorted([(i1, j1), (i2, j2)]))


def recolored(c, e, color):
    """``c`` with edge ``e`` painted ``color``."""
    aligned = list(c.aligned)
    aligned[position(c.graph, *e)] = color
    return EdgeColoring(c.graph, tuple(aligned), c.palette_size)


def test_cylinder_1_2_is_the_ring_example():
    c = cylinder_coloring(1, 2).coloring
    assert c.palette_size == 3
    assert c.colors[E(1, 1, 1, 2)] == 1
    assert c.colors[E(1, 2, 1, 3)] == 2
    assert c.colors[E(1, 3, 1, 4)] == 3
    assert c.colors[E(1, 1, 1, 4)] == 2


def test_cylinder_2_2_full_frozen_map():
    c = cylinder_coloring(2, 2).coloring
    assert c.palette_size == 6
    expected = {
        E(1, 1, 1, 2): 1,
        E(1, 2, 1, 3): 2,
        E(1, 3, 1, 4): 3,
        E(1, 1, 1, 4): 2,
        E(2, 1, 2, 2): 4,
        E(2, 2, 2, 3): 5,
        E(2, 3, 2, 4): 6,
        E(2, 1, 2, 4): 5,
        E(1, 1, 2, 1): 3,
        E(1, 2, 2, 2): 3,
        E(1, 3, 2, 3): 4,
        E(1, 4, 2, 4): 4,
    }
    assert c.colors == expected


def test_cylinder_palette_formula_sample():
    for m, n in ((1, 5), (2, 4), (4, 2), (6, 6)):
        res = cylinder_coloring(m, n)
        assert res.coloring.palette_size == 3 * m + n - 2
        assert verify_interval(res.coloring).palette_size == res.coloring.palette_size


def test_cylinder_layer_ring_runs():
    # the ring edges (i, j)-(i, j+1) for j = 1..n+1 carry exactly the
    # window 3i-2 .. 3i+n-2, and the windows chain over the full palette
    m, n = 4, 3
    c = cylinder_coloring(m, n).coloring
    seen = set()
    for i in range(1, m + 1):
        run = {c.colors[E(i, j, i, j + 1)] for j in range(1, n + 2)}
        assert run == set(range(3 * i - 2, 3 * i + n - 1))
        seen |= run
    assert seen == set(range(1, 3 * m + n - 1))


def test_torus_2_2_frozen_values():
    res = torus_coloring(2, 2)
    c = res.coloring
    assert res.coloring.palette_size == 8
    assert c.colors[E(1, 1, 1, 2)] == 1
    assert c.colors[E(1, 1, 4, 1)] == 2
    assert c.colors[E(1, 2, 4, 2)] == 2
    first = verify_interval(c).entries[0]
    assert (first.vertex, first.colors) == ((1, 1), (1, 2, 3, 4))


def test_torus_mirror_layers_match():
    m, n = 3, 4
    c = torus_coloring(m, n).coloring
    for i in range(1, m + 1):
        mirror = 2 * m + 1 - i
        for j in range(1, 2 * n):
            assert c.colors[E(i, j, i, j + 1)] == c.colors[E(mirror, j, mirror, j + 1)]
        assert c.colors[E(i, 1, i, 2 * n)] == c.colors[E(mirror, 1, mirror, 2 * n)]


def test_torus_transposed_palette():
    res = torus_coloring(3, 2)
    assert res.coloring.palette_size == 11
    assert verify_interval(res.coloring).interval
    res2 = torus_coloring(5, 3)
    assert res2.coloring.palette_size == 18
    assert verify_interval(res2.coloring).interval


def test_transposed_torus_is_built_once(monkeypatch):
    calls = []

    def counting(m, n):
        calls.append((m, n))
        return build_torus(m, n)

    monkeypatch.setattr(constructions, "build_torus", counting)
    torus_coloring(3, 2)
    assert calls == [(3, 2)]


def test_torus_transposition_is_factor_swap():
    direct = torus_coloring(2, 3).coloring
    swapped = torus_coloring(3, 2).coloring
    for (u, v), col in direct.colors.items():
        mirror = tuple(sorted([u[::-1], v[::-1]]))
        assert swapped.colors[mirror] == col


def test_rule_trace_partitions_edges():
    # each instance is large enough that every rule of its family paints an edge
    cylinder_rules = {"ring-asc", "ring-desc", "ring-wrap", "rung-asc", "rung-desc", "rung-first"}
    torus_rules = cylinder_rules | {"seam-mid", "seam-low"}
    for res, rules in (
        (cylinder_coloring(3, 3), cylinder_rules),
        (torus_coloring(2, 3), torus_rules),
        (torus_coloring(3, 2), torus_rules),
    ):
        assert len(res.rule_trace) == res.coloring.graph.num_edges
        assert set(res.rule_trace) == rules


def test_construction_gate_rejects_a_wrong_rule():
    g = build_torus(2, 2)
    ones = constructions._Side([1] * 5, [0] * 5, [["ring-asc"] * 5] * 5)
    with pytest.raises(ConstructionError, match=r"construction breaks at vertex x_\d+_\d+"):
        constructions._paint(g, ones, ones, 4)
    # proper tables are caught too when they leave a gap: 3 and 5 meet at x_1_1
    ring = cylinder_coloring(1, 2).coloring.graph
    gap = constructions._Side([0, 0], [0, 3, 5, 7, 5], [["ring-asc"] * 2] * 5)
    with pytest.raises(ConstructionError, match=r"at vertex x_1_1: incident colors \[3, 5\]"):
        constructions._paint(ring, gap, gap, 7)


def reference_cylinder(m, n):
    """Colors and rule names of the cylinder construction, one rule call per edge."""
    g = build_cylinder(m, n)

    def rule(a: GridVertex, b: GridVertex) -> tuple[int, str]:
        (i, j), (k, j2) = a, b
        if i == k:  # ring edge of layer i
            if j == 1 and j2 == 2 * n:
                return 3 * i - 1, "ring-wrap"
            if j <= n + 1:
                return 3 * i + j - 3, "ring-asc"
            return 3 * i - j + 2 * n - 1, "ring-desc"
        # rung edge (i, j)-(i+1, j)
        if j == 1:
            return 3 * i, "rung-first"
        if j <= n + 1:
            return 3 * i + j - 2, "rung-asc"
        return 3 * i - j + 2 * n + 1, "rung-desc"

    return tuple(zip(*starmap(rule, g.edges)))


def reference_torus(m, n):
    """Colors and rule names of the torus construction, one rule call per edge."""
    g = build_torus(m, n)
    x, y = (1, 0) if m > n else (0, 1)
    m, n = min(m, n), max(m, n)

    def rule(a: GridVertex, b: GridVertex) -> tuple[int, str]:
        layer, j, layer2, j2 = a[x], a[y], b[x], b[y]
        if layer == layer2:  # ring edge, painted like its mirror layer 2m+1-layer
            i = min(layer, 2 * m + 1 - layer)
            if j == 1 and j2 == 2 * n:
                return i + 3, "ring-wrap"
            if j <= n + 1:
                return i + 3 * j - 3, "ring-asc"
            return i - 3 * j + 6 * n + 3, "ring-desc"
        if layer2 == layer + 1:  # rung edge, painted like its mirror rung below 2m-layer
            i = min(layer, 2 * m - layer)
            if j == 1:
                return i + 2, "rung-first"
            if j <= n + 1:
                return i + 3 * j - 4, "rung-asc"
            return i - 3 * j + 6 * n + 5, "rung-desc"
        # seam edge (1, j)-(2m, j), painted like its mirror ring 2n+3-j
        if j <= 2:
            return 2, "seam-low"
        return 3 * min(j, 2 * n + 3 - j) - 4, "seam-mid"

    return tuple(zip(*starmap(rule, g.edges)))


def test_the_tables_paint_as_the_reference_rules():
    members = [(cylinder_coloring, reference_cylinder, m, n) for m in range(1, 13) for n in range(2, 13)]
    members += [(torus_coloring, reference_torus, m, n) for m in range(2, 13) for n in range(2, 13)]
    for paint, reference, m, n in members:
        result = paint(m, n)
        assert (result.coloring.aligned, result.rule_trace) == reference(m, n), (paint.__name__, m, n)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=6))
def test_cylinder_construction_verifies(m, n):
    assert verify_interval(cylinder_coloring(m, n).coloring).interval


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6))
def test_torus_construction_verifies(m, n):
    assert verify_interval(torus_coloring(m, n).coloring).interval


def test_step_down_ring_example():
    c = cylinder_coloring(1, 2).coloring  # 1,2,3,2 around the ring
    down = step_down(c)
    assert down.palette_size == 2
    assert down.colors == {
        E(1, 1, 1, 2): 1,
        E(1, 2, 1, 3): 2,
        E(1, 3, 1, 4): 1,
        E(1, 1, 1, 4): 2,
    }
    assert verify_interval(down).interval


def test_step_down_torus():
    c = torus_coloring(2, 2).coloring
    down = step_down(c)
    assert down.palette_size == 7
    assert verify_interval(down).interval
    # only the former top-color edges moved, and they moved to t - 4
    moved = [e for e in c.graph.edges if down.colors[e] != c.colors[e]]
    assert moved
    for e in moved:
        assert c.colors[e] == 8
        assert down.colors[e] == 4


def test_step_down_refuses_an_unbalanced_edge():
    c = cylinder_coloring(3, 2).coloring
    chain = [c, step_down(c)]
    chain.append(step_down(chain[-1]))
    assert [c.palette_size for c in chain] == [9, 8, 7]
    assert all(verify_interval(c).interval for c in chain)
    with pytest.raises(CannotStepDownError, match=r"^color-7 edge x_3_2-x_3_3 joins degrees 4 and 3$"):
        step_down(chain[-1])


@pytest.mark.parametrize("m,n", [(m, n) for m in range(3, 6) for n in range(2, 5)])
def test_a_cylinder_of_three_layers_or_more_steps_down_twice(m, n):
    c = cylinder_coloring(m, n).coloring
    t = c.palette_size
    c = step_down(step_down(c))
    assert c.palette_size == t - 2
    assert verify_interval(c).interval
    with pytest.raises(CannotStepDownError, match=rf"^color-{t - 2} edge x_\d+_\d+-x_\d+_\d+ joins degrees"):
        step_down(c)


def _reference_step_down(c):
    """The step of a 4-regular torus: every color-t edge to t - 4."""
    t = c.palette_size
    down = EdgeColoring(c.graph, tuple(t - 4 if color == t else color for color in c.aligned), t - 1)
    assert verify_interval(down).interval
    return down


@pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 7) for n in range(2, 7)])
def test_step_down_matches_the_torus_reference(m, n):
    c = expected = torus_coloring(m, n).coloring
    while c.palette_size > 4:
        c, expected = step_down(c), _reference_step_down(expected)
        assert c == expected


def test_step_down_requires_interval_input():
    c = torus_coloring(2, 2).coloring
    edge = c.graph.edges[0]
    broken = recolored(c, edge, c.colors[edge] + 1)
    with pytest.raises(InvalidColoringError, match="x_"):
        step_down(broken)


def test_step_down_stops_at_degree():
    c = cylinder_coloring(1, 2).coloring
    down = step_down(c)  # palette 2 on a 2-regular ring
    with pytest.raises(CannotStepDownError):
        step_down(down)


def test_sweep_2_2():
    chain = spectrum_sweep(2, 2)
    assert [c.palette_size for c in chain] == [8, 7, 6, 5, 4]
    assert all(verify_interval(c).interval for c in chain)


def test_sweep_hits_every_palette_without_gaps():
    chain = spectrum_sweep(2, 3)
    assert [c.palette_size for c in chain] == list(range(11, 3, -1))
    assert all(verify_interval(c).interval for c in chain)


def test_sweep_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        spectrum_sweep(1, 2)


def test_step_down_chain_on_even_ring():
    # a ring on 6 vertices, and the 3-regular cylinder of two layers, down to the degree
    for (m, n), palettes in (((1, 3), [4, 3, 2]), ((2, 3), [7, 6, 5, 4, 3])):
        chain = [cylinder_coloring(m, n).coloring]
        while chain[-1].palette_size > max_degree(chain[-1].graph):
            chain.append(step_down(chain[-1]))
        assert [c.palette_size for c in chain] == palettes
        assert all(verify_interval(c).interval for c in chain)
        with pytest.raises(CannotStepDownError, match="already at the degree bound"):
            step_down(chain[-1])


def test_constructions_reject_bad_parameters():
    with pytest.raises(InvalidParameterError):
        cylinder_coloring(0, 2)
    with pytest.raises(InvalidParameterError):
        torus_coloring(2, 1)


def test_construct_dispatches_by_family():
    built = construct("cylinder", 2, 3).coloring
    assert built.colors == cylinder_coloring(2, 3).coloring.colors
    transposed = construct("torus", 3, 2).coloring
    assert transposed.palette_size == torus_coloring(3, 2).coloring.palette_size
    with pytest.raises(InvalidParameterError):
        construct("path", 3, 3)


def test_construct_steps_a_torus_down_to_the_target():
    result = construct("torus", 2, 3, 6)
    assert result.coloring.palette_size == 6
    assert result.rule_trace is None
    assert verify_interval(result.coloring).interval


def test_construct_refuses_a_torus_palette_outside_its_range():
    assert torus_coloring(2, 3).coloring.palette_size == 11
    for t in (20, 12, 3, 0, -1, 5.5, "5"):
        message = rf"^torus \(2,3\) supports t in 4\.\.11, got {re.escape(repr(t))}$"
        with pytest.raises(InvalidParameterError, match=message):
            construct("torus", 2, 3, t)


def test_a_refused_palette_builds_nothing(monkeypatch):
    built = []

    def product(*args):
        built.append(args)
        raise AssertionError("a refused palette built a graph")

    grids._grid.cache_clear()
    monkeypatch.setattr(grids, "_product", product)
    for family, m, n, t, message in (
        ("torus", 30, 30, "5", r"^torus \(30,30\) supports t in 4\.\.120, got '5'$"),
        ("torus", 30, 30, 121, r"^torus \(30,30\) supports t in 4\.\.120, got 121$"),
        ("torus", 30, 30, 3, r"^torus \(30,30\) supports t in 4\.\.120, got 3$"),
        ("cylinder", 2, 2, 5, r"^cylinder \(2,2\) is constructible only at t=6$"),
        ("torus", 1, 30, "5", r"^torus needs m >= 2, got m=1$"),
    ):
        with pytest.raises(InvalidParameterError, match=message):
            construct(family, m, n, t)
    assert built == []


@pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 5) for n in range(2, 5)])
def test_construct_matches_the_step_down_chain(m, n):
    paper = torus_coloring(m, n)
    chain = [paper.coloring]
    while chain[-1].palette_size > 4:
        chain.append(step_down(chain[-1]))
    claimed = paper.coloring.palette_size
    assert [c.palette_size for c in chain] == list(range(claimed, 3, -1))
    for expected in chain:
        t = expected.palette_size
        result = construct("torus", m, n, t)
        assert result.coloring.palette_size == t
        assert result.coloring.aligned == expected.aligned
        assert result.rule_trace == (paper.rule_trace if t == claimed else None)
    assert construct("torus", m, n).rule_trace == paper.rule_trace


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 4) for n in range(2, 4)])
def test_construct_offers_a_cylinder_at_its_own_palette_only(m, n):
    claimed = 3 * m + n - 2
    assert construct("cylinder", m, n, claimed).coloring.palette_size == claimed
    for t in [*range(-1, claimed), *range(claimed + 1, claimed + 4)]:
        message = rf"^cylinder \({m},{n}\) is constructible only at t={claimed}$"
        with pytest.raises(InvalidParameterError, match=message):
            construct("cylinder", m, n, t)


def test_stepped_colorings_are_verified(monkeypatch):
    real = constructions.step_down

    def corrupt_last(c):
        out = real(c)
        if out.palette_size > 4:
            return out
        e = out.graph.edges[0]
        return recolored(out, e, out.colors[e] + 1)

    monkeypatch.setattr(constructions, "step_down", corrupt_last)
    with pytest.raises(ConstructionError, match="x_"):
        spectrum_sweep(2, 2)
    with pytest.raises(ConstructionError, match="x_"):
        construct("torus", 2, 2, 4)


def _count_reports(monkeypatch) -> list[int]:
    """Palette sizes of the reports the verifier builds from now on."""
    built = []
    real = colorings.SpectrumReport

    def counting(**fields):
        built.append(fields["palette_size"])
        return real(**fields)

    monkeypatch.setattr(colorings, "SpectrumReport", counting)
    return built


def test_each_coloring_is_verified_once(monkeypatch):
    base = torus_coloring(2, 2).coloring
    c = EdgeColoring(base.graph, base.aligned, base.palette_size)
    built = _count_reports(monkeypatch)
    assert verify_interval(c).interval
    down = step_down(c)
    assert verify_interval(down).interval
    assert built == [8, 7]
    assert verify_interval(c) is verify_interval(c)


def test_step_down_result_is_verified_without_a_further_call(monkeypatch):
    down = step_down(torus_coloring(2, 2).coloring)
    built = _count_reports(monkeypatch)
    assert verify_interval(down).interval
    assert step_down(down).palette_size == 6
    assert built == [6]
    # construct verifies each coloring of its chain once, the last included
    assert construct("torus", 2, 2, 5).coloring.palette_size == 5
    assert built == [6, 8, 7, 6, 5]
