"""Closed-form construction tests: frozen instances, rule coverage, step-down."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalmesh import (
    CYLINDER_RULES,
    TORUS_RULES,
    EdgeColoring,
    build_torus,
    cylinder_coloring,
    max_degree,
    spectrum_sweep,
    step_down,
    torus_coloring,
    verify_interval,
)
from intervalmesh import colorings, constructions
from intervalmesh.constructions import construct, step_down_to
from intervalmesh.errors import (
    CannotStepDownError,
    ConstructionError,
    InvalidColoringError,
    InvalidParameterError,
    NotRegularError,
)


def E(i1, j1, i2, j2):
    return tuple(sorted([(i1, j1), (i2, j2)]))


def recolored(c, e, color):
    """``c`` with edge ``e`` painted ``color``."""
    aligned = list(c.aligned)
    aligned[c.graph.position(*e)] = color
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
    res = cylinder_coloring(3, 3)
    assert len(res.rule_trace) == res.coloring.graph.num_edges
    assert set(res.rule_trace) <= set(CYLINDER_RULES)
    res2 = torus_coloring(2, 3)
    assert len(res2.rule_trace) == res2.coloring.graph.num_edges
    assert set(res2.rule_trace) <= set(TORUS_RULES)
    assert "seam-mid" in res2.rule_trace
    assert "seam-low" in res2.rule_trace


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


def test_step_down_requires_regular():
    with pytest.raises(NotRegularError):
        step_down(cylinder_coloring(3, 2).coloring)


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
    chain = [cylinder_coloring(1, 3).coloring]  # ring on 6 vertices, palette 4
    while chain[-1].palette_size > max_degree(chain[-1].graph):
        chain.append(step_down(chain[-1]))
    assert [c.palette_size for c in chain] == [4, 3, 2]
    assert all(verify_interval(c).interval for c in chain)


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


def test_step_down_to_reaches_the_target():
    c = step_down_to(torus_coloring(2, 3).coloring, 6)
    assert c.palette_size == 6
    assert verify_interval(c).interval


def test_step_down_to_refuses_a_larger_palette():
    c = torus_coloring(2, 3).coloring
    assert c.palette_size == 11
    with pytest.raises(InvalidParameterError, match=r"1\.\.11.*1\.\.20"):
        step_down_to(c, 20)


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
        step_down_to(torus_coloring(2, 2).coloring, 4)


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
    assert step_down_to(down, 6).palette_size == 6
    assert built == [6]
