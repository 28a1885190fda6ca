"""Bound formula and table tests."""

from __future__ import annotations

import pytest

from intervalmesh import (
    Family,
    bounds_table,
    bounds_table_csv,
    build_cylinder,
    build_torus,
    theorem1_upper,
)
from intervalmesh.bounds import bounds_row
from intervalmesh.constructions import construct
from intervalmesh.errors import InvalidParameterError
from intervalmesh import grids


def test_theorem1_upper_small():
    assert theorem1_upper(build_cylinder(1, 2)) == 3  # ring of four
    assert theorem1_upper(build_torus(2, 2)) == 13


def test_theorem1_upper_matches_closed_form_for_wide_cylinders():
    for m in range(3, 7):
        for n in range(2, 7):
            assert theorem1_upper(build_cylinder(m, n)) == 3 * m + 3 * n - 2


def test_lower_bound_values():
    assert construct("cylinder", 3, 2).coloring.palette_size == 9
    assert construct("torus", 2, 3).coloring.palette_size == 11
    assert construct("cylinder", 1, 2).coloring.palette_size == 3
    assert construct("torus", 3, 2).coloring.palette_size == 11  # transposed witness


def test_lower_bound_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        construct("cylinder", 0, 2)
    with pytest.raises(InvalidParameterError):
        construct("path", 3, 3)


def test_unknown_family_is_an_invalid_parameter():
    for call in (
        lambda: grids.build("foo", 1, 2),
        lambda: grids.edge_count("foo", 1, 2),
        lambda: grids.admits("foo", 1, 2),
        lambda: construct("foo", 1, 2),
        lambda: bounds_row("foo", 1, 2),
        lambda: bounds_table(["foo"], (1, 1), (2, 2)),
    ):
        with pytest.raises(InvalidParameterError, match="unknown family 'foo'"):
            call()


def test_lower_bound_monotonicity():
    for family in ("cylinder", "torus"):
        lo = 1 if family == "cylinder" else 2
        for m in range(lo, 5):
            for n in range(2, 5):
                here = construct(family, m, n).coloring.palette_size
                assert construct(family, m + 1, n).coloring.palette_size > here
                assert construct(family, m, n + 1).coloring.palette_size > here


def test_bounds_rows_frozen_examples():
    row = bounds_row("torus", 2, 2)
    assert (row.delta, row.diam, row.w_claimed) == (4, 4, 4)
    assert (row.lower_W, row.upper_W) == (8, 13)

    row = bounds_row("cylinder", 2, 2)
    assert (row.delta, row.w_claimed) == (3, 3)
    assert (row.lower_W, row.upper_W) == (6, 7)


def test_bounds_row_builds_its_graph_once(monkeypatch):
    calls = []
    original = grids._product

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(grids, "_product", counting)
    row = bounds_row("cylinder", 2, 3)
    assert calls == [Family.CYLINDER]
    assert (row.diam, row.lower_W, row.upper_W) == (4, 7, 9)


def test_bounds_table_cylinder_grid():
    rows = bounds_table(["cylinder"], (1, 3), (2, 3))
    assert len(rows) == 6
    for row in rows:
        assert row.lower_W <= row.upper_W
        assert row.w_exact is None and row.W_exact is None


def test_bounds_table_oracle_columns():
    rows = bounds_table(["cylinder"], (1, 2), (2, 4), oracle_budget=16)
    by_key = {(r.m, r.n): r for r in rows}
    assert (by_key[(1, 2)].w_exact, by_key[(1, 2)].W_exact) == (2, 3)
    assert (by_key[(1, 4)].w_exact, by_key[(1, 4)].W_exact) == (2, 5)
    assert (by_key[(2, 2)].w_exact, by_key[(2, 2)].W_exact) == (3, 6)
    assert by_key[(2, 3)].w_exact is None  # 18 edges, over budget
    for row in rows:
        if row.w_exact is not None:
            assert row.w_claimed == row.w_exact
            assert row.lower_W <= row.W_exact <= row.upper_W


def test_bounds_table_skips_invalid_torus_sizes():
    rows = bounds_table(["torus"], (1, 2), (2, 2))
    assert [(r.m, r.n) for r in rows] == [(2, 2)]


def test_bounds_table_checks_the_budget_when_no_row_is_admitted():
    assert bounds_table(["torus"], (1, 1), (2, 2)) == []
    with pytest.raises(InvalidParameterError, match=r"^edge cap must be >= 0, got -1$"):
        bounds_table(["torus"], (1, 1), (2, 2), oracle_budget=-1)


def test_bounds_table_rejects_empty_ranges():
    with pytest.raises(InvalidParameterError):
        bounds_table(["cylinder"], (3, 1), (2, 2))


def test_csv_rendering():
    rows = bounds_table(["cylinder"], (1, 1), (2, 3), oracle_budget=4)
    text = bounds_table_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "family,m,n,delta,diam,w_claimed,lower_W,upper_W,w_exact,W_exact"
    assert len(lines) == 3
    assert lines[1] == "cylinder,1,2,2,2,2,3,3,2,3"
    assert lines[2].endswith(",,")  # the six-edge ring sits over the 4-edge budget
