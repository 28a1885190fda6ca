"""Acceptance gate: nine end-to-end checks with timing budgets.

Each test prints one ``ACCEPTANCE <n>: PASS/FAIL`` line (visible under
``pytest -s``) before asserting, so a failing gate still reports every
criterion it reached.
"""

from __future__ import annotations

import random
import time

from intervalmesh import (
    EdgeColoring,
    SearchBudget,
    build_cylinder,
    build_torus,
    cylinder_coloring,
    exact_W,
    exact_w,
    spectrum_sweep,
    step_down,
    theorem1_upper,
    torus_coloring,
    verify_interval,
)
from intervalmesh.constructions import construct

CYLINDER_GRID = [(m, n) for m in range(1, 13) for n in range(2, 13)]
TORUS_GRID = [(m, n) for m in range(2, 13) for n in range(2, 13)]
SAMPLE_M = (1, 2, 3, 5)
SAMPLE_N = (2, 3, 5)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _check(num: int, condition: bool, detail: str) -> None:
    if not condition:
        _report(num, False, detail)


def test_acceptance_01_cylinder_palette_grid():
    start = time.perf_counter()
    for m, n in CYLINDER_GRID:
        result = cylinder_coloring(m, n)
        report = verify_interval(result.coloring)
        _check(1, report.interval, f"cylinder ({m},{n}) fails verification")
        _check(
            1,
            result.coloring.palette_size == 3 * m + n - 2,
            f"cylinder ({m},{n}) palette {result.coloring.palette_size}",
        )
    elapsed = time.perf_counter() - start
    _check(1, elapsed < 5.0, f"grid took {elapsed:.2f}s, budget 5s")
    _report(1, True, f"{len(CYLINDER_GRID)} cylinders verified at t=3m+n-2 in {elapsed:.2f}s")


def test_acceptance_02_torus_palette_grid():
    start = time.perf_counter()
    for m, n in TORUS_GRID:
        result = torus_coloring(m, n)
        report = verify_interval(result.coloring)
        expected = max(3 * m + n, 3 * n + m)
        _check(2, report.interval, f"torus ({m},{n}) fails verification")
        _check(
            2,
            result.coloring.palette_size == expected,
            f"torus ({m},{n}) palette {result.coloring.palette_size} != {expected}",
        )
    elapsed = time.perf_counter() - start
    _check(2, elapsed < 10.0, f"grid took {elapsed:.2f}s, budget 10s")
    _report(2, True, f"{len(TORUS_GRID)} tori verified at t=max(3m+n,3n+m) in {elapsed:.2f}s")


def expected_cylinder_spectrum(m: int, n: int, ring: int, layer: int) -> frozenset[int]:
    """Closed-form vertex spectrum for the cylinder construction."""
    k = min(ring, 2 * n + 3 - ring)
    if m == 1:
        if ring <= 2:
            return frozenset({1, 2})
        return frozenset({k - 1, k})
    if layer == 1:
        if ring <= 2:
            return frozenset({1, 2, 3})
        return frozenset({k - 1, k, k + 1})
    if layer == m:
        if ring <= 2:
            return frozenset({3 * m - 3, 3 * m - 2, 3 * m - 1})
        return frozenset(range(3 * m + k - 5, 3 * m + k - 2))
    if ring <= 2:
        return frozenset(range(3 * layer - 3, 3 * layer + 1))
    mirrored = ring if ring >= n + 2 else 2 * n + 3 - ring
    lo = 3 * layer - mirrored + 2 * n - 2
    return frozenset(range(lo, lo + 4))


def expected_torus_spectrum(m: int, n: int, ring: int, layer: int) -> frozenset[int]:
    """Closed-form vertex spectrum for the torus construction."""
    if m > n:
        return expected_torus_spectrum(n, m, layer, ring)
    k = layer if layer <= m else 2 * m + 1 - layer
    if ring == 1:
        base = k
    elif ring <= n + 1:
        base = k + 3 * ring - 6
    elif ring <= 2 * n - 1:
        base = k - 3 * ring + 6 * n + 3
    else:
        base = k + 3
    return frozenset(range(base, base + 4))


def spectra(c: EdgeColoring) -> dict[tuple[int, int], frozenset[int]]:
    return {e.vertex: frozenset(e.colors) for e in verify_interval(c).entries}


def test_acceptance_03_spectrum_case_forms():
    checked = 0
    for m in SAMPLE_M:
        for n in SAMPLE_N:
            c = cylinder_coloring(m, n).coloring
            spectrum = spectra(c)
            for layer, ring in c.graph.vertices:
                expected = expected_cylinder_spectrum(m, n, ring, layer)
                actual = spectrum[layer, ring]
                _check(
                    3,
                    actual == expected,
                    f"cylinder ({m},{n}) x_{ring}_{layer}: "
                    f"{sorted(actual)} != {sorted(expected)}",
                )
                checked += 1
            for layer in range(1, m + 1):
                for ring in range(3, 2 * n + 1):
                    a = spectrum[layer, ring]
                    b = spectrum[layer, 2 * n + 3 - ring]
                    _check(3, a == b, f"cylinder ({m},{n}) ring mirror broken at ring {ring}")

    for m in SAMPLE_M:
        for n in SAMPLE_N:
            if m < 2:
                continue
            c = torus_coloring(m, n).coloring
            spectrum = spectra(c)
            for layer, ring in c.graph.vertices:
                expected = expected_torus_spectrum(m, n, ring, layer)
                actual = spectrum[layer, ring]
                _check(
                    3,
                    actual == expected,
                    f"torus ({m},{n}) x_{ring}_{layer}: "
                    f"{sorted(actual)} != {sorted(expected)}",
                )
                checked += 1
            if m <= n:
                for layer in range(1, 2 * m + 1):
                    for ring in range(1, 2 * n + 1):
                        a = spectrum[layer, ring]
                        b = spectrum[2 * m + 1 - layer, ring]
                        _check(3, a == b, f"torus ({m},{n}) layer mirror broken at layer {layer}")
            else:
                # transposed instances mirror across the ring coordinate instead
                for layer in range(1, 2 * m + 1):
                    for ring in range(1, 2 * n + 1):
                        a = spectrum[layer, ring]
                        b = spectrum[layer, 2 * n + 1 - ring]
                        _check(3, a == b, f"torus ({m},{n}) ring mirror broken at ring {ring}")
    _report(3, True, f"{checked} vertex spectra match their closed forms, mirrors intact")


def test_acceptance_04_layer_color_runs_cover_palette():
    for m, n in CYLINDER_GRID:
        c = cylinder_coloring(m, n).coloring
        union: set[int] = set()
        for layer in range(1, m + 1):
            ring_colors = {
                color
                for (u, v), color in c.colors.items()
                if u[0] == layer and v[0] == layer
            }
            _check(
                4,
                ring_colors == set(range(3 * layer - 2, 3 * layer + n - 1)),
                f"cylinder ({m},{n}) layer {layer} ring colors {sorted(ring_colors)}",
            )
            union |= ring_colors
        _check(
            4,
            union == set(range(1, 3 * m + n - 1)),
            f"cylinder ({m},{n}) layer runs miss part of the palette",
        )
    _report(4, True, f"layer color runs chain over 1..3m+n-2 on all {len(CYLINDER_GRID)} cylinders")


def test_acceptance_05_sweep_full_range():
    start = time.perf_counter()
    for m, n in ((2, 2), (2, 3), (3, 3)):
        colorings = spectrum_sweep(m, n)
        top = max(3 * m + n, 3 * n + m)
        _check(
            5,
            [c.palette_size for c in colorings] == list(range(top, 3, -1)),
            f"sweep ({m},{n}) palette sequence has gaps",
        )
        for c in colorings:
            _check(5, verify_interval(c).interval, f"sweep ({m},{n}) t={c.palette_size} invalid")
    elapsed = time.perf_counter() - start
    _check(5, elapsed < 5.0, f"sweeps took {elapsed:.2f}s, budget 5s")
    _report(5, True, f"three sweeps reach every t from max(3m+n,3n+m) down to 4 in {elapsed:.2f}s")


def test_acceptance_06_bound_consistency():
    start = time.perf_counter()
    for m, n in CYLINDER_GRID:
        g = build_cylinder(m, n)
        upper = theorem1_upper(g)
        _check(6, construct("cylinder", m, n).coloring.palette_size <= upper, f"cylinder ({m},{n}) bounds cross")
        if m >= 3:
            _check(
                6,
                upper == 3 * m + 3 * n - 2,
                f"cylinder ({m},{n}) diameter bound {upper} != {3 * m + 3 * n - 2}",
            )
    for m, n in TORUS_GRID:
        g = build_torus(m, n)
        _check(6, construct("torus", m, n).coloring.palette_size <= theorem1_upper(g), f"torus ({m},{n}) bounds cross")
    elapsed = time.perf_counter() - start
    _report(6, True, f"lower <= upper on all {len(CYLINDER_GRID) + len(TORUS_GRID)} instances, "
                     f"wide-cylinder closed form holds, {elapsed:.2f}s")


def test_acceptance_07_search_oracle_cross_check():
    start = time.perf_counter()
    budget = SearchBudget(max_edges=16)

    c4 = build_cylinder(1, 2)
    c6 = build_cylinder(1, 3)
    cyl = build_cylinder(2, 2)

    w_c4 = exact_w(c4, budget)
    W_c4 = exact_W(c4, budget)
    W_c6 = exact_W(c6, budget)
    w_cyl = exact_w(cyl, budget)
    W_cyl = exact_W(cyl, budget)

    _check(7, w_c4 == 2, f"w(C_4) = {w_c4}")
    _check(7, W_c4 == 3, f"W(C_4) = {W_c4}")
    _check(7, W_c6 == 4, f"W(C_6) = {W_c6}")
    _check(7, w_cyl == 3, f"w(C(2,4)) = {w_cyl}")

    # least palettes sit at the degree, as proper colorings of class-1 graphs must
    _check(7, w_c4 == 2 == max(len(c4.incident[v]) for v in c4.vertices), "w(C_4) != degree")
    _check(7, w_cyl == 3 == max(len(cyl.incident[v]) for v in cyl.vertices), "w(C(2,4)) != degree")

    # greatest palettes are pinched between the constructive and diameter bounds
    _check(7, construct("cylinder", 1, 2).coloring.palette_size <= W_c4 <= theorem1_upper(c4), "W(C_4) out of range")
    _check(7, construct("cylinder", 1, 3).coloring.palette_size <= W_c6 <= theorem1_upper(c6), "W(C_6) out of range")
    _check(7, construct("cylinder", 2, 2).coloring.palette_size <= W_cyl <= theorem1_upper(cyl), "W(C(2,4)) out of range")
    _check(7, W_cyl == 6, f"W(C(2,4)) = {W_cyl}, constructive bound not tight")

    elapsed = time.perf_counter() - start
    _check(7, elapsed < 60.0, f"oracles took {elapsed:.2f}s, budget 60s")
    _report(7, True, f"exhaustive search agrees with every bound in {elapsed:.2f}s")


def test_acceptance_08_fault_injection():
    mutations = 0
    caught = 0
    for make in (cylinder_coloring, torus_coloring):
        base = make(2, 2).coloring
        for i, edge in enumerate(base.graph.edges):
            for delta in (1, -1):
                recolored = list(base.aligned)
                recolored[i] += delta
                mutated = EdgeColoring(base.graph, tuple(recolored), base.palette_size)
                report = verify_interval(mutated)
                mutations += 1
                if not report.interval:
                    caught += 1
                    _check(
                        8,
                        bool(report.violating_vertices),
                        f"mutation on {edge} rejected without naming a vertex",
                    )
    _check(8, caught >= 0.99 * mutations, f"only {caught}/{mutations} mutations caught")
    _report(8, True, f"{caught}/{mutations} single-edge mutations rejected, all with a named vertex")


def test_acceptance_09_step_down_soundness():
    start = time.perf_counter()
    rng = random.Random(20260819)
    base_cache: dict[tuple[str, int, int], EdgeColoring] = {}

    def base_coloring(family: str, m: int, n: int) -> EdgeColoring:
        key = (family, m, n)
        if key not in base_cache:
            make = cylinder_coloring if family == "cylinder" else torus_coloring
            base_cache[key] = make(m, n).coloring
        return base_cache[key]

    iterations = 1000
    verified = 0
    for _ in range(iterations):
        if rng.random() < 0.25:
            # only the one- and two-layer cylinders are regular, so only they step down
            family, m, n = "cylinder", rng.choice((1, 2)), rng.randint(2, 12)
            degree = 2 if m == 1 else 3
        else:
            family, m, n = "torus", rng.randint(2, 12), rng.randint(2, 12)
            degree = 4
        current = base_coloring(family, m, n)
        steps = rng.randint(0, current.palette_size - degree)
        for _ in range(steps):
            current = step_down(current)
            _check(
                9,
                verify_interval(current).interval,
                f"{family} ({m},{n}) broke at t={current.palette_size}",
            )
            verified += 1
    elapsed = time.perf_counter() - start
    _check(9, elapsed < 30.0, f"{iterations} iterations took {elapsed:.2f}s, budget 30s")
    _report(9, True, f"{iterations} random walks, {verified} stepped colorings verified, {elapsed:.2f}s")
