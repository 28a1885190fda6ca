"""Bound formulas and the bounds table.

Three bounds are tabulated per instance: the claimed least palette
(equal to the maximum degree for these families), the constructive
greatest-palette lower bound (the palette of the family's construction,
which is built and verified for each row), and the diameter upper bound
d(G) * (max_degree(G) - 1) + 1 for bipartite graphs.  Oracle columns
are filled by exhaustive search when the instance fits the budget.
"""

from __future__ import annotations

import csv
import io
from typing import NamedTuple

from .constructions import construct
from .errors import InvalidParameterError
from .grids import Family, _family, admits, diameter, max_degree, theorem1_upper

__all__ = [
    "BoundsRow",
    "bounds_row",
    "bounds_table",
    "bounds_table_csv",
]


class BoundsRow(NamedTuple):
    family: str
    m: int
    n: int
    delta: int
    diam: int
    w_claimed: int
    lower_W: int
    upper_W: int
    w_exact: int | None = None
    W_exact: int | None = None

    def as_record(self) -> dict:
        """The row as a column -> value dict, ``_asdict()`` under its old name."""
        return self._asdict()


def bounds_row(
    family: Family | str, m: int, n: int, oracle_budget: int | None = None
) -> BoundsRow:
    """One table row; oracle columns only when the instance fits the budget.

    A given budget is checked, loading the search, before the row is built.
    """
    family = _family(family)
    if oracle_budget is not None:
        from .search import SearchBudget, exact_W, exact_w

        budget = SearchBudget(max_edges=oracle_budget)
    # the verified witness carries the row's graph, so it is built only once
    witness = construct(family, m, n).coloring
    g = witness.graph
    delta = max_degree(g)
    w_exact = W_exact = None
    if oracle_budget is not None and g.num_edges <= oracle_budget:
        w_exact = exact_w(g, budget)
        W_exact = exact_W(g, budget)
    return BoundsRow(
        family=family.value,
        m=m,
        n=n,
        delta=delta,
        diam=diameter(g),
        w_claimed=delta,
        lower_W=witness.palette_size,
        upper_W=theorem1_upper(g),
        w_exact=w_exact,
        W_exact=W_exact,
    )


def bounds_table(
    families: list[Family | str],
    m_range: tuple[int, int],
    n_range: tuple[int, int],
    oracle_budget: int | None = None,
) -> list[BoundsRow]:
    """Rows for every family and (m, n) in the inclusive ranges.

    Instances outside a family's parameter range are skipped: cylinder
    rows allow m >= 1 but torus rows start at m = 2, so a shared m-range
    beginning at 1 simply skips the invalid torus instances.
    """
    if m_range[0] > m_range[1] or n_range[0] > n_range[1]:
        raise InvalidParameterError("ranges must be nonempty")
    families = [_family(f) for f in families]
    if oracle_budget is not None:  # checked even when no row is admitted
        from .search import SearchBudget
        SearchBudget(max_edges=oracle_budget)
    rows = []
    for family in families:
        for m in range(m_range[0], m_range[1] + 1):
            for n in range(n_range[0], n_range[1] + 1):
                if admits(family, m, n):
                    rows.append(bounds_row(family, m, n, oracle_budget))
    return rows


def bounds_table_csv(rows: list[BoundsRow]) -> str:
    """CSV with the fixed column order; empty cells for absent oracle values."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BoundsRow._fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(row._asdict() for row in rows)
    return buf.getvalue()
