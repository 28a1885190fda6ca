"""Shared fixtures: every test starts with an empty graph cache."""

from __future__ import annotations

import pytest

from intervalmesh import grids


@pytest.fixture(autouse=True)
def _fresh_graph_cache():
    """Clear ``grids._grid``'s cache, so that a test counting builds or
    assemblies sees the same count whichever tests ran before it."""
    grids._grid.cache_clear()
