"""Helpers shared by the test modules."""

from __future__ import annotations


def position(g, a, b):
    """Position in ``g.edges`` of the edge joining ``a`` and ``b``, or None."""
    e = (a, b) if a < b else (b, a)
    return g.edges.index(e) if e in g.edges else None
