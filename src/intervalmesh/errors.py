"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "InvalidParameterError",
    "InvalidColoringError",
    "CannotStepDownError",
    "ConstructionError",
    "SchemaError",
    "BudgetExceededError",
    "NotIntervalColorableError",
]


class InvalidParameterError(ValueError):
    """A family parameter is out of its admissible range."""


class InvalidColoringError(ValueError):
    """A coloring is structurally unusable for the requested operation."""


class CannotStepDownError(ValueError):
    """A top-color edge is unbalanced, or already at its ends' degree."""


class ConstructionError(RuntimeError):
    """A closed-form construction failed its own self-check."""


class SchemaError(ValueError):
    """A JSON document does not match the expected schema."""


class BudgetExceededError(RuntimeError):
    """An exhaustive search ran out of its configured budget."""


class NotIntervalColorableError(RuntimeError):
    """Exhaustive search ruled out every candidate palette size."""
