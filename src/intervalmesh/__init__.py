"""Interval edge colorings of bipartite cylinder and torus grids."""

from .bounds import (
    BoundsRow,
    bounds_row,
    bounds_table,
    bounds_table_csv,
    theorem1_upper,
)
from .colorings import (
    EdgeColoring,
    SpectrumReport,
    VertexSpectrum,
    coloring_from_json_dict,
    coloring_to_json_dict,
    verify_interval,
)
from .constructions import (
    CYLINDER_RULES,
    TORUS_RULES,
    ConstructionResult,
    cylinder_coloring,
    spectrum_sweep,
    step_down,
    torus_coloring,
)
from .grids import (
    Family,
    MeshGraph,
    build_cylinder,
    build_even_cycle,
    build_path,
    build_torus,
    cartesian_product,
    diameter,
    is_bipartite,
    is_regular,
    max_degree,
)
from .search import (
    Outcome,
    SearchBudget,
    SearchResult,
    exact_W,
    exact_w,
    find_interval_coloring,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CYLINDER_RULES",
    "TORUS_RULES",
    "BoundsRow",
    "ConstructionResult",
    "EdgeColoring",
    "Family",
    "MeshGraph",
    "Outcome",
    "SearchBudget",
    "SearchResult",
    "SpectrumReport",
    "VertexSpectrum",
    "bounds_row",
    "bounds_table",
    "bounds_table_csv",
    "build_cylinder",
    "build_even_cycle",
    "build_path",
    "build_torus",
    "cartesian_product",
    "coloring_from_json_dict",
    "coloring_to_json_dict",
    "cylinder_coloring",
    "diameter",
    "exact_W",
    "exact_w",
    "find_interval_coloring",
    "is_bipartite",
    "is_regular",
    "max_degree",
    "spectrum_sweep",
    "step_down",
    "theorem1_upper",
    "torus_coloring",
    "verify_interval",
]
