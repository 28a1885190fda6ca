"""Interval edge colorings of bipartite cylinder and torus grids.

Each public name is loaded from its submodule on first use (PEP 562) and
kept here after, so ``import intervalmesh`` loads no submodule and a
command line run loads only the modules its subcommand needs.
"""

# the submodule that defines each public name
_HOMES = {
    name: home
    for home, names in (
        ("bounds", "BoundsRow bounds_row bounds_table bounds_table_csv"),
        ("colorings", "EdgeColoring SpectrumReport VertexSpectrum coloring_documents "
                      "coloring_from_json_dict coloring_to_json_dict verify_interval"),
        ("constructions", "ConstructionResult cylinder_coloring spectrum_sweep step_down "
                          "torus_coloring"),
        ("grids", "Family MeshGraph build_cylinder build_torus diameter max_degree "
                  "theorem1_upper"),
        ("search", "Outcome SearchBudget SearchResult exact_W exact_w find_interval_coloring"),
    )
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str) -> object:
    """The public ``name``, loaded from its submodule and kept here."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value
