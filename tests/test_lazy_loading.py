"""What a process loads: the package namespace resolves names on first use,
and each CLI subcommand loads only the modules its handler runs."""

from __future__ import annotations

import copy
import importlib
import json
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import intervalmesh
from intervalmesh import cli, grids, search
from intervalmesh.colorings import EdgeColoring, verify_interval
from intervalmesh.constructions import construct, cylinder_coloring
from intervalmesh.search import SearchBudget, find_interval_coloring

SRC = str(Path(intervalmesh.__file__).resolve().parents[1])

# the child prints the package modules it loaded, and whether it loaded dataclasses
_CHILD = """
import contextlib, importlib, io, json, sys
argv = json.loads(sys.argv[1])
if isinstance(argv, str):
    importlib.import_module(argv)
elif argv is not None:
    from intervalmesh import cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.run(argv)
        except SystemExit:
            pass
else:
    import intervalmesh
print(json.dumps([sorted(m for m in sys.modules if m.startswith("intervalmesh")),
                  "dataclasses" in sys.modules]))
"""


def _loaded(argv: list[str] | str | None) -> tuple[set[str], bool]:
    """Package modules a fresh bare interpreter loads to run ``argv`` through
    ``cli.run`` (only to import the package when None, only the module it
    names when a str), and whether it loaded ``dataclasses``.  It writes no
    bytecode (-B), since its stripped environment drops any
    PYTHONDONTWRITEBYTECODE."""
    proc = subprocess.run(
        [sys.executable, "-B", "-S", "-c", _CHILD, json.dumps(argv)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": ""},
        check=True,
    )
    modules, dataclasses = json.loads(proc.stdout)
    return {m.removeprefix("intervalmesh.") for m in modules}, dataclasses


BASE = {"intervalmesh", "cli", "errors", "grids"}


@pytest.fixture(scope="module")
def coloring_file(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("doc") / "torus.json")
    assert cli.run(["generate", "--family", "torus", "-m", "2", "-n", "3", "-o", path]) == 0
    return path


# the package modules each subcommand loads besides BASE
LOADS = {
    "version": (["--version"], set()),
    "generate": (["generate", "--family", "torus", "-m", "2", "-n", "3"],
                 {"colorings", "constructions"}),
    "generate --t": (["generate", "--family", "torus", "-m", "2", "-n", "3", "--t", "5"],
                     {"colorings", "constructions"}),
    "verify": (["verify", "{doc}"], {"colorings"}),
    "export": (["export", "{doc}", "--format", "csv"], {"colorings", "export"}),
    "sweep": (["sweep", "-m", "2", "-n", "2"], {"colorings", "constructions"}),
    "bounds": (["bounds", "--m-range", "1..2", "--n-range", "2..3"],
               {"bounds", "colorings", "constructions"}),
    "search": (["search", "--family", "cylinder", "-m", "2", "-n", "2", "--exact-W"],
               {"search", "colorings"}),
}


@pytest.mark.parametrize("name", LOADS)
def test_each_subcommand_loads_only_its_modules(name, coloring_file):
    argv, extra = LOADS[name]
    modules, dataclasses = _loaded([a.format(doc=coloring_file) for a in argv])
    assert modules == BASE | extra
    assert not dataclasses


def test_importing_the_package_loads_no_submodule():
    assert _loaded(None) == ({"intervalmesh"}, False)


# the package modules below each module, all of which importing it loads:
# errors -> grids -> colorings -> constructions -> {bounds, search, export} -> cli,
# where the cli loads each subcommand's modules when the subcommand runs
BELOW = {
    "errors": set(),
    "grids": {"errors"},
    "colorings": {"errors", "grids"},
    "constructions": {"errors", "grids", "colorings"},
    "search": {"errors", "grids", "colorings"},
    "bounds": {"errors", "grids", "colorings", "constructions"},
    "export": {"errors", "grids", "colorings"},
    "cli": {"errors", "grids"},
}


@pytest.mark.parametrize("name", BELOW)
def test_each_module_imports_only_the_layers_below_it(name):
    assert _loaded(f"intervalmesh.{name}") == ({"intervalmesh", name} | BELOW[name], False)


def test_every_public_name_resolves_to_its_submodules_object():
    for name, home_name in intervalmesh._HOMES.items():
        home = importlib.import_module(f"intervalmesh.{home_name}")
        assert name in home.__all__, name  # public where it is defined, too
        assert getattr(intervalmesh, name) is getattr(home, name), name
        assert name in vars(intervalmesh), name  # kept after the first use


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from intervalmesh import *", namespace)
    for name in intervalmesh.__all__:
        assert namespace[name] is getattr(intervalmesh, name), name


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'intervalmesh' has no attribute 'nope'"):
        intervalmesh.nope  # noqa: B018


def test_cli_constants_match_the_modules_they_stand_for():
    assert cli._FAMILIES == tuple(family.value for family in grids.Family)
    assert search.DEFAULT_MAX_EDGES is grids.DEFAULT_MAX_EDGES
    assert SearchBudget().max_edges == grids.DEFAULT_MAX_EDGES


def test_slot_records_keep_value_semantics():
    result = cylinder_coloring(1, 2)
    c = result.coloring
    g = c.graph
    report = verify_interval(c)
    # an edge -> color view is made on each read and kept nowhere, so the
    # coloring still copies and pickles once it has been read
    assert c.colors == dict(zip(g.edges, c.aligned))
    for record in (g, c, report, result, SearchBudget(max_nodes=5)):
        with pytest.raises(AttributeError):
            record.palette_size = 1
        # object.__delattr__ would empty the slot
        field = record._compared[0]
        value = getattr(record, field)
        with pytest.raises(AttributeError, match=f"^cannot delete field {field!r}$"):
            delattr(record, field)
        assert getattr(record, field) is value
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert clone == record and hash(clone) == hash(record)
            assert repr(clone) == repr(record)
    assert weakref.ref(g)() is g
    # a graph is its family and (m, n): equality, hash and repr read nothing else
    assert repr(g) == "MeshGraph(family=<Family.CYLINDER: 'cylinder'>, m=1, n=2)"
    # a search keeps its plan on the graph, outside equality, hash and repr
    fresh = grids.MeshGraph(g.family, g.m, g.n)  # equal, unsearched
    assert find_interval_coloring(g, 3).coloring is not None
    assert g._plan is not None and fresh._plan is None
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    for clone in (copy.copy(g), pickle.loads(pickle.dumps(g))):
        assert clone == fresh and hash(clone) == hash(fresh) and repr(clone) == repr(fresh)
    assert repr(SearchBudget()) == "SearchBudget(max_edges=16, max_nodes=None, time_cap_s=None)"
    # equality and repr leave out the lookups, the kept report and the view
    assert "incident" not in repr(g) and "_plan" not in repr(g) and "_report" not in repr(c)
    assert repr(result) == f"ConstructionResult(coloring={c!r}, rule_trace={result.rule_trace!r})"
    assert construct("torus", 3, 4, 5).rule_trace is None  # a stepped coloring has no trace
    assert c == EdgeColoring(g, c.aligned, c.palette_size) != EdgeColoring(g, c.aligned, 9)
    assert c != c.aligned and g.__eq__(c) is NotImplemented
