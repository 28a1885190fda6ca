"""Command line tests: exit codes, pipelines, manifests, exports."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalmesh import (
    EdgeColoring,
    cli,
    colorings,
    coloring_from_json_dict,
    coloring_to_json_dict,
    constructions,
    grids,
    search,
    verify_interval,
)
from intervalmesh.cli import run


# A coloring of the 4-cycle that is proper but leaves a gap at two vertices.
GAP_DOC = {
    "family": "cylinder",
    "m": 1,
    "n": 2,
    "t": 3,
    "vertices": [[1, 1], [1, 2], [1, 3], [1, 4]],
    "edges": [
        {"u": [1, 1], "v": [1, 2], "color": 1},
        {"u": [1, 2], "v": [1, 3], "color": 3},
        {"u": [1, 3], "v": [1, 4], "color": 1},
        {"u": [1, 1], "v": [1, 4], "color": 3},
    ],
}


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_verify_pipeline(tmp_path, capsys):
    grid = [("cylinder", 1, 2), ("cylinder", 3, 2), ("torus", 2, 2), ("torus", 3, 2)]
    for family, m, n in grid:
        out = tmp_path / f"{family}_{m}_{n}.json"
        code, _, _ = invoke(
            capsys,
            "generate", "--family", family, "-m", str(m), "-n", str(n),
            "-o", str(out),
        )
        assert code == 0
        code, _, _ = invoke(capsys, "verify", str(out))
        assert code == 0


def test_generate_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = invoke(
            capsys,
            "generate", "--family", "torus", "-m", "2", "-n", "3", "-o", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_torus_with_t(capsys):
    code, out, _ = invoke(
        capsys, "generate", "--family", "torus", "-m", "2", "-n", "2", "--t", "5"
    )
    assert code == 0
    coloring, trace = coloring_from_json_dict(json.loads(out))
    assert coloring.palette_size == 5
    assert trace is None  # stepped-down colorings carry no rule trace
    assert verify_interval(coloring).interval


def test_generate_t_out_of_range(capsys):
    refusals = {
        ("torus", 2, 2, 3): "torus (2,2) supports t in 4..8, got 3",
        ("torus", 3, 2, 12): "torus (3,2) supports t in 4..11, got 12",
        ("torus", 3, 2, 3): "torus (3,2) supports t in 4..11, got 3",
        ("cylinder", 2, 2, 5): "cylinder (2,2) is constructible only at t=6",
        # C(1, 4) is a regular cycle, yet it is offered at its own palette only
        ("cylinder", 1, 2, 2): "cylinder (1,2) is constructible only at t=3",
    }
    for (family, m, n, t), message in refusals.items():
        argv = ["generate", "--family", family, "-m", str(m), "-n", str(n), "--t", str(t)]
        assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")


def test_generate_refusal_is_recorded_in_the_manifest(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    code, out, _ = invoke(
        capsys, "generate", "--family", "cylinder", "-m", "2", "-n", "2", "--t", "5",
        "--manifest", str(manifest),
    )
    assert (code, out) == (2, "")
    assert json.loads(manifest.read_text())["result"] == "failed: InvalidParameterError"


def test_verify_names_mutated_vertex(tmp_path, capsys):
    out = tmp_path / "c.json"
    invoke(capsys, "generate", "--family", "cylinder", "-m", "2", "-n", "2", "-o", str(out))
    doc = json.loads(out.read_text())
    doc["edges"][0]["color"] += 1
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    code, report_text, _ = invoke(capsys, "verify", str(mutated), "--json")
    assert code == 1
    report = json.loads(report_text)
    assert report["interval"] is False
    assert report["violations"]


def test_verify_gap_coloring_flags(tmp_path, capsys):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(GAP_DOC))
    code, out, _ = invoke(capsys, "verify", str(path), "--json")
    assert code == 1
    report = json.loads(out)
    assert report["proper"] is True
    assert report["interval"] is False


def test_verify_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"family": "cylinder", ')
    code, _, err = invoke(capsys, "verify", str(path))
    assert code == 2
    assert "parse error at line" in err


def test_hostile_json_is_a_usage_error(tmp_path, capsys, monkeypatch):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    huge = tmp_path / "huge.json"
    huge.write_text('{"family": "cylinder", "m": ' + "9" * 5000 + "}")
    for path in (deep, huge):
        for argv in (["verify", str(path)], ["export", str(path), "--format", "csv"]):
            code, _, err = invoke(capsys, *argv)
            assert code == 2, (path.name, argv[0])
            assert "schema error" in err
            assert "Traceback" not in err
        monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
        code, _, err = invoke(capsys, "verify", "-")
        assert code == 2
        assert "Traceback" not in err


def test_schema_error_names_vertices(capsys, monkeypatch):
    doc = {**GAP_DOC, "t": 1, "edges": [{"u": [1, 1], "v": [1, 3], "color": 1}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, _, err = invoke(capsys, "verify", "-")
    assert code == 2
    assert "x_1_1" in err
    assert "(1, 1)" not in err  # a vertex is named, never shown as its tuple


def test_a_product_document_is_an_unknown_family(tmp_path, capsys):
    path = tmp_path / "t.json"
    invoke(capsys, "generate", "--family", "torus", "-m", "2", "-n", "3", "-o", str(path))
    doc = json.loads(path.read_text())
    for family in ("product", "path", "even_cycle"):
        doc.update(family=family, m=None, n=None)
        path.write_text(json.dumps(doc))
        for argv in (["verify", str(path)], ["export", str(path), "--format", "csv"]):
            assert invoke(capsys, *argv) == (2, "", f"schema error: unknown family {family!r}\n")


def test_huge_claimed_palette_is_checked_in_bounded_work(tmp_path, capsys):
    out = tmp_path / "c4.json"
    invoke(capsys, "generate", "--family", "cylinder", "-m", "1", "-n", "2", "-o", str(out))
    doc = json.loads(out.read_text())
    doc["t"] = 10**18  # four edges cannot cover that palette
    out.write_text(json.dumps(doc))
    code, text, _ = invoke(capsys, "verify", str(out), "--json")
    assert code == 1
    assert json.loads(text)["surjective"] is False


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-1, 0, 2**63, 10**30, -(10**30)])
    | st.text(max_size=6)
)
_KEYS = st.sampled_from(
    ["family", "m", "n", "t", "vertices", "edges", "u", "v", "color", "rule", "argv"]
) | st.text(max_size=4)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=5),
    max_leaves=16,
)
_BASE_DOCUMENTS = [
    coloring_to_json_dict(constructions.construct(family, m, n).coloring)
    for family, m, n in (("cylinder", 1, 2), ("torus", 2, 2))
]


def _slots(node):
    """Every (container, key) pair inside a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in list(items):
        yield node, key
        yield from _slots(child)


@st.composite
def _hostile_documents(draw):
    """A valid coloring document with one to three fields made hostile:
    half the draws hit a top-level field, half any field at any depth."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_BASE_DOCUMENTS))))
    for _ in range(draw(st.integers(1, 3))):
        top = [(doc, key) for key in doc]
        container, key = draw(st.sampled_from(top) | st.sampled_from(list(_slots(doc))))
        container[key] = draw(_JSON)
    return doc


def _assert_run_contract(argv):
    """``run(argv)`` exits 0, 1, 2 or 3 and prints no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


def _assert_exit_contract(doc, path):
    path.write_text(json.dumps(doc))
    for argv in (
        ["verify", str(path)],
        ["verify", str(path), "--json"],
        ["export", str(path), "--format", "csv"],
        ["export", str(path), "--format", "dot"],
        ["replay", str(path)],
    ):
        _assert_run_contract(argv)


@settings(max_examples=100, deadline=None)
@given(doc=_JSON)
def test_arbitrary_json_keeps_the_exit_code_contract(doc, tmp_path_factory):
    _assert_exit_contract(doc, tmp_path_factory.getbasetemp() / "arbitrary.json")


@settings(max_examples=100, deadline=None)
@given(doc=_hostile_documents())
def test_hostile_coloring_fields_keep_the_exit_code_contract(doc, tmp_path_factory):
    _assert_exit_contract(doc, tmp_path_factory.getbasetemp() / "hostile.json")


_SIZE = st.integers(-1, 3).map(str)
_RANGE = st.one_of(
    st.builds("{}..{}".format, st.integers(-1, 3), st.integers(-1, 3)),
    st.sampled_from(["2", "", "..", "a..b", "1.5..2", "1..2..3", "2..x"]),
)
_SWEEP_ARGV = st.builds(lambda m, n: ["sweep", "-m", m, "-n", n], _SIZE, _SIZE)


@st.composite
def _search_argv(draw):
    family = draw(st.sampled_from(["cylinder", "torus"]))
    argv = ["search", "--family", family, "-m", draw(_SIZE), "-n", draw(_SIZE)]
    argv += draw(
        st.builds(lambda t: [f"--t={t}"], st.integers(-2, 14))
        | st.sampled_from([["--exact-w"], ["--exact-W"]])
    )
    # the node cap keeps every scan short, whatever the edge cap admits
    argv.append(f"--max-nodes={draw(st.integers(-1, 2000))}")
    if draw(st.booleans()):
        argv.append(f"--max-edges={draw(st.integers(-1, 24))}")
    if draw(st.booleans()):
        timeout = st.sampled_from(["nan", "-1", "-0.0", "0", "1e-9", "inf", "x"])
        argv.append(f"--timeout={draw(timeout | st.floats().map(str))}")
    return argv


@st.composite
def _bounds_argv(draw):
    family = draw(st.sampled_from(["cylinder", "torus", "both"]))
    argv = ["bounds", "--family", family]
    argv += [f"--m-range={draw(_RANGE)}", f"--n-range={draw(_RANGE)}"]
    if draw(st.booleans()):
        # at most 12 edges: the oracle fills C(2,4) and smaller, each in milliseconds
        argv.append(f"--oracle-budget={draw(st.integers(-1, 12))}")
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_search_argv() | _bounds_argv() | _SWEEP_ARGV)
def test_search_bounds_and_sweep_arguments_keep_the_exit_code_contract(argv):
    _assert_run_contract(argv)


def test_replay_of_a_replay_is_refused(tmp_path, capsys):
    manifest = tmp_path / "loop.manifest.json"
    manifest.write_text(json.dumps({"argv": ["replay", str(manifest)]}))
    code, _, err = invoke(capsys, "replay", str(manifest))
    assert code == 2
    assert "replay" in err


def test_replay_of_an_argv_that_is_not_an_array_of_strings(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    for argv in ("generate", ["generate", 1]):
        manifest.write_text(json.dumps({"argv": argv}))
        code, out, err = invoke(capsys, "replay", str(manifest))
        assert (code, out, err) == (2, "", "schema error: 'argv' must be an array of strings\n")


def test_verify_schema_mismatch(tmp_path, capsys):
    out = tmp_path / "c.json"
    invoke(capsys, "generate", "--family", "cylinder", "-m", "1", "-n", "2", "-o", str(out))
    doc = json.loads(out.read_text())
    doc["m"] = 2  # family law now disagrees with the listed edges
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = invoke(capsys, "verify", str(bad))
    assert code == 2
    assert "schema error" in err


def test_export_refuses_a_rule_that_is_not_a_string(tmp_path, capsys):
    out = tmp_path / "c.json"
    invoke(capsys, "generate", "--family", "cylinder", "-m", "1", "-n", "2", "-o", str(out))
    doc = json.loads(out.read_text())
    doc["edges"][0]["rule"] = None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "export", str(bad), "--format", "csv")
    assert code == 2
    assert out == ""
    assert "edge x_1_1-x_2_1 rule must be a string, got None" in err


def test_verify_missing_file(capsys):
    code, _, err = invoke(capsys, "verify", "/nonexistent/coloring.json")
    assert code == 2


def test_export_dot_and_csv(tmp_path, capsys):
    ring = tmp_path / "ring.json"
    invoke(capsys, "generate", "--family", "cylinder", "-m", "1", "-n", "2", "-o", str(ring))
    code, out, _ = invoke(capsys, "export", str(ring), "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 4
    assert 'label="1"' in out

    cyl = tmp_path / "cyl.json"
    invoke(capsys, "generate", "--family", "cylinder", "-m", "2", "-n", "2", "-o", str(cyl))
    code, out, _ = invoke(capsys, "export", str(cyl), "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "u,v,rule,color"
    assert len(lines) == 1 + 12
    assert all(line.split(",")[2] for line in lines[1:])  # every row names its rule

    torus = tmp_path / "torus.json"
    invoke(capsys, "generate", "--family", "torus", "-m", "2", "-n", "2", "-o", str(torus))
    code, out, _ = invoke(capsys, "export", str(torus), "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 32


def test_export_refuses_broken_coloring(tmp_path, capsys):
    out = tmp_path / "c.json"
    invoke(capsys, "generate", "--family", "cylinder", "-m", "2", "-n", "2", "-o", str(out))
    doc = json.loads(out.read_text())
    doc["edges"][0]["color"] += 1
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code, _, err = invoke(capsys, "export", str(broken), "--format", "dot")
    assert code == 1
    assert "x_" in err


def test_export_unknown_format(tmp_path, capsys):
    code, _, _ = invoke(capsys, "export", "whatever.json", "--format", "svg")
    assert code == 2


def test_search_exit_codes(capsys):
    code, out, _ = invoke(
        capsys, "search", "--family", "cylinder", "-m", "1", "-n", "2", "--t", "3"
    )
    assert code == 0
    assert json.loads(out)["t"] == 3

    code, _, err = invoke(
        capsys, "search", "--family", "cylinder", "-m", "1", "-n", "2", "--t", "4"
    )
    assert code == 1
    assert "no interval" in err

    code, _, err = invoke(
        capsys, "search", "--family", "torus", "-m", "2", "-n", "2", "--t", "8"
    )
    assert code == 3
    assert "budget" in err


def test_search_exact_flags(capsys):
    code, out, _ = invoke(
        capsys, "search", "--family", "cylinder", "-m", "2", "-n", "2", "--exact-W"
    )
    assert code == 0
    assert out.strip() == "6"
    code, out, _ = invoke(
        capsys, "search", "--family", "cylinder", "-m", "1", "-n", "2", "--exact-w"
    )
    assert code == 0
    assert out.strip() == "2"


def test_search_edge_cap_flag(capsys):
    code, _, err = invoke(
        capsys,
        "search", "--family", "cylinder", "-m", "1", "-n", "3", "--t", "4",
        "--max-edges", "4",
    )
    assert code == 3
    assert "6 edges" in err


def test_huge_search_is_refused_before_any_build(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the instance must not be built")

    monkeypatch.setattr(cli, "build", refuse)
    monkeypatch.setattr(grids, "_product", refuse)  # every grid build goes through it
    huge = ("--family", "torus", "-m", str(10**6), "-n", str(10**6))
    for mode in (("--t", "5"), ("--exact-W",)):
        code, out, err = invoke(capsys, "search", *huge, *mode)
        assert (code, out) == (3, "")
        assert "8000000000000 edges, budget allows 16" in err


def test_search_node_cap_flag(capsys):
    code, _, err = invoke(
        capsys,
        "search", "--family", "torus", "-m", "2", "-n", "2", "--t", "11",
        "--max-edges", "32", "--max-nodes", "50",
    )
    assert code == 3


def test_search_timeout_must_be_a_number_at_least_zero(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the search must not start")

    # the handler loads search when it runs and calls through the module
    monkeypatch.setattr(search, "find_interval_coloring", refuse)
    # the node cap ends the search if a bad time cap were ever let through
    argv = ["search", "--family", "torus", "-m", "2", "-n", "2", "--t", "12",
            "--max-edges", "32", "--max-nodes", "100000"]
    for bad in ("nan", "-1", "-inf"):
        code, out, err = invoke(capsys, *argv, f"--timeout={bad}")
        assert (code, out) == (2, "")
        assert err.startswith("error: time cap must be a number >= 0"), err


def test_search_caps_must_be_at_least_zero(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the search must not start")

    monkeypatch.setattr(search, "find_interval_coloring", refuse)
    monkeypatch.setattr(search, "exact_W", refuse)
    argv = ["search", "--family", "cylinder", "-m", "1", "-n", "2"]
    for mode in (("--t", "3"), ("--exact-W",)):
        for flag, cap in (("--max-nodes", "node"), ("--max-edges", "edge")):
            code, out, err = invoke(capsys, *argv, *mode, flag, "-5")
            assert (code, out, err) == (2, "", f"error: {cap} cap must be >= 0, got -5\n")


def test_search_refuses_a_member_outside_its_family_range(capsys):
    # the range check comes before the edge cap, whatever the cap
    refusals = {
        ("cylinder", "0", "2"): "cylinder needs m >= 1, got m=0",
        ("cylinder", "2", "1"): "cylinder needs n >= 2, got n=1",
        ("torus", "1", "2"): "torus needs m >= 2, got m=1",
    }
    for (family, m, n), message in refusals.items():
        argv = ["search", "--family", family, "-m", m, "-n", n]
        for mode in (("--t", "3"), ("--exact-w",), ("--exact-W",), ("--t", "3", "--max-edges", "0")):
            assert invoke(capsys, *argv, *mode) == (2, "", f"error: {message}\n"), mode


def _limit_address_space():
    import resource

    limit = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sets RLIMIT_AS")
def test_an_instance_too_large_for_memory_is_a_usage_error(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    manifest = tmp_path / "m.json"
    for argv in (
        ["generate", "--family", "torus", "-m", "3000", "-n", "3000", "--manifest", str(manifest)],
        ["sweep", "-m", "3000", "-n", "3000"],
    ):
        # the limit applies to the child interpreter only; -B, since the
        # stripped environment drops any PYTHONDONTWRITEBYTECODE
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "intervalmesh.cli", *argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": ""},
            preexec_fn=_limit_address_space,
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == ["error: out of memory: the instance is too large"]
    assert json.loads(manifest.read_text())["result"] == "failed: MemoryError"


def test_bounds_subcommand(tmp_path, capsys):
    code, out, _ = invoke(
        capsys,
        "bounds", "--family", "both", "--m-range", "2..2", "--n-range", "2..2",
        "--oracle-budget", "16",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("family,m,n,")
    assert "cylinder,2,2,3,3,3,6,7,3,6" in lines
    assert "torus,2,2,4,4,4,8,13,," in lines

    # single-dash spellings of the range flags are accepted too
    code, out2, _ = invoke(
        capsys,
        "bounds", "--family", "both", "-m-range", "2..2", "-n-range", "2..2",
        "--oracle-budget", "16",
    )
    assert code == 0
    assert out2 == out


def test_bounds_bad_range(capsys):
    code, _, err = invoke(
        capsys, "bounds", "--m-range", "3", "--n-range", "2..2"
    )
    assert code == 2
    assert "A..B" in err
    # a negative oracle budget is refused as search refuses a negative edge cap,
    # also when the ranges admit no row
    for family in ("both", "torus"):
        code, out, err = invoke(
            capsys, "bounds", "--family", family, "--m-range", "1..1", "--n-range", "2..2",
            "--oracle-budget", "-1",
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: edge cap must be >= 0, got -1"]


def test_sweep_subcommand(capsys):
    code, out, _ = invoke(capsys, "sweep", "-m", "2", "-n", "2")
    assert code == 0
    docs = json.loads(out)["colorings"]
    assert [d["t"] for d in docs] == [8, 7, 6, 5, 4]
    for d in docs:
        coloring, _ = coloring_from_json_dict(d)
        assert verify_interval(coloring).interval


@pytest.mark.parametrize("argv", [
    ("generate", "--family", "cylinder", "-m", "2", "-n", "3"),
    ("generate", "--family", "torus", "-m", "3", "-n", "2"),
    ("generate", "--family", "torus", "-m", "2", "-n", "3", "--t", "6"),
    ("sweep", "-m", "3", "-n", "2"),
    ("search", "--family", "cylinder", "-m", "2", "-n", "2", "--t", "6"),
])
def test_documents_are_written_without_the_dict_view(argv, capsys, monkeypatch):
    code, want, _ = invoke(capsys, *argv)
    assert code == 0

    def refuse(*args):
        raise AssertionError("a dict document was built")

    monkeypatch.setattr(colorings, "coloring_to_json_dict", refuse)
    assert invoke(capsys, *argv) == (0, want, "")


def test_manifest_replay_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "first.json"
    manifest = tmp_path / "run.manifest.json"
    code, _, _ = invoke(
        capsys,
        "generate", "--family", "torus", "-m", "2", "-n", "3",
        "-o", str(out1), "--manifest", str(manifest),
    )
    assert code == 0
    doc = json.loads(manifest.read_text())
    assert doc["subcommand"] == "generate"
    assert "--manifest" not in doc["argv"]
    assert doc["outputs"] == [str(out1)]

    out2 = tmp_path / "second.json"
    code, _, _ = invoke(capsys, "replay", str(manifest), "-o", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_manifest_for_bounds_replay(tmp_path, capsys):
    out1 = tmp_path / "table.csv"
    manifest = tmp_path / "bounds.manifest.json"
    invoke(
        capsys,
        "bounds", "--family", "cylinder", "--m-range", "1..2", "--n-range", "2..3",
        "-o", str(out1), "--manifest", str(manifest),
    )
    out2 = tmp_path / "table2.csv"
    code, _, _ = invoke(capsys, "replay", str(manifest), "-o", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_replay_of_an_abbreviated_manifest_flag_writes_no_manifest(tmp_path, capsys):
    # argparse takes --man for --manifest; the recorded argv drops the flag
    # under every spelling argparse accepts, and a replay writes no manifest
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    manifest = tmp_path / "m.json"
    generate = ["generate", "--family", "torus", "-m", "2", "-n", "2", "-o", str(out1)]
    for flag in (["--man", str(manifest)], ["--manif", str(manifest)], [f"--ma={manifest}"]):
        code, _, _ = invoke(capsys, *generate, *flag)
        assert code == 0
        recorded = manifest.read_bytes()
        argv = json.loads(recorded)["argv"]
        assert "--man" not in argv and argv == generate
        code, _, _ = invoke(capsys, "replay", str(manifest), "-o", str(out2))
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert manifest.read_bytes() == recorded


def test_a_manifest_keeps_the_arguments_after_a_double_dash(tmp_path, capsys, monkeypatch):
    # the recorded argv drops the manifest flag before "--" and keeps every
    # token from "--" on, also a path spelled like a prefix of --manifest
    monkeypatch.chdir(tmp_path)
    code, _, _ = invoke(capsys, "generate", "--family", "torus", "-m", "2", "-n", "2",
                        "-o", "doc.json")
    assert code == 0
    Path("--ma").write_bytes(Path("doc.json").read_bytes())
    for path in ("doc.json", "--ma"):
        code, _, _ = invoke(capsys, "verify", "--manifest", "m.json", "--", path)
        assert code == 0
        doc = json.loads(Path("m.json").read_text())
        assert doc["argv"] == ["verify", "--", path]
        assert doc["inputs"] == [path]


def test_a_nul_in_a_path_is_a_usage_error(tmp_path, capsys):
    # no shell argv holds a NUL, but an in-process argv or a manifest can
    generate = ["generate", "--family", "torus", "-m", "2", "-n", "2"]
    runs = [
        ["verify", "a\0b"],
        [*generate, "-o", str(tmp_path / "a\0b.json")],
        [*generate, "-o", str(tmp_path / "a.json"), "--manifest", "m\0.json"],
    ]
    for i, argv in enumerate(runs[:2]):
        manifest = tmp_path / f"recorded{i}.json"
        manifest.write_text(json.dumps({"argv": argv}))
        runs.append(["replay", str(manifest)])
    for argv in runs:
        code, _, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: path contains a NUL") and err.count("\n") == 1, argv


def test_replay_without_output_writes_the_recorded_path(tmp_path, capsys):
    out = tmp_path / "first.json"
    manifest = tmp_path / "m.json"
    invoke(
        capsys,
        "sweep", "-m", "2", "-n", "2", "-o", str(out), "--manifest", str(manifest),
    )
    first = out.read_bytes()
    out.unlink()
    code, stdout, _ = invoke(capsys, "replay", str(manifest))
    assert (code, stdout) == (0, "")
    assert out.read_bytes() == first


def test_replay_of_an_argv_that_no_longer_parses(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"argv": ["generate", "--family", "moebius"]}))
    code, out, err = invoke(capsys, "replay", str(manifest))
    assert (code, out) == (2, "")
    assert "invalid choice" in err and "Traceback" not in err


def test_usage_errors(capsys):
    code, _, _ = invoke(capsys, "no-such-subcommand")
    assert code == 2
    code, _, _ = invoke(capsys, "generate", "--family", "torus", "-m", "2")
    assert code == 2


def test_output_to_directory_is_usage_error(tmp_path, capsys):
    code, _, err = invoke(
        capsys,
        "generate", "--family", "cylinder", "-m", "1", "-n", "2", "-o", str(tmp_path),
    )
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_non_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"family": "\xe9\xff"}')
    code, _, err = invoke(capsys, "verify", str(path))
    assert code == 2
    assert "not UTF-8" in err


def test_manifest_written_on_failure(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    code, _, _ = invoke(
        capsys,
        "search", "--family", "torus", "-m", "2", "-n", "2", "--exact-W",
        "--max-edges", "32", "--max-nodes", "50", "--manifest", str(manifest),
    )
    assert code == 3
    doc = json.loads(manifest.read_text())
    assert doc["result"] == "failed: BudgetExceededError"
    assert doc["outputs"] == []
    assert "--manifest" not in doc["argv"]
    # a truncated --t search fails through the same path, with the same line
    code, out, err = invoke(
        capsys,
        "search", "--family", "torus", "-m", "2", "-n", "2", "--t", "11",
        "--max-edges", "32", "--max-nodes", "50", "--manifest", str(manifest),
    )
    assert (code, out) == (3, "")
    assert err.splitlines() == ["search budget exceeded: node cap reached"]
    assert json.loads(manifest.read_text())["result"] == "failed: BudgetExceededError"


def test_failure_manifest_names_the_input(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("gap.json").write_text(json.dumps(GAP_DOC))
    code, _, _ = invoke(
        capsys, "export", "gap.json", "--format", "dot", "--manifest", "m.json"
    )
    assert code == 1
    doc = json.loads(Path("m.json").read_text())
    assert doc["result"] == "failed: InvalidColoringError"
    assert doc["inputs"] == ["gap.json"]
    code, _, _ = invoke(capsys, "verify", "missing.json", "--manifest", "m.json")
    assert code == 2
    assert json.loads(Path("m.json").read_text())["inputs"] == ["missing.json"]


def test_generate_reports_broken_step_down(capsys, monkeypatch):
    real = constructions.step_down

    def corrupt(c):
        out = real(c)
        bumped = (out.aligned[0] + 1,) + out.aligned[1:]
        return EdgeColoring(out.graph, bumped, out.palette_size)

    monkeypatch.setattr(constructions, "step_down", corrupt)
    code, out, err = invoke(
        capsys, "generate", "--family", "torus", "-m", "2", "-n", "2", "--t", "7"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("construction failed:") and "x_" in err


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "intervalmesh.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()
