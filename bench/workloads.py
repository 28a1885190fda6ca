"""The benchmark's four workloads: op pools, operations and their checks.

Every workload draws its operations from fixed pools with a seeded
``random.Random``.  A pool is split into strata; a *block* holds one draw
from every stratum, in seeded order, and each stratum is drawn without
replacement until it is used up.  In mesh-roundtrip, bounds-grid and
search-decide every candidate is a stratum, so a block is the whole pool;
cli-session bands each command kind by cost.  Any run of whole blocks
therefore has the same cost profile whatever the seed, which keeps the
run-to-run spread of the timings small while every candidate stays
equally likely.

``run`` is the timed operation.  ``check`` runs after the timer stops and
calls only the functions bound below at import, before any span wrapper
is installed, so checking is neither timed nor traced.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import intervalmesh
from intervalmesh import bounds, cli, colorings, constructions, export, grids, search
from intervalmesh.colorings import coloring_from_json_dict as _from_json
from intervalmesh.colorings import verify_interval as _verify
from intervalmesh.export import to_csv as _to_csv
from intervalmesh.export import to_dot as _to_dot
from intervalmesh.grids import build_cylinder as _build_cylinder
from intervalmesh.grids import build_torus as _build_torus

SRC = Path(__file__).resolve().parent.parent / "src"
if Path(intervalmesh.__file__).resolve().parent != SRC / "intervalmesh":
    raise ImportError(f"intervalmesh imported from {intervalmesh.__file__}, not {SRC}")

MODULES = {
    "grids": grids,
    "colorings": colorings,
    "constructions": constructions,
    "export": export,
    "bounds": bounds,
    "search": search,
    "cli": cli,
}


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's src first."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class CheckFailed(Exception):
    """An operation returned a wrong outcome or output."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# closed forms the checks compare against
# ---------------------------------------------------------------------------


def palette(family: str, m: int, n: int) -> int:
    """Palette of the construction: 3m+n-2, or max(3m+n, 3n+m) for tori."""
    return 3 * m + n - 2 if family == "cylinder" else max(3 * m + n, 3 * n + m)


def num_edges(family: str, m: int, n: int) -> int:
    return 2 * n * (2 * m - 1) if family == "cylinder" else 8 * m * n


def num_vertices(family: str, m: int, n: int) -> int:
    return 2 * m * n if family == "cylinder" else 4 * m * n


def diam(family: str, m: int, n: int) -> int:
    """diam(C(m,2n)) = m-1+n and diam(T(2m,2n)) = m+n."""
    return m - 1 + n if family == "cylinder" else m + n


def max_deg(family: str, m: int) -> int:
    if family == "torus":
        return 4
    return min(m + 1, 4)


def check_bounds_row(family: str, m: int, n: int, row: dict) -> None:
    delta = max_deg(family, m)
    d = diam(family, m, n)
    want = {
        "family": family,
        "m": m,
        "n": n,
        "delta": delta,
        "diam": d,
        "w_claimed": delta,
        "lower_W": palette(family, m, n),
        "upper_W": d * (delta - 1) + 1,
        "w_exact": None,
        "W_exact": None,
    }
    expect(row == want, f"bounds row {family}({m},{n}) is {row}, want {want}")


def check_coloring(c, family: str, m: int, n: int, t: int) -> None:
    g = c.graph
    expect(
        (g.family.value, g.m, g.n) == (family, m, n),
        f"coloring is of {g.family.value}({g.m},{g.n}), want {family}({m},{n})",
    )
    expect(c.palette_size == t, f"palette {c.palette_size}, want {t}")
    expect(_verify(c).interval, f"{family}({m},{n}) t={t} fails verify_interval")


# ---------------------------------------------------------------------------
# op stream
# ---------------------------------------------------------------------------


def bands(items: list, count: int) -> list[list]:
    """Split cost-sorted items into ``count`` consecutive strata."""
    size = len(items)
    return [items[i * size // count : (i + 1) * size // count] for i in range(count)]


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.strata: list[list] = []
        self.tracer = None

    @property
    def block_len(self) -> int:
        return len(self.strata)

    def blocks(self):
        queues: list[list] = [[] for _ in self.strata]
        while True:
            block = []
            for queue, stratum in zip(queues, self.strata):
                if not queue:
                    queue.extend(self.rng.sample(stratum, len(stratum)))
                block.append(self.finish(queue.pop()))
            self.rng.shuffle(block)
            yield block

    def finish(self, spec):
        """Add the per-op parameters drawn from the seed."""
        return spec

    def warmup(self) -> list:
        return []

    def run(self, spec):
        raise NotImplementedError

    def check(self, spec, result, op: int) -> None:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        """Stop any process the workload started."""


# ---------------------------------------------------------------------------
# mesh-roundtrip
# ---------------------------------------------------------------------------

MESH_SIZES = (2, 4, 8, 12, 20)


@dataclass
class MeshResult:
    built: object
    text: str
    parsed: object
    trace: dict | None
    report: object
    csv: str
    dot: str
    steps: list


class MeshRoundtrip(Workload):
    name = "mesh-roundtrip"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.strata = [
            [(f, m, n)] for f in ("cylinder", "torus") for m in MESH_SIZES for n in MESH_SIZES
        ]
        self.steps: dict[tuple, list[int]] = {}

    def finish(self, spec):
        """Draw k, the number of step-downs, for tori.

        Each torus cycles through every k in 0..min(5, t-4) in seeded
        order, so that the total step-down work of a run hardly depends
        on the seed.
        """
        family, m, n = spec
        if family == "cylinder":
            return (family, m, n, 0)
        cycle = self.steps.setdefault(spec, [])
        if not cycle:
            cycle.extend(range(min(5, palette(family, m, n) - 4) + 1))
            self.rng.shuffle(cycle)
        return (family, m, n, cycle.pop())

    def warmup(self):
        return [("cylinder", 2, 2, 0), ("torus", 2, 2, 1)]

    def run(self, spec) -> MeshResult:
        family, m, n, k = spec
        if family == "cylinder":
            built = constructions.cylinder_coloring(m, n)
        else:
            built = constructions.torus_coloring(m, n)
        doc = colorings.coloring_to_json_dict(built.coloring, built.rule_trace)
        text = grids.dumps_canonical(doc)
        parsed, trace = colorings.coloring_from_json_dict(json.loads(text))
        report = colorings.verify_interval(parsed)
        csv_text = export.to_csv(parsed, trace)
        dot_text = export.to_dot(parsed)
        steps = []
        current = parsed
        for _ in range(k):
            current = constructions.step_down(current)
            steps.append(current)
        return MeshResult(built, text, parsed, trace, report, csv_text, dot_text, steps)

    def check(self, spec, r: MeshResult, op: int) -> None:
        family, m, n, k = spec
        t = palette(family, m, n)
        check_coloring(r.built.coloring, family, m, n, t)
        expect(r.report.interval, "verify_interval rejected the parsed coloring")
        expect(r.parsed.graph == r.built.coloring.graph, "parsed graph differs")
        expect(r.parsed.colors == r.built.coloring.colors, "parsed colors differ")
        expect(r.parsed.palette_size == t, "parsed palette differs")
        expect(r.trace == r.built.rule_trace, "parsed rule trace differs")
        expect(r.text.count('"color"') == num_edges(family, m, n), "JSON edge count")
        expect(r.csv == _to_csv(r.built.coloring, r.built.rule_trace), "CSV differs")
        expect(r.dot == _to_dot(r.built.coloring), "DOT differs")
        expect(len(r.steps) == k, "step count")
        for i, stepped in enumerate(r.steps, start=1):
            check_coloring(stepped, family, m, n, t - i)


# ---------------------------------------------------------------------------
# bounds-grid
# ---------------------------------------------------------------------------


class BoundsGrid(Workload):
    name = "bounds-grid"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.strata = [[("cylinder", m, n)] for m in range(1, 11) for n in range(2, 11)]
        self.strata += [[("torus", m, n)] for m in range(2, 11) for n in range(2, 11)]

    def warmup(self):
        return [("cylinder", 1, 2), ("torus", 2, 2)]

    def run(self, spec):
        return bounds.bounds_row(*spec)

    def check(self, spec, row, op: int) -> None:
        check_bounds_row(*spec, row.as_record())


# ---------------------------------------------------------------------------
# search-decide
# ---------------------------------------------------------------------------

SEARCH_BUDGET = search.SearchBudget(max_edges=32)

# (family, m, n, t, outcome), measured once and fixed here.
DECISIONS = (
    ("cylinder", 2, 3, 8, "found"),
    ("cylinder", 3, 2, 9, "found"),
    ("cylinder", 2, 4, 8, "found"),
    ("torus", 2, 2, 8, "found"),
    ("cylinder", 1, 8, 9, "found"),
    ("cylinder", 2, 2, 7, "absent"),
    ("cylinder", 1, 5, 7, "absent"),
    ("cylinder", 1, 6, 8, "absent"),
    ("cylinder", 1, 7, 9, "absent"),
    ("cylinder", 1, 8, 10, "absent"),
)

# (family, m, n, exact w, exact W)
SCANS = (
    ("cylinder", 2, 2, 3, 6),
    ("cylinder", 1, 6, 2, 7),
)


class SearchDecide(Workload):
    name = "search-decide"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.graphs = {}
        for family, m, n, *_ in DECISIONS + SCANS:
            build = _build_cylinder if family == "cylinder" else _build_torus
            self.graphs[(family, m, n)] = build(m, n)
        self.strata = [[("decide",) + d] for d in DECISIONS]
        self.strata += [[("scan",) + s] for s in SCANS]

    def warmup(self):
        return [("decide",) + DECISIONS[4], ("scan",) + SCANS[1]]

    def run(self, spec):
        g = self.graphs[spec[1:4]]
        if spec[0] == "decide":
            return search.find_interval_coloring(g, spec[4], SEARCH_BUDGET)
        return search.exact_w(g, SEARCH_BUDGET), search.exact_W(g, SEARCH_BUDGET)

    def check(self, spec, result, op: int) -> None:
        kind, family, m, n, a, b = spec
        if kind == "scan":
            expect(result == (a, b), f"{family}({m},{n}) w, W = {result}, want {(a, b)}")
            return
        expect(
            result.outcome.value == b,
            f"{family}({m},{n}) t={a} is {result.outcome.value}, want {b}",
        )
        if b == "found":
            expect(result.coloring.graph is self.graphs[(family, m, n)], "wrong graph")
            check_coloring(result.coloring, family, m, n, a)


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

CLI_BANDS = 10  # strata per command kind; one block is 100 ops
CLI_SIZES = [("cylinder", m, n) for m in range(1, 13) for n in range(2, 13)]
CLI_SIZES += [("torus", m, n) for m in range(2, 13) for n in range(2, 13)]
BOUNDS_ARGV = ("bounds", "--m-range", "1..4", "--n-range", "2..4")
SEARCH_ARGV = ("search", "--family", "cylinder", "-m", "2", "-n", "2", "--exact-W")


@dataclass(frozen=True)
class CliOp:
    kind: str
    argv: tuple[str, ...]
    params: tuple
    output: bool = False
    manifest: bool = False


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: bytes
    output: bytes | None
    manifest: dict | None


def _by_cost(items, cost) -> list[list]:
    """CLI_BANDS strata by cost; the costliest item is a stratum of its own.

    So every block runs each kind's largest case, and the largest child,
    which sets peak_rss_mb, is the same in every run.
    """
    ranked = sorted(items, key=lambda x: (cost(x), x))
    return bands(ranked[:-1], CLI_BANDS - 1) + [ranked[-1:]]


class CliSession(Workload):
    name = "cli-session"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
        )
        self.stdout_path = workdir / "stdout"
        self.stderr_path = workdir / "stderr"
        self.out_path = workdir / "out"
        self.manifest_path = workdir / "manifest.json"
        self.expected: dict[tuple, CliOutput] = {}
        self.checked: set[tuple] = set()
        self.child_rss_kb = 0
        self.fixtures = []
        for stratum in _by_cost(CLI_SIZES, lambda s: num_edges(*s)):
            family, m, n = self.rng.choice(stratum)
            build = (
                constructions.cylinder_coloring
                if family == "cylinder"
                else constructions.torus_coloring
            )
            built = build(m, n)
            doc = colorings.coloring_to_json_dict(built.coloring, built.rule_trace)
            path = workdir / f"fixture-{len(self.fixtures)}.json"
            path.write_text(grids.dumps_canonical(doc), encoding="utf-8")
            self.fixtures.append((family, m, n, str(path)))
        edges = lambda spec: num_edges(*spec[1:4])  # noqa: E731
        generate = [("generate",) + size for size in CLI_SIZES]
        stepped = [
            ("generate-t", "torus", m, n, t)
            for family, m, n in CLI_SIZES
            if family == "torus"
            for t in range(4, palette("torus", m, n))
        ]
        sweeps = [("sweep", "torus", m, n) for m in range(2, 9) for n in range(2, 9)]
        self.strata = _by_cost([g for g in generate if g[1] == "cylinder"], edges)
        self.strata += _by_cost([g for g in generate if g[1] == "torus"], edges)
        # every step down re-verifies, every swept palette is written out
        self.strata += _by_cost(stepped, lambda s: edges(s) * (2 + palette(*s[1:4]) - s[4]))
        self.strata += _by_cost(sweeps, lambda s: edges(s) * (palette(*s[1:4]) - 2))
        for kind in ("verify", "verify-json", "export-csv", "export-dot"):
            self.strata += [[(kind,) + f] for f in self.fixtures]
        self.strata += [[("bounds",)]] * CLI_BANDS
        self.strata += [[("search",)]] * CLI_BANDS

    def finish(self, spec) -> CliOp:
        kind = spec[0]
        if kind in ("generate", "generate-t"):
            argv = ("generate", "--family", spec[1], "-m", str(spec[2]), "-n", str(spec[3]))
            if kind == "generate-t":
                argv += ("--t", str(spec[4]))
        elif kind in ("verify", "verify-json"):
            argv = ("verify", spec[4]) + (("--json",) if kind == "verify-json" else ())
        elif kind in ("export-csv", "export-dot"):
            argv = ("export", spec[4], "--format", kind[-3:])
        elif kind == "sweep":
            argv = ("sweep", "-m", str(spec[2]), "-n", str(spec[3]))
        elif kind == "bounds":
            argv = BOUNDS_ARGV
        else:
            argv = SEARCH_ARGV
        mode = self.rng.randrange(3)  # stdout, -o FILE, -o FILE --manifest FILE
        if mode:
            argv += ("-o", str(self.out_path))
        if mode == 2:
            argv += ("--manifest", str(self.manifest_path))
        return CliOp(kind, argv, spec[1:], output=mode > 0, manifest=mode == 2)

    def warmup(self):
        return [self.finish(("search",)), self.finish(("generate", "cylinder", 1, 2))]

    # -- timed part --------------------------------------------------------

    def spawn(self, args: list[str]) -> tuple[int, int]:
        """Run one child with stdout/stderr to files; (exit code, maxrss KB)."""
        request = [[sys.executable, *args], str(self.stdout_path), str(self.stderr_path)]
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        code, rss = json.loads(self.spawner.stdout.readline())
        return code, rss

    def run(self, op: CliOp) -> int:
        for path in (self.out_path, self.manifest_path):
            path.unlink(missing_ok=True)
        code, rss = self.spawn(["-m", "intervalmesh.cli", *op.argv])
        self.child_rss_kb = max(self.child_rss_kb, rss)
        return code

    def peak_rss_kb(self) -> int:
        return self.child_rss_kb

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    # -- checks ------------------------------------------------------------

    def _collect(self, code: int, stdout: bytes, op: CliOp) -> CliOutput:
        output = self.out_path.read_bytes() if op.output else None
        manifest = None
        if op.manifest:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
            manifest.pop("wall_time_s", None)
        return CliOutput(code, stdout, output, manifest)

    def in_process(self, op: CliOp) -> CliOutput:
        """The same argv through ``cli.run`` in this process."""
        for path in (self.out_path, self.manifest_path):
            path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(op.argv))
        return self._collect(code, out.getvalue().encode("utf-8"), op)

    def check(self, op: CliOp, code: int, index: int) -> None:
        stderr = self.stderr_path.read_bytes()
        expect(code == 0, f"{' '.join(op.argv)} exited {code}: {stderr[-300:]!r}")
        got = self._collect(code, self.stdout_path.read_bytes(), op)
        if self.tracer is not None:
            self.tracer.op = index
            try:
                want = self.in_process(op)
            finally:
                self.tracer.op = None
        else:
            if op.argv not in self.expected:
                self.expected[op.argv] = self.in_process(op)
            want = self.expected[op.argv]
        if op.argv not in self.checked:
            self.check_content(op, want)
            self.checked.add(op.argv)
        expect(got == want, f"{' '.join(op.argv)}: output differs from cli.run in process")

    def check_content(self, op: CliOp, out: CliOutput) -> None:
        expect(out.code == 0, f"in-process {' '.join(op.argv)} exited {out.code}")
        text = (out.output if op.output else out.stdout).decode("utf-8")
        if op.manifest:
            expect(out.manifest["argv"] == list(op.argv[:-2]), "manifest argv")
            expect(out.manifest["subcommand"] == op.argv[0], "manifest subcommand")
        kind = op.kind
        if kind in ("generate", "generate-t"):
            family, m, n = op.params[:3]
            t = op.params[3] if kind == "generate-t" else palette(family, m, n)
            coloring, trace = _from_json(json.loads(text))
            check_coloring(coloring, family, m, n, t)
            expect((trace is None) == (t != palette(family, m, n)), "rule trace")
        elif kind in ("verify", "verify-json", "export-csv", "export-dot"):
            family, m, n, path = op.params
            coloring, trace = _from_json(json.loads(Path(path).read_text(encoding="utf-8")))
            t = palette(family, m, n)
            if kind == "verify":
                head = f"palette 1..{t}  proper=True  surjective=True  interval=True"
                expect(text.startswith(head + "\n"), "verify report header")
                expect(text.count("\n") == num_vertices(family, m, n) + 2, "report rows")
            elif kind == "verify-json":
                report = json.loads(text)
                expect(report["interval"] is True and report["palette_size"] == t, "report")
                expect(len(report["vertices"]) == num_vertices(family, m, n), "report rows")
            elif kind == "export-csv":
                expect(text == _to_csv(coloring, trace), "CSV export differs")
            else:
                expect(text == _to_dot(coloring), "DOT export differs")
        elif kind == "sweep":
            _, m, n = op.params
            top = palette("torus", m, n)
            docs = json.loads(text)["colorings"]
            expect([d["t"] for d in docs] == list(range(top, 3, -1)), "sweep palettes")
            for doc in docs:
                check_coloring(_from_json(doc)[0], "torus", m, n, doc["t"])
        elif kind == "bounds":
            rows = list(csv.DictReader(io.StringIO(text)))
            want = [("cylinder", m, n) for m in range(1, 5) for n in range(2, 5)]
            want += [("torus", m, n) for m in range(2, 5) for n in range(2, 5)]
            expect([(r["family"], int(r["m"]), int(r["n"])) for r in rows] == want, "rows")
            for (family, m, n), row in zip(want, rows):
                record = {k: (int(v) if v.isdigit() else v or None) for k, v in row.items()}
                check_bounds_row(family, m, n, record)
        else:
            expect(text == "6\n", f"exact W of cylinder(2,2) printed {text!r}, want 6")


WORKLOADS = {
    w.name: w for w in (MeshRoundtrip, BoundsGrid, SearchDecide, CliSession)
}
