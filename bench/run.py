"""Benchmark for intervalmesh: one workload per process, closed loop, one client.

Run from the root of a checkout:

    python3 bench/run.py --workload mesh-roundtrip --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

The package is imported from the checkout's own ``src`` (the CLI workload
sets ``PYTHONPATH`` for its children), so each commit measures its own
code.  A single-workload run prints its metrics by name and unit, then as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--workload all`` runs every workload
untraced and traced in child processes, prints the tracing overhead and
writes ``bench/results/summary-seed<N>.json``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

MIN_OPS = 100  # so p90 has at least ten samples above it
SETUP_PROBES = 7
ENV_PROBES = 3
SAFETY_S = 150.0  # stop early rather than overrun the 180 s limit
CALIBRATION_REFERENCE_S = 0.003  # one calibration unit at reference speed
E2E_UNITS = {
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def calibration_unit() -> int:
    """Fixed pure-Python work (tuples, dicts, sorting, formatting), ~3 ms."""
    table: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    rows = sorted(table.items(), key=lambda kv: kv[1])
    return len(",".join(f"{a}_{b}:{v}" for (a, b), v in rows))


class Calibration:
    """Readings of the machine's current speed, one before each timed step.

    The speed of a shared machine drifts by tens of percent over seconds.
    Every time is reported at reference speed: multiplied by the ratio of
    ``CALIBRATION_REFERENCE_S`` to the calibration unit's time around it
    (the median of the three readings before and the three after, which
    smooths the noise of single readings but follows the drift), so the
    drift cancels while a change in the program's own work does not.
    """

    def __init__(self) -> None:
        self.unit_s: list[float] = []

    def read(self) -> None:
        best = math.inf
        for _ in range(3):
            began = time.perf_counter()
            calibration_unit()
            best = min(best, time.perf_counter() - began)
        self.unit_s.append(best)

    def scale(self, step: int) -> float:
        """Factor for the step between readings ``step`` and ``step + 1``."""
        near = self.unit_s[max(0, step - 2) : step + 4]
        return CALIBRATION_REFERENCE_S / statistics.median(near)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def spawn_ms(args: list[str], count: int) -> float:
    """Median wall time of ``count`` fresh interpreters running ``args``."""
    from workloads import child_env

    times = []
    for _ in range(count):
        began = time.perf_counter()
        subprocess.run(
            [sys.executable, *args],
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            check=True,
        )
        times.append((time.perf_counter() - began) * 1e3)
    return statistics.median(times)


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "dont_write_bytecode": int(sys.flags.dont_write_bytecode),
        "cli.interp_ms": spawn_ms(["-c", "pass"], ENV_PROBES),
        "cli.startup_ms": spawn_ms(["-m", "intervalmesh.cli", "--version"], ENV_PROBES),
    }


def setup_workload(name: str, seed: int, workdir: Path):
    """Imports, fixture generation and warm-up: everything before op 0."""
    import workloads

    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](seed, workdir)
    for spec in wl.warmup():
        wl.check(spec, wl.run(spec), -1)
    return wl


def probe_setup(name: str, seed: int) -> float:
    """Median time from spawning a fresh process to its first op."""
    times = []
    calibration = Calibration()
    calibration.read()
    for _ in range(SETUP_PROBES):
        began = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--probe-setup"],
            stdout=subprocess.PIPE,
        ) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - began)
            child.stdout.read()
        if line.strip() != b"ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe of {name} failed")
        calibration.read()
    return statistics.median(t * calibration.scale(i) for i, t in enumerate(times))


def measure(wl, seconds: float, max_ops: int | None, tracer) -> dict:
    ops: list[tuple[object, float, bool]] = []  # (spec, elapsed, ok)
    failures: list[str] = []
    calibration = Calibration()
    blocks = 0
    began = time.perf_counter()
    for block in wl.blocks():
        for spec in block:
            calibration.read()
            index = len(ops)
            if tracer is not None:
                tracer.op = index
            start = time.perf_counter()
            try:
                result = wl.run(spec)
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None
            if error is None:
                try:
                    wl.check(spec, result, index)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            result = None  # free it before the next op, for peak_rss_mb
            ops.append((spec, elapsed, error is None))
            if error is not None:
                failures.append(f"op {index} {spec}: {error}")
            if max_ops is not None and len(ops) >= max_ops:
                break
        blocks += 1
        wall = time.perf_counter() - began
        if max_ops is not None and len(ops) >= max_ops:
            break
        # whole blocks, as many as end nearest to ``seconds``
        if (wall + wall / blocks / 2 >= seconds and len(ops) >= MIN_OPS) or wall >= SAFETY_S:
            break
    wall = time.perf_counter() - began
    calibration.read()
    # Each op counts with the median of the ops of the run that had the
    # same input, so a hiccup of the shared machine during one op does not
    # land in the tail.
    same_input: dict[object, list[float]] = defaultdict(list)
    for i, (spec, elapsed, _) in enumerate(ops):
        same_input[spec].append(elapsed * calibration.scale(i))
    typical = {spec: statistics.median(times) for spec, times in same_input.items()}
    return {
        "attempted": len(ops),
        "failures": failures,
        "latencies": sorted(typical[spec] for spec, _, ok in ops if ok),
        "spent": sum(typical[spec] for spec, _, _ in ops),
        "wall_latencies": sorted(elapsed for _, elapsed, ok in ops if ok),
        "wall_spent": sum(elapsed for _, elapsed, _ in ops),
        "wall": wall,
        "speed": CALIBRATION_REFERENCE_S / statistics.median(calibration.unit_s),
    }


def end_to_end(run: dict, setup_s: float | None, rss_kb: int) -> dict[str, float]:
    lat = run["latencies"] or [math.nan]
    out = {
        "ops_per_s": len(run["latencies"]) / run["spent"],
        "p50_ms": percentile(lat, 0.5) * 1e3,
        "p90_ms": percentile(lat, 0.9) * 1e3,
    }
    if setup_s is not None:
        out["setup_s"] = setup_s
    out["peak_rss_mb"] = rss_kb / 1024
    return out


def run_one(args) -> int:
    workdir = BENCH / f".work-{args.workload}-{os.getpid()}"
    wl = None
    try:
        if args.probe_setup:
            wl = setup_workload(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup_s = probe_setup(args.workload, args.seed)
        wl = setup_workload(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            import spans
            import workloads

            tracer = spans.Tracer()
            tracer.install(workloads.MODULES)
            wl.tracer = tracer
        run = measure(wl, args.seconds, args.max_ops, tracer)
        rss_kb = wl.peak_rss_kb()
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    attempted = run["attempted"]
    failed = len(run["failures"])
    e2e = end_to_end(run, None if args.trace else setup_s, rss_kb)
    for line in run["failures"][:10]:
        print(f"FAILED {line}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client")
    print("env " + json.dumps(env))
    print(f"ops {attempted} attempted, {failed} failed, {len(run['latencies'])} timed "
          f"samples in {run['wall']:.2f} s (blocks of {wl.block_len} ops)")
    wall_lat = run["wall_latencies"] or [math.nan]
    print(f"calibration: machine at {run['speed']:.3f} x reference speed; unscaled "
          f"ops_per_s {len(run['wall_latencies']) / run['wall_spent']:.4f}, "
          f"p50_ms {percentile(wall_lat, 0.5) * 1e3:.4f}, "
          f"p90_ms {percentile(wall_lat, 0.9) * 1e3:.4f}")
    print(f"error_rate {failed / attempted} ratio")
    if args.trace:
        import spans

        window = range(min(attempted, math.ceil(MIN_OPS / wl.block_len) * wl.block_len))
        layer = tracer.layer_metrics(window)
        layer["cli.interp_ms"] = env["cli.interp_ms"]
        layer["cli.startup_ms"] = env["cli.startup_ms"]
        metrics = {
            name: {"value": layer[name], "unit": unit}
            for name, unit in spans.PER_LAYER_UNITS.items()
        }
        print("traced " + json.dumps(e2e))
        print(f"per-layer metrics over ops 0..{len(window) - 1}:")
        for name, unit in spans.PER_LAYER_UNITS.items():
            print(f"  {name} {layer[name]} {unit}")
        print("counts " + json.dumps({k: layer[k] for k in spans.DETERMINISTIC}))
        print("nodes " + json.dumps(tracer.node_counts(window)))
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(path)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {}
        for name, unit in E2E_UNITS.items():
            metrics[name] = {"value": e2e[name], "unit": unit}
            print(f"{name} {e2e[name]} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own process."""
    import workloads

    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    correct = True
    for name in workloads.WORKLOADS:
        entry = summary["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.max_ops is not None:
                cmd += ["--max-ops", str(args.max_ops)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            records = dict(ln.split(" ", 1) for ln in lines[:-1] if " {" in ln)
            entry["env"] = json.loads(records["env"])
            key = "traced" if trace else "untraced"
            entry[key] = {k: v["value"] for k, v in result["metrics"].items()}
            entry[key]["error_rate"] = result["failed"] / result["attempted"]
            if trace:
                entry["traced_end_to_end"] = json.loads(records["traced"])
                entry["counts"] = json.loads(records["counts"])
                entry["search_nodes"] = json.loads(records["nodes"])
    print(f"{'workload':<15} {'metric':<12} {'untraced':>12} {'traced':>12} {'overhead':>9}")
    for name, entry in summary["workloads"].items():
        for metric in ("ops_per_s", "p50_ms", "p90_ms", "peak_rss_mb", "error_rate"):
            base = entry["untraced"][metric]
            traced = entry["traced_end_to_end"].get(metric, entry["traced"].get(metric))
            change = f"{(traced / base - 1) * 100:+.1f}%" if base else "-"
            print(f"{name:<15} {metric:<12} {base:>12.4g} {traced:>12.4g} {change:>9}")
        print(f"{name:<15} {'setup_s':<12} {entry['untraced']['setup_s']:>12.4g}")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"summary-seed{args.seed}.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"summary written to {path.relative_to(ROOT)}")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="mesh-roundtrip, bounds-grid, search-decide, cli-session or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, help="stop after this many ops (smoke test)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "intervalmesh" / "__init__.py").is_file():
        print(f"error: no intervalmesh package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
