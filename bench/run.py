#!/usr/bin/env python3
"""Benchmark of gmequiv, end to end and layer by layer.

    python3 bench/run.py --workload spectral --seed 0 --seconds 30 --trace 0

Runs from the root of a checkout and imports gmequiv from its src/
directory; it exits with status 2, printing no result, when that directory
is missing. One run measures the set-up time in fresh interpreters, runs
one discarded warm-up pass over the workload's fixed operation list, then
repeats timed passes until --seconds have been measured. Every result is
checked outside the timed region (see workloads.py). The last line of
stdout is one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, from passes run under the tracer in tracing.py, alternated
with untraced passes so the tracing overhead is measured too. The line
before it holds run details and the environment. Span records go to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_PASSES = 3
IMPORTTIME_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_ratio": "1"}

CLI_COMMANDS = ("simulate", "rates-discretization", "rates-projection", "kl", "kriging",
                "decompose", "counterexample", "validate")

PER_LAYER = {
    "fourier.calls": "count", "fourier.points": "count", "fourier.dense_terms": "count",
    "fourier.self_s": "s",
    "quadrature.calls": "count", "quadrature.panels": "count", "quadrature.exhausted": "count",
    "quadrature.converged_ratio": "1", "quadrature.self_s": "s",
    "rkhs.calls": "count", "rkhs.projection_s": "s", "rkhs.kriging_s": "s", "rkhs.self_s": "s",
    "sampling.calls": "count", "sampling.draws": "count", "sampling.dense_calls": "count",
    "sampling.self_s": "s",
    "kernels.gram_calls": "count", "kernels.gram_entries": "count", "kernels.self_s": "s",
    "expr.calls": "count", "expr.self_s": "s",
    "diagnostics.calls": "count", "diagnostics.sweep_cells": "count",
    "diagnostics.sweep_failed_cells": "count", "diagnostics.self_s": "s",
    "experiments.calls": "count", "experiments.self_s": "s",
    "counterexample.calls": "count", "counterexample.self_s": "s",
    "rng.streams": "count", "rng.self_s": "s",
    "cli.import_s": "s", "cli.import_scipy_s": "s",
    **{f"cli.{name}_s": "s" for name in CLI_COMMANDS},
    "cli.bytes_out": "bytes", "cli.self_s": "s",
    "trace.other_s": "s", "trace.overhead_s": "s",
}


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    op_walls: list = field(default_factory=list)
    results: list = field(default_factory=list)  # (result, error message or None)
    trace: dict | None = None
    spans: list | None = None
    rss_mb: float = 0.0  # largest child process, for the cli workload
    bytes_out: int = 0  # cli stdout plus written files


def _cpu_now() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_pass(ops) -> Pass:
    p = Pass()
    for op in ops:
        c0, t0 = _cpu_now(), time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # counted as a failed operation
            result, error = None, f"{op.name} raised {type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), _cpu_now()
        p.wall += t1 - t0
        p.cpu += c1 - c0
        p.op_walls.append(t1 - t0)
        p.results.append((result, error))
    return p


def traced_pass(ops, tracer, package) -> Pass:
    tracer.reset()
    tracer.install(package)
    try:
        p = run_pass(ops)
    finally:
        tracer.uninstall()
    p.trace = tracer.summary()
    p.spans = tracer.span_records()
    return p


def cli_traced_pass(ops, cli_ops) -> Pass:
    """Traced pass of the cli workload: each child traces itself."""
    cli_ops.traced = True
    try:
        p = run_pass(ops)
    finally:
        cli_ops.traced = False
    total = {"self_s": {}, "root_s": 0.0, "counts": {}}
    p.spans = []
    for op, (result, _) in zip(ops, p.results):
        if result is None or result.trace is None:
            continue
        trace = result.trace
        for layer, value in trace["self_s"].items():
            total["self_s"][layer] = total["self_s"].get(layer, 0.0) + value
        for key, value in trace["counts"].items():
            total["counts"][key] = total["counts"].get(key, 0) + value
        total["root_s"] += trace["root_s"]
        p.spans += [{**span, "op": op.name} for span in trace["spans"]]
    p.trace = total
    return p


# ---------------------------------------------------------------------------
# checks


class Verifier:
    """Counts attempted and failed operations, one pass at a time.

    An operation fails when it raised, when its result differs from the
    first pass's (every result is deterministic in the seed), when its
    check reports a problem, or, given reference values, when its numbers
    disagree with them beyond last-bit changes. Each distinct result is
    checked once. A checked pass keeps only its sizes, not its results, so
    memory does not grow with the number of passes.
    """

    def __init__(self, ops, reference):
        self.ops, self.reference = ops, reference
        self.first: list | None = None
        self.verdicts: dict = {}
        self.attempted = self.failed = 0
        self.messages: list = []

    def __call__(self, p: Pass) -> None:
        import workloads

        keys = [None if error else workloads.digest(r) for r, error in p.results]
        if self.first is None:
            self.first = keys
        for idx, (op, (result, error), key) in enumerate(zip(self.ops, p.results, keys)):
            self.attempted += 1
            problems = [error] if error else []
            if key is not None:
                if key != self.first[idx]:
                    problems.append(f"{op.name}: result differs from the first pass")
                if (idx, key) not in self.verdicts:
                    self.verdicts[(idx, key)] = [f"{op.name}: {m}" for m in self._check(op, result)]
                problems += self.verdicts[(idx, key)]
            if problems:
                self.failed += 1
                self.messages += [m for m in problems if m not in self.messages]
        p.rss_mb = max((getattr(r, "rss_mb", 0.0) for r, _ in p.results), default=0.0)
        p.bytes_out = sum(len(r.stdout) + sum(map(len, r.files.values()))
                          for r, _ in p.results if hasattr(r, "stdout"))
        p.results = []

    def _check(self, op, result) -> list:
        import workloads

        try:
            found = list(op.check(result))
        except Exception as exc:  # a check that cannot run is a failure
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if self.reference is not None:
            if op.name in self.reference:
                found += workloads.compare_reference(workloads.numbers(result),
                                                     self.reference[op.name])
            else:
                found.append("no reference values recorded")
        return found


# ---------------------------------------------------------------------------
# measurements taken in fresh interpreters


def measure_setup(args) -> list:
    """Wall time of fresh interpreters that import gmequiv and build the
    workload's inputs. The median is reported, so the one slow start that
    compiles bytecode in a fresh checkout does not move it."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: " + proc.stderr.decode()[-500:])
    return times


def import_times() -> tuple[float, float]:
    """`import gmequiv` and the scipy share of it, from -X importtime."""
    import workloads

    totals, scipy_parts = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gmequiv"],
                              cwd=ROOT, env=workloads.child_env(), capture_output=True,
                              text=True, check=True)
        rows = []
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)", line)
            if match:
                rows.append(((len(match.group(2)) - 1) // 2, match.group(3),
                             int(match.group(1)) / 1e6))
        # importtime prints children before their parent: walk backwards
        stack, total, scipy_s = [], 0.0, 0.0
        for depth, name, cumulative in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            parent = stack[-1][1] if stack else ""
            if name == "gmequiv" and depth == 0:
                total = cumulative
            if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
                scipy_s += cumulative
            stack.append((depth, name))
        totals.append(total)
        scipy_parts.append(scipy_s)
    return statistics.median(totals), statistics.median(scipy_parts)


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "GMEQUIV_THREADS": os.environ.get("GMEQUIV_THREADS"),
        "commit": commit,
    }


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def high_percentile(samples: list) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return {"percentile": None, "value": None, "samples": n}
    pct = int(100 * (n - 10) / n)
    ordered = sorted(samples)
    return {"percentile": pct, "value": ordered[max(0, -(-pct * n // 100) - 1)], "samples": n}


def end_to_end_metrics(setup_times, timed, attempted, failed, cli_run) -> dict:
    if cli_run:
        rss = max(p.rss_mb for p in timed)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall for p in timed),
        "cpu_s": statistics.median(p.cpu for p in timed),
        "peak_rss_mb": rss,
        "ok_ratio": 1.0 - failed / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def representative(traced: list) -> Pass:
    """The traced pass of median wall time (the lower one of an even count)."""
    return sorted(traced, key=lambda p: p.wall)[(len(traced) - 1) // 2]


def per_layer_metrics(ops, untraced, traced, cli_run) -> dict:
    rep = representative(traced)
    counts, self_s = rep.trace["counts"], rep.trace["self_s"]
    values = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name in counts:
            values[name] = counts[name]
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
    refine = counts.get("quadrature.refine_calls", 0)
    values["quadrature.converged_ratio"] = (
        (refine - counts.get("quadrature.exhausted", 0)) / refine if refine else 1.0)
    values["cli.import_s"], values["cli.import_scipy_s"] = import_times()
    if cli_run:
        for idx, op in enumerate(ops):
            values[f"cli.{op.name}_s"] = statistics.median(p.op_walls[idx] for p in untraced)
        values["cli.bytes_out"] = rep.bytes_out
    values["trace.other_s"] = rep.wall - rep.trace["root_s"]
    values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                  - statistics.median(p.wall for p in untraced))
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("spectral", "projection", "paths", "cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per run (passes repeat until it is reached)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny sizes, for the benchmark's own test")
    parser.add_argument("--record-reference", action="store_true",
                        help="write this workload's reference values at the default seed")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gmequiv" / "__init__.py").is_file():
        print(f"error: {SRC / 'gmequiv'} not found; run from the root of a gmequiv checkout",
              file=sys.stderr)
        return 2
    if args.record_reference and args.seed != DEFAULT_SEED:
        print(f"error: reference values are recorded at seed {DEFAULT_SEED}", file=sys.stderr)
        return 64
    sys.path.insert(0, str(SRC))
    import gmequiv

    if Path(gmequiv.__file__).resolve().parent != (SRC / "gmequiv").resolve():
        print(f"error: gmequiv was imported from {gmequiv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _run(args, gmequiv, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, gmequiv, tmp: Path) -> int:
    import tracing
    import workloads

    build = workloads.WORKLOADS[args.workload]
    sizes = workloads.SIZES[args.scale]
    if args.setup_only:
        build(args.seed, sizes, tmp)
        return 0
    setup_times = measure_setup(args) if args.trace == 0 else []
    ops = build(args.seed, sizes, tmp)
    cli_run = args.workload == "cli"

    warm = run_pass(ops)
    if args.record_reference:
        return _record(args, ops, warm)
    reference = None
    if args.seed == DEFAULT_SEED:
        recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
        reference = recorded.get(args.scale, {}).get(args.workload, {})
    verify = Verifier(ops, reference)
    verify(warm)
    untraced, traced = [], []
    tracer = tracing.Tracer()
    clock = 0.0
    while clock < args.seconds or len(untraced) < MIN_PASSES or (args.trace and not traced):
        if args.trace and len(traced) < len(untraced):
            p = cli_traced_pass(ops, build) if cli_run else traced_pass(ops, tracer, gmequiv)
            traced.append(p)
        else:
            p = run_pass(ops)
            untraced.append(p)
        clock += p.wall
        verify(p)
    peak_rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, messages = verify.attempted, verify.failed, verify.messages

    if args.trace:
        metrics = per_layer_metrics(ops, untraced, traced, cli_run)
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracing.write_jsonl(spans_path, ({**span, "pass": idx}
                                         for idx, p in enumerate(traced) for span in p.spans))
    else:
        metrics = end_to_end_metrics(setup_times, untraced, attempted, failed, cli_run)
        spans_path = None
    walls = [p.wall for p in untraced]
    info = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "passes": len(untraced), "traced_passes": len(traced),
        "wall_s_samples": walls, "wall_s_high_percentile": high_percentile(walls),
        "setup_s_samples": setup_times, "peak_rss_self_mb": peak_rss_self,
        "error_ratio": failed / attempted, "failures": messages[:20],
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
        "traced_wall_s": representative(traced).wall if traced else None,
        "environment": environment(),
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


def _record(args, ops, warm: Pass) -> int:
    import workloads

    errors = [e for _, e in warm.results if e]
    if errors:
        print("error: " + "; ".join(errors), file=sys.stderr)
        return 1
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    recorded.setdefault(args.scale, {})[args.workload] = {
        op.name: workloads.numbers(result) for op, (result, _) in zip(ops, warm.results)}
    REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(ops)} operations of {args.workload} ({args.scale}) "
          f"in {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
