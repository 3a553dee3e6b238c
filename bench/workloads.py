"""The four benchmark workloads: inputs made from a seed, operations, checks.

Each workload is a closed loop: one process issues one operation at a
time, with no extra threads. An operation is timed on its own; its result
is checked afterwards, outside the timed region. Checks are invariants and
oracle agreements that hold on every seed; they never raise, they return
failure messages, which the runner counts against the operation.

Import this module only after gmequiv is importable (run.py arranges it).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gmequiv as gm

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

SIZES = {
    "full": {
        "spectral_ns": (64, 128, 256, 512, 1024), "spectral_K": 2048, "spectral_n": 1024,
        "projection_ou_ns": (8, 16, 32), "projection_slepian_ns": (16, 32, 64, 128, 256, 512),
        "indist_ns": (4, 8, 16, 32, 64), "mc_paths": 100_000, "draw_paths": 100_000,
        "dense_grids": (513, 1025, 2049), "dense_paths": 512,
        "path_ns": (1024, 4096, 16384), "kl_dense_n": 1024, "kriging_dense_n": 256,
        "cli_scale": "full",
    },
    "smoke": {
        "spectral_ns": (8, 16, 32, 64), "spectral_K": 32, "spectral_n": 16,
        "projection_ou_ns": (2, 4, 8, 16), "projection_slepian_ns": (8, 16, 32, 64),
        "indist_ns": (4, 8), "mc_paths": 4000, "draw_paths": 4000,
        "dense_grids": (33, 65), "dense_paths": 64,
        "path_ns": (16, 64), "kl_dense_n": 32, "kriging_dense_n": 16,
        "cli_scale": "smoke",
    },
}

# The Monte Carlo premise of the counterexample is a 3-sigma band, which a
# correct program misses on 0.27% of seeds for each n. The benchmark checks
# that premise at 5 standard errors instead, so no seed fails by chance.
MC_SE = 5.0


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    files: dict
    rss_mb: float
    trace: dict | None = None


# ---------------------------------------------------------------------------
# result digests (determinism) and numeric summaries (reference values)


def _canonical(obj, out: list) -> None:
    if isinstance(obj, CliResult):
        _canonical([obj.code, obj.stdout, sorted(obj.files.items())], out)
    elif isinstance(obj, np.ndarray):
        out.append(f"nd{obj.dtype}{obj.shape}".encode())
        out.append(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out.append(type(obj).__name__.encode())
        for field in dataclasses.fields(obj):
            if not callable(getattr(obj, field.name)):
                _canonical(getattr(obj, field.name), out)
    elif isinstance(obj, (list, tuple)):
        out.append(b"[")
        for item in obj:
            _canonical(item, out)
        out.append(b"]")
    elif isinstance(obj, dict):
        _canonical(sorted(obj.items()), out)
    elif isinstance(obj, bytes):
        out.append(obj)
    else:
        out.append(repr(obj).encode())


def digest(obj) -> str:
    parts: list = []
    _canonical(obj, parts)
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def numbers(obj) -> list:
    """The numbers in a result, compared against recorded reference values."""
    if isinstance(obj, CliResult):
        text = obj.stdout + b"".join(obj.files[k] for k in sorted(obj.files))
        return [float(x) for x in _NUMBER.findall(text)]
    if isinstance(obj, np.ndarray):
        flat = np.asarray(obj, dtype=float).ravel()
        if flat.size <= 64:
            return flat.tolist()
        return [float(flat.sum()), float(flat @ flat), float(flat.min()), float(flat.max())]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = []
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if not callable(value):
                out += numbers(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in numbers(item)]
    if isinstance(obj, dict):
        return [x for key in sorted(obj) for x in numbers(obj[key])]
    if isinstance(obj, (bool, int, float, np.floating, np.integer)):
        return [float(obj)]
    return []


def compare_reference(got: list, want: list, rtol: float = 1e-9, atol: float = 1e-12) -> list:
    """Agreement with recorded values, up to last-bit changes."""
    if len(got) != len(want):
        return [f"reference mismatch: {len(got)} numbers, expected {len(want)}"]
    for idx, (a, b) in enumerate(zip(got, want)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        if not abs(a - b) <= atol + rtol * max(abs(a), abs(b)):
            return [f"reference mismatch at number {idx}: {a!r} vs {b!r}"]
    return []


# ---------------------------------------------------------------------------
# shared checks


def _finite_sweep(report) -> list:
    bad = []
    if report.degenerate or report.excluded:
        bad.append(f"sweep excluded n={list(report.excluded)} (degenerate={report.degenerate})")
    if not all(math.isfinite(v) and v > 0.0 for v in report.values):
        bad.append(f"sweep has non-finite or nonpositive maxima {report.values}")
    return bad


def _close(label: str, a: float, b: float, tol: float) -> list:
    if abs(a - b) <= tol:
        return []
    return [f"{label}: {a!r} vs {b!r} (tolerance {tol:g})"]


def _premises(report) -> list:
    bad = []
    for premise in report.premises:
        if premise.name == "unpinned_statistic_stays_noisy":
            gap = abs(report.mc_variance - report.mc_variance_target)
            if not gap <= report.mc_variance_band * MC_SE / 3.0:
                bad.append(f"n={report.n}: endpoint variance {report.mc_variance!r} is more "
                           f"than {MC_SE:g} SE from {report.mc_variance_target!r}")
        elif not premise.passed:
            bad.append(f"n={report.n}: premise {premise.name} failed: {premise.witness}")
    return bad


def _second_moments(kernel, grid):
    def check(draws) -> list:
        target = gm.gram(kernel, grid)
        npaths = draws.shape[0]
        moments = draws.T @ draws / npaths
        var = np.diag(target)
        se = np.sqrt((np.outer(var, var) + target * target) / npaths)
        worst = float(np.max(np.abs(moments - target) - MC_SE * se))
        if not worst <= 1e-12:
            return [f"{kernel.name}: sample covariance is more than {MC_SE:g} SE off"]
        return []
    return check


def _bridge_variance(grid):
    def check(draws) -> list:
        bad = []
        if np.any(draws[:, 0] != 0.0) or np.any(draws[:, -1] != 0.0):
            bad.append("bridge draws are not pinned at t = 0 and t = 1")
        npaths = draws.shape[0]
        for frac in (0.25, 0.5, 0.75):
            idx = int(round(frac * (grid.size - 1)))
            var = grid[idx] * (1.0 - grid[idx])
            m2 = float(draws[:, idx] @ draws[:, idx]) / npaths
            if abs(m2 - var) > MC_SE * var * math.sqrt(2.0 / npaths):
                bad.append(f"bridge variance at t={grid[idx]:g}: {m2!r} vs {var!r}")
        return bad
    return check


# ---------------------------------------------------------------------------
# in-process workloads


def spectral(seed: int, sizes: dict, tmp: Path) -> list:
    """Few large Fourier evaluations at cell-structured points."""
    ou, slepian = gm.preset("ou", 1.0), gm.preset("slepian")
    spec = gm.ClassSpec.sobolev(1.0, 1.0)
    family = gm.class_extremal_family(spec, seed=seed)
    ns, n = sizes["spectral_ns"], sizes["spectral_n"]
    member = gm.sample_ellipsoid(spec, K=sizes["spectral_K"], seed=seed)

    def band_check(dec) -> list:
        bad = [] if dec.bound_holds else ["band splitting bound fails"]
        return bad + _close("Parseval residual", dec.parseval_residual, 0.0, 1e-10)

    def kl_check(value) -> list:
        dense = gm.kl_dense(slepian, member, n)
        return _close("kl_sequential vs kl_dense", value, dense, 1e-9 * abs(dense))

    return [
        Op("rate_sweep.discretization",
           lambda: gm.rate_sweep("discretization", ou, family, ns), _finite_sweep),
        Op("rate_sweep.transformation",
           lambda: gm.rate_sweep("transformation", ou, family, ns), _finite_sweep),
        Op("band_split_decomposition", lambda: gm.band_split_decomposition(member, n), band_check),
        Op("kl_sequential", lambda: gm.kl_sequential(slepian, member, n), kl_check),
    ]


def _projection_oracle(kernel, family):
    def check(report) -> list:
        bad = _finite_sweep(report)
        for n, value in zip(report.n_values, report.values):
            if n > 64 or not math.isfinite(value):
                continue
            dense = max(gm.projection_distance_dense(kernel, f, n) for f in family.members(n))
            bad += _close(f"projection_distance vs dense oracle at n={n}",
                          value * value / n, dense, 1e-6)
        return bad
    return check


def projection(seed: int, sizes: dict, tmp: Path) -> list:
    """Quadrature-bound: many tiny Fourier evaluations at Gauss nodes."""
    ou, slepian = gm.preset("ou", 1.0), gm.preset("slepian")
    extremal = gm.class_extremal_family(gm.ClassSpec.sobolev(1.0, 1.0), seed=seed)
    single = gm.single_frequency_family(1)
    ou_ns, sl_ns = sizes["projection_ou_ns"], sizes["projection_slepian_ns"]
    return [
        Op("rate_sweep.projection.ou",
           lambda: gm.rate_sweep("projection", ou, extremal, ou_ns),
           _projection_oracle(ou, extremal)),
        Op("rate_sweep.projection.slepian",
           lambda: gm.rate_sweep("projection", slepian, single, sl_ns),
           _projection_oracle(slepian, single)),
    ]


def paths(seed: int, sizes: dict, tmp: Path) -> list:
    """Sampling on both routes, dense factorisation, Kriging, rng, expr."""
    ou, slepian, bridge = gm.preset("ou", 1.0), gm.preset("slepian"), gm.preset("bridge")
    lab = gm.make_kernel("lab", "t", "2 - t")
    cos = gm.FourierFunction.harmonic(1)
    ops = []
    for n in sizes["indist_ns"]:
        ops.append(Op(f"indistinguishability_check.n{n}",
                      lambda n=n: gm.indistinguishability_check(
                          n, seed=seed, mc_paths=sizes["mc_paths"]),
                      _premises))
    grid11 = np.linspace(0.0, 1.0, 11)
    for kernel in (gm.preset("bm"), ou, bridge, slepian, lab):
        ops.append(Op(f"sample_paths.{kernel.name}",
                      lambda k=kernel: gm.sample_paths(k, grid11, sizes["draw_paths"], seed,
                                                       label="bench"),
                      _second_moments(kernel, grid11)))
    for m in sizes["dense_grids"]:
        grid = np.arange(m) / (m - 1)
        ops.append(Op(f"sample_paths.bridge.dense{m}",
                      lambda g=grid: gm.sample_paths(bridge, g, sizes["dense_paths"], seed,
                                                     label="bench-dense"),
                      _bridge_variance(grid)))

    def round_trip(n):
        sample = gm.simulate_e1(ou, cos, n, seed, variant="cell_averaged")
        path = gm.path_from_discrete(ou, sample, seed + 1)
        return sample, gm.reconstruct_discrete_from_path(path, n)

    def round_trip_check(result) -> list:
        sample, back = result
        scale = max(1.0, float(np.max(np.abs(sample.values))))
        gap = float(np.max(np.abs(back.values - sample.values)))
        return _close(f"round trip at n={sample.n}", gap, 0.0, 1e-10 * scale)

    def kriging_form_check(n):
        def check(path) -> list:
            krig = gm.reconstruct_discrete_from_path(path, n).values
            direct = gm.reconstruct_discrete_from_path(gm.simulate_e2(ou, cos, n, seed), n).values
            scale = max(1.0, float(np.max(np.abs(direct))))
            return _close(f"kriging form vs direct path at n={n}",
                          float(np.max(np.abs(krig - direct))), 0.0, 1e-10 * scale)
        return check

    for n in sizes["path_ns"]:
        ops.append(Op(f"round_trip.n{n}", lambda n=n: round_trip(n), round_trip_check))
        ops.append(Op(f"kriging_path_experiment.n{n}",
                      lambda n=n: gm.kriging_path_experiment(ou, cos, n, seed),
                      kriging_form_check(n)))
    n = sizes["kl_dense_n"]
    ops.append(Op(f"kl_dense.n{n}", lambda: gm.kl_dense(slepian, cos, n),
                  lambda value: _close("kl_dense vs kl_sequential", value,
                                       gm.kl_sequential(slepian, cos, n), 1e-9 * abs(value))))
    nk = sizes["kriging_dense_n"]
    y = np.asarray(cos.antiderivative(np.arange(1, nk + 1) / nk))
    grid = np.arange(20 * nk + 1) / (20 * nk)
    ops.append(Op(f"kriging_interpolate_dense.n{nk}",
                  lambda: gm.kriging_interpolate_dense(ou, y, grid),
                  lambda dense: _close("fast vs dense Kriging", float(np.max(np.abs(
                      gm.kriging_interpolate(ou, y, grid) - dense))), 0.0, 1e-8)))
    return ops


# ---------------------------------------------------------------------------
# the command line, one subprocess per invocation


LAB = '{"name": "lab", "u": "t", "v": "2 - t"}'


def cli_commands(seed: int, scale: str) -> list:
    """(metric name, argv, expected exit code) for the README examples."""
    full = scale == "full"
    return [
        ("simulate", ["simulate", "--exp", "e2", "--n", "16" if full else "4",
                      "--preset", "ou(1)", "--seed", str(seed)], 0),
        ("rates-discretization", ["rates", "--stat", "discretization", "--preset", "bm",
                                  "--n", "16..512" if full else "16..64"], 2),
        ("rates-projection", ["rates", "--stat", "projection", "--preset", "slepian",
                              "--n", "16..512" if full else "16..64"], 0),
        ("kl", ["kl", "--preset", "slepian", "--n", "2..8" if full else "2..4",
                "--format", "json"], 0),
        ("kriging", ["kriging", "--n", "32" if full else "8", "--preset", "bm",
                     "--fn", '{"coeffs": [[1, 1.0, 0.0]]}'], 0),
        ("decompose", ["decompose", "--n", "64" if full else "8", "--fn", "fn.json",
                       "--out", "terms.csv"], 0),
        ("counterexample", ["counterexample", "--n", "4,8,16,32" if full else "4,8",
                            "--paths", "100000" if full else "4000", "--seed", str(seed)], 0),
        ("validate", ["validate", "--kernel", LAB], 0),
    ]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, cwd: Path, tag: str) -> CliResult:
    """Run one process with stdout and stderr in files; per-child rusage."""
    out_path, err_path = cwd / f".{tag}.stdout", cwd / f".{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = CliResult(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), {},
                       usage.ru_maxrss / 1024.0)
    out_path.unlink()
    err_path.unlink()
    return result


def _cli_check(name: str, expected: int):
    def check(result: CliResult) -> list:
        out = result.stdout.decode("utf-8", "replace")
        if result.code != expected and name != "counterexample":
            return [f"exit code {result.code}, expected {expected}: "
                    + result.stderr.decode("utf-8", "replace")[-300:]]
        return _CLI_CHECKS[name](result, out)
    return check


def _check_simulate(result, out) -> list:
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    grid = int(re.search(r"# grid_size=(\d+)", out).group(1))
    return [] if len(rows) == grid + 1 and rows[1] == "0.0,0.0" else ["simulate rows malformed"]


def _check_rates_discretization(result, out) -> list:
    # documented red: the statistic decays like n^-1 against a n^-2 gate
    slope = float(re.search(r"slope=(-?[\d.]+)", out).group(1))
    ok = "-> FAIL" in out and abs(slope + 1.0) < 0.1
    return [] if ok else [f"discretization sweep: slope {slope} or gate line unexpected"]


def _check_rates_projection(result, out) -> list:
    return [] if "-> PASS" in out else ["projection sweep gate did not pass"]


def _check_kl(result, out) -> list:
    bad = []
    for row in json.loads(out)["rows"]:
        seq, dense = float(row["sequential"]), float(row["dense"])
        bad += _close(f"kl sequential vs dense at n={row['n']}", seq, dense, 1e-9 * abs(dense))
    return bad


def _check_kriging(result, out) -> list:
    bad = []
    for key in ("max_knot_deviation", "max_oracle_deviation"):
        value = float(re.search(rf"# {key}=(\S+)", out).group(1))
        bad += _close(key, value, 0.0, 1e-8)
    return bad


def _check_decompose(result, out) -> list:
    lines = result.files["terms.csv"].decode().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    header, bad = rows[0], []
    for row in rows[1:]:
        values = dict(zip(header, row))
        bad += _close("Parseval residual", float(values["parseval_residual"]), 0.0, 1e-10)
        if values["bound_holds"] != "True":
            bad.append(f"band splitting bound fails at n={values['n']}")
    return bad if out == "wrote terms.csv\n" else bad + ["decompose stdout unexpected"]


def _check_counterexample(result, out) -> list:
    bad = []
    for line in out.splitlines():
        if "[FAIL]" in line and "unpinned_statistic_stays_noisy" not in line:
            bad.append(line.strip())
    noisy = re.findall(r"without pinning: (\S+) \(target (\S+) \+- (\S+),", out)
    for got, target, band in noisy:
        if not abs(float(got) - float(target)) <= float(band) * MC_SE / 3.0:
            bad.append(f"endpoint variance {got} more than {MC_SE:g} SE from {target}")
    if not noisy or out.count("=> deficiency lower bound 0.25") != len(noisy):
        bad.append("counterexample report malformed")
    failed_any = "[FAIL]" in out
    if result.code != (2 if failed_any else 0):
        bad.append(f"exit code {result.code} does not match the reported premises")
    return bad


def _check_validate(result, out) -> list:
    return [] if "FAIL" not in out and out.startswith("kernel lab: grid 1001") else \
        ["lab kernel does not validate"]


_CLI_CHECKS = {
    "simulate": _check_simulate,
    "rates-discretization": _check_rates_discretization,
    "rates-projection": _check_rates_projection,
    "kl": _check_kl,
    "kriging": _check_kriging,
    "decompose": _check_decompose,
    "counterexample": _check_counterexample,
    "validate": _check_validate,
}


class CliOps:
    """Builds the CLI operations; `traced` switches the child to cli_child.py."""

    def __init__(self):
        self.traced = False

    def __call__(self, seed: int, sizes: dict, tmp: Path) -> list:
        fn = gm.sample_ellipsoid(gm.ClassSpec.sobolev(1.0, 1.0), K=128, seed=seed)
        (tmp / "fn.json").write_text(fn.to_json() + "\n", encoding="utf-8")
        ops = []
        for name, argv, expected in cli_commands(seed, sizes["cli_scale"]):
            ops.append(Op(name, lambda name=name, argv=argv: self._invoke(name, argv, tmp),
                          _cli_check(name, expected)))
        return ops

    def _invoke(self, name: str, argv: list, tmp: Path) -> CliResult:
        trace_path = tmp / f".{name}.trace.json"
        if self.traced:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(trace_path), *argv]
        else:
            cmd = [sys.executable, "-m", "gmequiv.cli", *argv]
        result = run_child(cmd, tmp, name)
        if name == "decompose":
            result.files["terms.csv"] = (tmp / "terms.csv").read_bytes()
        if self.traced:
            result.trace = json.loads(trace_path.read_text(encoding="utf-8"))
            trace_path.unlink()
        return result


WORKLOADS = {
    "spectral": spectral,
    "projection": projection,
    "paths": paths,
    "cli": CliOps(),
}
