"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Runs every workload once at --scale smoke, checks that each metric named in
BENCHMARK.json is printed with its unit, that a corrupted reference value
is counted as a failed operation, that the traced run's layer self times
are never negative and add up to the traced pass wall with little time
left outside every span, and that the benchmark refuses to run
without the package sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# spectral and projection are runnable but not in BENCHMARK.json (see README.md)
WORKLOADS = ["spectral", "projection", "paths", "cli"]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", "--scale", "smoke", "--seconds", "0",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    *_, info, last = proc.stdout.splitlines()
    return json.loads(info)["info"], json.loads(last)


def _assert_metrics(metrics, spec):
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed(workload):
    _, result = result_of(bench("--workload", workload, "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    _assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_add_up(workload):
    info, result = result_of(bench("--workload", workload, "--trace", "1"))
    assert result["correct"]
    metrics = result["metrics"]
    _assert_metrics(metrics, SPEC["per_layer"])
    self_times = [v["value"] for k, v in metrics.items() if k.endswith(".self_s")]
    assert min(self_times) >= 0.0
    other = metrics["trace.other_s"]["value"]
    assert sum(self_times) + other == pytest.approx(info["traced_wall_s"], rel=1e-9, abs=1e-9)
    if workload != "cli":
        # in process, every operation runs inside a layer span, so time left
        # outside all spans is small; wrong parent links or double counting
        # would make it negative or large
        assert 0.0 <= other <= 0.05 * info["traced_wall_s"]


def test_corrupted_reference_counts_as_failure(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    copied = tmp_path / "bench" / "reference.json"
    reference = json.loads(copied.read_text(encoding="utf-8"))
    numbers = reference["smoke"]["spectral"]["band_split_decomposition"]
    numbers[1] *= 1.0 + 1e-6
    copied.write_text(json.dumps(reference), encoding="utf-8")
    _, result = result_of(bench("--workload", "spectral", cwd=tmp_path))
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
