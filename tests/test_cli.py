"""End-to-end tests for the command line, run in-process for speed."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gmequiv.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 64
        assert "invalid choice" in err

    def test_missing_required_flag_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "rates")
        assert code == 64
        assert "--stat" in err

    def test_singular_design_is_a_runtime_error(self, capsys):
        for n in ("4", "6"):
            code, out, err = run_cli(capsys, "kl", "--preset", "bridge", "--n", n)
            assert (code, out) == (1, ""), n
            assert "singular" in err, n

    @pytest.mark.parametrize("command", ["simulate", "kriging"])
    def test_empty_design_is_a_runtime_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--n", "0")
        assert (code, out) == (1, "")
        assert "n >= 1" in err

    def test_malformed_kernel_json_is_a_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "kl", "--kernel", '{"oops":', "--n", "2")
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv, message", [
        (("counterexample", "--n", "4", "--paths", "1"), "at least 2 paths"),
        (("counterexample", "--n", "4", "--paths", "0"), "at least 2 paths"),
        (("validate", "--grid", "1"), "interior point"),
        (("validate", "--grid", "2"), "interior point"),
        (("validate", "--grid", "1000000000"), "at most 1000000 grid points"),
    ], ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
    def test_out_of_range_number_is_a_runtime_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("name", ["bm", "bridge", "slepian"])
    @pytest.mark.parametrize("flag, text", [
        ("--preset", "{name}(5)"),
        ("--kernel", '{{"preset": "{name}", "params": {{"L": 5}}}}'),
    ], ids=["preset-arg", "json-spec"])
    def test_rate_for_a_preset_without_one_is_refused(self, capsys, name, flag, text):
        code, out, err = run_cli(capsys, "simulate", "--n", "2", flag, text.format(name=name))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and f"preset {name!r} takes no rate" in err

    @pytest.mark.parametrize("flag, spec, key", [
        ("--fn", '{}', "'coeffs'"),
        ("--fn", '{"coeffs": [[1]]}', "'coeffs'"),
        ("--fn", '{"coeffs": [[1.5, 1, 0]]}', "'coeffs'"),
        ("--fn", '{"coeffs": [[1, "inf", 0]]}', "'coeffs'"),
        ("--fn", '{"coeffs": [[1, Infinity, 0]]}', "'coeffs'"),
        ("--fn", '{"coeffs": [[1, "nan", 0]]}', "'coeffs'"),
        ("--kernel", '{"u": "t"}', "'v'"),
        ("--kernel", '{"preset": "ou", "params": {"Q": 1}}', "'Q'"),
    ])
    def test_malformed_spec_names_the_bad_key(self, capsys, flag, spec, key):
        command = ("kl", "--n", "2") if flag == "--fn" else ("validate",)
        code, out, err = run_cli(capsys, *command, flag, spec)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and key in err

    def test_rate_gate_failure_exits_2(self, capsys):
        # the default discretization target is a factor of n stricter than
        # what the sweep actually measures, so the gate trips
        code, out, _ = run_cli(capsys, "rates", "--stat", "discretization",
                               "--preset", "bm", "--n", "16..128")
        assert code == 2
        assert "FAIL" in out

    def test_rate_gate_pass_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--stat", "discretization",
                               "--preset", "bm", "--n", "16..128",
                               "--target", "-1.0")
        assert code == 0
        assert "PASS" in out


class TestValidate:
    def test_bridge_flags_the_vanishing_endpoint(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--preset", "bridge")
        assert code == 0
        assert "[flag]" in out
        assert "FAIL" not in out

    def test_broken_kernel_is_reported_not_refused(self, capsys):
        spec = '{"name": "hump", "u": "t*(1 - t)", "v": "1"}'
        code, out, _ = run_cli(capsys, "validate", "--kernel", spec)
        assert code == 0
        assert "kernel hump" in out
        assert "FAIL" in out

    def test_kernel_from_file(self, capsys, tmp_path):
        path = tmp_path / "kernel.json"
        path.write_text('{"name": "lab", "u": "t", "v": "2 - t"}')
        code, out, _ = run_cli(capsys, "validate", "--kernel", str(path))
        assert code == 0
        assert "kernel lab" in out
        assert "FAIL" not in out


class TestOutputs:
    def test_csv_layout(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--exp", "increments",
                               "--n", "4", "--preset", "bm")
        assert code == 0
        lines = out.strip().split("\n")
        meta = [l for l in lines if l.startswith("# ")]
        assert meta == sorted(meta)
        body = [l for l in lines if not l.startswith("# ")]
        assert body[0] == "i,value"
        assert len(body) == 5

    def test_json_layout(self, capsys):
        code, out, _ = run_cli(capsys, "kl", "--preset", "bm", "--n", "2..4",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"meta", "rows"}
        assert payload["meta"]["kernel"] == "bm"
        assert [row["n"] for row in payload["rows"]] == [2, 4]
        # constant v: the chain formula and the dense quadratic form agree
        for row in payload["rows"]:
            assert abs(float(row["chain_minus_dense"])) <= 1e-12

    def test_out_flag_writes_a_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, "kriging", "--n", "4", "--preset", "bm",
                               "--out", str(target))
        assert code == 0
        assert out == f"wrote {target}\n"
        assert target.read_text().startswith("# ")

    def test_n_list_and_range_forms(self, capsys):
        _, out, _ = run_cli(capsys, "decompose", "--n", "4..16")
        ns = [line.split(",")[0] for line in out.strip().split("\n")
              if not line.startswith("#")][1:]
        assert ns == ["4", "8", "16"]
        _, out, _ = run_cli(capsys, "transform", "--preset", "ou(1)",
                            "--n", "8,16")
        assert "ou(L=1)" in out

    def test_fn_inline_and_file_agree(self, capsys, tmp_path):
        spec = '{"name": "two-tone", "coeffs": [[1, 0.5, 0.0], [2, 0.25, 0.0]]}'
        _, inline_out, _ = run_cli(capsys, "decompose", "--n", "8", "--fn", spec)
        path = tmp_path / "fn.json"
        path.write_text(spec)
        _, file_out, _ = run_cli(capsys, "decompose", "--n", "8", "--fn", str(path))
        assert inline_out == file_out

    def test_kernel_inline_preset_json(self, capsys):
        code, out, _ = run_cli(capsys, "kl", "--n", "2",
                               "--kernel", '{"preset": "ou", "params": {"L": 0.5}}')
        assert code == 0
        assert "# kernel=ou(L=0.5)" in out


class TestCounterexampleCommand:
    def test_reports_the_deficiency_bound(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--n", "4",
                               "--paths", "5000")
        assert code == 0
        assert "deficiency lower bound 0.25" in out
        assert "FAIL" not in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--n", "4",
                               "--paths", "2000", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        assert reports[0]["verdict"] == "premises verified"

    def test_text_report_honours_out(self, capsys, tmp_path):
        argv = ("counterexample", "--n", "4", "--paths", "2000")
        code, stdout_bytes, _ = run_cli(capsys, *argv)
        target = tmp_path / "report.txt"
        assert run_cli(capsys, *argv, "--out", str(target)) == (code, f"wrote {target}\n", "")
        assert target.read_text(encoding="utf-8") == stdout_bytes


class TestDeterminism:
    COMMANDS = (
        ("simulate", "--exp", "e2", "--n", "4", "--preset", "ou(1)", "--seed", "3"),
        ("simulate", "--exp", "e1", "--n", "8", "--preset", "slepian"),
        ("kl", "--preset", "slepian", "--n", "2..8"),
        ("decompose", "--n", "8", "--format", "json"),
        ("transform", "--preset", "ou(1)", "--n", "8,16"),
        ("kriging", "--n", "8", "--preset", "bm"),
        ("rates", "--stat", "projection", "--preset", "bm", "--n", "8..32"),
        ("counterexample", "--n", "4", "--paths", "2000", "--format", "json"),
    )

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_rerun_is_byte_identical(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second

    def test_seed_changes_the_draw(self, capsys):
        _, a, _ = run_cli(capsys, "simulate", "--exp", "e2", "--n", "4", "--seed", "0")
        _, b, _ = run_cli(capsys, "simulate", "--exp", "e2", "--n", "4", "--seed", "1")
        assert a != b


def test_readme_examples_run(capsys, monkeypatch, tmp_path):
    """Every line of the README's "Examples:" block exits as the README
    says: 0, or 2 for the discretization rate gate."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Examples:\n\n```\n(.*?)```", readme, re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines()]
    assert lines and all(argv[0] == "gmequiv" for argv in lines)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fn.json").write_text('{"name": "two-tone", "coeffs": [[1, 0.5, 0.0], [2, 0.25, 0.0]]}')
    for argv in lines:
        expected = 2 if argv[1:4] == ["rates", "--stat", "discretization"] else 0
        code, _, err = run_cli(capsys, *argv[1:])
        assert (code, err) == (expected, ""), argv


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "gmequiv.cli", "validate", "--preset", "slepian"],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0
    assert "kernel slepian" in result.stdout


def test_import_loads_no_scipy():
    """scipy is a test-only dependency and the package runs in one thread:
    importing it must load neither scipy nor concurrent.futures."""
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, gmequiv; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'scipy' or m.startswith('concurrent')))"],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"
