"""End-to-end tests for the command line, run in-process for speed."""

import argparse
import ast
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import gmequiv
from gmequiv import cli, diagnostics, rkhs
from gmequiv.cli import STATISTIC_CHOICES, main
from gmequiv.fourier import FourierFunction
from gmequiv.kernels import kernel_from_spec, preset
from gmequiv.samples import DEFAULT_GRID_DENSITY, design_knots, knot_stride, path_grid

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# 2e200 cos(2 pi x): its squares and sums of squares leave the float range
HUGE_FN = '{"coeffs": [[1, 1e200, 0]]}'


class _Reached(Exception):
    """Raised by a spied statistic: its command passed every check."""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(argv, cwd=None, **env):
    """Run a fresh interpreter with the tested package first on its path,
    no BLAS thread count but the ones given, and check its exit code."""
    source = str(Path(gmequiv.__file__).parents[1])
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    base["PYTHONPATH"] = os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *argv], cwd=cwd, env={**base, **env},
                          capture_output=True, check=True)


def _bits(value) -> bytes:
    return struct.pack("<d", value)


def _library_row(argv, n: int) -> dict:
    """The row that the table command argv prints at n, as the library
    computes it, for the default function cos(2 pi x)."""
    f = FourierFunction.harmonic(1)
    if argv[0] == "decompose":
        dec = diagnostics.band_split_decomposition(f, n)
        return {"n": n, "a_sum": dec.a_sum, "b_sum": dec.b_sum, "c_sum": dec.c_sum,
                "total_gap_sq": dec.total_gap_sq, "parseval_residual": dec.parseval_residual,
                "bound_holds": dec.bound_holds}
    kernel = kernel_from_spec(argv[2])
    if argv[0] == "transform":
        return {"n": n, "statistic": diagnostics.transformation_discrepancy(kernel, f, n)}
    chain = diagnostics.kl_chain(kernel, f, n)
    dense = diagnostics.kl_dense(kernel, f, n)
    sequential = diagnostics.kl_sequential(kernel, f, n)
    return {"n": n, "chain": chain, "dense": dense, "sequential": sequential,
            "chain_minus_dense": chain - dense, "sequential_minus_dense": sequential - dense}


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
        (("counterexample", "--n", "4", "--L", "0"), "class radius L must be positive"),
        (("counterexample", "--n", "4", "--beta", "nan"), "beta must be finite"),
        (("counterexample", "--n", "4", "--beta", "inf"), "beta must be finite"),
        (("rates", "--stat", "discretization", "--preset", "bm", "--family", "sobolev",
          "--L", "nan", "--n", "8..16"), "class parameter L must be finite"),
        (("rates", "--stat", "discretization", "--preset", "bm", "--family", "sobolev",
          "--beta", "nan", "--n", "8..16"), "class parameter beta must be finite"),
        (("rates", "--stat", "discretization", "--preset", "bm", "--family", "sobolev",
          "--beta", "inf", "--n", "8..16"), "class parameter beta must be finite"),
        (("rates", "--stat", "discretization", "--preset", "bm", "--family", "sobolev",
          "--L", "1e300", "--n", "8..64"), "class radius L = 1e+300 is too large"),
        (("rates", "--stat", "discretization", "--preset", "bm", "--family", "random",
          "--L", "1e160", "--n", "8..64"), "class radius L = 1e+160 is too large"),
        (("rates", "--stat", "discretization", "--preset", "bm", "--n", "16,16"),
         "n = 16 more than once"),
        (("rates", "--stat", "kl", "--preset", "bm", "--n", "4..16", "--target", "-1",
          "--margin", "inf"), "margin must be finite and nonnegative"),
        (("rates", "--stat", "kl", "--preset", "bm", "--n", "4..16", "--target", "-1",
          "--margin", "-1"), "margin must be finite and nonnegative"),
        (("rates", "--stat", "kl", "--preset", "bm", "--n", "4..16", "--target", "-1",
          "--margin", "nan"), "margin must be finite and nonnegative"),
        (("rates", "--stat", "kl", "--preset", "bm", "--n", "4..16", "--target", "nan"),
         "target must be finite"),
        (("rates", "--stat", "kl", "--preset", "bm", "--n", "4..16", "--target", "inf"),
         "target must be finite"),
        (("validate", "--preset", "ou(nan)"), "L = nan"),
        (("validate", "--preset", "ou(inf)"), "L = inf"),
        (("validate", "--preset", "ou(0)"), "L = 0"),
        (("kl", "--kernel", '{"preset": "ou", "params": {"L": NaN}}', "--n", "2"), "L = nan"),
        (("kl", "--kernel", '{"preset": "ou", "params": {"L": Infinity}}', "--n", "2"),
         "L = inf"),
        (("validate", "--preset", "ou(352)"), "L = 352.0"),
        (("validate", "--preset", "ou(1e3)"), "L = 1000.0"),
        (("kl", "--kernel", '{"preset": "ou", "params": {"L": 352}}', "--n", "2"), "L = 352"),
        (("kl", "--kernel", '{"preset": "ou", "L": 5}', "--n", "2"), "does not read 'L'"),
        (("kl", "--kernel", '{"preset": "bm", "u": "t*t", "v": "1"}', "--n", "2"),
         "does not read 'u', 'v'"),
        (("kl", "--kernel", '{"name": "x", "u": "t", "v": "2 - t", "preset": "bm"}',
          "--n", "2"), "does not read 'name', 'u', 'v'"),
        (("kl", "--kernel", '{"preset": "ou", "params": {"L": true}}', "--n", "2"),
         "'params' takes only a real number 'L'"),
        (("kl", "--fn", '{"coeffs": [[1, 1.0, 0.0]], "nme": "x"}', "--n", "2"),
         "does not read 'nme'"),
        (("kl", "--fn", '{"name": 5, "coeffs": [[1, 1.0, 0.0]]}', "--n", "2"),
         "'name' needs text, got 5"),
        (("rates", "--stat", "discretization", "--family", "single-freq", "--k", "1048577",
          "--n", "8,16"), "k = 1048577 is above MAX_FREQUENCY = 1048576"),
        (("kl", "--preset", "slepian", "--n", "2..65536"),
         "n up to MAX_DENSE_KL_N = 4096, got n = 65536"),
        (("decompose", "--n", "16,4097"), "n up to MAX_PARSEVAL_N = 4096, got n = 4097"),
        (("rates", "--stat", "band_terms", "--n", "16..8192"),
         "n up to MAX_PARSEVAL_N = 4096, got n = 8192"),
        (("rates", "--stat", "discretization", "--family", "sobolev", "--n", "16..1048576"),
         "n up to MAX_FAMILY_N = 524288, got n = 1048576"),
        (("rates", "--stat", "kl", "--family", "random", "--n", "524289"),
         "n up to MAX_FAMILY_N = 524288, got n = 524289"),
        (("kl", "--preset", "slepian", "--n", ","), "--n ',' is not an n"),
        (("kl", "--n", "4,,8"), "--n '4,,8' is not an n"),
        (("decompose", "--n", ","), "--n ',' is not an n"),
        (("rates", "--stat", "kl", "--preset", "bm", "--n", ","), "--n ',' is not an n"),
        (("kl", "--n", "16.."), "--n '16..' is not an n"),
        (("kl", "--n", "..16"), "--n '..16' is not an n"),
        (("kl", "--n", "4,x"), "--n '4,x' is not an n"),
        (("kl", "--n", "4.5"), "--n '4.5' is not an n"),
        (("kl", "--n", "16..8"), "--n '16..8' is not an n"),
        (("kl", "--n", "0..4"), "--n '0..4' is not an n"),
        (("kl", "--n", "4,0"), "--n '4,0' is not an n"),
        (("validate", "--kernel", "missing.json"), "No such file or directory: 'missing.json'"),
        (("validate", "--kernel", ""), "unknown preset ''"),
        (("validate", "--preset", ""), "unknown preset ''"),
        (("decompose", "--n", "4", "--fn", ""), "No such file or directory: ''"),
        (("kriging", "--n", "4", "--fn", ""), "No such file or directory: ''"),
        (("decompose", "--n", "4", "--fn", "[1]"), "function spec must be a JSON object, got [1]"),
        (("decompose", "--n", "4", "--fn", '"x"'), "function spec must be a JSON object, got 'x'"),
        (("decompose", "--n", "4", "--fn", "missing.json"),
         "No such file or directory: 'missing.json'"),
        (("decompose", "--n", "4", "--fn", '{"coeffs": '), "Expecting value"),
        (("simulate", "--exp", "e2", "--n", "100000000000", "--preset", "bm"),
         "at most MAX_GRID_POINTS = 16777216 points, got 2000000000001"),
        (("simulate", "--exp", "e1", "--n", "16777216"),
         "at most MAX_GRID_POINTS = 16777216 points, got 16777217"),
        (("kriging", "--n", "838861"), "at most MAX_GRID_POINTS = 16777216 points, got 16777221"),
        (("transform", "--n", "100000000000"),
         "at most MAX_GRID_POINTS = 16777216 points, got 100000000001"),
        (("decompose", "--n", "100000000000"),
         "at most MAX_GRID_POINTS = 16777216 points, got 100000000001"),
        (("counterexample", "--n", "100000000000"),
         "k = 100000000000 is above MAX_FREQUENCY = 1048576"),
        (("counterexample", "--n", "4,2000000"), "k = 2000000 is above MAX_FREQUENCY = 1048576"),
    ], ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
    def test_out_of_range_number_is_a_runtime_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("line", [
        "rates --stat discretization --preset bm --family sobolev --L 1e300 --n 8..64",
        "rates --stat discretization --preset bm --family random --L 1e160 --n 8..64",
        f"kl --preset slepian --n 4 --fn '{HUGE_FN}'",
        f"transform --n 4 --preset bm --fn '{HUGE_FN}'",
        "rates --stat discretization --preset ou --family sobolev --L 1e154 --n 8..16",
        "rates --stat kl --preset ou --family sobolev --L 1e154 --n 8..16",
        "rates --stat transformation --preset ou --family sobolev --L 1e154 --n 8..16",
        f"decompose --n 4 --fn '{HUGE_FN}'",
        "validate --grid 1000000000",
        "kl --n 8192",
        "decompose --n 4096,4097",
        "rates --stat band_terms --preset bm --n 4096,8192",
        "rates --stat discretization --preset bm --family sobolev --n 1048576",
        "counterexample --paths 1",
        "kl --n ,",
        "simulate --exp e2 --n 100000000000 --preset bm",
        "kriging --n 100000000000",
        "kriging --n 4 --fn '{\"coeffs\": [[1, 1e308, 0]]}'",
        "transform --n 100000000000",
        "decompose --n 100000000000",
        "counterexample --n 100000000000",
        "decompose --n 1048576,100000000000",
        "transform --n 1048576,100000000000",
        "rates --stat discretization --preset bm --n 1048576,100000000000",
        "decompose --n 4096,0",
        "counterexample --n 64,1",
        "counterexample --n 4,1048576",
        "transform --n 4,16777215",
        "rates --stat transformation --preset bm --n 4,16777215",
    ])
    def test_no_extreme_command_line_raises(self, capsys, line):
        """Values and sizes past what the package computes end in a result
        (inf or nan where a value leaves the float range) or in one error
        line, never in an exception or a numpy warning, which the test
        configuration turns into an error. No line allocates more than
        1 MiB at its peak (at most 0.11 MiB measured), so a size is refused
        before its arrays are built, and a list's largest n before its first
        n runs; the first run loads the modules."""
        argv = shlex.split(line)
        main(argv)
        capsys.readouterr()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code, _, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2**20
        if code == 0:
            assert err == ""
        else:
            assert code == 1 and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, spied, edge", [
        (("kl",), "kl_chain", 999),
        (("decompose",), "band_split_decomposition", 999),
        (("transform",), "transformation_discrepancy", 998),
        (("counterexample", "--paths", "2"), "indistinguishability_check", 49),
        *[(("rates", "--stat", stat), stat, 998 if stat == "transformation" else 999)
          for stat in STATISTIC_CHOICES],
    ], ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
    def test_an_n_list_past_the_grid_limit_runs_no_n(self, capsys, monkeypatch, argv, spied,
                                                     edge):
        """With MAX_GRID_POINTS at 1000, a list whose largest n is the edge
        reaches the statistic, and one more refuses the whole list before
        n = 4 runs: the check covers every grid the statistic builds (the
        transform's design_knots(n + 1) has n + 2 points, the counterexample's
        default path grid 20 n + 1)."""
        from gmequiv import counterexample, diagnostics, samples

        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise _Reached

        monkeypatch.setattr(samples, "MAX_GRID_POINTS", 1000)
        if argv[0] == "rates":
            monkeypatch.setitem(diagnostics.STATISTICS, spied, spy)
        else:
            module = counterexample if argv[0] == "counterexample" else diagnostics
            monkeypatch.setattr(module, spied, spy)
        code, out, err = run_cli(capsys, *argv, "--n", f"4,{edge + 1}")
        assert (code, out, calls) == (1, "", [])
        assert "at most MAX_GRID_POINTS = 1000 points, got 1001" in err
        with pytest.raises(_Reached):
            main([*argv, "--n", f"4,{edge}"])
        assert len(calls) == 1

    @pytest.mark.parametrize("stat, shown", [
        ("discretization", ("  n=8      max=inf (excluded)", "  n=16     max=inf (excluded)")),
        ("transformation", ("  n=8      max=inf (excluded)",)),
    ])
    def test_an_overflowed_member_shows_in_the_maximum(self, capsys, stat, shown):
        """At L = 1e154 the member extremal-k4 overflows to inf on ou: the
        maximum is inf and the n is excluded, not a smaller finite value."""
        code, out, err = run_cli(capsys, "rates", "--stat", stat, "--preset", "ou",
                                 "--family", "sobolev", "--L", "1e154", "--n", "8..16")
        assert (code, err) == (0, "")
        for line in shown:
            assert line in out.splitlines()

    def test_two_usable_points_are_fitted(self, capsys):
        code, out, err = run_cli(capsys, "rates", "--stat", "discretization", "--preset", "bm",
                                 "--family", "sobolev", "--n", "8..16")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "  fit over n in [8, 16]: slope=-0.6960 (stderr n/a)"

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
        ("--fn", '{"coeffs": [[1e19, 1, 0]]}', "'coeffs'"),
        ("--fn", '{"coeffs": [[1048577, 1, 0]]}', "'coeffs'"),
        ("--fn", '{"coeffs": [[true, 1, 0]]}', "'coeffs'"),
        ("--fn", '{"coeffs": [[1, 1, false]]}', "'coeffs'"),
        ("--fn", '{"coeffs": [["2", "0.5", "0"]]}', "'coeffs'"),
        ("--fn", '{"coeffs": [[1, 1, 0], [1, 2, 0]]}', "'coeffs'"),
        pytest.param("--fn", '{"coeffs": [[1' + "0" * 400 + ', 1, 0]]}', "'coeffs'",
                     id="--fn-k-past-the-float-range"),
        ("--kernel", '{"u": "t"}', "'v'"),
        ("--kernel", '{"preset": "ou", "params": {"Q": 1}}', "'Q'"),
        ("--kernel", '{"preset": "ou", "params": {"L": "1"}}', "'params'"),
        ("--kernel", '{"preset": "ou", "params": [1]}', "'params'"),
        ("--kernel", '{"preset": "bm", "name": "x"}', "does not read 'name'"),
        ("--kernel", '{"u": "t", "v": "1", "L": 1}', "does not read 'L'"),
        ("--kernel", '{"name": null, "u": "t", "v": "1"}', "not text: 'name'"),
        ("--kernel", '{"name": "x", "u": "t", "v": 2}', "not text: 'v'"),
        ("--kernel", '{"name": "a\\nb", "u": "t", "v": "1"}', "'name' must be one line"),
        ("--kernel", '{"name": "a\\u2028b", "u": "t", "v": "1"}', "'name' must be one line"),
        ("--fn", '{"name": "a\\r\\nb", "coeffs": [[1, 1.0, 0.0]]}', "'name' must be one line"),
        ("--fn", '{"name": "a\\u0085", "coeffs": [[1, 1.0, 0.0]]}', "'name' must be one line"),
        ("--kernel", "[1]", "kernel spec must be a JSON object, got [1]"),
        ("--kernel", '"bm"', "kernel spec must be a JSON object, got 'bm'"),
        ("--kernel", "1", "kernel spec must be a JSON object, got 1"),
    ])
    def test_malformed_spec_names_the_bad_key(self, capsys, flag, spec, key):
        command = ("kl", "--n", "2") if flag == "--fn" else ("validate",)
        code, out, err = run_cli(capsys, *command, flag, spec)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("argv", [
        ("kl",), ("kriging", "--n", "4"), ("decompose",), ("transform",), ("validate",),
    ], ids=lambda a: a[0])
    def test_seed_is_refused_where_nothing_is_drawn(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", "1")
        assert (code, out) == (64, "")
        assert "unrecognized arguments: --seed 1" in err

    @pytest.mark.parametrize("family, flags, named", [
        ("single-freq", ("--seed", "7"), "--seed"),
        ("single-freq", ("--beta", "2"), "--beta"),
        ("single-freq", ("--L", "2", "--seed", "1"), "--L, --seed"),
        ("sobolev", ("--k", "2"), "--k"),
        ("random", ("--k", "2"), "--k"),
    ])
    def test_rates_refuses_a_flag_its_family_ignores(self, capsys, family, flags, named):
        code, out, err = run_cli(capsys, "rates", "--stat", "kl", "--preset", "bm",
                                 "--n", "8..16", "--family", family, *flags)
        assert (code, out) == (64, "")
        assert err.startswith("usage: gmequiv rates [-h]")
        assert err.splitlines()[-1] == (f"gmequiv rates: error: --family {family} "
                                        f"does not read {named}")

    def test_rates_flags_the_family_reads_keep_their_defaults(self, capsys):
        argv = ("rates", "--stat", "kl", "--preset", "bm", "--n", "8..16", "--family", "sobolev")
        explicit = run_cli(capsys, *argv, "--beta", "1", "--L", "1", "--seed", "0")
        assert explicit == run_cli(capsys, *argv)
        assert explicit[0] == 0
        single = ("rates", "--stat", "kl", "--preset", "bm", "--n", "8..16")
        assert run_cli(capsys, *single, "--k", "1") == run_cli(capsys, *single)

    @pytest.mark.parametrize("exp, flags, named", [
        ("e1", ("--grid-density", "7"), "--grid-density"),
        ("e1prime", ("--grid-density", "10"), "--grid-density"),
        ("increments", ("--grid-density", "7"), "--grid-density"),
        ("increments", ("--fn", '{"coeffs": [[2, 5.0, 0.0]]}'), "--fn"),
        ("increments", ("--grid-density", "7", "--fn", '{"coeffs": [[1, 1, 0]]}'),
         "--fn, --grid-density"),
    ])
    def test_simulate_refuses_a_flag_its_experiment_ignores(self, capsys, exp, flags, named):
        code, out, err = run_cli(capsys, "simulate", "--exp", exp, "--n", "3", *flags)
        assert (code, out) == (64, "")
        assert err.startswith("usage: gmequiv simulate [-h]")
        assert err.splitlines()[-1] == (f"gmequiv simulate: error: --exp {exp} "
                                        f"does not read {named}")

    def test_simulate_flags_the_experiment_reads_keep_their_defaults(self, capsys):
        """Passed at their defaults, the flags each experiment reads give
        the bytes they give left out, and the meta names the function only
        where the experiment draws one."""
        cos = FourierFunction.harmonic(1).to_json()
        density = ("--grid-density", str(DEFAULT_GRID_DENSITY))
        for exp, flags in (("e1", ("--fn", cos)), ("e1prime", ("--fn", cos)),
                           ("e2", ("--fn", cos, *density)),
                           ("kriging-path", ("--fn", cos, *density)), ("increments", ())):
            argv = ("simulate", "--exp", exp, "--n", "3", "--preset", "ou(1)")
            explicit = run_cli(capsys, *argv, *flags)
            assert explicit == run_cli(capsys, *argv), exp
            assert explicit[0] == 0, exp
            assert ("# fn=cos1\n" in explicit[1]) == ("--fn" in flags), exp

    @pytest.mark.parametrize("command", ["simulate", "rates", "kriging", "kl", "transform",
                                         "validate"])
    def test_preset_and_kernel_are_exclusive(self, capsys, command):
        argv = {"simulate": ("--n", "2"), "rates": ("--stat", "kl", "--n", "8"),
                "kriging": ("--n", "2"), "kl": ("--n", "2"), "transform": ("--n", "8"),
                "validate": ()}[command]
        code, out, err = run_cli(capsys, command, *argv, "--preset", "bridge",
                                 "--kernel", '{"preset": "bm"}')
        assert (code, out) == (64, "")
        assert "argument --kernel: not allowed with argument --preset" in err

    def test_rate_gate_failure_exits_2(self, capsys):
        # the default discretization target is a factor of n stricter than
        # what the sweep actually measures, so the gate trips
        code, out, _ = run_cli(capsys, "rates", "--stat", "discretization",
                               "--preset", "bm", "--n", "16..128")
        assert code == 2
        assert "FAIL" in out

    @pytest.mark.parametrize("family", ["sobolev", "random"])
    def test_large_beta_sweeps_run(self, capsys, family):
        """At beta = 60 every member's norm is finite, though the squared
        norm of an extremal harmonic (about 1e361 at k = 1024) is not."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "rates", "--stat", "discretization",
                                     "--preset", "bm", "--family", family, "--beta", "60",
                                     "--n", "256,512")
        assert (code, err) == (0, "")
        assert re.search(r"n=512 +max=[0-9.e+-]+\n", out)

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

    @pytest.mark.parametrize("argv", [
        ("kl", "--preset", "slepian", "--n", "2..8"),
        ("decompose", "--n", "4..16"),
        ("transform", "--preset", "ou(1)", "--n", "8,16"),
    ])
    def test_table_values_are_the_library_numbers(self, capsys, argv):
        """A JSON row holds numbers, never text; each is float() of its CSV
        cell, and the value the library returns, bit for bit."""
        code, csv_out, _ = run_cli(capsys, *argv)
        assert code == 0
        header, *cells = [line.split(",") for line in csv_out.splitlines()
                          if not line.startswith("# ")]
        code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        rows = json.loads(json_out)["rows"]
        assert len(rows) == len(cells)
        for row, cell in zip(rows, cells):
            assert sorted(row) == sorted(header)
            expected = _library_row(argv, row["n"])
            for column, text in zip(header, cell):
                value = row[column]
                assert type(value) in (int, float, bool), (column, value)
                if type(value) is bool:
                    assert text == str(value)
                else:
                    assert _bits(value) == _bits(float(text)), (column, text)
                assert _bits(value) == _bits(expected[column]), column

    def test_kriging_deviations_are_numbers(self, capsys):
        code, csv_out, _ = run_cli(capsys, "kriging", "--n", "8")
        assert code == 0
        code, json_out, _ = run_cli(capsys, "kriging", "--n", "8", "--format", "json")
        assert code == 0
        meta = json.loads(json_out)["meta"]
        csv_meta = dict(line[2:].split("=", 1) for line in csv_out.splitlines()
                        if line.startswith("# "))
        n, bm = 8, preset("bm")
        grid = path_grid(n, DEFAULT_GRID_DENSITY * n + 1)
        y = np.asarray(FourierFunction.harmonic(1).antiderivative(design_knots(n)))
        fast = rkhs.kriging_interpolate(bm, y, grid)
        dense = rkhs.kriging_interpolate_dense(bm, y, grid)
        stride = knot_stride(n, grid.size)
        expected = {"max_knot_deviation": np.max(np.abs(fast[stride::stride] - y)),
                    "max_oracle_deviation": np.max(np.abs(fast - dense))}
        for key, library in expected.items():
            assert type(meta[key]) is float, key
            assert _bits(meta[key]) == _bits(float(csv_meta[key])), key
            assert _bits(meta[key]) == _bits(library), key

    def test_dense_oracle_solves_data_near_the_float_maximum(self, capsys):
        """A 1e308 coefficient puts the knot values near the largest float:
        the dense oracle solves in units of its data, so every oracle cell
        is finite and it meets the O(n) Kriging to rounding."""
        code, out, err = run_cli(capsys, "kriging", "--n", "4", "--fn",
                                 '{"coeffs": [[1, 1e308, 0]]}')
        assert (code, err) == (0, "")
        meta = dict(line[2:].split("=", 1) for line in out.splitlines() if line.startswith("# "))
        rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]
        interpolant = np.array([float(row[1]) for row in rows])
        oracle = np.array([float(row[2]) for row in rows])
        assert np.all(np.isfinite(oracle))
        assert float(meta["max_oracle_deviation"]) <= 1e-12 * np.max(np.abs(interpolant))

    def test_json_writes_non_finite_values_as_null(self, capsys):
        """A 1e300 coefficient makes a_sum and total_gap_sq inf and the
        Parseval residual nan: CSV keeps them, strict JSON writes null."""
        argv = ("decompose", "--n", "4", "--fn", '{"coeffs": [[1, 1e300, 0]]}')
        code, csv_out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert csv_out.splitlines()[-1] == "4,inf,0.0,0.0,inf,nan,False"
        code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0

        def refuse(name):
            raise ValueError(f"{name} is not strict JSON")

        (row,) = json.loads(json_out, parse_constant=refuse)["rows"]
        assert row["a_sum"] is row["total_gap_sq"] is row["parseval_residual"] is None
        assert (row["n"], row["b_sum"], row["c_sum"], row["bound_holds"]) == (4, 0.0, 0.0, False)

    def test_json_meta_writes_non_finite_values_as_null(self, capsys):
        meta = {"finite": 0.5, "inf": float("inf"), "minus_inf": -float("inf"),
                "nan": float("nan"), "text": "nan"}
        args = argparse.Namespace(format="json", out=None)
        cli._emit(("x",), [(float("-inf"),)], meta, args)
        document = json.loads(capsys.readouterr().out, parse_constant=float)
        assert document == {"meta": {"finite": 0.5, "inf": None, "minus_inf": None,
                                     "nan": None, "text": "nan"},
                            "rows": [{"x": None}]}

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

    def test_overflowing_sums_do_not_pass_the_bound(self, capsys):
        """f = 2e308 cos(2 pi x) is beyond float range: its sums of squares
        read inf, with no warning, and the bound is not reported as holding."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "decompose", "--n", "4", "--fn",
                                     '{"coeffs": [[1, 1e308, 0], [-1, 1e308, 0]]}')
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "4,inf,0.0,0.0,inf,nan,False"

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

    def test_no_bound_when_a_premise_it_rests_on_fails(self, capsys):
        # at beta = 1000 the spike's height c underflows to 0
        code, out, _ = run_cli(capsys, "counterexample", "--n", "4", "--beta", "1000",
                               "--paths", "1000")
        assert code == 2
        assert "[FAIL] integrals_differ" in out
        assert "deficiency lower bound" not in out
        assert out.splitlines()[-1] == (
            "  => no deficiency bound: premise failed: integrals_differ")

    @pytest.mark.parametrize("n, beta", [("2", "1.5"), ("4", "2.5"), ("4", "-1")])
    def test_spike_inside_its_ball_at_every_beta(self, capsys, n, beta):
        code, out, _ = run_cli(capsys, "counterexample", "--n", n, "--beta", beta,
                               "--paths", "1000")
        assert code == 0
        assert out.splitlines()[-1] == "  => deficiency lower bound 0.25"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--n", "4",
                               "--paths", "2000", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        assert reports[0]["verdict"] == "premises verified"

    def test_text_is_the_default_format(self, capsys):
        argv = ("counterexample", "--n", "4", "--paths", "2000")
        assert run_cli(capsys, *argv, "--format", "text") == run_cli(capsys, *argv)

    def test_csv_format_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "counterexample", "--n", "4", "--format", "csv")
        assert (code, out) == (64, "")
        assert "invalid choice: 'csv'" in err

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

    def test_blas_thread_count_does_not_change_the_output(self, tmp_path):
        (tmp_path / "fn.json").write_text('{"coeffs": [[1, 0.5, 0.0], [2, 0.25, 0.0]]}')
        commands = (
            ("kl", "--preset", "slepian", "--n", "2..64", "--format", "json"),
            ("kl", "--preset", "slepian", "--n", "256,1024"),
            ("decompose", "--n", "64", "--fn", "fn.json", "--out", "terms.csv"),
        )
        runs = []
        for threads in ("1", "2"):
            outputs = [run_fresh(["-m", "gmequiv.cli", *argv], cwd=tmp_path,
                                 OPENBLAS_NUM_THREADS=threads).stdout for argv in commands]
            outputs.append((tmp_path / "terms.csv").read_bytes())
            (tmp_path / "terms.csv").unlink()
            runs.append(outputs)
        assert runs[0] == runs[1]
        assert all(runs[0])

    def test_dense_oracles_do_not_depend_on_the_blas_thread_count(self):
        """A library process, which keeps its BLAS threads, gets the same
        bytes from kl_dense (slepian, n = 1024) and kriging_interpolate_dense
        (ou(1), n = 256, 5121 points) under one and two OpenBLAS threads."""
        code = (
            "import hashlib, numpy as np\n"
            "from gmequiv import FourierFunction, kl_dense, kriging_interpolate_dense, preset\n"
            "cos = FourierFunction.harmonic(1)\n"
            "y = np.asarray(cos.antiderivative(np.arange(1, 257) / 256))\n"
            "dense = kriging_interpolate_dense(preset('ou', 1.0), y, np.arange(5121) / 5120)\n"
            "print(kl_dense(preset('slepian'), cos, 1024).hex(), dense.size,\n"
            "      hashlib.sha256(dense.tobytes()).hexdigest())\n"
        )
        runs = [run_fresh(["-c", code], OPENBLAS_NUM_THREADS=threads).stdout
                for threads in ("1", "2")]
        assert runs[0] == runs[1]
        assert b" 5121 " in runs[0]


class TestBlasThreads:
    """A command-line process runs OpenBLAS on one thread unless its user
    chose a thread count; a process that loaded numpy first, or imports
    only the package, keeps its BLAS setting. Each case is a fresh
    interpreter."""

    @staticmethod
    def environ_after(code, **env):
        """The BLAS thread variables after `code` runs, None where unset."""
        report = f"; import json, os; print(json.dumps([os.environ.get(k) for k in {BLAS_THREADS}]))"
        return json.loads(run_fresh(["-c", code + report], **env).stdout)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_command_line_process_runs_one_thread(self):
        result = run_fresh(["-c", "import os, gmequiv.cli; print(len(os.listdir('/proc/self/task')))"])
        assert result.stdout.strip() == b"1"

    @pytest.mark.parametrize("name", BLAS_THREADS)
    def test_a_user_thread_count_is_kept(self, name):
        expected = ["2" if k == name else None for k in BLAS_THREADS]
        assert self.environ_after("import gmequiv.cli", **{name: "2"}) == expected

    def test_numpy_loaded_first_is_left_alone(self):
        assert self.environ_after("import numpy, gmequiv.cli") == [None, None]

    def test_bare_import_sets_nothing(self):
        assert self.environ_after("import gmequiv") == [None, None]


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
    importing it must load neither scipy nor concurrent.futures. The
    package exports load lazily, so every one is resolved first."""
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, gmequiv, gmequiv.cli; [getattr(gmequiv, n) for n in gmequiv.__all__];"
         " print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'scipy' or m.startswith('concurrent')))"],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_every_definition_has_a_reader_outside_the_tests():
    """Every function, class, method, dataclass field and module-level
    constant defined under src/gmequiv is read by name somewhere in the
    package or in bench/: code that only the tests read is not kept. An
    assignment is not a read, so a constant cannot outlive its last reader,
    and a method or a field is read only as an attribute, so a local
    variable or a keyword argument of the same name does not keep it."""
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "gmequiv"
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    defined, members, read, attributes = set(), set(), set(), set()
    for path in sources + sorted((root / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent == package:
            for stmt in tree.body:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    defined.update(node.id for target in targets for node in ast.walk(target)
                                   if isinstance(node, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                read.update(node.name.split("."))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path.parent == package:
                defined.add(node.name)
                if isinstance(node, ast.ClassDef):
                    members.update(stmt.name for stmt in node.body
                                   if isinstance(stmt, ast.FunctionDef))
                    if any(_is_dataclass_decorator(d) for d in node.decorator_list):
                        members.update(stmt.target.id for stmt in node.body
                                       if isinstance(stmt, ast.AnnAssign)
                                       and isinstance(stmt.target, ast.Name))
    unread = (defined - members - read - attributes) | (members - attributes)
    # rkhs_norm is the RKHS isometry that ROADMAP item 7 reads; ClassSpec.hoelder
    # builds the Hoelder class that ROADMAP item 12's command-line reader takes
    unread = sorted(name for name in unread - {"rkhs_norm", "hoelder"}
                    if not (name.startswith("__") and name.endswith("__")))
    assert unread == []


def _is_dataclass_decorator(node: ast.expr) -> bool:
    """@dataclass, @dataclass(...) and their dataclasses.-qualified forms."""
    target = node.func if isinstance(node, ast.Call) else node
    return (target.id if isinstance(target, ast.Name)
            else getattr(target, "attr", None)) == "dataclass"
