"""What each entry point imports: the lazy package exports, and the modules
every benchmark command line loads, counted rather than timed."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gmequiv
from gmequiv import cli, diagnostics

ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "bench"))
try:
    import workloads
finally:
    sys.path.remove(str(ROOT / "bench"))

COMMANDS = {name: (argv, code) for name, argv, code in workloads.cli_commands(0, "smoke")}

# the names `gmequiv` exports, by the submodule that defines each
EXPORTS = {
    "counterexample": ("DecisionProblem", "IndistinguishabilityReport", "build_fn",
                       "endpoint_increment", "indistinguishability_check"),
    "diagnostics": ("BandDecomposition", "FunctionFamily", "RateReport",
                    "band_split_decomposition", "band_terms_statistic",
                    "class_extremal_family", "discretization_statistic", "fixed_family",
                    "kl_chain", "kl_dense", "kl_sequential", "projection_statistic",
                    "random_family", "rate_sweep", "single_frequency_family",
                    "transformation_discrepancy"),
    "errors": ("AssumptionViolation", "DegenerateCell", "EvaluationError",
               "ExpressionSyntaxError", "GmequivError", "GridMismatch",
               "GridMissingEndpoints", "HermitianViolation", "KernelDegenerate",
               "QuadratureFailure", "SingularCovariance", "UnknownIdentifier"),
    "experiments": ("kriging_path_experiment", "path_from_discrete",
                    "reconstruct_discrete_from_path", "simulate_e1", "simulate_e2",
                    "simulate_increments"),
    "expr": ("KernelExpression", "parse_kernel_expression"),
    "fourier": ("ClassSpec", "FourierFunction", "function_from_spec", "sample_ellipsoid"),
    "kernels": ("GaussMarkovKernel", "ValidationReport", "covariance", "gram",
                "kernel_from_spec", "make_kernel", "preset", "validate_assumption"),
    "rkhs": ("kriging_interpolate", "kriging_interpolate_dense", "projection_distance",
             "projection_distance_dense", "rkhs_norm"),
    "samples": ("DiscreteSample", "PathSample"),
    "sampling": ("sample_paths",),
}

# what each command line loads besides gmequiv and gmequiv.cli
# the RKHS layer draws nothing, so it loads no sampling
_RKHS = {"errors", "fourier", "kernels", "rkhs", "rng", "samples"}
_NUMERICAL = _RKHS | {"sampling"}
# diagnostics without the RKHS layer, which only two statistics read
_DIAGNOSTICS = {"diagnostics", "errors", "fourier", "kernels", "rng", "samples"}
LOADED = {
    "simulate": _NUMERICAL | {"experiments"},
    "rates-discretization": _DIAGNOSTICS,
    "rates-projection": _RKHS | {"diagnostics", "numpy.polynomial"},
    "kl": _DIAGNOSTICS,
    "kriging": _RKHS,
    "decompose": _DIAGNOSTICS,
    "counterexample": _NUMERICAL | {"counterexample", "experiments"},
    "validate": {"errors", "expr", "kernels", "samples"},
}

_REPORT = (
    "import json, sys\n"
    "{run}\n"
    "sys.stdout.flush()\n"
    "sys.stderr.write(json.dumps(sorted(m for m in sys.modules"
    " if m.startswith('gmequiv') or m in ('numpy.ma', 'numpy.polynomial'))))\n"
)


def _loaded_modules(code: str, *argv: str, cwd=None) -> set:
    """Modules (gmequiv. prefix dropped) that a fresh interpreter has loaded
    after running `code` with argv; it fails the test if `code` raises."""
    # the child runs elsewhere: put the tested package first on its path
    source = str(Path(gmequiv.__file__).parents[1])
    path = os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _REPORT.format(run=code), *argv],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    names = json.loads(proc.stderr.splitlines()[-1])
    return {name.removeprefix("gmequiv.") for name in names}


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Loaded modules of every benchmark command line, each run at smoke
    scale in its own interpreter and held to its expected exit code."""
    cwd = tmp_path_factory.mktemp("cli")
    (cwd / "fn.json").write_text('{"name": "two-tone", "coeffs": [[1, 0.5, 0.0], [2, 0.25, 0.0]]}')
    run = "from gmequiv.cli import main\ncode = main(sys.argv[1:])"
    out = {}
    for name, (argv, expected) in COMMANDS.items():
        modules = _loaded_modules(run + f"\nassert code == {expected}, code", *argv, cwd=cwd)
        out[name] = modules - {"gmequiv", "cli"}
    return out


@pytest.mark.parametrize("name", sorted(LOADED))
def test_each_command_loads_only_what_it_runs(loaded, name):
    assert loaded[name] == LOADED[name]


def test_every_benchmark_command_is_covered():
    assert set(COMMANDS) == set(LOADED)


def test_validate_loads_no_numerical_layer(loaded):
    layers = {"fourier", "rkhs", "sampling", "diagnostics", "experiments", "counterexample"}
    assert loaded["validate"].isdisjoint(layers)


def test_preset_only_commands_do_not_parse_expressions(loaded):
    preset_only = [name for name, (argv, _) in COMMANDS.items() if "--kernel" not in argv]
    assert len(preset_only) == 7
    for name in preset_only:
        assert "expr" not in loaded[name], name


def test_only_the_projection_statistic_loads_numpy_polynomial(loaded):
    assert [name for name in COMMANDS if "numpy.polynomial" in loaded[name]] == ["rates-projection"]


def test_no_command_loads_numpy_ma(loaded):
    assert [name for name in COMMANDS if "numpy.ma" in loaded[name]] == []


def test_bare_import_loads_no_submodule():
    assert _loaded_modules("import gmequiv") == {"gmequiv"}


class TestLazyExports:
    def test_all_lists_every_export(self):
        assert gmequiv.__all__ == sorted(name for names in EXPORTS.values() for name in names)

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_export_is_the_submodule_object(self, module):
        source = importlib.import_module(f"gmequiv.{module}")
        for name in EXPORTS[module]:
            assert getattr(gmequiv, name) is getattr(source, name), name

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gmequiv.no_such_name  # noqa: B018

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from gmequiv import *", namespace)
        assert set(gmequiv.__all__) <= set(namespace)

    def test_dir_lists_every_export(self):
        assert set(gmequiv.__all__) <= set(dir(gmequiv))


def test_rates_stat_choices_are_the_statistics():
    assert cli.STATISTIC_CHOICES == tuple(sorted(diagnostics.STATISTICS))
