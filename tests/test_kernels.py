"""Tests for kernel presets, custom construction, and the shape checks."""

import math
import re
import sys

import numpy as np
import pytest

from gmequiv.diagnostics import (
    kl_dense,
    kl_sequential,
    projection_statistic,
    transformation_discrepancy,
)
from gmequiv.errors import (
    AssumptionViolation,
    DegenerateCell,
    KernelDegenerate,
    SingularCovariance,
)
from gmequiv.fourier import FourierFunction
from gmequiv import kernels
from gmequiv.kernels import (
    LINEAR_PRESETS,
    VALIDATION_GRID,
    GaussMarkovKernel,
    covariance,
    design_clock,
    gram,
    kernel_from_spec,
    make_kernel,
    no_variance,
    preset,
    unpinned_design_clock,
    validate_assumption,
)
from gmequiv.rkhs import (
    decoupled_drift,
    kriging_interpolate,
    kriging_interpolate_dense,
    projection_distance,
    projection_distance_dense,
)
from gmequiv.samples import path_grid
from gmequiv.sampling import sample_paths

ALL_PRESETS = ("bm", "ou", "bridge", "slepian")


def _fd(fn, t, h=1e-6):
    return (np.asarray(fn(t + h)) - np.asarray(fn(t - h))) / (2 * h)


def _q(k, t):
    """The clock of kernel k at t, as k.clock gives it."""
    return k.clock(t)[2]


def _q_prime(k, t):
    """The clock's derivative of kernel k at t, as k.clock_rate gives it."""
    return k.clock_rate(t)[4]


class TestPresetValues:
    """Factor pairs, clocks, and horizons against their closed forms."""

    def test_bm(self):
        k = preset("bm")
        ts = np.linspace(0, 1, 11)
        np.testing.assert_array_equal(k.u(ts), ts)
        np.testing.assert_array_equal(k.v(ts), np.ones(11))
        np.testing.assert_array_equal(_q(k, ts), ts)
        assert k.horizon == 1.0

    def test_ou(self):
        L = 0.7
        k = preset("ou", L)
        ts = np.linspace(0, 1, 11)
        np.testing.assert_allclose(k.u(ts), np.exp(L * ts) - np.exp(-L * ts), rtol=1e-15)
        np.testing.assert_allclose(k.v(ts), np.exp(-L * ts), rtol=1e-15)
        np.testing.assert_allclose(_q(k, ts), np.exp(2 * L * ts) - 1, rtol=1e-14)
        assert math.isclose(k.horizon, math.exp(2 * L) - 1, rel_tol=1e-15)

    def test_bridge(self):
        k = preset("bridge")
        ts = np.linspace(0, 0.9, 10)
        np.testing.assert_allclose(_q(k, ts), ts / (1 - ts), rtol=1e-15)
        assert math.isinf(k.horizon)
        assert float(k.v(1.0)) == 0.0

    def test_slepian(self):
        k = preset("slepian")
        ts = np.linspace(0, 1, 11)
        np.testing.assert_allclose(_q(k, ts), ts / (2 - ts), rtol=1e-15)
        assert k.horizon == 1.0

    @pytest.mark.parametrize("name", sorted(LINEAR_PRESETS))
    def test_linear_preset_is_its_expression_kernel(self, name):
        """bm, bridge and slepian are u = t, v = v0 - slope t, bit for bit
        the expression kernel of that text; bm keeps v' = +0.0."""
        v0, slope = LINEAR_PRESETS[name]
        k = preset(name)
        lab = make_kernel(name, "t", f"{v0!r} - {slope!r}*t", validate=False)
        ts = path_grid(64)
        np.testing.assert_array_equal(k.u(ts), lab.u(ts))
        np.testing.assert_array_equal(k.v(ts), lab.v(ts))
        np.testing.assert_array_equal(k.u_prime(ts), np.ones(ts.size))
        np.testing.assert_array_equal(k.v_prime(ts), np.full(ts.size, -slope))
        assert not np.any(np.signbit(preset("bm").v_prime(ts)))

    def test_quotient_identity(self):
        """q must equal u/v wherever v does not vanish."""
        ts = np.linspace(0, 1, 1000, endpoint=False)[1:]
        for name in ALL_PRESETS:
            k = preset(name)
            np.testing.assert_allclose(
                _q(k, ts), np.asarray(k.u(ts)) / np.asarray(k.v(ts)),
                rtol=1e-12, err_msg=name,
            )

    def test_derivatives_match_finite_differences(self):
        ts = np.linspace(0.05, 0.9, 30)
        for name in ALL_PRESETS:
            k = preset(name)
            np.testing.assert_allclose(_q_prime(k, ts), _fd(lambda t: _q(k, t), ts), rtol=1e-5,
                                       err_msg=name)
            np.testing.assert_allclose(k.v_prime(ts), _fd(k.v, ts), rtol=1e-5,
                                       atol=1e-9, err_msg=name)

    def test_flags(self):
        """The pinned endpoint shows only as an infinite horizon."""
        assert math.isfinite(preset("bm").horizon)
        assert math.isfinite(preset("slepian").horizon)
        bridge = preset("bridge")
        assert float(bridge.v(1.0)) == 0.0
        assert math.isinf(bridge.horizon)

    def test_ou_needs_positive_rate(self):
        """A rate that is not finite and positive is refused, naming L, and
        so is one too fast for a finite clock, an integer past float range
        included."""
        for L in (-1.0, 0.0, math.nan, math.inf, -math.inf, 352.0, 10**400):
            with pytest.raises(AssumptionViolation, match=f"L = {L!r}"):
                preset("ou", L)

    def test_unknown_preset(self):
        with pytest.raises(AssumptionViolation, match="unknown preset"):
            preset("heat")

    def test_largest_ou_rate_keeps_a_finite_clock(self):
        """The largest rate accepted is the last float at which the clock's
        derivative q'(1) = 2L e^{2L} stays below the largest float."""
        L = 351.613516552385
        assert 2 * L + math.log(2 * L) < math.log(sys.float_info.max)
        with pytest.raises(AssumptionViolation, match="L = "):
            preset("ou", math.nextafter(L, math.inf))
        k = preset("ou", L)
        assert k.horizon == _q(k, 1.0)
        ts = np.linspace(0.0, 1.0, VALIDATION_GRID)
        assert all(np.all(np.isfinite(part)) for part in k.clock_rate(ts))

    def test_ou_rate_defaults_to_one(self):
        assert preset("ou").name == preset("ou", 1.0).name == "ou(L=1)"


class TestHorizon:
    """The horizon is worked out from u and v: q(1), or inf once
    Var(X_1) = u(1) v(1) carries no variance (kernels.no_variance) and
    pins the endpoint."""

    def test_not_settable(self):
        bm = preset("bm")
        with pytest.raises(TypeError, match="horizon"):
            GaussMarkovKernel("bm", bm.u, bm.v, bm.u_prime, bm.v_prime, horizon=1.0)

    @pytest.mark.parametrize("kernel", [
        preset("bm"), preset("ou", 0.3), preset("ou", 2.5), preset("slepian"),
        make_kernel("lab", "t", "2 - t"),
    ], ids=lambda k: k.name)
    def test_finite_horizon_is_q_at_one(self, kernel):
        assert kernel.horizon == float(_q(kernel, 1.0))

    @pytest.mark.parametrize("kernel", [
        preset("bridge"), make_kernel("pin", "t", "1 - t"),
        make_kernel("tiny", "t", "1 - t + 1e-13", validate=False),
    ], ids=lambda k: k.name)
    def test_pinned_endpoint_gives_infinite_horizon(self, kernel):
        assert math.isinf(kernel.horizon)


class TestClock:
    """clock and clock_rate evaluate each factor once per point set, and
    every reader takes u, v, q, v' and q' from them."""

    @pytest.mark.parametrize("kernel", [preset(name) for name in ALL_PRESETS] + [
        make_kernel("lab", "t", "2 - t"), make_kernel("affine", "t", "1 - 0.9*t"),
    ], ids=lambda k: k.name)
    def test_clock_is_u_over_v_bit_for_bit(self, kernel):
        ts = path_grid(64)
        u, v = np.asarray(kernel.u(ts)), np.asarray(kernel.v(ts))
        u_prime, v_prime = np.asarray(kernel.u_prime(ts)), np.asarray(kernel.v_prime(ts))
        with np.errstate(divide="ignore"):  # the bridge's v(1) = 0
            expected = (u, v, u / v, v_prime, (u_prime * v - u * v_prime) / (v * v))
        for name, got, want in zip(("u", "v", "q"), kernel.clock(ts), expected):
            assert got.dtype == float
            np.testing.assert_array_equal(got, want, err_msg=name)
        for name, got, want in zip(("u", "v", "q", "v'", "q'"), kernel.clock_rate(ts), expected):
            np.testing.assert_array_equal(got, want, err_msg=name)

    @staticmethod
    def _counted(calls: list) -> GaussMarkovKernel:
        """ou(1) with every factor call logged as (factor, points)."""
        ou = preset("ou", 1.0)

        def logged(name):
            def factor(t):
                calls.append((name, np.asarray(t, dtype=float).tobytes()))
                return getattr(ou, name)(t)
            return factor

        return GaussMarkovKernel("counted", *(logged(name) for name in
                                              ("u", "v", "u_prime", "v_prime")))

    @pytest.mark.parametrize("reader", [
        lambda k: design_clock(k, 16),
        lambda k: validate_assumption(k),
        lambda k: sample_paths(k, path_grid(16), 3, 0),
        lambda k: kriging_interpolate(k, np.ones(16), path_grid(16)),
        lambda k: decoupled_drift(k, FourierFunction.harmonic(1), path_grid(16)),
        lambda k: projection_distance_dense(k, FourierFunction.harmonic(1), 8),
        lambda k: transformation_discrepancy(k, FourierFunction.harmonic(1), 16),
    ], ids=["design_clock", "validate_assumption", "sample_paths", "kriging_interpolate",
            "decoupled_drift", "projection_distance_dense", "transformation_discrepancy"])
    def test_each_reader_evaluates_each_factor_once_per_point_set(self, reader):
        calls = []
        kernel = self._counted(calls)
        assert sorted(name for name, _ in calls) == ["u", "v"]  # the horizon
        calls.clear()
        reader(kernel)
        assert calls and len(set(calls)) == len(calls)


class TestGauge:
    """(c u, v / c) has the covariance of (u, v) for every c > 0, so one
    relative rule, no_variance, decides where a point carries no variance."""

    @pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_bridge_is_pinned_at_every_c(self, c):
        k = make_kernel("bridge", f"{c!r}*t", f"(1 - t)/{c!r}")
        assert math.isinf(k.horizon)
        by_name = {check.name: check.passed for check in validate_assumption(k).checks}
        assert by_name["v1_nonzero"] is False and by_name["q_zero_at_origin"] is True
        with pytest.raises(SingularCovariance, match=r"v\(1\)"):
            unpinned_design_clock(k, 4)

    def test_slepian_far_from_its_gauge_is_not_pinned(self):
        """v(1) = 1e-12 here, yet Var(X_1) = 1: the KL routes and the
        projection statistic give slepian's values."""
        k = make_kernel("slepian", "1e12*t", "1e-12*(2 - t)")
        assert math.isclose(k.horizon, 1e24, rel_tol=1e-12)
        for got, want in zip(unpinned_design_clock(k, 8), design_clock(preset("slepian"), 8)):
            np.testing.assert_allclose(got / got[-1], want / want[-1], rtol=1e-12)
        f = FourierFunction.harmonic(1)
        for stat in (kl_dense, kl_sequential, projection_statistic):
            for n in (4, 16):
                assert math.isclose(stat(k, f, n), stat(preset("slepian"), f, n),
                                    rel_tol=1e-9), (stat.__name__, n)

    @pytest.mark.parametrize("u, v", [("1e-6 + t", "1"), ("1e-9 + 1e-3*t", "1e3")])
    def test_variance_at_the_origin_is_refused_in_every_gauge(self, u, v):
        with pytest.raises(AssumptionViolation, match="q_zero_at_origin"):
            make_kernel("offset", u, v)

    @pytest.mark.parametrize("u", ["t^5", "t*exp(30*t)"])
    def test_variance_over_many_decades_is_valid(self, u):
        """Var(X_t) = t^5 is 1e-15 at t = 0.001, and t e^{30 t} spans 16
        decades: both are positive in the interior, so both pass the shape
        check, on the default grid and a finer one, and keep q(1)."""
        k = make_kernel("wide", u, "1")
        assert k.horizon == _q(k, 1.0) and math.isfinite(k.horizon)
        assert validate_assumption(k, 10**5).passed

    def test_no_variance_is_relative_to_the_grid(self):
        var = np.array([0.0, -1e-13, 1e-13, 1e-11, 0.5, 1.0, np.inf, np.nan])
        np.testing.assert_array_equal(
            no_variance(var), [True, True, True, False, False, False, False, False])
        np.testing.assert_array_equal(no_variance(1e-30 * var), no_variance(var))
        assert no_variance(np.zeros(3)).all()
        assert no_variance(np.array([0.0, 1e-300])).tolist() == [True, False]


class TestCovariance:
    def test_bm_is_min(self):
        k = preset("bm")
        assert covariance(k, 0.3, 0.8) == 0.3
        assert covariance(k, 0.8, 0.3) == 0.3

    def test_bridge_is_min_minus_product(self):
        k = preset("bridge")
        s, t = 0.25, 0.75
        assert math.isclose(covariance(k, s, t), min(s, t) - s * t, rel_tol=1e-15)

    def test_slepian_closed_form(self):
        k = preset("slepian")
        assert math.isclose(covariance(k, 0.25, 0.5), 0.25 * 1.5, rel_tol=1e-15)

    def test_ou_closed_form(self):
        k = preset("ou", 1.0)
        s, t = 0.2, 0.9
        expected = (math.exp(s) - math.exp(-s)) * math.exp(-t)
        assert math.isclose(covariance(k, s, t), expected, rel_tol=1e-14)

    def test_symmetry_on_arrays(self):
        gen = np.random.default_rng(3)
        s = gen.uniform(0, 1, 50)
        t = gen.uniform(0, 1, 50)
        for name in ALL_PRESETS:
            k = preset(name)
            np.testing.assert_array_equal(covariance(k, s, t), covariance(k, t, s))

    def test_gram_matches_pairwise_covariance(self):
        ts = np.linspace(0.1, 1.0, 10)
        for name in ALL_PRESETS:
            k = preset(name)
            G = gram(k, ts)
            direct = covariance(k, ts[:, None], ts[None, :])
            np.testing.assert_array_equal(G, direct)

    @pytest.mark.parametrize("kernel", [
        preset("bm"), preset("ou", 1.0), preset("slepian"), preset("bridge"),
        make_kernel("lab", "t", "2 - t"), make_kernel("c", "t", "2"),
    ], ids=lambda k: k.name)
    def test_equals_the_definition_bitwise(self, kernel):
        """u and v at each point once give the bits of u(min) * v(max)."""

        def definition(s, t):
            return np.asarray(kernel.u(np.minimum(s, t))) * np.asarray(kernel.v(np.maximum(s, t)))

        ts = np.random.default_rng(5).uniform(0.0, 1.0, 40)
        ts[7] = ts[3]
        direct = definition(ts[:, None], ts[None, :])
        np.testing.assert_array_equal(gram(kernel, ts), direct)
        np.testing.assert_array_equal(covariance(kernel, ts[:, None], ts[None, :9]),
                                      direct[:, :9])
        # a column against a row of other points, some tied with the column
        row = np.array([0.0, ts[3], 0.5, ts[20], 1.0, ts[0]])[None, :]
        np.testing.assert_array_equal(covariance(kernel, ts[:, None], row),
                                      definition(ts[:, None], row))
        for s, t in ((0.5, ts), (ts, 0.5), (ts[20], ts), (ts, ts[20])):
            np.testing.assert_array_equal(covariance(kernel, s, t), definition(s, t))
        value = covariance(kernel, 1.0, 1.0)
        assert type(value) is float
        assert value == float(kernel.u(1.0)) * float(kernel.v(1.0))

    def test_gram_positive_semidefinite(self):
        gen = np.random.default_rng(11)
        for name in ALL_PRESETS:
            k = preset(name)
            ts = np.sort(gen.uniform(0.01, 1.0, 64))
            G = gram(k, ts)
            np.testing.assert_allclose(G, G.T, rtol=0, atol=0)
            eig = np.linalg.eigvalsh(G)
            assert eig.min() >= -1e-9 * max(eig.max(), 1.0), name


TWINS = {
    "bm": ("t", "1"),
    "ou": ("exp(t) - exp(-t)", "exp(-t)"),
    "bridge": ("t", "1 - t"),
    "slepian": ("t", "2 - t"),
}


class TestCustomKernels:
    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_text_twin_matches_preset(self, name):
        """Exact derivatives of a preset and central differences of its
        expression twin give the same clock."""
        k = make_kernel(f"{name}-text", *TWINS[name])
        ref = preset(name)
        ts = np.linspace(0, 1, 101)
        if name == "bridge":
            ts = ts[:-1]
        np.testing.assert_allclose(gram(k, ts[1:]), gram(ref, ts[1:]), rtol=1e-15)
        ours, theirs = k.clock_rate(ts), ref.clock_rate(ts)
        for part, i in (("u", 0), ("v", 1), ("q", 2)):
            np.testing.assert_allclose(ours[i], theirs[i], rtol=1e-14, atol=0.0, err_msg=part)
        for part, i in (("v_prime", 3), ("q_prime", 4)):
            np.testing.assert_allclose(ours[i], theirs[i], rtol=1e-6, atol=1e-6, err_msg=part)
        assert k.horizon == ref.horizon

    def test_text_slepian_derivatives(self):
        """Finite-difference q' of a text kernel tracks the analytic one."""
        k = make_kernel("slepian-text", "t", "2 - t")
        ts = np.linspace(0.0, 1.0, 41)
        np.testing.assert_allclose(_q_prime(k, ts), 2.0 / (2.0 - ts) ** 2, rtol=1e-5)

    def test_nonmonotone_clock_rejected(self):
        with pytest.raises(AssumptionViolation, match="q_strictly_increasing"):
            make_kernel("hump", "t*(1 - t)", "1")

    def test_negative_variance_rejected(self):
        with pytest.raises(AssumptionViolation) as exc:
            make_kernel("shifted", "t - 0.5", "1")
        assert "uv_nonnegative" in str(exc.value)
        assert "q_zero_at_origin" in str(exc.value)

    def test_validate_false_builds_anyway(self):
        k = make_kernel("hump", "t*(1 - t)", "1", validate=False)
        report = validate_assumption(k)
        assert not report.passed
        failed = {c.name for c in report.checks if c.required and not c.passed}
        assert "q_strictly_increasing" in failed


class TestDesignClock:
    def test_values_at_the_origin_and_knots(self):
        v, q = design_clock(preset("slepian"), 4)
        ts = np.arange(5) / 4
        np.testing.assert_array_equal(v, 2.0 - ts)
        np.testing.assert_array_equal(q, ts / (2.0 - ts))

    def test_pinned_endpoint_passes(self):
        """The bridge's last clock increment is infinite, not degenerate."""
        v, q = design_clock(preset("bridge"), 8)
        assert v[-1] == 0.0 and q[-1] == math.inf
        assert np.all(np.diff(q) > 0.0)

    def test_pinned_endpoint_is_singular_for_the_observations(self):
        """unpinned_design_clock refuses what design_clock lets pass, and
        otherwise returns the same clock."""
        with pytest.raises(SingularCovariance, match=r"v = 0 at a design knot \(v\(1\)"):
            unpinned_design_clock(preset("bridge"), 8)
        for got, want in zip(unpinned_design_clock(preset("slepian"), 8),
                             design_clock(preset("slepian"), 8)):
            np.testing.assert_array_equal(got, want)

    def test_each_refusal_of_a_pinned_endpoint_names_its_reason(self):
        """One refusal, three reasons: the observations' covariance, the
        projection's design span and the transform's division by v."""
        bridge, f = preset("bridge"), FourierFunction.harmonic(1)
        with pytest.raises(KernelDegenerate, match=r"v\(1\).*design span is not closed"):
            projection_distance(bridge, f, 8)
        with pytest.raises(KernelDegenerate, match=r"v\(1\).*design span is not closed"):
            projection_distance_dense(bridge, f, 8)
        with pytest.raises(KernelDegenerate, match=r"v\(1\).*transform divides by zero"):
            transformation_discrepancy(bridge, f, 8)

    def test_nonpositive_increment_raises(self):
        k = make_kernel("hump", "t*(1 - t)", "1", validate=False)
        for n in (1, 2, 3, 4, 7):
            with pytest.raises(DegenerateCell):
                design_clock(k, n)


class TestValidationReport:
    def test_bm_passes_everything(self):
        report = validate_assumption(preset("bm"))
        assert report.passed
        assert all(c.passed for c in report.checks)
        by_name = {c.name: c for c in report.checks}
        assert by_name["q_prime_positive"].witness == "q' range on grid: [1, 1]"

    def test_bridge_passes_with_flag(self):
        """The pinned endpoint is informational, not a failure."""
        report = validate_assumption(preset("bridge"))
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert not by_name["v1_nonzero"].passed
        assert not by_name["v1_nonzero"].required
        assert any("[flag]" in line for line in report.lines())

    @pytest.mark.parametrize("size", [10**6 + 1, 10**9])
    def test_grid_above_the_limit_is_refused(self, size):
        with pytest.raises(ValueError, match="at most 1000000 grid points"):
            validate_assumption(preset("bm"), grid_size=size)

    def test_report_lines_name_every_check(self):
        report = validate_assumption(preset("ou", 1.0), grid_size=501)
        text = "\n".join(report.lines())
        for check in report.checks:
            assert check.name in text
        assert "grid 501" in text


class TestSpecSurface:
    def test_preset_spec(self):
        k = kernel_from_spec({"preset": "ou", "params": {"L": 0.5}})
        assert math.isclose(k.horizon, math.exp(1.0) - 1.0, rel_tol=1e-15)

    def test_custom_spec(self):
        k = kernel_from_spec({"name": "lab", "u": "t", "v": "2 - t"})
        assert k.name == "lab"
        np.testing.assert_allclose(
            gram(k, np.linspace(0.1, 1, 8)),
            gram(preset("slepian"), np.linspace(0.1, 1, 8)),
            rtol=1e-14,
        )

    def test_incomplete_spec(self):
        with pytest.raises(AssumptionViolation, match="kernel spec needs"):
            kernel_from_spec({"u": "t"})

    # the name and horizon the command line has always built from each
    # spelling; ou(0.5)'s q(1) = e - 1 rounds to 1.7182818284590453
    @pytest.mark.parametrize("spelling, file_text, name, horizon", [
        ({"preset": "ou", "params": {"L": 0.5}}, None, "ou(L=0.5)", 1.7182818284590453),
        ('{"preset": "ou", "params": {"L": 0.5}}', None, "ou(L=0.5)", 1.7182818284590453),
        (" ou(0.5) ", None, "ou(L=0.5)", 1.7182818284590453),
        ("bm", None, "bm", 1.0),
        ({"name": "lab", "u": "t", "v": "2 - t"}, None, "lab", 1.0),
        (' {"u": "t", "v": "2 - t"}', None, "custom", 1.0),
        (None, '{"name": "lab", "u": "t", "v": "2 - t"}', "lab", 1.0),
        (None, '{"preset": "slepian"}', "slepian", 1.0),
        (None, "bridge\n", "bridge", math.inf),
    ], ids=["dict", "json", "preset-text", "bare-preset", "expression-dict",
            "expression-json", "expression-file", "preset-spec-file", "preset-text-file"])
    def test_every_spelling_builds_the_same_kernel(self, tmp_path, spelling, file_text,
                                                   name, horizon):
        if file_text is not None:
            path = tmp_path / "kernel.json"
            path.write_text(file_text)
            spelling = str(path)
        k = kernel_from_spec(spelling)
        assert (k.name, k.horizon) == (name, horizon)

    def test_unvalidated_spec_builds_a_broken_kernel(self):
        spec = '{"name": "hump", "u": "t*(1 - t)", "v": "1"}'
        with pytest.raises(AssumptionViolation, match="fails the shape assumption"):
            kernel_from_spec(spec)
        report = validate_assumption(kernel_from_spec(spec, validate=False))
        assert report.kernel_name == "hump" and not report.passed

    def test_preset_arg_plain(self):
        assert kernel_from_spec("bm").name == "bm"

    def test_preset_arg_with_rate(self):
        k = kernel_from_spec("ou(2.5)")
        assert math.isclose(k.horizon, math.exp(5.0) - 1.0, rel_tol=1e-15)

    def test_preset_arg_whitespace(self):
        assert kernel_from_spec("  slepian ").name == "slepian"

    @pytest.mark.parametrize("text, error, message", [
        ("missing.json", FileNotFoundError, "missing.json"),
        ("ou(", FileNotFoundError, "ou("),
        ("[1]", ValueError, "kernel spec must be a JSON object, got [1]"),
        ('"bm"', ValueError, "kernel spec must be a JSON object, got 'bm'"),
        ("1", ValueError, "kernel spec must be a JSON object, got 1"),
        ("", AssumptionViolation, "unknown preset ''"),
        ("ou(abc)", ValueError, "could not convert string to float"),
    ])
    def test_text_that_is_no_kernel(self, text, error, message):
        """JSON first, then an existing file, then preset syntax; any other
        text is opened as a path."""
        with pytest.raises(error, match=re.escape(message)):
            kernel_from_spec(text)

    def test_preset_text_is_its_preset_spec(self):
        """Preset text takes the preset spec's path, rate checks included."""
        for text, spec in (("ou(2)", {"preset": "ou", "params": {"L": 2.0}}),
                           ("bm", {"preset": "bm"})):
            assert repr(kernel_from_spec(text)) == repr(kernel_from_spec(spec))
        with pytest.raises(AssumptionViolation, match="preset 'bm' takes no rate, got L = 5.0"):
            kernel_from_spec(" bm ( 5 ) ")
        with pytest.raises(AssumptionViolation, match="unknown preset \\[1\\]"):
            kernel_from_spec({"preset": [1]})


class TestSerialBlas:
    """serial_blas runs its body on one OpenBLAS thread and gives the
    caller's count back however the body ends; without an OpenBLAS it
    does nothing."""

    @pytest.fixture
    def threads(self):
        """OpenBLAS's (set, get) pair, the count set to 2 for the test and
        the process's own count restored after it."""
        pair = kernels._openblas_threads()
        if pair is None:
            pytest.skip("numpy did not load an OpenBLAS")
        setter, getter = pair
        before = getter()
        setter(2)
        yield setter, getter
        setter(before)

    def test_body_runs_on_one_thread_and_the_count_comes_back(self, threads):
        _, getter = threads
        with kernels.serial_blas():
            assert getter() == 1
        assert getter() == 2

    def test_count_comes_back_after_an_exception(self, threads):
        _, getter = threads
        with pytest.raises(SingularCovariance):
            with kernels.serial_blas():
                assert getter() == 1
                kl_dense(preset("bridge"), FourierFunction.harmonic(1), 4)
        assert getter() == 2
        with pytest.raises(SingularCovariance, match="singular"):  # raised by its factor
            kriging_interpolate_dense(preset("bridge"), np.ones(4), path_grid(4))
        assert getter() == 2

    def test_oracles_run_where_no_openblas_is_found(self, monkeypatch):
        cos = FourierFunction.harmonic(1)
        n = 16
        y = np.asarray(cos.antiderivative(np.arange(1, n + 1) / n))
        grid = path_grid(n)
        expected = (kl_dense(preset("slepian"), cos, n),
                    kriging_interpolate_dense(preset("ou"), y, grid),
                    projection_distance_dense(preset("ou"), cos, n))
        monkeypatch.setattr(kernels, "_openblas_threads", lambda: None)
        got = (kl_dense(preset("slepian"), cos, n),
               kriging_interpolate_dense(preset("ou"), y, grid),
               projection_distance_dense(preset("ou"), cos, n))
        assert got[0] == expected[0] and got[2] == expected[2]
        np.testing.assert_array_equal(got[1], expected[1])
