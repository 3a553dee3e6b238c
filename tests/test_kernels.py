"""Tests for kernel presets, custom construction, and the shape checks."""

import math

import numpy as np
import pytest

from gmequiv.errors import AssumptionViolation, DegenerateCell, DivisionByZero
from gmequiv.kernels import (
    GaussMarkovKernel,
    condition_on_zero,
    covariance,
    design_clock,
    gram,
    kernel_from_spec,
    make_kernel,
    parse_preset_arg,
    preset,
    validate_assumption,
)

ALL_PRESETS = ("bm", "ou", "bridge", "slepian")


def _fd(fn, t, h=1e-6):
    return (np.asarray(fn(t + h)) - np.asarray(fn(t - h))) / (2 * h)


class TestPresetValues:
    """Factor pairs, clocks, and horizons against their closed forms."""

    def test_bm(self):
        k = preset("bm")
        ts = np.linspace(0, 1, 11)
        np.testing.assert_array_equal(k.u(ts), ts)
        np.testing.assert_array_equal(k.v(ts), np.ones(11))
        np.testing.assert_array_equal(k.q(ts), ts)
        assert k.horizon == 1.0

    def test_ou(self):
        L = 0.7
        k = preset("ou", L)
        ts = np.linspace(0, 1, 11)
        np.testing.assert_allclose(k.u(ts), np.exp(L * ts) - np.exp(-L * ts), rtol=1e-15)
        np.testing.assert_allclose(k.v(ts), np.exp(-L * ts), rtol=1e-15)
        np.testing.assert_allclose(k.q(ts), np.exp(2 * L * ts) - 1, rtol=1e-14)
        assert math.isclose(k.horizon, math.exp(2 * L) - 1, rel_tol=1e-15)

    def test_bridge(self):
        k = preset("bridge")
        ts = np.linspace(0, 0.9, 10)
        np.testing.assert_allclose(k.q(ts), ts / (1 - ts), rtol=1e-15)
        assert math.isinf(k.horizon)
        assert float(k.v(1.0)) == 0.0

    def test_slepian(self):
        k = preset("slepian")
        ts = np.linspace(0, 1, 11)
        np.testing.assert_allclose(k.q(ts), ts / (2 - ts), rtol=1e-15)
        assert k.horizon == 1.0

    def test_quotient_identity(self):
        """q must equal u/v wherever v does not vanish."""
        ts = np.linspace(0, 1, 1000, endpoint=False)[1:]
        for name in ALL_PRESETS:
            k = preset(name)
            np.testing.assert_allclose(
                k.q(ts), np.asarray(k.u(ts)) / np.asarray(k.v(ts)),
                rtol=1e-12, err_msg=name,
            )

    def test_derivatives_match_finite_differences(self):
        ts = np.linspace(0.05, 0.9, 30)
        for name in ALL_PRESETS:
            k = preset(name)
            np.testing.assert_allclose(k.q_prime(ts), _fd(k.q, ts), rtol=1e-5,
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
        with pytest.raises(AssumptionViolation):
            preset("ou", -1.0)

    def test_unknown_preset(self):
        with pytest.raises(AssumptionViolation, match="unknown preset"):
            preset("heat")

    def test_ou_rate_defaults_to_one(self):
        assert preset("ou").name == preset("ou", 1.0).name == "ou(L=1)"


class TestHorizon:
    """The horizon is worked out from u and v: q(1), or inf once
    |v(1)| <= PINNED_TOL pins the endpoint."""

    def test_not_settable(self):
        bm = preset("bm")
        with pytest.raises(TypeError, match="horizon"):
            GaussMarkovKernel("bm", bm.u, bm.v, bm.u_prime, bm.v_prime, horizon=1.0)

    @pytest.mark.parametrize("kernel", [
        preset("bm"), preset("ou", 0.3), preset("ou", 2.5), preset("slepian"),
        make_kernel("lab", "t", "2 - t"), condition_on_zero("1 + t", "1"),
    ], ids=lambda k: k.name)
    def test_finite_horizon_is_q_at_one(self, kernel):
        assert kernel.horizon == float(kernel.q(1.0))

    @pytest.mark.parametrize("kernel", [
        preset("bridge"), make_kernel("pin", "t", "1 - t"),
        make_kernel("tiny", "t", "1 - t + 1e-13", validate=False),
    ], ids=lambda k: k.name)
    def test_pinned_endpoint_gives_infinite_horizon(self, kernel):
        assert math.isinf(kernel.horizon)


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
        make_kernel("lab", "t", "2 - t"),
    ], ids=lambda k: k.name)
    def test_equals_the_definition_bitwise(self, kernel):
        """u and v at each point once give the bits of u(min) * v(max)."""
        ts = np.random.default_rng(5).uniform(0.0, 1.0, 40)
        ts[7] = ts[3]
        direct = (np.asarray(kernel.u(np.minimum.outer(ts, ts)))
                  * np.asarray(kernel.v(np.maximum.outer(ts, ts))))
        np.testing.assert_array_equal(gram(kernel, ts), direct)
        np.testing.assert_array_equal(covariance(kernel, ts[:, None], ts[None, :9]),
                                      direct[:, :9])
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
        for part in ("u", "v", "q"):
            np.testing.assert_allclose(getattr(k, part)(ts), getattr(ref, part)(ts),
                                       rtol=1e-14, atol=0.0, err_msg=part)
        for part in ("q_prime", "v_prime"):
            np.testing.assert_allclose(getattr(k, part)(ts), getattr(ref, part)(ts),
                                       rtol=1e-6, atol=1e-6, err_msg=part)
        assert k.horizon == ref.horizon

    def test_text_slepian_derivatives(self):
        """Finite-difference q' of a text kernel tracks the analytic one."""
        k = make_kernel("slepian-text", "t", "2 - t")
        ts = np.linspace(0.0, 1.0, 41)
        np.testing.assert_allclose(k.q_prime(ts), 2.0 / (2.0 - ts) ** 2, rtol=1e-5)

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

    def test_nonpositive_increment_raises(self):
        k = make_kernel("hump", "t*(1 - t)", "1", validate=False)
        for n in (1, 2, 3, 4, 7):
            with pytest.raises(DegenerateCell):
                design_clock(k, n)


class TestConditionOnZero:
    def test_stationary_pair_becomes_ou(self):
        """Conditioning the stationary exponential pair to start at zero
        reproduces the ou preset exactly."""
        k = condition_on_zero("exp(t)", "exp(-t)")
        ref = preset("ou", 1.0)
        ts = np.linspace(0.05, 1.0, 20)
        np.testing.assert_allclose(gram(k, ts), gram(ref, ts), rtol=1e-12)
        assert math.isclose(k.horizon, ref.horizon, rel_tol=1e-12)

    def test_vanishing_v_at_origin_rejected(self):
        with pytest.raises(DivisionByZero):
            condition_on_zero("1", "t")


class TestValidationReport:
    def test_bm_passes_everything(self):
        report = validate_assumption(preset("bm"))
        assert report.passed
        assert all(c.passed for c in report.checks)
        assert report.q_prime_min == 1.0 == report.q_prime_max

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

    def test_preset_arg_plain(self):
        assert parse_preset_arg("bm").name == "bm"

    def test_preset_arg_with_rate(self):
        k = parse_preset_arg("ou(2.5)")
        assert math.isclose(k.horizon, math.exp(5.0) - 1.0, rel_tol=1e-15)

    def test_preset_arg_whitespace(self):
        assert parse_preset_arg("  slepian ").name == "slepian"
