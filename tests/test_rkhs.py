"""Tests for the RKHS machinery: pre-images, norms, projections, Kriging."""

import math

import numpy as np
import pytest

from gmequiv.errors import (
    DegenerateCell,
    GridMismatch,
    KernelDegenerate,
    SingularCovariance,
)
from gmequiv.fourier import ClassSpec, FourierFunction, sample_ellipsoid
from gmequiv.kernels import make_kernel, preset
from gmequiv.quadrature import adaptive_integral
from gmequiv.rkhs import (
    RkhsElement,
    g_from_f,
    kriging_interpolate,
    kriging_interpolate_dense,
    kriging_residual_process,
    projection_distance,
    projection_distance_dense,
    rkhs_norm,
)

FINITE_PRESETS = ("bm", "ou", "slepian")
COS = FourierFunction.harmonic(1)


def _hump():
    """A kernel whose clock q = t(1 - t) turns back: it fails the shape
    assumption and is built only because validation is switched off."""
    return make_kernel("hump", "t*(1-t)", "1", validate=False)


def _reproduce_F(element: RkhsElement, ts) -> np.ndarray:
    """F(t) = v(t) * integral_0^{q(t)} g, pulled back to the time axis:
    v(t) * integral_0^t g(q(w)) q'(w) dw, one quadrature call per t."""
    k = element.kernel

    def integrand(w):
        return np.asarray(element.g_of_time(w)) * np.asarray(k.q_prime(w))

    integrals = [adaptive_integral(integrand, 0.0, float(t)) if t > 0 else 0.0 for t in ts]
    return np.asarray(k.v(ts)) * np.array(integrals)


class TestPreimage:
    def test_bm_preimage_is_f_itself(self):
        """Under bm (v = 1, q = t) the pre-image of the running integral
        is f with no transformation at all."""
        f = FourierFunction.harmonic(2, 1.3)
        element = g_from_f(preset("bm"), f)
        ws = np.linspace(0, 1, 101)
        np.testing.assert_allclose(element.g_of_time(ws), f(ws), rtol=0, atol=1e-12)

    def test_ou_constant_f_closed_form(self):
        """For the ou(1) kernel and f = 1: g(q(w)) = e^{-w}(1 + w)/2."""
        element = g_from_f(preset("ou", 1.0), FourierFunction.harmonic(0, 1.0))
        ws = np.linspace(0, 1, 101)
        expected = np.exp(-ws) * (1 + ws) / 2
        np.testing.assert_allclose(element.g_of_time(ws), expected, rtol=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_reproduce_F_matches_antiderivative(self):
        ts = np.array([0.2, 0.5, 0.77, 1.0])
        for name in FINITE_PRESETS:
            k = preset(name)
            element = g_from_f(k, COS)
            np.testing.assert_allclose(_reproduce_F(element, ts), COS.antiderivative(ts),
                                       rtol=0, atol=1e-6, err_msg=name)


class TestNorm:
    def test_bm_norm_is_l2_norm_of_f(self):
        element = g_from_f(preset("bm"), COS)
        assert math.isclose(rkhs_norm(element), math.sqrt(0.5), rel_tol=1e-9)

    def test_ou_constant_f_norm(self):
        """Closed form: the squared norm of the f = 1 element under ou(1)
        is integral of (1+w)^2/2, which is 7/6."""
        element = g_from_f(preset("ou", 1.0), FourierFunction.harmonic(0, 1.0))
        assert math.isclose(rkhs_norm(element), math.sqrt(7.0 / 6.0), rel_tol=1e-9)

    def test_step_preimage_norm_is_weighted_sum(self):
        """Isometry on step functions: a piecewise-constant g has squared
        norm equal to the clock-length-weighted sum of its squared levels."""
        k = preset("ou", 1.0)
        split = float(k.q(0.5))

        def g(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < split, 3.0, 0.5)

        # the jump sits at w = 0.5, a panel edge at every quadrature level
        element = RkhsElement(k, lambda w: g(k.q(w)))
        expected_sq = 9.0 * split + 0.25 * (k.horizon - split)
        assert math.isclose(rkhs_norm(element) ** 2, expected_sq, rel_tol=1e-8)

    def test_element_from_g_constant_reproduces_u(self):
        """g = 1 gives F = v * q = u for any kernel."""
        for name in FINITE_PRESETS:
            k = preset(name)
            ts = np.linspace(0.1, 1.0, 7)
            np.testing.assert_allclose(_reproduce_F(RkhsElement(k, lambda w: 1), ts),
                                       np.asarray(k.u(ts)),
                                       rtol=1e-9, err_msg=name)

    def test_non_monotone_clock_raises_degenerate_cell(self):
        with pytest.raises(DegenerateCell):
            rkhs_norm(g_from_f(_hump(), COS))


class TestProjectionDistance:
    def test_matches_dense_oracle(self):
        fns = [COS, sample_ellipsoid(ClassSpec.sobolev(1.5, 1.0), K=6, seed=2)]
        for name in FINITE_PRESETS:
            k = preset(name)
            for f in fns:
                for n in (4, 8, 16):
                    fast = projection_distance(k, f, n)
                    dense = projection_distance_dense(k, f, n)
                    assert fast >= 0.0
                    assert abs(fast - dense) < 1e-6, (name, f.name, n)

    def test_decreases_with_n(self):
        values = [projection_distance(preset("bm"), COS, n) for n in (4, 8, 16, 32)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bridge_rejected(self):
        with pytest.raises(KernelDegenerate):
            projection_distance(preset("bridge"), COS, 4)

    @pytest.mark.parametrize("kernel, error", [
        (preset("bridge"), KernelDegenerate),
        (_hump(), DegenerateCell),
    ], ids=["bridge", "hump"])
    def test_oracle_refuses_what_the_fast_route_refuses(self, kernel, error):
        with pytest.raises(error):
            projection_distance(kernel, COS, 4)
        with pytest.raises(error):
            projection_distance_dense(kernel, COS, 4, grid_size=1000)


class TestKriging:
    def test_interpolation_property(self):
        for name in FINITE_PRESETS:
            k = preset(name)
            for n in (16, 128, 512):
                knots = np.arange(1, n + 1) / n
                y = np.asarray(COS.antiderivative(knots))
                at_knots = kriging_interpolate(k, y, knots)
                assert np.max(np.abs(at_knots - y)) <= 1e-8, (name, n)

    def test_matches_dense_solve(self):
        ts = np.linspace(0.0, 1.0, 257)
        gen = np.random.default_rng(8)
        for name in FINITE_PRESETS:
            k = preset(name)
            for n in (4, 16, 64):
                y = gen.normal(size=n)
                fast = kriging_interpolate(k, y, ts)
                dense = kriging_interpolate_dense(k, y, ts)
                assert np.max(np.abs(fast - dense)) <= 1e-8, (name, n)

    def test_bm_interpolant_is_piecewise_linear(self):
        n = 8
        knots = np.arange(1, n + 1) / n
        y = np.asarray(COS.antiderivative(knots))
        ts = np.linspace(0, 1, 401)
        fast = kriging_interpolate(preset("bm"), y, ts)
        broken_line = np.interp(ts, np.concatenate([[0.0], knots]),
                                np.concatenate([[0.0], y]))
        np.testing.assert_allclose(fast, broken_line, rtol=0, atol=1e-14)

    def test_origin_anchor(self):
        """With no observation at 0 the interpolant is still pinned there."""
        k = preset("ou", 1.0)
        y = np.array([1.0, -0.5, 0.25, 2.0])
        assert kriging_interpolate(k, y, 0.0) == 0.0

    def test_pinned_kernel_rejected(self):
        with pytest.raises(SingularCovariance, match=r"v\(1\)"):
            kriging_interpolate(preset("bridge"), np.ones(4), np.linspace(0, 1, 9))


class TestResidualProcess:
    def test_vanishes_at_knots(self):
        for name in FINITE_PRESETS:
            k = preset(name)
            r = kriging_residual_process(k, 4, seed=7)
            idx = np.arange(1, 5) * ((r.grid.size - 1) // 4)
            assert np.max(np.abs(r.values[idx])) <= 1e-12, name
            assert r.values[0] == 0.0

    def test_grid_must_contain_knots(self):
        with pytest.raises(GridMismatch):
            kriging_residual_process(preset("bm"), 4, seed=0, grid_size=22)

    def test_midpoint_variance_under_bm(self):
        """For bm with one knot the residual at t = 1/2 has the pinned
        variance 1/4; checked by Monte Carlo within a 3.5 sigma band."""
        draws = np.array([
            kriging_residual_process(preset("bm"), 1, seed=s, grid_size=21).values[10]
            for s in range(4000)
        ])
        var = float(np.var(draws, ddof=1))
        band = 3.5 * 0.25 * math.sqrt(2.0 / (draws.size - 1))
        assert abs(var - 0.25) <= band

    def test_deterministic_in_seed(self):
        a = kriging_residual_process(preset("slepian"), 4, seed=3)
        b = kriging_residual_process(preset("slepian"), 4, seed=3)
        c = kriging_residual_process(preset("slepian"), 4, seed=4)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
