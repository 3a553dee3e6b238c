"""Tests for the RKHS machinery: pre-images, norms, projections, Kriging."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gmequiv import samples
from gmequiv.diagnostics import fixed_family, kl_sequential, rate_sweep
from gmequiv.errors import DegenerateCell, KernelDegenerate, QuadratureFailure, SingularCovariance
from gmequiv.fourier import ClassSpec, FourierFunction, sample_ellipsoid
from gmequiv.kernels import GaussMarkovKernel, make_kernel, preset, validate_assumption
from gmequiv.rkhs import (
    MAX_DOUBLINGS,
    _preimage,
    kriging_interpolate,
    kriging_interpolate_dense,
    projection_distance,
    projection_distance_dense,
    rkhs_norm,
)
from gmequiv.samples import design_knots, path_grid
from gmequiv.sampling import sample_paths

FINITE_PRESETS = ("bm", "ou", "slepian")
COS = FourierFunction.harmonic(1)


def _hump():
    """A kernel whose clock q = t(1 - t) turns back: it fails the shape
    assumption and is built only because validation is switched off."""
    return make_kernel("hump", "t*(1-t)", "1", validate=False)


def _integral(integrand, b: float, points=None) -> float:
    """scipy's adaptive quad of a scalar integrand over [0, b], to the
    relative tolerance 1e-9 and the absolute floor 1e-13."""
    return quad(lambda w: float(integrand(w)), 0.0, b, points=points,
                epsabs=1e-13, epsrel=1e-9)[0]


def _reproduce_F(k, g_of_time, ts) -> np.ndarray:
    """F(t) = v(t) * integral_0^{q(t)} g, pulled back to the time axis:
    v(t) * integral_0^t g(q(w)) q'(w) dw, one quadrature call per t, with
    g_of_time(w) = g(q(w))."""

    def integrand(w):
        return np.asarray(g_of_time(w)) * k.clock_rate(w)[4]

    integrals = [_integral(integrand, float(t)) if t > 0 else 0.0 for t in ts]
    return np.asarray(k.v(ts)) * np.array(integrals)


class TestPreimage:
    def test_bm_preimage_is_f_itself(self):
        """Under bm (v = 1, q = t) the pre-image of the running integral
        is f with no transformation at all."""
        f = FourierFunction.harmonic(2, 1.3)
        ws = np.linspace(0, 1, 101)
        g, _ = _preimage(preset("bm"), f, ws)
        np.testing.assert_allclose(g, f(ws), rtol=0, atol=1e-12)

    def test_ou_constant_f_closed_form(self):
        """For the ou(1) kernel and f = 1: g(q(w)) = e^{-w}(1 + w)/2."""
        ws = np.linspace(0, 1, 101)
        g, _ = _preimage(preset("ou", 1.0), FourierFunction.harmonic(0, 1.0), ws)
        expected = np.exp(-ws) * (1 + ws) / 2
        np.testing.assert_allclose(g, expected, rtol=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_reproduce_F_matches_antiderivative(self):
        ts = np.array([0.2, 0.5, 0.77, 1.0])
        for name in FINITE_PRESETS:
            k = preset(name)
            reproduced = _reproduce_F(k, lambda w, k=k: _preimage(k, COS, w)[0], ts)
            np.testing.assert_allclose(reproduced, COS.antiderivative(ts),
                                       rtol=0, atol=1e-6, err_msg=name)


class TestNorm:
    def test_bm_norm_is_l2_norm_of_f(self):
        assert math.isclose(rkhs_norm(preset("bm"), COS), math.sqrt(0.5), rel_tol=1e-9)

    def test_ou_constant_f_norm(self):
        """Closed form: the squared norm of the f = 1 element under ou(1)
        is integral of (1+w)^2/2, which is 7/6."""
        norm = rkhs_norm(preset("ou", 1.0), FourierFunction.harmonic(0, 1.0))
        assert math.isclose(norm, math.sqrt(7.0 / 6.0), rel_tol=1e-9)

    def test_step_preimage_norm_is_weighted_sum(self):
        """Isometry on step functions: a piecewise-constant g has squared
        norm equal to the clock-length-weighted sum of its squared levels,
        the integral of g^2 over [0, T] pulled back to [0, 1] as rkhs_norm
        pulls it back: integral_0^1 g(q(w))^2 q'(w) dw."""
        k = preset("ou", 1.0)
        split = float(k.clock(0.5)[2])

        def g(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < split, 3.0, 0.5)

        # the jump sits at w = 0.5, given to quad as a breakpoint
        def integrand(w):
            _, _, q, _, q_prime = k.clock_rate(w)
            return g(q) ** 2 * q_prime

        norm_sq = _integral(integrand, 1.0, points=[0.5])
        expected_sq = 9.0 * split + 0.25 * (k.horizon - split)
        assert math.isclose(norm_sq, expected_sq, rel_tol=1e-8)

    def test_element_from_g_constant_reproduces_u(self):
        """g = 1 gives F = v * q = u for any kernel."""
        for name in FINITE_PRESETS:
            k = preset(name)
            ts = np.linspace(0.1, 1.0, 7)
            np.testing.assert_allclose(_reproduce_F(k, lambda w: 1, ts),
                                       np.asarray(k.u(ts)),
                                       rtol=1e-9, err_msg=name)

    def test_bridge_norm_of_cos(self):
        """The bridge's RKHS holds the F with F(0) = F(1) = 0, normed by
        ||F'||_2. The running integral of cos vanishes at 1, so the pinned
        endpoint leaves ||F_f||_H = ||cos||_2 = sqrt(1/2)."""
        assert math.isclose(rkhs_norm(preset("bridge"), COS), math.sqrt(0.5), rel_tol=1e-15)

    def test_non_monotone_clock_raises_degenerate_cell(self):
        with pytest.raises(DegenerateCell):
            rkhs_norm(_hump(), COS)

    def test_unsettled_integral_names_the_kernel_and_its_rkhs(self):
        """On u = t^5, v = 1, g(q(w))^2 q'(w) = f^2 / (5 w^4) is not
        integrable at 0, so F_f is not in the RKHS and neither integral
        settles; the failure keeps its class and achieved tolerance."""
        k = make_kernel("quintic", "t^5", "1")
        for integral in (lambda: rkhs_norm(k, COS), lambda: projection_distance(k, COS, 1)):
            with pytest.raises(QuadratureFailure, match="kernel 'quintic'.*outside the "
                               "kernel's RKHS") as caught:
                integral()
            assert 0.5 < caught.value.achieved < 1.0


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

    def test_constant_on_bm_lies_in_the_span(self):
        """Under bm the pre-image of a constant f is that constant, a step
        function on every design: the residual is zero at every node, and
        the totals settle on the absolute floor."""
        assert projection_distance(preset("bm"), FourierFunction.harmonic(0, 1.0), 8) == 0.0

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
            projection_distance_dense(kernel, COS, 4)


def _span(kernel, f, n) -> float:
    """S_n = sum_j (Delta_j(F_f / v))^2 / Delta_j q, the squared norm of
    the projection of F_f onto the design span, from the clock at the knots."""
    knots = path_grid(n, n + 1)
    _, v, q = kernel.clock(knots)
    return float(np.sum(np.diff(np.asarray(f.antiderivative(knots)) / v) ** 2 / np.diff(q)))


class TestPythagoras:
    """||F_f||_H^2 = S_n + D_n: the squared norm of the projection onto the
    design span (_span) plus the squared distance to the span."""

    FNS = (COS, sample_ellipsoid(ClassSpec.sobolev(1.0, 1.0), K=24, seed=4))

    @pytest.mark.parametrize("kernel, rel_tol", [
        (preset("bm"), 1e-14),
        (preset("ou", 1.0), 1e-14),
        (preset("ou", 5.0), 1e-14),
        (preset("slepian"), 1e-14),
        # finite-difference v' and q' put g off the knot increments by ~1e-11
        (make_kernel("lab", "t", "2 - t"), 1e-10),
        (make_kernel("ou-expr", "exp(t) - exp(-t)", "exp(-t)"), 1e-10),
    ], ids=["bm", "ou1", "ou5", "slepian", "lab", "ou-expr"])
    @pytest.mark.parametrize("n", [1, 8, 64, 512])
    def test_norm_splits_into_span_and_residual(self, kernel, rel_tol, n):
        for f in self.FNS:
            assert math.isclose(rkhs_norm(kernel, f) ** 2,
                                _span(kernel, f, n) + projection_distance(kernel, f, n),
                                rel_tol=rel_tol), f.name


class TestTopFrequencyBudget:
    """A function whose top frequency K exceeds the cell count gets 2^8
    panels per period of that frequency, as a cell gets otherwise: with
    2^8 per cell, one cell held about 4 nodes per period of harmonic(1024),
    and its integral failed as if F_f lay outside the RKHS."""

    HIGH = tuple(FourierFunction.harmonic(k) for k in (384, 512, 1024))

    def test_norm_of_a_high_harmonic(self):
        for f in self.HIGH:
            assert math.isclose(rkhs_norm(preset("bm"), f) ** 2, 0.5, rel_tol=1e-12), f.K

    def test_one_cell_leaves_the_whole_norm(self):
        """On bm F_f(1) = 0 spans nothing on one cell: S_1 = 0 and D_1 is
        ||F_f||_H^2 = ||f||_2^2."""
        assert math.isclose(projection_distance(preset("bm"), self.HIGH[-1], 1), 0.5,
                            rel_tol=1e-12)

    def test_norm_splits_on_two_cells(self):
        kernel, f = preset("slepian"), self.HIGH[-1]
        assert math.isclose(rkhs_norm(kernel, f) ** 2,
                            _span(kernel, f, 2) + projection_distance(kernel, f, 2),
                            rel_tol=1e-14)


class TestNodeCap:
    """A level of the residual integral is evaluated only if its nodes fit
    in samples.MAX_GRID_POINTS, read at each call."""

    def test_default_cap_admits_every_level_up_to_4096_cells(self):
        assert 4096 * 16 << MAX_DOUBLINGS == samples.MAX_GRID_POINTS

    def test_settling_integral_is_refused_when_no_halving_fits(self, monkeypatch):
        """bm with cos settles, but with room for level 0 alone no second
        total is ever compared: no tolerance was achieved."""
        monkeypatch.setattr(samples, "MAX_GRID_POINTS", 16 * 8)
        with pytest.raises(QuadratureFailure, match="kernel 'bm'") as caught:
            projection_distance(preset("bm"), COS, 8)
        assert caught.value.achieved == math.inf

    def test_rate_sweep_names_the_stopped_member(self, monkeypatch):
        monkeypatch.setattr(samples, "MAX_GRID_POINTS", 1 << 12)
        family = fixed_family("cos", [COS])
        report = rate_sweep("projection", make_kernel("quintic", "t^5", "1"), family,
                            n_grid=(8, 16))
        assert report.failures == (("QuadratureFailure",),) * 2
        for line in report.lines()[1:3]:
            assert line.endswith("[failed: QuadratureFailure]"), line


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


def test_a_factor_that_returns_its_input_is_only_read():
    """A factor may return its input array itself, as the linear presets'
    u does. Here u hands back a read-only view of it, so a reader that
    wrote into u's values would raise; the grid is read-only as well, and
    every result is slepian's own."""
    slepian = preset("slepian")

    def u(t):
        view = np.asarray(t, dtype=float).view()
        view.flags.writeable = False
        return view

    kernel = GaussMarkovKernel("slepian", u, slepian.v, slepian.u_prime, slepian.v_prime)
    grid = path_grid(16)
    grid.flags.writeable = False
    y = np.asarray(COS.antiderivative(design_knots(16)))
    np.testing.assert_array_equal(kriging_interpolate(kernel, y, grid),
                                  kriging_interpolate(slepian, y, grid))
    np.testing.assert_array_equal(sample_paths(kernel, grid, 3, 0),
                                  sample_paths(slepian, grid, 3, 0))
    assert validate_assumption(kernel).lines() == validate_assumption(slepian).lines()
    np.testing.assert_array_equal(grid, path_grid(16))


def _delta_sq(kernel, f, n: int) -> float:
    """Delta^2 = n D_n + 2 KL, the squared Mahalanobis distance between the
    mean of the path rebuilt from discrete data and that of the path
    experiment, for this f."""
    return n * projection_distance(kernel, f, n) + 2.0 * kl_sequential(kernel, f, n)


def _riemann_error(f, n: int) -> float:
    """R_n(f) = (1/n) sum_i f(i/n) - integral_0^1 f."""
    return float(np.sum(f(design_knots(n)))) / n - f.integral()


class TestBmToBridgeLaw:
    """On the kernels u = t, v = 1 - a t, Delta^2_a = Delta^2_bm + a/(1 - a)
    n R_n^2 exactly: a check of the projection integrand and the sequential
    KL on kernels with non-constant v, against an identity rather than
    the dense oracles."""

    SOBOLEV = [sample_ellipsoid(ClassSpec.sobolev(1.0, 1.0), K=96, seed=s) for s in (0, 1)]

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_slepian_is_half_bm_plus_riemann_error(self, n):
        """slepian's v = 2 - t is 2 (1 - t/2): its covariance is twice that
        of a = 1/2, so its Delta^2 is half of a = 1/2's,
        (Delta^2_bm + n R_n^2) / 2."""
        for f in self.SOBOLEV:
            expected = 0.5 * (_delta_sq(preset("bm"), f, n) + n * _riemann_error(f, n) ** 2)
            assert math.isclose(_delta_sq(preset("slepian"), f, n), expected, rel_tol=1e-12)

    @pytest.mark.parametrize("a", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("n", [8, 16])
    def test_expression_kernel_adds_the_riemann_term(self, a, n):
        kernel = make_kernel(f"a={a}", "t", f"1 - {a}*t")
        for f in self.SOBOLEV:
            expected = (_delta_sq(preset("bm"), f, n)
                        + a / (1.0 - a) * n * _riemann_error(f, n) ** 2)
            assert math.isclose(_delta_sq(kernel, f, n), expected, rel_tol=1e-9)
