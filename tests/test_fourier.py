"""Tests for finite Fourier sums, their calculus, and the smoothness classes."""

import json
import math
import re
import sys
import warnings

import numpy as np
import pytest

from gmequiv import counterexample, fourier
from gmequiv.errors import HermitianViolation
from gmequiv.kernels import preset
from gmequiv.fourier import (
    ClassSpec,
    FourierFunction,
    function_from_spec,
    sample_ellipsoid,
    scale_into_hoelder_ball,
)
from gmequiv.rkhs import _gauss_rule, projection_distance
from gmequiv.samples import block_rows, design_knots, path_grid


def _grid_hoelder_estimate(fn: FourierFunction, alpha: float,
                           size: int = 2001) -> tuple[float, float]:
    """max |f(x) - f(y)| / |x - y|^alpha over all pairs of the grid
    i/(size - 1), and max |f| there: lower bounds on the Hoelder constant
    and the sup norm, since a grid sees only finitely many pairs."""
    xs = path_grid(1, size)
    vals = fn(xs)
    best = 0.0
    for i in range(size - 1):
        ratios = np.abs(vals[i + 1 :] - vals[i]) / (xs[i + 1 :] - xs[i]) ** alpha
        best = max(best, float(ratios.max()))
    return best, float(np.max(np.abs(vals)))


def _certified_constant(fn: FourierFunction, alpha: float) -> float:
    """The Hoelder-constant bound scale_into_hoelder_ball divides by,
    read back from the factor it scales fn by when L = 1 and M = inf."""
    scaled = scale_into_hoelder_ball(fn, ClassSpec.hoelder(alpha, 1.0))
    k = int(np.argmax(np.abs(fn.theta)))
    return 0.95 * abs(fn.theta[k]) / abs(scaled.theta[k])


def _random_function(seed: int, K: int = 5) -> FourierFunction:
    gen = np.random.default_rng(seed)
    coeffs = {0: complex(gen.normal(), 0.0)}
    for k in range(1, K + 1):
        coeffs[k] = complex(gen.normal(), gen.normal()) / k
    return FourierFunction.from_coeffs(coeffs, name=f"rand{seed}")


class TestEvaluation:
    def test_harmonic_is_cosine(self):
        xs = np.linspace(0, 1, 257)
        for k in (1, 3, 7):
            fn = FourierFunction.harmonic(k, 2.5)
            np.testing.assert_allclose(fn(xs), 2.5 * np.cos(2 * np.pi * k * xs),
                                       rtol=0, atol=1e-12)

    def test_matches_direct_sum(self):
        fn = _random_function(4)
        xs = np.linspace(0, 1, 101)
        direct = np.zeros(101, dtype=complex)
        for k in fn.ks:
            direct += fn.coeff(int(k)) * np.exp(-2j * np.pi * k * xs)
        np.testing.assert_allclose(fn(xs), direct.real, rtol=0, atol=1e-12)
        assert np.max(np.abs(direct.imag)) < 1e-12

    def test_scalar_and_shape(self):
        fn = FourierFunction.harmonic(2)
        assert isinstance(fn(0.3), float)
        assert fn(np.zeros((3, 4))).shape == (3, 4)

    def test_zero_function(self):
        z = FourierFunction.zero()
        assert z.integral() == 0.0
        np.testing.assert_array_equal(z(np.linspace(0, 1, 5)), np.zeros(5))

    def test_coeff_outside_range_is_zero(self):
        assert FourierFunction.harmonic(1).coeff(99) == 0.0


class TestHermitianEnforcement:
    def test_conflicting_pair(self):
        with pytest.raises(HermitianViolation, match="not conjugate"):
            FourierFunction.from_coeffs({1: 1.0 + 0.5j, -1: 1.0 + 0.5j})

    def test_complex_constant_term(self):
        with pytest.raises(HermitianViolation, match="worst at k=0"):
            FourierFunction.from_coeffs({0: 1.0 + 1.0j})

    def test_raw_array_symmetry(self):
        bad = np.array([0.5j, 1.0, 0.5j])  # conj mirror would be -0.5j
        with pytest.raises(HermitianViolation):
            FourierFunction(1, bad, "bad")

    def test_wrong_length(self):
        with pytest.raises(HermitianViolation, match="length"):
            FourierFunction(2, np.zeros(3, dtype=complex), "short")

    def test_mirror_completion(self):
        fn = FourierFunction.from_coeffs({2: 1.0 - 2.0j})
        assert fn.coeff(-2) == 1.0 + 2.0j

    def test_largest_coefficients_stay_symmetric(self):
        """Coefficients near the float limit are averaged with their mirrors
        without overflow, so no warning and no false asymmetry."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn = function_from_spec('{"coeffs": [[1, 1e308, 0], [-1, 1e308, 0]]}')
        assert fn.coeff(1) == fn.coeff(-1) == 1e308

    def test_harmonic_frequency_is_bounded(self):
        with pytest.raises(ValueError, match="above MAX_FREQUENCY"):
            FourierFunction.harmonic(fourier.MAX_FREQUENCY + 1)
        assert FourierFunction.harmonic(-fourier.MAX_FREQUENCY).K == fourier.MAX_FREQUENCY

    def test_from_coeffs_bounds_the_frequency_for_every_builder(self):
        """One check in from_coeffs holds harmonic (above), function specs
        and the counterexample's spike to MAX_FREQUENCY, naming the k."""
        k = fourier.MAX_FREQUENCY + 1
        message = f"k = -?{k} is above MAX_FREQUENCY = {fourier.MAX_FREQUENCY}"
        for build in (lambda: FourierFunction.from_coeffs({1: 1.0, -k: 0.5}),
                      lambda: function_from_spec({"coeffs": [[k, 1.0, 0.0]]}),
                      lambda: counterexample.build_fn(k, 1.0, 1.0)):
            with pytest.raises(ValueError, match=message):
                build()


def _hermitian_function(seed: int, K: int) -> FourierFunction:
    gen = np.random.default_rng(seed)
    half = gen.normal(size=K) + 1j * gen.normal(size=K)
    theta = np.concatenate([np.conj(half[::-1]), [gen.normal()], half])
    return FourierFunction(K, theta, f"hermitian{K}")


def _direct_sums(fn: FourierFunction, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(t) and F(t) summed term by term with np.exp, no folding."""
    ks = fn.ks
    phases = np.exp(-2j * np.pi * np.outer(t, ks))
    values = (phases @ fn.theta).real
    nonzero = ks != 0
    osc = (phases[:, nonzero] - 1.0) @ (fn.theta[nonzero] / (-2j * np.pi * ks[nonzero]))
    return values, osc.real + fn.integral() * t


def _gauss_nodes(n: int) -> np.ndarray:
    """The (2n, 16) node array of one halving on the design knots of n,
    built as rkhs._residual_integral builds it: row r holds (r + u_s) / 2n
    for the [0, 1] Gauss nodes u_s."""
    nodes, _ = _gauss_rule()
    return (np.arange(2 * n)[:, None] + nodes) / (2 * n)


@pytest.fixture
def dense_calls(monkeypatch):
    """Count the calls of the dense route."""
    calls = []
    dense = fourier._dense_sum

    def spy(*args):
        calls.append(args[0].size)
        return dense(*args)

    monkeypatch.setattr(fourier, "_dense_sum", spy)
    return calls


class TestGridRoute:
    """Arrays whose columns are (j0 + frac_c + arange(L)) / m, with one m
    and one j0 and L >= m - 1, go through one folded FFT; the result must
    match the term-by-term sum."""

    @pytest.mark.parametrize("K", [0, 1, 7, 64, 300])
    def test_matches_direct_sum(self, K, dense_calls):
        fn = _hermitian_function(K + 11, K)
        tol = 1e-13 * float(np.sum(np.abs(fn.theta)))
        for m in (1, 2, 3, 16, 17, 1000):
            for j0 in (-m - 1, -1, 0, 1, 5):
                for size in (m - 1, m, m + 1, 3 * m):
                    t = (j0 + np.arange(size)) / m
                    values, integral = _direct_sums(fn, t)
                    np.testing.assert_allclose(fn(t), values, rtol=0, atol=tol,
                                               err_msg=f"m={m} j0={j0} L={size}")
                    np.testing.assert_allclose(fn.antiderivative(t), integral,
                                               rtol=0, atol=tol,
                                               err_msg=f"m={m} j0={j0} L={size}")
                    # two points fix the grid; fewer fall back to the dense sum
                    assert not dense_calls or size < 2
                    dense_calls.clear()

    def test_grid_off_by_one_ulp_takes_the_fft(self, dense_calls):
        """One ulp is inside the progression tolerance: the point is
        evaluated at the grid point it misses, within the sums' rounding."""
        fn = _hermitian_function(3, 64)
        tol = 1e-13 * float(np.sum(np.abs(fn.theta)))
        t = path_grid(16)
        t[101] = np.nextafter(t[101], 2.0)
        values, integral = _direct_sums(fn, t)
        np.testing.assert_allclose(fn(t), values, rtol=0, atol=tol)
        np.testing.assert_allclose(fn.antiderivative(t), integral, rtol=0, atol=tol)
        assert dense_calls == []

    def test_grid_off_beyond_the_tolerance_goes_dense(self, dense_calls):
        fn = _hermitian_function(3, 64)
        tol = 1e-13 * float(np.sum(np.abs(fn.theta)))
        t = path_grid(16)
        t[101] += 2 * fourier._PROGRESSION_TOL
        values, integral = _direct_sums(fn, t)
        np.testing.assert_allclose(fn(t), values, rtol=0, atol=tol)
        np.testing.assert_allclose(fn.antiderivative(t), integral, rtol=0, atol=tol)
        assert dense_calls == [t.size, t.size]

    @pytest.mark.parametrize("n", [1, 3, 16, 100])
    def test_gauss_node_columns_take_the_fft(self, n, dense_calls):
        """Each column of a halving's node array is a progression with a
        fractional offset; with one column perturbed beyond the tolerance
        the whole array goes dense."""
        fn = _hermitian_function(n, 2 * n)
        tol = 1e-13 * float(np.sum(np.abs(fn.theta)))
        xs = _gauss_nodes(n)
        values, integral = _direct_sums(fn, xs.ravel())
        np.testing.assert_allclose(fn(xs), values.reshape(xs.shape), rtol=0, atol=tol)
        np.testing.assert_allclose(fn.antiderivative(xs), integral.reshape(xs.shape),
                                   rtol=0, atol=tol)
        assert dense_calls == []
        xs[xs.shape[0] // 2, 5] += 2 * fourier._PROGRESSION_TOL
        values, _ = _direct_sums(fn, xs.ravel())
        np.testing.assert_allclose(fn(xs), values.reshape(xs.shape), rtol=0, atol=tol)
        assert dense_calls == [xs.size]

    @pytest.mark.parametrize("j0", [-3, 0, 17])
    def test_grid_columns_with_one_start_take_the_fft(self, j0, dense_calls):
        """Columns (j0 + frac + r)/m with one j0, exact (frac = 0) or not,
        share one FFT and one rotation; each column keeps the bits of its
        own 1-d evaluation."""
        fn = _hermitian_function(5, 40)
        tol = 1e-13 * float(np.sum(np.abs(fn.theta)))
        t = (j0 + np.array([0.0, 0.25, 0.5])[None, :] + np.arange(20)[:, None]) / 16
        values, integral = _direct_sums(fn, t.ravel())
        np.testing.assert_allclose(fn(t), values.reshape(t.shape), rtol=0, atol=tol)
        np.testing.assert_allclose(fn.antiderivative(t), integral.reshape(t.shape),
                                   rtol=0, atol=tol)
        batched = fn(t)
        for c in range(t.shape[1]):
            np.testing.assert_array_equal(batched[:, c], fn(t[:, c]))
        assert dense_calls == []

    def test_columns_within_tolerance_of_one_grid_take_the_fft(self, dense_calls):
        """The knots j/49 next to linspace(1/49, 1, 49), which differs from
        them by at most one ulp: its start 49 t[0] rounds below 1, yet both
        columns anchor at the grid point 1/49 and share one FFT."""
        fn = _hermitian_function(9, 64)
        tol = 1e-13 * float(np.sum(np.abs(fn.theta)))
        t = np.stack([design_knots(49), np.linspace(1 / 49, 1, 49)], axis=1)
        assert 0 < np.max(np.abs(t[:, 1] - t[:, 0])) <= fourier._PROGRESSION_TOL
        m, j0, frac = fourier._progression(t)
        assert (m, j0, frac.tolist()) == (49, 1, [0.0, 0.0])
        values, integral = _direct_sums(fn, t.ravel())
        np.testing.assert_allclose(fn(t), values.reshape(t.shape), rtol=0, atol=tol)
        np.testing.assert_allclose(fn.antiderivative(t), integral.reshape(t.shape),
                                   rtol=0, atol=tol)
        assert dense_calls == []

    @pytest.mark.parametrize("j0", [-253, 115, 225])
    def test_exact_grid_far_from_the_origin_anchors_at_its_start(self, j0):
        """(j0 + r)/7 bit for bit: the start 7 t[0] misses j0 by 1.4e-14 or
        2.8e-14, more than m = 7 times the tolerance, but t[0] is the grid
        point j0/7 itself, so the column anchors at j0 with frac 0."""
        t = (j0 + np.arange(8)) / 7
        m, found, frac = fourier._progression(t[:, None])
        assert (m, found, frac.tolist()) == (7, j0, [0.0])

    def test_exact_grid_columns_with_different_starts(self, dense_calls):
        """Columns j/m with different first j are no single progression:
        the whole array takes the dense sum."""
        fn = _hermitian_function(5, 40)
        tol = 1e-13 * float(np.sum(np.abs(fn.theta)))
        t = (np.array([-3, 0, 5, 17])[None, :] + np.arange(20)[:, None]) / 16
        values, integral = _direct_sums(fn, t.ravel())
        np.testing.assert_allclose(fn(t), values.reshape(t.shape), rtol=0, atol=tol)
        np.testing.assert_allclose(fn.antiderivative(t), integral.reshape(t.shape),
                                   rtol=0, atol=tol)
        assert dense_calls == [t.size, t.size]

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 64])
    def test_fold_keeps_the_bits_of_an_ascending_loop(self, m):
        """_fft_columns bit for bit against a plain loop that adds each
        coefficient whose residue k mod m lies in 0..m//2, times its phase
        when some frac != 0, into its spectrum entry in ascending k order,
        followed by the same inverse FFT and the rotation (j0 + r) mod m.
        Signed zeros among the weights included."""
        for K in sorted({max(m // 2 - 1, 0), m, 3 * m + 1, 100 * m}):
            weights = _hermitian_function(K + m, K).theta.copy()
            weights[K // 3 :: 7] = complex(-0.0, 0.0)
            weights[-1 - K // 3 :: -7] = complex(-0.0, -0.0)
            ks = np.arange(-K, K + 1)
            for frac in (np.zeros(2), np.array([0.0, 0.25, 0.7])):
                terms = weights[None, :]
                if np.any(frac):
                    phases = np.exp(np.multiply.outer(frac * (-2j * np.pi / m), ks))
                    terms = np.multiply(terms, phases)
                spectrum = np.zeros((terms.shape[0], m // 2 + 1), dtype=complex)
                for i, k in enumerate(ks.tolist()):
                    if k % m <= m // 2:
                        for c in range(terms.shape[0]):
                            spectrum[c, k % m] += terms[c, i]
                values = np.fft.irfft(np.conj(spectrum), n=m, axis=1, norm="forward").T
                for j0 in (-2 * m - 1, 0, 13):
                    for size in {max(m - 1, 1), m, 3 * m + 2}:
                        expected = np.broadcast_to(values[(j0 + np.arange(size)) % m],
                                                   (size, frac.size))
                        got = fourier._fft_columns(ks, weights, m, j0, frac, size)
                        assert np.array_equal(got, expected), f"m={m} K={K} j0={j0} L={size}"

    @pytest.mark.parametrize("kernel", ["bm", "ou", "slepian"])
    @pytest.mark.parametrize("n", [16, 64])
    def test_projection_distance_never_goes_dense(self, kernel, n, dense_calls):
        k = preset(kernel, 1.0) if kernel == "ou" else preset(kernel)
        f = sample_ellipsoid(ClassSpec.sobolev(1.0, 1.0), K=2 * n, seed=n)
        assert projection_distance(k, f, n) > 0.0
        assert dense_calls == []

    def test_dense_route_across_a_chunk_boundary(self, dense_calls):
        fn = _hermitian_function(5, 64)
        t = np.random.default_rng(7).random(3000)
        assert t.size > block_rows(fn.ks.size)
        direct = np.zeros(t.size, dtype=complex)
        for k in fn.ks:
            direct += fn.coeff(int(k)) * np.exp(-2j * np.pi * k * t)
        np.testing.assert_allclose(fn(t), direct.real, rtol=0, atol=1e-12)
        assert dense_calls == [t.size]

    def test_knots_and_path_grids_never_go_dense(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense route taken at grid points")

        monkeypatch.setattr(fourier, "_dense_sum", refuse)
        fn = _hermitian_function(8, 8192)
        grid = path_grid(4096, 4097)
        assert fn(grid).shape == (4097,)
        assert fn.antiderivative(grid).shape == (4097,)
        assert fn.cell_averages(4096).shape == (4096,)

    def test_non_hermitian_theta_raises_on_both_routes(self, dense_calls):
        fn = _random_function(6)
        theta = fn.theta.copy()
        theta[fn.K + 1] += 0.5j
        object.__setattr__(fn, "theta", theta)
        with pytest.raises(HermitianViolation, match="imaginary residue"):
            fn(path_grid(8))
        assert dense_calls == []
        with pytest.raises(HermitianViolation, match="imaginary residue"):
            fn(_gauss_nodes(8))
        assert dense_calls == []
        with pytest.raises(HermitianViolation, match="imaginary residue"):
            fn(np.array([0.1, 0.37, 0.5]))
        assert dense_calls == [3]

    @pytest.mark.parametrize("points, dense", [([0.25, 0.75], []), ([0.25, 0.75, 1.75], [3])])
    def test_residue_that_vanishes_at_the_points_still_raises(self, points, dense, dense_calls):
        """0.5i added to theta_1 and theta_-1 makes the imaginary part
        cos(2 pi t), which is 0 at every point asked for: the weights are
        checked, not the values, on the FFT route (two points) and the
        dense one (three)."""
        fn = FourierFunction.harmonic(1)
        theta = fn.theta.copy()
        theta[[0, 2]] += 0.5j
        object.__setattr__(fn, "theta", theta)
        with pytest.raises(HermitianViolation, match="imaginary residue"):
            fn(np.array(points))
        assert dense_calls == dense


class TestCalculus:
    def test_antiderivative_of_cosine(self):
        fn = FourierFunction.harmonic(3)
        ts = np.linspace(0, 1, 101)
        np.testing.assert_allclose(fn.antiderivative(ts),
                                   np.sin(2 * np.pi * 3 * ts) / (2 * np.pi * 3),
                                   rtol=0, atol=1e-13)

    def test_antiderivative_against_finite_differences(self):
        fn = _random_function(9)
        ts = np.linspace(0.05, 0.95, 19)
        h = 1e-6
        derivative = (fn.antiderivative(ts + h) - fn.antiderivative(ts - h)) / (2 * h)
        np.testing.assert_allclose(derivative, fn(ts), rtol=1e-7, atol=1e-7)

    def test_antiderivative_starts_at_zero(self):
        assert _random_function(2).antiderivative(0.0) == 0.0

    def test_cell_averages_telescope_to_integral(self):
        fn = _random_function(5)
        for n in (4, 7, 16):
            avg = fn.cell_averages(n)
            assert avg.shape == (n,)
            assert math.isclose(float(np.sum(avg)) / n, fn.integral(),
                                rel_tol=0, abs_tol=1e-14)

    def test_parseval_against_periodic_trapezoid(self):
        """Integral of f^2 equals the coefficient energy. The periodic
        trapezoid rule is exact for trigonometric polynomials well below
        the grid frequency, so the tolerance can be tight."""
        fn = _random_function(7)
        m = 4096
        xs = np.arange(m) / m
        quad = float(np.mean(fn(xs) ** 2))
        np.testing.assert_allclose(quad, np.sum(np.abs(fn.theta) ** 2), rtol=1e-12)

    def test_integral_is_constant_coefficient(self):
        fn = FourierFunction.from_coeffs({0: 0.75, 2: 0.1 + 0.2j})
        assert fn.integral() == 0.75


class TestAlgebra:
    def test_scaled(self):
        fn = _random_function(1)
        xs = np.linspace(0, 1, 33)
        np.testing.assert_allclose(fn.scaled(2.5)(xs), 2.5 * fn(xs), rtol=1e-14)

    def test_sobolev_norm_closed_form(self):
        # c at k=0 and -c/2 at k = +-n: norm^2 = c^2 (1 + (1+n)^{2 beta} / 2)
        n, beta = 8, 1.0
        c = math.sqrt(2.0 / 3.0) * 8.0 ** -1.0
        fn = FourierFunction.from_coeffs({0: c, n: -c / 2, -n: -c / 2})
        expected = c * c * (1.0 + (1.0 + n) ** (2 * beta) / 2.0)
        assert math.isclose(fn.sobolev_norm_sq(beta), expected, rel_tol=1e-12)

    def test_sobolev_weight_overflow_names_beta_and_k(self):
        with pytest.raises(ValueError, match=r"overflows at beta = 60\.0, k = 512"):
            FourierFunction.harmonic(512).sobolev_norm_sq(60.0)

    def test_finite_norm_whose_square_overflows(self):
        """cos(2 pi 1024 x) at beta = 60 has norm 1025^60 / sqrt(2), about
        4e180, though its square is beyond the largest float."""
        fn = FourierFunction.harmonic(1024)
        assert math.isclose(fn.sobolev_norm(60.0), 1025.0**60 / math.sqrt(2.0), rel_tol=1e-14)
        with pytest.raises(ValueError, match=r"norm\^2 overflows at beta = 60\.0, k = 1024"):
            fn.sobolev_norm_sq(60.0)

    def test_small_coefficient_under_an_overflowing_weight(self):
        """(1 + 1000)^120 overflows, but the weighted term
        (1 + 1000)^60 |theta_1000| = 1e180 * 1e-200 does not."""
        fn = FourierFunction.from_coeffs({0: 1.0, 1000: 1e-200})
        expected = 1.0 + 2.0 * (1001.0**60 * 1e-200) ** 2
        assert math.isclose(fn.sobolev_norm_sq(60.0), expected, rel_tol=1e-12)

    def test_zero_coefficient_takes_no_weight(self):
        """theta_600 = 0 adds nothing, though (1 + 600)^120 overflows."""
        fn = FourierFunction.from_coeffs({0: 0.5, 1: 0.25, 600: 0.0})
        assert fn.sobolev_norm_sq(60.0) == 0.25 + 2.0 * 2.0**120 * 0.0625

    def test_content_id_tracks_coefficients(self):
        a = FourierFunction.harmonic(1)
        b = FourierFunction.harmonic(1)
        c = FourierFunction.harmonic(1, 1.0 + 1e-9)
        assert a.content_id() == b.content_id()
        assert a.content_id() != c.content_id()


class TestJsonSurface:
    def test_round_trip(self):
        fn = _random_function(12)
        again = function_from_spec(json.loads(fn.to_json()))
        np.testing.assert_array_equal(fn.theta, again.theta)
        assert again.name == fn.name

    def test_from_inline_string(self):
        fn = function_from_spec('{"coeffs": [[0, 0.5, 0], [2, 0.25, -0.1]]}')
        assert fn.integral() == 0.5
        assert fn.coeff(-2) == 0.25 + 0.1j
        # an integral float is an integer k
        assert function_from_spec('{"coeffs": [[2e0, 0.25, -0.1]]}').coeff(-2) == 0.25 + 0.1j

    def test_from_file(self, tmp_path):
        path = tmp_path / "fn.json"
        path.write_text('{"name": "fromfile", "coeffs": [[1, 0.5, 0]]}')
        fn = function_from_spec(str(path))
        assert fn.name == "fromfile"
        assert fn.coeff(1) == 0.5

    @pytest.mark.parametrize("text", ["[1]", '"x"', "1", "null"])
    def test_json_that_is_not_an_object_is_refused(self, tmp_path, text):
        path = tmp_path / "fn.json"
        path.write_text(text)
        for spec in (text, str(path)):
            with pytest.raises(ValueError, match="must be a JSON object"):
                function_from_spec(spec)


class TestClassSpec:
    def test_kinds(self):
        assert ClassSpec.sobolev(1.0, 2.0).kind == "sobolev"
        assert ClassSpec.hoelder(0.8, 1.0).kind == "hoelder"
        with pytest.raises(ValueError):
            ClassSpec(kind="besov")
        with pytest.raises(ValueError):
            ClassSpec.sobolev(1.0, 0.0)
        with pytest.raises(ValueError):
            ClassSpec.hoelder(1.5, 1.0)

    @pytest.mark.parametrize("alpha", [1.5, 0.0, -2.0])
    def test_hoelder_exponent_is_checked_on_direct_construction(self, alpha):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            ClassSpec(kind="hoelder", alpha=alpha)

    @pytest.mark.parametrize("params, name", [
        ({"beta": math.nan}, "beta"), ({"beta": math.inf}, "beta"),
        ({"alpha": math.nan}, "alpha"), ({"L": math.nan}, "L"), ({"L": math.inf}, "L"),
        ({"M": math.nan}, "M"),
    ])
    def test_non_finite_parameters_are_refused(self, params, name):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            ClassSpec(kind="sobolev", **params)

    @pytest.mark.parametrize("kind", ["sobolev", "hoelder"])
    def test_radius_whose_square_overflows_is_refused(self, kind):
        """L^2 sets the scale of every sobolev member, so an L past about
        1.34e154 is refused for both kinds, and the largest L below it is
        kept."""
        for L in (1e160, 1e300, math.sqrt(sys.float_info.max) * (1 + 1e-15)):
            with pytest.raises(ValueError, match=re.escape(f"L = {L!r} is too large")):
                ClassSpec(kind=kind, alpha=0.5, L=L)
        assert ClassSpec(kind=kind, alpha=0.5, L=1e154).L == 1e154
        assert sample_ellipsoid(ClassSpec.sobolev(1.0, 1e154), K=4, seed=0).sobolev_norm(1.0) > 0
    def test_deterministic_in_seed(self):
        spec = ClassSpec.sobolev(1.0, 1.0)
        a = sample_ellipsoid(spec, K=16, seed=5)
        b = sample_ellipsoid(spec, K=16, seed=5)
        c = sample_ellipsoid(spec, K=16, seed=6)
        np.testing.assert_array_equal(a.theta, b.theta)
        assert not np.array_equal(a.theta, c.theta)

    def test_sobolev_norm_at_95_percent(self):
        spec = ClassSpec.sobolev(1.5, 2.0)
        fn = sample_ellipsoid(spec, K=32, seed=0)
        assert math.isclose(fn.sobolev_norm_sq(1.5), 0.95 * 4.0, rel_tol=1e-12)

    def test_hoelder_member_is_consistent(self):
        spec = ClassSpec.hoelder(0.8, 1.0, M=2.0)
        fn = sample_ellipsoid(spec, K=8, seed=3)
        constant, sup_norm = _grid_hoelder_estimate(fn, spec.alpha)
        assert constant <= spec.L
        assert sup_norm <= spec.M


class TestHoelderCheck:
    """scale_into_hoelder_ball's closed-form bounds against the grid scan,
    which bounds the same quantities from below."""

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    @pytest.mark.parametrize("K", [8, 64, 512])
    def test_certified_constant_bounds_the_grid_estimate(self, alpha, K):
        """A member sits at 95% of its certified constant, so the grid must
        see no more than 0.95 L."""
        spec = ClassSpec.hoelder(alpha, 1.0)
        fn = sample_ellipsoid(spec, K=K, seed=K)
        constant, _ = _grid_hoelder_estimate(fn, alpha)
        assert constant <= 0.95 * spec.L * (1 + 1e-12)
        assert math.isclose(_certified_constant(fn, alpha), 0.95 * spec.L, rel_tol=1e-12)

    def test_cosine_slope_estimate(self):
        """For cos(2 pi x) with alpha = 1 the certified constant is the
        maximum slope 2 pi, and the grid estimate approaches it from below."""
        fn = FourierFunction.harmonic(1)
        certified = _certified_constant(fn, 1.0)
        assert math.isclose(certified, 2 * np.pi, rel_tol=1e-15)
        constant, sup_norm = _grid_hoelder_estimate(fn, 1.0)
        assert constant <= certified
        assert math.isclose(constant, certified, rel_tol=1e-3)
        assert math.isclose(sup_norm, 1.0, rel_tol=1e-9)

    def test_refutation_is_one_sided(self):
        fn = FourierFunction.harmonic(1)
        # the grid estimate refutes L = 1, and the certified constant 2 pi
        # certifies L = 7, which the grid cannot refute
        constant, _ = _grid_hoelder_estimate(fn, 1.0)
        assert 1.0 < constant <= _certified_constant(fn, 1.0) <= 7.0

    def test_sup_norm_bound_refutes(self):
        """3 cos(2 pi x) breaks M = 1 and is scaled down to 0.95 M, far
        inside L = 100."""
        fn = FourierFunction.harmonic(1, 3.0)
        spec = ClassSpec.hoelder(1.0, 100.0, M=1.0)
        assert _grid_hoelder_estimate(fn, 1.0)[1] > spec.M
        scaled = scale_into_hoelder_ball(fn, spec)
        constant, sup_norm = _grid_hoelder_estimate(scaled, 1.0)
        assert math.isclose(float(np.sum(np.abs(scaled.theta))), 0.95 * spec.M, rel_tol=1e-12)
        assert sup_norm <= 0.95 * spec.M * (1 + 1e-12)
        assert constant <= 0.95 * 2 * np.pi * (1 + 1e-12) <= spec.L

    def test_constant_function_keeps_its_scale(self):
        """theta_0 alone has Hoelder constant 0, so L does not bind: the
        member keeps its uniform(-1, 1) draw, and only a finite M caps it."""
        member = sample_ellipsoid(ClassSpec.hoelder(0.8, 1.0), K=0, seed=0)
        assert member.K == 0 and 0 < abs(member.theta[0]) <= 1
        const = FourierFunction.harmonic(0, 0.3)
        assert scale_into_hoelder_ball(const, ClassSpec.hoelder(0.8, 1.0)).theta[0] == 0.3
        capped = scale_into_hoelder_ball(const, ClassSpec.hoelder(0.8, 1.0, M=0.1))
        assert math.isclose(capped.theta[0].real, 0.095, rel_tol=1e-15)

    def test_needs_hoelder_spec(self):
        with pytest.raises(ValueError):
            scale_into_hoelder_ball(FourierFunction.zero(), ClassSpec.sobolev(1.0, 1.0))
