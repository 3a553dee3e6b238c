"""Tests for the sufficiency statistics, KL routes, and rate sweeps."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gmequiv import diagnostics, rkhs, samples
from gmequiv.diagnostics import (
    DEFAULT_N_GRID,
    STATISTICS,
    band_split_decomposition,
    band_terms_statistic,
    class_extremal_family,
    discretization_statistic,
    fixed_family,
    kl_chain,
    kl_dense,
    kl_sequential,
    projection_statistic,
    random_family,
    rate_sweep,
    single_frequency_family,
    transformation_discrepancy,
)
from gmequiv.errors import (
    DegenerateCell,
    KernelDegenerate,
    QuadratureFailure,
    SingularCovariance,
)
from gmequiv.fourier import MAX_FREQUENCY, ClassSpec, FourierFunction, sample_ellipsoid
from gmequiv.kernels import gram, make_kernel, preset
from gmequiv.rkhs import kriging_interpolate, projection_distance
from gmequiv.samples import block_rows, design_knots

COS = FourierFunction.harmonic(1)
KERNELS = ("bm", "ou", "slepian")


def _kernel(name):
    return preset(name, 1.0) if name == "ou" else preset(name)


def _slope(ns, values):
    return float(np.polyfit(np.log10(ns), np.log10(values), 1)[0])


class TestDiscretizationStatistic:
    def test_against_quadrature_oracle(self):
        """Rebuild the statistic from scratch: point values from math.cos,
        cell integrals from scipy.quad, clock increments from the closed
        forms. No shared code path with the implementation."""
        n = 8
        for name in KERNELS:
            k = _kernel(name)
            total = 0.0
            for i in range(1, n + 1):
                t = i / n
                cell_avg = n * quad(lambda x: math.cos(2 * math.pi * x),
                                    (i - 1) / n, t, epsabs=1e-14)[0]
                d = math.cos(2 * math.pi * t) - cell_avg
                dq = float(k.clock(t)[2]) - float(k.clock((i - 1) / n)[2])
                total += d * d / (float(k.v(t)) ** 2 * dq)
            oracle = total / n
            value = discretization_statistic(k, COS, n)
            assert math.isclose(value, oracle, rel_tol=1e-10), name

    @pytest.mark.parametrize("rate", [0.3, 1.0, 5.0, 30.0, 100.0, 300.0])
    def test_ou_is_bm_scaled_exactly(self, rate):
        """On ou(L), v_i^2 dq_i = 1 - e^{-2L/n} in every cell, so the
        statistic is bm's over n (1 - e^{-2L/n}) for every f and n, far
        past the rates a pinned reading of v(1) = e^{-L} used to refuse."""
        f = sample_ellipsoid(ClassSpec.sobolev(1.0, 1.0), K=40, seed=3)
        for n in (1, 2, 7, 64, 1024):
            bm = discretization_statistic(preset("bm"), f, n)
            law = bm / (n * -math.expm1(-2.0 * rate / n))
            value = discretization_statistic(preset("ou", rate), f, n)
            assert math.isclose(value, law, rel_tol=1e-12), (rate, n, value, law)

    def test_constant_signal_is_exactly_zero(self):
        """Constant f has identical point values and cell averages, so the
        per-cell statistics are 0.0 exactly (not merely small) for every
        preset, the bridge's pinned cell included. Dyadic amplitudes and
        power-of-two n keep every knot and every cell boundary exactly
        representable."""
        for amplitude in (1.0, 0.5, -2.25):
            f = FourierFunction.harmonic(0, amplitude)
            for name in ("bm", "ou", "bridge", "slepian"):
                k = _kernel(name)
                for stat in (discretization_statistic, kl_chain, kl_sequential):
                    assert stat(k, f, 16) == 0.0, (stat.__name__, name, amplitude)

    def test_nonzero_gap_on_the_pinned_cell_is_singular(self):
        """The bridge's last cell has v = 0 and an infinite clock
        increment; a nonzero gap there has no finite weight."""
        for stat in (discretization_statistic, kl_chain, kl_sequential):
            with pytest.raises(SingularCovariance):
                stat(preset("bridge"), COS, 16)

    def test_single_frequency_decay_rate(self):
        """Under bm with f = cos(2 pi x), the statistic behaves like
        pi^2/(2n): slope -1 on a log-log grid, constant pinned at n = 512."""
        ns = (32, 64, 128, 256, 512)
        values = [discretization_statistic(preset("bm"), COS, n) for n in ns]
        slope = _slope(ns, values)
        assert -1.05 <= slope <= -0.95
        assert math.isclose(values[-1], math.pi ** 2 / (2 * 512), rel_tol=1e-3)


class TestKlRoutes:
    def test_chain_is_half_the_statistic(self):
        k = preset("ou", 1.0)
        assert kl_chain(k, COS, 8) == 0.5 * discretization_statistic(k, COS, 8)

    def test_sequential_equals_dense_for_every_kernel(self):
        """The conditional factorization with the feedback term is an exact
        rewriting of the joint Gaussian KL, whatever the kernel."""
        f2 = sample_ellipsoid(ClassSpec.sobolev(2.0, 1.0), K=6, seed=7)
        for name in ("bm", "slepian"):
            k = _kernel(name)
            for f in (COS, f2):
                for n in range(2, 9):
                    seq = kl_sequential(k, f, n)
                    dense = kl_dense(k, f, n)
                    assert math.isclose(seq, dense, rel_tol=1e-12), (name, n)
        for L in (0.3, 1.0):
            k = preset("ou", L)
            for n in range(2, 9):
                assert math.isclose(kl_sequential(k, COS, n), kl_dense(k, COS, n),
                                    rel_tol=1e-12), (L, n)

    def test_chain_equals_dense_only_for_constant_v(self):
        """With v constant (bm) there is no feedback and the chain form is
        exact; with varying v it is a genuinely different number. Guard
        both directions so the gap stays visible."""
        for n in range(2, 9):
            assert abs(kl_chain(preset("bm"), COS, n)
                       - kl_dense(preset("bm"), COS, n)) < 1e-14
        assert abs(kl_chain(preset("ou", 1.0), COS, 4)
                   - kl_dense(preset("ou", 1.0), COS, 4)) > 1e-3
        assert abs(kl_chain(preset("slepian"), COS, 4)
                   - kl_dense(preset("slepian"), COS, 4)) > 1e-3

    def test_dense_rejects_singular_design(self):
        """The bridge's v(1) = 0 makes the design covariance singular at
        every n; rounding must not let a solve through."""
        for n in range(2, 17):
            with pytest.raises(SingularCovariance):
                kl_dense(preset("bridge"), COS, n)

    @pytest.mark.parametrize("kernel", [
        preset("bm"), preset("ou", 1.0), preset("slepian"),
        make_kernel("lab", "t", "2 - t"), make_kernel("tilt", "t", "1 - 0.9*t"),
    ], ids=lambda k: k.name)
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
    def test_dense_equals_the_increment_form(self, kernel, n):
        """The increment form (1/2) dm^T C^-1 dm with C = n D G D^T, built
        here from the knot Gram matrix G and the first-difference matrix D,
        is the KL that kl_dense computes on the running sums of dm."""
        dm = np.asarray(COS(design_knots(n))) - COS.cell_averages(n)
        D = np.eye(n) - np.eye(n, k=-1)
        C = n * D @ gram(kernel, design_knots(n)) @ D.T
        reference = 0.5 * dm @ np.linalg.solve(C, dm)
        assert math.isclose(kl_dense(kernel, COS, n), reference, rel_tol=1e-12)

    @pytest.mark.parametrize("n", [1, diagnostics._PANEL - 1, diagnostics._PANEL,
                                   diagnostics._PANEL + 1, 3 * diagnostics._PANEL + 5])
    def test_in_place_factor_is_the_cholesky_factor(self, n):
        """The lower triangle becomes L, and the running sums s, solved in
        place, become y with L y = s."""
        A = n * gram(preset("slepian"), design_knots(n))
        expected = np.linalg.cholesky(A)
        s = np.cumsum(np.asarray(COS(design_knots(n))) - COS.cell_averages(n))
        y = s.copy()
        assert diagnostics._factor_and_solve(A, y) is y
        np.testing.assert_allclose(np.tril(A), expected, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(np.tril(A) @ y, s, rtol=0.0, atol=1e-12)

    def test_indefinite_matrix_raises_the_mapped_error(self, monkeypatch):
        """A panel past the first that is not positive definite stops the
        factor, and kl_dense reports it as SingularCovariance."""
        n = diagnostics._PANEL + 4
        indefinite = np.eye(n)
        indefinite[n - 2, n - 2] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            diagnostics._factor_and_solve(indefinite.copy(), np.ones(n))
        monkeypatch.setattr(diagnostics, "gram", lambda kernel, ts: indefinite.copy())
        with pytest.raises(SingularCovariance, match="not positive definite"):
            kl_dense(preset("bm"), COS, n)

    def test_nonmonotone_clock_is_a_degenerate_cell(self):
        """q = t(1 - t) turns back at t = 1/2, so the design cells past it
        have negative clock increments: every route through the clock at
        the knots refuses the kernel instead of returning a number."""
        k = make_kernel("hump", "t*(1-t)", "1", validate=False)
        n = 4
        with pytest.raises(DegenerateCell):
            kl_dense(k, COS, n)
        with pytest.raises(DegenerateCell):
            kriging_interpolate(k, np.ones(n), np.linspace(0.0, 1.0, 9))
        with pytest.raises(DegenerateCell):
            projection_distance(k, COS, n)

    def test_nonnegative(self):
        for name in KERNELS:
            k = _kernel(name)
            assert kl_dense(k, COS, 6) >= 0.0
            assert kl_chain(k, COS, 6) >= 0.0


def _gauss_rule(panels: int = 50, order: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = np.diff(edges)[:, None] / 2
    return (edges[:-1, None] + half * (1.0 + x)).ravel(), (half * w).ravel()


def _derivative(f: FourierFunction) -> FourierFunction:
    """f': FourierFunction sums theta_k e^{-2 pi i k x}, so f' has the
    coefficients -2 pi i k theta_k."""
    return FourierFunction.from_coeffs({int(k): -2j * np.pi * k * f.coeff(int(k)) for k in f.ks})


def _leading_constants(kernel, f) -> tuple[float, float, float]:
    """C_disc = (1/4) int f'^2 / W and C_KL = (1/8) int (f' - (v'/v)(f - f(0)))^2 / W
    with the Wronskian W = u'v - uv' = v^2 q', and the kernel's rate
    max |v'/v|, all read at the Gauss nodes from clock_rate."""
    x, w = _gauss_rule()
    _, v, _, v_prime, q_prime = kernel.clock_rate(x)
    wronskian = v * v * q_prime
    f_prime = np.asarray(_derivative(f)(x))
    drift = f_prime - v_prime / v * (np.asarray(f(x)) - float(f(0.0)))
    return (float(w @ (f_prime ** 2 / wronskian)) / 4, float(w @ (drift ** 2 / wronskian)) / 8,
            float(np.max(np.abs(v_prime / v))))


def _c_proj(kernel, f) -> float:
    """C_proj = (1/12) int q' G'^2 with G(t) = g(q(t)) from rkhs._preimage,
    differentiated through its degree-120 Chebyshev least-squares fit at
    2000 Chebyshev points of (0, 1), inside the domain of every kernel."""
    t = 0.5 - 0.5 * np.cos(np.pi * (np.arange(2000) + 0.5) / 2000)
    G = np.polynomial.Chebyshev.fit(t, rkhs._preimage(kernel, f, t)[0], 120, domain=[0, 1])
    x, w = _gauss_rule()
    return float(w @ (rkhs._preimage(kernel, f, x)[1] * G.deriv()(x) ** 2)) / 12


SOBOLEV_MEMBER = sample_ellipsoid(ClassSpec.sobolev(2.0, 1.0), K=16, seed=3)
AFFINE_KERNELS = [preset("bm"), preset("slepian"), make_kernel("lab", "t", "2 - t"),
                  make_kernel("affine", "t", "1 - 0.9*t")]


class TestLeadingConstants:
    """n discretization_statistic -> C_disc and n kl_sequential -> C_KL on
    smooth periodic f, with |ratio - 1| <= LEADING_C max(1, rate) / n, the
    rate max |v'/v| (L on ou(L), 9 on 1 - 0.9 t); n^2 projection_distance
    -> C_proj with a gap of order n^-2."""

    LEADING_C = 1.1  # worst measured: 1.005, ou(5) discretization with cos(2 pi x) at n = 256

    @pytest.mark.parametrize("kernel", [preset("ou", 1.0), preset("ou", 5.0)] + AFFINE_KERNELS,
                             ids=lambda k: k.name)
    @pytest.mark.parametrize("f", [COS, SOBOLEV_MEMBER], ids=["cos", "sobolev"])
    def test_n_times_statistic_tends_to_its_constant(self, kernel, f):
        c_disc, c_kl, rate = _leading_constants(kernel, f)
        for n in (256, 1024):
            bound = self.LEADING_C * max(1.0, rate) / n
            assert abs(n * discretization_statistic(kernel, f, n) / c_disc - 1) <= bound, n
            assert abs(n * kl_sequential(kernel, f, n) / c_kl - 1) <= bound, n

    @pytest.mark.parametrize("kernel", [preset("bm"), preset("ou", 1.0), preset("slepian"),
                                        make_kernel("lab", "t", "2 - t")], ids=lambda k: k.name)
    @pytest.mark.parametrize("f, c", [(COS, 1.5), (SOBOLEV_MEMBER, 25.0)], ids=["cos", "sobolev"])
    def test_n_squared_projection_distance_tends_to_c_proj(self, kernel, f, c):
        """|n^2 D_n / C_proj - 1| <= c / n^2. The gap is negative and
        settles at a fixed multiple of n^-2: measured n^2 times the gap at
        n = 256 and 1024 is -1.316 on bm, slepian and lab and -1.416 on
        ou(1) with cos(2 pi x), and -23.06 to -23.08 with the Sobolev member
        (frequencies up to 16), -22.35 on ou(1)."""
        c_proj = _c_proj(kernel, f)
        for n in (256, 1024):
            assert abs(n * n * projection_distance(kernel, f, n) / c_proj - 1) <= c / n**2, n

    def test_c_proj_on_bm_is_pi_squared_over_6_for_cos(self):
        """On bm G = f, so C_proj = (1/12) int (2 pi sin(2 pi t))^2 = pi^2/6."""
        assert math.isclose(_c_proj(preset("bm"), COS), math.pi ** 2 / 6, rel_tol=1e-12)

    @pytest.mark.parametrize("kernel", AFFINE_KERNELS, ids=lambda k: k.name)
    def test_kl_constant_is_half_the_discretization_constant_on_affine_v(self, kernel):
        """W is constant when v is affine, and the cross terms of C_KL
        integrate to (f(1) - f(0))^2 s / v(1), which is 0 for periodic f."""
        for f in (COS, SOBOLEV_MEMBER):
            c_disc, c_kl, _ = _leading_constants(kernel, f)
            assert math.isclose(c_kl, c_disc / 2, rel_tol=1e-10), f.name


def _power_kernel(p: float):
    """u = t^p, v = 1: it passes the shape check for every p > 0, yet its
    Wronskian W = p t^(p-1) vanishes at 0 when p > 1."""
    return make_kernel(f"p{p}", f"t^{p}", "1")


def _fitted_slope(ns, values) -> float:
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


class TestDegenerateClock:
    """On u = t^p, v = 1 the rate follows int f'^2 / W near 0, which is
    finite for p < 4 when f'(0) = 0 (cos) and for p < 2 when f'(0) != 0
    (sin); past that n times the statistic grows. The logarithmic cases
    (cos at p = 4, sin at p = 2) are left out: their fitted slopes sit
    between the two regimes."""

    SIN = FourierFunction.from_coeffs({1: 0.5j})  # sin(2 pi x)

    @pytest.mark.parametrize("f, p, slope", [
        (COS, 2, -1.0), (COS, 3, -1.0), (COS, 5, 0.0), (COS, 6, 1.0), (SIN, 3, 0.0),
    ], ids=["cos-p2", "cos-p3", "cos-p5", "cos-p6", "sin-p3"])
    def test_discretization_slope_follows_the_wronskian(self, f, p, slope):
        ns = [256, 512, 1024, 2048]
        values = [discretization_statistic(_power_kernel(p), f, n) for n in ns]
        assert abs(_fitted_slope(ns, values) - slope) <= 0.1

    @pytest.mark.parametrize("p, slope", [(1.5, 1.0), (3, 2.0), (5, 4.0)])
    def test_clock_sum_grows_like_n_to_max_1_p_minus_1(self, p, slope):
        """S_n = (1/n) sum_i 1 / (v_i^2 dq_i) at the knots grows like
        n^max(1, p - 1), which puts the Hoelder threshold at max(1, p - 1)/2;
        below p = 2, S_n / n tends to int dt / W = 4/3 at p = 1.5."""
        kernel = _power_kernel(p)

        def clock_sum(n):
            _, v, q = kernel.clock(samples.path_grid(n, n + 1))
            return float(np.sum(1.0 / (v[1:] ** 2 * np.diff(q)))) / n

        ns = [64 * 2**i for i in range(7)]
        assert abs(_fitted_slope(ns, [clock_sum(n) for n in ns]) - slope) <= 0.05
        if p == 1.5:
            assert math.isclose(clock_sum(4096) / 4096, 4 / 3, rel_tol=0.01)


class TestProjectionStatistic:
    def test_is_sqrt_of_scaled_distance(self):
        k = preset("slepian")
        expected = math.sqrt(8 * projection_distance(k, COS, 8))
        assert math.isclose(projection_statistic(k, COS, 8), expected, rel_tol=1e-12)


class TestBandDecomposition:
    def test_band_limited_function_has_no_tail(self):
        """Every frequency of f below the cutoff: the tail sums vanish and
        the low-band gaps are the whole story."""
        f = FourierFunction.from_coeffs({0: 0.3, 1: 0.2 - 0.1j, 3: 0.05})
        dec = band_split_decomposition(f, 8)
        assert dec.b_sum == 0.0 and dec.c_sum == 0.0
        assert math.isclose(dec.a_sum, dec.total_gap_sq, rel_tol=1e-12)
        assert dec.bound_holds

    def test_aliased_frequency_anchor(self):
        """cos(2 pi n x) equals 1 at every knot and averages to 0 over every
        cell, so each gap is exactly 1 and the total is n."""
        n = 16
        dec = band_split_decomposition(FourierFunction.harmonic(n), n)
        assert math.isclose(dec.total_gap_sq, float(n), rel_tol=0, abs_tol=1e-10)

    def test_gaps_invariant_under_null_perturbation(self):
        """Adding a combination whose knot values and cell averages both
        vanish cannot change the gaps, though it reshuffles the three
        band sums."""
        n = 8
        f = sample_ellipsoid(ClassSpec.sobolev(1.0, 1.0), K=6, seed=1)
        null = {n: 1.0, -n: 1.0, 2 * n: -1.0, -2 * n: -1.0}
        # f has K = 6 < n, so f plus the null combination is the union of
        # the two coefficient maps
        perturbed = FourierFunction.from_coeffs({**dict(zip(f.ks.tolist(), f.theta)), **null})
        before = band_split_decomposition(f, n)
        after = band_split_decomposition(perturbed, n)
        assert math.isclose(after.total_gap_sq, before.total_gap_sq,
                            rel_tol=1e-10, abs_tol=1e-12)
        assert after.b_sum != before.b_sum

    def test_parseval_residual_small_on_random_functions(self):
        for seed in range(4):
            for n in (4, 16, 64):
                f = sample_ellipsoid(ClassSpec.sobolev(1.0, 1.0), K=3 * n, seed=seed)
                dec = band_split_decomposition(f, n)
                assert dec.parseval_residual <= 1e-10, (seed, n)
                assert dec.bound_holds, (seed, n)

    def test_row_blocks_keep_every_bit(self, monkeypatch):
        """The direct DFT's phase matrix, built in row blocks with a ragged
        last block, gives the decomposition of the whole matrix at once."""
        f = sample_ellipsoid(ClassSpec.sobolev(1.0, 1.0), K=600, seed=3)
        blocked = band_split_decomposition(f, 300)
        assert block_rows(300) < 300
        monkeypatch.setattr(samples, "BLOCK_ELEMENTS", 300 * 300)
        assert block_rows(300) == 300
        assert band_split_decomposition(f, 300) == blocked

    @pytest.mark.parametrize("n", [1, 7, 300, 1024])
    def test_dft_values_match_numpy_fft(self, monkeypatch, n):
        """The residual holds for any unitary transform, so the DFT's values
        are checked against numpy's FFT of the low-band gaps: F_j =
        e^{-2 pi i j/n} fft(A)[j mod n] / n for the 1-based j = 1..n."""
        dense_sum, captured = diagnostics._dense_sum, []

        def spy(*args):
            captured.append(dense_sum(*args))
            return captured[-1]

        monkeypatch.setattr(diagnostics, "_dense_sum", spy)
        f = sample_ellipsoid(ClassSpec.sobolev(1.0, 1.0), K=2 * n, seed=n)
        band_split_decomposition(f, n)
        (F,) = captured
        F = F / n
        low = FourierFunction.from_coeffs({k: f.coeff(k) for k in range(-n, n + 1)})
        A = np.asarray(low(design_knots(n))) - low.cell_averages(n)
        j = np.arange(1, n + 1)
        expected = np.exp(-2j * np.pi * j / n) * np.fft.fft(A)[j % n] / n
        assert np.max(np.abs(F - expected)) <= 1e-12 * np.max(np.abs(A))

    def test_statistic_is_bound_total(self):
        f = sample_ellipsoid(ClassSpec.sobolev(1.0, 1.0), K=24, seed=2)
        dec = band_split_decomposition(f, 8)
        assert band_terms_statistic(preset("bm"), f, 8) == dec.bound_total


class TestTransformationDiscrepancy:
    def test_zero_signal_under_bm_is_exactly_zero(self):
        """bm has mu = 0 under f = 0 and sigma^2 = 1 exactly at dyadic n."""
        assert transformation_discrepancy(preset("bm"), FourierFunction.zero(), 16) == 0.0

    def test_decreases_for_smooth_signal(self):
        k = preset("ou", 1.0)
        values = [transformation_discrepancy(k, COS, n) for n in (16, 32, 64, 128, 256)]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bm_cosine_rate(self):
        ns = (32, 64, 128, 256, 512)
        values = [transformation_discrepancy(preset("bm"), COS, n) for n in ns]
        slope = _slope(ns, values)
        assert -1.3 <= slope <= -0.7

    def test_pinned_kernel_rejected(self):
        with pytest.raises(KernelDegenerate):
            transformation_discrepancy(preset("bridge"), COS, 8)


def _delta_sq(f: FourierFunction, n: int) -> float:
    """Delta^2 = n D_n + 2 KL on bm at design size n."""
    bm = preset("bm")
    return n * projection_distance(bm, f, n) + 2 * kl_sequential(bm, f, n)


class TestHoelderBracketOnBm:
    """On bm, Delta^2 = n ||f||^2 - sum_j m_j^2 + sum_i d_i^2, with m_j the
    mean of f on cell j and d_i = f(i/n) - m_i. Over the Hoelder ball of
    exponent alpha and constant L = 1, a cell's variance is at most
    h^(2 alpha) / ((2 alpha + 1)(2 alpha + 2)) and |d_i| at most
    n^-alpha / (alpha + 1), which bounds Delta^2 from above; the triangle
    wave -dist(x, knots), which vanishes at every knot, attains 1 / (12 n)
    at alpha = 1."""

    ODD_TERMS = 400  # the triangle wave's series keeps the odd m below this

    @staticmethod
    def _upper(alpha: float, n: int) -> float:
        return n ** (1 - 2 * alpha) * (1 / ((2 * alpha + 1) * (2 * alpha + 2))
                                       + 1 / (alpha + 1) ** 2)

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    def test_extremal_family_stays_under_the_upper_bound(self, alpha):
        family = class_extremal_family(ClassSpec.hoelder(alpha, 1.0))
        ns = (16, 64, 256)
        maxima = [max(_delta_sq(f, n) for f in family.members(n)) for n in ns]
        for n, value in zip(ns, maxima):
            assert 0 < value <= self._upper(alpha, n), n
        assert abs(_fitted_slope(ns, maxima) - (1 - 2 * alpha)) <= 0.1

    @pytest.mark.parametrize("n", [8, 32])
    def test_triangle_wave_attains_the_lower_bound(self, n):
        """f* = -dist(x, knots) = -1/(4n) + sum over odd m of
        2/(pi^2 m^2 n) cos(2 pi m n x), here cut after the odd m below
        ODD_TERMS. The cut-off tail e has zero mean on every cell and the
        same value tau at every knot, so Delta^2(e) = n ||e||^2 + n tau^2,
        and since sqrt(Delta^2) is a seminorm, sqrt(Delta^2) of the cut
        series lies within sqrt(Delta^2(e)) of sqrt(1/(12n)). Each tail
        sum over odd m >= M of m^-p is at most int_{M-2}^inf x^-p dx / 2."""
        edge = self.ODD_TERMS - 1  # M - 2, M = ODD_TERMS + 1 the first odd m cut off
        amplitude = 2 / (math.pi**2 * n)
        tau = amplitude / (2 * edge)
        tail_sq = amplitude**2 / 2 / (6 * edge**3)  # ||e||^2: half the squared amplitudes
        tolerance = math.sqrt(n * tau**2 + n * tail_sq)
        coeffs = {0: -1 / (4 * n)}
        coeffs.update({m * n: amplitude / (2 * m**2) for m in range(1, self.ODD_TERMS, 2)})
        f = FourierFunction.from_coeffs(coeffs)
        assert abs(math.sqrt(_delta_sq(f, n)) - math.sqrt(1 / (12 * n))) <= tolerance
        # every gap is 1/(4n) minus the tail at the knots, so the statistic
        # sits just below f*'s n (1/(4n))^2
        statistic = discretization_statistic(preset("bm"), f, n)
        assert n * (1 / (4 * n) - tau) ** 2 <= statistic < 1 / (16 * n)


class TestRateSweep:
    def test_registry_contents(self):
        assert set(STATISTICS) == {
            "discretization", "kl", "projection", "transformation", "band_terms",
        }
        with pytest.raises(KeyError):
            rate_sweep("entropy", preset("bm"), single_frequency_family())

    def test_single_frequency_discretization_slope(self):
        report = rate_sweep("discretization", preset("bm"), single_frequency_family(),
                            n_grid=DEFAULT_N_GRID)
        assert report.slope is not None
        assert abs(report.slope + 1.0) < 0.05
        assert report.fit_ns == DEFAULT_N_GRID[len(DEFAULT_N_GRID) // 2:]

    def test_fit_takes_the_largest_n_in_any_order(self):
        up, down = (rate_sweep("discretization", preset("bm"), single_frequency_family(),
                               n_grid=ns) for ns in ((16, 32, 64, 128), (128, 64, 32, 16)))
        assert down.fit_ns == up.fit_ns == (64, 128)
        assert down.slope == up.slope

    def test_repeated_n_is_refused(self):
        with pytest.raises(ValueError, match="n = 16 more than once"):
            rate_sweep("discretization", preset("bm"), single_frequency_family(),
                       n_grid=(16, 32, 16))

    def test_gate_modes(self):
        family = single_frequency_family()
        k = preset("bm")
        hit = rate_sweep("discretization", k, family, n_grid=(32, 64, 128),
                         target=-1.0, margin=0.3)
        miss = rate_sweep("discretization", k, family, n_grid=(32, 64, 128),
                          target=-2.0, margin=0.3)
        assert hit.passed is True
        assert miss.passed is False
        assert rate_sweep("discretization", k, family,
                          n_grid=(32, 64)).passed is None

    def test_family_maximum(self):
        k = preset("bm")
        f1, f2 = FourierFunction.harmonic(1), FourierFunction.harmonic(3)
        family = fixed_family("pair", [f1, f2])
        report = rate_sweep("discretization", k, family, n_grid=(16, 32))
        for n, value in zip(report.n_values, report.values):
            expected = max(discretization_statistic(k, f1, n),
                           discretization_statistic(k, f2, n))
            assert value == expected

    def test_degenerate_when_every_member_fails(self):
        """A statistic that raises for the kernel yields nan maxima, an
        empty fit, and a failing gate rather than a crash."""
        report = rate_sweep("transformation", preset("bridge"),
                            single_frequency_family(), n_grid=(8, 16), target=-1.0)
        assert report.degenerate
        assert report.passed is False
        assert all(math.isnan(v) for v in report.values)
        assert "degenerate" in "\n".join(report.lines())

    def test_member_failures_are_named(self):
        """On the bridge the constant has a zero statistic and cos raises;
        the excluded zero maximum says that a member failed."""
        family = fixed_family("const-cos", [FourierFunction.harmonic(0, 1.0),
                                            FourierFunction.harmonic(1)])
        report = rate_sweep("discretization", preset("bridge"), family, n_grid=(8, 16))
        assert report.values == (0.0, 0.0)
        assert report.failures == (("SingularCovariance",),) * 2
        for line in report.lines()[1:3]:
            assert line.endswith("max=0.0 (excluded) [failed: SingularCovariance]")

    def test_partial_failure_is_shown_next_to_the_maximum(self, monkeypatch):
        def flaky(kernel, f, n):
            if f.name == "cos1" or (f.name == "cos2" and n == 16):
                raise QuadratureFailure("no convergence", 1e-3)
            return float(n) if f.name == "const" else 1.0

        monkeypatch.setitem(STATISTICS, "discretization", flaky)
        family = fixed_family("trio", [FourierFunction.harmonic(0, 1.0),
                                       FourierFunction.harmonic(1),
                                       FourierFunction.harmonic(2)])
        report = rate_sweep("discretization", preset("bm"), family, n_grid=(8, 16))
        assert report.values == (8.0, 16.0)
        assert report.failures == (("QuadratureFailure",), ("QuadratureFailure",) * 2)
        assert report.lines()[1] == "  n=8      max=8.0 [failed: QuadratureFailure]"
        assert report.lines()[2] == "  n=16     max=16.0 [failed: QuadratureFailure x2]"

    def test_nan_member_is_named_and_left_out(self, monkeypatch):
        def half_nan(kernel, f, n):
            return math.nan if f.name == "cos2" else float(n)

        monkeypatch.setitem(STATISTICS, "discretization", half_nan)
        family = fixed_family("pair", [FourierFunction.harmonic(1), FourierFunction.harmonic(2)])
        report = rate_sweep("discretization", preset("bm"), family, n_grid=(8, 16))
        assert report.values == (8.0, 16.0)
        assert report.failures == (("nan",), ("nan",))
        assert report.lines()[1] == "  n=8      max=8.0 [failed: nan]"

    def test_infinite_member_is_the_maximum(self, monkeypatch):
        """An overflowed member is not dropped for a smaller finite value:
        the maximum is inf, and the n is excluded from the fit."""
        def overflowing(kernel, f, n):
            return math.inf if (f.name == "cos2" and n == 16) else 1.0 / n

        monkeypatch.setitem(STATISTICS, "discretization", overflowing)
        family = fixed_family("pair", [FourierFunction.harmonic(1), FourierFunction.harmonic(2)])
        report = rate_sweep("discretization", preset("bm"), family, n_grid=(8, 16))
        assert report.values == (0.125, math.inf)
        assert (report.failures, report.excluded, report.degenerate) == (((), ()), (16,), True)
        assert report.lines()[2:] == ["  n=16     max=inf (excluded)",
                                      "  fit: degenerate (fewer than two usable points)"]

    def test_two_usable_points_are_fitted(self):
        k, family = preset("bm"), single_frequency_family()
        report = rate_sweep("discretization", k, family, n_grid=(16, 32))
        assert (report.fit_ns, report.degenerate) == ((16, 32), False)
        expected = math.log2(discretization_statistic(k, COS, 32)
                             / discretization_statistic(k, COS, 16))
        assert math.isclose(report.slope, expected, rel_tol=1e-12)
        assert math.isnan(report.stderr)
        assert report.lines()[-1].endswith("(stderr n/a)")
        assert rate_sweep("discretization", k, family, n_grid=(16, 32, 64)).fit_ns == (32, 64)

    @pytest.mark.parametrize("size", [2, 3, 5, 6, 9, 16, 25])
    def test_closed_form_fit_matches_polyfit(self, monkeypatch, size):
        """Slope and stderr against np.polyfit(..., cov=True) on seeded
        power laws with noise, the n listed in random order; two fitted
        points have no stderr, and polyfit gives their slope alone."""
        gen = np.random.default_rng(size)
        ns = np.cumsum(gen.integers(1, 100, size=size))
        logs = gen.uniform(-2.0, -0.5) * np.log10(ns) + gen.normal(0.0, 0.1, size=size)
        values = dict(zip(ns.tolist(), (10.0 ** logs).tolist()))
        monkeypatch.setitem(STATISTICS, "discretization", lambda kernel, f, n: values[n])
        report = rate_sweep("discretization", preset("bm"), single_frequency_family(),
                            n_grid=gen.permutation(ns).tolist())
        assert report.fit_ns == tuple(ns[-max(2, size - size // 2):].tolist())
        x, y = np.log10(report.fit_ns), np.log10([values[n] for n in report.fit_ns])
        if x.size == 2:
            assert math.isclose(report.slope, np.polyfit(x, y, 1)[0], rel_tol=1e-12)
            assert math.isnan(report.stderr)
            return
        coeffs, cov = np.polyfit(x, y, 1, cov=True)
        assert math.isclose(report.slope, coeffs[0], rel_tol=1e-12)
        assert math.isclose(report.stderr, math.sqrt(cov[0, 0]), rel_tol=1e-12)

    def test_kl_sweeps_the_sequential_kl(self):
        """rates --stat kl sweeps kl_sequential, the true KL; on bm, where v
        is constant, its values are kl_chain's bit for bit."""
        family = class_extremal_family(ClassSpec.sobolev(1.0, 1.0))
        ns = (8, 16, 32)
        for kernel, stat in ((preset("slepian"), kl_sequential), (preset("bm"), kl_chain)):
            report = rate_sweep("kl", kernel, family, n_grid=ns)
            assert report.values == tuple(max(stat(kernel, f, n) for f in family.members(n))
                                          for n in ns)

    def test_clean_sweep_lines_name_no_failure(self):
        report = rate_sweep("discretization", preset("bm"), single_frequency_family(),
                            n_grid=(16, 32))
        assert report.failures == ((), ())
        assert not any("failed" in line for line in report.lines())

    def test_zero_values_are_excluded(self):
        family = fixed_family("flat", [FourierFunction.harmonic(0, 1.0)])
        report = rate_sweep("discretization", preset("bm"), family, n_grid=(16, 32))
        assert report.excluded == (16, 32)
        assert report.degenerate

    def test_extremal_family_tracks_class_rate(self):
        """For a Sobolev ball with beta = 0.75 the worst member aliases at
        k = n and the family maximum decays like n^{1-2 beta} = n^{-1/2}."""
        spec = ClassSpec.sobolev(0.75, 1.0)
        report = rate_sweep("discretization", preset("bm"),
                            class_extremal_family(spec, seed=0),
                            n_grid=(16, 32, 64, 128))
        assert report.slope is not None
        assert -0.7 <= report.slope <= -0.3

    @pytest.mark.parametrize("n", [64, 512])
    def test_hoelder_extremal_harmonics_are_inside_the_ball(self, n):
        """At alpha = 1 the Hoelder constant of a cos(2 pi k x) is exactly
        amplitude * 2 pi k; every scaled harmonic must keep it within L."""
        spec = ClassSpec.hoelder(1.0, 1.0)
        harmonics = [fn for fn in class_extremal_family(spec).members(n)
                     if fn.name.startswith("extremal-k")]
        assert [fn.K for fn in harmonics] == [1, n // 2, n, 2 * n]
        for fn in harmonics:
            amplitude = 2 * abs(fn.coeff(fn.K))
            assert amplitude * 2 * np.pi * fn.K <= spec.L

    def test_random_family_is_seed_stable(self):
        spec = ClassSpec.sobolev(1.0, 1.0)
        fam = random_family(spec, seed=3)
        ids_a = [f.content_id() for f in fam.members(8)]
        ids_b = [f.content_id() for f in fam.members(8)]
        assert ids_a == ids_b

    @pytest.mark.parametrize("build", [class_extremal_family, random_family])
    def test_fourier_family_refuses_n_past_its_frequency_limit(self, build):
        """Members reach frequency 2n, so n above MAX_FREQUENCY // 2 is
        refused naming n, not the frequency of some member."""
        assert diagnostics.MAX_FAMILY_N == MAX_FREQUENCY // 2
        n = diagnostics.MAX_FAMILY_N + 1
        with pytest.raises(ValueError, match=f"MAX_FAMILY_N = {n - 1}, got n = {n}$"):
            build(ClassSpec.sobolev(1.0, 1.0)).members(n)
