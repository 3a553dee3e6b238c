"""Tests for the sufficiency statistics, KL routes, and rate sweeps."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

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
from gmequiv.fourier import ClassSpec, FourierFunction, sample_ellipsoid
from gmequiv.kernels import make_kernel, preset
from gmequiv.rkhs import kriging_interpolate, projection_distance

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
                dq = float(k.q(t)) - float(k.q((i - 1) / n))
                total += d * d / (float(k.v(t)) ** 2 * dq)
            oracle = total / n
            value = discretization_statistic(k, COS, n)
            assert math.isclose(value, oracle, rel_tol=1e-10), name

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
        h = FourierFunction.from_coeffs({n: 1.0, -n: 1.0, 2 * n: -1.0, -2 * n: -1.0})
        before = band_split_decomposition(f, n)
        after = band_split_decomposition(f.plus(h), n)
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

    def test_random_family_is_seed_stable(self):
        spec = ClassSpec.sobolev(1.0, 1.0)
        fam = random_family(spec, seed=3)
        ids_a = [f.content_id() for f in fam.members(8)]
        ids_b = [f.content_id() for f in fam.members(8)]
        assert ids_a == ids_b
