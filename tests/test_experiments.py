"""Tests for the two experiments and the exact maps between them."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from gmequiv import rng
from gmequiv.cli import main
from gmequiv.errors import GridMismatch, SingularCovariance
from gmequiv.experiments import (
    kriging_path_experiment,
    path_from_discrete,
    reconstruct_discrete_from_path,
    simulate_e1,
    simulate_e2,
    simulate_increments,
)
from gmequiv.fourier import FourierFunction
from gmequiv.kernels import gram, make_kernel, preset
from gmequiv.rkhs import kriging_interpolate
from gmequiv.samples import (
    MAX_GRID_POINTS,
    DiscreteSample,
    PathSample,
    design_knots,
    knot_stride,
    path_grid,
)
from gmequiv.sampling import sample_paths

COS = FourierFunction.harmonic(1)
ZERO = FourierFunction.zero()


class TestSampling:
    ORACLE_KERNELS = (
        preset("bm"), preset("ou", 1.0), preset("bridge"), preset("slepian"),
        make_kernel("lab", "t", "2 - t"), make_kernel("p5", "t^5", "1"),
    )

    @pytest.mark.parametrize("m", [9, 257])
    @pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=lambda k: k.name)
    def test_time_change_matches_dense_cholesky(self, kernel, m):
        grid = np.linspace(0.0, 1.0, m)
        npaths, seed, label = 40, 3, "oracle"
        alive = np.diag(gram(kernel, grid)) != 0.0
        chol = np.linalg.cholesky(gram(kernel, grid[alive]))
        z = rng.stream(seed, label, kernel.name, grid.size, npaths).standard_normal(
            (npaths, int(alive.sum())))
        draws = sample_paths(kernel, grid, npaths, seed, label=label)
        np.testing.assert_allclose(draws[:, alive], z @ chol.T, rtol=0.0, atol=1e-12)
        assert np.all(draws[:, ~alive] == 0.0)
        assert alive[-1] == math.isfinite(kernel.horizon)

    def test_tiny_variance_is_drawn_not_zeroed(self):
        """u = 1e-20 t is Brownian motion times 1e-10: its draws are those
        of u = t (same name, so the same stream) times 1e-10."""
        grid = np.linspace(0.0, 1.0, 65)
        tiny = sample_paths(make_kernel("w", "1e-20*t", "1"), grid, 3, seed=5)
        unit = sample_paths(make_kernel("w", "t", "1"), grid, 3, seed=5)
        assert np.all(tiny[:, 1:] != 0.0)
        np.testing.assert_allclose(tiny, 1e-10 * unit, rtol=1e-12, atol=0.0)

    def test_bridge_without_interior_points_is_zero(self):
        draws = sample_paths(preset("bridge"), np.array([0.0, 1.0]), 5, seed=0)
        np.testing.assert_array_equal(draws, np.zeros((5, 2)))

    def test_non_monotone_clock_raises(self):
        hump = make_kernel("hump", "t*(1-t)", "1", validate=False)
        with pytest.raises(SingularCovariance, match=r"'hump'.*t = 0\.625"):
            sample_paths(hump, np.linspace(0, 1, 9), 4, seed=0)

    def test_non_finite_variance_raises(self):
        broken = dataclasses.replace(preset("bm"), u=lambda t: np.log(np.asarray(t) - 0.3))
        with pytest.raises(SingularCovariance, match=r"'bm'.*t = 0\.0"):
            sample_paths(broken, np.linspace(0, 1, 9), 4, seed=0)

    def test_paths_start_at_zero(self):
        for name in ("bm", "bridge"):
            draws = sample_paths(preset(name), np.linspace(0, 1, 9), 50, seed=1)
            assert draws.shape == (50, 9)
            np.testing.assert_array_equal(draws[:, 0], np.zeros(50))

    def test_bridge_pinned_at_one(self):
        draws = sample_paths(preset("bridge"), np.linspace(0, 1, 9), 50, seed=1)
        np.testing.assert_array_equal(draws[:, -1], np.zeros(50))

    def test_grid_validation(self):
        k = preset("bm")
        with pytest.raises(ValueError):
            sample_paths(k, np.array([0.1, 0.5]), 1, seed=0)
        with pytest.raises(ValueError):
            sample_paths(k, np.array([0.0, 0.5, 0.5]), 1, seed=0)

    def test_deterministic_and_label_separated(self):
        k = preset("ou", 1.0)
        grid = np.linspace(0, 1, 5)
        a = sample_paths(k, grid, 3, seed=9, label="alpha")
        b = sample_paths(k, grid, 3, seed=9, label="alpha")
        c = sample_paths(k, grid, 3, seed=9, label="beta")
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_increment_law_under_bm(self):
        """Standardized bm increments over the knot grid are standard
        normal; checked with a one-sample Kolmogorov-Smirnov test."""
        xi = np.concatenate([simulate_increments(preset("bm"), 64, seed=s)
                             for s in range(40)])
        z = xi * math.sqrt(64)
        assert stats.kstest(z, "norm").pvalue > 0.01


class TestDiscreteExperiment:
    def test_shapes_and_metadata(self):
        s = simulate_e1(preset("bm"), COS, 12, seed=0)
        assert s.n == 12 and s.values.shape == (12,)
        assert s.variant == "original"
        np.testing.assert_allclose(design_knots(s.n), np.arange(1, 13) / 12)

    def test_variants_share_noise_exactly(self):
        """The two variants with one seed differ exactly by the signal
        difference; the noise cancels bit for bit."""
        k = preset("ou", 1.0)
        n = 16
        a = simulate_e1(k, COS, n, seed=5, variant="original")
        b = simulate_e1(k, COS, n, seed=5, variant="cell_averaged")
        knots = np.arange(1, n + 1) / n
        expected = np.asarray(COS(knots)) - COS.cell_averages(n)
        np.testing.assert_allclose(a.values - b.values, expected, rtol=0, atol=5e-15)

    def test_noise_matches_increment_stream(self):
        k = preset("slepian")
        n = 8
        s = simulate_e1(k, ZERO, n, seed=2)
        xi = simulate_increments(k, n, seed=2)
        np.testing.assert_array_equal(s.values, math.sqrt(n) * xi)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            simulate_e1(preset("bm"), COS, 4, seed=0, variant="median")

    def test_sample_container_validation(self):
        with pytest.raises(ValueError):
            DiscreteSample(n=3, values=np.zeros(2), variant="original",
                           kernel_id="bm", function_id="f", seed=0)
        with pytest.raises(ValueError):
            DiscreteSample(n=2, values=np.zeros(2), variant="husky",
                           kernel_id="bm", function_id="f", seed=0)


class TestPathExperiment:
    def test_grid_contains_knots(self):
        s = simulate_e2(preset("bm"), COS, 5, seed=0)
        assert s.grid.size == 101
        assert s.values[0] == 0.0
        assert s.scale == 1.0 / math.sqrt(5)

    def test_custom_grid_size(self):
        s = simulate_e2(preset("bm"), COS, 4, seed=0, grid_size=21)
        assert s.grid.size == 21

    def test_grid_size_must_fit_knots(self):
        with pytest.raises(GridMismatch):
            simulate_e2(preset("bm"), COS, 4, seed=0, grid_size=23)

    def test_noise_independent_of_signal(self):
        """Same seed, different f: the paths differ exactly by the
        difference of the running integrals."""
        k = preset("ou", 1.0)
        a = simulate_e2(k, COS, 8, seed=3)
        b = simulate_e2(k, ZERO, 8, seed=3)
        expected = np.asarray(COS.antiderivative(a.grid))
        expected = expected - expected[0]
        np.testing.assert_allclose(a.values - b.values, expected, rtol=0, atol=1e-14)

    def test_path_container_validation(self):
        with pytest.raises(ValueError, match="start at exactly 0"):
            PathSample(grid=np.array([0.0, 1.0]), values=np.array([0.5, 1.0]),
                       kernel_id="bm", function_id="f", seed=0, scale=1.0)


class TestReconstruction:
    def test_signal_part_reconstructs_to_cell_averages(self):
        k = preset("slepian")
        n = 8
        a = reconstruct_discrete_from_path(simulate_e2(k, COS, n, seed=1), n)
        b = reconstruct_discrete_from_path(simulate_e2(k, ZERO, n, seed=1), n)
        np.testing.assert_allclose(a.values - b.values, COS.cell_averages(n),
                                   rtol=0, atol=1e-11)
        assert a.variant == "cell_averaged"

    def test_kriging_form_agrees_at_knots(self):
        """The Kriging form of the path experiment carries the same law as
        the direct form; with a shared seed their knot data coincide."""
        k = preset("ou", 1.0)
        n = 16
        direct = reconstruct_discrete_from_path(simulate_e2(k, COS, n, seed=4), n)
        kriged = reconstruct_discrete_from_path(
            kriging_path_experiment(k, COS, n, seed=4), n)
        np.testing.assert_allclose(kriged.values, direct.values, rtol=0, atol=1e-12)

    def test_kriging_form_differs_off_knots(self):
        k = preset("bm")
        a = simulate_e2(k, COS, 4, seed=4)
        b = kriging_path_experiment(k, COS, 4, seed=4)
        assert np.max(np.abs(a.values - b.values)) > 1e-3

    def test_reconstruct_needs_compatible_grid(self):
        path = simulate_e2(preset("bm"), COS, 4, seed=0, grid_size=21)
        with pytest.raises(GridMismatch):
            reconstruct_discrete_from_path(path, 3)

    def test_round_trip_is_identity(self):
        """discrete -> path -> discrete returns the input to 1e-10."""
        k = preset("ou", 1.0)
        for n in (4, 16, 64):
            sample = simulate_e1(k, COS, n, seed=6, variant="cell_averaged")
            rebuilt = path_from_discrete(k, sample, seed=99)
            back = reconstruct_discrete_from_path(rebuilt, n)
            assert np.max(np.abs(back.values - sample.values)) <= 1e-10, n

    def test_rebuilt_knot_values_ignore_residual_draw(self):
        k = preset("slepian")
        n = 8
        sample = simulate_e1(k, COS, n, seed=0, variant="cell_averaged")
        a = path_from_discrete(k, sample, seed=1)
        b = path_from_discrete(k, sample, seed=2)
        step = (a.grid.size - 1) // n
        np.testing.assert_allclose(a.values[::step], b.values[::step],
                                   rtol=0, atol=1e-12)
        assert np.max(np.abs(a.values - b.values)) > 1e-6

    def test_rebuilt_path_law_variance(self):
        """Coordinate variance of the reconstructed discrete data matches
        the direct experiment: under bm each Y'_i - signal has variance 1."""
        k = preset("bm")
        n = 4
        draws = np.array([
            reconstruct_discrete_from_path(
                simulate_e2(k, ZERO, n, seed=s, grid_size=21), n).values
            for s in range(1500)
        ])
        var = draws.var(axis=0, ddof=1)
        band = 4.0 * math.sqrt(2.0 / (draws.shape[0] - 1))
        assert np.max(np.abs(var - 1.0)) <= band


class TestDeterminism:
    def test_bit_identical_reruns(self):
        k = preset("ou", 0.5)
        a = simulate_e2(k, COS, 8, seed=123)
        b = simulate_e2(k, COS, 8, seed=123)
        np.testing.assert_array_equal(a.values, b.values)

    def test_seed_changes_draw(self):
        k = preset("bm")
        a = simulate_e1(k, COS, 8, seed=1)
        b = simulate_e1(k, COS, 8, seed=2)
        assert not np.array_equal(a.values, b.values)


def _residual(kernel, n: int, seed: int, grid_size: int | None = None) -> np.ndarray:
    """R = X - Krig(X at the knots) on the path grid, X drawn on the stream
    path_from_discrete reads."""
    grid = path_grid(n, grid_size)
    stride = knot_stride(n, grid.size)
    path = sample_paths(kernel, grid, 1, seed, label="residual")[0]
    return path - kriging_interpolate(kernel, path[stride::stride], grid)


KRIGING_KERNELS = (preset("bm"), preset("ou", 1.0), preset("slepian"),
                   make_kernel("lab", "t", "2 - t"))


class TestRebuiltPath:
    def test_residual_vanishes_at_knots(self):
        for name in ("bm", "ou", "slepian"):
            r = _residual(preset(name), 4, seed=7)
            idx = np.arange(1, 5) * ((r.size - 1) // 4)
            assert np.max(np.abs(r[idx])) <= 1e-12, name
            assert r[0] == 0.0

    def test_residual_midpoint_variance_under_bm(self):
        """For bm with one knot the residual at t = 1/2 has the pinned
        variance 1/4; checked by Monte Carlo within a 3.5 sigma band."""
        draws = np.array([_residual(preset("bm"), 1, seed=s, grid_size=21)[10]
                          for s in range(4000)])
        var = float(np.var(draws, ddof=1))
        band = 3.5 * 0.25 * math.sqrt(2.0 / (draws.size - 1))
        assert abs(var - 0.25) <= band

    @pytest.mark.parametrize("n", [1, 4, 64, 1024])
    @pytest.mark.parametrize("kernel", KRIGING_KERNELS, ids=lambda k: k.name)
    def test_one_kriging_is_the_residual_form(self, kernel, n):
        """Kriging is linear: Krig(S'/n - X(t_k)/sqrt(n)) + X/sqrt(n) is
        (Krig(S') + sqrt(n) R) / n, and S'_k / n at every knot."""
        sample = simulate_e1(kernel, COS, n, seed=3, variant="cell_averaged")
        path = path_from_discrete(kernel, sample, seed=11)
        sums = np.cumsum(sample.values)
        residual = _residual(kernel, n, seed=11)
        expected = (kriging_interpolate(kernel, sums, path.grid) + math.sqrt(n) * residual) / n
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(path.values, expected, rtol=0.0, atol=1e-12 * scale)
        stride = knot_stride(n, path.grid.size)
        np.testing.assert_allclose(path.values[stride::stride], sums / n, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(sums / n)))

    def test_deterministic_in_seed(self):
        sample = simulate_e1(preset("slepian"), COS, 4, seed=0, variant="cell_averaged")
        a = path_from_discrete(preset("slepian"), sample, seed=3)
        b = path_from_discrete(preset("slepian"), sample, seed=3)
        c = path_from_discrete(preset("slepian"), sample, seed=4)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)


def _zero_path(m: int) -> PathSample:
    return PathSample(grid=np.linspace(0.0, 1.0, m), values=np.zeros(m),
                      kernel_id="bm", function_id="zero", seed=0, scale=1.0)


# every entry point that takes a path grid, called with n = 4 and a grid
# size (or, for the CLI, a --grid-density) that misses a design knot
GRID_ENTRY_POINTS = {
    "simulate_e2": lambda m: simulate_e2(preset("bm"), COS, 4, seed=0, grid_size=m),
    "kriging_path_experiment":
        lambda m: kriging_path_experiment(preset("bm"), COS, 4, seed=0, grid_size=m),
    "path_from_discrete": lambda m: path_from_discrete(
        preset("bm"), simulate_e1(preset("bm"), COS, 4, seed=0), seed=1, grid_size=m),
    "reconstruct_discrete_from_path": lambda m: reconstruct_discrete_from_path(_zero_path(m), 4),
    "cli kriging --grid-density": lambda d: main(
        ["kriging", "--n", "4", "--preset", "bm", "--grid-density", str(d)]),
}
SIZED_ENTRY_POINTS = ("simulate_e2", "kriging_path_experiment", "path_from_discrete")
GRID_RULE_CASES = (
    [(entry, m) for entry in SIZED_ENTRY_POINTS for m in (1, 4, 6)]
    + [("reconstruct_discrete_from_path", 1), ("reconstruct_discrete_from_path", 6)]
    + [("cli kriging --grid-density", 0), ("cli kriging --grid-density", -1)]
)


@pytest.mark.parametrize("entry, size", GRID_RULE_CASES)
def test_grid_rule_holds_at_every_entry_point(entry, size, capsys):
    message = "does not contain every design knot j/4"
    if entry.startswith("cli"):
        code = GRID_ENTRY_POINTS[entry](size)
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: grid of size") and message in err
    else:
        with pytest.raises(GridMismatch, match=message):
            GRID_ENTRY_POINTS[entry](size)


@pytest.mark.parametrize("entry", SIZED_ENTRY_POINTS)
def test_grid_size_limit_holds_at_every_entry_point(entry):
    with pytest.raises(ValueError, match=f"MAX_GRID_POINTS = {MAX_GRID_POINTS} points, "
                                         f"got {MAX_GRID_POINTS + 1}$"):
        GRID_ENTRY_POINTS[entry](MAX_GRID_POINTS + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 49, 100, 1000, 4096])
def test_design_knots_are_j_over_n_bit_for_bit(n):
    assert design_knots(n).tobytes() == (np.arange(1, n + 1) / n).tobytes()
