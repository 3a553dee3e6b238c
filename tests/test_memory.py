"""Peak memory of the dense oracles, the path draws, the counterexample's
Monte Carlo premise, the Parseval check, the dense Fourier sum, the grid
evaluations, the RKHS residual integral and the command line's row output,
in units of the arrays each one builds.

tracemalloc sees numpy's data buffers, so a routine that holds k full-size
temporaries at once peaks at about k units. Each routine is called once
before it is measured, so imports and first-call caches are not counted.
"""

import tracemalloc

import numpy as np
import pytest

from gmequiv.cli import main
from gmequiv import samples
from gmequiv.counterexample import indistinguishability_check
from gmequiv.diagnostics import MAX_DENSE_KL_N, MAX_FAMILY_N, band_split_decomposition, kl_dense
from gmequiv.errors import QuadratureFailure
from gmequiv.experiments import path_from_discrete, simulate_e1, simulate_e2
from gmequiv.fourier import ClassSpec, FourierFunction, sample_ellipsoid
from gmequiv.kernels import gram, make_kernel, preset
from gmequiv.rkhs import kriging_interpolate, kriging_interpolate_dense, projection_distance
from gmequiv.samples import BLOCK_ELEMENTS, path_grid
from gmequiv.sampling import endpoint_blocks, sample_paths

N = 512
UNIT = N * N * 8  # one n x n matrix of doubles


def _peak(fn) -> int:
    """Bytes fn allocates at its peak above what is held before the call."""
    fn()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_gram_holds_its_result_and_a_mask():
    ts = np.arange(1, N + 1) / N
    assert _peak(lambda: gram(preset("ou", 1.0), ts)) <= 1.25 * UNIT


def test_kl_dense_holds_one_matrix():
    """The knot Gram matrix, factored in place, and panel-sized temporaries
    (1.25 units here, Gram's mask included): not the increment covariance
    beside the copy a dense solve takes (2.03 units)."""
    cos = FourierFunction.harmonic(1)
    assert _peak(lambda: kl_dense(preset("slepian"), cos, N)) <= 1.5 * UNIT


def test_refused_dense_kl_builds_no_array():
    """n above MAX_DENSE_KL_N is refused before any matrix is built (n^2
    doubles, 512 MiB here); the command checks its whole n list first, so
    n = 1024 (8 MiB) does not run before 8192 is refused."""
    cos = FourierFunction.harmonic(1)

    def refused():
        try:
            kl_dense(preset("slepian"), cos, 2 * MAX_DENSE_KL_N)
        except ValueError:
            return
        raise AssertionError("kl_dense ran above MAX_DENSE_KL_N")

    assert _peak(refused) <= 2**20
    argv = ["kl", "--preset", "slepian", "--n", f"1024,{2 * MAX_DENSE_KL_N}"]
    assert main(argv) == 1
    assert _peak(lambda: main(argv)) <= 2**20


def test_refused_fourier_family_runs_no_n():
    """rates checks its whole n list against MAX_FAMILY_N first, so the n
    up to the limit (members up to K = 2^20, 32 MiB of coefficients each)
    do not run before 2^20 is refused."""
    argv = ["rates", "--stat", "discretization", "--family", "sobolev",
            "--n", f"16..{2 * MAX_FAMILY_N}"]
    assert main(argv) == 1
    assert _peak(lambda: main(argv)) <= 2**20


def test_dense_kriging_holds_its_cross_covariance_and_a_mask():
    n = N // 2
    y = np.asarray(FourierFunction.harmonic(1).antiderivative(np.arange(1, n + 1) / n))
    grid = np.arange(20 * n + 1) / (20 * n)
    cross = grid.size * n * 8
    assert _peak(lambda: kriging_interpolate_dense(preset("ou", 1.0), y, grid)) <= 1.25 * cross


def test_one_path_draw_holds_four_grid_arrays():
    """v and the clock increments, which scale the draw, the output and the
    block being drawn: 10 MiB on this 327,681-point grid."""
    grid = path_grid(16384)
    assert _peak(lambda: sample_paths(preset("ou", 1.0), grid, 1, 0)) <= 4.2 * grid.nbytes


def test_endpoint_stream_holds_two_blocks():
    """The drawn block, its Fortran-ordered copy and one block of
    endpoints, plus 128 KiB for the generator's own working memory; never
    the npaths endpoints (800 KB here) or a path per row (52 MB)."""
    grid, npaths = path_grid(64, 65), 100_000
    rows = BLOCK_ELEMENTS // 64
    peak = _peak(lambda: [block.sum() for block in endpoint_blocks(preset("bm"), grid, npaths, 0)])
    assert peak <= 2 * 8 * BLOCK_ELEMENTS + 8 * rows + 2**17


def test_counterexample_memory_does_not_grow_with_the_paths():
    """Ten times the Monte Carlo paths, the same peak to within one block:
    the premise streams its endpoints and keeps only running moments."""
    small, large = (_peak(lambda p=p: indistinguishability_check(4, mc_paths=p))
                    for p in (100_000, 1_000_000))
    assert abs(large - small) <= 8 * BLOCK_ELEMENTS


def test_parseval_dft_holds_row_blocks_not_the_phase_matrix():
    """The direct DFT builds its phase matrix block_rows(n) rows at a time:
    the integer products, their complex phases and the exponential, 3
    complex blocks of BLOCK_ELEMENTS entries whatever n is, never the n x n
    matrix (16 MiB here). At n = 4096 the blocks are as large, beside
    about 0.4 MiB of length-n arrays, not the 48 MiB of 256-row blocks."""
    cos = FourierFunction.harmonic(1)
    assert _peak(lambda: band_split_decomposition(cos, 1024)) <= 3.25 * 16 * BLOCK_ELEMENTS
    assert _peak(lambda: band_split_decomposition(cos, 4096)) <= 4 * 2**20


def test_dense_fourier_sum_holds_one_block():
    """Off-grid points take the dense sum, block_rows(2K + 1) points at a
    time: the real products, their complex phases and the exponential, not
    a 2048-point block whatever K is (768 MiB at K = 4096)."""
    f = sample_ellipsoid(ClassSpec.sobolev(1.0, 1.0), K=4096, seed=0)
    t = np.random.default_rng(0).random(4096)
    assert _peak(lambda: f(t)) <= 4 * 2**20


def test_grid_antiderivative_holds_its_fft_buffer_and_output():
    """The folded half spectrum, conjugated in place, the real values of its
    inverse FFT, the output and theta_0 t: no index array, gathered copy
    or complex output."""
    grid = path_grid(16384)
    cos = FourierFunction.harmonic(1)
    assert _peak(lambda: cos.antiderivative(grid)) <= 4.25 * grid.nbytes


def test_continuous_experiment_holds_the_noise_beside_one_evaluation():
    """The grid and the drawn noise, held while the antiderivative is
    evaluated, and the sum that becomes the sample."""
    grid = path_grid(16384)
    cos = FourierFunction.harmonic(1)
    assert _peak(lambda: simulate_e2(preset("ou", 1.0), cos, 16384, 0)) <= 6.25 * grid.nbytes


def test_expression_kriging_holds_three_grid_arrays():
    """v, the clock and the output on the grid, plus the knot arrays: the
    expression u = t is a view of the grid, not a copy of it (4.15 grid
    arrays), and the constant 2 is one float, not a grid array."""
    n = 16384
    grid = path_grid(n)
    y = np.asarray(FourierFunction.harmonic(1).antiderivative(np.arange(1, n + 1) / n))
    lab = make_kernel("lab", "t", "2 - t")
    assert _peak(lambda: kriging_interpolate(lab, y, grid)) <= 3.25 * grid.nbytes


def test_rebuilt_path_holds_one_draw_beside_one_kriging():
    """The draw X, the grid, and the Kriging's factor values, clock and
    output: one draw and one interpolation, not a second Kriging of the
    draw's knot values beside the first (8.15 grid arrays)."""
    n = 16384
    grid = path_grid(n)
    kernel = preset("ou", 1.0)
    sample = simulate_e1(kernel, FourierFunction.harmonic(1), n, 0, variant="cell_averaged")
    assert _peak(lambda: path_from_discrete(kernel, sample, 1)) <= 6.5 * grid.nbytes


@pytest.mark.parametrize("k, n", [(1, 16), (64, 1)])
def test_unsettled_residual_integral_stops_at_the_node_cap(monkeypatch, k, n):
    """On u = t^5, v = 1 the running integral of a harmonic lies outside
    the RKHS and the residual integral never settles. A level is evaluated
    only if its nodes fit in MAX_GRID_POINTS, here 2^14: the peak is 9.9
    doubles per node of the last level that fits, not of the 65,536 nodes
    of level MAX_DOUBLINGS on 16 cells (4.9 MiB, 3.3 times the bound), nor
    of the 2^18 nodes of the MAX_DOUBLINGS + 6 halvings that k = 64 is
    allowed on one cell, 2^8 panels per period."""
    cap = 1 << 14
    monkeypatch.setattr(samples, "MAX_GRID_POINTS", cap)
    quintic = make_kernel("quintic", "t^5", "1")

    def unsettled():
        with pytest.raises(QuadratureFailure, match="kernel 'quintic'"):
            projection_distance(quintic, FourierFunction.harmonic(k), n)

    assert _peak(unsettled) <= 12 * 8 * cap


@pytest.mark.parametrize("fmt, units", [("csv", 6), ("json", 16)])
def test_command_rows_are_written_a_block_at_a_time(monkeypatch, tmp_path, fmt, units):
    """Kriging's rows are converted and written block_rows(columns) at a
    time. On the default grid at n = 16384 (327,681 rows) CSV peaks at 5.2
    grid arrays (the arrays the command computes and one block of rows;
    simulate --exp e2 likewise) and JSON at 14.2 (one block of row dicts
    and the encoder's pieces of their text); building every row before
    writing took 54 and 108. The test runs a quarter of that, n = 4096 with
    a quarter of the block, where the peaks read 5.4 and 14.3 grid
    arrays. The run at n = 128 takes the same route, so the measured
    run loads nothing."""
    monkeypatch.setattr(samples, "BLOCK_ELEMENTS", samples.BLOCK_ELEMENTS // 4)
    argv = ["kriging", "--format", fmt]
    out = ["--out", str(tmp_path / "rows.txt")]
    main([*argv, "--n", "128", *out])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        main([*argv, "--n", "4096", *out])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= units * path_grid(4096).nbytes
