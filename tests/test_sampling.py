"""Tests for the block stream behind sample_paths and endpoint_blocks."""

import tracemalloc

import numpy as np
import pytest

from gmequiv import rng, sampling
from gmequiv.counterexample import indistinguishability_check
from gmequiv.kernels import preset
from gmequiv.samples import BLOCK_ELEMENTS, block_rows, path_grid
from gmequiv.sampling import endpoint_blocks, sample_paths


def _one_shot(kernel, grid, npaths, seed, label):
    """The whole draw as one array: normals on the same stream, times
    sqrt(dq), summed along each path, times v."""
    lo, hi = 1, grid.size - (1 if kernel.name == "bridge" else 0)
    gen = rng.stream(seed, label, kernel.name, grid.size, npaths)
    _, v, q = kernel.clock(grid[lo:hi])
    draws = gen.standard_normal((npaths, hi - lo)) * np.sqrt(np.diff(q, prepend=0.0))
    out = np.zeros((npaths, grid.size))
    out[:, lo:hi] = np.cumsum(draws, axis=1) * v
    return out


@pytest.mark.parametrize("name, grid, npaths", [
    ("bm", path_grid(8), 2055),
    ("ou", path_grid(16384), 3),
    ("bridge", path_grid(16), 513),
    ("slepian", path_grid(32), 1),
    ("ou", np.linspace(0.0, 1.0, 11), 13_109),
], ids=["rows-not-a-block-multiple", "path-wider-than-a-block", "bridge", "one-path",
        "eleven-point-grid"])
def test_block_stream_equals_one_shot_draw(name, grid, npaths):
    kernel = preset(name)
    rows = block_rows(grid.size - 1)
    assert npaths == 1 or npaths > rows
    paths = sample_paths(kernel, grid, npaths, 11, label="blocks")
    np.testing.assert_array_equal(paths, _one_shot(kernel, grid, npaths, 11, "blocks"))
    if name == "bridge":
        assert np.all(paths[:, -1] == 0.0)


def _endpoints(kernel, grid, npaths, seed, label):
    """The streamed endpoints as one array; every block is kept as it was
    yielded, which holds only because each is a fresh array."""
    return np.concatenate(list(endpoint_blocks(kernel, grid, npaths, seed, label)))


@pytest.mark.parametrize("kernel", [preset("bm"), preset("ou", 1.0), preset("bridge")],
                         ids=lambda k: k.name)
def test_endpoints_are_the_last_column(kernel):
    """Across the four block layouts: rows not a block multiple, a last
    block of one row, which np.add.reduce would sum pairwise, an only block
    shorter than a full one, and one path; also on one random column, which
    is its own Fortran-ordered copy."""
    for columns in (64, 8, 1):
        grid = path_grid(columns, columns + 1)
        rows = BLOCK_ELEMENTS // columns
        for npaths in (3 * rows + 5, 3 * rows + 1, 5, 1):
            np.testing.assert_array_equal(
                _endpoints(kernel, grid, npaths, 2, "end"),
                sample_paths(kernel, grid, npaths, 2, label="end")[:, -1])


def test_pinned_endpoint_streams_zeros():
    npaths = BLOCK_ELEMENTS + 3
    blocks = list(endpoint_blocks(preset("bridge"), path_grid(8, 9), npaths, 0))
    assert [block.size for block in blocks] == [BLOCK_ELEMENTS, 3]
    assert all(np.all(block == 0.0) for block in blocks)


def test_endpoints_share_the_grid_checks():
    """The checks run when the stream is made, before any block is read."""
    with pytest.raises(ValueError, match="starting at 0"):
        sampling.endpoint_blocks(preset("bm"), [0.5, 1.0], 4, 0)


def test_counterexample_monte_carlo_holds_one_block():
    """100k paths at n = 64 as one array would be 52 MB twice over. The
    premise holds the drawn block and its Fortran-ordered copy, plus
    256 KiB for the generator's working memory, the block of endpoints and
    the temporaries of one block of actions."""
    tracemalloc.start()
    try:
        indistinguishability_check(64, mc_paths=100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * BLOCK_ELEMENTS + 2**18
