"""Exact Gaussian path simulation for triangular kernels.

Every kernel rides the time change. With q = u/v increasing from q(0) = 0,
read with u and v from one kernel.clock call on the grid, the process is
v(t) W_{q(t)} for a standard Brownian motion W, so the lower
Cholesky factor of the grid covariance is known in closed form,
diag(v) (lower-triangular ones) diag(sqrt(dq)): increments of W over
consecutive q-cells are independent normals with variance dq, and a
cumulative sum plus scaling is an exact draw in O(grid) work per path. No
factorization, no jitter, no truncation.

Grid points that carry no variance are deterministic zeros: t = 0 on
every kernel; t = 1 on pinned kernels such as the bridge, where v(1) = 0
makes the horizon q(1) infinite but leaves no randomness at that point;
and an interior point only where u v is exactly 0. Whether t = 1 is
pinned is the kernel's own verdict, read from its horizon, not decided
again on the path grid. Every other point is drawn, however small its
variance, so a kernel written in another gauge (c u, v / c), with a tiny
variance everywhere, or with a variance that spans many decades (u = t^5)
is drawn by its own law. A negative u v is not zeroed either: the clock
check refuses it.

Draws are streamed in blocks of whole paths, samples.block_rows(columns)
paths each: at most samples.BLOCK_ELEMENTS normals (at least one path),
the one block budget that every blocked loop in the package shares. Every
block is drawn into one reused buffer and multiplied by sqrt(dq) there,
and each caller reduces it to what it keeps before the next block
overwrites it. sample_paths keeps every running sum
times v: on blocks at most COLUMN_ADD_WIDTH columns wide it adds column by
column, where np.cumsum over short rows is slow, and on wider blocks it
calls np.cumsum. The generator is read in the same row-major order whatever
the block size, and every sum runs left to right along its own path, so
every path value is independent of BLOCK_ELEMENTS and of the route.

endpoint_blocks streams only the endpoints, one block of paths at a time,
so its memory is one block, its Fortran-ordered copy and the block sums
its caller keeps, whatever npaths is. Each endpoint is its row's sum times
v(1), yielded as a fresh array: np.add.reduce adds the columns of the
copy, left to right as np.cumsum does when the block has two or more
rows; a one-row block, which np.add.reduce would sum pairwise, takes
np.cumsum. So every endpoint is bit for bit the last column of
sample_paths, independent of BLOCK_ELEMENTS. A statistic merged over the
blocks, such as the counterexample's streamed variance, depends on the
block partition only in its last bits.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import rng
from .errors import SingularCovariance
from .kernels import GaussMarkovKernel
from .samples import block_rows

# Widest block whose running sums are built by one np.add per column. On a
# block of BLOCK_ELEMENTS normals (x86-64 Xeon, numpy 2.4) the column adds take
# 100 us at 10 columns where np.cumsum, looping row by row, takes 266 us; the
# two break even near 64 columns.
COLUMN_ADD_WIDTH = 48


def _require(kernel: GaussMarkovKernel, points: np.ndarray, bad: np.ndarray,
              reason: str) -> None:
    if bad.any():
        raise SingularCovariance(
            f"grid covariance for kernel {kernel.name!r} is singular: {reason} "
            f"(first bad grid point t = {float(points[np.argmax(bad)])!r})"
        )


def _path_blocks(kernel: GaussMarkovKernel, grid, npaths: int, seed: int, label: str
                 ) -> tuple[int, int, np.ndarray, Iterator[tuple[int, np.ndarray]]]:
    """Validate the grid and clock, then stream the scaled normals in row blocks.

    Returns (size, lo, v, blocks): the grid size, the first random column lo,
    v over the random columns, and an iterator of (first_row, block), where
    block holds the normals times sqrt(dq) for the columns lo .. lo + v.size - 1
    of the paths first_row onward; path j is v times the running sum of row j.
    Every block is a view of one buffer, overwritten by the next block.
    Every column outside that run is exactly 0; with no random column v is
    empty and the iterator is empty. The checks run before this returns.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or grid[0] != 0.0:
        raise ValueError("grid must be a 1-d increasing array starting at 0")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    gen = rng.stream(seed, label, kernel.name, grid.size, npaths)
    with np.errstate(all="ignore"):
        us, vs, q = kernel.clock(grid)
        var = us * vs
    del us
    _require(kernel, grid, ~np.isfinite(var), "the variance u*v is not finite")
    alive = var != 0.0
    del var
    alive[0] = False
    if grid[-1] == 1.0:  # the endpoint is pinned or not by the kernel's own verdict
        alive[-1] = np.isfinite(kernel.horizon)
    lo = int(np.argmax(alive))
    if not alive[lo]:
        return grid.size, 0, vs[:0], iter(())
    hi = alive.size - int(np.argmax(alive[::-1]))
    _require(kernel, grid[lo:hi], ~alive[lo:hi],
             "the positive-variance points are not one contiguous run")
    dq = np.empty(hi - lo)
    dq[0] = q[lo]  # the clock is 0 at the zero-variance point before the run
    with np.errstate(all="ignore"):
        np.subtract(q[lo + 1:hi], q[lo:hi - 1], out=dq[1:])
    del q
    _require(kernel, grid[lo:hi], ~(np.isfinite(dq) & (dq > 0.0)),
             "q is not finite and strictly increasing from q(0) = 0")
    scale = np.sqrt(dq, out=dq)
    rows = block_rows(hi - lo)
    buffer = np.empty((min(rows, npaths), hi - lo))

    def blocks():
        for first in range(0, npaths, rows):
            block = buffer[: min(rows, npaths - first)]
            gen.standard_normal(out=block)
            block *= scale
            yield first, block

    return grid.size, lo, vs[lo:hi], blocks()


def sample_paths(kernel: GaussMarkovKernel, grid, npaths: int, seed: int,
                 label: str = "paths") -> np.ndarray:
    """Draw npaths exact samples of the process on the given grid.

    Returns an (npaths, len(grid)) array. The grid must be increasing and
    start at 0. The interior points where u v is not exactly 0, and t = 1
    when the horizon is finite, get v W_q through the time change in O(grid)
    work per path; every other point, the first column included, is
    exactly 0. Raises SingularCovariance, naming the kernel and the first
    bad grid point, unless those points form one contiguous run on which q
    is finite and strictly increasing from q(0) = 0. Deterministic in
    (seed, label, kernel, grid size).
    """
    size, lo, v, blocks = _path_blocks(kernel, grid, npaths, seed, label)
    out = np.zeros((npaths, size))
    for first, block in blocks:
        if v.size <= COLUMN_ADD_WIDTH:
            for j in range(1, v.size):
                np.add(block[:, j - 1], block[:, j], out=block[:, j])
        else:
            np.cumsum(block, axis=1, out=block)
        np.multiply(block, v, out=out[first : first + block.shape[0], lo : lo + v.size])
    return out


def endpoint_blocks(kernel: GaussMarkovKernel, grid, npaths: int, seed: int,
                    label: str = "paths") -> Iterator[np.ndarray]:
    """Stream the last column of sample_paths with the same arguments, bit
    for bit, as consecutive blocks of endpoints.

    Same checks, which run before this returns, and same stream as
    sample_paths, but memory is one block, its Fortran-ordered copy and the
    block sums the caller keeps, whatever npaths is. Each yielded array is
    fresh: the caller may keep it or reduce it in place.
    """
    size, lo, v, blocks = _path_blocks(kernel, grid, npaths, seed, label)

    def sums():
        if lo + v.size < size:  # the endpoint is a pinned zero
            rows = block_rows(1)
            for first in range(0, npaths, rows):
                yield np.zeros(min(rows, npaths - first))
            return
        for _, block in blocks:
            if block.shape[0] == 1:
                row_sums = np.cumsum(block, axis=1, out=block)[:, -1].copy()
            else:
                row_sums = np.add.reduce(np.asfortranarray(block), axis=1)
            row_sums *= v[-1]
            yield row_sums

    return sums()
