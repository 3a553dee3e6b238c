"""Exact Gaussian path simulation for triangular kernels.

Every kernel rides the time change. With q = u/v increasing from q(0) = 0,
the process is v(t) W_{q(t)} for a standard Brownian motion W, so the lower
Cholesky factor of the grid covariance is known in closed form,
diag(v) (lower-triangular ones) diag(sqrt(dq)): increments of W over
consecutive q-cells are independent normals with variance dq, and a
cumulative sum plus scaling is an exact draw in O(grid) work per path. No
factorization, no jitter, no truncation.

Grid points whose variance u*v vanishes are deterministic zeros: t = 0 on
every kernel, and t = 1 on pinned kernels such as the bridge, where v(1) = 0
makes the horizon q(1) infinite but leaves no randomness at that point.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .errors import SingularCovariance
from .kernels import GaussMarkovKernel


def _require(kernel: GaussMarkovKernel, points: np.ndarray, bad: np.ndarray,
              reason: str) -> None:
    if bad.any():
        raise SingularCovariance(
            f"grid covariance for kernel {kernel.name!r} is singular: {reason} "
            f"(first bad grid point t = {float(points[np.argmax(bad)])!r})"
        )


def sample_paths(kernel: GaussMarkovKernel, grid, npaths: int, seed: int,
                 label: str = "paths") -> np.ndarray:
    """Draw npaths exact samples of the process on the given grid.

    Returns an (npaths, len(grid)) array. The grid must be increasing and
    start at 0. The points of positive variance u*v get v W_q through the
    time change in O(grid) work per path; every other point, the first
    column included, is exactly 0. Raises SingularCovariance, naming the
    kernel and the first bad grid point, unless those points form one
    contiguous run on which q is finite and strictly increasing from
    q(0) = 0. Deterministic in (seed, label, kernel, grid size).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or grid[0] != 0.0:
        raise ValueError("grid must be a 1-d increasing array starting at 0")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    gen = rng.stream(seed, label, kernel.name, grid.size, npaths)
    out = np.zeros((npaths, grid.size))
    with np.errstate(all="ignore"):
        vs = np.asarray(kernel.v(grid))
        var = np.asarray(kernel.u(grid)) * vs
    _require(kernel, grid, ~np.isfinite(var), "the variance u*v is not finite")
    alive = var > 1e-14 * max(float(var.max()), 1.0)
    alive[0] = False
    run = np.flatnonzero(alive)
    if run.size == 0:
        return out
    lo, hi = int(run[0]), int(run[-1]) + 1
    _require(kernel, grid[lo:hi], ~alive[lo:hi],
             "the positive-variance points are not one contiguous run")
    with np.errstate(all="ignore"):
        dq = np.diff(np.asarray(kernel.q(grid[lo:hi])), prepend=0.0)
    _require(kernel, grid[lo:hi], ~(np.isfinite(dq) & (dq > 0.0)),
             "q is not finite and strictly increasing from q(0) = 0")
    draws = gen.standard_normal((npaths, hi - lo))
    draws *= np.sqrt(dq)
    np.cumsum(draws, axis=1, out=draws)
    draws *= vs[lo:hi]
    out[:, lo:hi] = draws
    return out
