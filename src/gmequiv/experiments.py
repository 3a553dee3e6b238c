"""The two regression experiments and the exact maps between them.

Discrete experiment (n observations at t_i = i/n):

    original:       Y_i  = f(t_i)              + sqrt(n) xi_i
    cell_averaged:  Y'_i = n int_{cell i} f    + sqrt(n) xi_i

where xi are the increments of the process X over consecutive knots. Both
variants share the same noise draw for a given seed, so their difference is
exactly the signal difference.

Continuous experiment on a grid containing every knot:

    Y_t = F_f(t) + n^{-1/2} X_t,      F_f(t) = int_0^t f.

The cell-averaged discrete data is a deterministic function of the path:
Y'_i = n (Y_{t_i} - Y_{t_{i-1}}), and conversely a path with the continuous
law is rebuilt from discrete data by Kriging the running sums S'_k =
sum_{i<=k} Y'_i onto the grid and adding an independent residual process:

    path(t) = ( Krig(t | S') + sqrt(n) R_t ) / n.

The rebuilt path agrees with S'_k / n at every knot whatever the residual
draw, which is what makes the discrete -> path -> discrete round trip the
identity.
"""

from __future__ import annotations

import math

import numpy as np

from . import rkhs, sampling
from .errors import GridMismatch
from .fourier import FourierFunction
from .kernels import GaussMarkovKernel
from .samples import DEFAULT_GRID_DENSITY, DiscreteSample, PathSample


def _knot_grid(n: int, grid_size: int | None) -> np.ndarray:
    m = grid_size if grid_size is not None else DEFAULT_GRID_DENSITY * n + 1
    if m < n + 1 or (m - 1) % n != 0:
        raise GridMismatch(
            f"grid of size {m} does not contain every design knot j/{n}; "
            f"need (size - 1) divisible by {n}"
        )
    return np.arange(m) / (m - 1)


def simulate_increments(kernel: GaussMarkovKernel, n: int, seed: int) -> np.ndarray:
    """Exact draw of the n process increments over consecutive knots."""
    grid = np.arange(n + 1) / n
    path = sampling.sample_paths(kernel, grid, 1, seed, label="increments")[0]
    return np.diff(path)


def simulate_e1(kernel: GaussMarkovKernel, f: FourierFunction, n: int, seed: int,
                variant: str = "original") -> DiscreteSample:
    """Draw the discrete experiment; variants share noise for a given seed."""
    xi = simulate_increments(kernel, n, seed)
    if variant == "original":
        signal = np.asarray(f(np.arange(1, n + 1) / n))
    elif variant == "cell_averaged":
        signal = f.cell_averages(n)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return DiscreteSample(
        n=n,
        values=signal + math.sqrt(n) * xi,
        variant=variant,
        kernel_id=kernel.name,
        function_id=f.name,
        seed=seed,
    )


def simulate_e2(kernel: GaussMarkovKernel, f: FourierFunction, n: int, seed: int,
                grid_size: int | None = None) -> PathSample:
    """Draw the continuous experiment on a knot-containing grid.

    The noise stream depends only on (seed, kernel, grid), never on f, so
    runs with different f but one seed differ exactly by the signal.
    """
    grid = _knot_grid(n, grid_size)
    noise = sampling.sample_paths(kernel, grid, 1, seed, label="path")[0]
    values = np.asarray(f.antiderivative(grid)) + noise / math.sqrt(n)
    values[0] = 0.0
    return PathSample(
        grid=grid,
        values=values,
        kernel_id=kernel.name,
        function_id=f.name,
        seed=seed,
        scale=1.0 / math.sqrt(n),
    )


def reconstruct_discrete_from_path(path: PathSample, n: int) -> DiscreteSample:
    """Y'_i = n (path(t_i) - path(t_{i-1})); the grid must contain the knots."""
    m = path.grid.size
    if (m - 1) % n != 0:
        raise GridMismatch(
            f"path grid of size {m} does not contain every design knot j/{n}"
        )
    step = (m - 1) // n
    at_knots = path.values[::step]
    return DiscreteSample(
        n=n,
        values=n * np.diff(at_knots),
        variant="cell_averaged",
        kernel_id=path.kernel_id,
        function_id=path.function_id,
        seed=path.seed,
    )


def kriging_path_experiment(kernel: GaussMarkovKernel, f: FourierFunction, n: int,
                            seed: int, grid_size: int | None = None) -> PathSample:
    """Draw the Kriging form of the continuous experiment:
    interpolate the exact knot means, add a full process at noise scale."""
    grid = _knot_grid(n, grid_size)
    knots = np.arange(1, n + 1) / n
    mean = rkhs.kriging_interpolate(kernel, np.asarray(f.antiderivative(knots)), grid)
    noise = sampling.sample_paths(kernel, grid, 1, seed, label="path")[0]
    values = mean + noise / math.sqrt(n)
    values[0] = 0.0
    return PathSample(
        grid=grid,
        values=values,
        kernel_id=kernel.name,
        function_id=f.name,
        seed=seed,
        scale=1.0 / math.sqrt(n),
    )


def path_from_discrete(kernel: GaussMarkovKernel, sample: DiscreteSample, seed: int,
                       grid_size: int | None = None) -> PathSample:
    """Rebuild a continuous-experiment path from discrete data.

    Kriging of the running sums plus an independent residual draw, scaled
    by 1/n. At the knots the result is S'_k / n exactly, independent of the
    residual realization.
    """
    n = sample.n
    grid = _knot_grid(n, grid_size)
    sums = np.cumsum(sample.values)
    mean = rkhs.kriging_interpolate(kernel, sums, grid)
    residual = rkhs.kriging_residual_process(kernel, n, seed, grid_size=grid.size)
    values = (mean + math.sqrt(n) * residual.values) / n
    values[0] = 0.0
    return PathSample(
        grid=grid,
        values=values,
        kernel_id=kernel.name,
        function_id=sample.function_id,
        seed=sample.seed,
        scale=1.0 / math.sqrt(n),
    )
