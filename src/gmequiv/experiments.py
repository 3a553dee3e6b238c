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
sum_{i<=k} Y'_i onto the grid and adding an independent residual process
R = X - Krig(X at the knots), a fresh draw X with its own knot values
Kriged away:

    path(t) = ( Krig(t | S') + sqrt(n) R_t ) / n.

Kriging is linear, so the two interpolations fold into one, of the knot
data minus the draw's knot values, and the path is built as

    path(t) = Krig(t | S'/n - X(t_k)/sqrt(n)) + X_t / sqrt(n),

which is the residual form up to rounding. At a knot the Kriging returns
its datum, so the rebuilt path is S'_k / n there whatever X is, which is
what makes the discrete -> path -> discrete round trip the identity.

The experiments draw on three streams: the knot increments
("increments"), the noise of the continuous experiment and of its Kriging
form, which share it ("path"), and the draw X of the rebuilt path
("residual"). The RKHS layer they call for Kriging draws nothing.
"""

from __future__ import annotations

import math

import numpy as np

from . import rkhs, sampling
from .fourier import FourierFunction
from .kernels import GaussMarkovKernel
from .samples import DiscreteSample, PathSample, design_knots, knot_stride, path_grid


def simulate_increments(kernel: GaussMarkovKernel, n: int, seed: int) -> np.ndarray:
    """Exact draw of the n process increments over consecutive knots."""
    grid = path_grid(n, n + 1)
    path = sampling.sample_paths(kernel, grid, 1, seed, label="increments")[0]
    return np.diff(path)


def simulate_e1(kernel: GaussMarkovKernel, f: FourierFunction, n: int, seed: int,
                variant: str = "original") -> DiscreteSample:
    """Draw the discrete experiment; variants share noise for a given seed."""
    xi = simulate_increments(kernel, n, seed)
    if variant == "original":
        signal = np.asarray(f(design_knots(n)))
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


def _path_sample(kernel: GaussMarkovKernel, grid: np.ndarray, mean: np.ndarray,
                 noise: np.ndarray, n: int, function_id: str, seed: int) -> PathSample:
    """The PathSample mean + noise / sqrt(n) on grid, its value at t = 0
    set to exactly 0: every path this module builds has that form."""
    values = mean + noise / math.sqrt(n)
    values[0] = 0.0
    return PathSample(grid=grid, values=values, kernel_id=kernel.name,
                      function_id=function_id, seed=seed, scale=1.0 / math.sqrt(n))


def _path_noise(kernel: GaussMarkovKernel, seed: int, grid: np.ndarray) -> np.ndarray:
    """X on the grid, drawn on the "path" stream: it depends on (seed,
    kernel, grid) alone, never on the mean it is added to."""
    return sampling.sample_paths(kernel, grid, 1, seed, label="path")[0]


def simulate_e2(kernel: GaussMarkovKernel, f: FourierFunction, n: int, seed: int,
                grid_size: int | None = None) -> PathSample:
    """Draw the continuous experiment on a knot-containing grid.

    The noise stream depends only on (seed, kernel, grid), never on f, so
    runs with different f but one seed differ exactly by the signal.
    """
    grid = path_grid(n, grid_size)
    noise = _path_noise(kernel, seed, grid)
    return _path_sample(kernel, grid, np.asarray(f.antiderivative(grid)), noise, n, f.name, seed)


def reconstruct_discrete_from_path(path: PathSample, n: int) -> DiscreteSample:
    """Y'_i = n (path(t_i) - path(t_{i-1})); the grid must contain the knots."""
    at_knots = path.values[::knot_stride(n, path.grid.size)]
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
    """Draw the Kriging form of the continuous experiment: interpolate the
    exact knot means, add the noise simulate_e2 adds."""
    grid = path_grid(n, grid_size)
    mean = rkhs.kriging_interpolate(kernel, np.asarray(f.antiderivative(design_knots(n))), grid)
    noise = _path_noise(kernel, seed, grid)
    return _path_sample(kernel, grid, mean, noise, n, f.name, seed)


def path_from_discrete(kernel: GaussMarkovKernel, sample: DiscreteSample, seed: int,
                       grid_size: int | None = None) -> PathSample:
    """Rebuild a continuous-experiment path from discrete data.

    One draw X on the "residual" stream and one Kriging:
    Krig(S'/n - X(t_k)/sqrt(n)) + X/sqrt(n). At the knots the result is
    S'_k / n, to rounding, whatever X is.
    """
    n = sample.n
    grid = path_grid(n, grid_size)
    stride = knot_stride(n, grid.size)
    noise = sampling.sample_paths(kernel, grid, 1, seed, label="residual")[0]
    knots = np.cumsum(sample.values) / n - noise[stride::stride] / math.sqrt(n)
    mean = rkhs.kriging_interpolate(kernel, knots, grid)
    return _path_sample(kernel, grid, mean, noise, n, sample.function_id, sample.seed)
