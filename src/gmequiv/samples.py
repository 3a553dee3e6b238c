"""Sample containers and the design grid that every layer shares."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch

VARIANTS = ("original", "cell_averaged")
DEFAULT_GRID_DENSITY = 20
# Elements per block of every blocked loop: the sampler's normals, the
# pinned endpoint's zeros and the dense Fourier sum's phases, the Parseval
# DFT's included. 512 KiB of float64, 1 MiB of complex.
BLOCK_ELEMENTS = 1 << 16
# Largest design or path grid: one float64 array of it takes 128 MiB, 51
# times the 327,681 points of a default path grid at n = 16384. Larger sizes
# are refused before any array is built.
MAX_GRID_POINTS = (128 << 20) // 8


def block_rows(width: int) -> int:
    """Rows of `width` elements in one block: BLOCK_ELEMENTS // width, at
    least one. BLOCK_ELEMENTS is read at each call."""
    return max(1, BLOCK_ELEMENTS // width)


def check_grid_points(m: int) -> None:
    """Refuse a grid of more than MAX_GRID_POINTS points with ValueError,
    naming the limit."""
    if m > MAX_GRID_POINTS:
        raise ValueError(f"a design or path grid takes at most MAX_GRID_POINTS = "
                         f"{MAX_GRID_POINTS} points, got {m}")


def design_knots(n: int) -> np.ndarray:
    """The design knots j/n for j = 1..n: path_grid(n, n + 1) without its
    origin, so an n below 1 or at MAX_GRID_POINTS or above raises
    ValueError."""
    return path_grid(n, n + 1)[1:]


def knot_stride(n: int, m: int) -> int:
    """Index step between consecutive design knots on the m-point grid
    i/(m - 1); knot j/n sits at index j * stride.

    Raises ValueError for n < 1, and GridMismatch unless the grid
    contains every knot, that is unless m >= n + 1 and n divides m - 1.
    """
    if n < 1:
        raise ValueError(f"the design needs n >= 1 knots, got n = {n}")
    if m < n + 1 or (m - 1) % n != 0:
        raise GridMismatch(
            f"grid of size {m} does not contain every design knot j/{n}; "
            f"need size - 1 a positive multiple of {n}"
        )
    return (m - 1) // n


def path_grid(n: int, size: int | None = None) -> np.ndarray:
    """Equispaced grid of [0, 1] containing every design knot, with
    DEFAULT_GRID_DENSITY * n + 1 points unless a size is given.

    size = n + 1 gives the origin and the knots alone. A size above
    MAX_GRID_POINTS raises ValueError naming the limit (check_grid_points),
    before any array is built.
    """
    m = size if size is not None else DEFAULT_GRID_DENSITY * n + 1
    check_grid_points(m)
    knot_stride(n, m)
    return np.arange(m) / (m - 1)


@dataclass(frozen=True, eq=False)
class DiscreteSample:
    """One draw of the n-point regression experiment.

    values[i-1] observes the signal at t_i = i/n (point value or cell
    average, per `variant`) plus sqrt(n) times the i-th process increment.
    """

    n: int
    values: np.ndarray
    variant: str
    kernel_id: str
    function_id: str
    seed: int

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.values.shape != (self.n,):
            raise ValueError(f"values must have shape ({self.n},)")


@dataclass(frozen=True, eq=False)
class PathSample:
    """One draw of a continuously observed path on a finite grid.

    The grid starts at 0 and values[0] is exactly 0. `scale` is the factor
    multiplying the noise process (1/sqrt(n) for the white-noise-free
    experiment, 1.0 for raw process draws).
    """

    grid: np.ndarray
    values: np.ndarray
    kernel_id: str
    function_id: str
    seed: int
    scale: float

    def __post_init__(self):
        if self.grid.shape != self.values.shape:
            raise ValueError("grid and values must have matching shapes")
        if self.grid[0] != 0.0:
            raise ValueError("path grid must start at 0")
        if self.values[0] != 0.0:
            raise ValueError("path values must start at exactly 0")
