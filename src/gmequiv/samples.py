"""Sample containers shared by the experiment and RKHS layers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANTS = ("original", "cell_averaged")
# a path grid has DEFAULT_GRID_DENSITY * n + 1 points unless a size is given
DEFAULT_GRID_DENSITY = 20


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

    @property
    def knots(self) -> np.ndarray:
        return np.arange(1, self.n + 1) / self.n


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
