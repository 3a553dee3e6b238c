"""The one quadrature engine: composite 16-point Gauss-Legendre.

Every integral in the package goes through `adaptive_integral`. The
breakpoints are the first panel edges, so an integrand that is smooth
between them (a cell-wise integrand with the design knots as breakpoints,
a step with its jump as a breakpoint) is integrated at spectral accuracy.
Every panel is halved, all at once in one vectorized evaluation, until two
successive totals agree to the relative tolerance or to an absolute floor
of 1e-13. An integral that has not settled after MAX_DOUBLINGS halvings
raises QuadratureFailure; no unconverged value is ever returned.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureFailure

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
REL_TOL = 1e-9
ABS_TOL = 1e-13
# Integrands analytic between breakpoints settle within a level or two. The
# cap bounds the work spent on one that does not: 2^8 panels per segment,
# about 2.1M nodes at the last level of a 512-cell design.
MAX_DOUBLINGS = 8


def _gauss_panels(fn: Callable, edges: np.ndarray) -> float:
    """16-point Gauss-Legendre on each panel [edges[i], edges[i+1]], summed."""
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    # nodes shape (panels, 16), evaluated in one vectorized call
    xs = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = np.asarray(fn(xs.ravel()), dtype=float).reshape(xs.shape)
    return float(np.sum(half * (vals @ _GL_WEIGHTS)))


def adaptive_integral(fn: Callable, a: float, b: float,
                      rel_tol: float = REL_TOL,
                      breakpoints: Sequence[float] = ()) -> float:
    """Integral of fn over [a, b] with an enforced relative tolerance.

    fn takes a 1-d array of nodes and returns the integrand there. The
    breakpoints inside (a, b) are panel edges at every level. Raises
    QuadratureFailure carrying the achieved relative tolerance when the
    totals have not settled after MAX_DOUBLINGS halvings (tiny integrals
    are judged on the absolute floor ABS_TOL instead).
    """
    inner = [p for p in breakpoints if a < p < b]
    edges = np.unique(np.array([a, *inner, b], dtype=float))
    value = _gauss_panels(fn, edges)
    for _ in range(MAX_DOUBLINGS):
        halved = np.empty(2 * edges.size - 1)
        halved[0::2] = edges
        halved[1::2] = 0.5 * (edges[1:] + edges[:-1])
        edges = halved
        new = _gauss_panels(fn, edges)
        change = abs(new - value)
        value = new
        if change <= ABS_TOL or change <= rel_tol * abs(value):
            return value
    raise QuadratureFailure(
        f"Gauss-Legendre quadrature on [{a:g}, {b:g}] missed relative tolerance {rel_tol:g}",
        change / max(abs(value), 1e-300),
    )
