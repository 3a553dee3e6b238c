"""The reproducing-kernel Hilbert space of a triangular kernel, concretely.

Everything rests on one isometry: the RKHS of Cov = u(min) v(max) is

    H = { F(t) = v(t) * integral_0^{q(t)} g(x) dx : g in L2[0, T] },
    ||F||_H = ||g||_{L2[0,T]},      T = q(1),

and the representer of evaluation at t maps to psi(K(., t)) = v(t) *
1_{[0, q(t)]}. For a regression mean F_f(t) = integral_0^t f, the pre-image
in time coordinates is

    g(q(w)) = (f(w) v(w) - v'(w) F_f(w)) / (v(w)^2 q'(w)),

obtained by differentiating F/v along the clock. All integrals over the
clock domain [0, T] are pulled back to [0, 1] with the substitution
x = q(w), dx = q'(w) dw, so nothing ever needs q explicitly inverted.
rkhs_norm(kernel, f) and the projection distances take g from f at their
nodes, together with the q'(w) it was divided by; v, v' and q' there come
from one kernel.clock_rate call, and Kriging reads v and q at its points
from kernel.clock.

The finite-design operations live here too: the least-squares distance
D_n from g to the span of the design representers, and Kriging
interpolation. Since g(q(w)) q'(w) = (F_f/v)'(w), the q'-weighted mass of g
over a design cell is the increment of F_f/v across it, in closed form;
only the nonnegative residual integral needs quadrature. The one integral
in the package is _residual_integral, composite 16-point Gauss-Legendre
on equal panels, level L holding cells * 2^L of them with the knots among
their edges: ||F_f||_H^2 is its value against alpha = 0 on one cell, D_n
its value against the cell means. The Markov structure reduces Kriging to
a two-knot rule: in the (q, y/v) plane the conditional expectation is
linear interpolation anchored at the origin. Each has a dense oracle
alongside: weighted least squares on a fixed midpoint grid for D_n, a
covariance solve for Kriging. Their factors, solves and products run
under kernels.serial_blas, on the calling thread, so their bits do not
depend on the BLAS thread count.

Every function here is deterministic in its arguments; the layer draws
nothing. Path draws, the one that path_from_discrete adds to its Kriging
among them, live in experiments.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import samples
from .errors import KernelDegenerate, QuadratureFailure, SingularCovariance
from .fourier import FourierFunction
from .kernels import (
    VALIDATION_GRID,
    GaussMarkovKernel,
    covariance,
    design_clock,
    gram,
    serial_blas,
    unpinned_design_clock,
)
from .samples import design_knots, path_grid

DENSE_GRID_SIZE = 10_000
REL_TOL = 1e-9
ABS_TOL = 1e-13
# Integrands analytic within a cell settle within a level or two. The cap
# bounds the work spent on one that does not: 2^8 panels per cell, 4096
# nodes, so 2^24 = MAX_GRID_POINTS nodes at the last level of a 4096-cell
# design; a larger design stops at the last level that fits. A function
# whose top frequency K exceeds the cell count gets 2^8 panels per period
# instead (_residual_integral), under the same node limit.
MAX_DOUBLINGS = 8


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes u_s = (x_s + 1) / 2 and weights w_s / 2 of 16-point
    Gauss-Legendre mapped from [-1, 1] to [0, 1], built on first use, so
    numpy.polynomial loads only when something is integrated."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    return (nodes + 1) / 2, weights / 2


def decoupled_drift(kernel: GaussMarkovKernel, f: FourierFunction, w
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(F_f / v)'(w) = (f v - v' F_f) / v^2, the drift of the decoupled
    process X/v with regression mean F_f, and the clock rate q'(w), from
    one kernel.clock_rate call."""
    w = np.asarray(w, dtype=float)
    _, v, _, v_prime, q_prime = kernel.clock_rate(w)
    return (np.asarray(f(w)) * v - v_prime * np.asarray(f.antiderivative(w))) / (v * v), q_prime


def _preimage(kernel: GaussMarkovKernel, f: FourierFunction, w) -> tuple[np.ndarray, np.ndarray]:
    """g(q(w)) and q'(w) for the regression mean F_f."""
    with np.errstate(all="ignore"):
        drift, q_prime = decoupled_drift(kernel, f, w)
        return drift / q_prime, q_prime


def _residual_integral(kernel: GaussMarkovKernel, f: FourierFunction, alpha: np.ndarray) -> float:
    """integral_0^1 (g(q(w)) - alpha_{j(w)})^2 q'(w) dw over the alpha.size
    equal cells of path_grid(alpha.size, alpha.size + 1), with j(w) the cell
    holding w, by composite 16-point Gauss-Legendre.

    Level L is a function of its panel count P = cells * 2^L alone: its
    nodes are (r + u_s) / P for panel r and the Gauss nodes u_s mapped to
    [0, 1] (_gauss_rule), its total sum_r sum_s w_s residual / P. The cell
    edges are panel edges at every level, so a g smooth within each cell is
    integrated at spectral accuracy. Each level halves every panel of the
    last and is evaluated in one vectorized call, until two successive
    totals agree to REL_TOL or to the absolute floor ABS_TOL; no unconverged
    value is ever returned. QuadratureFailure, carrying the last achieved
    relative tolerance, names the kernel when the totals have not settled
    after MAX_DOUBLINGS halvings, MAX_DOUBLINGS + ceil(log2(f.K / cells))
    when f.K exceeds the cell count (2^8 panels per period of the top
    frequency, as many as a cell gets otherwise), or when the next level's
    nodes would exceed samples.MAX_GRID_POINTS (read at each call). An
    integral against q' that does not settle may mean that g is not square
    integrable, so that F_f lies outside the kernel's RKHS.
    """
    u, w = _gauss_rule()
    value, change = 0.0, math.inf
    extra = math.ceil(math.log2(f.K / alpha.size)) if f.K > alpha.size else 0
    for level in range(MAX_DOUBLINGS + extra + 1):
        panels = alpha.size * 2 ** level
        if 16 * panels > samples.MAX_GRID_POINTS:
            break
        # nodes shape (panels, 16), evaluated in one vectorized call; column s
        # is the exact progression (r + u_s) / panels, so FourierFunction
        # evaluates the whole array by one FFT
        g, q_prime = _preimage(kernel, f, (np.arange(panels)[:, None] + u) / panels)
        residual = (g - np.repeat(alpha, 2 ** level)[:, None]) ** 2 * q_prime
        new = float(np.sum(residual @ w)) / panels
        del g, q_prime, residual  # not held while the next level is evaluated
        if level:
            change = abs(new - value)
            if change <= ABS_TOL or change <= REL_TOL * abs(new):
                return new
        value = new
    raise QuadratureFailure(
        f"Gauss-Legendre quadrature on [0, 1] missed relative tolerance {REL_TOL:g} on "
        f"kernel {kernel.name!r}; F_f may lie outside the kernel's RKHS",
        change / max(abs(value), 1e-300))


def rkhs_norm(kernel: GaussMarkovKernel, f: FourierFunction) -> float:
    """||F_f||_H = sqrt(integral_0^T g^2), via the clock substitution: the
    residual integral against alpha = 0 on one cell.

    Raises DegenerateCell when the clock is not increasing on the
    VALIDATION_GRID, where q' < 0 would make the integrand meaningless,
    and QuadratureFailure naming the kernel when the integral does not
    settle (_residual_integral).
    """
    design_clock(kernel, VALIDATION_GRID - 1)
    return float(np.sqrt(max(_residual_integral(kernel, f, np.zeros(1)), 0.0)))


# ---------------------------------------------------------------------------
# projection distance onto the design span


def projection_distance(kernel: GaussMarkovKernel, f: FourierFunction, n: int) -> float:
    """Squared L2 distance D_n from g to the span of the design representers.

    The representers at t_j = j/n span exactly the step functions on the
    clock cells (q(t_{j-1}), q(t_j)], so the projection has the q'-weighted
    cell means of g as coefficients. Those are closed form: the mass of g
    over cell j is the increment of F_f/v across it, so

        alpha_j = Delta_j(F_f / v) / Delta_j q,
        D_n = integral_0^1 (g(q(w)) - alpha_{j(w)})^2 q'(w) dw,

    with j(w) the cell holding w. D_n is one _residual_integral call with
    the knots as panel edges; the integrand is nonnegative and the
    Gauss-Legendre weights are positive, so there is no cancellation. A
    degenerate clock cell raises DegenerateCell, a pinned endpoint
    KernelDegenerate (unpinned_design_clock), and an integral that does not
    settle QuadratureFailure naming the kernel (_residual_integral).
    """
    v, q = unpinned_design_clock(kernel, n, KernelDegenerate, "the design span is not closed in L2")
    alpha = np.diff(np.asarray(f.antiderivative(path_grid(n, n + 1))) / v) / np.diff(q)
    return _residual_integral(kernel, f, alpha)


def projection_distance_dense(kernel: GaussMarkovKernel, f: FourierFunction, n: int) -> float:
    """Brute-force oracle for D_n: weighted least squares for the
    coefficients of the n representers at the DENSE_GRID_SIZE midpoints
    of [0, 1]. Refuses the kernels projection_distance refuses, with the
    same errors."""
    v, _ = unpinned_design_clock(kernel, n, KernelDegenerate, "the design span is not closed in L2")
    mid = (np.arange(DENSE_GRID_SIZE) + 0.5) / DENSE_GRID_SIZE
    g, q_prime = _preimage(kernel, f, mid)
    knots = design_knots(n)
    design = v[None, 1:] * (mid[:, None] <= knots[None, :])
    sqw = np.sqrt(q_prime / DENSE_GRID_SIZE)
    target = g * sqw
    with serial_blas():
        solution, *_ = np.linalg.lstsq(design * sqw[:, None], target, rcond=None)
        residual = target - (design * sqw[:, None]) @ solution
        return float(residual @ residual)


# ---------------------------------------------------------------------------
# Kriging


def kriging_interpolate(kernel: GaussMarkovKernel, y, t):
    """Conditional expectation of the process at t given values y at j/n.

    O(n): in the (q, y/v) plane the Markov property makes the interpolant
    piecewise linear through the observations, anchored at the origin;
    multiply back by v(t). Requires v != 0 at every design knot, so kernels
    pinned at the endpoint (v(1) = 0, e.g. the bridge) are rejected: their
    design covariance is singular. A degenerate clock cell raises too.
    """
    y = np.asarray(y, dtype=float)
    v, q = unpinned_design_clock(kernel, y.size)
    zk = np.concatenate([[0.0], y / v[1:]])
    vt, qt = kernel.clock(np.atleast_1d(t))[1:]
    out = np.interp(qt, q, zk)
    out *= vt
    return float(out[0]) if np.asarray(t).ndim == 0 else out


def kriging_interpolate_dense(kernel: GaussMarkovKernel, y, t):
    """Oracle: k(t)^T C^{-1} y with the dense design covariance C."""
    y = np.asarray(y, dtype=float)
    n = y.size
    knots = design_knots(n)
    with serial_blas():
        try:
            lower = np.linalg.cholesky(gram(kernel, knots))
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance(
                f"design covariance for kernel {kernel.name!r} is singular"
            ) from exc
        alpha = np.linalg.solve(lower.T, np.linalg.solve(lower, y))
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        kvec = covariance(kernel, ts[:, None], knots[None, :])
        out = np.asarray(kvec) @ alpha
    return float(out[0]) if np.asarray(t).ndim == 0 else out

