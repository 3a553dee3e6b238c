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
only the nonnegative residual integral needs quadrature, one call over
[0, 1] with the knots as panel edges. The Markov structure reduces Kriging
to a two-knot rule: in the (q, y/v) plane the conditional expectation is
linear interpolation anchored at the origin. Each has a dense oracle
alongside: weighted least squares on a fixed midpoint grid for D_n, a
covariance solve for Kriging. Their factors, solves and products run under
kernels.serial_blas, on the calling thread, so their bits do not depend on
the BLAS thread count.

Every function here is deterministic in its arguments; the layer draws
nothing. Path draws, the one that path_from_discrete adds to its Kriging
among them, live in experiments.
"""

from __future__ import annotations

import numpy as np

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
from .quadrature import adaptive_integral
from .samples import design_knots, path_grid

DENSE_GRID_SIZE = 10_000


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


def _clock_integral(kernel: GaussMarkovKernel, integrand, breakpoints=()) -> float:
    """adaptive_integral of integrand over [0, 1]. A QuadratureFailure is
    raised again, with the same achieved tolerance, naming the kernel: an
    integral against q' that does not settle may mean that g is not square
    integrable, so that F_f lies outside the kernel's RKHS."""
    try:
        return adaptive_integral(integrand, 0.0, 1.0, breakpoints=breakpoints)
    except QuadratureFailure as exc:
        raise QuadratureFailure(
            f"{exc.message} on kernel {kernel.name!r}; F_f may lie outside "
            "the kernel's RKHS", exc.achieved) from exc


def rkhs_norm(kernel: GaussMarkovKernel, f: FourierFunction) -> float:
    """||F_f||_H = sqrt(integral_0^T g^2), via the clock substitution.

    Raises DegenerateCell when the clock is not increasing on the
    VALIDATION_GRID, where q' < 0 would make the integrand meaningless,
    and QuadratureFailure naming the kernel when the integral does not
    settle (_clock_integral).
    """
    design_clock(kernel, VALIDATION_GRID - 1)

    def integrand(w):
        g, q_prime = _preimage(kernel, f, w)
        return g ** 2 * q_prime

    value = _clock_integral(kernel, integrand)
    return float(np.sqrt(max(value, 0.0)))


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

    with j(w) the cell holding w. D_n is one quadrature call with the
    knots as panel edges; the integrand is nonnegative and the
    Gauss-Legendre weights are positive, so there is no cancellation. A
    degenerate clock cell raises DegenerateCell, a pinned endpoint
    KernelDegenerate (unpinned_design_clock), and an integral that does not
    settle QuadratureFailure naming the kernel (_clock_integral).
    """
    v, q = unpinned_design_clock(kernel, n, KernelDegenerate, "the design span is not closed in L2")
    knots = path_grid(n, n + 1)
    alpha = np.diff(np.asarray(f.antiderivative(knots)) / v) / np.diff(q)

    def residual(w):
        g, q_prime = _preimage(kernel, f, w)
        return (g - alpha[np.searchsorted(knots, w, side="right") - 1]) ** 2 * q_prime

    return _clock_integral(kernel, residual, breakpoints=knots)


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

