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
x = q(w), dx = q'(w) dw, so nothing ever needs q explicitly inverted except
the x-domain view of g, which inverts the monotone clock by bisection.

The finite-design operations live here too: the least-squares distance
D_n from g to the span of the design representers, and Kriging
interpolation. Since g(q(w)) q'(w) = (F_f/v)'(w), the q'-weighted mass of g
over a design cell is the increment of F_f/v across it, in closed form;
only the nonnegative residual integral needs quadrature, one call over
[0, 1] with the knots as panel edges. The Markov structure reduces Kriging
to a two-knot rule: in the (q, y/v) plane the conditional expectation is
linear interpolation anchored at the origin. A dense covariance solve is
kept alongside as an oracle for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import sampling
from .errors import KernelDegenerate, SingularCovariance
from .fourier import FourierFunction
from .kernels import (
    PINNED_TOL,
    VALIDATION_GRID,
    GaussMarkovKernel,
    covariance,
    design_clock,
    gram,
)
from .quadrature import adaptive_integral
from .samples import PathSample, design_knots, knot_stride, path_grid

_BISECT_ITERS = 60
_BISECT_TOL = 1e-12


def q_inverse(kernel: GaussMarkovKernel, x) -> np.ndarray:
    """Invert the clock q on [0,1] by bisection (60 halvings)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo = np.zeros_like(x)
    hi = np.ones_like(x)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        with np.errstate(all="ignore"):
            below = np.asarray(kernel.q(mid)) < x
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi - lo) < _BISECT_TOL:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class RkhsElement:
    """An RKHS element F together with its L2 pre-image g.

    g_of_time is g composed with the clock (defined on [0,1]); g is the
    native x-domain view on [0, T]. breakpoints_w lists known kinks of
    g_of_time for the adaptive integrator.
    """

    kernel: GaussMarkovKernel
    g_of_time: Callable
    F: Callable
    breakpoints_w: tuple = ()

    def g(self, x):
        w = q_inverse(self.kernel, x)
        out = np.asarray(self.g_of_time(w))
        return float(out[0]) if np.asarray(x).ndim == 0 else out

    def reproduce_F(self, t) -> np.ndarray:
        """v(t) * integral_0^{q(t)} g, evaluated by quadrature.

        For from_f elements this must reproduce the antiderivative F_f;
        the difference is a quadrature-level consistency check.
        """
        kernel = self.kernel

        def integrand(w):
            return np.asarray(self.g_of_time(w)) * np.asarray(kernel.q_prime(w))

        return _scaled_integrals(kernel, t, integrand, lambda ts: ts, self.breakpoints_w)


def _scaled_integrals(kernel: GaussMarkovKernel, t, integrand: Callable,
                      upper: Callable, breakpoints: Sequence[float]):
    """v(t) * integral_0^{upper(t)} integrand, one quadrature call per point."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    vals = np.array([
        adaptive_integral(integrand, 0.0, float(b), breakpoints=breakpoints)
        if b > 0.0 else 0.0
        for b in upper(ts)
    ])
    out = np.asarray(kernel.v(ts)) * vals
    return float(out[0]) if np.asarray(t).ndim == 0 else out


def decoupled_drift(kernel: GaussMarkovKernel, f: FourierFunction, w) -> np.ndarray:
    """(F_f / v)'(w) = (f v - v' F_f) / v^2, the drift of the decoupled
    process X/v with regression mean F_f."""
    w = np.asarray(w, dtype=float)
    v = np.asarray(kernel.v(w))
    return (np.asarray(f(w)) * v - np.asarray(kernel.v_prime(w)) * np.asarray(f.antiderivative(w))) / (v * v)


def g_from_f(kernel: GaussMarkovKernel, f: FourierFunction) -> RkhsElement:
    """RKHS element of the regression mean F_f(t) = integral_0^t f."""

    def g_of_time(w):
        with np.errstate(all="ignore"):
            return decoupled_drift(kernel, f, w) / np.asarray(kernel.q_prime(w))

    return RkhsElement(
        kernel=kernel,
        g_of_time=g_of_time,
        F=f.antiderivative,
    )


def element_from_g(kernel: GaussMarkovKernel, g: Callable,
                   breakpoints_x: Sequence[float] = ()) -> RkhsElement:
    """RKHS element with a directly prescribed x-domain pre-image g."""
    if not math.isfinite(kernel.horizon):
        raise KernelDegenerate(
            f"kernel {kernel.name!r} has an infinite clock horizon; "
            "prescribe g through a mean function instead"
        )

    def g_of_time(w):
        return np.asarray(g(np.asarray(kernel.q(w))))

    def F(t):
        return _scaled_integrals(kernel, t, g, kernel.q, breakpoints_x)

    breaks_w = tuple(float(q_inverse(kernel, x)[0]) for x in breakpoints_x)
    return RkhsElement(
        kernel=kernel,
        g_of_time=g_of_time,
        F=F,
        breakpoints_w=breaks_w,
    )


def rkhs_norm(element: RkhsElement) -> float:
    """||F||_H = sqrt(integral_0^T g^2), via the clock substitution.

    Raises DegenerateCell when the clock is not increasing on the
    VALIDATION_GRID, where q' < 0 would make the integrand meaningless.
    """
    kernel = element.kernel
    design_clock(kernel, VALIDATION_GRID - 1)

    def integrand(w):
        return np.asarray(element.g_of_time(w)) ** 2 * np.asarray(kernel.q_prime(w))

    value = adaptive_integral(integrand, 0.0, 1.0, breakpoints=element.breakpoints_w)
    return float(np.sqrt(max(value, 0.0)))


# ---------------------------------------------------------------------------
# projection distance onto the design span


def _design_span_clock(kernel: GaussMarkovKernel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """design_clock(kernel, n), after refusing an infinite clock horizon.

    The preconditions of D_n, shared by the fast route and its oracle.
    """
    if not math.isfinite(kernel.horizon):
        raise KernelDegenerate(
            f"kernel {kernel.name!r} has an infinite clock horizon; "
            "the design span is not closed in L2 of the clock domain"
        )
    return design_clock(kernel, n)


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
    Gauss-Legendre weights are positive, so there is no cancellation.
    """
    v, q = _design_span_clock(kernel, n)
    g_w = g_from_f(kernel, f).g_of_time
    knots = path_grid(n, n + 1)
    alpha = np.diff(np.asarray(f.antiderivative(knots)) / v) / np.diff(q)

    def residual(w):
        cell = np.searchsorted(knots, w, side="right") - 1
        return (np.asarray(g_w(w)) - alpha[cell]) ** 2 * np.asarray(kernel.q_prime(w))

    return adaptive_integral(residual, 0.0, 1.0, breakpoints=knots)


def projection_distance_dense(kernel: GaussMarkovKernel, f: FourierFunction,
                              n: int, grid_size: int = 10_000) -> float:
    """Brute-force oracle for D_n: weighted least squares for the
    coefficients of the n representers on a dense clock grid. Refuses
    the kernels projection_distance refuses, with the same errors."""
    _design_span_clock(kernel, n)
    element = g_from_f(kernel, f)
    mid = (np.arange(grid_size) + 0.5) / grid_size
    weights = np.asarray(kernel.q_prime(mid)) / grid_size
    knots = design_knots(n)
    design = np.asarray(kernel.v(knots))[None, :] * (mid[:, None] <= knots[None, :])
    sqw = np.sqrt(weights)
    target = np.asarray(element.g_of_time(mid)) * sqw
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
    v, q = design_clock(kernel, y.size)
    if np.any(np.abs(v[1:]) <= PINNED_TOL):
        raise SingularCovariance(
            f"kernel {kernel.name!r} has v(1) = 0, so the design covariance at "
            "the knots is singular; Kriging through the pinned endpoint needs "
            "v(1) != 0"
        )
    zk = np.concatenate([[0.0], y / v[1:]])
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    qt = np.asarray(kernel.q(ts))
    out = np.interp(qt, q, zk) * np.asarray(kernel.v(ts))
    return float(out[0]) if np.asarray(t).ndim == 0 else out


def kriging_interpolate_dense(kernel: GaussMarkovKernel, y, t):
    """Oracle: k(t)^T C^{-1} y with the dense design covariance C."""
    y = np.asarray(y, dtype=float)
    n = y.size
    knots = design_knots(n)
    C = gram(kernel, knots)
    try:
        lower = np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(
            f"design covariance for kernel {kernel.name!r} is singular"
        ) from exc
    alpha = np.linalg.solve(lower.T, np.linalg.solve(lower, y))
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    kvec = covariance(kernel, ts[:, None], knots[None, :])
    out = np.asarray(kvec) @ alpha
    return float(out[0]) if np.asarray(t).ndim == 0 else out


def kriging_residual_process(kernel: GaussMarkovKernel, n: int, seed: int,
                             grid_size: int | None = None) -> PathSample:
    """Draw the residual R = X - Krig(X at the knots) on a fine grid.

    R vanishes at the knots and is independent of the knot values; adding
    an independent Kriging interpolation of fresh knot data reassembles a
    process with the original law.
    """
    grid = path_grid(n, grid_size)
    stride = knot_stride(n, grid.size)
    path = sampling.sample_paths(kernel, grid, 1, seed, label="residual")[0]
    residual = path - kriging_interpolate(kernel, path[stride::stride], grid)
    residual[0] = 0.0
    return PathSample(
        grid=grid,
        values=residual,
        kernel_id=kernel.name,
        function_id="residual",
        seed=seed,
        scale=1.0,
    )
