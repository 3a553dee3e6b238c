"""Triangular covariance kernels for Gauss-Markov processes on [0,1].

A kernel here is a factor pair (u, v) defining Cov(X_s, X_t) = u(s) v(t) for
s <= t, given together with the derivatives u' and v'. The quotient q = u/v
carries the whole geometry: the process is the deterministic scaling v(t) of
a standard Brownian motion run on the clock q(t), so q must increase
strictly from q(0) = 0, and u*v (the variance) must be nonnegative, positive
away from the endpoints. The clock q, its derivative q' = (u'v - uv')/v^2
and the time-change horizon q(1) are derived from (u, v, u', v') in one
place, GaussMarkovKernel, and nowhere else.

Four presets cover the classical examples:

    bm        u = t,              v = 1,        q = t
    ou(L)     u = e^{Lt}-e^{-Lt}, v = e^{-Lt},  q = e^{2Lt}-1
    bridge    u = t,              v = 1 - t,    q = t/(1-t)   (endpoint pinned)
    slepian   u = t,              v = 2 - t,    q = t/(2-t)

The bridge has v(1) = 0, so its horizon is infinite, and operations that
need a finite horizon or a nonsingular design covariance refuse it
explicitly rather than dividing by zero.

Custom kernels are built from expression text for u and v; u' and v' come
from central differences (h = 1e-6, second-order one-sided stencils at the
endpoints) and the shape assumption is checked on a grid, which is a
deliberate, documented limitation: a grid check can refute the assumption,
not certify it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AssumptionViolation, DegenerateCell, DivisionByZero
from .expr import parse_kernel_expression
from .samples import path_grid

_FD_STEP = 1e-6
PINNED_TOL = 1e-12  # |v(1)| at or below this pins the endpoint
VALIDATION_GRID = 1001  # points of the shape-assumption check
MAX_VALIDATION_GRID = 10**6  # largest grid the shape check accepts


@dataclass(frozen=True)
class GaussMarkovKernel:
    """Immutable kernel given by its factor pair and the pair's derivatives.

    u, v, u_prime, v_prime are vectorized callables on [0,1]. The clock q,
    its derivative q_prime and horizon are worked out from them; horizon is
    q(1), or inf when |v(1)| <= PINNED_TOL pins the endpoint (as for the
    bridge), or nan when u(1) is 0 as well.
    """

    name: str
    u: Callable
    v: Callable
    u_prime: Callable
    v_prime: Callable
    horizon: float = field(init=False)

    def __post_init__(self):
        if abs(float(self.v(1.0))) > PINNED_TOL:
            horizon = float(self.q(1.0))
        else:
            horizon = math.inf if float(self.u(1.0)) != 0.0 else math.nan
        object.__setattr__(self, "horizon", horizon)

    def q(self, t):
        """The clock u/v; inf where v vanishes, as at a pinned endpoint."""
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.asarray(self.u(t)) / np.asarray(self.v(t))
        return out if out.ndim else float(out)

    def q_prime(self, t):
        """The clock's derivative (u'v - uv')/v^2."""
        t = np.asarray(t, dtype=float)
        v = np.asarray(self.v(t))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (np.asarray(self.u_prime(t)) * v
                   - np.asarray(self.u(t)) * np.asarray(self.v_prime(t))) / (v * v)
        return out if out.ndim else float(out)

    def __repr__(self) -> str:
        return f"GaussMarkovKernel({self.name!r}, horizon={self.horizon!r})"


def covariance(kernel: GaussMarkovKernel, s, t):
    """Cov(X_s, X_t) = u(min(s,t)) * v(max(s,t)), elementwise.

    u and v are evaluated once at s and once at t, not on the broadcast
    shape, so an outer product of n points costs 4n kernel evaluations.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    us, vs = np.asarray(kernel.u(s)), np.asarray(kernel.v(s))
    ut, vt = np.asarray(kernel.u(t)), np.asarray(kernel.v(t))
    out = np.where(s <= t, us * vt, ut * vs)
    if out.ndim == 0:
        return float(out)
    return out


def gram(kernel: GaussMarkovKernel, ts) -> np.ndarray:
    """Covariance matrix of the process at the points ts."""
    ts = np.asarray(ts, dtype=float)
    return covariance(kernel, ts[:, None], ts[None, :])


def design_clock(kernel: GaussMarkovKernel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """v and q at the origin and the design knots, path_grid(n, n + 1).

    Raises DegenerateCell unless every clock increment is positive; an
    infinite last increment (a pinned endpoint) passes.
    """
    ts = path_grid(n, n + 1)
    v = np.asarray(kernel.v(ts))
    with np.errstate(all="ignore"):
        q = np.asarray(kernel.q(ts))
    dq = np.diff(q)
    if np.any(np.isnan(dq)) or np.any(dq <= 0.0):
        raise DegenerateCell(
            f"kernel {kernel.name!r} has a cell with nonpositive clock increment at n={n}"
        )
    return v, q


# ---------------------------------------------------------------------------
# presets


def _const(value: float) -> Callable:
    def fn(t):
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, value) if t.ndim else value

    return fn


def _preset_bm() -> GaussMarkovKernel:
    return GaussMarkovKernel(
        name="bm",
        u=lambda t: np.asarray(t, dtype=float),
        v=_const(1.0),
        u_prime=_const(1.0),
        v_prime=_const(0.0),
    )


def _preset_ou(L: float) -> GaussMarkovKernel:
    if L <= 0:
        raise AssumptionViolation(f"ou preset needs L > 0, got {L!r}")
    return GaussMarkovKernel(
        name=f"ou(L={L:g})",
        u=lambda t: np.exp(L * np.asarray(t, float)) - np.exp(-L * np.asarray(t, float)),
        v=lambda t: np.exp(-L * np.asarray(t, float)),
        u_prime=lambda t: L * (np.exp(L * np.asarray(t, float)) + np.exp(-L * np.asarray(t, float))),
        v_prime=lambda t: -L * np.exp(-L * np.asarray(t, float)),
    )


def _preset_bridge() -> GaussMarkovKernel:
    return GaussMarkovKernel(
        name="bridge",
        u=lambda t: np.asarray(t, dtype=float),
        v=lambda t: 1.0 - np.asarray(t, dtype=float),
        u_prime=_const(1.0),
        v_prime=_const(-1.0),
    )


def _preset_slepian() -> GaussMarkovKernel:
    return GaussMarkovKernel(
        name="slepian",
        u=lambda t: np.asarray(t, dtype=float),
        v=lambda t: 2.0 - np.asarray(t, dtype=float),
        u_prime=_const(1.0),
        v_prime=_const(-1.0),
    )


PRESETS = ("bm", "ou", "bridge", "slepian")


def preset(name: str, L: float | None = None) -> GaussMarkovKernel:
    """Build a preset kernel. Only 'ou' takes the mean-reversion rate L,
    1 by default; a rate given to any other preset raises
    AssumptionViolation rather than being ignored."""
    if name == "ou":
        return _preset_ou(1.0 if L is None else L)
    builders = {"bm": _preset_bm, "bridge": _preset_bridge, "slepian": _preset_slepian}
    if name not in builders:
        raise AssumptionViolation(f"unknown preset {name!r}; choose from {PRESETS}")
    if L is not None:
        raise AssumptionViolation(f"preset {name!r} takes no rate, got L = {L!r}")
    return builders[name]()


# ---------------------------------------------------------------------------
# custom kernels from expression text


def _fd_derivative(fn: Callable) -> Callable:
    h = _FD_STEP

    def deriv(t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.empty_like(t)
        left = t - h < 0.0
        right = t + h > 1.0
        mid = ~(left | right)
        if np.any(mid):
            tm = t[mid]
            out[mid] = (fn(tm + h) - fn(tm - h)) / (2.0 * h)
        if np.any(left):
            tl = t[left]
            out[left] = (-3.0 * fn(tl) + 4.0 * fn(tl + h) - fn(tl + 2.0 * h)) / (2.0 * h)
        if np.any(right):
            tr = t[right]
            out[right] = (3.0 * fn(tr) - 4.0 * fn(tr - h) + fn(tr - 2.0 * h)) / (2.0 * h)
        return float(out[0]) if scalar else out

    return deriv


def _assemble(name: str, u: Callable, v: Callable, validate: bool) -> GaussMarkovKernel:
    kernel = GaussMarkovKernel(
        name=name,
        u=u,
        v=v,
        u_prime=_fd_derivative(u),
        v_prime=_fd_derivative(v),
    )
    if validate:
        report = validate_assumption(kernel)
        if not report.passed:
            failed = ", ".join(c.name for c in report.checks if c.required and not c.passed)
            raise AssumptionViolation(
                f"kernel {name!r} fails the shape assumption on a "
                f"{report.grid_size}-point grid: {failed}"
            )
    return kernel


def make_kernel(name: str, u_source: str, v_source: str,
                validate: bool = True) -> GaussMarkovKernel:
    """Build a kernel from expression text for u and v.

    The shape assumption is checked on VALIDATION_GRID points; a grid check
    can only refute, so exotic violations between grid points go undetected.
    Pass validate=False to build a kernel that fails the check anyway (the
    `validate` CLI command does this to report on broken kernels instead of
    refusing to look at them).
    """
    u = parse_kernel_expression(u_source)
    v = parse_kernel_expression(v_source)
    return _assemble(name, u, v, validate=validate)


def condition_on_zero(u_source: str, v_source: str, name: str | None = None) -> GaussMarkovKernel:
    """Condition a process with factor pair (U, V) to start at zero.

    The conditioned pair is u = U - Q(0) V, v = V with Q = U/V, which
    requires V(0) != 0.
    """
    U = parse_kernel_expression(u_source)
    V = parse_kernel_expression(v_source)
    v0 = float(V(0.0))
    if v0 == 0.0:
        raise DivisionByZero(
            f"cannot condition on a start at zero: V(0) = 0 for V = {v_source!r}"
        )
    q0 = float(U(0.0)) / v0

    def u(t):
        return np.asarray(U(t)) - q0 * np.asarray(V(t))

    if name is None:
        name = f"conditioned({u_source} | {v_source})"
    return _assemble(name, u, V, validate=True)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    required: bool
    witness: str


@dataclass(frozen=True)
class ValidationReport:
    kernel_name: str
    grid_size: int
    checks: tuple[CheckResult, ...]
    q_prime_min: float
    q_prime_max: float
    hoelder_estimates: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.required)

    def lines(self) -> list[str]:
        out = [f"kernel {self.kernel_name}: grid {self.grid_size}"]
        for c in self.checks:
            status = "ok" if c.passed else ("FAIL" if c.required else "flag")
            out.append(f"  [{status:4s}] {c.name}: {c.witness}")
        for fn_name, idx in self.hoelder_estimates.items():
            shown = "n/a (constant on the grid)" if idx is None else f"{idx:.3f}"
            out.append(f"  [info] hoelder index estimate for {fn_name}: {shown}")
        return out


def _hoelder_index_estimate(values: np.ndarray, grid: np.ndarray) -> float | None:
    """Log-log slope of the max increment against dyadic lags.

    Informational only: it estimates min(index, 1) and degrades near
    non-finite or constant samples, where None is returned.
    """
    finite = np.isfinite(values)
    if finite.sum() < 16:
        return None
    vals = values[finite]
    lags, sups = [], []
    step = grid[1] - grid[0]
    lag = 1
    while lag < len(vals) // 4:
        sup = float(np.max(np.abs(vals[lag:] - vals[:-lag])))
        if sup > 1e-13:
            lags.append(lag * step)
            sups.append(sup)
        lag *= 2
    if len(lags) < 3:
        return None
    slope = float(np.polyfit(np.log(lags), np.log(sups), 1)[0])
    return slope


def validate_assumption(kernel: GaussMarkovKernel, grid_size: int = VALIDATION_GRID) -> ValidationReport:
    """Check the factor-pair shape assumption on an equispaced grid.

    Required checks: u*v >= 0 on [0,1], u*v > 0 on the interior, q strictly
    increasing, q(0) = 0 (within 1e-10). Informational: v(1) != 0 and the
    q' range, plus rough Hoelder index estimates for v' and q'. The grid
    needs an interior point, so grid_size < 3 raises ValueError, and so
    does grid_size > MAX_VALIDATION_GRID, before any array is built.
    """
    if grid_size < 3:
        raise ValueError(
            f"the shape check needs an interior point: at least 3 grid points, got {grid_size}"
        )
    if grid_size > MAX_VALIDATION_GRID:
        raise ValueError(
            f"the shape check takes at most {MAX_VALIDATION_GRID} grid points, got {grid_size}"
        )
    ts = np.linspace(0.0, 1.0, grid_size)
    with np.errstate(all="ignore"):
        uv = np.asarray(kernel.u(ts)) * np.asarray(kernel.v(ts))
        qs = np.asarray(kernel.q(ts))
        qp = np.asarray(kernel.q_prime(ts))
        vp = np.asarray(kernel.v_prime(ts))

    checks = []
    min_uv = float(np.nanmin(uv))
    checks.append(CheckResult(
        "uv_nonnegative", bool(np.all(uv >= -1e-12)), True,
        f"min u*v = {min_uv:.3e}",
    ))
    interior = uv[1:-1]
    checks.append(CheckResult(
        "uv_positive_interior", bool(np.all(interior > 0.0)), True,
        f"min interior u*v = {float(np.nanmin(interior)):.3e}",
    ))
    dq = np.diff(qs)
    monotone = bool(np.all(np.isnan(dq) | (dq > 0.0))) and not np.any(np.isnan(qs[:-1]))
    checks.append(CheckResult(
        "q_strictly_increasing", monotone, True,
        f"min grid increment of q = {float(np.nanmin(dq)):.3e}",
    ))
    q0 = float(qs[0])
    checks.append(CheckResult(
        "q_zero_at_origin", bool(abs(q0) <= 1e-10), True, f"q(0) = {q0:.3e}",
    ))
    v1 = float(np.asarray(kernel.v(1.0)))
    v1_nonzero = abs(v1) > PINNED_TOL
    checks.append(CheckResult(
        "v1_nonzero", v1_nonzero, False,
        f"v(1) = {v1:.6g}" + ("" if v1_nonzero else " (pinned endpoint; time-change horizon is infinite)"),
    ))
    qp_finite = qp[np.isfinite(qp)]
    qp_min = float(qp_finite.min()) if qp_finite.size else float("nan")
    qp_max = float(qp_finite.max()) if qp_finite.size else float("nan")
    checks.append(CheckResult(
        "q_prime_positive", bool(qp_finite.size and qp_min > 0.0), False,
        f"q' range on grid: [{qp_min:.6g}, {qp_max:.6g}]"
        + ("" if np.all(np.isfinite(qp)) else " (non-finite at some grid points)"),
    ))
    hoelder = {
        "v_prime": _hoelder_index_estimate(vp, ts),
        "q_prime": _hoelder_index_estimate(qp, ts),
    }
    return ValidationReport(
        kernel_name=kernel.name,
        grid_size=grid_size,
        checks=tuple(checks),
        q_prime_min=qp_min,
        q_prime_max=qp_max,
        hoelder_estimates=hoelder,
    )


# ---------------------------------------------------------------------------
# JSON configuration surface


def kernel_from_spec(spec: dict) -> GaussMarkovKernel:
    """Build a kernel from its JSON object form.

    Either {"preset": "ou", "params": {"L": 0.5}} or
    {"name": "mykernel", "u": "<expr>", "v": "<expr>"}.
    """
    if "preset" in spec:
        params = spec.get("params", {})
        if not (isinstance(params, dict) and set(params) <= {"L"}
                and isinstance(params.get("L", 1.0), (int, float))):
            raise AssumptionViolation(
                f"kernel spec key 'params' takes only a number 'L', got {params!r}"
            )
        return preset(spec["preset"], **params)
    return make_kernel(*expression_spec(spec))


def expression_spec(spec: dict) -> tuple[str, str, str]:
    """(name, u, v) of an expression kernel spec, the name defaulting to
    'custom'; raises AssumptionViolation naming a missing or non-text key."""
    bad = [key for key in ("u", "v") if not isinstance(spec.get(key), str)]
    if bad:
        raise AssumptionViolation(
            "kernel spec needs either a 'preset' key or 'u' and 'v' expression "
            f"keys; missing or not text: {', '.join(map(repr, bad))}"
        )
    return spec.get("name", "custom"), spec["u"], spec["v"]


def parse_preset_arg(text: str) -> GaussMarkovKernel:
    """Parse CLI preset syntax: 'bm', 'ou', 'ou(0.5)', 'bridge', 'slepian'."""
    text = text.strip()
    if "(" in text and text.endswith(")"):
        base, arg = text[:-1].split("(", 1)
        return preset(base.strip(), L=float(arg))
    return preset(text)
