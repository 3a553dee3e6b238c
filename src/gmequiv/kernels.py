"""Triangular covariance kernels for Gauss-Markov processes on [0,1].

A kernel here is a factor pair (u, v) defining Cov(X_s, X_t) = u(s) v(t) for
s <= t, given together with the derivatives u' and v'. The quotient q = u/v
carries the whole geometry: the process is the deterministic scaling v(t) of
a standard Brownian motion run on the clock q(t), so q must increase
strictly from q(0) = 0, and u*v (the variance) must be nonnegative, positive
away from the endpoints. The clock, its derivative and the time-change
horizon q(1) are derived from (u, v, u', v') in one place and nowhere
else: GaussMarkovKernel.clock(t) evaluates u and v once at the points t
and returns (u, v, q), and clock_rate(t) adds v' and
q' = (u'v - uv')/v^2, each factor again evaluated once. A factor may
return its input array itself, as the linear presets' u does, so the
arrays they return are read and never written into.

Four presets cover the classical examples:

    bm        u = t,              v = 1,        q = t
    ou(L)     u = e^{Lt}-e^{-Lt}, v = e^{-Lt},  q = e^{2Lt}-1
    bridge    u = t,              v = 1 - t,    q = t/(1-t)   (endpoint pinned)
    slepian   u = t,              v = 2 - t,    q = t/(2-t)

bm, bridge and slepian are one linear family, u = t and v = v0 - slope t,
built from the (v0, slope) rows of LINEAR_PRESETS by one builder; ou has
its own, with its rate check: L must be positive and the clock finite,
q(1) = e^{2L} - 1 and q'(1) = 2L e^{2L} below the largest float, so L
below about 351.6.

The pair is fixed only up to the gauge (c u, v / c), c > 0, which leaves
the covariance, and so the variance Var(X_t) = u(t) v(t), unchanged. So
every "this point carries no variance" is decided by one gauge-invariant
rule, no_variance: |u v| at most NO_VARIANCE_TOL times the largest finite
|u v| on the grid at hand. It sets the horizon once, when the kernel is
built (the endpoint is pinned when Var(X_1) carries none on the
VALIDATION_GRID, as for the bridge, and then the horizon is infinite);
every later reading of the endpoint, the shape check's v(1) != 0 and the
sampler's last column included, takes that verdict from the horizon. The
rule also decides the shape check's q(0) = 0. The sampler zeroes an
interior point only where u v is exactly 0, so it draws every variance,
however small. Operations that need a finite horizon or a
nonsingular design covariance refuse a pinned kernel explicitly rather
than dividing by zero: unpinned_design_clock is the one refusal, after
design_clock's check of the clock increments.

read_spec is the one reader of spec text, for kernels and functions
alike: inline JSON, else the file the text names, else (for kernels,
through kernel_from_spec) preset text, else a path to open, and the
result must be a JSON object. kernel_from_spec turns preset text such as
'ou(0.5)' into the preset spec {"preset": "ou", "params": {"L": 0.5}}, so
every spelling of a kernel takes one dict path. A preset spec reads only
'preset' and 'params' (a real number 'L'), an expression spec only
'name', 'u' and 'v', all text; any other key raises AssumptionViolation.

Custom kernels are built from expression text for u and v; u' and v' come
from central differences (h = 1e-6, second-order one-sided stencils at the
endpoints) and the shape assumption is checked on a grid, which is a
deliberate, documented limitation: a grid check can refute the assumption,
not certify it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import AssumptionViolation, DegenerateCell, GmequivError, SingularCovariance
from .samples import path_grid

_FD_STEP = 1e-6
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# a point whose |u v| is at most this times the grid's largest carries no variance
NO_VARIANCE_TOL = 1e-12
VALIDATION_GRID = 1001  # points of the shape-assumption check
MAX_VALIDATION_GRID = 10**6  # largest grid the shape check accepts


@dataclass(frozen=True)
class GaussMarkovKernel:
    """Immutable kernel given by its factor pair and the pair's derivatives.

    u, v, u_prime, v_prime are vectorized callables on [0,1]. clock and
    clock_rate give the clock q and its derivative at a set of points.
    horizon is q(1), read from clock on the VALIDATION_GRID, or inf when
    Var(X_1) = u(1) v(1) carries no variance there (no_variance), which
    pins the endpoint (as for the bridge), or nan when u(1) is 0 as well.
    """

    name: str
    u: Callable
    v: Callable
    u_prime: Callable
    v_prime: Callable
    horizon: float = field(init=False)

    def __post_init__(self):
        with np.errstate(all="ignore"):
            u, v, q = self.clock(np.linspace(0.0, 1.0, VALIDATION_GRID))
            pinned = no_variance(u * v)[-1]
        horizon = float(q[-1])
        if pinned:
            horizon = math.inf if u[-1] != 0.0 else math.nan
        object.__setattr__(self, "horizon", horizon)

    def clock(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, q) at the points t: u and v each evaluated once, as float
        arrays, and the clock q = u/v, inf where v vanishes, as at a pinned
        endpoint. A factor may return t itself, so u and v are read, never
        written into."""
        t = np.asarray(t, dtype=float)
        u = np.asarray(self.u(t), dtype=float)
        v = np.asarray(self.v(t), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return u, v, u / v

    def clock_rate(self, t) -> tuple[np.ndarray, ...]:
        """(u, v, q, v', q') at the points t: clock(t), v' and the clock's
        derivative q' = (u'v - uv')/v^2, each of u, v, u', v' evaluated once."""
        u, v, q = self.clock(t)
        v_prime = np.asarray(self.v_prime(t), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            q_prime = (np.asarray(self.u_prime(t), dtype=float) * v - u * v_prime) / (v * v)
        return u, v, q, v_prime, q_prime

    def __repr__(self) -> str:
        return f"GaussMarkovKernel({self.name!r}, horizon={self.horizon!r})"


def no_variance(var: np.ndarray) -> np.ndarray:
    """Where the variances u*v on a grid carry none: |u v| at most
    NO_VARIANCE_TOL times the largest finite |u v| there.

    A relative rule, so the gauge (c u, v / c) leaves it unchanged. A
    non-finite point is never counted as carrying none. Only boolean
    arrays are built beside var.
    """
    finite = np.isfinite(var)
    bound = NO_VARIANCE_TOL * max(float(np.max(var, where=finite, initial=0.0)),
                                  -float(np.min(var, where=finite, initial=0.0)))
    return (var <= bound) & (var >= -bound)


def covariance(kernel: GaussMarkovKernel, s, t):
    """Cov(X_s, X_t) = u(min(s,t)) * v(max(s,t)), elementwise.

    u and v are evaluated once at s and once at t, not on the broadcast
    shape, so an outer product of n points costs 4n factor evaluations.
    The broadcast shape holds one output array plus a boolean mask: u(s) v(t)
    is written everywhere, then u(t) v(s) over it wherever s <= t is false,
    NaN points included.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    us, vs = np.asarray(kernel.u(s)), np.asarray(kernel.v(s))
    ut, vt = np.asarray(kernel.u(t)), np.asarray(kernel.v(t))
    out = np.multiply(us, vt, out=np.empty(np.broadcast_shapes(s.shape, t.shape)))
    other = np.asarray(s <= t)  # an array for 0-d s and t too, to invert in place
    np.multiply(ut, vs, out=out, where=np.invert(other, out=other))
    if out.ndim == 0:
        return float(out)
    return out


def gram(kernel: GaussMarkovKernel, ts) -> np.ndarray:
    """Covariance matrix of the process at the points ts."""
    ts = np.asarray(ts, dtype=float)
    return covariance(kernel, ts[:, None], ts[None, :])


# (prefix, suffix) of OpenBLAS's thread-count functions, as numpy's bundled
# 64-bit build, other 64-bit builds and 32-bit builds name them
_OPENBLAS_SPELLINGS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


@functools.cache
def _openblas_threads() -> tuple[Callable, Callable] | None:
    """The (set, get) thread-count functions of the OpenBLAS that numpy
    loaded, looked up once, on first use, among the shared objects mapped
    into this process; None where there is none (another BLAS, or a system
    without /proc/self/maps). scipy's wheels map a second OpenBLAS, whose
    32-bit-integer functions (scipy_openblas_set_num_threads) match no
    spelling here, so it is never taken for numpy's."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_SPELLINGS:
            setter = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
            getter = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                return setter, getter  # ctypes' default int argument and result fit both
    return None


@contextlib.contextmanager
def serial_blas():
    """Run the body's BLAS and LAPACK calls on the calling thread alone.

    The dense oracles factor, solve and multiply inside it, so their bits
    do not depend on the thread count (a threaded product sums in another
    order), and OpenBLAS's workers are never woken to spin idle after
    them. On entry OpenBLAS is set to one thread; on exit, normal or by an
    exception, the caller's count is set back. The count is one per
    process, so oracles run from several threads at once may set it back
    out of order. Where no OpenBLAS is found it does nothing.
    """
    pair = _openblas_threads()
    if pair is None:
        yield
        return
    setter, getter = pair
    threads = getter()
    setter(1)
    try:
        yield
    finally:
        setter(threads)


def design_clock(kernel: GaussMarkovKernel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """v and q at the origin and the design knots, path_grid(n, n + 1).

    Raises DegenerateCell unless every clock increment is positive; an
    infinite last increment (a pinned endpoint) passes.
    """
    with np.errstate(all="ignore"):
        v, q = kernel.clock(path_grid(n, n + 1))[1:]
    dq = np.diff(q)
    if np.any(np.isnan(dq)) or np.any(dq <= 0.0):
        raise DegenerateCell(
            f"kernel {kernel.name!r} has a cell with nonpositive clock increment at n={n}"
        )
    return v, q


def unpinned_design_clock(kernel: GaussMarkovKernel, n: int,
                          error: type[GmequivError] = SingularCovariance,
                          reason: str = "its design covariance is singular"
                          ) -> tuple[np.ndarray, np.ndarray]:
    """design_clock(kernel, n), then refusing with error a kernel whose
    endpoint is pinned (an infinite or nan horizon), where v(1) = 0 in
    effect. The message ends with the caller's reason: by default that
    the design covariance of the observations is singular
    (SingularCovariance); the projection says the design span is not
    closed, and the transform that it divides by zero (KernelDegenerate)."""
    v, q = design_clock(kernel, n)
    if not math.isfinite(kernel.horizon):
        raise error(f"kernel {kernel.name!r} has v = 0 at a design knot (v(1) at a "
                    f"pinned endpoint), so {reason} at n={n}")
    return v, q


# ---------------------------------------------------------------------------
# presets


def _preset_linear(name: str, v0: float, slope: float) -> GaussMarkovKernel:
    return GaussMarkovKernel(
        name=name,
        u=lambda t: np.asarray(t, dtype=float),
        v=lambda t: v0 - slope * np.asarray(t, dtype=float),
        u_prime=lambda t: np.ones(np.shape(t)),
        v_prime=lambda t: np.full(np.shape(t), 0.0 - slope),  # +0.0 for bm, not -0.0
    )


def _preset_ou(L: float) -> GaussMarkovKernel:
    # The clock q(1) = e^{2L} - 1 and its derivative q'(1) = 2L e^{2L} must be
    # finite; compared in log space, the first test exact for an integer
    # rate beyond float range.
    if not (0 < L < _LOG_FLOAT_MAX / 2 and 2 * L + math.log(2 * L) < _LOG_FLOAT_MAX):
        raise AssumptionViolation(
            f"ou preset needs a rate L > 0 with a finite clock, q'(1) = 2L e^(2L) "
            f"below the largest float, so L below about 351.6, got L = {L!r}")
    return GaussMarkovKernel(
        name=f"ou(L={L:g})",
        u=lambda t: np.exp(L * np.asarray(t, float)) - np.exp(-L * np.asarray(t, float)),
        v=lambda t: np.exp(-L * np.asarray(t, float)),
        u_prime=lambda t: L * (np.exp(L * np.asarray(t, float)) + np.exp(-L * np.asarray(t, float))),
        v_prime=lambda t: -L * np.exp(-L * np.asarray(t, float)),
    )


# (v0, slope) of the presets with u = t and v = v0 - slope t
LINEAR_PRESETS = {"bm": (1.0, 0.0), "bridge": (1.0, 1.0), "slepian": (2.0, 1.0)}
PRESETS = ("bm", "ou", "bridge", "slepian")


def preset(name: str, L: float | None = None) -> GaussMarkovKernel:
    """Build a preset kernel. Only 'ou' takes the mean-reversion rate L,
    1 by default; a rate given to any other preset raises
    AssumptionViolation rather than being ignored."""
    if name == "ou":
        return _preset_ou(1.0 if L is None else L)
    if name not in PRESETS:
        raise AssumptionViolation(f"unknown preset {name!r}; choose from {PRESETS}")
    if L is not None:
        raise AssumptionViolation(f"preset {name!r} takes no rate, got L = {L!r}")
    return _preset_linear(name, *LINEAR_PRESETS[name])


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


def make_kernel(name: str, u_source: str, v_source: str,
                validate: bool = True) -> GaussMarkovKernel:
    """Build a kernel from expression text for u and v.

    The shape assumption is checked on VALIDATION_GRID points; a grid check
    can only refute, so exotic violations between grid points go undetected.
    Pass validate=False to build a kernel that fails the check anyway (the
    `validate` CLI command does this to report on broken kernels instead of
    refusing to look at them).
    """
    from .expr import parse_kernel_expression  # only expression kernels parse text

    u = parse_kernel_expression(u_source)
    v = parse_kernel_expression(v_source)
    kernel = GaussMarkovKernel(name, u, v, _fd_derivative(u), _fd_derivative(v))
    if validate:
        report = validate_assumption(kernel)
        if not report.passed:
            failed = ", ".join(c.name for c in report.checks if c.required and not c.passed)
            raise AssumptionViolation(f"kernel {name!r} fails the shape assumption on a "
                                      f"{report.grid_size}-point grid: {failed}")
    return kernel


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


def _hoelder_index_estimate(values: np.ndarray) -> float | None:
    """Log-log slope of the max increment against dyadic lags, counted in
    steps of the equispaced grid: the step only shifts the log lag, which
    leaves the slope as it is.

    Informational only: it estimates min(index, 1) and degrades near
    non-finite or constant samples, where None is returned.
    """
    finite = np.isfinite(values)
    if finite.sum() < 16:
        return None
    vals = values[finite]
    lags, sups = [], []
    lag = 1
    while lag < len(vals) // 4:
        sup = float(np.max(np.abs(vals[lag:] - vals[:-lag])))
        if sup > 1e-13:
            lags.append(lag)
            sups.append(sup)
        lag *= 2
    if len(lags) < 3:
        return None
    return float(np.polyfit(np.log(lags), np.log(sups), 1)[0])


def validate_assumption(kernel: GaussMarkovKernel, grid_size: int = VALIDATION_GRID) -> ValidationReport:
    """Check the factor-pair shape assumption on an equispaced grid.

    Required checks: u*v >= 0 on [0,1], u*v > 0 on the interior, q strictly
    increasing, q(0) = 0. Informational: v(1) != 0 and the q' range, plus
    rough Hoelder index estimates for v' and q'. A point that carries no
    variance by no_variance on this grid passes u*v >= 0 even when slightly
    negative, and at the origin it makes q(0) = 0. The interior check reads
    the sign of u*v alone, which no gauge (c u, v / c) changes, so a valid
    kernel whose variance spans many decades passes. v(1) != 0 is the
    kernel's own verdict, a finite horizon, so it reads the same on every
    grid. The grid needs an interior point, so grid_size < 3 raises
    ValueError, and so does grid_size > MAX_VALIDATION_GRID, before any
    array is built.
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
        u, v, qs, vp, qp = kernel.clock_rate(ts)
        uv = u * v
    v1 = float(v[-1])
    del u, v

    none = no_variance(uv)
    checks = []
    min_uv = float(np.nanmin(uv))
    checks.append(CheckResult(
        "uv_nonnegative", bool(np.all((uv >= 0.0) | none)), True,
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
        "q_zero_at_origin", bool(none[0]), True, f"q(0) = {q0:.3e}",
    ))
    v1_nonzero = math.isfinite(kernel.horizon)
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
        "v_prime": _hoelder_index_estimate(vp),
        "q_prime": _hoelder_index_estimate(qp),
    }
    return ValidationReport(
        kernel_name=kernel.name,
        grid_size=grid_size,
        checks=tuple(checks),
        hoelder_estimates=hoelder,
    )


# ---------------------------------------------------------------------------
# JSON configuration surface


def read_spec(spec: Mapping | str, kind: str,
              from_text: Callable[[str], dict | None] = lambda text: None) -> Mapping:
    """The JSON object of a kernel or function spec: a mapping as it is, or
    text read in this order.

    Inline JSON comes first; text that starts with '{' but is not JSON
    raises the JSON error. Text naming an existing file is replaced by the
    file's contents, read the same way. Then from_text(text) may give the
    object (the kernel reader's preset syntax; None for text it does not
    read). Any other text is opened as a path, so the OSError names a
    missing file; in a file's contents it raises the JSON error. A JSON
    value that is not an object raises ValueError.
    """
    if isinstance(spec, str):
        spec = _read_text(spec, from_text, inline=True)
    if not isinstance(spec, Mapping):
        raise ValueError(f"{kind} spec must be a JSON object, got {spec!r}")
    return spec


def _read_text(text: str, from_text: Callable, inline: bool):
    """read_spec's order on inline text, and on a file's contents
    (inline=False), where no path is looked up."""
    text = text.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        # a malformed object, or file contents that from_text does not read either
        if text.startswith("{") or not inline and from_text(text) is None:
            raise
    # an existing file comes before from_text's syntax
    if not (inline and os.path.exists(text)) and (spec := from_text(text)) is not None:
        return spec
    with open(text, "r", encoding="utf-8") as handle:  # a missing file: OSError names it
        return _read_text(handle.read(), from_text, inline=False)


def _preset_text(text: str) -> dict | None:
    """The preset spec of preset text such as 'bm' or 'ou(0.5)', else None."""
    match = re.fullmatch(r"(?s)(\w*)\s*(?:\((.*)\))?", text)
    if match and match[2] is not None:
        return {"preset": match[1], "params": {"L": float(match[2])}}
    return {"preset": match[1]} if match else None


def kernel_from_spec(spec: Mapping | str, validate: bool = True) -> GaussMarkovKernel:
    """Build a kernel from its spec: a dict, or text as read_spec reads it,
    where preset text ('bm', 'ou(0.5)') stands for the preset spec
    {"preset": "ou", "params": {"L": 0.5}}.

    A preset spec reads only 'preset' and 'params', and an expression spec
    {"name": "lab", "u": "t", "v": "2 - t"} only its three keys, the name
    defaulting to 'custom'. Any other key, a name that is not text or
    holds a line break (any break str.splitlines splits on), a missing or
    non-text u or v, and params other than a real number L raise
    AssumptionViolation naming the key. validate is make_kernel's
    flag; presets need no check.
    """
    spec = read_spec(spec, "kernel", _preset_text)
    reads = ("preset", "params") if "preset" in spec else ("name", "u", "v")
    unread = ", ".join(repr(key) for key in spec if key not in reads)
    if unread:
        raise AssumptionViolation(f"kernel spec does not read {unread}; this kind reads {reads}")
    if "preset" in spec:
        params = spec.get("params", {})
        L = params.get("L", 1.0) if isinstance(params, dict) else None
        if not isinstance(L, (int, float)) or isinstance(L, bool) or set(params) - {"L"}:
            raise AssumptionViolation(f"kernel spec 'params' takes only a real number 'L', "
                                      f"got {params!r}")
        return preset(spec["preset"], **params)
    spec = {"name": "custom", **spec}
    bad = ", ".join(repr(key) for key in reads if not isinstance(spec.get(key), str))
    if bad:
        raise AssumptionViolation("kernel spec needs either a 'preset' key or 'u' and 'v' "
                                  f"expression keys, each key text; missing or not text: {bad}")
    if "".join(spec["name"].splitlines()) != spec["name"]:
        raise AssumptionViolation(f"kernel spec key 'name' must be one line, got {spec['name']!r}")
    return make_kernel(spec["name"], spec["u"], spec["v"], validate=validate)
