"""Sufficiency statistics, KL divergences, and empirical rate sweeps.

Two scalar statistics decide when the discrete and continuous experiments
carry the same information:

* discretization_statistic: (1/n) sum_i d_i^2 / (v(t_i)^2 dq_i) with d_i =
  f(t_i) - n int_{cell i} f, the weighted squared gap between point values
  and cell averages. Half of it is kl_chain, the common-noise chain form of
  the KL divergence between the two discrete variants.
* projection_statistic: sqrt(n D_n) where D_n is the squared distance from
  the RKHS pre-image g to the design span.

kl_chain deliberately ignores the sequential feedback of earlier
observations into later conditional means. kl_dense computes the true KL
of the two Gaussian observation vectors from the covariance; kl_sequential
is the same value obtained through the conditional (chain-rule)
factorization with the feedback term

    d_i  ->  d_i - (v(t_i) - v(t_{i-1})) / v(t_{i-1}) * sum_{l<i} d_l.

kl_dense and kl_sequential agree to machine precision for every kernel
with v != 0 at the knots; kl_chain coincides with them exactly when v is
constant (Brownian motion) and is otherwise a different number. The package keeps all three so the gap
is measurable instead of hidden.

The band decomposition splits f at cutoff K = n into a low band and a tail
and measures three grid sums: A (low-band discretization gaps), B (tail
point values), C (tail cell averages); d_i = A_i + B_i - C_i, so sum d_i^2
<= 3 (A_sum + B_sum + C_sum). The low-band gaps are also pushed through a
direct O(n^2) discrete Fourier transform, the dense exponential sum of
fourier._dense_sum at the points j/n (never the FFT route), to check
Parseval's identity, which pins down the aliasing bookkeeping.

The transformation discrepancy compares the decoupled one-step moments

    mu_{j,n}   = S_j / v(t_j) - S_{j-1} / v(t_{j-1}),   S_j = sum_{i<=j} f(t_i)
    sigma2_{j,n} = n (q(t_j) - q(t_{j-1}))

against their continuum limits mu(s) = (f v - v' F_f)/v^2 and q'(s),
evaluated at s = j/(n+1) (the natural plotting points of the decoupled
scheme; the offset against the knots j/n is intentional and kept).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GmequivError, KernelDegenerate, SingularCovariance
from .fourier import (
    MAX_FREQUENCY,
    ClassSpec,
    FourierFunction,
    _dense_sum,
    sample_ellipsoid,
    scale_into_hoelder_ball,
)
from .kernels import GaussMarkovKernel, design_clock, gram, serial_blas, unpinned_design_clock
from .samples import design_knots

DEFAULT_N_GRID = (16, 32, 64, 128, 256, 512)
EXTREMAL_RANDOM_MEMBERS = 2  # seeded ellipsoid members of class_extremal_family
RANDOM_FAMILY_SIZE = 3  # members of random_family
# largest n of class_extremal_family and random_family: their members reach
# frequency 2n, and a function holds |k| up to MAX_FREQUENCY
MAX_FAMILY_N = MAX_FREQUENCY // 2
# largest n kl_dense accepts: it holds one n x n matrix of doubles and
# panel-sized temporaries, about 128 MiB at this n
MAX_DENSE_KL_N = 4096
# largest n band_split_decomposition accepts: its direct DFT is O(n^2) in
# time, 0.4 to 1.2 s at this n on 2 cores
MAX_PARSEVAL_N = 4096
_PANEL = 128  # columns per panel of kl_dense's blocked factor and solve


def _gaps(f: FourierFunction, n: int) -> np.ndarray:
    """d_i = f(t_i) - n int_{cell i} f at the design knots."""
    return np.asarray(f(design_knots(n))) - f.cell_averages(n)


def _weighted_cell_sum(kernel: GaussMarkovKernel, x: np.ndarray,
                       v: np.ndarray, q: np.ndarray) -> float:
    """(1/n) sum_i x_i^2 / (v_i^2 dq_i); a term with x_i = 0 is exactly 0,
    a nonzero x_i on a zero or non-finite weight (a pinned cell) raises.
    A sum past the float range is inf, without numpy's overflow warning."""
    with np.errstate(invalid="ignore"):
        weight = v[1:] * v[1:] * np.diff(q)
    live = x != 0.0
    if np.any(live & ~(np.isfinite(weight) & (weight != 0.0))):
        raise SingularCovariance(
            f"design of kernel {kernel.name!r} is singular at n={x.size}: a cell "
            "with a nonzero gap has a zero or non-finite weight v^2 dq"
        )
    with np.errstate(over="ignore"):
        terms = np.divide(x * x, weight, out=np.zeros_like(weight), where=live)
        return float(np.sum(terms) / x.size)


def discretization_statistic(kernel: GaussMarkovKernel, f: FourierFunction, n: int) -> float:
    """(1/n) sum_i (f(t_i) - n int_cell f)^2 / (v(t_i)^2 dq_i)."""
    v, q = design_clock(kernel, n)
    return _weighted_cell_sum(kernel, _gaps(f, n), v, q)


def kl_chain(kernel: GaussMarkovKernel, f: FourierFunction, n: int) -> float:
    """Common-noise chain form of KL(original || cell_averaged): half the
    discretization statistic, same code path."""
    return 0.5 * discretization_statistic(kernel, f, n)


def _factor_and_solve(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Overwrite the lower triangle of the symmetric positive definite A
    with its Cholesky factor L (A = L L^T) and the float vector y with
    L^-1 y, and return y; the strict upper triangle of A is left as it
    was, outside the diagonal blocks.

    Left-looking and blocked by _PANEL columns (Golub and Van Loan,
    Matrix Computations, 4th ed., section 4.2), in one walk over the
    panels: each panel takes out the product of the factored panels to its
    left, factors its diagonal block, solves for the block below it and
    then for its own share of y, so no temporary is larger than _PANEL
    columns of A. A matrix that is not positive definite raises
    np.linalg.LinAlgError."""
    for k in range(0, y.size, _PANEL):
        e = min(k + _PANEL, y.size)
        A[k:, k:e] -= A[k:, :k] @ A[k:e, :k].T
        A[k:e, k:e] = np.linalg.cholesky(A[k:e, k:e])
        A[e:, k:e] = np.linalg.solve(A[k:e, k:e], A[e:, k:e].T).T
        y[k:e] = np.linalg.solve(A[k:e, k:e], y[k:e] - A[k:e, :k] @ y[:k])
    return y


def check_dense_kl_n(n: int) -> None:
    """Refuse an n above MAX_DENSE_KL_N with ValueError, naming the limit."""
    if n > MAX_DENSE_KL_N:
        raise ValueError(f"kl_dense takes n up to MAX_DENSE_KL_N = {MAX_DENSE_KL_N}, got n = {n}")


def kl_dense(kernel: GaussMarkovKernel, f: FourierFunction, n: int) -> float:
    """Oracle: exact KL of the two n-variate Gaussians, (1/2) dm^T C^-1 dm
    with C = n Cov(xi), computed on the running sums.

    xi = D X with D the first-difference matrix, so C = n D G D^T with G
    the knot Gram matrix, and s = cumsum(dm) = D^-1 dm turns the form into
    (1/2) s^T (n G)^-1 s: KL is invariant under the invertible map cumsum.
    n G is factored in place, n G = L L^T, and y with L y = s is solved in
    the same walk over its column panels; the result is (1/2) |y|^2, so
    the oracle holds one n x n matrix and panel-sized temporaries. The
    walk runs under serial_blas, so the value does not depend on the BLAS
    thread count. A factor that fails (G not positive definite in floating
    point) raises SingularCovariance. An n above MAX_DENSE_KL_N raises
    ValueError before any array is built."""
    check_dense_kl_n(n)
    unpinned_design_clock(kernel, n)
    s = np.cumsum(_gaps(f, n))
    G = gram(kernel, design_knots(n))
    G *= n
    with serial_blas():
        try:
            y = _factor_and_solve(G, s)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance(
                f"design covariance for kernel {kernel.name!r} is not positive definite at n={n}"
            ) from exc
        with np.errstate(over="ignore"):
            return float(0.5 * y @ y)


def kl_sequential(kernel: GaussMarkovKernel, f: FourierFunction, n: int) -> float:
    """Exact KL via the conditional factorization with feedback; equals
    kl_dense to machine precision for every kernel with v != 0 at the knots."""
    v, q = design_clock(kernel, n)
    d = _gaps(f, n)
    running = np.concatenate([[0.0], np.cumsum(d)[:-1]])
    adjusted = d - np.diff(v) / v[:-1] * running
    return 0.5 * _weighted_cell_sum(kernel, adjusted, v, q)


def projection_statistic(kernel: GaussMarkovKernel, f: FourierFunction, n: int) -> float:
    """sqrt(n D_n): the scaled distance from g to the design span."""
    from . import rkhs  # only these two statistics read the RKHS layer

    return float(np.sqrt(n * rkhs.projection_distance(kernel, f, n)))


# ---------------------------------------------------------------------------
# band decomposition at cutoff K = n


@dataclass(frozen=True)
class BandDecomposition:
    n: int
    a_sum: float  # low-band discretization gaps, sum A_i^2
    b_sum: float  # tail point values, sum B_i^2
    c_sum: float  # tail cell averages, sum C_i^2
    total_gap_sq: float  # sum (f(t_i) - n int_cell f)^2
    parseval_residual: float

    @property
    def bound_total(self) -> float:
        return self.a_sum + self.b_sum + self.c_sum

    @property
    def bound_holds(self) -> bool:
        """total <= 3 (A + B + C), which is False, not shown, when a sum
        overflowed to inf or nan: then neither side is known."""
        return self.total_gap_sq <= 3.0 * self.bound_total + 1e-12 < math.inf


def check_parseval_n(n: int) -> None:
    """Refuse an n above MAX_PARSEVAL_N with ValueError, naming the limit."""
    if n > MAX_PARSEVAL_N:
        raise ValueError(f"band_split_decomposition takes n up to "
                         f"MAX_PARSEVAL_N = {MAX_PARSEVAL_N}, got n = {n}")


def band_split_decomposition(f: FourierFunction, n: int) -> BandDecomposition:
    """Split f at cutoff n and measure the three grid sums plus Parseval.

    The low band is f on |k| <= min(n, K), the tail is f with those
    coefficients set to zero. The DFT of the low-band gaps is the dense
    sum at the points j/n, O(n^2) on purpose and blocked in memory. An n
    above MAX_PARSEVAL_N raises ValueError before any array is built; an
    n below 1 is refused by the design knots.

    The sums are of squares, so a function with values past about 1e154
    overflows them: they read inf and the Parseval residual nan, with
    numpy's overflow warnings held back, and bound_holds reads False.
    """
    check_parseval_n(n)
    with np.errstate(over="ignore", invalid="ignore"):
        d = _gaps(f, n)
        K = min(n, f.K)
        low = FourierFunction(f.theta[f.K - K : f.K + K + 1], f"{f.name}-low{n}")
        tail = FourierFunction(np.where(np.abs(f.ks) > n, f.theta, 0), f"{f.name}-tail{n}")
        A = _gaps(low, n)
        B = np.asarray(tail(design_knots(n)))
        C = tail.cell_averages(n)
        j = np.arange(1, n + 1)
        F = _dense_sum(j / n, j, A.astype(complex)) / n
        parseval = abs(float(np.sum(A * A) / n) - float(np.sum(np.abs(F) ** 2)))
        return BandDecomposition(
            n=n,
            a_sum=float(np.sum(A * A)),
            b_sum=float(np.sum(B * B)),
            c_sum=float(np.sum(C * C)),
            total_gap_sq=float(np.sum(d * d)),
            parseval_residual=parseval,
        )


def band_terms_statistic(kernel: GaussMarkovKernel, f: FourierFunction, n: int) -> float:
    """Swept scalar for the band decomposition: A_sum + B_sum + C_sum.

    Kernel-independent; the kernel argument only unifies the sweep
    signature.
    """
    return band_split_decomposition(f, n).bound_total


# ---------------------------------------------------------------------------
# decoupled-transformation discrepancy


def transformation_discrepancy(kernel: GaussMarkovKernel, f: FourierFunction, n: int) -> float:
    """n sup_j (mu(s_j) - mu_{j,n})^2 + n sup_j (q'(s_j) - sigma2_{j,n})^2,
    with s_j = j/(n+1).

    It measures the decoupled process X / v = W_q, not X, so it depends on
    the gauge (c u, v / c) of the factor pair, which leaves the covariance
    and the process unchanged: the drift part scales by c^2 and the
    clock-rate part by c^4. bm written as u = 10 t, v = 1/10 reads 450.0
    where bm reads 4.5 (cos(2 pi x), n = 2). Its n^-1 rate comes from the
    evaluation points: s_j = j/(n+1) sits O(1/n) off the knot j/n, and on
    bm, where mu_{j,n} = f(j/n) and sigma2_{j,n} = q' = 1, that offset is
    the whole gap. The transform divides by v at every knot, so a pinned
    endpoint raises KernelDegenerate (unpinned_design_clock)."""
    from . import rkhs

    v, q = unpinned_design_clock(kernel, n, KernelDegenerate, "the transform divides by zero")
    mu_grid = np.diff(np.cumsum(np.asarray(f(design_knots(n)))) / v[1:], prepend=0.0)
    sigma2_grid = n * np.diff(q)
    s = design_knots(n + 1)[:-1]
    mu_cont, qp_cont = rkhs.decoupled_drift(kernel, f, s)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(n * np.max((mu_cont - mu_grid) ** 2)
                     + n * np.max((qp_cont - sigma2_grid) ** 2))


# ---------------------------------------------------------------------------
# rate sweeps


STATISTICS: dict[str, Callable[[GaussMarkovKernel, FourierFunction, int], float]] = {
    "discretization": discretization_statistic,
    "kl": kl_sequential,
    "projection": projection_statistic,
    "transformation": transformation_discrepancy,
    "band_terms": band_terms_statistic,
}


@dataclass(frozen=True)
class FunctionFamily:
    """A family of test functions, possibly depending on n (extremal
    frequencies scale with the design)."""

    name: str
    members: Callable[[int], list[FourierFunction]]


def fixed_family(name: str, fns: Sequence[FourierFunction]) -> FunctionFamily:
    fixed = list(fns)
    return FunctionFamily(name=name, members=lambda n: fixed)


def single_frequency_family(k: int = 1) -> FunctionFamily:
    return fixed_family(f"single-freq(k={k})", [FourierFunction.harmonic(k)])


def check_family_n(n: int) -> None:
    """Refuse an n above MAX_FAMILY_N with ValueError, naming the limit."""
    if n > MAX_FAMILY_N:
        raise ValueError(f"the sobolev and random families take n up to "
                         f"MAX_FAMILY_N = {MAX_FAMILY_N}, got n = {n}")


def class_extremal_family(spec: ClassSpec, seed: int = 0) -> FunctionFamily:
    """Extremal single frequencies at k in {1, n//2, n, 2n} scaled to the
    class radius, plus seeded random ellipsoid members with K = 2n. An n
    above MAX_FAMILY_N raises ValueError before any member is built."""

    def scaled_harmonic(k: int) -> FourierFunction:
        fn = FourierFunction.harmonic(k, 1.0, name=f"extremal-k{k}")
        if spec.kind == "sobolev":
            return fn.scaled(spec.L / fn.sobolev_norm(spec.beta), name=fn.name)
        return scale_into_hoelder_ball(fn, spec)

    def members(n: int) -> list[FourierFunction]:
        check_family_n(n)
        ks = sorted({1, max(1, n // 2), n, 2 * n})
        out = [scaled_harmonic(k) for k in ks]
        for idx in range(EXTREMAL_RANDOM_MEMBERS):
            out.append(sample_ellipsoid(spec, K=2 * n, seed=seed * 1000 + idx))
        return out

    return FunctionFamily(name=f"class-extremal({spec.kind})", members=members)


def random_family(spec: ClassSpec, seed: int = 0) -> FunctionFamily:
    """Seeded random ellipsoid members with K = 2n. An n above
    MAX_FAMILY_N raises ValueError before any member is built."""

    def members(n: int) -> list[FourierFunction]:
        check_family_n(n)
        return [sample_ellipsoid(spec, K=2 * n, seed=seed * 1000 + idx)
                for idx in range(RANDOM_FAMILY_SIZE)]

    return FunctionFamily(name=f"random({spec.kind})", members=members)


@dataclass(frozen=True)
class RateReport:
    statistic: str
    kernel_id: str
    family: str
    n_values: tuple
    values: tuple  # per-n family maxima; nan where every member failed
    failures: tuple  # per n, the members that raised (error class name) or gave nan ('nan')
    excluded: tuple  # n values dropped from the fit (non-finite or nonpositive)
    fit_ns: tuple
    slope: float | None
    stderr: float | None
    target: float | None
    margin: float
    degenerate: bool

    @property
    def passed(self) -> bool | None:
        """Gate verdict; None when no target was set or the fit is degenerate."""
        if self.target is None:
            return None
        if self.degenerate:
            return False
        return abs(self.slope - self.target) <= self.margin

    def lines(self) -> list[str]:
        out = [
            f"rate sweep: statistic={self.statistic} kernel={self.kernel_id} family={self.family}"
        ]
        for n, v, failed in zip(self.n_values, self.values, self.failures):
            mark = " (excluded)" if n in self.excluded else ""
            if failed:
                counts = {name: failed.count(name) for name in failed}
                shown = (name if c == 1 else f"{name} x{c}" for name, c in counts.items())
                mark += f" [failed: {', '.join(shown)}]"
            out.append(f"  n={n:<6d} max={v!r}{mark}")
        if self.degenerate:
            out.append("  fit: degenerate (fewer than two usable points)")
        else:
            se = "n/a" if math.isnan(self.stderr) else f"{self.stderr:.3f}"
            out.append(
                f"  fit over n in {list(self.fit_ns)}: slope={self.slope:.4f} (stderr {se})"
            )
        if self.target is not None:
            verdict = "PASS" if self.passed else "FAIL"
            out.append(f"  gate: slope within +-{self.margin:.2g} of {self.target:+.2f} "
                       f"-> {verdict}")
        return out


def rate_sweep(statistic: str, kernel: GaussMarkovKernel, family: FunctionFamily,
               n_grid: Sequence[int] | None = None, target: float | None = None,
               margin: float = 0.3) -> RateReport:
    """Per-n family maxima of a statistic and a log-log slope fit, one rule
    per stage.

    * Members. A member whose statistic raises a GmequivError or returns
      nan is named in that n's failures (its error class name, or 'nan');
      every other value enters the maximum as it is, so an overflow makes
      the maximum inf. An n where every member failed has maximum nan.
    * Usable n. An n is usable when its maximum is finite and positive;
      the others are excluded from the fit and reported.
    * Fit. Least squares of log10 max on log10 n over the upper half of
      the usable n, whatever order n_grid lists them in, but never fewer
      than two points: slope = sum x y / sum x^2 in centred coordinates,
      and its standard error from the residuals, nan with two points. With
      fewer than two usable n the fit is degenerate.

    The supremum over a class is standing in as a maximum over finitely
    many members, so every reported value is a lower bound for the class
    supremum. An n listed twice, a target that is not finite and a margin
    that is negative or not finite raise ValueError, before any member is
    evaluated: such a gate could never fail, or never pass.
    """
    if statistic not in STATISTICS:
        raise KeyError(f"unknown statistic {statistic!r}; choose from {sorted(STATISTICS)}")
    if target is not None and not math.isfinite(target):
        raise ValueError(f"rate gate target must be finite, got {target!r}")
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"rate gate margin must be finite and nonnegative, got {margin!r}")
    stat_fn = STATISTICS[statistic]
    ns = tuple(int(n) for n in (n_grid if n_grid is not None else DEFAULT_N_GRID))
    repeated = sorted({n for n in ns if ns.count(n) > 1})
    if repeated:
        raise ValueError(f"n grid lists n = {repeated[0]} more than once")

    maxima, failures = [], []
    for n in ns:
        vals, failed = [], []
        for fn in family.members(n):
            try:
                value = float(stat_fn(kernel, fn, n))
            except GmequivError as exc:
                failed.append(type(exc).__name__)
                continue
            if math.isnan(value):
                failed.append("nan")
            else:
                vals.append(value)
        maxima.append(max(vals, default=math.nan))
        failures.append(tuple(failed))

    usable = sorted((n, v) for n, v in zip(ns, maxima) if math.isfinite(v) and v > 0.0)
    excluded = tuple(n for n, v in zip(ns, maxima) if not (math.isfinite(v) and v > 0.0))
    fit = usable[-max(2, len(usable) - len(usable) // 2):] if len(usable) >= 2 else []
    slope = stderr = None
    if fit:
        x, y = np.log10(fit).T
        x, y = x - x.mean(), y - y.mean()
        slope = float(x @ y / (x @ x))
        resid = y - slope * x
        stderr = math.sqrt(resid @ resid / (len(fit) - 2) / (x @ x)) if len(fit) > 2 else math.nan
    return RateReport(
        statistic=statistic, kernel_id=kernel.name, family=family.name,
        n_values=ns, values=tuple(maxima), failures=tuple(failures), excluded=excluded,
        fit_ns=tuple(n for n, _ in fit), slope=slope, stderr=stderr,
        target=target, margin=margin, degenerate=slope is None,
    )
