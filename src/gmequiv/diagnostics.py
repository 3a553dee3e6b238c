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
direct O(n^2) discrete Fourier transform to check Parseval's identity,
which pins down the aliasing bookkeeping.

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

from . import rkhs
from .errors import GmequivError, KernelDegenerate, SingularCovariance
from .fourier import ClassSpec, FourierFunction, sample_ellipsoid, scale_into_hoelder_ball
from .kernels import PINNED_TOL, GaussMarkovKernel, design_clock, gram
from .samples import design_knots

DEFAULT_N_GRID = (16, 32, 64, 128, 256, 512)
EXTREMAL_RANDOM_MEMBERS = 2  # seeded ellipsoid members of class_extremal_family
RANDOM_FAMILY_SIZE = 3  # members of random_family


def _gaps(f: FourierFunction, n: int) -> np.ndarray:
    """d_i = f(t_i) - n int_{cell i} f at the design knots."""
    return np.asarray(f(design_knots(n))) - f.cell_averages(n)


def _weighted_cell_sum(kernel: GaussMarkovKernel, x: np.ndarray,
                       v: np.ndarray, q: np.ndarray) -> float:
    """(1/n) sum_i x_i^2 / (v_i^2 dq_i); a term with x_i = 0 is exactly 0,
    a nonzero x_i on a zero or non-finite weight (a pinned cell) raises."""
    with np.errstate(invalid="ignore"):
        weight = v[1:] * v[1:] * np.diff(q)
    live = x != 0.0
    if np.any(live & ~(np.isfinite(weight) & (weight != 0.0))):
        raise SingularCovariance(
            f"design of kernel {kernel.name!r} is singular at n={x.size}: a cell "
            "with a nonzero gap has a zero or non-finite weight v^2 dq"
        )
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


def _increment_covariance(kernel: GaussMarkovKernel, n: int) -> np.ndarray:
    """Cov(xi) = D G D^T with D the first-difference matrix, formed by
    differencing the rows and then the columns of the knot Gram matrix G."""
    G = gram(kernel, design_knots(n))
    return np.diff(np.diff(G, axis=0, prepend=0.0), axis=1, prepend=0.0)


def kl_dense(kernel: GaussMarkovKernel, f: FourierFunction, n: int) -> float:
    """Oracle: exact KL of the two n-variate Gaussians, (1/2) dm^T C^-1 dm
    with C = n Cov(xi)."""
    v, _ = design_clock(kernel, n)
    if np.any(np.abs(v[1:]) <= PINNED_TOL):
        raise SingularCovariance(
            f"kernel {kernel.name!r} has v = 0 at a design knot, so the "
            f"increment covariance is singular at n={n}"
        )
    dm = _gaps(f, n)
    C = n * _increment_covariance(kernel, n)
    try:
        solved = np.linalg.solve(C, dm)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(
            f"increment covariance for kernel {kernel.name!r} is singular at n={n}"
        ) from exc
    return float(0.5 * dm @ solved)


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
        return self.total_gap_sq <= 3.0 * self.bound_total + 1e-12


def _split_at(f: FourierFunction, cutoff: int) -> tuple[FourierFunction, FourierFunction]:
    low = {k: f.coeff(k) for k in range(-min(cutoff, f.K), min(cutoff, f.K) + 1)}
    tail = {int(k): f.coeff(k) for k in f.ks[np.abs(f.ks) > cutoff]} if f.K > cutoff else {}
    low_fn = FourierFunction.from_coeffs(low or {0: 0.0}, name=f"{f.name}-low{cutoff}")
    tail_fn = FourierFunction.from_coeffs(tail or {0: 0.0}, name=f"{f.name}-tail{cutoff}")
    return low_fn, tail_fn


def band_split_decomposition(f: FourierFunction, n: int) -> BandDecomposition:
    """Split f at cutoff n and measure the three grid sums plus Parseval."""
    low, tail = _split_at(f, n)
    A = _gaps(low, n)
    B = np.asarray(tail(design_knots(n)))
    C = tail.cell_averages(n)
    d = _gaps(f, n)
    # direct DFT of the low-band gaps, O(n^2) on purpose (no FFT)
    j = np.arange(1, n + 1)
    phases = np.exp(-2j * np.pi * np.outer(j, j) / n)
    F = (phases @ A.astype(complex)) / n
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
    with s_j = j/(n+1)."""
    if not math.isfinite(kernel.horizon):
        raise KernelDegenerate(
            f"kernel {kernel.name!r} is pinned at the endpoint (v(1) = 0); "
            "the decoupling transform divides by v at every knot"
        )
    v, q = design_clock(kernel, n)
    mu_grid = np.diff(np.cumsum(np.asarray(f(design_knots(n)))) / v[1:], prepend=0.0)
    sigma2_grid = n * np.diff(q)
    s = np.arange(1, n + 1) / (n + 1)
    mu_cont = rkhs.decoupled_drift(kernel, f, s)
    qp_cont = np.asarray(kernel.q_prime(s))
    return float(
        n * np.max((mu_cont - mu_grid) ** 2) + n * np.max((qp_cont - sigma2_grid) ** 2)
    )


# ---------------------------------------------------------------------------
# rate sweeps


STATISTICS: dict[str, Callable[[GaussMarkovKernel, FourierFunction, int], float]] = {
    "discretization": discretization_statistic,
    "kl": kl_chain,
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


def class_extremal_family(spec: ClassSpec, seed: int = 0) -> FunctionFamily:
    """Extremal single frequencies at k in {1, n//2, n, 2n} scaled to the
    class radius, plus seeded random ellipsoid members with K = 2n."""

    def scaled_harmonic(k: int) -> FourierFunction:
        fn = FourierFunction.harmonic(k, 1.0, name=f"extremal-k{k}")
        if spec.kind == "sobolev":
            norm = np.sqrt(fn.sobolev_norm_sq(spec.beta))
            return fn.scaled(spec.L / norm, name=fn.name)
        return scale_into_hoelder_ball(fn, spec)

    def members(n: int) -> list[FourierFunction]:
        ks = sorted({1, max(1, n // 2), n, 2 * n})
        out = [scaled_harmonic(k) for k in ks]
        for idx in range(EXTREMAL_RANDOM_MEMBERS):
            out.append(sample_ellipsoid(spec, K=2 * n, seed=seed * 1000 + idx))
        return out

    return FunctionFamily(name=f"class-extremal({spec.kind})", members=members)


def random_family(spec: ClassSpec, seed: int = 0) -> FunctionFamily:
    def members(n: int) -> list[FourierFunction]:
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
    failures: tuple  # per n, the error class names of the members that raised
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
        if self.degenerate or self.slope is None:
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
            out.append("  fit: degenerate (no usable points)")
        else:
            se = "n/a" if self.stderr is None or not np.isfinite(self.stderr) else f"{self.stderr:.3f}"
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
    """Per-n family maxima of a statistic and a log-log slope fit.

    The supremum over a class is standing in as a maximum over finitely
    many members, so every reported value is a lower bound for the class
    supremum. The slope is fit on the upper half of the n grid (the
    asymptotic regime); non-finite or nonpositive maxima are excluded from
    the fit and reported. A member whose statistic raises a GmequivError
    is left out of the maximum, and the error's class name is recorded in
    failures and shown on that n's line.
    """
    if statistic not in STATISTICS:
        raise KeyError(f"unknown statistic {statistic!r}; choose from {sorted(STATISTICS)}")
    stat_fn = STATISTICS[statistic]
    ns = tuple(int(n) for n in (n_grid if n_grid is not None else DEFAULT_N_GRID))

    maxima, failures = [], []
    for n in ns:
        vals, failed = [], []
        for fn in family.members(n):
            try:
                value = float(stat_fn(kernel, fn, n))
            except GmequivError as exc:
                failed.append(type(exc).__name__)
                continue
            if np.isfinite(value):
                vals.append(value)
        maxima.append(max(vals) if vals else float("nan"))
        failures.append(tuple(failed))

    usable = [(n, v) for n, v in zip(ns, maxima) if np.isfinite(v) and v > 0.0]
    excluded = tuple(n for n, v in zip(ns, maxima) if not (np.isfinite(v) and v > 0.0))
    half = usable[len(usable) // 2 :] if len(usable) >= 2 else []
    if len(half) < 2:
        return RateReport(
            statistic=statistic, kernel_id=kernel.name, family=family.name,
            n_values=ns, values=tuple(maxima), failures=tuple(failures),
            excluded=excluded, fit_ns=(),
            slope=None, stderr=None, target=target, margin=margin, degenerate=True,
        )
    xs = np.log10([n for n, _ in half])
    ys = np.log10([v for _, v in half])
    if len(half) >= 3:
        coeffs, cov = np.polyfit(xs, ys, 1, cov=True)
        stderr = float(np.sqrt(cov[0, 0]))
    else:
        coeffs = np.polyfit(xs, ys, 1)
        stderr = float("nan")
    return RateReport(
        statistic=statistic, kernel_id=kernel.name, family=family.name,
        n_values=ns, values=tuple(maxima), failures=tuple(failures), excluded=excluded,
        fit_ns=tuple(n for n, _ in half), slope=float(coeffs[0]), stderr=stderr,
        target=target, margin=margin, degenerate=False,
    )
