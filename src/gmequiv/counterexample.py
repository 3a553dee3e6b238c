"""A two-point decision problem separating the two experiments.

The spike function

    f_n = c (1 - (e_n + e_{-n}) / 2),    c = sqrt(2/3) L n^{-beta},

(coefficients theta_0 = c, theta_{+-n} = -c/2, Sobolev(beta) norm squared
c^2 (1 + (1+n)^{2 beta}/2), so c is capped at the L-ball's edge where that
exceeds L^2, which beta = 1 never reaches) vanishes at every design knot
j/n, yet integrates to c > 0. Against f_0 = 0 this builds a decision
problem the discrete experiment cannot solve: the point-evaluation
observations have identical Gaussian laws under either truth, so any rule
errs with probability at least 1/2 on one of them, giving the classical
1/4 lower bound on the deficiency between the experiments.

The continuous experiment solves it exactly when the noise process is
pinned at the endpoint: for the bridge kernel the endpoint increment
Y_1 - Y_0 = F_f(1) + (X_1 - X_0)/sqrt(n) collapses to the integral of f
because X_0 = X_1 = 0. Without pinning the same functional keeps noise of
variance Var(X_1)/n, which the Monte Carlo premise below measures.

Note the spike must be written with the Fourier coefficients above: the
superficially similar c (1 - cos(2 pi n x)/2) does not vanish at the knots
(its value there is c/2), because (e_n + e_{-n})/2 IS cos(2 pi n x) and the
factor placement matters.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import experiments, sampling
from .errors import GridMissingEndpoints
from .fourier import FourierFunction
from .kernels import covariance, preset
from .samples import PathSample, path_grid

RECOVERY_TOL = 1e-10
GRID_TOL = 1e-12
# The one premise the 1/4 bound does not rest on: it shows only that the
# unpinned kernel cannot decide the pair the same way.
MC_PREMISE = "unpinned_statistic_stays_noisy"


def check_spike_n(n: int) -> None:
    """Refuse a design size below 2 with ValueError."""
    if n < 2:
        raise ValueError(
            "n must be at least 2: a one-point design leaves no room between "
            "the constant term and the spike frequency"
        )


def build_fn(n: int, beta: float, L: float) -> FourierFunction:
    """The spike function for design size n: vanishes at every knot,
    integrates to c = sqrt(2/3) L n^{-beta}, capped where the Sobolev(beta)
    norm would exceed L: for every beta <= 0, at small n for large beta,
    never at beta = 1. Raises
    ValueError for n < 2 (check_spike_n), for a beta that is not finite and
    for an L that is not positive and finite."""
    check_spike_n(n)
    if not math.isfinite(beta):
        raise ValueError(f"smoothness beta must be finite, got {beta!r}")
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"class radius L must be positive and finite, got {L!r}")
    # The norm is c^2 (1 + (1+n)^(2 beta)/2), at most L^2 for c up to the
    # cap L / sqrt(1 + (1+n)^(2 beta)/2), written with r = (1+n)^-|beta| in
    # (0, 1] so that no beta overflows it. 4 eps below the cap, the norm as
    # sobolev_norm_sq rounds it stays inside the ball too. For beta < 0 the
    # cap is below sqrt(2/3) L n^-beta, which could overflow, so it binds.
    r = float(1 + n) ** -abs(beta)
    shrink = r / math.sqrt(r * r + 0.5) if beta >= 0 else 1.0 / math.sqrt(1.0 + 0.5 * r * r)
    cap = L * shrink * (1.0 - 4.0 * sys.float_info.epsilon)
    c = cap if beta < 0 else min(math.sqrt(2.0 / 3.0) * L * float(n) ** (-beta), cap)
    return FourierFunction.from_coeffs(
        {0: c, n: -c / 2.0, -n: -c / 2.0},
        name=f"spike-n{n}",
    )


def endpoint_increment(path: PathSample) -> float:
    """h(1) - h(0) for a path observed on a grid with both endpoints."""
    if path.grid[0] != 0.0 or abs(path.grid[-1] - 1.0) > GRID_TOL:
        raise GridMissingEndpoints(
            "endpoint increment needs path values at t = 0 and t = 1"
        )
    return float(path.values[-1] - path.values[0])


@dataclass(frozen=True)
class DecisionProblem:
    """Report integral(f) from one sample, scoring an action a under the
    truth f by the 0-1 loss 1{ |a - integral(f)| > tolerance }. The
    counterexample asks it of two truths, the zero function and the spike."""

    tolerance: float = RECOVERY_TOL

    def target(self, f: FourierFunction) -> float:
        return f.integral()

    def loss(self, f: FourierFunction, action: float) -> float:
        return 0.0 if abs(action - self.target(f)) <= self.tolerance else 1.0

    def misses(self, f: FourierFunction, actions: np.ndarray) -> int:
        """How many actions lose by the rule of loss, a NaN action
        included: the plug-in risk times len(actions)."""
        return int(np.count_nonzero(~(np.abs(actions - self.target(f)) <= self.tolerance)))


@dataclass(frozen=True)
class Premise:
    name: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class IndistinguishabilityReport:
    n: int
    beta: float
    L: float
    seed: int
    pinned_kernel_id: str
    unpinned_kernel_id: str
    premises: tuple
    integral_gap: float
    sobolev_norm_sq: float
    mc_paths: int
    mc_variance: float
    mc_variance_target: float
    mc_variance_band: float
    delta_lower_bound: float = 0.25
    conclusion: str = field(default="")

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.premises)

    @property
    def failed_bound_premises(self) -> list[str]:
        """Failed premises the deficiency bound rests on: all but MC_PREMISE."""
        return [p.name for p in self.premises if not p.passed and p.name != MC_PREMISE]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "beta": self.beta,
            "L": self.L,
            "seed": self.seed,
            "pinned_kernel": self.pinned_kernel_id,
            "unpinned_kernel": self.unpinned_kernel_id,
            "premises": [
                {"name": p.name, "passed": p.passed, "witness": p.witness}
                for p in self.premises
            ],
            "integral_gap": self.integral_gap,
            "sobolev_norm_sq": self.sobolev_norm_sq,
            "mc_paths": self.mc_paths,
            "mc_variance": self.mc_variance,
            "mc_variance_target": self.mc_variance_target,
            "mc_variance_band": self.mc_variance_band,
            "delta_lower_bound": None if self.failed_bound_premises else self.delta_lower_bound,
            "verdict": "premises verified" if self.passed else "premise FAILED",
            "conclusion": self.conclusion,
        }

    def lines(self) -> list[str]:
        out = [
            f"decision problem at n={self.n} (beta={self.beta:g}, L={self.L:g}, seed={self.seed})"
        ]
        for p in self.premises:
            out.append(f"  [{'ok' if p.passed else 'FAIL'}] {p.name}: {p.witness}")
        out.append(f"  integral gap: {self.integral_gap:.6e}")
        out.append(
            f"  endpoint statistic variance without pinning: {self.mc_variance:.6e} "
            f"(target {self.mc_variance_target:.6e} +- {self.mc_variance_band:.6e}, "
            f"{self.mc_paths} paths)"
        )
        failed = self.failed_bound_premises
        if failed:
            out.append(f"  => no deficiency bound: premise failed: {', '.join(failed)}")
        else:
            out.append(f"  => deficiency lower bound {self.delta_lower_bound}")
        return out


def _streamed_actions(problem: DecisionProblem, f: FourierFunction, n: int,
                      endpoints: Iterator[np.ndarray]) -> tuple[int, float]:
    """Misses and sample variance of the actions F_f(1) + e / sqrt(n) over
    the streamed endpoints e, holding one block at a time.

    Each block is turned into its actions in place, its misses are counted
    exactly, and its mean and squared deviations are merged into running
    moments by the pairwise update of Chan, Golub and LeVeque (1983), in
    stream order. One block gives np.var(actions, ddof=1) bit for bit; more
    blocks change only its last bits.
    """
    f1, root_n = f.antiderivative(1.0), math.sqrt(n)
    misses, count, mean, m2 = 0, 0, 0.0, 0.0
    for actions in endpoints:
        actions /= root_n
        actions += f1
        misses += problem.misses(f, actions)
        size = actions.size
        count += size
        block_mean = float(actions.mean())
        actions -= block_mean
        np.square(actions, out=actions)
        delta = block_mean - mean
        mean += delta * (size / count)
        m2 += float(actions.sum()) + delta * delta * ((count - size) * size / count)
    return misses, m2 / (count - 1)


def indistinguishability_check(n: int, beta: float = 1.0, L: float = 1.0,
                               seed: int = 0, mc_paths: int = 100_000) -> IndistinguishabilityReport:
    """Verify every computable premise of the non-equivalence construction.

    Premises: the spike vanishes on the grid, sits inside the Sobolev ball,
    has a positive integral; the discrete point-evaluation laws under spike
    and zero coincide; the endpoint increment recovers the integral exactly
    under the pinned kernel; and without pinning the same statistic keeps
    Monte Carlo variance Var(X_1)/n. The 1/4 deficiency bound is then a
    logical consequence (identical discrete laws force any rule to err with
    probability 1/2 on one truth) and is reported as such, not re-derived
    numerically. The pinned kernel is the bridge, the unpinned one Brownian
    motion. mc_paths < 2 leaves no sample variance and raises ValueError.
    """
    if mc_paths < 2:
        raise ValueError(f"the Monte Carlo variance needs at least 2 paths, got {mc_paths}")
    pinned, unpinned = preset("bridge"), preset("bm")
    spike = build_fn(n, beta, L)
    zero = FourierFunction.zero()
    problem = DecisionProblem()
    premises = []

    grid = path_grid(n, n + 1)
    on_grid = np.abs(np.asarray(spike(grid)))  # t = 0 and the knots j/n
    worst_knot = float(np.max(on_grid))
    premises.append(Premise(
        "spike_vanishes_on_grid", worst_knot <= 1e-12,
        f"max |f(j/n)| = {worst_knot:.3e}",
    ))

    norm_sq = spike.sobolev_norm_sq(beta)
    premises.append(Premise(
        "spike_inside_class", norm_sq <= L * L + 1e-15,
        f"ellipsoid norm^2 = {norm_sq:.6f} vs L^2 = {L * L:g}",
    ))

    gap = spike.integral()
    premises.append(Premise(
        "integrals_differ", gap > 0.0,
        f"integral of spike = {gap:.6e}, integral of null = 0",
    ))

    mean_gap = float(np.max(on_grid[1:]))
    premises.append(Premise(
        "discrete_laws_coincide", mean_gap <= 1e-12,
        "point-evaluation means differ by "
        f"{mean_gap:.3e}; the noise law is the same Gaussian under either truth",
    ))

    recover_ok = True
    worst_recovery = 0.0
    for f in (zero, spike):
        for s in range(3):
            path = experiments.simulate_e2(pinned, f, n, seed + s)
            action = endpoint_increment(path)
            err = abs(action - problem.target(f))
            worst_recovery = max(worst_recovery, err)
            recover_ok = recover_ok and problem.loss(f, action) == 0.0
    premises.append(Premise(
        "pinned_path_recovers_integral", recover_ok,
        f"max |(Y(1)-Y(0)) - integral(f)| = {worst_recovery:.3e} over 6 pinned-kernel draws",
    ))

    endpoints = sampling.endpoint_blocks(unpinned, grid, mc_paths, seed, label="endpoint-mc")
    misses, mc_var = _streamed_actions(problem, spike, n, endpoints)
    target_var = float(covariance(unpinned, 1.0, 1.0)) / n
    band = 3.0 * target_var * math.sqrt(2.0 / (mc_paths - 1))
    premises.append(Premise(
        MC_PREMISE, abs(mc_var - target_var) <= band,
        f"MC variance {mc_var:.6e} vs Var(X_1)/n = {target_var:.6e} "
        f"(3-sigma band {band:.2e}); plugin risk {misses / mc_paths:.3f}",
    ))

    conclusion = (
        "The discrete point-evaluation laws under the two truths are identical, "
        "so every discrete decision rule has total error probability 1 across "
        "the pair, hence worst-case error at least 1/2 and averaged deficiency "
        "at least 1/4. The continuous experiment decides the pair exactly when "
        "the noise is pinned at the endpoint, so no asymptotic equivalence can "
        "hold for this kernel pair without endpoint regularity."
    )
    return IndistinguishabilityReport(
        n=n, beta=beta, L=L, seed=seed,
        pinned_kernel_id=pinned.name,
        unpinned_kernel_id=unpinned.name,
        premises=tuple(premises),
        integral_gap=gap,
        sobolev_norm_sq=norm_sq,
        mc_paths=mc_paths,
        mc_variance=mc_var,
        mc_variance_target=target_var,
        mc_variance_band=band,
        conclusion=conclusion,
    )
