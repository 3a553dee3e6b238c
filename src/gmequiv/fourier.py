"""Finite Fourier sums as regression functions, and the classes they live in.

A function is a finite sum f(x) = sum_k theta_k e_k(x) over k in [-K, K]
with e_k(x) = exp(-2 pi i k x). Real-valuedness is enforced structurally:
coefficients must satisfy theta_{-k} = conj(theta_k), and every evaluation
checks that the reconstructed imaginary part stays below 1e-12.

Grid points t = j/m for consecutive j, such as the design knots, the path
grids and the transform's j/(n+1), are evaluated by one length-m FFT of
the coefficients folded k mod m, in O(K + m log m). Other points take the
dense O(points * K) sum. The two routes agree to the last bits.

The antiderivative from 0 is closed-form,

    F(t) = theta_0 t + sum_{k != 0} theta_k (e_k(t) - 1) / (-2 pi i k),

so cell averages n * (F(i/n) - F((i-1)/n)) are exact, with no quadrature in
the loop. Smoothness classes are parameterized by ClassSpec: a Sobolev
ellipsoid sum (1+|k|)^{2 beta} |theta_k|^2 <= L^2, or a Hoelder ball with
exponent alpha, constant L, and sup-norm bound M. Hoelder membership is
checked on a grid, which can refute membership but never certify it; the
report says so.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import rng
from .errors import HermitianViolation
from .samples import path_grid

_IMAG_TOL = 1e-12
_ELLIPSOID_DECAY_MARGIN = 0.1  # the epsilon in the sampling decay exponent
_CHUNK = 2048
HOELDER_GRID = 2001  # points i/2000 of the Hoelder grid check


@dataclass(frozen=True, eq=False)
class FourierFunction:
    """Finite Fourier sum with Hermitian coefficients.

    theta[i] is the coefficient of e_{i-K}, so the array runs k = -K..K.
    """

    K: int
    theta: np.ndarray
    name: str

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=complex)
        if theta.shape != (2 * self.K + 1,):
            raise HermitianViolation(
                f"coefficient array must have length 2K+1 = {2 * self.K + 1}, "
                f"got {theta.shape}"
            )
        mirrored = np.conj(theta[::-1])
        if not np.allclose(theta, mirrored, rtol=0.0, atol=_IMAG_TOL):
            worst = int(np.argmax(np.abs(theta - mirrored))) - self.K
            raise HermitianViolation(
                f"coefficients are not conjugate-symmetric (worst at k={worst})"
            )
        object.__setattr__(self, "theta", 0.5 * (theta + mirrored))

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_coeffs(coeffs: Mapping[int, complex], name: str | None = None) -> "FourierFunction":
        """Build from a sparse {k: theta_k} map, completing missing mirrors.

        If both k and -k are present they must be conjugates; if only one is
        present the other is filled in.
        """
        if coeffs:
            K = max(abs(int(k)) for k in coeffs)
        else:
            K = 0
        theta = np.zeros(2 * K + 1, dtype=complex)
        seen = set()
        for k, value in coeffs.items():
            k = int(k)
            value = complex(value)
            if -k in seen:
                expected = np.conj(theta[K - k])
                if abs(value - expected) > _IMAG_TOL:
                    raise HermitianViolation(
                        f"coefficients at k={k} and k={-k} are not conjugate"
                    )
            theta[K + k] = value
            if K - k != K + k and -k not in seen:
                theta[K - k] = np.conj(value)
            seen.add(k)
        if abs(theta[K].imag) > _IMAG_TOL:
            raise HermitianViolation("theta_0 must be real")
        fn = FourierFunction(K, theta, name or "")
        if not name:
            object.__setattr__(fn, "name", f"fourier-{fn.content_id()[:8]}")
        return fn

    @staticmethod
    def zero() -> "FourierFunction":
        return FourierFunction.from_coeffs({0: 0.0}, name="zero")

    @staticmethod
    def harmonic(k: int, amplitude: float = 1.0, name: str | None = None) -> "FourierFunction":
        """amplitude * cos(2 pi k x)."""
        if k == 0:
            return FourierFunction.from_coeffs({0: amplitude}, name=name or "const")
        return FourierFunction.from_coeffs(
            {k: amplitude / 2.0, -k: amplitude / 2.0},
            name=name or f"cos{k}",
        )

    def content_id(self) -> str:
        payload = self.theta.tobytes() + str(self.K).encode()
        return hashlib.sha256(payload).hexdigest()

    def coeff(self, k: int) -> complex:
        if abs(k) > self.K:
            return 0.0 + 0.0j
        return complex(self.theta[self.K + k])

    @property
    def ks(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    # -- evaluation --------------------------------------------------------

    def _reduce(self, t: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_k weights_k exp(-2 pi i k t), checked real.

        At grid points t = j/m, j = j0 .. j0 + L - 1 with L >= m - 1, the
        phase exp(-2 pi i k j/m) depends on k only mod m, so the sum is one
        length-m FFT of the weights folded mod m. Other points take the
        dense sum, chunked over t.
        """
        ks = self.ks
        grid = _grid_indices(t)
        if grid is None:
            vals = _dense_sum(t, ks, weights)
        else:
            js, m = grid
            bins = ks % m
            folded = (np.bincount(bins, weights.real, m)
                      + 1j * np.bincount(bins, weights.imag, m))
            vals = np.fft.fft(folded)[js % m]
        scale = max(float(np.sum(np.abs(weights))), 1.0)
        worst = float(np.max(np.abs(vals.imag), initial=0.0))
        if worst > _IMAG_TOL * scale:
            raise HermitianViolation(
                f"evaluation produced imaginary residue {worst:.3e}"
            )
        return vals.real

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = self._reduce(np.atleast_1d(arr).ravel(), self.theta)
        out = out.reshape(np.atleast_1d(arr).shape)
        return float(out[0]) if arr.ndim == 0 else out

    def antiderivative(self, t):
        """F(t) = integral of f from 0 to t, in closed form."""
        arr = np.asarray(t, dtype=float)
        flat = np.atleast_1d(arr).ravel()
        ks = self.ks
        weights = np.zeros_like(self.theta)
        nonzero = ks != 0
        weights[nonzero] = self.theta[nonzero] / (-2j * np.pi * ks[nonzero])
        # sum theta_k (e_k(t) - 1)/(-2 pi i k)  +  theta_0 t
        osc = self._reduce(flat, weights) - float(np.sum(weights).real)
        out = osc + float(self.theta[self.K].real) * flat
        out = out.reshape(np.atleast_1d(arr).shape)
        return float(out[0]) if arr.ndim == 0 else out

    def cell_averages(self, n: int) -> np.ndarray:
        """Vector of n * integral over ((i-1)/n, i/n) for i = 1..n."""
        F = self.antiderivative(path_grid(n, n + 1))
        return n * np.diff(F)

    def integral(self) -> float:
        """Integral over [0,1]; equals theta_0."""
        return float(self.theta[self.K].real)

    def sobolev_norm_sq(self, beta: float) -> float:
        weights = (1.0 + np.abs(self.ks)) ** (2.0 * beta)
        return float(np.sum(weights * np.abs(self.theta) ** 2))

    def l2_norm_sq(self) -> float:
        return float(np.sum(np.abs(self.theta) ** 2))

    def scaled(self, factor: float, name: str | None = None) -> "FourierFunction":
        return FourierFunction(self.K, self.theta * factor, name or self.name)

    def plus(self, other: "FourierFunction", name: str | None = None) -> "FourierFunction":
        K = max(self.K, other.K)
        theta = np.zeros(2 * K + 1, dtype=complex)
        theta[K - self.K : K + self.K + 1] += self.theta
        theta[K - other.K : K + other.K + 1] += other.theta
        return FourierFunction(K, theta, name or f"{self.name}+{other.name}")

    # -- JSON surface ------------------------------------------------------

    @staticmethod
    def from_spec(spec: Mapping) -> "FourierFunction":
        """Build from {"coeffs": [[k, re, im], ...]}, Hermitian-completed;
        ValueError naming 'coeffs' when the key is missing or malformed,
        including a k that is not an integer and a part that is not finite."""
        try:
            coeffs = {}
            for k, re_part, im_part in spec["coeffs"]:
                index, value = float(k), complex(float(re_part), float(im_part))
                if not (index.is_integer() and cmath.isfinite(value)):
                    raise ValueError(f"{[k, re_part, im_part]!r} needs an integral k "
                                     "and finite parts")
                coeffs[int(index)] = value
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"function spec key 'coeffs' needs [k, re, im] number triples ({exc!r})"
            ) from exc
        return FourierFunction.from_coeffs(coeffs, name=spec.get("name"))

    def to_spec(self) -> dict:
        entries = []
        for k in range(-self.K, self.K + 1):
            value = self.coeff(k)
            if value != 0:
                entries.append([k, value.real, value.imag])
        return {"name": self.name, "coeffs": entries}

    def to_json(self) -> str:
        return json.dumps(self.to_spec(), sort_keys=True)


def _grid_indices(t: np.ndarray) -> tuple[np.ndarray, int] | None:
    """(j, m) when t is exactly (j0 + arange(t.size)) / m with
    t.size >= m - 1, the form path_grid and design_knots build; else None."""
    size = t.size
    if size < 2:
        return None
    span = float(t[-1] - t[0])
    if not 0.0 < span < math.inf:
        return None
    ratio = (size - 1) / span
    if not ratio < size + 2:
        return None
    m = round(ratio)
    start = float(t[0]) * m
    if not 1 <= m <= size + 1 or not abs(start) <= 2.0**52:
        return None
    js = round(start) + np.arange(size)
    if not np.array_equal(t, js / m):
        return None
    return js, m


def _dense_sum(t: np.ndarray, ks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights_k exp(-2 pi i k t) at arbitrary t, chunked over t.

    The product is np.einsum, not `@`: a BLAS matrix-vector product wakes
    the BLAS thread pool on every chunk, which costs milliseconds per call
    at small K, where the sum itself costs microseconds.
    """
    out = np.empty(t.shape, dtype=complex)
    for lo in range(0, t.size, _CHUNK):
        phases = np.exp(-2j * np.pi * np.outer(t[lo : lo + _CHUNK], ks))
        out[lo : lo + _CHUNK] = np.einsum("ij,j->i", phases, weights)
    return out


# ---------------------------------------------------------------------------
# smoothness classes


@dataclass(frozen=True)
class ClassSpec:
    """A smoothness class: sobolev(beta, L) or hoelder(alpha, L, M).

    The asymptotic statements this package probes need beta > 1/2 for the
    Sobolev ellipsoid and 1/2 < alpha <= 1 for the Hoelder ball. Looser
    parameters are allowed for exploratory runs and flagged.
    """

    kind: str
    beta: float = 0.0
    alpha: float = 0.0
    L: float = 1.0
    M: float = math.inf

    def __post_init__(self):
        if self.kind not in ("sobolev", "hoelder"):
            raise ValueError(f"unknown class kind {self.kind!r}")
        if self.L <= 0:
            raise ValueError("class radius L must be positive")

    @staticmethod
    def sobolev(beta: float, L: float) -> "ClassSpec":
        return ClassSpec(kind="sobolev", beta=beta, L=L)

    @staticmethod
    def hoelder(alpha: float, L: float, M: float = math.inf) -> "ClassSpec":
        if not 0 < alpha <= 1:
            raise ValueError("hoelder exponent must lie in (0, 1]")
        return ClassSpec(kind="hoelder", alpha=alpha, L=L, M=M)

    @property
    def below_smoothness_floor(self) -> bool:
        """True when the parameters sit at or under the smoothness floor
        (beta <= 1/2, alpha <= 1/2) where the asymptotics stop applying."""
        if self.kind == "sobolev":
            return not self.beta > 0.5
        return not 0.5 < self.alpha <= 1.0


def sample_ellipsoid(spec: ClassSpec, K: int, seed: int) -> FourierFunction:
    """Random class member with K frequencies, deterministic in the seed.

    Magnitudes decay like (1+|k|)^(-s - 1/2 - 0.1) where s is beta (or
    alpha), phases are uniform, and the result is rescaled to sit at 95% of
    the class radius.
    """
    smooth = spec.beta if spec.kind == "sobolev" else spec.alpha
    gen = rng.stream(seed, "ellipsoid", spec.kind, smooth, spec.L, K)
    decay = (1.0 + np.arange(1, K + 1)) ** (-smooth - 0.5 - _ELLIPSOID_DECAY_MARGIN)
    magnitudes = gen.uniform(0.0, 1.0, size=K) * decay
    phases = gen.uniform(0.0, 2.0 * np.pi, size=K)
    theta0 = gen.uniform(-1.0, 1.0)
    coeffs = {0: complex(theta0, 0.0)}
    for k in range(1, K + 1):
        coeffs[k] = magnitudes[k - 1] * np.exp(1j * phases[k - 1])
    fn = FourierFunction.from_coeffs(coeffs, name=f"ellipsoid-{spec.kind}-{seed}")
    if spec.kind == "sobolev":
        current = fn.sobolev_norm_sq(spec.beta)
        target = 0.95 * spec.L**2
        return fn.scaled(math.sqrt(target / current), name=fn.name)
    return scale_into_hoelder_ball(fn, spec)


def scale_into_hoelder_ball(fn: FourierFunction, spec: ClassSpec) -> FourierFunction:
    """Rescale fn to 95% of the Hoelder constant L, as estimated by
    hoelder_check, capped at 95% of the sup-norm bound M when M is finite."""
    report = hoelder_check(fn, spec)
    scale = 0.95 * spec.L / max(report.estimated_constant, 1e-300)
    if math.isfinite(spec.M) and report.sup_norm > 0:
        scale = min(scale, 0.95 * spec.M / report.sup_norm)
    return fn.scaled(scale, name=fn.name)


@dataclass(frozen=True)
class HoelderReport:
    """Grid estimates of the Hoelder constant and sup norm.

    Both estimates are lower bounds (a grid sees only finitely many pairs),
    so `refuted` is trustworthy and `consistent` is only consistency, never
    a certificate of membership.
    """

    alpha: float
    estimated_constant: float
    sup_norm: float
    constant_bound: float
    sup_bound: float

    @property
    def refuted(self) -> bool:
        return (
            self.estimated_constant > self.constant_bound
            or self.sup_norm > self.sup_bound
        )

    @property
    def consistent(self) -> bool:
        return not self.refuted


def hoelder_check(fn: FourierFunction, spec: ClassSpec) -> HoelderReport:
    """Estimate sup |f(x)-f(y)| / |x-y|^alpha over all pairs of the
    HOELDER_GRID points i/(HOELDER_GRID - 1), a grid the FFT route takes."""
    if spec.kind != "hoelder":
        raise ValueError("hoelder_check needs a hoelder ClassSpec")
    xs = path_grid(1, HOELDER_GRID)
    vals = fn(xs)
    best = 0.0
    rows = max(1, _CHUNK // HOELDER_GRID) * 8
    for lo in range(0, HOELDER_GRID - 1, rows):
        hi = min(lo + rows, HOELDER_GRID - 1)
        block = vals[lo:hi, None] - vals[None, lo + 1 :]
        gaps = np.abs(xs[lo:hi, None] - xs[None, lo + 1 :])
        mask = gaps > 0
        ratios = np.abs(block[mask]) / gaps[mask] ** spec.alpha
        if ratios.size:
            best = max(best, float(ratios.max()))
    return HoelderReport(
        alpha=spec.alpha,
        estimated_constant=best,
        sup_norm=float(np.max(np.abs(vals))),
        constant_bound=spec.L,
        sup_bound=spec.M,
    )


def function_from_spec(spec: Mapping | str) -> FourierFunction:
    """JSON surface: accept a dict, a JSON string, or a path to a JSON file."""
    if isinstance(spec, str):
        text = spec.strip()
        if not text.startswith("{"):
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        spec = json.loads(text)
    return FourierFunction.from_spec(spec)
