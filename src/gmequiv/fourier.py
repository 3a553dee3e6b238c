"""Finite Fourier sums as regression functions, and the classes they live in.

A function is a finite sum f(x) = sum_k theta_k e_k(x) over k in [-K, K]
with e_k(x) = exp(-2 pi i k x). Real-valuedness is enforced structurally:
the constructor alone checks theta_{-k} = conj(theta_k) to 1e-12, theta_0
included (from_coeffs only fills in the mirrors a sparse map leaves out),
and every evaluation checks, in O(K), that the weights it sums are
conjugate-symmetric to 1e-12 of their scale, which bounds the imaginary
part at every point. function_from_spec reads spec text through
kernels.read_spec, the rule kernel specs share.

An arithmetic progression of points t = (j0 + frac + r)/m, r = 0, 1, ...,
is evaluated by one real inverse FFT of length m of the coefficients
folded k mod m, of which only the Hermitian half spectrum (entries
0..m//2) is built: the coefficients that fall there, and only they, take
their phase and are added in k order by one np.add.at, with no loop over
periods, in O(K + m log m). That covers the grid points j/m of
the design knots, the path grids and the transform's j/(n+1) (frac = 0),
and the Gauss nodes that rkhs._residual_integral places on equal panels,
whose columns share m and j0, each with its own frac. Every point is
evaluated at its progression, which lies within 8 eps of it. The route is
decided once per array: any other array takes the dense O(points * K) sum
as a whole.
The two routes agree to the last bits.

The antiderivative from 0 is closed-form,

    F(t) = theta_0 t + sum_{k != 0} theta_k (e_k(t) - 1) / (-2 pi i k),

so cell averages n * (F(i/n) - F((i-1)/n)) are exact, with no quadrature in
the loop. Smoothness classes are parameterized by ClassSpec: a Sobolev
ellipsoid sum (1+|k|)^{2 beta} |theta_k|^2 <= L^2, or a Hoelder ball with
exponent alpha in (0, 1], constant L, and sup-norm bound M. Hoelder members
are scaled by certified upper bounds on the Hoelder constant and the sup
norm, closed form in the coefficients, so they lie inside the ball.
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
from .samples import block_rows, path_grid

_IMAG_TOL = 1e-12
# A column within this absolute distance of an arithmetic progression is
# evaluated at the progression, by FFT.
_PROGRESSION_TOL = 8 * np.finfo(float).eps
_ELLIPSOID_DECAY_MARGIN = 0.1  # the epsilon in the sampling decay exponent
# Largest |k| a function spec may name: theta has 2|k| + 1 entries, so this
# caps one spec at 32 MB of coefficients, far above any K the package builds.
MAX_FREQUENCY = 2**20


def check_frequency(k: int) -> None:
    """Refuse a frequency |k| above MAX_FREQUENCY with ValueError, naming
    the limit."""
    if abs(k) > MAX_FREQUENCY:
        raise ValueError(f"frequency k = {k} is above MAX_FREQUENCY = {MAX_FREQUENCY}")


@dataclass(frozen=True, eq=False)
class FourierFunction:
    """Finite Fourier sum with Hermitian coefficients.

    theta[i] is the coefficient of e_{i-K}, so the array runs k = -K..K.
    An empty name becomes 'fourier-' and the first 8 hex digits of
    content_id().
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
        # halved before the sum, which would overflow past about 9e307
        object.__setattr__(self, "theta", 0.5 * theta + 0.5 * mirrored)
        if not self.name:
            object.__setattr__(self, "name", f"fourier-{self.content_id()[:8]}")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_coeffs(coeffs: Mapping[int, complex], name: str | None = None) -> "FourierFunction":
        """Build from a sparse {k: theta_k} map: theta_k as the map gives it,
        and conj(theta_k) at each -k the map does not give. The constructor
        checks the pairs the map gives both halves of, theta_0 included. A
        |k| above MAX_FREQUENCY raises ValueError before the 2|k| + 1
        coefficients are built."""
        top = max(coeffs, key=abs, default=0)
        check_frequency(top)
        ks = np.array(list(coeffs), dtype=int)
        values = np.array(list(coeffs.values()), dtype=complex)
        K = abs(int(top))
        theta = np.zeros(2 * K + 1, dtype=complex)
        theta[K - ks] = np.conj(values)
        theta[K + ks] = values
        return FourierFunction(K, theta, name or "")

    @staticmethod
    def zero() -> "FourierFunction":
        return FourierFunction.from_coeffs({0: 0.0}, name="zero")

    @staticmethod
    def harmonic(k: int, amplitude: float = 1.0, name: str | None = None) -> "FourierFunction":
        """amplitude * cos(2 pi k x); a |k| above MAX_FREQUENCY raises
        ValueError (from_coeffs)."""
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
        """sum_k weights_k exp(-2 pi i k t), checked real, in the shape of t.

        The route is decided once for the whole array. When every column
        t[:, c] (t itself when 1-d) is the arithmetic progression
        (j0 + frac_c + r) / m with at least m - 1 points, with one m and one
        j0 for all the columns (_progression), the array is evaluated by one
        batched real inverse FFT (_fft_columns). Otherwise the whole array
        goes through the dense sum, blocked over its points. Both routes
        keep the real part.

        The imaginary part of the sum is at most
        sum_k |weights_k - conj(weights_{-k})| / 2 at every t, so one O(K)
        check of that bound against _IMAG_TOL times the weights' scale
        covers every point on both routes.
        """
        columns = t.reshape(t.shape[0], math.prod(t.shape[1:]))
        m, j0, frac = _progression(columns)
        out = (_fft_columns(self.ks, weights, m, j0, frac, columns.shape[0]) if m
               else _dense_sum(columns.ravel(), self.ks, weights).real.copy())
        residue = 0.5 * float(np.sum(np.abs(weights - np.conj(weights[::-1]))))
        if residue > _IMAG_TOL * max(float(np.sum(np.abs(weights))), 1.0):
            raise HermitianViolation(
                f"weights are not conjugate-symmetric: imaginary residue up to {residue:.3e}"
            )
        return out.reshape(t.shape)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = self._reduce(np.atleast_1d(arr), self.theta)
        return float(out[0]) if arr.ndim == 0 else out

    def antiderivative(self, t):
        """F(t) = integral of f from 0 to t, in closed form."""
        arr = np.asarray(t, dtype=float)
        points = np.atleast_1d(arr)
        ks = self.ks
        weights = np.zeros_like(self.theta)
        nonzero = ks != 0
        weights[nonzero] = self.theta[nonzero] / (-2j * np.pi * ks[nonzero])
        # sum theta_k (e_k(t) - 1)/(-2 pi i k)  +  theta_0 t, in place
        out = self._reduce(points, weights)
        out -= float(np.sum(weights).real)
        out += float(self.theta[self.K].real) * points
        return float(out[0]) if arr.ndim == 0 else out

    def cell_averages(self, n: int) -> np.ndarray:
        """Vector of n * integral over ((i-1)/n, i/n) for i = 1..n."""
        F = self.antiderivative(path_grid(n, n + 1))
        return n * np.diff(F)

    def integral(self) -> float:
        """Integral over [0,1]; equals theta_0."""
        return self.coeff(0).real

    def sobolev_norm(self, beta: float) -> float:
        """sqrt(sum_k (1+|k|)^(2 beta) |theta_k|^2), the Sobolev ellipsoid norm.

        A zero theta_k takes weight 1. Where a weight or the sum overflows,
        the sum is taken again with each term formed as ((1+|k|)^beta
        |theta_k|)^2, in units of the largest, so any norm below the largest
        float is returned. One that is not raises ValueError naming beta and
        a k: the least |k| whose weighted term overflows, else the |k| of
        the largest term.
        """
        return self._sobolev_sum(beta, squared=False)

    def sobolev_norm_sq(self, beta: float) -> float:
        """The square of sobolev_norm, summed the same way: any square
        below the largest float is returned, and one that is not raises."""
        return self._sobolev_sum(beta, squared=True)

    def _sobolev_sum(self, beta: float, squared: bool) -> float:
        base = 1.0 + np.abs(self.ks) * (self.theta != 0)
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(base ** (2.0 * beta) * np.abs(self.theta) ** 2))
            if math.isfinite(total):
                return total if squared else math.sqrt(total)
            terms = base**beta * np.abs(self.theta)
            top = float(np.max(terms))
            total = float(np.sum(np.square(terms / top)))
        value = top * top * total if squared else top * math.sqrt(total)
        if not math.isfinite(value):
            over = ~np.isfinite(terms)
            k = np.abs(self.ks)[over].min() if over.any() else abs(self.ks[np.argmax(terms)])
            raise ValueError(f"Sobolev norm{'^2' if squared else ''} overflows at "
                             f"beta = {beta!r}, k = {int(k)}")
        return value

    def scaled(self, factor: float, name: str | None = None) -> "FourierFunction":
        return FourierFunction(self.K, self.theta * factor, name or self.name)

    # -- JSON surface ------------------------------------------------------

    def to_spec(self) -> dict:
        index = np.flatnonzero(self.theta)
        ks, values = (index - self.K).tolist(), self.theta[index]
        entries = [[k, re, im] for k, re, im in zip(ks, values.real.tolist(), values.imag.tolist())]
        return {"name": self.name, "coeffs": entries}

    def to_json(self) -> str:
        return json.dumps(self.to_spec(), sort_keys=True)


def _progression(t: np.ndarray) -> tuple[int, int, np.ndarray | None]:
    """(m, j0, frac) such that t[r, c], shape (points, columns), lies within
    _PROGRESSION_TOL of (j0 + frac[c] + r) / m for every r and c, with
    points >= m - 1; (0, 0, None) when the array is no such progression.

    One rule, one pass. m is read from the first column. Each column is
    anchored at the integer a nearest its start m t[0, c] when a / m lies
    within _PROGRESSION_TOL of t[0, c], and at the start itself otherwise;
    then every point is checked against (anchor + r) / m, and j0 =
    floor(anchor) must be one integer for the whole array, frac = anchor -
    j0. So the knots and path grids take frac = 0, and on equal panels each
    column of Gauss nodes, panel r's node s at (r + s) / m, takes its own
    frac with j0 = 0.
    """
    size = t.shape[0]
    if size < 2 or not t.size:
        return 0, 0, None
    with np.errstate(all="ignore"):
        m = np.rint((size - 1) / (t[-1, 0] - t[0, 0]))
        start = t[0] * m
    # 1 <= m <= size + 1 also rules out a span that is not positive and finite
    if not (1 <= m <= size + 1 and np.all(np.abs(start) <= 2.0**52)):
        return 0, 0, None
    anchor = np.rint(start)
    np.copyto(anchor, start, where=np.abs(anchor / m - t[0]) > _PROGRESSION_TOL)
    # in place: the distance of each point from its progression
    gap = np.add.outer(np.arange(size, dtype=float), anchor)
    gap /= m
    gap -= t
    if not np.max(np.abs(gap, out=gap)) <= _PROGRESSION_TOL:
        return 0, 0, None
    j0 = np.floor(anchor)
    return (int(m), int(j0[0]), anchor - j0) if np.all(j0 == j0[0]) else (0, 0, None)


def _fft_columns(ks: np.ndarray, weights: np.ndarray, m: int, j0: int,
                 frac: np.ndarray, size: int) -> np.ndarray:
    """The real part of sum_k weights_k exp(-2 pi i k (j0 + frac[c] + r) / m)
    at [r, c], shape (size, frac.size), for Hermitian weights_{-k} =
    conj(weights_k).

    The phase exp(-2 pi i k (j0 + r) / m) depends on k only mod m, so the
    weights, times exp(-2 pi i k frac / m) when some frac != 0, are folded
    k mod m into one spectrum row per column (one row in all when every
    frac is 0). The phase keeps the weights Hermitian, so the folded
    spectrum is too, and only its entries 0..m//2 are built: the
    coefficients whose residue falls there are selected once, only they
    take the phase, and each row is one np.add.at, which adds into every
    entry in ascending k order. No loop runs over periods of the
    coefficients, so the fold is O(K) and the call O(K + m log m).
    Conjugated in place, that half spectrum goes through one real inverse
    FFT along the rows, which evaluates all m residues as real values
    (np.fft.hfft, without the conjugated copy hfft makes). Point r reads
    entry (j0 + r) mod m, the same rotation for every column, copied out
    through two slices; beyond m points the values repeat with period m.
    """
    phase = frac * (-2j * np.pi / m) if np.any(frac) else None
    residues = ks % m
    kept = residues <= m // 2
    ks, weights, residues = ks[kept], weights[kept], residues[kept]
    spectrum = np.zeros((1 if phase is None else frac.size, m // 2 + 1), dtype=complex)
    for row, shift in zip(spectrum, [None] if phase is None else phase):
        # np.multiply, not `*`: on a temporary of 256 KiB or more `*` computes
        # exp * weights in place, and numpy's complex product is not
        # commutative to the last bit
        terms = weights if shift is None else np.multiply(weights, np.exp(shift * ks))
        np.add.at(row, residues, terms)
    np.conjugate(spectrum, out=spectrum)
    values = np.fft.irfft(spectrum, n=m, axis=1, norm="forward").T
    out = np.empty((size, frac.size))
    first, start = min(size, m), j0 % m
    head = min(m - start, first)
    out[:head] = values[start : start + head]
    out[head:first] = values[: first - head]
    done = first
    while done < size:
        out[done : 2 * done] = out[: min(done, size - done)]
        done *= 2
    return out


def _dense_sum(t: np.ndarray, ks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights_k exp(-2 pi i k t) at arbitrary t, in blocks of
    block_rows(ks.size) points, so no phase block holds more than
    BLOCK_ELEMENTS entries whatever K is.

    The product is np.einsum, not `@`: a BLAS matrix-vector product wakes
    the BLAS thread pool on every block, which costs milliseconds per call
    at small K, where the sum itself costs microseconds.
    """
    out = np.empty(t.shape, dtype=complex)
    rows = block_rows(ks.size)
    for lo in range(0, t.size, rows):
        phases = np.exp(-2j * np.pi * np.outer(t[lo : lo + rows], ks))
        out[lo : lo + rows] = np.einsum("ij,j->i", phases, weights)
    return out


# ---------------------------------------------------------------------------
# smoothness classes


@dataclass(frozen=True)
class ClassSpec:
    """A smoothness class: sobolev(beta, L) or hoelder(alpha, L, M).

    The asymptotic statements this package probes need beta > 1/2 for the
    Sobolev ellipsoid and 1/2 < alpha <= 1 for the Hoelder ball. Looser
    parameters are allowed for exploratory runs, except an alpha outside
    (0, 1], where the Hoelder bounds of scale_into_hoelder_ball fail.
    """

    kind: str
    beta: float = 0.0
    alpha: float = 0.0
    L: float = 1.0
    M: float = math.inf

    def __post_init__(self):
        if self.kind not in ("sobolev", "hoelder"):
            raise ValueError(f"unknown class kind {self.kind!r}")
        for name in ("beta", "alpha", "L"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"class parameter {name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.L <= 0:
            raise ValueError("class radius L must be positive")
        if not math.isfinite(self.L * self.L):
            raise ValueError(f"class radius L = {self.L!r} is too large: L^2 overflows")
        if math.isnan(self.M):
            raise ValueError("class sup-norm bound M must be a number (inf for none)")
        if self.kind == "hoelder" and not 0 < self.alpha <= 1:
            raise ValueError("hoelder exponent must lie in (0, 1]")

    @staticmethod
    def sobolev(beta: float, L: float) -> "ClassSpec":
        return ClassSpec(kind="sobolev", beta=beta, L=L)

    @staticmethod
    def hoelder(alpha: float, L: float, M: float = math.inf) -> "ClassSpec":
        return ClassSpec(kind="hoelder", alpha=alpha, L=L, M=M)


def sample_ellipsoid(spec: ClassSpec, K: int, seed: int) -> FourierFunction:
    """Random class member with K frequencies, deterministic in the seed.

    Magnitudes decay like (1+|k|)^(-s - 1/2 - 0.1) where s is beta (or
    alpha), phases are uniform, and the result is rescaled: for a Sobolev
    class to squared norm 0.95 L^2, so its norm is sqrt(0.95) L, about
    0.975 L; for a Hoelder class to 95% of a certified upper bound, so at
    or inside 95% of the radius.
    """
    smooth = spec.beta if spec.kind == "sobolev" else spec.alpha
    gen = rng.stream(seed, "ellipsoid", spec.kind, smooth, spec.L, K)
    decay = (1.0 + np.arange(1, K + 1)) ** (-smooth - 0.5 - _ELLIPSOID_DECAY_MARGIN)
    magnitudes = gen.uniform(0.0, 1.0, size=K) * decay
    phases = gen.uniform(0.0, 2.0 * np.pi, size=K)
    theta0 = gen.uniform(-1.0, 1.0)
    positive = magnitudes * np.exp(1j * phases)
    theta = np.concatenate([np.conj(positive[::-1]), [complex(theta0, 0.0)], positive])
    fn = FourierFunction(K, theta, f"ellipsoid-{spec.kind}-{seed}")
    if spec.kind == "sobolev":
        current = fn.sobolev_norm_sq(spec.beta)
        target = 0.95 * spec.L**2
        return fn.scaled(math.sqrt(target / current), name=fn.name)
    return scale_into_hoelder_ball(fn, spec)


def scale_into_hoelder_ball(fn: FourierFunction, spec: ClassSpec) -> FourierFunction:
    """Rescale fn to 95% of the Hoelder constant L, capped at 95% of the
    sup-norm bound M when M is finite, by certified upper bounds.

    For 0 < alpha <= 1, |e_k(x) - e_k(y)| <= min(2, 2 pi |k| |x - y|)
    <= 2^(1-alpha) (2 pi |k|)^alpha |x - y|^alpha, so the Hoelder constant
    is at most sum_k |theta_k| 2^(1-alpha) (2 pi |k|)^alpha and the sup
    norm at most sum_k |theta_k|. A constant function has constant 0, so
    L does not bind and only the M cap can scale it.
    """
    if spec.kind != "hoelder":
        raise ValueError("scale_into_hoelder_ball needs a hoelder ClassSpec")
    magnitudes = np.abs(fn.theta)
    constant = 2.0 ** (1.0 - spec.alpha) * float(
        np.sum(magnitudes * (2.0 * np.pi * np.abs(fn.ks)) ** spec.alpha))
    scale = 0.95 * spec.L / constant if constant > 0 else 1.0
    sup_norm = float(np.sum(magnitudes))
    if math.isfinite(spec.M) and sup_norm > 0:
        scale = min(scale, 0.95 * spec.M / sup_norm)
    return fn.scaled(scale, name=fn.name)


def function_from_spec(spec: Mapping | str) -> FourierFunction:
    """Build a function from its spec {"name": ..., "coeffs": [[k, re, im], ...]},
    given as a dict, JSON text or the path of a JSON file, Hermitian-completed.

    Text that is not JSON and does not start with '{' is a file path, so a
    missing file (the empty path included) raises OSError naming it. A
    JSON value that is not an object raises ValueError, and so does each
    key at fault: any key but 'name' and 'coeffs', a name that is not
    text or holds a line break (any break str.splitlines splits on), and a
    missing or malformed 'coeffs', including a k, re or im that is not a
    number (text and booleans are not; an integral float such as 1e0 is an
    integer k), a k that is not an integer or is given twice, a |k| above
    MAX_FREQUENCY and a part that is not finite or, as an integer, lies
    past the float range.
    """
    from .kernels import read_spec  # here, so that only reading a spec loads kernels

    spec = read_spec(spec, "function")
    unread = ", ".join(repr(key) for key in spec if key not in ("name", "coeffs"))
    if unread:
        raise ValueError(f"function spec does not read {unread}; it reads 'name' and 'coeffs'")
    name = spec.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"function spec key 'name' needs text, got {name!r}")
    if "".join(name.splitlines()) != name:
        raise ValueError(f"function spec key 'name' must be one line, got {name!r}")
    coeffs = {}
    try:
        for k, re_part, im_part in spec["coeffs"]:
            triple = [k, re_part, im_part]
            if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in triple):
                raise ValueError(f"{triple!r} needs numbers, not text or booleans")
            index, value = float(k), complex(float(re_part), float(im_part))
            if not (index.is_integer() and cmath.isfinite(value)):
                raise ValueError(f"{triple!r} needs an integral k and finite parts")
            if int(index) in coeffs:
                raise ValueError(f"{triple!r} gives k = {int(index)} a second time")
            coeffs[int(index)] = value
        return FourierFunction.from_coeffs(coeffs, name=name)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(
            f"function spec key 'coeffs' needs [k, re, im] number triples ({exc!r})") from exc
