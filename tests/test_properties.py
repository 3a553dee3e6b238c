"""Seeded property tests: the derived clock, the two KL routes, and the
two Fourier-sum routes, each on generated inputs."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from gmequiv import fourier
from gmequiv.diagnostics import kl_dense, kl_sequential
from gmequiv.fourier import ClassSpec, FourierFunction, sample_ellipsoid
from gmequiv.kernels import make_kernel, preset

TS = np.linspace(0.0, 1.0, 101)


def _central_difference(fn, t, h=1e-6):
    return (np.asarray(fn(t + h)) - np.asarray(fn(t - h))) / (2.0 * h)


def _check_derived_clock(kernel, qp_rtol):
    np.testing.assert_allclose(np.asarray(kernel.q(TS)) * np.asarray(kernel.v(TS)),
                               kernel.u(TS), rtol=1e-15, atol=0.0)
    inner = TS[1:-1]
    np.testing.assert_allclose(kernel.q_prime(inner),
                               _central_difference(kernel.q, inner), rtol=qp_rtol)
    assert kernel.horizon == float(kernel.q(1.0))


@given(st.floats(0.05, 3.0))
def test_ou_clock_is_derived_from_the_factor_pair(L):
    _check_derived_clock(preset("ou", L), qp_rtol=1e-7)


@given(st.floats(1.05, 5.0))
def test_slepian_like_clock_is_derived_from_the_factor_pair(a):
    _check_derived_clock(make_kernel("slepian-like", "t", f"{a!r} - t"), qp_rtol=1e-6)


@given(
    kernel=st.sampled_from([preset("bm"), preset("ou", 0.5), preset("ou", 2.0),
                            preset("slepian")]),
    beta=st.floats(0.6, 2.0),
    seed=st.integers(0, 10**6),
    n=st.integers(2, 24),
)
def test_kl_sequential_equals_dense(kernel, beta, seed, n):
    f = sample_ellipsoid(ClassSpec.sobolev(beta, 1.0), K=2 * n, seed=seed)
    seq, dense = kl_sequential(kernel, f, n), kl_dense(kernel, f, n)
    assert math.isclose(seq, dense, rel_tol=1e-9, abs_tol=1e-15), (seq, dense)


@given(
    K=st.integers(0, 80),
    seed=st.integers(0, 10**6),
    m=st.integers(1, 200),
    j0=st.integers(-300, 300),
    extra=st.integers(-1, 40),
    columns=st.integers(1, 5),
)
def test_fft_grid_route_equals_dense_route(K, seed, m, j0, extra, columns):
    """Exact grids, then columns at fractional offsets with one column
    perturbed beyond the progression tolerance, against the dense sum."""
    gen = np.random.default_rng(seed)
    coeffs = {k: complex(*gen.normal(size=2)) for k in range(1, K + 1)}
    coeffs[0] = float(gen.normal())
    fn = FourierFunction.from_coeffs(coeffs)
    scale = max(float(np.sum(np.abs(fn.theta))), 1.0)
    t = (j0 + np.arange(max(m + extra, 2))) / m
    m_found, _, frac = fourier._progressions(t[:, None])
    assert (m_found[0], frac[0]) == (m, 0.0)
    dense = fourier._dense_sum(t, fn.ks, fn.theta).real
    np.testing.assert_allclose(fn(t), dense, rtol=0.0, atol=1e-12 * scale)

    rows = max(m, 2)
    offsets = (j0 % m) + gen.uniform(-0.5, 0.5, size=columns)
    t = (offsets[None, :] + np.arange(rows)[:, None]) / m
    t[gen.integers(rows), -1] += 4 * fourier._PROGRESSION_TOL
    assert fourier._progressions(t)[0].tolist() == [m] * (columns - 1) + [0]
    dense = fourier._dense_sum(t.ravel(), fn.ks, fn.theta).real.reshape(t.shape)
    # an FFT column is evaluated at its progression, which can sit up to
    # _PROGRESSION_TOL from the given points, where |f'| <= 2 pi K scale
    moved = 2 * np.pi * K * fourier._PROGRESSION_TOL * scale
    np.testing.assert_allclose(fn(t), dense, rtol=0.0, atol=1e-12 * scale + moved)
