"""Seeded property tests: the derived clock, the two KL routes, the two
Fourier-sum routes, Hermitian completion, Kriging through the knots, the
discrete -> path -> discrete round trip and, on kernels drawn valid by
construction, the KL routes, the RKHS Pythagoras identity and the kernel
bracket of the discretization statistic, each on generated inputs."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gmequiv import diagnostics, fourier
from gmequiv.diagnostics import kl_dense, kl_sequential
from gmequiv.experiments import path_from_discrete, reconstruct_discrete_from_path
from gmequiv.fourier import ClassSpec, FourierFunction, sample_ellipsoid
from gmequiv.kernels import design_clock, make_kernel, preset, validate_assumption
from gmequiv.rkhs import kriging_interpolate, projection_distance, rkhs_norm
from gmequiv.samples import DiscreteSample, knot_stride, path_grid
from gmequiv.sampling import sample_paths

TS = np.linspace(0.0, 1.0, 101)


def _central_difference(fn, t, h=1e-6):
    return (np.asarray(fn(t + h)) - np.asarray(fn(t - h))) / (2.0 * h)


def _check_derived_clock(kernel, qp_rtol):
    u, v, q = kernel.clock(TS)
    np.testing.assert_allclose(q * v, u, rtol=1e-15, atol=0.0)
    inner = TS[1:-1]
    np.testing.assert_allclose(kernel.clock_rate(inner)[4],
                               _central_difference(lambda t: kernel.clock(t)[2], inner),
                               rtol=qp_rtol)
    assert kernel.horizon == float(q[-1])


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
    """Exact grids, then columns at fractional offsets that share j0, as
    given and with one column perturbed beyond the progression tolerance,
    against the dense sum."""
    gen = np.random.default_rng(seed)
    coeffs = {k: complex(*gen.normal(size=2)) for k in range(1, K + 1)}
    coeffs[0] = float(gen.normal())
    fn = FourierFunction.from_coeffs(coeffs)
    scale = max(float(np.sum(np.abs(fn.theta))), 1.0)
    t = (j0 + np.arange(max(m + extra, 2))) / m
    m_found, j0_found, frac = fourier._progression(t[:, None])
    assert (m_found, j0_found, frac.tolist()) == (m, j0, [0.0])
    # e_k has period 1 and t - floor(t) is exact, so the reference does not
    # lose eps * 2 pi K |t| to a phase taken at |t| in the hundreds
    dense = fourier._dense_sum(t - np.floor(t), fn.ks, fn.theta).real
    np.testing.assert_allclose(fn(t), dense, rtol=0.0, atol=1e-12 * scale)

    rows = max(m, 2)
    fracs = gen.uniform(0.0, 1.0, size=columns)
    t = ((j0 % m) + fracs[None, :] + np.arange(rows)[:, None]) / m
    m_found, j0_found, frac = fourier._progression(t)
    assert (m_found, j0_found) == (m, j0 % m)
    np.testing.assert_allclose(frac, fracs, rtol=0.0, atol=1e-12)
    # an FFT column is evaluated at its progression, which can sit up to
    # _PROGRESSION_TOL from the given points, where |f'| <= 2 pi K scale
    moved = 2 * np.pi * K * fourier._PROGRESSION_TOL * scale
    for perturb in (False, True):
        if perturb:
            t[gen.integers(rows), -1] += 4 * fourier._PROGRESSION_TOL
            assert fourier._progression(t)[0] == 0
        dense = fourier._dense_sum(t.ravel(), fn.ks, fn.theta).real.reshape(t.shape)
        np.testing.assert_allclose(fn(t), dense, rtol=0.0, atol=1e-12 * scale + moved)


@given(K=st.integers(0, 40), seed=st.integers(0, 10**6), size=st.integers(0, 12))
def test_hermitian_completion_gives_real_values(K, seed, size):
    """A one-sided map {k: theta_k}, k in 0..K with a real theta_0, becomes
    an exactly Hermitian theta whose evaluation never raises."""
    gen = np.random.default_rng(seed)
    ks = gen.choice(K + 1, size=min(size, K + 1), replace=False)
    coeffs = {int(k): complex(gen.normal(), gen.normal() if k else 0.0) for k in ks}
    fn = FourierFunction.from_coeffs(coeffs)
    np.testing.assert_array_equal(fn.theta, np.conj(fn.theta[::-1]))
    for k, value in coeffs.items():
        assert fn.coeff(k) == value and fn.coeff(-k) == value.conjugate()
    t = np.concatenate([path_grid(8), gen.uniform(-2.0, 2.0, size=7)])
    assert np.all(np.isfinite(fn(t))) and np.all(np.isfinite(fn.antiderivative(t)))


# kernels that Kriging accepts: v(1) != 0, so not the pinned bridge
KRIGING_KERNELS = st.one_of(st.just(preset("bm")),
                            st.floats(0.05, 3.0).map(lambda L: preset("ou", L)),
                            st.just(preset("slepian")))


def _knot_data(seed, n, log_scale):
    """n values of size 10**log_scale, and that scale."""
    scale = 10.0 ** log_scale
    return scale * np.random.default_rng(seed).normal(size=n), scale


@given(kernel=KRIGING_KERNELS, n=st.integers(1, 64), density=st.integers(1, 24),
       seed=st.integers(0, 10**6), log_scale=st.floats(-3.0, 3.0))
def test_kriging_hits_the_knots(kernel, n, density, seed, log_scale):
    """Through given knot data, and through the knot values of a drawn
    path, which the residual process then leaves at zero."""
    y, scale = _knot_data(seed, n, log_scale)
    grid = path_grid(n, density * n + 1)
    stride = knot_stride(n, grid.size)
    fit = kriging_interpolate(kernel, y, grid)
    assert fit[0] == 0.0
    np.testing.assert_allclose(fit[stride::stride], y, rtol=0.0, atol=1e-12 * scale)
    path = sample_paths(kernel, grid, 1, seed)[0]
    residual = path - kriging_interpolate(kernel, path[stride::stride], grid)
    np.testing.assert_allclose(residual[::stride], 0.0, rtol=0.0, atol=1e-12)


@given(kernel=KRIGING_KERNELS, n=st.integers(1, 64), density=st.integers(1, 24),
       seed=st.integers(0, 10**6), residual_seed=st.integers(0, 10**6),
       log_scale=st.floats(-3.0, 3.0))
def test_discrete_path_discrete_round_trip_is_the_identity(kernel, n, density, seed,
                                                            residual_seed, log_scale):
    values, scale = _knot_data(seed, n, log_scale)
    sample = DiscreteSample(n=n, values=values, variant="cell_averaged",
                            kernel_id=kernel.name, function_id="knot-data", seed=seed)
    path = path_from_discrete(kernel, sample, residual_seed, grid_size=density * n + 1)
    back = reconstruct_discrete_from_path(path, n)
    np.testing.assert_allclose(back.values, values, rtol=0.0, atol=1e-10 * scale)


# (name, u, v) of kernels written as expressions in the gauge (c u, v / c)
GAUGED = (("bm", "{c}*t", "1/{c}"), ("slepian", "{c}*t", "(2 - t)/{c}"),
          ("ou", "{c}*(exp(t) - exp(-t))", "exp(-t)/{c}"), ("lab", "{c}*t", "(2 - t)/{c}"))


def _gauge_readings(name, u, v, c, f, n):
    """Every statistic, Kriging, one seeded draw and the validate verdicts
    of the kernel (c u, v / c), named name whatever c, so the draw reads
    one stream. The transformation statistic is left out: it measures the
    decoupled process X / v, whose drift scales by c and clock rate by c^2."""
    kernel = make_kernel(name, u.format(c=repr(c)), v.format(c=repr(c)))
    grid = path_grid(n, 4 * n + 1)
    values = [stat(kernel, f, n) for stat_name, stat in diagnostics.STATISTICS.items()
              if stat_name != "transformation"]
    values += [kl_dense(kernel, f, n), kl_sequential(kernel, f, n)]
    arrays = [kriging_interpolate(kernel, f.antiderivative(path_grid(n, n + 1)[1:]), grid),
              sample_paths(kernel, grid, 1, seed=7)[0]]
    verdicts = [check.passed for check in validate_assumption(kernel).checks]
    return values, arrays, verdicts


@given(log_c=st.floats(-8.0, 8.0), kernel=st.sampled_from(GAUGED), n=st.integers(2, 16),
       seed=st.integers(0, 10**6))
def test_every_reading_is_gauge_invariant(log_c, kernel, n, seed):
    """(c u, v / c) has the covariance of (u, v), so every number agrees
    with c = 1 to 1e-9 relative, and every verdict is the same."""
    f = sample_ellipsoid(ClassSpec.sobolev(1.0, 1.0), K=2 * n, seed=seed)
    values, arrays, verdicts = _gauge_readings(*kernel, 10.0 ** log_c, f, n)
    ref_values, ref_arrays, ref_verdicts = _gauge_readings(*kernel, 1.0, f, n)
    np.testing.assert_allclose(values, ref_values, rtol=1e-9, atol=0.0)
    for got, want in zip(arrays, ref_arrays):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * np.max(np.abs(want)))
    assert verdicts == ref_verdicts


@st.composite
def valid_kernels(draw):
    """u = q v and v as expression text: the clock q = t + a t^2 + b t^3
    with a, b >= 0 has q(0) = 0 and q' > 0, and v = exp(c sin(w t) + d t)
    is positive, so every drawn kernel is valid by construction."""
    a, b = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))
    c, d, w = draw(st.floats(-0.8, 0.8)), draw(st.floats(-1.0, 1.0)), draw(st.floats(0.5, 6.0))
    v = f"exp({c!r}*sin({w!r}*t) + {d!r}*t)"
    return make_kernel("drawn", f"(t + {a!r}*t^2 + {b!r}*t^3)*{v}", v)


DRAWN = dict(kernel=valid_kernels(), beta=st.floats(0.6, 2.0), seed=st.integers(0, 10**6),
             n=st.integers(1, 24))


@settings(max_examples=25)
@given(**DRAWN)
def test_kl_routes_agree_on_drawn_kernels(kernel, beta, seed, n):
    f = sample_ellipsoid(ClassSpec.sobolev(beta, 1.0), K=2 * n, seed=seed)
    seq, dense = kl_sequential(kernel, f, n), kl_dense(kernel, f, n)
    assert math.isclose(seq, dense, rel_tol=1e-9, abs_tol=1e-15), (seq, dense)


@settings(max_examples=25)
@given(**DRAWN)
def test_norm_splits_into_span_and_residual_on_drawn_kernels(kernel, beta, seed, n):
    """||F_f||_H^2 = S_n + D_n, S_n = sum_j (Delta_j(F_f / v))^2 / Delta_j q,
    to the expression-kernel tolerance of the fixed-kernel test."""
    f = sample_ellipsoid(ClassSpec.sobolev(beta, 1.0), K=2 * n, seed=seed)
    knots = path_grid(n, n + 1)
    _, v, q = kernel.clock(knots)
    span = np.sum(np.diff(np.asarray(f.antiderivative(knots)) / v) ** 2 / np.diff(q))
    assert math.isclose(rkhs_norm(kernel, f) ** 2, span + projection_distance(kernel, f, n),
                        rel_tol=1e-10)


@settings(max_examples=25)
@given(**DRAWN)
def test_discretization_ratio_to_bm_lies_in_the_kernel_bracket(kernel, beta, seed, n):
    """The statistic weighs bm's squared gaps by w_i = 1/(n v_i^2 dq_i), so
    its ratio to bm's is a weighted mean of the w_i."""
    f = sample_ellipsoid(ClassSpec.sobolev(beta, 1.0), K=2 * n, seed=seed)
    v, q = design_clock(kernel, n)
    w = 1.0 / (n * v[1:] ** 2 * np.diff(q))
    ratio = (diagnostics.discretization_statistic(kernel, f, n)
             / diagnostics.discretization_statistic(preset("bm"), f, n))
    assert w.min() * (1.0 - 1e-12) <= ratio <= w.max() * (1.0 + 1e-12), (ratio, w.min(), w.max())
