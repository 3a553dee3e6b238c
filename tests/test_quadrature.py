"""Tests for the Gauss-Legendre engine and its QuadratureFailure contract."""

import numpy as np
import pytest

from gmequiv.errors import QuadratureFailure
from gmequiv.quadrature import REL_TOL, adaptive_integral


def step(x):
    return np.where(np.asarray(x) < 1.0 / 3.0, 1.0, 0.0)


class TestAdaptiveIntegral:
    def test_unresolved_step_raises(self):
        """A jump that never falls on a panel edge cannot settle."""
        with pytest.raises(QuadratureFailure) as info:
            adaptive_integral(step, 0.0, 1.0)
        assert info.value.achieved > REL_TOL

    def test_step_with_its_breakpoint_is_exact(self):
        value = adaptive_integral(step, 0.0, 1.0, breakpoints=(1.0 / 3.0,))
        assert abs(value - 1.0 / 3.0) <= 1e-15

    def test_zero_integrand_settles_on_the_absolute_floor(self):
        value = adaptive_integral(np.zeros_like, 0.0, 1.0)
        assert value == 0.0
