"""Tests for the two-point decision problem and its verification report."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gmequiv.counterexample import (
    MC_PREMISE,
    DecisionProblem,
    _streamed_actions,
    build_fn,
    endpoint_increment,
    indistinguishability_check,
)
from gmequiv.errors import GridMissingEndpoints
from gmequiv.fourier import FourierFunction
from gmequiv.kernels import preset
from gmequiv.samples import BLOCK_ELEMENTS, PathSample, path_grid
from gmequiv.sampling import endpoint_blocks


class TestSpikeFunction:
    def test_vanishes_at_every_knot(self):
        for n in (2, 4, 8, 32):
            f = build_fn(n, beta=1.0, L=1.0)
            grid = np.arange(n + 1) / n
            assert np.max(np.abs(np.asarray(f(grid)))) <= 1e-12, n

    def test_integral_value(self):
        f = build_fn(8, beta=1.0, L=1.0)
        assert math.isclose(f.integral(), math.sqrt(2.0 / 3.0) / 8.0, rel_tol=1e-15)

    def test_inside_the_ball(self):
        """c is capped where c^2 (1 + (1+n)^{2 beta}/2) would exceed L^2, as
        at n = 2, beta = 1.5 (norm^2 1.208 uncapped)."""
        for n in range(2, 33):
            for beta in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
                for L in (0.5, 1.0, 2.0):
                    norm_sq = build_fn(n, beta, L).sobolev_norm_sq(beta)
                    assert norm_sq <= L * L + 1e-15, (n, beta, L, norm_sq)

    def test_cap_never_binds_at_beta_one(self):
        for n in range(2, 65):
            c = build_fn(n, 1.0, 1.0).integral()
            assert c == math.sqrt(2.0 / 3.0) * 1.0 * float(n) ** -1.0, n

    def test_no_beta_overflows_the_cap(self):
        """A large beta underflows c to 0; a very negative one leaves it at
        the cap, just inside L, where n^-beta would overflow."""
        assert build_fn(2, 1000.0, 1.0).integral() == 0.0
        for beta in (-500.0, -1e300):
            f = build_fn(4, beta, 1.0)
            assert 0.99 < f.integral() < 1.0
            assert f.sobolev_norm_sq(beta) <= 1.0

    def test_norm_closed_form(self):
        # amplitude c at k=0 and -c/2 at +-n gives c^2 (1 + (1+n)^{2b}/2)
        n, beta = 8, 1.0
        f = build_fn(n, beta, 1.0)
        c = math.sqrt(2.0 / 3.0) / 8.0
        expected = c * c * (1.0 + 81.0 / 2.0)
        assert math.isclose(f.sobolev_norm_sq(beta), expected, rel_tol=1e-12)

    def test_needs_room_for_the_spike(self):
        """A one-point design leaves no room, and a radius that is not
        positive and finite leaves no ball to put it in."""
        with pytest.raises(ValueError, match="at least 2"):
            build_fn(1, beta=1.0, L=1.0)
        for L in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="class radius"):
                build_fn(4, beta=1.0, L=L)

    def test_factor_placement_matters(self):
        """The superficially similar coefficients c and -c/4 at +-n (from
        writing the function as c times (1 - cos/2)) do NOT vanish at the
        knots; they leave c/2 behind. Guards the coefficient bookkeeping."""
        n, c = 8, 1.0
        wrong = FourierFunction.from_coeffs({0: c, n: -c / 4, -n: -c / 4})
        knots = np.arange(1, n + 1) / n
        assert np.min(np.abs(np.asarray(wrong(knots)))) > 0.49


class TestEndpointIncrement:
    def test_reads_the_increment(self):
        grid = np.linspace(0.0, 1.0, 5)
        values = np.array([0.0, 0.3, -0.2, 0.1, 0.7])
        path = PathSample(grid=grid, values=values, kernel_id="bm",
                          function_id="f", seed=0, scale=1.0)
        assert endpoint_increment(path) == 0.7

    def test_needs_both_endpoints(self):
        grid = np.linspace(0.0, 0.95, 5)
        path = PathSample(grid=grid, values=np.zeros(5), kernel_id="bm",
                          function_id="f", seed=0, scale=1.0)
        with pytest.raises(GridMissingEndpoints):
            endpoint_increment(path)


class TestDecisionProblem:
    def test_loss_and_risk(self):
        problem = DecisionProblem(tolerance=0.01)
        spike = build_fn(4, 1.0, 1.0)
        target = problem.target(spike)
        assert problem.loss(spike, target) == 0.0
        assert problem.loss(spike, target + 0.02) == 1.0
        actions = np.array([target, target + 0.02, target - 0.005])
        assert problem.misses(spike, actions) == 1

    def test_nan_action_is_a_miss_for_both_rules(self):
        problem = DecisionProblem(tolerance=0.01)
        spike = build_fn(4, 1.0, 1.0)
        target = problem.target(spike)
        assert problem.loss(spike, float("nan")) == 1.0
        assert problem.misses(spike, np.array([np.nan])) == 1
        assert problem.misses(spike, np.array([target, np.nan, target + 0.02])) == 2


class TestIndistinguishabilityCheck:
    def test_all_premises_hold(self):
        report = indistinguishability_check(8, mc_paths=20_000)
        assert report.passed
        names = [p.name for p in report.premises]
        assert names == [
            "spike_vanishes_on_grid",
            "spike_inside_class",
            "integrals_differ",
            "discrete_laws_coincide",
            "pinned_path_recovers_integral",
            "unpinned_statistic_stays_noisy",
        ]
        assert report.delta_lower_bound == 0.25

    def test_report_serialization(self):
        report = indistinguishability_check(4, mc_paths=5_000)
        payload = report.to_dict()
        assert payload["n"] == 4
        assert payload["verdict"] == "premises verified"
        assert len(payload["premises"]) == 6
        assert payload["delta_lower_bound"] == 0.25
        text = "\n".join(report.lines())
        assert "deficiency lower bound 0.25" in text

    def test_bound_rests_on_every_premise_but_the_monte_carlo(self):
        report = indistinguishability_check(4, mc_paths=2_000)

        def failing(name):
            return replace(report, premises=tuple(
                replace(p, passed=p.name != name) for p in report.premises))

        noisy = failing(MC_PREMISE)
        assert not noisy.passed and noisy.failed_bound_premises == []
        assert noisy.lines()[-1] == "  => deficiency lower bound 0.25"
        assert noisy.to_dict()["delta_lower_bound"] == 0.25
        recovery = failing("pinned_path_recovers_integral")
        assert recovery.failed_bound_premises == ["pinned_path_recovers_integral"]
        assert recovery.lines()[-1] == (
            "  => no deficiency bound: premise failed: pinned_path_recovers_integral")
        assert recovery.to_dict()["delta_lower_bound"] is None

    def test_deterministic(self):
        a = indistinguishability_check(4, mc_paths=2_000)
        b = indistinguishability_check(4, mc_paths=2_000)
        assert a.mc_variance == b.mc_variance


class TestStreamedPremise:
    """The Monte Carlo premise streams its endpoints block by block; these
    compare it with the statistics of all endpoints held at once."""

    @staticmethod
    def _actions(n, mc_paths, seed):
        """F(1) + e / sqrt(n) over the premise's endpoints, as one array."""
        stream = endpoint_blocks(preset("bm"), path_grid(n, n + 1), mc_paths, seed,
                                 label="endpoint-mc")
        endpoints = np.concatenate(list(stream))
        return build_fn(n, 1.0, 1.0).antiderivative(1.0) + endpoints / math.sqrt(n)

    @pytest.mark.parametrize("mc_paths", [50_000, 2], ids=["four-blocks", "two-paths"])
    def test_variance_matches_all_endpoints_at_once(self, mc_paths):
        n = 4
        assert mc_paths % (BLOCK_ELEMENTS // n) != 0
        report = indistinguishability_check(n, seed=3, mc_paths=mc_paths)
        one_shot = float(np.var(self._actions(n, mc_paths, 3), ddof=1))
        assert math.isclose(report.mc_variance, one_shot, rel_tol=1e-14, abs_tol=0.0)

    @pytest.mark.parametrize("mc_paths", [50_000, 2], ids=["four-blocks", "two-paths"])
    def test_plugin_risk_is_the_exact_miss_count(self, mc_paths):
        """A tolerance that some actions meet and others miss; the streamed
        count over N is the plug-in risk of all actions, bit for bit."""
        n, spike = 4, build_fn(4, 1.0, 1.0)
        actions = self._actions(n, mc_paths, 5)
        problem = DecisionProblem(tolerance=float(np.median(np.abs(actions - spike.integral()))))
        risk = float(np.mean(np.abs(actions - spike.integral()) > problem.tolerance))
        stream = endpoint_blocks(preset("bm"), path_grid(n, n + 1), mc_paths, 5,
                                 label="endpoint-mc")
        misses, variance = _streamed_actions(problem, spike, n, stream)
        assert 0 < misses < mc_paths
        assert misses / mc_paths == risk
        assert math.isclose(variance, float(np.var(actions, ddof=1)), rel_tol=1e-14)

    def test_one_block_is_np_var_bit_for_bit(self):
        """The merge starts from empty moments without rounding, and any
        partition of the same endpoints moves only the last bits."""
        n, spike = 8, build_fn(8, 1.0, 1.0)
        problem = DecisionProblem()
        endpoints = np.random.default_rng(0).standard_normal(1_000)
        whole = _streamed_actions(problem, spike, n, iter([endpoints.copy()]))
        actions = spike.antiderivative(1.0) + endpoints / math.sqrt(n)
        assert whole == (1_000, float(np.var(actions, ddof=1)))
        for cuts in ([1], [999], [3, 500, 501, 997]):
            parts = np.split(endpoints.copy(), cuts)
            misses, variance = _streamed_actions(problem, spike, n, iter(parts))
            assert misses == 1_000
            assert math.isclose(variance, whole[1], rel_tol=1e-14, abs_tol=0.0)
