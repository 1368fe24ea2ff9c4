import functools
import operator
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.optimize import brentq

from rareevent import mlsis, sis
from rareevent.distributions import std_normal_log_cdf
from rareevent.errors import DegenerateWeightsError, FailedTemperingError, NonconvergenceError
from rareevent.fem1d import Diffusion1dModel
from rareevent.mcmc import cov_from_log_weights, make_kernel
from rareevent.mlsis import mlsis_estimate
from rareevent.models import LinearLsfModel
from rareevent.sis import (
    EstimatorTrace,
    SampleEnsemble,
    final_correction,
    sis_estimate,
    solve_sigma,
    stopping_cov,
    tempering_log_weights,
    tempering_step,
)
from rareevent.subset import mlsus_estimate, sus_estimate

from helper_models import ConstantModel


def _walk_from_sigma_max(g, delta_target):
    """First-step solve as a plain sqrt(2)-walk down from SIGMA_MAX, then Brent.

    Returns (sigma, hit_boundary).
    """
    def excess(x):
        return cov_from_log_weights(std_normal_log_cdf(-g / np.exp(x))) - delta_target

    log_lo, log_hi = np.log(sis.SIGMA_MIN), np.log(sis.SIGMA_MAX)
    step = 0.5 * np.log(2.0)
    x_above, x = None, log_hi
    while excess(x) < 0:
        if x == log_lo:
            return sis.SIGMA_MIN, True
        x_above, x = x, max(x - step, log_lo)
    if x_above is not None:
        x = brentq(excess, x, x_above, xtol=1e-10)
    span = log_hi - log_lo
    return float(np.exp(x)), (x - log_lo < 1e-3 * span) or (log_hi - x < 1e-3 * span)


class TestSolveSigma:
    def test_constant_values_hit_lower_boundary(self):
        sigma, delta, boundary, _ = solve_sigma(np.full(10, 0.3), np.inf, 0.25)
        assert sigma == pytest.approx(1e-8)
        assert delta == 0.0
        assert boundary

    def test_boundary_cov_is_that_of_the_returned_weights(self):
        # the COV stays below the target down to the walk's last point, where
        # the two values still give the weights a nonzero COV
        g = np.array([0.3, np.nextafter(0.3, 1.0)] * 5)
        sigma, delta, boundary, log_w = solve_sigma(g, np.inf, 0.25)
        assert boundary
        assert sigma == np.exp(np.log(sis.SIGMA_MIN))
        assert delta == cov_from_log_weights(log_w)
        assert np.array_equal(log_w, tempering_log_weights(g, sigma, np.inf))

    def test_two_point_closed_form(self):
        # delta(sigma) = |2 Phi(1/sigma) - 1|; target 0.5 inverts to
        # sigma = 1 / Phi^-1(0.75)
        g = np.array([-1.0, 1.0])
        sigma, delta, boundary, _ = solve_sigma(g, np.inf, 0.5)
        oracle = 1.0 / stats.norm.ppf(0.75)
        assert sigma == pytest.approx(oracle, rel=1e-3)
        assert delta == pytest.approx(0.5, abs=1e-3)
        assert not boundary

    def test_unreachable_target_returns_lower_boundary(self):
        # tied minima bound the COV: weights tend to {1,1,0}, COV -> sqrt(1/2),
        # so a target of 2 is unreachable for any sigma
        g = np.array([1.0, 1.0, 2.0])
        sigma, delta, boundary, _ = solve_sigma(g, np.inf, 2.0)
        assert sigma == pytest.approx(1e-8)
        assert boundary
        # oracle: COV on a sigma grid never reaches the target
        from rareevent.mcmc import cov_from_log_weights
        from rareevent.sis import tempering_log_weights

        grid = np.logspace(-8, 8, 200)
        covs = [cov_from_log_weights(tempering_log_weights(g, s, np.inf)) for s in grid]
        assert max(covs) < 2.0
        assert delta == pytest.approx(np.sqrt(0.5), rel=1e-6)

    def test_schedule_strictly_decreases(self):
        g = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        sigma1, _, _, _ = solve_sigma(g, np.inf, 0.4)
        sigma2, _, _, _ = solve_sigma(g, sigma1, 0.4)
        assert sigma2 < sigma1

    @pytest.mark.parametrize("g, sigma_prev", [
        (np.random.default_rng(31).normal(1.5, 1.0, size=200), np.inf),
        (np.random.default_rng(31).normal(1.5, 1.0, size=200), 0.8),
        (np.full(10, 0.3), np.inf),         # COV stays 0: boundary value SIGMA_MIN
    ])
    def test_returns_the_log_weights_at_its_root(self, g, sigma_prev):
        sigma, _, _, log_w = solve_sigma(g, sigma_prev, 0.5)
        assert np.array_equal(log_w, tempering_log_weights(g, sigma, sigma_prev))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_sigma(np.array([np.nan]), np.inf, 0.2)
        with pytest.raises(ValueError):
            solve_sigma(np.array([1.0]), -1.0, 0.2)

    @given(
        seed=st.integers(0, 10_000),
        sigma_prev=st.sampled_from([np.inf, 5.0, 0.8]),
        target=st.sampled_from([0.25, 0.5, 1.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_contract_on_random_ensembles(self, seed, sigma_prev, target):
        g = np.random.default_rng(seed).normal(1.5, 1.0, size=200)
        sigma, delta, boundary, _ = solve_sigma(g, sigma_prev, target)
        assert 1e-8 <= sigma <= 1e8
        if np.isfinite(sigma_prev):
            assert sigma < sigma_prev
        if not boundary:
            assert delta == pytest.approx(target, rel=0.2)


    @pytest.mark.parametrize("mean, std", [(1.5, 1.0), (3.5, 1.0), (0.05, 0.01), (300.0, 50.0)])
    @pytest.mark.parametrize("target", [0.25, 0.5, 1.0])
    def test_first_walk_starts_near_the_root(self, monkeypatch, mean, std, target):
        g = np.random.default_rng([29, int(mean)]).normal(mean, std, size=2000)
        calls = []

        def counting(log_weights):
            calls.append(1)
            return cov_from_log_weights(log_weights)

        monkeypatch.setattr(sis, "cov_from_log_weights", counting)
        sigma, _, boundary, _ = solve_sigma(g, np.inf, target)
        assert len(calls) <= 25
        ref_sigma, ref_boundary = _walk_from_sigma_max(g, target)
        assert sigma == pytest.approx(ref_sigma, rel=1e-8)
        assert boundary == ref_boundary

    @pytest.mark.parametrize("mean, std, target", [
        (10.0, 0.1, 0.5), (10.0, 0.1, 2.0), (10.0, 0.1, 0.1),
        (300.0, 50.0, 2.0), (0.05, 0.01, 2.0),
    ])
    def test_first_walk_steps_up_when_the_start_is_below_the_root(
            self, monkeypatch, mean, std, target):
        # mean(g) >> std(g) or a large target puts the root above the
        # std-based start; walking down from SIGMA_MAX took 51-76 evaluations
        g = np.random.default_rng(3).normal(mean, std, size=2000)
        calls = []

        def counting(log_weights):
            calls.append(1)
            return cov_from_log_weights(log_weights)

        monkeypatch.setattr(sis, "cov_from_log_weights", counting)
        sigma, _, boundary, _ = solve_sigma(g, np.inf, target)
        assert len(calls) <= 20
        ref_sigma, ref_boundary = _walk_from_sigma_max(g, target)
        # both Brent roots lie within xtol = 1e-10 of the crossing in log sigma
        assert abs(np.log(sigma) - np.log(ref_sigma)) <= 2e-10
        assert boundary == ref_boundary

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("sigma_prev", [np.inf, 5.0, 0.8])
    @pytest.mark.parametrize("target", [0.25, 0.5, 1.0])
    def test_realized_cov_is_the_root(self, seed, sigma_prev, target):
        g = np.random.default_rng([23, seed]).normal(1.5, 1.0, size=200)
        sigma, delta, boundary, _ = solve_sigma(g, sigma_prev, target)
        assert not boundary
        assert delta == pytest.approx(target, rel=1e-8)


class TestStoppingCov:
    def test_deep_failure_gives_zero(self):
        ens = SampleEnsemble(np.zeros((5, 2)), np.full(5, -10.0), 1, sigma=1.0)
        assert stopping_cov(ens) == pytest.approx(0.0, abs=1e-6)

    def test_no_failures_gives_infinity(self):
        ens = SampleEnsemble(np.zeros((5, 2)), np.full(5, 1.0), 1, sigma=1.0)
        assert stopping_cov(ens) == np.inf
        assert final_correction(ens) == 0.0

    def test_half_failures_closed_form(self):
        # weights {1/Phi(1), 0} half and half: COV = sqrt(N/N_fail - 1) = 1
        g = np.array([-1.0, -1.0, 1.0, 1.0]) * 0.7
        ens = SampleEnsemble(np.zeros((4, 2)), g, 1, sigma=0.7)
        assert stopping_cov(ens) == pytest.approx(1.0)


class TestTemperingStep:
    def test_deep_failure_ensemble_ready_to_stop(self, rng):
        model = ConstantModel(-50.0, n=3)
        samples = rng.standard_normal((100, 3))
        ens = SampleEnsemble(samples, model.evaluate_batch(samples, 1), 1)
        trace = EstimatorTrace(model.counter)
        ens = tempering_step(model, ens, trace, 0.25, make_kernel("acs"), 0.5, 0, rng)
        (record,) = trace.steps
        assert record.factor == pytest.approx(1.0, abs=1e-6)
        assert record.delta == pytest.approx(0.0, abs=1e-6)
        assert stopping_cov(ens) <= 0.25

    def test_ensemble_moves_toward_failure(self, rng):
        model = LinearLsfModel(2.0, 10)
        samples = rng.standard_normal((2000, 10))
        ens = SampleEnsemble(samples, model.evaluate_batch(samples, 1), 1)
        before = ens.g.mean()
        trace = EstimatorTrace(model.counter)
        ens = tempering_step(model, ens, trace, 0.25, make_kernel("acs"), 0.1, 0, rng)
        (record,) = trace.steps
        assert 0.0 < record.factor <= 1.0 + 1e-12
        assert ens.g.mean() < before

    def test_c_equal_one_runs_single_step_chains(self, rng):
        model = LinearLsfModel(2.0, 4)
        samples = rng.standard_normal((50, 4))
        ens = SampleEnsemble(samples, model.evaluate_batch(samples, 1), 1)
        counted = model.counter.total()
        trace = EstimatorTrace(model.counter)
        ens = tempering_step(model, ens, trace, 0.3, make_kernel("acs"), 1.0, 0, rng)
        # N seeds, chains of length 1: exactly N further evaluations, charged to the step
        assert model.counter.total() - counted == trace.steps[0].n_evals == 50
        assert ens.size == 50

    def test_realized_cov_near_target_unless_boundary(self, rng):
        model = LinearLsfModel(3.5, 20)
        samples = rng.standard_normal((1000, 20))
        ens = SampleEnsemble(samples, model.evaluate_batch(samples, 1), 1)
        trace = EstimatorTrace(model.counter)
        for _ in range(6):
            ens = tempering_step(model, ens, trace, 0.3, make_kernel("acs"), 0.1, 0, rng)
            record = trace.steps[-1]
            if not record.boundary:
                assert record.delta == pytest.approx(0.3, rel=0.2)

    def test_non_decreasing_bandwidth_raises(self, rng, monkeypatch):
        model = LinearLsfModel(2.0, 4)
        samples = rng.standard_normal((50, 4))
        ens = SampleEnsemble(samples, model.evaluate_batch(samples, 1), 1, sigma=0.5)
        monkeypatch.setattr(sis, "solve_sigma",
                            lambda g, sigma_prev, target: (sigma_prev, target, False, g))
        with pytest.raises(FailedTemperingError):
            tempering_step(model, ens, EstimatorTrace(model.counter), 0.3,
                           make_kernel("acs"), 0.5, 0, rng)

    @pytest.mark.parametrize("log_w", [-800.0, 720.0, -np.inf])
    def test_step_factor_of_zero_or_inf_raises(self, rng, monkeypatch, log_w):
        # exp of such a log S-hat is 0 or inf, so the estimate would read 0, inf or 0 * inf
        model = LinearLsfModel(2.0, 4)
        samples = rng.standard_normal((50, 4))
        ens = SampleEnsemble(samples, model.evaluate_batch(samples, 1), 1)
        monkeypatch.setattr(sis, "solve_sigma", lambda g, sigma_prev, target: (
            1.0, target, False, np.full(g.shape, log_w)))
        counted = model.counter.total()
        with pytest.raises(DegenerateWeightsError, match="step factor"):
            tempering_step(model, ens, EstimatorTrace(model.counter), 0.3,
                           make_kernel("acs"), 0.5, 0, rng)
        assert model.counter.total() == counted      # raised before any chain ran


class TestSisEstimate:
    def test_constant_failure_estimates_one(self, rng):
        p, trace = sis_estimate(ConstantModel(-1.0, n=3), 1, 400, 0.25,
                                make_kernel("acs"), 0.5, rng)
        assert p == pytest.approx(1.0, abs=1e-3)
        assert trace.n_temper == 1

    def test_linear_reference_quick(self):
        exact = special.ndtr(-3.5)
        ests = []
        for rep in range(8):
            p, _ = sis_estimate(LinearLsfModel(3.5, 150), 1, 1000, 0.5,
                                make_kernel("vmfn"), 0.1,
                                np.random.default_rng([311, rep]))
            ests.append(p)
        assert np.mean(ests) == pytest.approx(exact, rel=0.2)

    def test_seed_fraction_variants_agree(self):
        exact = special.ndtr(-3.5)
        for c in (1.0, 0.1):
            ests = []
            for rep in range(6):
                p, _ = sis_estimate(LinearLsfModel(3.5, 50), 1, 1000, 0.5,
                                    make_kernel("vmfn"), c,
                                    np.random.default_rng([313, rep]))
                ests.append(p)
            assert np.mean(ests) == pytest.approx(exact, rel=0.25)

    def test_trace_reconstructs_estimate_exactly(self, rng):
        p, trace = sis_estimate(LinearLsfModel(2.5, 20), 1, 500, 0.5,
                                make_kernel("vmfn"), 0.1, rng)
        factors = [s.factor for s in trace.steps if s.factor is not None]
        rebuilt = functools.reduce(operator.mul, factors, 1.0) * trace.final_correction
        assert rebuilt == p

    def test_nonconvergence_cap(self, monkeypatch, rng):
        monkeypatch.setattr(mlsis, "MAX_STEPS", 3)
        with pytest.raises(NonconvergenceError):
            sis_estimate(LinearLsfModel(3.5, 10), 1, 100, 0.05,
                         make_kernel("acs"), 0.5, rng)

    def test_validates_seed_fraction(self, rng):
        with pytest.raises(ValueError):
            sis_estimate(LinearLsfModel(1.0, 5), 1, 100, 0.25,
                         make_kernel("acs"), 0.3, rng)
        for c in (0.0, 1.5):
            with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
                sis_estimate(LinearLsfModel(1.0, 5), 1, 100, 0.25,
                             make_kernel("acs"), c, rng)

    @pytest.mark.parametrize("delta_target", [0.0, -0.1, np.nan, np.inf])
    def test_cov_target_must_be_positive_and_finite(self, rng, delta_target):
        model = LinearLsfModel(3.5, 10)
        with pytest.raises(ValueError, match="delta_target must be positive"):
            sis_estimate(model, 1, 100, delta_target, make_kernel("vmfn"), 0.1, rng)
        assert model.counter.counts() == {}

    def test_negative_burn_in_rejected(self, rng):
        # before the level-1 draw: no evaluation is spent
        model = LinearLsfModel(3.5, 10)
        with pytest.raises(ValueError, match="burn-in must be nonnegative"):
            sis_estimate(model, 1, 1000, 0.5, make_kernel("vmfn"), 0.1, rng, burn_in=-1)
        assert model.counter.counts() == {}


class PerfectLinearKernel:
    """Exact sampler of the tempered linear-LSF density, via a bivariate
    normal identity: Phi((u1-beta)/sigma) phi(u1) is the joint law of
    (X, V) = (X, X - sigma Y) restricted to V >= beta.
    """

    STATE_INDEPENDENT = False

    def __init__(self, beta):
        self.beta = beta
        self.sigma = None   # the bandwidth of the current step, set by its test

    def prepare(self, *args, **kwargs):
        pass

    def propose(self, current, rng, out):
        m, n = out.shape
        s2 = self.sigma**2
        v = _truncated_normal_lower(self.beta, np.sqrt(1 + s2), m, rng)
        out[:, 0] = v / (1 + s2) + np.sqrt(s2 / (1 + s2)) * rng.standard_normal(m)
        out[:, 1:] = rng.standard_normal((m, n - 1))
        return self.log_score(out)

    def log_score(self, states):
        # exact independence-sampler score for a proposal equal to the
        # target: phi_n / (Phi((u1 - beta)/sigma) phi_n), so alpha = 1
        return -stats.norm.logcdf((states[:, 0] - self.beta) / self.sigma)

    def feedback(self, accepted):
        pass


def _truncated_normal_lower(lower, scale, size, rng):
    # inverse-cdf sampling of N(0, scale^2) conditioned on >= lower
    tail = stats.norm.sf(lower / scale)
    u = rng.uniform(size=size)
    return scale * stats.norm.isf(u * tail)


class TestPerfectSamplerUnbiasedness:
    def test_estimator_unbiased_with_exact_kernel(self, monkeypatch):
        beta = 2.5
        exact = float(stats.norm.sf(beta))
        kernel = PerfectLinearKernel(beta)
        solve = sis.solve_sigma

        def solve_for_kernel(*args):
            # each tempering step's chains sample at the bandwidth it solved for
            out = solve(*args)
            kernel.sigma = out[0]
            return out

        monkeypatch.setattr(sis, "solve_sigma", solve_for_kernel)
        ests = []
        for rep in range(200):
            rng = np.random.default_rng([777, rep])
            p, _ = sis_estimate(LinearLsfModel(beta, 5), 1, 400, 0.5, kernel, 0.5, rng)
            ests.append(p)
        ests = np.array(ests)
        z = (ests.mean() - exact) / (ests.std(ddof=1) / np.sqrt(len(ests)))
        assert abs(z) < 3.0


# estimator call on a three-level model, and the step kinds it may record
SEQUENTIAL_RUNS = {
    "sis": (lambda model, n, rng: sis_estimate(
        model, 3, n, 0.5, make_kernel("vmfn"), 0.1, rng), {"temper"}),
    "mlsis": (lambda model, n, rng: mlsis_estimate(
        model, 3, n, 0.5, make_kernel("vmfn"), 0.1, rng), {"temper", "bridge", "peek"}),
    "sus": (lambda model, n, rng: sus_estimate(
        model, 3, n, 0.1, make_kernel("acs"), 0, rng), {"subset"}),
    "mlsus": (lambda model, n, rng: mlsus_estimate(
        model, 3, n, 0.1, make_kernel("acs"), 0, rng), {"subset", "update"}),
}


@pytest.mark.parametrize("method", sorted(SEQUENTIAL_RUNS))
def test_sequential_estimators_share_one_accounting(method):
    # every estimator runs on run_sequence: the trace's steps rebuild the
    # estimate, and the level-1 draw plus the steps' evaluations are the tally
    estimate, kinds = SEQUENTIAL_RUNS[method]
    n = 200
    model = Diffusion1dModel(max_level=3)
    p, trace = estimate(model, n, np.random.default_rng(7))
    assert trace.product() == p
    total = n + sum(s.n_evals for s in trace.steps)
    assert total == sum(trace.eval_counts.values()) == sum(model.counter.counts().values())
    by_kind = Counter(s.kind for s in trace.steps)
    assert set(by_kind) <= kinds
    assert trace.n_temper == by_kind["temper"] + by_kind["subset"] + by_kind["update"]
    assert trace.n_bridge == by_kind["bridge"] + by_kind["update"]
    # a finished trace holds no counter, so it pickles like plain data
    assert pickle.loads(pickle.dumps(trace)) == trace
