import numpy as np
import pytest
from scipy import stats

from rareevent.errors import NonconvergenceError
from rareevent.fem1d import Diffusion1dModel
from rareevent.mcmc import make_kernel
from rareevent.models import ConstantModel, LinearLsfModel
from rareevent.subset import mlsus_estimate, sus_estimate

from test_mlsis import TwoLevelLinear


class TestSusEstimate:
    def test_frequent_failure_returns_plain_fraction(self, rng):
        p, trace = sus_estimate(ConstantModel(-1.0, n=2), 1, 100, 0.1,
                                make_kernel("acs"), 0, rng)
        assert p == 1.0
        assert trace.n_temper == 1

    def test_linear_reference(self):
        exact = LinearLsfModel(3.5, 1).exact_probability()
        ests = []
        for rep in range(10):
            p, _ = sus_estimate(LinearLsfModel(3.5, 150), 1, 1000, 0.1,
                                make_kernel("acs"), 0, np.random.default_rng([21, rep]))
            ests.append(p)
        assert np.mean(ests) == pytest.approx(exact, rel=0.25)

    def test_trace_product_and_thresholds(self, rng):
        p, trace = sus_estimate(LinearLsfModel(3.0, 10), 1, 500, 0.1,
                                make_kernel("acs"), 0, rng)
        thresholds = [r.threshold for r in trace.steps]
        assert all(b2 < b1 for b1, b2 in zip(thresholds, thresholds[1:]))
        assert thresholds[-1] == 0.0
        # absent ties every intermediate factor equals p0 exactly
        assert all(r.factor == pytest.approx(0.1) for r in trace.steps[:-1])
        rebuilt = 0.1 ** (trace.n_temper - 1) * trace.steps[-1].factor
        assert rebuilt == pytest.approx(p, rel=1e-12)

    def test_stall_detected(self, rng):
        with pytest.raises(NonconvergenceError):
            sus_estimate(ConstantModel(1.0, n=2), 1, 100, 0.1,
                         make_kernel("acs"), 0, rng)

    def test_pinned_run_counts_at_the_pinned_level(self, rng):
        # the records report the single-level view's level; the tally stays
        # at the base model's level
        model = Diffusion1dModel(max_level=3)
        _, trace = sus_estimate(model, 2, 100, 0.1, make_kernel("acs"), 2, rng)
        assert {r.level for r in trace.steps} == {1}
        assert set(trace.eval_counts) == {2}
        assert model.counter.counts() == trace.eval_counts

    def test_parameter_validation(self, rng):
        model = LinearLsfModel(2.0, 4)
        with pytest.raises(ValueError):
            sus_estimate(model, 1, 105, 0.1, make_kernel("acs"), 0, rng)
        with pytest.raises(ValueError):
            sus_estimate(model, 1, 100, 0.15, make_kernel("acs"), 0, rng)

    def test_negative_burn_in_rejected(self, rng):
        with pytest.raises(ValueError, match="burn-in must be nonnegative"):
            sus_estimate(LinearLsfModel(3.5, 10), 1, 1000, 0.1,
                         make_kernel("acs"), -1, rng)


class TestMlsusEstimate:
    def test_level_constant_reduces_to_sus(self, rng):
        model = TwoLevelLinear(betas=(3.0, 3.0))
        p, trace = mlsus_estimate(model, 2, 1000, 0.1, make_kernel("acs"), 0, rng)
        # nested domains: every reverse conditional is one
        assert all(r.denominator == pytest.approx(1.0) for r in trace.steps)
        exact = float(stats.norm.sf(3.0))
        assert p == pytest.approx(exact, rel=0.6)

    def test_level_update_counted_when_its_denominator_is_one(self):
        # nested domains make the reverse conditional exactly 1; the update
        # still counts in n_bridge
        model = TwoLevelLinear(betas=(3.0, 3.0))
        _, trace = mlsus_estimate(model, 2, 1000, 0.1, make_kernel("acs"), 0,
                                  np.random.default_rng(1))
        assert [s.denominator for s in trace.steps if s.kind == "update"] == [1.0]
        assert trace.n_bridge == 1

    def test_denominators_are_valid_fractions(self, rng):
        model = Diffusion1dModel(max_level=4, level_dims=(10, 20, 40, 80))
        p, trace = mlsus_estimate(model, 4, 500, 0.1, make_kernel("acs"), 5, rng)
        updates = [r for r in trace.steps if r.denominator != 1.0]
        assert updates or p > 0
        for r in trace.steps:
            assert 0.0 < r.denominator <= 1.0
        assert trace.n_bridge <= 3
        assert p > 0

    def test_reaches_finest_level(self, rng):
        model = Diffusion1dModel(max_level=3, level_dims=(10, 20, 40))
        _, trace = mlsus_estimate(model, 3, 400, 0.1, make_kernel("acs"), 0, rng)
        assert trace.steps[-1].level == 3
        assert trace.steps[-1].threshold == 0.0

    def test_dimension_extension_applied(self, rng):
        model = TwoLevelLinear(betas=(2.5, 2.5), dims=(3, 7))
        p, trace = mlsus_estimate(model, 2, 500, 0.1, make_kernel("acs"), 0, rng)
        assert p > 0
        assert {r.level for r in trace.steps} >= {1, 2}

    def test_level_update_evaluates_coarse_level_once(self, rng):
        # chains run on the fine level only; the reverse conditional reads the
        # coarse level once, on the N returned states, whatever the burn-in
        n, burn_in = 400, 5
        model = Diffusion1dModel(max_level=3, level_dims=(10, 20, 40))
        _, trace = mlsus_estimate(model, 3, n, 0.1, make_kernel("acs"), burn_in, rng)
        assert [r.level for r in trace.steps] == [1, 2, 3, 3]
        chain = n // 10 * (burn_in + 10)   # N·p0 chains of burn_in + 1/p0 steps
        assert trace.steps[1].n_evals == trace.steps[2].n_evals == n + chain + n
        assert trace.eval_counts == {1: 3 * n, 2: n + chain + n, 3: n + chain}
        assert trace.eval_counts == model.counter.counts()

    def test_estimate_matches_record_product(self, rng):
        model = Diffusion1dModel(max_level=2, level_dims=(10, 20))
        p, trace = mlsus_estimate(model, 2, 400, 0.1, make_kernel("acs"), 0, rng)
        assert trace.product() == p

    def test_1d_diffusion_reference_with_burn_in(self):
        # level updates start their chains off-target, so this estimator needs
        # a real burn-in; 40 steps keeps the mean within the loose tolerance
        ests = []
        for rep in range(20):
            model = Diffusion1dModel()
            rng = np.random.default_rng([4601, rep])
            p, _ = mlsus_estimate(model, 8, 2000, 0.1, make_kernel("acs"), 40, rng)
            ests.append(p)
        assert np.mean(ests) == pytest.approx(1.524e-4, rel=0.35)
