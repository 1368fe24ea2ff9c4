import inspect
import threading

import numpy as np
import pytest
from scipy.special import ndtr

from rareevent import mlsis, sis, subset
from rareevent.fem1d import Diffusion1dModel
from rareevent.fem2d import FlowCellModel
from rareevent.models import (
    ConstantModel,
    EvalCounter,
    LinearLsfModel,
    PinnedLevelModel,
    is_failure,
    mc_estimate,
)


class TestFailureConvention:
    def test_boundary_counts_as_failure(self):
        assert is_failure(0.0)
        assert is_failure(-1e-300)
        assert not is_failure(1e-300)

    def test_indicator_call_sites_use_shared_predicate(self):
        # modules with indicator call sites route them through is_failure;
        # mlsis delegates to the sis helpers
        for module in (sis, subset):
            assert "is_failure" in inspect.getsource(module)
        assert "optimal_log_weights" in inspect.getsource(mlsis.mlsis_estimate) or (
            "final_correction" in inspect.getsource(mlsis)
        )

    def test_boundary_failure_through_estimator(self, rng):
        # G identically zero: smoothed cdf gives 1/2 per factor, indicator
        # counts the boundary as failure, and the estimate lands on 1
        from rareevent.mcmc import make_kernel
        from rareevent.sis import sis_estimate

        model = ConstantModel(0.0, n=2)
        p, _ = sis_estimate(model, 1, 100, 0.5, make_kernel("acs"), 0.5, rng)
        assert p == pytest.approx(1.0, abs=1e-9)


class TestLinearModel:
    def test_exact_probability(self):
        model = LinearLsfModel(3.5, 150)
        assert model.exact_probability() == pytest.approx(2.3263e-4, rel=1e-4)

    def test_symmetric_at_zero(self):
        assert LinearLsfModel(0.0, 3).exact_probability() == 0.5

    def test_boundary_input(self):
        model = LinearLsfModel(2.0, 4)
        g = model.evaluate(np.array([2.0, 0.0, 0.0, 0.0]), 1)
        assert g == 0.0
        assert is_failure(g)

    def test_dimension_validation(self):
        model = LinearLsfModel(1.0, 3)
        with pytest.raises(ValueError):
            model.evaluate(np.zeros(2), 1)
        with pytest.raises(ValueError):
            model.evaluate(np.zeros(3), 2)


class TestEvalCounter:
    def test_each_evaluate_increments_one_level(self):
        model = LinearLsfModel(1.0, 2)
        model.evaluate(np.zeros(2), 1)
        model.evaluate_batch(np.zeros((5, 2)), 1)
        assert model.counter.counts() == {1: 6}

    def test_counts_only_increase(self):
        counter = EvalCounter()
        with pytest.raises(ValueError):
            counter.add(1, -1)

    def test_thread_safe_increments(self):
        counter = EvalCounter()

        def work():
            for _ in range(1000):
                counter.add(1, 1)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.counts() == {1: 8000}


class TestPinnedLevelModel:
    def test_forwards_to_pinned_level(self):
        class TwoLevel(ConstantModel):
            def _evaluate_batch(self, xis, level):
                return np.full(xis.shape[0], float(level))

        base = TwoLevel(0.0, n=2, max_level=3)
        pinned = PinnedLevelModel(base, 2)
        assert pinned.evaluate(np.zeros(2), 1) == 2.0
        assert base.counter.counts() == {2: 1}


class TestCheckedLevelDims:
    @pytest.mark.parametrize("model_class", [Diffusion1dModel, FlowCellModel])
    def test_level_dims_validated(self, model_class):
        assert model_class(max_level=2).level_dims == (10, 20)
        assert model_class(max_level=2, level_dims=(150, 150)).level_dims == (150, 150)
        with pytest.raises(ValueError, match="one dimension per level"):
            model_class(max_level=2, level_dims=(10,))
        with pytest.raises(ValueError, match="non-decreasing"):
            model_class(max_level=2, level_dims=(20, 10))
        with pytest.raises(ValueError, match="exceeds KL truncation"):
            model_class(max_level=2, level_dims=(10, 151))

    @pytest.mark.parametrize("model_class", [Diffusion1dModel, FlowCellModel])
    @pytest.mark.parametrize("max_level", [0, -1])
    def test_needs_at_least_one_level(self, model_class, max_level):
        with pytest.raises(ValueError, match="max_level must be >= 1"):
            model_class(max_level=max_level)
        with pytest.raises(ValueError, match="max_level must be >= 1"):
            model_class(max_level=max_level, level_dims=())


class TestMcEstimate:
    def test_always_failing_model(self, rng):
        assert mc_estimate(ConstantModel(-1.0, n=2), 1, 100, rng) == 1.0

    def test_matches_analytic_probability(self):
        model = LinearLsfModel(2.0, 3)
        rng = np.random.default_rng(5)
        n = 200_000
        p = mc_estimate(model, 1, n, rng)
        exact = float(ndtr(-2.0))
        assert abs(p - exact) < 3 * np.sqrt(exact * (1 - exact) / n)
        assert model.counter.counts() == {1: n}

    def test_single_sample_deterministic(self):
        model = LinearLsfModel(0.0, 2)
        a = mc_estimate(model, 1, 1, np.random.default_rng(9))
        b = mc_estimate(LinearLsfModel(0.0, 2), 1, 1, np.random.default_rng(9))
        assert a == b

    def test_requires_positive_sample_count(self, rng):
        with pytest.raises(ValueError):
            mc_estimate(ConstantModel(1.0), 1, 0, rng)
