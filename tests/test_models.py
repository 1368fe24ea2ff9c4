import functools
import inspect
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from rareevent import mlsis, sis, subset
from rareevent.errors import ModelEvaluationError
from rareevent.fem1d import Diffusion1dModel
from rareevent.fem2d import FlowCellModel
from rareevent.models import (
    ConstantModel,
    EvalCounter,
    LinearLsfModel,
    PinnedLevelModel,
    is_failure,
    mc_estimate,
    mesh_size,
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

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_beta_must_be_finite(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            LinearLsfModel(beta, 3)


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


class TestLevelHierarchy:
    def test_constructor_derives_the_levels(self):
        model = ConstantModel(1.0, n=3, max_level=4)
        assert (model.level_dims, model.max_level, model.cost_dim) == ((3,) * 4, 4, 1)
        assert [model.dim(level) for level in (1, 4)] == [3, 3]
        pinned = PinnedLevelModel(Diffusion1dModel(max_level=3), 2)
        assert (pinned.level_dims, pinned.max_level, pinned.cost_dim) == ((20,), 1, 1)

    def test_rejects_no_level_and_empty_inputs(self):
        # decreasing dims: TestCheckedLevelDims
        with pytest.raises(ValueError, match="at least one level"):
            ConstantModel(1.0, max_level=0)
        with pytest.raises(ValueError, match="dimension >= 1"):
            LinearLsfModel(1.0, 0)

    def test_dim_rejects_levels_outside_the_hierarchy(self, rng):
        # neither wraps around to the finest level nor runs off the tuple
        model = Diffusion1dModel(max_level=2)
        for level in (0, 3):
            with pytest.raises(ValueError, match=r"level -?\d outside 1\.\.2"):
                model.dim(level)
            with pytest.raises(ValueError, match="outside 1..2"):
                mc_estimate(model, level, 10, rng)
        with pytest.raises(ValueError, match="outside 1..2"):
            PinnedLevelModel(model, 3)
        assert model.counter.total() == 0

    def test_no_model_restates_the_level_hierarchy(self):
        for cls in (LinearLsfModel, ConstantModel, PinnedLevelModel,
                    Diffusion1dModel, FlowCellModel):
            assert "dim" not in vars(cls)
            source = inspect.getsource(cls)
            assert "self.max_level =" not in source and "self.cost_dim =" not in source

    def test_one_mesh_rule(self):
        assert [mesh_size(level) for level in (1, 2, 8)] == [1 / 4, 1 / 8, 1 / 512]
        assert Diffusion1dModel.mesh_size is FlowCellModel.mesh_size is mesh_size


# model, its levels, the rows of one batch and the tolerance of a split batch
_CONTRACT = {
    "linear": (lambda: LinearLsfModel(3.0, 20), (1,), 50, 0.0),
    "diffusion1d": (Diffusion1dModel, tuple(range(1, 9)), 400, 1e-14),
    "flowcell2d": (lambda: FlowCellModel(max_level=3), (1, 2, 3), 60, 0.0),
}


@functools.lru_cache(maxsize=None)
def _contract_model(name):
    return _CONTRACT[name][0]()


class TestBatchContract:
    """Values per (batch, level): a row split off into another batch keeps its
    bits for the linear and flow-cell models, and its value to roundoff in 1D."""

    @pytest.mark.parametrize("name", sorted(_CONTRACT))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_splits_match_the_whole_batch(self, name, data):
        _, levels, rows, atol = _CONTRACT[name]
        model = _contract_model(name)
        level = data.draw(st.sampled_from(levels), label="level")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        cuts = sorted(data.draw(st.sets(st.integers(1, rows - 1), max_size=4), label="cuts"))
        xis = np.random.default_rng(seed).standard_normal((rows, model.dim(level)))
        whole = model.evaluate_batch(xis, level)
        split = np.concatenate([model.evaluate_batch(part, level)
                                for part in np.split(xis, cuts)])
        if atol == 0.0:
            assert np.array_equal(split, whole)
        else:
            np.testing.assert_allclose(split, whole, rtol=0.0, atol=atol)


def _nan_row(model, level):
    xis = np.zeros((3, model.dim(level)))
    xis[1] = np.nan
    return xis


# model, the level it is asked at, and a batch with a non-finite value
_NON_FINITE = {
    "linear-nan-row": (lambda: LinearLsfModel(3.0, 4), 1, _nan_row),
    "constant-nan": (lambda: ConstantModel(np.nan), 1, lambda m, lvl: np.zeros((3, 2))),
    "constant-inf": (lambda: ConstantModel(np.inf), 1, lambda m, lvl: np.zeros((3, 2))),
    "pinned-diffusion1d": (lambda: PinnedLevelModel(Diffusion1dModel(max_level=3), 3), 1,
                           _nan_row),
    "diffusion1d-nan": (Diffusion1dModel, 8, _nan_row),
    # a underflows to 0 on part of the mesh, so 1/a overflows
    "diffusion1d-underflow": (Diffusion1dModel, 8, lambda m, lvl: np.full((2, 150), -1e3)),
}


class TestFiniteOrRaise:
    """A batch with a non-finite value raises and tallies nothing."""

    @pytest.mark.parametrize("name", sorted(_NON_FINITE))
    def test_non_finite_value_raises_before_the_tally(self, name):
        make, level, batch = _NON_FINITE[name]
        model = make()
        with pytest.raises(ModelEvaluationError), np.errstate(over="ignore"):
            model.evaluate_batch(batch(model, level), level)
        assert model.counter.counts() == {}

    def test_estimators_raise_on_a_nan_model(self, rng):
        from rareevent.mcmc import make_kernel
        from rareevent.sis import sis_estimate

        with pytest.raises(ModelEvaluationError):
            mc_estimate(ConstantModel(np.nan), 1, 100, rng)
        with pytest.raises(ModelEvaluationError):
            sis_estimate(ConstantModel(np.nan), 1, 100, 0.5, make_kernel("acs"), 0.5, rng)


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
