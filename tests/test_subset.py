import numpy as np
import pytest
from scipy import special, stats

from rareevent import subset
from rareevent.errors import NonconvergenceError
from rareevent.fem1d import Diffusion1dModel
from rareevent.mcmc import make_kernel
from rareevent.models import LinearLsfModel
from rareevent.subset import mlsus_estimate, sus_estimate

from helper_models import ConstantModel
from test_mlsis import TwoLevelLinear, distinct_rows


def chain_outputs(monkeypatch):
    """The states each `run_chains` call of a subset run returns, in call order."""
    returned = []
    run_chains = subset.run_chains

    def recording(*args):
        samples, values = run_chains(*args)
        returned.append(samples.copy())
        return samples, values

    monkeypatch.setattr(subset, "run_chains", recording)
    return returned


class TestSusEstimate:
    def test_frequent_failure_returns_plain_fraction(self, rng):
        p, trace = sus_estimate(ConstantModel(-1.0, n=2), 1, 100, 0.1,
                                make_kernel("acs"), 0, rng)
        assert p == 1.0
        assert trace.n_temper == 1

    def test_linear_reference(self):
        exact = special.ndtr(-3.5)
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
        with pytest.raises(ValueError, match=r"p0 must lie in \(0, 1\)"):
            sus_estimate(model, 1, 100, 1.0, make_kernel("acs"), 0, rng)

    def test_negative_burn_in_rejected(self, rng):
        # before the level-1 draw: no evaluation is spent
        model = LinearLsfModel(3.5, 10)
        with pytest.raises(ValueError, match="burn-in must be nonnegative"):
            sus_estimate(model, 1, 1000, 0.1, make_kernel("acs"), -1, rng)
        assert model.counter.counts() == {}


class TestMlsusEstimate:
    @pytest.mark.parametrize("make_model, max_level, n", [
        (lambda: LinearLsfModel(3.5, 10), 1, 1000),
        (lambda: Diffusion1dModel(max_level=3), 3, 500),
    ], ids=["linear-l1", "diffusion1d-l3"])
    def test_negative_burn_in_rejected_before_any_evaluation(self, rng, make_model,
                                                              max_level, n):
        # at one level no step is a level update, whose chains alone burn in
        model = make_model()
        with pytest.raises(ValueError, match="burn-in must be nonnegative"):
            mlsus_estimate(model, max_level, n, 0.1, make_kernel("acs"), -1, rng)
        assert model.counter.counts() == {}

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

    def test_level_update_evaluates_coarse_level_once(self, rng, monkeypatch):
        # chains run on the fine level only; the reverse conditional reads the
        # coarse level once, on the distinct states among the N returned,
        # whatever the burn-in; the extension draws new coordinates, so it
        # solves all N
        n, burn_in = 400, 5
        model = Diffusion1dModel(max_level=3, level_dims=(10, 20, 40))
        returned = chain_outputs(monkeypatch)
        _, trace = mlsus_estimate(model, 3, n, 0.1, make_kernel("acs"), burn_in, rng)
        assert [r.level for r in trace.steps] == [1, 2, 3, 3]
        chain = n // 10 * (burn_in + 10)   # N·p0 chains of burn_in + 1/p0 steps
        coarse = [distinct_rows(returned[k][:, :model.dim(k)]) for k in (1, 2)]
        assert max(coarse) < n
        assert [s.n_evals for s in trace.steps[1:3]] == [n + chain + d for d in coarse]
        assert trace.eval_counts == {1: 2 * n + coarse[0], 2: n + chain + coarse[1],
                                     3: n + chain}
        assert trace.eval_counts == model.counter.counts()

    def test_level_update_with_fixed_dims_solves_each_state_once(self, rng, monkeypatch):
        # no coordinate is added, so the extension too solves only the
        # distinct states of the ensemble the previous chains returned
        n, burn_in = 400, 5
        model = Diffusion1dModel(max_level=3, level_dims=(20, 20, 20))
        returned = chain_outputs(monkeypatch)
        _, trace = mlsus_estimate(model, 3, n, 0.1, make_kernel("acs"), burn_in, rng)
        assert [s.kind for s in trace.steps[:3]] == ["subset", "update", "update"]
        chain = n // 10 * (burn_in + 10)
        d = [distinct_rows(states) for states in returned[:3]]
        assert max(d) < n
        assert [s.n_evals for s in trace.steps[1:3]] == [d[0] + chain + d[1],
                                                         d[1] + chain + d[2]]
        # after the updates, subset steps at level 3 run N·p0 chains of 1/p0 steps
        assert trace.eval_counts == {1: 2 * n + d[1], 2: d[0] + chain + d[2],
                                     3: d[1] + chain + n * (len(returned) - 3)}
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
