import numpy as np
import pytest
from scipy import stats

from rareevent.fem1d import Diffusion1dModel
from rareevent.mcmc import make_kernel
from rareevent.mlsis import (
    PeekCache,
    _extend_ensemble,
    bridge_level,
    bridging_log_ratios,
    mlsis_estimate,
    peek_level_update,
    solve_beta,
)
from rareevent.models import LimitStateModel, LinearLsfModel
from rareevent.sis import EstimatorTrace, SampleEnsemble, sis_estimate, tempering_step


class TwoLevelLinear(LimitStateModel):
    """G_l(u) = beta_l - u_1 with configurable per-level dimensions."""

    def __init__(self, betas=(3.5, 3.5), dims=(10, 10)):
        super().__init__(dims, cost_dim=1)
        self.betas = betas

    def _evaluate_batch(self, xis, level):
        return self.betas[level - 1] - xis[:, 0]


def tempered_ensemble(model, n, rng, delta_target=0.5, c=0.5):
    samples = rng.standard_normal((n, model.dim(1)))
    ens = SampleEnsemble(samples, model.evaluate_batch(samples, 1), 1)
    return tempering_step(model, ens, EstimatorTrace(model.counter), delta_target,
                          make_kernel("acs"), c, 0, rng)


class TestSolveBeta:
    def test_identical_levels_bridge_in_one_step(self):
        g = np.array([-0.5, 0.3, 1.2])
        beta, delta, boundary, _ = solve_beta(g, g, 1.0, 0.0, 0.25)
        assert beta == 1.0
        assert delta == 0.0
        assert not boundary

    def test_two_sample_closed_form(self):
        # log-ratio gap D: COV = |tanh((beta - beta_prev) D / 2)|, so the
        # target 0.5 inverts to beta = beta_prev + 2 atanh(0.5) / D
        sigma = 1.0
        log_half = np.log(0.5)
        deltas = np.array([0.5, -1.0])
        g_fine = -stats.norm.ppf(np.exp(log_half + deltas))
        g_coarse = np.zeros(2)
        beta, delta, _, _ = solve_beta(g_coarse, g_fine, sigma, 0.0, 0.5)
        oracle = 2 * np.arctanh(0.5) / (deltas[0] - deltas[1])
        assert beta == pytest.approx(oracle, rel=1e-4)
        assert delta == pytest.approx(0.5, abs=1e-4)

    def test_partial_step_realizes_target(self, rng):
        g_coarse = rng.standard_normal(500)
        g_fine = g_coarse + 0.8 * rng.standard_normal(500)
        beta, delta, boundary, _ = solve_beta(g_coarse, g_fine, 0.5, 0.0, 0.25)
        assert beta < 1.0
        if not boundary:
            assert delta == pytest.approx(0.25, rel=0.2)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("beta_prev", [0.0, 0.4])
    @pytest.mark.parametrize("target", [0.25, 0.5])
    def test_realized_cov_is_the_root(self, seed, beta_prev, target):
        rng = np.random.default_rng([29, seed])
        g_coarse = rng.standard_normal(500)
        g_fine = g_coarse + 0.8 * rng.standard_normal(500)
        beta, delta, boundary, _ = solve_beta(g_coarse, g_fine, 0.5, beta_prev, target)
        assert beta_prev < beta < 1.0
        assert not boundary
        assert delta == pytest.approx(target, rel=1e-8)

    @pytest.mark.parametrize("noise, beta_prev", [(0.8, 0.0), (0.8, 0.4), (0.01, 0.4)])
    def test_returns_the_log_weights_at_its_root(self, noise, beta_prev):
        # noise 0.8 gives an interior root, noise 0.01 the full step to 1
        rng = np.random.default_rng(37)
        g_coarse = rng.standard_normal(500)
        g_fine = g_coarse + noise * rng.standard_normal(500)
        beta, _, _, log_w = solve_beta(g_coarse, g_fine, 0.5, beta_prev, 0.25)
        assert (beta < 1.0) == (noise > 0.1)
        ratios = bridging_log_ratios(g_coarse, g_fine, 0.5)
        assert np.array_equal(log_w, (beta - beta_prev) * ratios)

    def test_beta_prev_validated(self):
        with pytest.raises(ValueError):
            solve_beta(np.zeros(2), np.zeros(2), 1.0, 1.0, 0.5)


class TestBridgeLevel:
    def test_identical_levels_single_unit_factor(self, rng):
        model = TwoLevelLinear(betas=(2.0, 2.0))
        ens = tempered_ensemble(model, 200, rng)
        before = ens.g.copy()
        trace = EstimatorTrace(model.counter)
        new_ens = bridge_level(model, ens, trace, 0.25, make_kernel("acs"), 0.5, 0, rng)
        steps = trace.steps
        assert len(steps) == 1
        assert steps[0].beta == 1.0
        assert steps[0].factor == pytest.approx(1.0, rel=1e-12)
        assert new_ens.level == 2
        # moments preserved when the levels agree
        assert new_ens.g.mean() == pytest.approx(before.mean(), abs=0.2)

    def test_diffusion_level_update_invariants(self, rng):
        model = Diffusion1dModel()
        ens = tempered_ensemble(model, 400, rng, delta_target=0.5, c=0.5)
        trace = EstimatorTrace(model.counter)
        new_ens = bridge_level(model, ens, trace, 0.5, make_kernel("acs"), 0.5, 0, rng)
        steps = trace.steps
        betas = [s.beta for s in steps]
        s_hats = [s.factor for s in steps]
        assert all(0 < s < np.inf for s in s_hats)
        assert np.isfinite(np.prod(s_hats))
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
        assert betas[-1] == 1.0
        assert new_ens.level == 2
        assert new_ens.samples.shape[1] == model.dim(2)

    def test_extension_preserves_prefix(self, rng):
        model = TwoLevelLinear(betas=(2.0, 2.0), dims=(3, 6))
        samples = rng.standard_normal((50, 3))
        ens = SampleEnsemble(samples, model.evaluate_batch(samples, 1), 1,
                             sigma=1.0)
        extended, g_fine = _extend_ensemble(model, ens, rng, None)
        assert np.array_equal(extended[:, :3], samples)
        assert extended.shape == (50, 6)

    def test_peek_cache_rows_reused(self, rng):
        model = TwoLevelLinear(betas=(2.0, 2.0), dims=(3, 6))
        samples = rng.standard_normal((50, 3))
        ens = SampleEnsemble(samples, model.evaluate_batch(samples, 1), 1,
                             sigma=1.0)
        idx = np.array([4, 10, 30])
        cached_rows = np.concatenate([samples[idx], np.ones((3, 3))], axis=1)
        cache = PeekCache(indices=idx, extended=cached_rows,
                          g_fine=np.array([7.0, 8.0, 9.0]))
        evals_before = model.counter.total()
        extended, g_fine = _extend_ensemble(model, ens, rng, cache)
        assert model.counter.total() - evals_before == 47  # N - N_s fine solves
        assert np.array_equal(extended[idx], cached_rows)
        assert np.array_equal(g_fine[idx], [7.0, 8.0, 9.0])


class TestPeek:
    def test_identical_levels_signal_tempering(self, rng):
        model = TwoLevelLinear(betas=(2.0, 2.0))
        ens = tempered_ensemble(model, 200, rng)
        delta, cache = peek_level_update(model, ens, 20, rng)
        assert delta == pytest.approx(0.0, abs=1e-12)
        assert cache.indices.shape == (20,)

    def test_subset_size_validated(self, rng):
        model = TwoLevelLinear()
        ens = tempered_ensemble(model, 100, rng)
        with pytest.raises(ValueError):
            peek_level_update(model, ens, 100, rng)


def check_trace_automaton(trace, delta_target, max_level):
    """Step sequence must follow the tempering/bridging decision scheme."""
    tempering_finished = False
    previous = None
    level = 1
    for step in trace.steps:
        if step.kind == "temper":
            assert not tempering_finished, "tempering ran after it finished"
        if step.kind == "bridge":
            assert step.level == level + 1 or step.level == level
            level = step.level
            if previous is not None and previous.kind == "peek":
                assert previous.delta > delta_target, "bridge after negative peek"
        if step.kind == "peek":
            assert not tempering_finished, "peek is redundant after tempering"
        if step.delta_wopt is not None and step.delta_wopt <= delta_target:
            tempering_finished = True
        previous = step
    assert level == max_level
    assert tempering_finished


class TestMlsisEstimate:
    def test_single_level_reduces_to_sis(self):
        p1, t1 = sis_estimate(LinearLsfModel(3.0, 8), 1, 200, 0.5,
                              make_kernel("vmfn"), 0.5, np.random.default_rng(42))
        p2, t2 = mlsis_estimate(LinearLsfModel(3.0, 8), 1, 200, 0.5,
                                make_kernel("vmfn"), 0.5, np.random.default_rng(42))
        assert p1 == p2
        assert [s.sigma for s in t1.steps] == [s.sigma for s in t2.steps]

    def test_level_constant_model_unit_bridges(self, rng):
        model = TwoLevelLinear(betas=(3.0, 3.0))
        p, trace = mlsis_estimate(model, 2, 400, 0.5, make_kernel("vmfn"), 0.5, rng)
        bridge_factors = [s.factor for s in trace.steps if s.kind == "bridge"]
        assert bridge_factors, "a bridge must run to reach the fine level"
        assert all(s == pytest.approx(1.0, rel=1e-9) for s in bridge_factors)
        exact = float(stats.norm.sf(3.0))
        assert p == pytest.approx(exact, rel=0.5)

    def test_trace_automaton_and_product(self, rng):
        model = Diffusion1dModel(max_level=3)
        p, trace = mlsis_estimate(model, 3, 400, 0.5, make_kernel("acs"), 0.5, rng)
        check_trace_automaton(trace, 0.5, 3)
        assert trace.product() == p
        levels = [s.level for s in trace.steps if s.kind != "peek"]
        assert all(b >= a for a, b in zip(levels, levels[1:]))

    def test_eval_accounting_all_tempering_decisions(self, rng):
        # identical levels: every peek signals tempering, so fine-level costs
        # are N_s per peek plus the single final bridge
        n, n_s = 300, 30
        model = TwoLevelLinear(betas=(2.5, 2.5))
        p, trace = mlsis_estimate(model, 2, n, 0.5, make_kernel("acs"), 0.5, rng,
                                  subset_fraction=0.1)
        peeks = [s for s in trace.steps if s.kind == "peek"]
        assert peeks and all(s.wasted for s in peeks)
        bridge_chain_evals = sum(
            s.n_evals for s in trace.steps if s.kind == "bridge"
        )
        fine_evals = trace.eval_counts.get(2, 0)
        assert fine_evals == n_s * len(peeks) + bridge_chain_evals

    def test_each_step_is_charged_its_closed_form(self):
        # N*c aCS chains of n_b + 1/c steps solve N(1 + c n_b) proposals on every
        # level of their target; a bridge's first stage also extends the ensemble
        n, c, n_b, n_s = 200, 0.5, 2, 20
        moves = n * (1 + c * n_b)
        seen = set()
        runs = [(0.5, 0), (0.5, 1), (0.5, 2), (0.5, 3), (2.0, 0), (4.0, 1)]
        for delta_target, seed in runs:
            _, trace = mlsis_estimate(Diffusion1dModel(max_level=3), 3, n, delta_target,
                                      make_kernel("acs"), c, np.random.default_rng(seed),
                                      burn_in=n_b)
            previous = None
            for step in trace.steps:
                if step.kind == "peek":
                    case, expected = "peek", n_s
                elif step.kind == "temper":
                    case, expected = "temper", moves
                elif step.beta < 1:
                    case, expected = "bridge beta < 1", 2 * moves
                else:
                    case, expected = "bridge beta = 1", moves
                if step.kind == "bridge" and not (previous.kind == "bridge"
                                                  and previous.level == step.level):
                    after_peek = previous.kind == "peek"
                    case += ", first after a peek" if after_peek else ", first"
                    expected += n - n_s if after_peek else n
                assert step.n_evals == expected, (delta_target, seed, case)
                seen.add(case)
                previous = step
        # the runs cover every case
        assert len(seen) == 8

    def test_level_dependent_dimension_run(self, rng):
        model = TwoLevelLinear(betas=(3.0, 3.0), dims=(4, 9))
        p, trace = mlsis_estimate(model, 2, 300, 0.5, make_kernel("vmfn"), 0.5, rng)
        assert trace.estimate == p
        exact = float(stats.norm.sf(3.0))
        assert p == pytest.approx(exact, rel=0.6)

    def test_validates_inputs(self, rng):
        model = TwoLevelLinear()
        with pytest.raises(ValueError):
            mlsis_estimate(model, 3, 100, 0.5, make_kernel("acs"), 0.5, rng)
        with pytest.raises(ValueError):
            mlsis_estimate(model, 2, 100, -0.1, make_kernel("acs"), 0.5, rng)
        with pytest.raises(ValueError, match="at least two samples"):
            mlsis_estimate(model, 2, 1, 0.5, make_kernel("acs"), 1.0, rng)

    def test_negative_burn_in_rejected_before_any_evaluation(self, rng):
        model = Diffusion1dModel(max_level=3)
        with pytest.raises(ValueError, match="burn-in must be nonnegative"):
            mlsis_estimate(model, 3, 500, 0.5, make_kernel("vmfn"), 0.1, rng, burn_in=-1)
        assert model.counter.counts() == {}

    @pytest.mark.parametrize("fraction", [0.0, -0.5])
    def test_subset_fraction_must_be_positive(self, fraction):
        with pytest.raises(ValueError, match="must lie in"):
            mlsis_estimate(Diffusion1dModel(max_level=2), 2, 200, 0.5, make_kernel("acs"),
                           0.5, np.random.default_rng(1), subset_fraction=fraction)
