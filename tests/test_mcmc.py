import numpy as np
import pytest
from scipy import stats

from rareevent import mcmc
from rareevent.distributions import (
    VmfnParams,
    sample_vmfn,
    std_normal_log_pdf,
    vmfn_log_density,
    vmfn_log_density_polar,
)
from rareevent.errors import DegenerateWeightsError, ModelEvaluationError
from rareevent.fem1d import Diffusion1dModel
from rareevent.fem2d import FlowCellModel
from rareevent.mcmc import (
    AcsKernel,
    TemperingTarget,
    VmfnIndependentKernel,
    cov_of_weights,
    extend_dimension,
    make_kernel,
    resample_multinomial,
    run_chains,
)
from rareevent.models import LimitStateModel, LinearLsfModel
from rareevent.sis import tempering_log_weights
from rareevent.subset import DomainTarget

from helper_models import ConstantModel


class CountingModel(ConstantModel):
    """Constant limit state that only counts how often it is evaluated."""


class TwoLevelLinear(LimitStateModel):
    """G_l(u) = beta_l - u_1 on two levels; logs the rows of every batch call."""

    def __init__(self, betas=(2.0, 2.5), dims=(4, 6)):
        super().__init__(dims, cost_dim=1)
        self.betas = betas
        self.calls = []

    def _evaluate_batch(self, xis, level):
        self.calls.append((level, xis.shape[0]))
        return self.betas[level - 1] - xis[:, 0]


class LockstepVmfn(VmfnIndependentKernel):
    """The vMFN kernel with its proposals evaluated one iteration at a time."""

    STATE_INDEPENDENT = False


def fitted_vmfn(params, kernel_class=VmfnIndependentKernel):
    """A vMFN kernel that proposes from `params` without a `prepare` fit."""
    kernel = kernel_class()
    kernel.params = params
    return kernel


class IdentityKernel:
    """Proposes the current state; used to freeze chains."""

    STATE_INDEPENDENT = False

    def prepare(self, *args, **kwargs):
        pass

    def propose(self, current, rng, out):
        out[:] = current
        return self.log_score(out)

    def log_score(self, states):
        return np.zeros(states.shape[0])

    def feedback(self, accepted):
        pass


class ForcedKernel(IdentityKernel):
    """Gaussian proposals, every one accepted on a constant model.

    The score is 0, and a constant limit state has a constant smooth part,
    so each proposal has log alpha = 0 > log U.
    """

    def propose(self, current, rng, out):
        rng.standard_normal(out=out)
        return self.log_score(out)


class TestCovOfWeights:
    def test_examples(self):
        assert cov_of_weights([1.0, 1.0, 1.0]) == 0.0
        assert cov_of_weights([0.0, 2.0]) == pytest.approx(1.0)
        assert cov_of_weights([1.0, 3.0]) == pytest.approx(0.5)

    def test_zero_weights_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            cov_of_weights([0.0, 0.0])


class TestResampleMultinomial:
    def test_point_mass(self, rng):
        idx = resample_multinomial([0.0, 1.0, 0.0], 5, rng)
        assert np.all(idx == 1)

    def test_uniform_frequencies(self, rng):
        idx = resample_multinomial(np.ones(4), 100_000, rng)
        freq = np.bincount(idx, minlength=4) / 100_000
        assert np.all(np.abs(freq - 0.25) < 0.01)

    def test_deterministic(self):
        a = resample_multinomial([1.0, 2.0], 10, np.random.default_rng(4))
        b = resample_multinomial([1.0, 2.0], 10, np.random.default_rng(4))
        assert np.array_equal(a, b)

    def test_degenerate_rejected(self, rng):
        with pytest.raises(DegenerateWeightsError):
            resample_multinomial([0.0, 0.0], 3, rng)

    def test_zero_weight_draw_rejected(self):
        class ZeroWeightChoice:
            def choice(self, n, size, p):
                return np.zeros(size, dtype=int)

        with pytest.raises(DegenerateWeightsError):
            resample_multinomial([0.0, 1.0], 3, ZeroWeightChoice())


class TestMhChain:
    def test_identity_kernel_freezes_chain(self, rng):
        model = ConstantModel(-1.0, n=3)
        target = TemperingTarget(level=1, sigma=1.0)
        seed = np.array([0.5, -0.2, 1.0])
        states, values = run_chains(model, target, IdentityKernel(), seed[None],
                                    {1: np.array([-1.0])}, c=0.25, burn_in=0, rng=rng)
        assert np.all(states == seed)
        assert states.shape == (4, 3)

    def test_forced_acceptance_returns_proposals(self, rng):
        model = ConstantModel(-1.0, n=2)
        target = TemperingTarget(level=1, sigma=1.0)

        class Recording(ForcedKernel):
            proposals = []

            def propose(self, current, gen, out):
                score = super().propose(current, gen, out)
                self.proposals.append(out.copy())
                return score

        kernel = Recording()
        states, _ = run_chains(model, target, kernel, np.zeros((1, 2)),
                               {1: np.array([-1.0])}, c=0.5, burn_in=0, rng=rng)
        assert np.array_equal(states, np.concatenate(kernel.proposals))

    def test_burn_in_discarded(self, rng):
        # N_b=2, c=0.5: four steps simulated, two returned
        model = CountingModel(-1.0, n=2)
        target = TemperingTarget(level=1, sigma=1.0)
        states, _ = run_chains(model, target, ForcedKernel(), np.zeros((1, 2)),
                               {1: np.array([-1.0])}, c=0.5, burn_in=2, rng=rng)
        assert states.shape == (2, 2)
        assert model.counter.counts() == {1: 4}

    def test_chain_evaluations_never_doubled(self, rng):
        # m lockstep iterations evaluate the model exactly m times per chain
        model = CountingModel(-1.0, n=2)
        target = TemperingTarget(level=1, sigma=1.0)
        seeds = np.zeros((10, 2))
        run_chains(model, target, AcsKernel(), seeds, {1: np.full(10, -1.0)},
                   c=0.2, burn_in=0, rng=rng)
        assert model.counter.counts() == {1: 50}


def acs_starting_at(lambda0):
    """An aCS kernel whose noise scale starts at lambda0 instead of LAMBDA0."""

    class Acs(AcsKernel):
        LAMBDA0 = lambda0

    return Acs()


class TestAcsKernel:
    def test_near_unit_correlation_keeps_proposal_close(self, rng):
        kernel = acs_starting_at(1e-6)  # rho clipped to 0.999
        assert kernel._rho() == pytest.approx(0.999)
        current = rng.standard_normal((100, 5))
        proposal = np.empty_like(current)
        kernel.propose(current, rng, proposal)
        assert np.mean(np.linalg.norm(proposal - 0.999 * current, axis=1)) < 0.3

    @pytest.mark.parametrize("rho", [0.3, 0.9, 0.999])
    def test_proposal_is_pcn_formula_bit_for_bit(self, rng, rho):
        kernel = acs_starting_at(np.sqrt(1.0 - rho * rho))
        rho = kernel._rho()
        current = rng.standard_normal((200, 150))
        # drawn into a row block of a larger buffer, as run_chains does
        buffer = np.full((600, 150), np.nan)
        scores = kernel.propose(current, np.random.default_rng(7), buffer[200:400])
        eps = np.random.default_rng(7).standard_normal(current.shape)
        expected = rho * current + np.sqrt(1.0 - rho * rho) * eps
        assert np.array_equal(buffer[200:400], expected)
        assert np.isnan(buffer[:200]).all() and np.isnan(buffer[400:]).all()
        assert np.array_equal(scores, np.zeros(200))

    def test_preserves_standard_normal(self, rng):
        # flat smooth part: the chain must keep phi_n invariant
        model = ConstantModel(-1.0, n=10)
        target = TemperingTarget(level=1, sigma=1e8)
        seeds = rng.standard_normal((500, 10))
        states, _ = run_chains(model, target, AcsKernel(), seeds,
                               {1: np.full(500, -1.0)}, c=0.005, burn_in=0, rng=rng)
        assert states.shape == (100_000, 10)
        assert abs(states.mean()) < 0.05
        assert states.var() == pytest.approx(1.0, rel=0.05)

    def test_adaptation_targets_44_percent(self, rng):
        # tempering target for the linear limit state
        model = LinearLsfModel(3.5, 20)
        sigma = 1.0
        kernel = AcsKernel()
        pool = rng.standard_normal((4000, 20))
        g = model.evaluate_batch(pool, 1)
        log_w = tempering_log_weights(g, sigma, np.inf)
        idx = resample_multinomial(np.exp(log_w - log_w.max()), 200, rng)
        target = TemperingTarget(level=1, sigma=sigma)
        for _ in range(50):
            states, values = run_chains(model, target, kernel, pool[idx],
                                        {1: g[idx]}, c=1.0, burn_in=0, rng=rng)
        rate = kernel.stats.acceptance_rate
        assert 0.34 <= rate <= 0.54


class TestVmfnKernel:
    def test_self_target_acceptance_one(self, rng):
        params = VmfnParams(nu=np.eye(3)[0], kappa=5.0, s=2.0, gamma=3.0)
        kernel = fitted_vmfn(params)
        u0 = sample_vmfn(params, 3, rng, size=200)
        u1 = sample_vmfn(params, 3, rng, size=200)
        # target whose full density is the proposal itself: smooth part
        # q - phi cancels the kernel extra exactly
        log_alpha = (
            (vmfn_log_density(u1, params) - stats.norm.logpdf(u1).sum(axis=1))
            - (vmfn_log_density(u0, params) - stats.norm.logpdf(u0).sum(axis=1))
            + kernel.log_accept_extra(u0, u1)
        )
        assert np.max(np.abs(log_alpha)) < 1e-10

    def test_fitted_proposal_acceptance_reasonable(self, rng):
        # tempering target, linear limit state, sigma = 1
        model = LinearLsfModel(3.5, 20)
        sigma = 1.0
        pool = rng.standard_normal((10_000, 20))
        g = model.evaluate_batch(pool, 1)
        log_w = tempering_log_weights(g, sigma, np.inf)
        kernel = VmfnIndependentKernel()
        kernel.prepare(pool, log_w, 10)
        idx = resample_multinomial(np.exp(log_w - log_w.max()), 1000, rng)
        target = TemperingTarget(level=1, sigma=sigma)
        run_chains(model, target, kernel, pool[idx], {1: g[idx]},
                   c=0.1, burn_in=0, rng=rng)
        assert kernel.stats.acceptance_rate > 0.3

    def test_chain_mean_direction_matches_reweighted_ensemble(self, rng):
        model = LinearLsfModel(2.0, 10)
        sigma = 0.5
        pool = rng.standard_normal((40_000, 10))
        g = model.evaluate_batch(pool, 1)
        log_w = tempering_log_weights(g, sigma, np.inf)
        w = np.exp(log_w - log_w.max())
        target_mean = (w[:, None] * pool).sum(axis=0) / w.sum()
        kernel = VmfnIndependentKernel()
        kernel.prepare(pool, log_w, 10)
        idx = resample_multinomial(w, 2000, rng)
        states, _ = run_chains(model, TemperingTarget(level=1, sigma=sigma), kernel,
                               pool[idx], {1: g[idx]}, c=0.1, burn_in=0, rng=rng)
        # compare the dominant coordinate of the mean (others are ~0)
        assert states.mean(axis=0)[0] == pytest.approx(target_mean[0], rel=0.05)

    def test_each_state_scored_once(self, rng, monkeypatch):
        # the seeds once from their coordinates, then each iteration's
        # proposals once from the radii and cosines they were drawn with
        rows, polar_rows = [], []

        def counting(u, params):
            rows.append(np.atleast_2d(u).shape[0])
            return vmfn_log_density(u, params)

        def counting_polar(r, w, params):
            polar_rows.append(r.shape[0])
            return vmfn_log_density_polar(r, w, params)

        monkeypatch.setattr(mcmc, "vmfn_log_density", counting)
        monkeypatch.setattr(mcmc, "vmfn_log_density_polar", counting_polar)
        model = LinearLsfModel(2.0, 10)
        pool = rng.standard_normal((2000, 10))
        g = model.evaluate_batch(pool, 1)
        log_w = tempering_log_weights(g, 1.0, np.inf)
        kernel = VmfnIndependentKernel()
        kernel.prepare(pool, log_w, 5)
        seeds, burn_in, inv_c = 100, 3, 5
        run_chains(model, TemperingTarget(level=1, sigma=1.0), kernel, pool[:seeds],
                   {1: g[:seeds]}, c=1.0 / inv_c, burn_in=burn_in, rng=rng)
        assert rows == [seeds]
        assert polar_rows == [seeds] * (burn_in + inv_c)

    @pytest.mark.parametrize("kappa", [0.0, 4.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 150])
    def test_proposal_scores_equal_log_score(self, n, kappa):
        # log phi_n - log q from (r, w) equals the score from the coordinates,
        # relative to the two terms (their difference can be 0 at n = 1)
        nu = np.zeros(n)
        nu[-1] = -1.0 if n == 1 else 1.0
        kernel = fitted_vmfn(VmfnParams(nu=nu, kappa=kappa, s=2.5, gamma=n))
        out = np.empty((300, n))
        scores = kernel.propose(np.zeros((300, n)), np.random.default_rng(11), out)
        log_phi, log_q = std_normal_log_pdf(out), vmfn_log_density(out, kernel.params)
        assert np.all(np.isfinite(scores))
        error = np.abs(scores - (log_phi - log_q))
        assert np.all(error <= 1e-12 * (np.abs(log_phi) + np.abs(log_q)))

    @pytest.mark.parametrize("kappa", [0.0, 4.0])
    @pytest.mark.parametrize("n", [1, 3, 150])
    def test_draw_into_rows_equals_sample_vmfn(self, n, kappa):
        # a row block of run_chains' buffer gets sample_vmfn's bits and stream
        nu = np.full(n, 1.0 / np.sqrt(n))
        params = VmfnParams(nu=nu, kappa=kappa, s=1.5, gamma=n)
        expected_rng, rng = np.random.default_rng(12), np.random.default_rng(12)
        expected = sample_vmfn(params, n, expected_rng, size=70)
        buffer = np.full((3 * 70 + 1, n), np.nan)
        fitted_vmfn(params).propose(buffer[:70], rng, buffer[71:141])
        assert np.array_equal(buffer[71:141], expected)
        assert np.isnan(buffer[:71]).all() and np.isnan(buffer[141:]).all()
        assert rng.bit_generator.state == expected_rng.bit_generator.state


# (model factory, target) pairs: tempering, bridging onto level 2, subset domain
BATCHING_CASES = {
    "linear-temper": (lambda: LinearLsfModel(2.0, 6), TemperingTarget(level=1, sigma=0.7)),
    "linear-bridge": (TwoLevelLinear, TemperingTarget(level=2, sigma=0.7, beta=0.4)),
    "linear-domain": (lambda: LinearLsfModel(2.0, 6), DomainTarget(level=1, threshold=1.5)),
    "diffusion1d-temper": (lambda: Diffusion1dModel(max_level=3),
                           TemperingTarget(level=3, sigma=0.01)),
    "diffusion1d-bridge": (lambda: Diffusion1dModel(max_level=3),
                           TemperingTarget(level=3, sigma=0.01, beta=0.6)),
    "flowcell-temper": (lambda: FlowCellModel(tau0=0.2, max_level=2),
                        TemperingTarget(level=2, sigma=0.05)),
    "flowcell-bridge": (lambda: FlowCellModel(tau0=0.2, max_level=2),
                        TemperingTarget(level=2, sigma=0.05, beta=0.6)),
    "flowcell-domain": (lambda: FlowCellModel(tau0=0.2, max_level=2),
                        DomainTarget(level=2, threshold=0.02)),
}


def weighted_seeds(model, target, n_pool, n_seeds, rng):
    """A pool at the target's finest level, its log weights and resampled seeds."""
    pool = rng.standard_normal((n_pool, model.dim(max(target.levels))))
    g = {lvl: model.evaluate_batch(pool[:, :model.dim(lvl)], lvl) for lvl in target.levels}
    log_w = target.log_smooth(g)
    idx = resample_multinomial(np.exp(log_w - log_w.max()), n_seeds, rng)
    return pool, log_w, pool[idx], {lvl: v[idx] for lvl, v in g.items()}


class TestIndependentProposalsBatched:
    """A vMFN step evaluated in one batch equals the lockstep one bit for bit.

    Every model's rows are bitwise the same in any batch, so the states,
    values, kernel statistics and random stream must all agree.
    """

    @pytest.mark.parametrize("burn_in", [0, 2])
    @pytest.mark.parametrize("case", sorted(BATCHING_CASES))
    def test_batched_equals_lockstep(self, case, burn_in):
        make_model, target = BATCHING_CASES[case]
        model = make_model()
        pool, log_w, seeds, seed_values = weighted_seeds(model, target, 300, 20,
                                                         np.random.default_rng(5))
        batched = VmfnIndependentKernel()
        batched.prepare(pool, log_w, 5)
        lockstep = fitted_vmfn(batched.params, LockstepVmfn)
        runs = []
        for kernel in (batched, lockstep):
            rng = np.random.default_rng(6)
            states, values = run_chains(model, target, kernel, seeds, seed_values,
                                        c=0.2, burn_in=burn_in, rng=rng)
            runs.append((states, values, kernel.stats, rng.bit_generator.state))
        (states_b, values_b, stats_b, rng_b), (states_l, values_l, stats_l, rng_l) = runs
        assert states_b.shape == (5 * 20, seeds.shape[1])
        assert np.array_equal(states_b, states_l)
        assert values_b.keys() == values_l.keys() == set(target.levels)
        for lvl in target.levels:
            assert np.array_equal(values_b[lvl], values_l[lvl])
        assert stats_b == stats_l
        assert stats_b.proposals == (5 + burn_in) * 20
        assert 0 < stats_b.accepted < stats_b.proposals
        assert rng_b == rng_l

    @pytest.mark.parametrize("burn_in", [0, 2])
    @pytest.mark.parametrize("target", [TemperingTarget(level=1, sigma=0.7),
                                        TemperingTarget(level=2, sigma=0.7, beta=0.4),
                                        DomainTarget(level=2, threshold=1.5)])
    def test_one_evaluation_per_level(self, target, burn_in):
        # at most one call per target level and iteration, none empty.  vMFN:
        # calls in the first iteration, and in all fewer rows than the
        # (burn_in + 1/c) * N * c proposals; aCS: calls in every iteration, of
        # N * c rows
        seeds_n, inv_c = 30, 4
        steps = burn_in + inv_c
        model = TwoLevelLinear()
        pool, log_w, seeds, seed_values = weighted_seeds(model, target, 400, seeds_n,
                                                         np.random.default_rng(8))
        for kernel in (VmfnIndependentKernel(), AcsKernel()):
            kernel.prepare(pool, log_w, inv_c)
            per_iteration = [[]]
            feedback = kernel.feedback

            def next_iteration(accepted):
                per_iteration[-1].extend(model.calls)
                per_iteration.append([])
                model.calls.clear()
                feedback(accepted)

            kernel.feedback = next_iteration
            model.calls.clear()
            run_chains(model, target, kernel, seeds, seed_values, c=1.0 / inv_c,
                       burn_in=burn_in, rng=np.random.default_rng(9))
            assert per_iteration.pop() == [] and model.calls == []
            assert len(per_iteration) == steps
            if isinstance(kernel, AcsKernel):
                assert per_iteration == [[(lvl, seeds_n) for lvl in target.levels]] * steps
                continue
            solving = [calls for calls in per_iteration if calls]
            assert per_iteration[0] and len(solving) > 1
            for calls in solving:
                assert calls == [(lvl, calls[0][1]) for lvl in target.levels]
                assert calls[0][1] > 0
            assert sum(calls[0][1] for calls in solving) < steps * seeds_n


class CutOffAcs(AcsKernel):
    """aCS on the target cut off at u_1 > 1: a proposal there scores -inf."""

    LAMBDA0 = 0.9

    def log_score(self, states):
        return np.where(states[:, 0] > 1.0, -np.inf, 0.0)


class NanBeyondOne(LinearLsfModel):
    """G(u) = 2 - u_1, and NaN where u_1 > 1; logs the rows of every batch."""

    def __init__(self):
        super().__init__(2.0, 3)
        self.solved = []

    def _evaluate_batch(self, xis, level):
        self.solved.append(xis.copy())
        return np.where(xis[:, 0] > 1.0, np.nan, super()._evaluate_batch(xis, level))


class TestContainedFailure:
    def test_proposals_that_cannot_be_accepted_are_never_solved(self, rng):
        # a proposal scored -inf fails every MH test, so the model never sees
        # the region where it cannot be evaluated
        model, kernel = NanBeyondOne(), CutOffAcs()
        seeds = rng.standard_normal((50, 3))
        seeds[:, 0] = np.minimum(seeds[:, 0], 1.0)
        drawn = []
        propose = kernel.propose

        def logged(current, rng, out):
            scores = propose(current, rng, out)
            drawn.append(out.copy())
            return scores

        kernel.propose = logged
        target = TemperingTarget(level=1, sigma=0.5)
        states, values = run_chains(model, target, kernel, seeds,
                                    {1: 2.0 - seeds[:, 0]}, c=0.25, burn_in=2, rng=rng)
        assert np.count_nonzero(np.vstack(drawn)[:, 0] > 1.0) > 50
        assert np.all(np.vstack(model.solved)[:, 0] <= 1.0)
        assert np.all(states[:, 0] <= 1.0)
        assert np.array_equal(values[1], 2.0 - states[:, 0])
        with pytest.raises(ModelEvaluationError):
            model.evaluate_batch(np.vstack(drawn), 1)


class TestExtendDimension:
    def test_zero_extension_is_identity(self, rng):
        u = rng.standard_normal((5, 3))
        assert np.array_equal(extend_dimension(u, 0, rng), u)

    def test_appended_marginal_standard_normal(self, rng):
        u = np.zeros((100_000, 2))
        out = extend_dimension(u, 1, rng)
        result = stats.kstest(out[:, 2], "norm")
        assert result.pvalue > 0.01

    def test_prefix_bit_exact(self, rng):
        u = rng.standard_normal((50, 4))
        out = extend_dimension(u, 3, rng)
        assert np.array_equal(out[:, :4], u)


class TestDetailedBalanceFlow:
    @pytest.mark.parametrize("kernel_name", ["acs", "vmfn"])
    def test_cross_bin_flows_balance(self, kernel_name, rng):
        # stationary chains on a 2D tempering target: transitions across the
        # median plane must balance within Monte Carlo error
        model = LinearLsfModel(1.0, 2)
        sigma = 1.0
        pool = rng.standard_normal((40_000, 2))
        g = model.evaluate_batch(pool, 1)
        log_w = tempering_log_weights(g, sigma, np.inf)
        kernel = make_kernel(kernel_name)
        kernel.prepare(pool, log_w, 100)
        idx = resample_multinomial(np.exp(log_w - log_w.max()), 1000, rng)
        target = TemperingTarget(level=1, sigma=sigma)
        states, _ = run_chains(model, target, kernel, pool[idx], {1: g[idx]},
                               c=0.01, burn_in=0, rng=rng)
        traj = states.reshape(100, 1000, 2)  # step-major
        side = traj[:, :, 0] > 0.0
        a_to_b = np.sum(~side[:-1] & side[1:])
        b_to_a = np.sum(side[:-1] & ~side[1:])
        total = a_to_b + b_to_a
        assert abs(a_to_b - b_to_a) < 3 * np.sqrt(total)


class TestTargets:
    def test_bridging_exponent_validated(self):
        with pytest.raises(ValueError):
            TemperingTarget(level=2, sigma=1.0, beta=0.0)

    def test_bridging_beta_one_skips_coarse(self):
        target = TemperingTarget(level=2, sigma=1.0, beta=1.0)
        assert target.levels == (2,)
        partial = TemperingTarget(level=2, sigma=1.0, beta=0.5)
        assert partial.levels == (1, 2)

    def test_bridging_interpolates(self):
        target = TemperingTarget(level=2, sigma=1.0, beta=0.25)
        g = {1: np.array([0.5]), 2: np.array([-0.5])}
        fine = TemperingTarget(level=2, sigma=1.0).log_smooth(g)
        coarse = TemperingTarget(level=1, sigma=1.0).log_smooth(g)
        assert target.log_smooth(g)[0] == pytest.approx(
            0.25 * fine[0] + 0.75 * coarse[0]
        )
