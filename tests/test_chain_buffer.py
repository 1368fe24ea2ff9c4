"""The chains of both kernels keep their states in the one row buffer that
drew them and solve only the proposals that can still be accepted, and an
ensemble without a peek is extended in one call; both give the same bits as
the separate-array loops they replace, which this module keeps as
references.  The chain reference solves every proposal.
"""

import copy

import numpy as np
import pytest

from rareevent.fem1d import Diffusion1dModel
from rareevent.mcmc import (
    AcsKernel,
    TemperingTarget,
    VmfnIndependentKernel,
    extend_dimension,
    run_chains,
)
from rareevent.mlsis import _extend_ensemble
from rareevent.models import LimitStateModel
from rareevent.sis import SampleEnsemble, tempering_log_weights
from rareevent.subset import DomainTarget


class TwoLevelLinear(LimitStateModel):
    """G_l(u) = beta_l - u_1 - u_n / 4 on two levels of dimension 5 and 8;
    `solved` logs the level and the rows of every batch call."""

    def __init__(self):
        super().__init__((5, 8), cost_dim=1)
        self.solved = []

    def _evaluate_batch(self, xis, level):
        self.solved.append((level, xis.copy()))
        return (2.0, 2.4)[level - 1] - xis[:, 0] - 0.25 * xis[:, -1]


def reference_run_chains(model, target, kernel, seeds, seed_values, c, burn_in, rng,
                         passing=None):
    """`run_chains` with the kept states and values in arrays of their own,
    solving every proposal.

    `passing`, a list, receives each iteration's proposals whose test
    log u < (0 - log_smooth_cur) + (score_prop - score_cur) passes against
    their chain's current state: those that the bound log_smooth <= 0 leaves
    a chance of acceptance.
    """
    steps = burn_in + round(1.0 / c)
    current = np.array(seeds, dtype=float)
    m, n = current.shape
    values = {lvl: np.array(seed_values[lvl], dtype=float) for lvl in target.levels}
    states = np.empty(((steps - burn_in) * m, n))
    kept = {lvl: np.empty(states.shape[0]) for lvl in target.levels}
    log_smooth_cur = target.log_smooth(values)
    score_cur = kernel.log_score(current)
    batch = steps if kernel.STATE_INDEPENDENT else 1
    drawn = np.empty((batch * m, n))
    scores, uniforms = np.empty((batch, m)), np.empty((batch, m))
    for step in range(steps):
        slot = step % batch
        if slot == 0:
            for k in range(batch):
                scores[k] = kernel.propose(current, rng, drawn[k * m:(k + 1) * m])
                uniforms[k] = rng.uniform(size=m)
            drawn_values = {lvl: model.evaluate_batch(drawn[:, :model.dim(lvl)], lvl)
                            for lvl in target.levels}
        rows = slice(slot * m, (slot + 1) * m)
        proposals = drawn[rows]
        log_smooth_prop = target.log_smooth({lvl: v[rows] for lvl, v in drawn_values.items()})
        score_prop = scores[slot]
        log_alpha = log_smooth_prop - log_smooth_cur + (score_prop - score_cur)
        accept = np.log(uniforms[slot]) < log_alpha
        if passing is not None:
            bound = (0.0 - log_smooth_cur) + (score_prop - score_cur)
            passing.extend(proposals[np.log(uniforms[slot]) < bound])
        current[accept] = proposals[accept]
        log_smooth_cur = np.where(accept, log_smooth_prop, log_smooth_cur)
        score_cur = np.where(accept, score_prop, score_cur)
        for lvl in target.levels:
            values[lvl] = np.where(accept, drawn_values[lvl][rows], values[lvl])
        kernel.feedback(accept)
        if step >= burn_in:
            keep = slice((step - burn_in) * m, (step - burn_in + 1) * m)
            states[keep] = current
            for lvl in target.levels:
                kept[lvl][keep] = values[lvl]
    return states, kept


def reference_extend_ensemble(model, ensemble, rng):
    """`_extend_ensemble` without a peek cache, through the index scatter."""
    fine = ensemble.level + 1
    fresh = np.arange(ensemble.size)
    extended = extend_dimension(ensemble.samples[fresh],
                                model.dim(fine) - model.dim(ensemble.level), rng)
    samples = np.empty((ensemble.size, model.dim(fine)))
    g_fine = np.empty(ensemble.size)
    samples[fresh] = extended
    g_fine[fresh] = model.evaluate_batch(extended, fine)
    return samples, g_fine


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _chain_inputs(target, kernel, seed):
    """A fitted kernel, and 40 seeds drawn by tempering weight with their values."""
    model = TwoLevelLinear()
    rng = np.random.default_rng([41, seed])
    pool = rng.standard_normal((400, model.dim(target.level)))
    values = {lvl: model.evaluate_batch(pool[:, :model.dim(lvl)], lvl) for lvl in target.levels}
    log_w = tempering_log_weights(values[target.level], 0.8, np.inf)
    kernel.prepare(pool, log_w, 5)
    # a subset chain starts inside its domain
    w = np.exp(log_w) * (values[target.level] <= getattr(target, "threshold", np.inf))
    idx = rng.choice(pool.shape[0], size=40, p=w / w.sum())
    return model, pool[idx], {lvl: v[idx] for lvl, v in values.items()}


TARGETS = {
    "one level": TemperingTarget(level=1, sigma=0.8),
    "bridge": TemperingTarget(level=2, sigma=0.8, beta=0.4),
    "domain": DomainTarget(level=2, threshold=1.0),
}


@pytest.mark.parametrize("kernel_class", [VmfnIndependentKernel, AcsKernel])
@pytest.mark.parametrize("target", TARGETS.values(), ids=TARGETS.keys())
# (c, burn_in); the last is the MLSuS workload's aCS layout
@pytest.mark.parametrize("c, burn_in",
                         [(c, b) for b in (0, 1, 3) for c in (0.2, 1.0)] + [(0.1, 40)])
def test_chains_match_the_separate_array_loop(kernel_class, target, burn_in, c):
    kernel = kernel_class()
    model, seeds, seed_values = _chain_inputs(target, kernel, burn_in)
    ref_kernel = copy.deepcopy(kernel)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    model.solved.clear()
    states, values = run_chains(model, target, kernel, seeds, seed_values, c, burn_in, rng)
    solved, passing = list(model.solved), []
    model.solved.clear()
    ref_states, ref_values = reference_run_chains(model, target, ref_kernel, seeds,
                                                  seed_values, c, burn_in, ref_rng, passing)
    ref_solved = model.solved
    assert_same_bits(states, ref_states)
    assert values.keys() == ref_values.keys() == set(target.levels)
    for lvl in target.levels:
        assert_same_bits(values[lvl], ref_values[lvl])
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert kernel.stats == ref_kernel.stats
    assert states.shape[0] == round(seeds.shape[0] / c)
    # the reference solves every proposal, once per target level
    proposals = (burn_in + round(1.0 / c)) * seeds.shape[0]
    assert all(sum(len(rows) for lvl, rows in ref_solved if lvl == level) == proposals
               for level in target.levels)
    for level in target.levels:
        sent = [row.tobytes() for lvl, rows in solved if lvl == level for row in rows]
        assert len(sent) == len(set(sent))
        assert {row[:model.dim(level)].tobytes() for row in passing} <= set(sent)
    if kernel_class is AcsKernel:
        # an aCS proposal always passes: its score is 0 and log_smooth_cur <= 0
        assert [lvl for lvl, _ in solved] == [lvl for lvl, _ in ref_solved]
        for (_, rows), (_, ref_rows) in zip(solved, ref_solved):
            assert_same_bits(rows, ref_rows)


@pytest.mark.parametrize("level_dims", [None, (150, 150)], ids=["ldd", "fixed"])
def test_extension_without_peek_matches_the_scatter(level_dims):
    model = Diffusion1dModel(max_level=2, level_dims=level_dims)
    samples = np.random.default_rng(42).standard_normal((300, model.dim(1)))
    ensemble = SampleEnsemble(samples, model.evaluate_batch(samples, 1), 1, sigma=0.3)
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    extended, g_fine = _extend_ensemble(model, ensemble, rng, None)
    ref_extended, ref_g_fine = reference_extend_ensemble(model, ensemble, ref_rng)
    assert_same_bits(extended, ref_extended)
    assert_same_bits(g_fine, ref_g_fine)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(extended[:, :model.dim(1)], samples)
