"""Multilevel SIS: bridging between discretization levels and the update scheme.

A level update interpolates geometrically between the smoothed densities of
two consecutive levels with an exponent beta growing adaptively from 0 to 1.
The decision between tempering and bridging probes a small sample subset on
the next level; its fine-level evaluations are reused if bridging follows.
A level update that has not reached beta = 1 after MAX_BRIDGE_STEPS steps
fails, and so does a run that has not stopped after MAX_STEPS steps.
`solve_beta` returns the log weights at its root, and each bridging stage
moves the ensemble with `sis._reweight_and_move`, as tempering does.  Every
peek and stage is recorded as a step; a bridge's first stage is also charged
the extension's fine evaluations, at most N - N_s after a peek and N
otherwise.  The peek and the extension solve each distinct row once
(`evaluate_distinct`): where a level's dimension does not grow, the states
that chain rejections repeat are repeated rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._roots import _brent
from .distributions import std_normal_log_cdf
from .errors import NonconvergenceError
from .mcmc import TemperingTarget, cov_from_log_weights, extend_dimension
# unused here; perfbench/layers.py patches these two names on this module
from .mcmc import resample_multinomial, run_chains  # noqa: F401
from .models import LimitStateModel
from .sis import (
    EstimatorTrace,
    SampleEnsemble,
    TraceStep,
    _reweight_and_move,
    _seed_count,
    final_correction,
    run_sequence,
    stopping_cov,
    tempering_step,
)

MAX_BRIDGE_STEPS = 100
MAX_STEPS = 100


def bridging_log_ratios(g_coarse, g_fine, sigma: float) -> np.ndarray:
    """Per-sample log Phi(-G_fine/sigma) - log Phi(-G_coarse/sigma)."""
    return (std_normal_log_cdf(-np.asarray(g_fine, dtype=float) / sigma)
            - std_normal_log_cdf(-np.asarray(g_coarse, dtype=float) / sigma))


def solve_beta(g_coarse, g_fine, sigma: float, beta_prev: float,
               delta_target: float) -> tuple[float, float, bool, np.ndarray]:
    """Next bridging exponent in (beta_prev, 1]: the root of COV(w) = target.

    Returns exactly 1.0 whenever the full remaining step already satisfies the
    target.  Otherwise the COV rises from 0 at beta_prev to above the target
    at 1, so Brent's method, `_brent`, on [beta_prev, 1] finds the crossing.
    Returns (beta, realized_cov, hit_boundary, log_weights), the last being
    (beta - beta_prev) times `bridging_log_ratios` at the returned beta.
    """
    if not (0.0 <= beta_prev < 1.0):
        raise ValueError("beta_prev must lie in [0, 1)")
    ratios = bridging_log_ratios(g_coarse, g_fine, sigma)

    def delta_at(beta: float) -> float:
        return cov_from_log_weights((beta - beta_prev) * ratios)

    full = delta_at(1.0)
    if full <= delta_target:
        return 1.0, float(full), False, (1.0 - beta_prev) * ratios
    beta = _brent(lambda b: delta_at(b) - delta_target, beta_prev, 1.0, 1e-12)
    beta = float(max(beta, np.nextafter(beta_prev, 1.0)))
    log_w = (beta - beta_prev) * ratios
    span = 1.0 - beta_prev
    on_edge = (beta - beta_prev < 1e-3 * span) or (1.0 - beta < 1e-3 * span)
    return beta, cov_from_log_weights(log_w), bool(on_edge), log_w


@dataclass
class PeekCache:
    """Subset fine-level evaluations kept for reuse by a following bridge."""

    indices: np.ndarray       # positions within the ensemble
    extended: np.ndarray      # subset samples extended to the fine dimension
    g_fine: np.ndarray


def peek_level_update(model: LimitStateModel, ensemble: SampleEnsemble,
                      n_subset: int, rng: np.random.Generator):
    """COV of one-step level-update weights on a random subset.

    Draws `n_subset` samples without replacement, extends them to the next
    level's dimension if needed, and evaluates the fine level once per distinct
    subset sample.  Returns (delta, PeekCache).
    """
    if not (0 < n_subset < ensemble.size):
        raise ValueError("subset size must lie strictly between 0 and N")
    level = ensemble.level
    fine = level + 1
    idx = rng.choice(ensemble.size, size=n_subset, replace=False)
    subset = ensemble.samples[idx]
    delta_n = model.dim(fine) - model.dim(level)
    extended = extend_dimension(subset, delta_n, rng)
    g_fine = model.evaluate_distinct(extended, fine)
    log_w = bridging_log_ratios(ensemble.g[idx], g_fine, ensemble.sigma)
    return cov_from_log_weights(log_w), PeekCache(indices=idx, extended=extended, g_fine=g_fine)


def _extend_ensemble(model, ensemble, rng, peek_cache):
    """Lift the ensemble to the next level's dimension and evaluate it there.

    Cached peek rows keep their extension coordinates and fine values; only
    the complement is extended and evaluated, so a bridge after a peek costs
    at most N - N_s fine evaluations for this stage.
    """
    fine = ensemble.level + 1
    delta_n = model.dim(fine) - model.dim(ensemble.level)
    if peek_cache is None:
        samples = extend_dimension(ensemble.samples, delta_n, rng)
        return samples, model.evaluate_distinct(samples, fine)
    fresh = np.delete(np.arange(ensemble.size), peek_cache.indices)
    extended = extend_dimension(ensemble.samples[fresh], delta_n, rng)
    samples = np.empty((ensemble.size, model.dim(fine)))
    g_fine = np.empty(ensemble.size)
    samples[fresh] = extended
    g_fine[fresh] = model.evaluate_distinct(extended, fine)
    samples[peek_cache.indices] = peek_cache.extended
    g_fine[peek_cache.indices] = peek_cache.g_fine
    return samples, g_fine


def bridge_level(model: LimitStateModel, ensemble: SampleEnsemble, trace: EstimatorTrace,
                 delta_target: float, kernel, c: float, burn_in: int, rng: np.random.Generator,
                 peek_cache: PeekCache | None = None) -> SampleEnsemble:
    """Move the ensemble to the next level (Alg-2 style loop), recording each stage."""
    level = ensemble.level
    fine = level + 1
    sigma = ensemble.sigma
    if not np.isfinite(sigma):
        raise ValueError("bridging requires a tempered ensemble")
    samples, g_fine = _extend_ensemble(model, ensemble, rng, peek_cache)
    values = {level: ensemble.g, fine: g_fine}
    beta = 0.0
    for _ in range(MAX_BRIDGE_STEPS):
        beta, delta, boundary, log_w = solve_beta(values[level], values[fine], sigma,
                                                  beta, delta_target)
        target = TemperingTarget(level=fine, sigma=sigma, beta=beta)
        factor, samples, values = _reweight_and_move(model, target, kernel, samples, log_w,
                                                     values, c, burn_in, rng)
        trace.record(TraceStep(kind="bridge", level=fine, sigma=sigma, factor=factor,
                               beta=beta, delta=delta, boundary=boundary))
        if beta == 1.0:
            return SampleEnsemble(samples, values[fine], fine, sigma)
    raise NonconvergenceError(f"bridge did not reach beta=1 in {MAX_BRIDGE_STEPS} steps")


def _check_settings(n_samples: int, delta_target: float, c: float, burn_in: int,
                    subset_fraction: float, max_level: int) -> int:
    """The settings SIS and MLSIS accept; returns the peek subset size, 0 at one level."""
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if not (0 < delta_target < np.inf):
        raise ValueError("delta_target must be positive and finite")
    _seed_count(n_samples, c, burn_in)
    if max_level <= 1:
        return 0
    if not (0 < subset_fraction < 1):
        raise ValueError("subset fraction ns_frac must lie in (0, 1)")
    n_subset = max(1, round(subset_fraction * n_samples))
    if not n_subset < n_samples:
        raise ValueError(f"a peek subset of {n_subset} leaves no sample of N={n_samples} out")
    return n_subset


def mlsis_estimate(model: LimitStateModel, max_level: int, n_samples: int,
                   delta_target: float, kernel, c: float, rng: np.random.Generator,
                   subset_fraction: float = 0.1, burn_in: int = 0):
    """Multilevel SIS estimate following the tempering/bridging update scheme.

    Tempering always runs first; afterwards each iteration either tempers or
    bridges, after probing a subset on the next level when the scheme leaves
    the choice open.  The run ends once the stopping COV meets its target and
    the ensemble sits on the finest level.  Returns (probability, EstimatorTrace).
    """
    n_subset = _check_settings(n_samples, delta_target, c, burn_in, subset_fraction,
                               max_level)

    def advance(ensemble, trace):
        tempered = any(s.delta_wopt <= delta_target
                       for s in trace.steps if s.delta_wopt is not None)
        after_bridge = not trace.steps or trace.steps[-1].kind == "bridge"
        bridge, cache = tempered, None
        if not (tempered or ensemble.level == max_level or after_bridge):
            delta_peek, cache = peek_level_update(model, ensemble, n_subset, rng)
            bridge = delta_peek > delta_target
            trace.record(TraceStep(kind="peek", level=ensemble.level + 1,
                                   sigma=ensemble.sigma, delta=delta_peek, wasted=not bridge))
        args = (model, ensemble, trace, delta_target, kernel, c, burn_in, rng)
        ensemble = bridge_level(*args, peek_cache=cache) if bridge else tempering_step(*args)
        delta_wopt = trace.steps[-1].delta_wopt = stopping_cov(ensemble)
        final = (tempered or delta_wopt <= delta_target) and ensemble.level == max_level
        if final:
            trace.final_correction = final_correction(ensemble)
        return ensemble, final

    return run_sequence(model, max_level, n_samples, rng, advance, MAX_STEPS)
