"""Subset simulation and its multilevel variant, used as baselines.

SuS splits the failure event into nested intermediate domains G <= b_j whose
thresholds are empirical quantiles; conditional samples come from pCN-style
chains restricted to the current domain.  The multilevel variant updates the
discretization level between subset steps; since domains on different levels
are not nested, every level update also estimates the reverse conditional
probability, which divides the estimator, from one coarse-level evaluation of
the ensemble its chains return.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mcmc import extend_dimension, run_chains
from .models import LimitStateModel, PinnedLevelModel, is_failure
from .errors import NonconvergenceError

MAX_SUBSET_LEVELS = 50
STALL_LIMIT = 3


@dataclass(frozen=True)
class DomainTarget:
    """Indicator target I(G_level <= threshold) * phi_n on one level."""

    level: int
    threshold: float

    @property
    def levels(self) -> tuple[int, ...]:
        return (self.level,)

    def log_smooth(self, g_by_level: dict[int, np.ndarray]) -> np.ndarray:
        g = np.asarray(g_by_level[self.level])
        return np.where(g <= self.threshold, 0.0, -np.inf)


@dataclass
class SubsetLevelRecord:
    level: int                 # discretization level of the domain
    threshold: float
    factor: float              # estimated P(B_j | B_{j-1})
    denominator: float = 1.0   # estimated P(B_{j-1} | B_j), multilevel only
    n_evals: int = 0


@dataclass
class SubsetTrace:
    records: list[SubsetLevelRecord] = field(default_factory=list)
    estimate: float = np.nan
    eval_counts: dict[int, int] = field(default_factory=dict)

    @property
    def n_levels(self) -> int:
        return len(self.records)

    @property
    def n_level_updates(self) -> int:
        return sum(1 for r in self.records if r.denominator != 1.0)

    def product(self) -> float:
        out = 1.0
        for r in self.records:
            out *= r.factor / r.denominator
        return out


def _validate_p0(n_samples: int, p0: float) -> int:
    if not (0.0 < p0 < 1.0):
        raise ValueError("p0 must lie in (0, 1)")
    n_seeds = round(p0 * n_samples)
    if abs(n_seeds - p0 * n_samples) > 1e-9 or n_seeds < 1:
        raise ValueError("p0 * N must be a positive integer")
    if abs(round(1.0 / p0) - 1.0 / p0) > 1e-9:
        raise ValueError("1/p0 must be an integer")
    return n_seeds


class _StallGuard:
    def __init__(self):
        self.last = np.inf
        self.count = 0

    def check(self, threshold: float) -> None:
        if threshold >= self.last:
            self.count += 1
            if self.count >= STALL_LIMIT:
                raise NonconvergenceError(
                    f"intermediate threshold stalled at {threshold:.6g}"
                )
        else:
            self.count = 0
        self.last = threshold


def sus_estimate(model: LimitStateModel, level: int, n_samples: int, p0: float,
                 kernel, burn_in: int, rng: np.random.Generator):
    """Subset simulation at a fixed discretization level.

    Runs the multilevel loop on a single-level view of the model, so its
    records report the view's level 1.  Unlike MLSuS, every subset step
    discards `burn_in` chain states.
    """
    return _subset_simulation(PinnedLevelModel(model, level), 1, n_samples, p0, kernel,
                              burn_in, rng, burn_in_every_step=True)


def mlsus_estimate(model: LimitStateModel, max_level: int, n_samples: int, p0: float,
                   kernel, burn_in: int, rng: np.random.Generator):
    """Multilevel subset simulation with one level update per subset step.

    The first subset forms on the coarsest level; each following step raises
    the discretization level by one until the finest is reached, estimating
    the non-nestedness denominator P(B_{j-1} | B_j) from one coarse-level
    evaluation of the refreshed ensemble.  Burn-in applies to the chains of
    level-update steps.
    """
    return _subset_simulation(model, max_level, n_samples, p0, kernel, burn_in, rng,
                              burn_in_every_step=False)


def _subset_simulation(model, max_level, n_samples, p0, kernel, burn_in, rng,
                       burn_in_every_step: bool):
    if not (1 <= max_level <= model.max_level):
        raise ValueError(f"max_level must lie in 1..{model.max_level}")
    n_seeds = _validate_p0(n_samples, p0)
    counts_before = model.counter.counts()
    trace = SubsetTrace()
    guard = _StallGuard()

    level = 1
    samples = rng.standard_normal((n_samples, model.dim(1)))
    g = model.evaluate_batch(samples, 1)
    prev_threshold: float | None = None

    for _ in range(MAX_SUBSET_LEVELS):
        evals_at = model.counter.total()
        is_update = prev_threshold is not None and level < max_level
        if is_update:
            # advance the discretization level for the next domain
            delta_n = model.dim(level + 1) - model.dim(level)
            samples = extend_dimension(samples, delta_n, rng)
            level += 1
            g_dom = model.evaluate_batch(samples, level)
        else:
            g_dom = g

        order = np.argsort(g_dom, kind="stable")
        threshold = float(g_dom[order[n_seeds - 1]])
        if threshold <= 0 and level == max_level and not is_update:
            # nested final step: plain conditional fraction
            frac = float(np.mean(is_failure(g_dom)))
            trace.records.append(SubsetLevelRecord(
                level=level, threshold=0.0, factor=frac,
                n_evals=model.counter.total() - evals_at,
            ))
            break
        threshold = max(threshold, 0.0)
        if threshold > 0:
            guard.check(threshold)
        factor = float(np.mean(g_dom <= threshold))

        seeds = order[:n_seeds]
        target = DomainTarget(level=level, threshold=threshold)
        kernel.prepare(samples, np.zeros(n_samples), model.dim(level), rng, round(1.0 / p0))
        step_burn_in = burn_in if (is_update or burn_in_every_step) else 0
        samples, values = run_chains(model, target, kernel, samples[seeds],
                                     {level: g_dom[seeds]}, p0, step_burn_in, rng)
        g = values[level]

        denominator = 1.0
        if is_update:
            # reverse conditional, read on the coarse level once the chains are done
            g_coarse = model.evaluate_batch(samples[:, :model.dim(level - 1)], level - 1)
            denominator = float(np.mean(g_coarse <= prev_threshold))
            if denominator <= 0:
                raise NonconvergenceError("zero reverse-conditional estimate")
        trace.records.append(SubsetLevelRecord(
            level=level, threshold=threshold, factor=factor,
            denominator=denominator, n_evals=model.counter.total() - evals_at,
        ))
        prev_threshold = threshold
    else:
        raise NonconvergenceError(f"no failure domain within {MAX_SUBSET_LEVELS} subsets")

    trace.estimate = trace.product()
    trace.eval_counts = model.counter.since(counts_before)
    return trace.estimate, trace
