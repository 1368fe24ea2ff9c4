"""Subset simulation and its multilevel variant, used as baselines.

SuS splits the failure event into nested intermediate domains G <= b_j whose
thresholds are empirical quantiles; conditional samples come from pCN-style
chains restricted to the current domain.  The multilevel variant updates the
discretization level between subset steps; since domains on different levels
are not nested, every level update also estimates the reverse conditional
probability, which divides the estimator, from one coarse-level evaluation of
the distinct states its chains return.  Both run on `sis.run_sequence` and
record "subset" steps and "update" (level-update) steps with
`EstimatorTrace.record`, which charges an update its extension (which also
solves each distinct state once), its chains and that coarse evaluation; the
hard indicator I(G <= b_j) takes the place of the smoothed one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonconvergenceError
from .mcmc import run_chains
from .mlsis import _extend_ensemble
from .models import LimitStateModel, PinnedLevelModel, is_failure
from .sis import SampleEnsemble, TraceStep, _seed_count, run_sequence

MAX_SUBSET_LEVELS = 50
STALL_LIMIT = 3


@dataclass(frozen=True)
class DomainTarget:
    """Indicator target I(G_level <= threshold) * phi_n on one level; log_smooth <= 0."""

    level: int
    threshold: float

    @property
    def levels(self) -> tuple[int, ...]:
        return (self.level,)

    def log_smooth(self, g_by_level: dict[int, np.ndarray]) -> np.ndarray:
        g = np.asarray(g_by_level[self.level])
        return np.where(g <= self.threshold, 0.0, -np.inf)


def _validate_p0(n_samples: int, p0: float, burn_in: int) -> int:
    if not p0 < 1.0:
        raise ValueError("p0 must lie in (0, 1)")
    return _seed_count(n_samples, p0, burn_in)


def _stalled(thresholds: list[float]) -> bool:
    """True when each of the last STALL_LIMIT positive thresholds failed to fall."""
    last = [t for t in thresholds if t > 0][-(STALL_LIMIT + 1):]
    return len(last) > STALL_LIMIT and all(b >= a for a, b in zip(last, last[1:]))


def sus_estimate(model: LimitStateModel, level: int, n_samples: int, p0: float,
                 kernel, burn_in: int, rng: np.random.Generator):
    """Subset simulation at a fixed discretization level.

    Runs the multilevel loop on a single-level view of the model, so its
    steps report the view's level 1.  Unlike MLSuS, every subset step
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
    n_seeds = _validate_p0(n_samples, p0, burn_in)

    def advance(ensemble, trace):
        prev_threshold = trace.steps[-1].threshold if trace.steps else None
        is_update = prev_threshold is not None and ensemble.level < max_level
        if is_update:
            # advance the discretization level for the next domain
            samples, g = _extend_ensemble(model, ensemble, rng, None)
            level = ensemble.level + 1
        else:
            samples, g, level = ensemble.samples, ensemble.g, ensemble.level

        order = np.argsort(g, kind="stable")
        threshold = float(g[order[n_seeds - 1]])
        if threshold <= 0 and level == max_level and not is_update:
            # nested final step: plain conditional fraction
            trace.record(TraceStep(kind="subset", level=level, threshold=0.0,
                                   factor=float(np.mean(is_failure(g)))))
            return ensemble, True
        threshold = max(threshold, 0.0)
        if _stalled([s.threshold for s in trace.steps] + [threshold]):
            raise NonconvergenceError(f"intermediate threshold stalled at {threshold:.6g}")
        factor = float(np.mean(g <= threshold))

        seeds = order[:n_seeds]
        target = DomainTarget(level=level, threshold=threshold)
        kernel.prepare(samples, np.zeros(n_samples), round(1.0 / p0))
        step_burn_in = burn_in if (is_update or burn_in_every_step) else 0
        samples, values = run_chains(model, target, kernel, samples[seeds],
                                     {level: g[seeds]}, p0, step_burn_in, rng)

        denominator = 1.0
        if is_update:
            # reverse conditional, read on the coarse level once the chains are done
            g_coarse = model.evaluate_distinct(samples[:, :model.dim(level - 1)], level - 1)
            denominator = float(np.mean(g_coarse <= prev_threshold))
            if denominator <= 0:
                raise NonconvergenceError("zero reverse-conditional estimate")
        trace.record(TraceStep(kind="update" if is_update else "subset", level=level,
                               threshold=threshold, factor=factor, denominator=denominator))
        return SampleEnsemble(samples, values[level], level), False

    return run_sequence(model, max_level, n_samples, rng, advance, MAX_SUBSET_LEVELS)
