"""Metropolis-Hastings machinery for the tempering/bridging targets.

`TemperingTarget` is the one smoothed target, the density
Phi(-G_l/sigma)^beta * Phi(-G_(l-1)/sigma)^(1-beta) * phi_n(u): beta = 1 is
tempering on level l, beta < 1 a bridge onto it.  Subset simulation's hard
indicator `subset.DomainTarget` sits beside it.  Kernels supply proposals
plus a per-state score holding whatever prior/proposal terms do not cancel
in the acceptance ratio.  Chains from all seeds advance in lockstep so every
iteration evaluates the limit state once per proposal and per involved
level, as one batched call.  The aCS kernel's tuning is fixed by its class
constants TARGET_RATE, ADAPT_FRACTION, RHO_BOUNDS and LAMBDA_BOUNDS.

Kernels implement `prepare(samples, log_weights, n_steps)`, `propose`,
`log_score` and `feedback`.  Tempering and bridging reach `run_chains` through
one weighted move, `sis._reweight_and_move`, fed by their solvers' weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    VmfnParams,
    fit_vmfn,
    sample_vmfn,
    std_normal_log_cdf,
    std_normal_log_pdf,
    vmfn_log_density,
)
from .errors import DegenerateWeightsError
from .models import LimitStateModel


def cov_of_weights(weights) -> float:
    """Coefficient of variation (population std / mean) of importance weights."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = w.sum()
    if not (total > 0):
        raise DegenerateWeightsError("all weights are zero")
    mean = total / w.size
    return float(np.sqrt(np.mean((w - mean) ** 2)) / mean)


def cov_from_log_weights(log_weights) -> float:
    """COV computed after a stabilizing shift; scale-invariant, overflow-safe."""
    lw = np.asarray(log_weights, dtype=float)
    m = lw.max()
    if m == -np.inf:
        raise DegenerateWeightsError("all weights are zero")
    return cov_of_weights(np.exp(lw - m))


def log_mean_exp(log_weights) -> float:
    lw = np.asarray(log_weights, dtype=float)
    m = lw.max()
    if m == -np.inf:
        return -np.inf
    return float(m + np.log(np.mean(np.exp(lw - m))))


def resample_multinomial(weights, count: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. categorical seed indices proportional to the weights."""
    if count < 1:
        raise ValueError("need at least one draw")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = w.sum()
    if not (total > 0) or not np.isfinite(total):
        raise DegenerateWeightsError("cannot resample from zero or non-finite weights")
    idx = rng.choice(w.size, size=count, p=w / total)
    if not np.all(w[idx] > 0):
        raise DegenerateWeightsError("zero-weight sample selected by resampling")
    return idx


def extend_dimension(samples, delta_n: int, rng: np.random.Generator) -> np.ndarray:
    """Append delta_n i.i.d. standard-normal coordinates to each sample."""
    if delta_n < 0:
        raise ValueError("delta_n must be >= 0")
    u = np.atleast_2d(np.asarray(samples, dtype=float))
    if delta_n == 0:
        return u
    extra = rng.standard_normal((u.shape[0], delta_n))
    return np.concatenate([u, extra], axis=1)


@dataclass(frozen=True)
class TemperingTarget:
    """Smooth part of p_(j,l) at beta = 1; of the bridge from level - 1 below 1."""

    level: int
    sigma: float
    beta: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ValueError("bridging exponent must lie in (0, 1]")

    @property
    def levels(self) -> tuple[int, ...]:
        if self.beta == 1.0:
            return (self.level,)
        return (self.level - 1, self.level)

    def log_smooth(self, g_by_level: dict[int, np.ndarray]) -> np.ndarray:
        fine = std_normal_log_cdf(-np.asarray(g_by_level[self.level]) / self.sigma)
        if self.beta == 1.0:
            return fine
        coarse = std_normal_log_cdf(-np.asarray(g_by_level[self.level - 1]) / self.sigma)
        return self.beta * fine + (1.0 - self.beta) * coarse


@dataclass
class KernelStats:
    proposals: int = 0
    accepted: int = 0
    rho: float | None = None

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals if self.proposals else 0.0


class AcsKernel:
    """Adaptive conditional sampler: pCN proposal with tuned correlation.

    The proposal rho*u + sqrt(1-rho^2)*eps leaves phi_n invariant, so prior
    and proposal terms cancel in the acceptance ratio.  The noise scale
    lambda is adjusted in Robbins-Monro fashion toward TARGET_RATE acceptance,
    once per ADAPT_FRACTION of a step's chain length; the adaptation state
    persists across tempering and bridging steps.
    """

    TARGET_RATE = 0.44
    ADAPT_FRACTION = 0.1
    RHO_BOUNDS = (0.001, 0.999)
    LAMBDA_BOUNDS = (1e-4, 2.0)  # keeps the scale responsive after saturation

    def __init__(self, lambda0: float = 0.6):
        self._lambda = float(lambda0)
        self._batch_index = 0
        self._pending: list[float] = []
        self._adapt_every = 1
        self.stats = KernelStats(rho=self._rho())

    def _rho(self) -> float:
        noise = min(self._lambda, 1.0 - 1e-12)
        rho = np.sqrt(1.0 - noise * noise)
        return float(min(max(rho, self.RHO_BOUNDS[0]), self.RHO_BOUNDS[1]))

    def prepare(self, samples, log_weights, n_steps: int) -> None:
        self._adapt_every = max(1, int(np.ceil(self.ADAPT_FRACTION * n_steps)))
        self._pending.clear()

    def propose(self, current: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        rho = self._rho()
        step = rng.standard_normal(current.shape)
        step *= np.sqrt(1.0 - rho * rho)
        step += rho * current
        return step

    def log_score(self, states) -> np.ndarray:
        # the pCN proposal is phi_n-reversible: nothing is left to score
        return np.zeros(states.shape[0])

    # unused here; perfbench/layers.py wraps this method on each kernel class
    def log_accept_extra(self, current, proposal) -> np.ndarray:
        return self.log_score(proposal) - self.log_score(current)

    def feedback(self, accepted: np.ndarray) -> None:
        n = int(np.count_nonzero(accepted))
        self.stats.proposals += accepted.size
        self.stats.accepted += n
        self._pending.append(n / accepted.size)
        if len(self._pending) >= self._adapt_every:
            self._batch_index += 1
            rate = float(np.mean(self._pending))
            self._pending.clear()
            step = (rate - self.TARGET_RATE) / np.sqrt(self._batch_index)
            proposal = self._lambda * np.exp(step)
            self._lambda = float(np.clip(proposal, *self.LAMBDA_BOUNDS))
            self.stats.rho = self._rho()


class VmfnIndependentKernel:
    """Independence sampler proposing from a vMFN fit of the weighted ensemble."""

    def __init__(self, params: VmfnParams | None = None):
        self.params = params
        self.stats = KernelStats()

    def prepare(self, samples, log_weights, n_steps: int) -> None:
        lw = np.asarray(log_weights, dtype=float)
        w = np.exp(lw - lw.max())
        self.params = fit_vmfn(np.asarray(samples), w)

    def propose(self, current: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return sample_vmfn(self.params, current.shape[1], rng, size=current.shape[0])

    def log_score(self, states) -> np.ndarray:
        # log phi_n - log q: the independence proposal's terms in the MH ratio
        return std_normal_log_pdf(states) - vmfn_log_density(states, self.params)

    # unused here; perfbench/layers.py wraps this method on each kernel class
    def log_accept_extra(self, current, proposal) -> np.ndarray:
        return self.log_score(proposal) - self.log_score(current)

    def feedback(self, accepted: np.ndarray) -> None:
        self.stats.proposals += accepted.size
        self.stats.accepted += int(np.count_nonzero(accepted))


_KERNELS = {"acs": AcsKernel, "vmfn": VmfnIndependentKernel}


def make_kernel(name: str):
    if name not in _KERNELS:
        raise ValueError(f"unknown kernel '{name}'; choose from {tuple(_KERNELS)}")
    return _KERNELS[name]()


def run_chains(model: LimitStateModel, target, kernel, seeds: np.ndarray,
               seed_values: dict[int, np.ndarray], c: float, burn_in: int,
               rng: np.random.Generator):
    """Advance one MH chain per seed for burn_in + 1/c lockstep iterations.

    Returns (states, values) where states stacks the post-burn-in iterations
    of every chain (count = len(seeds) / c) and values carries the cached
    limit-state evaluations per level of the target.  Seed values are reused,
    never recomputed; each iteration costs one batched model evaluation per
    target level.  The kernel scores the seeds and each batch of proposals
    once; accepted scores are carried like the limit-state values.  Callers
    check the layout (burn_in >= 0, integer 1/c) once, with `sis._seed_count`.
    """
    steps = burn_in + round(1.0 / c)
    begin = getattr(kernel, "begin_target", None)
    if begin is not None:
        begin(target)
    current = np.array(seeds, dtype=float)
    values = {lvl: np.array(seed_values[lvl], dtype=float) for lvl in target.levels}
    kept_states = []
    kept_values = {lvl: [] for lvl in target.levels}
    log_smooth_cur = target.log_smooth(values)
    score_cur = kernel.log_score(current)
    for step in range(steps):
        proposals = kernel.propose(current, rng)
        prop_values = {lvl: model.evaluate_batch(proposals[:, :model.dim(lvl)], lvl)
                       for lvl in target.levels}
        log_smooth_prop = target.log_smooth(prop_values)
        score_prop = kernel.log_score(proposals)
        log_alpha = log_smooth_prop - log_smooth_cur + (score_prop - score_cur)
        accept = np.log(rng.uniform(size=current.shape[0])) < log_alpha
        current[accept] = proposals[accept]
        log_smooth_cur = np.where(accept, log_smooth_prop, log_smooth_cur)
        score_cur = np.where(accept, score_prop, score_cur)
        for lvl in target.levels:
            values[lvl] = np.where(accept, prop_values[lvl], values[lvl])
        kernel.feedback(accept)
        if step >= burn_in:
            kept_states.append(current.copy())
            for lvl in target.levels:
                kept_values[lvl].append(values[lvl].copy())
    states = np.concatenate(kept_states, axis=0)
    out_values = {lvl: np.concatenate(kept_values[lvl]) for lvl in target.levels}
    return states, out_values
