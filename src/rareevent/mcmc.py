"""Metropolis-Hastings machinery for the tempering/bridging targets.

`TemperingTarget` is the one smoothed target, the density
Phi(-G_l/sigma)^beta * Phi(-G_(l-1)/sigma)^(1-beta) * phi_n(u): beta = 1 is
tempering on level l, beta < 1 a bridge onto it.  Subset simulation's hard
indicator `subset.DomainTarget` sits beside it.  Kernels supply proposals
plus a per-state score holding whatever prior/proposal terms do not cancel
in the acceptance ratio.  The chains of both kernels advance in lockstep in
one row buffer: a proposal is drawn into it and scored as it is drawn (vMFN
from the radius and cosine of its draw, O(1) per row), solved only if its
accept test reads the value (every target's `log_smooth` is <= 0, so a
proposal failing the MH test with 0 in its place is rejected unsolved; a
vMFN proposal is solved ahead of its iteration only if it passes against
every state its chain can still hold), its `log_smooth` computed once when
solved, and overwritten by its kept state once swept.  The aCS kernel's
tuning is fixed by its class constants TARGET_RATE, ADAPT_FRACTION,
RHO_BOUNDS and LAMBDA_BOUNDS.

Kernels declare the class attribute STATE_INDEPENDENT and implement
`prepare(samples, log_weights, n_steps)`, `propose(current, rng, out)`,
which writes the proposals into `out` and returns their scores,
`log_score(states)`, called for the seeds only, and `feedback(accepted)`.
Tempering and bridging reach `run_chains` through one weighted move,
`sis._reweight_and_move`, fed by their solvers' weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (  # noqa: F401  sample_vmfn: perfbench/layers.py wraps it here
    VmfnParams,
    draw_vmfn,
    fit_vmfn,
    sample_vmfn,
    std_normal_log_cdf,
    std_normal_log_pdf,
    vmfn_log_density,
    vmfn_log_density_polar,
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
    """Smooth part of p_(j,l), bridged from level - 1 when beta < 1; log_smooth <= 0."""

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

    STATE_INDEPENDENT = False  # a proposal starts from the chain's current state
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

    def propose(self, current: np.ndarray, rng: np.random.Generator,
                out: np.ndarray) -> np.ndarray:
        rho = self._rho()
        rng.standard_normal(out=out)
        out *= np.sqrt(1.0 - rho * rho)
        out += rho * current
        return self.log_score(out)

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

    STATE_INDEPENDENT = True  # proposals ignore the chain: run_chains batches a whole step

    def __init__(self, params: VmfnParams | None = None):
        self.params = params
        self.stats = KernelStats()

    def prepare(self, samples, log_weights, n_steps: int) -> None:
        lw = np.asarray(log_weights, dtype=float)
        w = np.exp(lw - lw.max())
        self.params = fit_vmfn(np.asarray(samples), w)

    def propose(self, current: np.ndarray, rng: np.random.Generator,
                out: np.ndarray) -> np.ndarray:
        r, w = draw_vmfn(self.params, rng, out)
        # log_score of the rows drawn, from the radius and cosine they were built from
        return (-0.5 * (r * r) - 0.5 * out.shape[1] * np.log(2.0 * np.pi)
                - vmfn_log_density_polar(r, w, self.params))

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
    never recomputed.  Both kernels use one buffer of m-row blocks: an
    iteration draws its proposals into a block, then its uniforms, and a kept
    iteration writes its states and values over them once swept.  A
    STATE_INDEPENDENT kernel draws every iteration up front; any other kernel
    draws one at a time, its burn-in into the first kept block.  The kernel
    scores the seeds with `log_score` and each proposal as it draws it;
    accepted scores are carried like the limit-state values.  Callers check
    the layout (burn_in >= 0, integer 1/c) once, with `sis._seed_count`.

    A proposal with log u >= (0 - log_smooth_cur) + (score_prop - score_cur)
    is rejected whatever its value, as log_smooth <= 0.  When the current
    block holds an unsolved proposal that passes, one call per target level
    solves it with each unsolved later proposal that passes against every
    state its chain can hold by then: the current one, or a proposal of the
    chain drawn in between, at its log_smooth if solved and at 0 if not.  The
    rest wait for their own iteration, so the rows solved are exactly those
    whose accept test reads a value.  A proposal's log_smooth is computed
    when it is solved, and is -inf, which rejects it, until then.
    """
    steps = burn_in + round(1.0 / c)
    current = np.array(seeds, dtype=float)
    m, n = current.shape
    values = {lvl: np.array(seed_values[lvl], dtype=float) for lvl in target.levels}
    log_smooth_cur = target.log_smooth(values)
    score_cur = kernel.log_score(current)
    # iterations drawn at once: all of them when no proposal reads the state
    batch = steps if kernel.STATE_INDEPENDENT else 1
    # iteration k draws into, and is kept in, block max(k - lag, 0); a one-block
    # draw's burn-in shares block 0 with the first kept iteration
    blocks = max(batch, steps - burn_in)
    lag = steps - blocks
    drawn = np.empty((blocks * m, n))
    drawn_values = {lvl: np.empty(blocks * m) for lvl in target.levels}
    scores, log_u = np.empty((blocks, m)), np.empty((blocks, m))
    log_smooth, solved = np.empty((blocks, m)), np.empty((blocks, m), dtype=bool)
    beyond = ~np.tri(batch - 1, batch, 1, dtype=bool)[..., None]  # bound[k, j] for j > k + 1
    for step in range(steps):
        block = max(step - lag, 0)
        rows = slice(block * m, (block + 1) * m)
        if step % batch == 0:
            end = block + batch
            for k in range(block, end):
                scores[k] = kernel.propose(current, rng, drawn[k * m:(k + 1) * m])
                log_u[k] = np.log(rng.uniform(size=m))
            solved[block:end], log_smooth[block:end] = False, -np.inf
        ahead = slice(block, end)
        wanted = ~solved[ahead]
        # log_smooth <= 0, so a proposal failing this test is rejected unsolved
        wanted[0] &= log_u[block] < (0.0 - log_smooth_cur) + (scores[block] - score_cur)
        if wanted[0].any():
            if end - block > 1:
                # bound[k, j]: the test above, its sum commuted (same bits), against
                # the current state (j = 0) or the proposal of block + j - 1, which
                # iteration block + 1 + k can hold if j <= k + 1
                held, fut, later = slice(block, end - 1), slice(block + 1, end), end - block - 1
                bound = scores[fut, None] - np.concatenate((score_cur[None], scores[held]))
                held_ls = np.where(solved[held], log_smooth[held], 0.0)
                bound += 0.0 - np.concatenate((log_smooth_cur[None], held_ls))
                np.copyto(bound, np.inf, where=beyond[:later, :later + 1])
                wanted[1:] &= log_u[fut] < bound.min(axis=1)
            part = slice(block * m, end * m) if wanted.all() else block * m + np.flatnonzero(wanted)
            passing = drawn[part]  # a view for a slice, one gathered copy for all levels
            for lvl in target.levels:
                drawn_values[lvl][part] = model.evaluate_batch(passing[:, :model.dim(lvl)], lvl)
            del passing  # no gathered copy outlives its solve
            log_smooth.reshape(-1)[part] = target.log_smooth(
                {lvl: v[part] for lvl, v in drawn_values.items()})
            solved[ahead] |= wanted
        log_smooth_prop, score_prop = log_smooth[block], scores[block]
        log_alpha = log_smooth_prop - log_smooth_cur + (score_prop - score_cur)
        accept = log_u[block] < log_alpha
        current[accept] = drawn[rows][accept]
        log_smooth_cur = np.where(accept, log_smooth_prop, log_smooth_cur)
        score_cur = np.where(accept, score_prop, score_cur)
        for lvl in target.levels:
            values[lvl] = np.where(accept, drawn_values[lvl][rows], values[lvl])
        kernel.feedback(accept)
        if step >= burn_in:
            drawn[rows] = current
            for lvl in target.levels:
                drawn_values[lvl][rows] = values[lvl]
    first = (burn_in - lag) * m
    return drawn[first:], {lvl: v[first:] for lvl, v in drawn_values.items()}
