"""Sequential importance sampling: adaptive bandwidths, tempering, estimator.

The smoothed densities Phi(-G_l/sigma_j) phi_n approach the optimal
importance density as sigma decreases; each tempering step picks the next
sigma so the weight coefficient of variation matches its target, estimates
the normalizing-constant ratio from the weighted ensemble, then refreshes the
ensemble by resampling and MCMC moves.  Bandwidths are searched within
[SIGMA_MIN, SIGMA_MAX] = [1e-8, 1e8].  `solve_sigma` returns the log weights
at its root; `_reweight_and_move` moves by them, and bridging shares it.

`run_sequence` is the loop every sequential estimator runs: SIS and MLSIS
(`mlsis`) and subset simulation (`subset`) each pass it one step function.
All of them record their steps as `TraceStep`s with `EstimatorTrace.record`,
which charges each step its evaluations; no step function reads the counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._roots import _brent
from .distributions import std_normal_log_cdf
from .errors import DegenerateWeightsError, FailedTemperingError, NonconvergenceError
from .mcmc import (
    TemperingTarget,
    cov_from_log_weights,
    log_mean_exp,
    resample_multinomial,
    run_chains,
)
from .models import EvalCounter, LimitStateModel, PinnedLevelModel, is_failure

SIGMA_MIN = 1e-8
SIGMA_MAX = 1e8


@dataclass
class SampleEnsemble:
    """The particle population a sequential estimator moves from step to step."""

    samples: np.ndarray                  # (N, n_level)
    g: np.ndarray                        # cached limit-state values at `level`
    level: int
    sigma: float = np.inf

    @property
    def size(self) -> int:
        return self.samples.shape[0]


@dataclass
class TraceStep:
    """One step of a sequential estimator, in estimator order.

    `factor / denominator` is the step's share of the estimate: a smoothed
    S-hat for tempering and bridging, a conditional fraction P(B_j | B_j-1)
    over a reverse conditional P(B_j-1 | B_j) for subset steps.
    """

    kind: str                            # "temper" | "bridge" | "peek" | "subset" | "update"
    level: int
    sigma: float | None = None
    factor: float | None = None
    denominator: float = 1.0
    threshold: float | None = None       # subset domain G <= threshold
    beta: float | None = None
    delta: float | None = None           # realized weight COV of the step
    boundary: bool = False               # root on the search-interval edge
    delta_wopt: float | None = None      # stopping COV after the step
    n_evals: int = 0                     # model evaluations spent by this step
    wasted: bool = False                 # peek evaluations not reused by a bridge


@dataclass
class EstimatorTrace:
    """Step records whose factors times the final correction give the estimate.

    `record` charges each step what `counter` tallied since the previous one;
    `run_sequence` drops the counter at the end, so a finished trace pickles.
    """

    counter: EvalCounter | None
    steps: list[TraceStep] = field(default_factory=list)
    final_correction: float = 1.0
    estimate: float = np.nan
    eval_counts: dict[int, int] = field(default_factory=dict)
    _evals_at: int = field(init=False)

    def __post_init__(self):
        self._evals_at = self.counter.total()

    def record(self, step: TraceStep) -> None:
        """Charge `step` the evaluations since the last record, then append it."""
        evals = self.counter.total()
        step.n_evals = evals - self._evals_at
        self._evals_at = evals
        self.steps.append(step)

    def product(self) -> float:
        out = 1.0
        for s in self.steps:
            if s.factor is not None:
                out *= s.factor / s.denominator
        return out * self.final_correction

    @property
    def n_temper(self) -> int:
        """Tempering steps, or every subset step of subset simulation."""
        return sum(1 for s in self.steps if s.kind in ("temper", "subset", "update"))

    @property
    def n_bridge(self) -> int:
        """Bridging steps, or the level updates of subset simulation."""
        return sum(1 for s in self.steps if s.kind in ("bridge", "update"))


def tempering_log_weights(g, sigma: float, sigma_prev: float) -> np.ndarray:
    """log of Phi(-G/sigma) / Phi(-G/sigma_prev); the first step has no denominator."""
    logw = std_normal_log_cdf(-np.asarray(g, dtype=float) / sigma)
    if np.isfinite(sigma_prev):
        logw = logw - std_normal_log_cdf(-np.asarray(g, dtype=float) / sigma_prev)
    return logw


def solve_sigma(g, sigma_prev: float, delta_target: float):
    """Next tempering bandwidth: the root of COV(w) = target in [SIGMA_MIN, sigma_prev).

    The weight COV vanishes at sigma_prev and grows as sigma shrinks, with
    the whole transition often squeezed into a thin sliver below sigma_prev,
    so the crossing is first bracketed by a geometric walk down from
    sigma_prev and then found by Brent's method, `_brent`, in log sigma.
    From sigma_prev = inf the walk starts near the large-sigma root instead,
    after stepping up from there while the COV is not yet below the target.
    When the COV stays below the target down to SIGMA_MIN, the walk's last
    point exp(log SIGMA_MIN) is returned as a boundary value.  Reuses cached
    limit-state values only.  Returns (sigma, realized_cov, hit_boundary,
    log_weights), the last two at sigma.
    """
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("limit-state values must be finite")
    if not (sigma_prev > 0):
        raise ValueError("previous bandwidth must be positive")
    hi = min(sigma_prev, SIGMA_MAX)
    if hi <= SIGMA_MIN:
        raise FailedTemperingError("bandwidth interval collapsed below SIGMA_MIN")
    log_prev = std_normal_log_cdf(-g / sigma_prev) if np.isfinite(sigma_prev) else 0.0

    def log_w_at(sigma: float) -> np.ndarray:
        return std_normal_log_cdf(-g / sigma) - log_prev

    def cov_of(log_w: np.ndarray) -> float:
        try:
            return cov_from_log_weights(log_w)
        except DegenerateWeightsError:
            return np.inf

    log_lo, log_hi = np.log(SIGMA_MIN), np.log(hi)
    # walk down from sigma_prev until the COV reaches its target
    step = 0.5 * np.log(2.0)
    x_above, x = None, log_hi
    if not np.isfinite(sigma_prev) and (spread := float(np.std(g))) > 0:
        # for large sigma the COV is about 0.8 std(g) / sigma: start three
        # steps above std(g) / target, and step up until the COV is below it
        x_start = np.log(spread / delta_target) + 3 * step
        while log_lo < x_start < log_hi and cov_of(log_w_at(np.exp(x_start))) >= delta_target:
            x_start += step
        if log_lo < x_start < log_hi:
            x_above, x = x_start, max(x_start - step, log_lo)
    while (delta := cov_of(log_w_at(np.exp(x)))) < delta_target:
        if x == log_lo:
            # COV below target everywhere: the walk's last point is the boundary value
            sigma = float(np.exp(x))
            return sigma, float(delta), True, log_w_at(sigma)
        x_above, x = x, max(x - step, log_lo)
    if x_above is not None:     # else the COV reaches the target at hi already
        x = _brent(lambda t: cov_of(log_w_at(np.exp(t))) - delta_target, x, x_above, 1e-10)
    sigma = float(np.exp(x))
    if np.isfinite(sigma_prev):
        sigma = min(sigma, sigma_prev * (1.0 - 1e-12))
    log_w = log_w_at(sigma)
    delta = cov_of(log_w)
    if not np.isfinite(delta):
        raise FailedTemperingError("no bandwidth produced usable weights")
    span = log_hi - log_lo
    on_edge = (x - log_lo < 1e-3 * span) or (log_hi - x < 1e-3 * span)
    return sigma, float(delta), bool(on_edge), log_w


def tempering_step(model: LimitStateModel, ensemble: SampleEnsemble, trace: EstimatorTrace,
                   delta_target: float, kernel, c: float, burn_in: int,
                   rng: np.random.Generator) -> SampleEnsemble:
    """One tempering update, recorded on `trace`: new sigma, then the weighted move to it."""
    level = ensemble.level
    sigma, delta, boundary, log_w = solve_sigma(ensemble.g, ensemble.sigma, delta_target)
    if np.isfinite(ensemble.sigma) and not sigma < ensemble.sigma:
        raise FailedTemperingError(
            f"bandwidth schedule must strictly decrease: {sigma} after {ensemble.sigma}")
    factor, states, values = _reweight_and_move(
        model, TemperingTarget(level=level, sigma=sigma), kernel, ensemble.samples,
        log_w, {level: ensemble.g}, c, burn_in, rng)
    trace.record(TraceStep(kind="temper", level=level, sigma=sigma, factor=factor,
                           delta=delta, boundary=boundary))
    return SampleEnsemble(states, values[level], level, sigma)


def _reweight_and_move(model: LimitStateModel, target, kernel, samples: np.ndarray,
                       log_w: np.ndarray, values: dict[int, np.ndarray], c: float,
                       burn_in: int, rng: np.random.Generator):
    """The weighted move of a tempering or bridging step toward `target`.

    S-hat is the mean of the solver's weights `log_w`; the kernel is fitted to
    the weighted `samples`, and N*c seeds, drawn by weight with their cached
    `values` by level, run chains of burn_in + 1/c steps, a layout the
    estimator checked with `_seed_count`.  Returns (S-hat, states, values).
    """
    log_factor = log_mean_exp(log_w)
    if not -745.13 < log_factor < 709.78:    # else exp gives 0 or inf, and the estimate 0 * inf
        raise DegenerateWeightsError(f"step factor exp({log_factor:.6g}) is 0 or not finite")
    kernel.prepare(samples, log_w, n_steps=round(1.0 / c))
    idx = resample_multinomial(np.exp(log_w - log_w.max()), round(c * len(samples)), rng)
    seed_values = {lvl: values[lvl][idx] for lvl in target.levels}
    states, values = run_chains(model, target, kernel, samples[idx], seed_values,
                                c, burn_in, rng)
    return float(np.exp(log_factor)), states, values


def _seed_count(n: int, c: float, burn_in: int) -> int:
    """N*c, once the chain layout is checked: N*c seeds, each run burn_in + 1/c steps."""
    if burn_in < 0:
        raise ValueError("burn-in must be nonnegative")
    if not (0.0 < c <= 1.0):
        raise ValueError(f"seed fraction {c} must lie in (0, 1]")
    inv_c = round(1.0 / c)
    if abs(inv_c * c - 1.0) > 1e-9:
        raise ValueError(f"seed fraction {c} must be 1/k for an integer k")
    n_seeds = round(c * n)
    if abs(n_seeds - c * n) > 1e-9 or n_seeds < 1:
        raise ValueError(f"seed fraction {c} times N={n} must be a positive integer")
    return n_seeds


def optimal_log_weights(ensemble: SampleEnsemble) -> np.ndarray:
    """log of I(G<=0) / Phi(-G/sigma), the weights toward the optimal density."""
    g = ensemble.g
    log_w = np.full(g.shape, -np.inf)
    fail = is_failure(g)
    log_w[fail] = -std_normal_log_cdf(-g[fail] / ensemble.sigma)
    return log_w


def stopping_cov(ensemble: SampleEnsemble) -> float:
    """COV of the optimal-density weights; +inf while no sample fails."""
    if not np.isfinite(ensemble.sigma):
        raise ValueError("stopping rule needs a tempered ensemble")
    log_w = optimal_log_weights(ensemble)
    if np.all(np.isneginf(log_w)):
        return np.inf
    return cov_from_log_weights(log_w)


def final_correction(ensemble: SampleEnsemble) -> float:
    """Mean optimal-density weight: the last factor of the estimator; 0 while no sample fails."""
    return float(np.exp(log_mean_exp(optimal_log_weights(ensemble))))


def run_sequence(model: LimitStateModel, max_level: int, n_samples: int,
                 rng: np.random.Generator, advance, max_steps: int):
    """The sequential estimator loop shared by SIS, MLSIS, SuS and MLSuS.

    Draws and evaluates N level-1 samples, then calls
    `advance(ensemble, trace) -> (ensemble, final)` until a call reports its
    steps final.  `advance` records its steps on the trace, which is built
    after the level-1 draw, reads the run so far from it and may set its
    `final_correction`.  Returns (probability, EstimatorTrace) with the
    estimate rebuilt from the steps.
    """
    if not (1 <= max_level <= model.max_level):
        raise ValueError(f"max_level must lie in 1..{model.max_level}")
    counts_before = model.counter.counts()
    samples = rng.standard_normal((n_samples, model.dim(1)))
    ensemble = SampleEnsemble(samples, model.evaluate_batch(samples, 1), level=1)
    del samples                     # once `advance` replaces the ensemble, the draw is freed
    trace = EstimatorTrace(model.counter)
    final = False
    while not final:
        if len(trace.steps) >= max_steps:
            raise NonconvergenceError(f"no convergence within {max_steps} steps")
        ensemble, final = advance(ensemble, trace)
    trace.estimate = trace.product()
    trace.eval_counts = model.counter.since(counts_before)
    trace.counter = None
    return trace.estimate, trace


def sis_estimate(model: LimitStateModel, level: int, n_samples: int,
                 delta_target: float, kernel, c: float, rng: np.random.Generator,
                 burn_in: int = 0):
    """Single-level SIS estimate at one discretization level.

    Runs the multilevel loop degenerately on a single-level view of the
    model, so a one-level multilevel run reproduces it draw for draw.
    """
    from .mlsis import mlsis_estimate

    return mlsis_estimate(PinnedLevelModel(model, level), 1, n_samples, delta_target,
                          kernel, c, rng, burn_in=burn_in)
