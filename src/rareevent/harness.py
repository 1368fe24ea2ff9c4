"""Experiment harness: configuration, repetition management, statistics, CSV.

One invocation runs one configuration for a number of repetitions.  Each
repetition derives its generator from (master seed, repetition index), so
results are reproducible no matter how many workers execute them.  Error
repetitions (nonconvergence, degenerate weights) become error rows and are
excluded from the summary statistics with a reported count.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._blas import set_blas_threads
from .errors import RareEventError
from .fem1d import DEFAULT_LEVEL_DIMS, Diffusion1dModel
from .fem2d import DEFAULT_LEVEL_DIMS_2D, FlowCellModel
from .mcmc import _KERNELS, make_kernel
from .mlsis import _check_settings, _peek_count, mlsis_estimate
from .models import KL_TRUNCATION, LimitStateModel, LinearLsfModel, mc_estimate, mesh_size
from .sis import sis_estimate
from .subset import _validate_p0, mlsus_estimate, sus_estimate

# method name -> estimator call returning (estimate, n_temper, n_bridge); the
# subset methods report subset steps and level updates in those columns
_METHODS = {
    "mc": lambda model, cfg, rng: (mc_estimate(model, cfg.levels, cfg.n, rng), 0, 0),
    "sis": lambda model, cfg, rng: _counts(sis_estimate(
        model, cfg.levels, cfg.n, cfg.delta_target, make_kernel(cfg.kernel), cfg.c, rng,
        burn_in=cfg.n_b)),
    "mlsis": lambda model, cfg, rng: _counts(mlsis_estimate(
        model, cfg.levels, cfg.n, cfg.delta_target, make_kernel(cfg.kernel), cfg.c, rng,
        subset_fraction=cfg.ns_frac, burn_in=cfg.n_b)),
    "sus": lambda model, cfg, rng: _counts(sus_estimate(
        model, cfg.levels, cfg.n, cfg.p0, make_kernel(cfg.kernel), cfg.n_b, rng)),
    "mlsus": lambda model, cfg, rng: _counts(mlsus_estimate(
        model, cfg.levels, cfg.n, cfg.p0, make_kernel(cfg.kernel), cfg.n_b, rng)),
}


def _counts(result):
    estimate, trace = result
    return estimate, trace.n_temper, trace.n_bridge


# model name -> (finest level, builder from the config and its level dims or None)
_MODELS = {
    "linear": (1, lambda cfg, dims: LinearLsfModel(cfg.beta, 150)),
    "diffusion1d": (len(DEFAULT_LEVEL_DIMS), lambda cfg, dims: Diffusion1dModel(
        max_level=cfg.levels, level_dims=dims)),
    "flowcell2d": (len(DEFAULT_LEVEL_DIMS_2D), lambda cfg, dims: FlowCellModel(
        tau0=cfg.tau0, max_level=cfg.levels, level_dims=dims)),
}

MODELS = tuple(_MODELS)
METHODS = tuple(_METHODS)
KERNELS = tuple(_KERNELS)


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    method: str
    n: int
    levels: int = 1
    delta_target: float = 0.25
    kernel: str = "vmfn"
    c: float = 0.1
    p0: float = 0.1
    n_b: int = 0
    level_dims: str = "ldd"          # "ldd" or "fixed"
    ns_frac: float = 0.1
    reps: int = 1
    seed: int = 0
    beta: float = 3.5                # linear model only
    tau0: float = 0.03               # flow-cell threshold
    reference: float | None = None   # for relRMSE in the summary
    workers: int = 1
    stable_timing: bool = False      # write wall_ms as 0 for byte-stable output

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model '{self.model}'; choose from {MODELS}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method '{self.method}'; choose from {METHODS}")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel '{self.kernel}'; choose from {KERNELS}")
        if self.n < 1:
            raise ValueError("sample count must be positive")
        if self.reps < 1:
            raise ValueError("repetition count must be positive")
        if self.seed < 0:
            raise ValueError("master seed must be nonnegative")
        if self.levels < 1:
            raise ValueError("level count must be positive")
        if self.level_dims not in ("ldd", "fixed"):
            raise ValueError("level_dims must be 'ldd' or 'fixed'")
        max_levels = _MODELS[self.model][0]
        if self.levels > max_levels:
            raise ValueError(f"model '{self.model}' supports at most {max_levels} levels")
        build_model(self)
        if self.reference is not None and not (0 < self.reference < np.inf):
            raise ValueError("reference probability must be positive and finite")
        if self.method in ("sis", "mlsis"):
            _check_settings(self.n, self.delta_target, self.c, self.n_b)
            if self.method == "mlsis" and self.levels > 1:
                _peek_count(self.n, self.ns_frac)
        if self.method in ("sus", "mlsus"):
            if self.kernel != "acs":
                raise ValueError("subset methods use the acs kernel")
            _validate_p0(self.n, self.p0, self.n_b)
        if self.n_b < 0:
            raise ValueError("burn-in must be nonnegative")
        if self.workers < 1:
            raise ValueError("worker count must be positive")


@dataclass
class RunRecord:
    """One repetition: estimate, cost accounting and step counts."""

    run_id: str
    config: ExperimentConfig
    estimate: float = np.nan
    cost: float = np.nan
    n_temper: int = 0
    n_bridge: int = 0
    eval_counts: dict[int, int] = field(default_factory=dict)
    wall_ms: int = 0
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def cost_units(counts: dict[int, int], levels: int, cost_dim: int) -> float:
    """Level-weighted evaluation count: sum of count_l * (h_L / h_l)^cost_dim."""
    total = 0.0
    for level, count in counts.items():
        if not (1 <= level <= levels):
            raise ValueError(f"evaluation count at unknown level {level}")
        total += count * (mesh_size(levels) / mesh_size(level)) ** cost_dim
    return total


def rel_rmse(estimates, reference: float) -> float:
    """Root mean squared error relative to the reference probability."""
    if not (reference > 0):
        raise ValueError("reference probability must be positive")
    est = np.asarray(estimates, dtype=float)
    if est.size < 1:
        raise ValueError("need at least one estimate")
    return float(np.sqrt(np.mean((est - reference) ** 2)) / reference)


def build_model(config: ExperimentConfig) -> LimitStateModel:
    dims = (KL_TRUNCATION,) * config.levels if config.level_dims == "fixed" else None
    return _MODELS[config.model][1](config, dims)


def run_single(config: ExperimentConfig, rep: int) -> RunRecord:
    """One repetition with its derived seed; errors become error records."""
    rng = np.random.default_rng([config.seed, rep])
    model = build_model(config)
    record = RunRecord(run_id=str(rep), config=config)
    start = time.perf_counter()
    try:
        record.estimate, record.n_temper, record.n_bridge = _METHODS[config.method](
            model, config, rng)
    except RareEventError as exc:
        record.status = f"error:{type(exc).__name__}"
    record.eval_counts = model.counter.counts()
    record.cost = cost_units(record.eval_counts, config.levels, model.cost_dim)
    record.wall_ms = 0 if config.stable_timing else int(
        round(1000.0 * (time.perf_counter() - start))
    )
    return record


@dataclass
class ExperimentSummary:
    n_ok: int
    n_excluded: int
    mean: float
    std: float
    mean_cost: float
    relrmse: float | None

    def as_status(self) -> str:
        rel = "" if self.relrmse is None else f",relrmse={self.relrmse:.6g}"
        return (f"summary(n_ok={self.n_ok},excluded={self.n_excluded},"
                f"std={self.std:.6g}{rel})")


def summarize(records: list[RunRecord], reference: float | None) -> ExperimentSummary:
    ok = [r for r in records if r.ok]
    estimates = np.array([r.estimate for r in ok])
    costs = np.array([r.cost for r in ok])
    if estimates.size == 0:
        return ExperimentSummary(0, len(records), np.nan, np.nan, np.nan, None)
    rr = rel_rmse(estimates, reference) if reference else None
    return ExperimentSummary(
        n_ok=len(ok),
        n_excluded=len(records) - len(ok),
        mean=float(estimates.mean()),
        std=float(estimates.std()),
        mean_cost=float(costs.mean()),
        relrmse=rr,
    )


def _init_worker(slot, cpus: tuple[int, ...]) -> None:
    """Pool initializer: worker k starts on cpus[k] and runs one BLAS thread.

    A forked worker starts on its parent's CPU, where the scheduler may keep
    two busy workers for most of a second while a core idles, so it moves to
    a CPU of its own and then gets the whole set back.  The workers fill the
    cores, so every OpenBLAS loaded (found in /proc/self/maps) runs one thread.
    """
    with slot.get_lock():
        os.sched_setaffinity(0, {cpus[slot.value % len(cpus)]})
        slot.value += 1
    os.sched_setaffinity(0, cpus)
    set_blas_threads(1)


def run_experiment(config: ExperimentConfig) -> list[RunRecord]:
    """All repetitions of one configuration, in repetition order.

    The pool gets no more workers than there are repetitions or CPUs, and a
    run that would get one worker runs in this process.
    """
    config.validate()
    reps = range(config.reps)
    workers = min(config.workers, config.reps, os.cpu_count() or 1)
    if workers > 1:
        setup = {}
        if hasattr(os, "sched_getaffinity"):        # Linux
            setup = dict(initializer=_init_worker, initargs=(
                multiprocessing.Value("i", 0), tuple(sorted(os.sched_getaffinity(0)))))
        with ProcessPoolExecutor(max_workers=workers, **setup) as pool:
            return list(pool.map(run_single, [config] * config.reps, reps))
    return [run_single(config, rep) for rep in reps]


def csv_header(levels: int) -> str:
    evals = ",".join(f"evals_l{l}" for l in range(1, levels + 1))
    return ("run_id,method,model,N,delta_target,kernel,c,p0,L,level_dims,"
            f"estimate,cost_units,n_temper,n_bridge,{evals},wall_ms,status")


def _fmt(x: float) -> str:
    return format(x, ".12g")


def records_to_csv(records: list[RunRecord], summary: ExperimentSummary | None = None) -> str:
    """Render records (plus an optional summary row) with the stable schema."""
    if not records:
        raise ValueError("no records to write")
    config = records[0].config
    lines = [csv_header(config.levels)]

    def row(run_id, estimate, cost, n_temper, n_bridge, counts, wall_ms, status):
        evals = ",".join(str(counts.get(l, 0)) for l in range(1, config.levels + 1))
        return (f"{run_id},{config.method},{config.model},{config.n},"
                f"{_fmt(config.delta_target)},{config.kernel},{_fmt(config.c)},"
                f"{_fmt(config.p0)},{config.levels},{config.level_dims},"
                f"{_fmt(estimate)},{_fmt(cost)},{n_temper},{n_bridge},{evals},"
                f"{wall_ms},{status}")

    for r in records:
        lines.append(row(r.run_id, r.estimate, r.cost, r.n_temper, r.n_bridge,
                         r.eval_counts, r.wall_ms, r.status))
    if summary is not None:
        lines.append(row("summary", summary.mean, summary.mean_cost, 0, 0, {},
                         0, summary.as_status()))
    return "\n".join(lines) + "\n"


def write_csv(path: str, records: list[RunRecord],
              summary: ExperimentSummary | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(records_to_csv(records, summary))
