"""The benchmark workloads: what a repetition runs and what it must return.

Every workload is a closed loop: the next repetition starts when the previous
one returns.  Repetition r of a run with seed s draws from
``numpy.random.default_rng([s, r])`` (the CLI workload numbers its calls, see
`CliWorkload`).  A seed therefore fixes the work of a run exactly, and so do
the estimates and ``cost_units`` it produces.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from rareevent import (
    Diffusion1dModel,
    FlowCellModel,
    LinearLsfModel,
    RareEventError,
    cli,
    cost_units,
    make_kernel,
    mlsis_estimate,
    sis_estimate,
)

# acceptance-suite references, used as they stand (tests/test_acceptance.py)
EXACT_LINEAR = 2.326290790355250e-04      # Phi(-3.5)
DIFFUSION_1D_REFERENCE = 1.524e-4         # crude MC, h=1/512, N=1e7
FLOWCELL_FIXTURE = 1.063333e-2            # crude MC, level 3, tau0=0.2


REFERENCE_PROBE_S = 0.030   # `speed_probe` time that defines reference speed
_PROBE_DATA = np.random.default_rng(0).standard_normal((2000, 150))


def speed_probe() -> float:
    """Seconds for a fixed piece of numpy work (about 30 ms).

    On a shared 2-vCPU VM the speed drifts by up to 2x within tens of
    seconds, and repetition times follow it, so the in-process workloads
    scale each repetition by the probe times taken around it.  Of the probes
    tried there (interpreter loop, elementwise numpy, BLAS matmul), this one
    tracked the estimators best: correlation 0.7-0.9 per repetition.
    """
    start = time.perf_counter()
    for _ in range(25):
        x = np.exp(-0.5 * _PROBE_DATA)
        np.sort((x * x).sum(axis=1))
    return time.perf_counter() - start


@dataclass
class Rep:
    """Outcome of one repetition."""

    index: int
    estimate: float
    status: str                      # "ok" or "error:<ExceptionType>"
    wall_s: float
    cost_units: float
    eval_counts: dict[int, int]
    n_temper: int = 0                # subset levels for the subset method
    n_bridge: int = 0                # level updates for the subset method
    peek_evals: int = 0
    peek_wasted_evals: int = 0
    probe_s: float | None = None     # mean `speed_probe` time around the repetition

    @property
    def failed(self) -> bool:
        return (self.status != "ok" or not math.isfinite(self.estimate)
                or self.estimate <= 0)

    @property
    def scaled_s(self) -> float:
        """Wall time at reference speed (unscaled when no probe was taken)."""
        if self.probe_s is None:
            return self.wall_s
        return self.wall_s * REFERENCE_PROBE_S / self.probe_s


@dataclass
class Run:
    """The repetitions of one loop and its wall time, excluding speed probes."""

    reps: list[Rep]
    wall_s: float
    scaled_s: float                  # wall time at reference speed
    cli_calls: int = 0               # `cli.main` calls the run made


@dataclass(frozen=True)
class Workload:
    """One estimator configuration and the reference its mean must meet."""

    name: str
    method: str
    reference: float
    tolerance: float                 # largest relative error of the run mean
    seconds_per_rep: float           # --seconds buys round(seconds / seconds_per_rep) reps
    make_model: Callable[[], Any]
    setup_levels: tuple[int, ...]    # levels evaluated once during set-up
    levels: int                      # finest level L of the cost model
    n_samples: int
    min_reps: int = 3
    workers: int = 1

    def reps_for(self, seconds: float) -> int:
        """Repetitions of a run: fixed by --seconds, so a seed fixes the work."""
        n = max(self.min_reps, round(seconds / self.seconds_per_rep))
        return -(-n // self.workers) * self.workers

    def setup(self):
        """Build the model and evaluate every level the workload uses once."""
        model = self.make_model()
        for level in self.setup_levels:
            model.evaluate_batch(np.zeros((1, model.dim(level))), level)
        return model

    def run(self, model, seed: int, n_reps: int, workdir: str) -> Run:
        """Repetitions 0..n_reps-1 of the workload."""
        raise NotImplementedError


@dataclass(frozen=True)
class EstimatorWorkload(Workload):
    """Calls an estimator directly on the model built during set-up."""

    # (model, n_samples, kernel, rng) -> (estimate, EstimatorTrace)
    estimate: Callable[..., Any] = field(default=None)

    def run(self, model, seed, n_reps, workdir):
        reps = []
        probes = [speed_probe()]
        for r in range(n_reps):
            rep = self._one(model, np.random.default_rng([seed, r]), r)
            probes.append(speed_probe())
            rep.probe_s = 0.5 * (probes[-2] + probes[-1])
            reps.append(rep)
        return Run(reps, sum(r.wall_s for r in reps), sum(r.scaled_s for r in reps))

    def _one(self, model, rng, r: int) -> Rep:
        counts_before = model.counter.counts()
        start = time.perf_counter()
        try:
            p, trace = self.estimate(model, self.n_samples, make_kernel("vmfn"), rng)
        except RareEventError as exc:
            wall = time.perf_counter() - start
            after = model.counter.counts()
            counts = {l: after[l] - counts_before.get(l, 0) for l in after}
            return Rep(r, math.nan, f"error:{type(exc).__name__}", wall,
                       cost_units(counts, self.levels, model.cost_dim), counts)
        wall = time.perf_counter() - start
        peeks = [s for s in trace.steps if s.kind == "peek"]
        return Rep(r, float(p), "ok", wall,
                   cost_units(trace.eval_counts, self.levels, model.cost_dim),
                   dict(trace.eval_counts), trace.n_temper, trace.n_bridge,
                   sum(s.n_evals for s in peeks),
                   sum(s.n_evals for s in peeks if s.wasted))


@dataclass(frozen=True)
class CliWorkload(Workload):
    """`rareevent estimate` calls of one repetition per worker each.

    Call k passes `--seed 1000*seed + k`, so its repetition r draws from
    `default_rng([1000*seed + k, r])`.  A pool lives for one call, and the
    way its workers and their BLAS threads share the cores holds for the
    pool's life: one long call gives one draw of that placement, several
    calls average over it.  The repetition wall time is the CSV `wall_ms`,
    measured inside the worker.  It is not scaled by the speed probe, which
    does not track it (correlation about 0).
    """

    argv: tuple[str, ...] = ()

    def run(self, model, seed, n_reps, workdir):
        os.makedirs(workdir, exist_ok=True)
        reps, wall = [], 0.0
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            out = os.path.join(tmp, "estimate.csv")
            for k in range(n_reps // self.workers):
                argv = [*self.argv, "--method", self.method, "--levels", str(self.levels),
                        "--n", str(self.n_samples), "--workers", str(self.workers),
                        "--reps", str(self.workers), "--seed", str(1000 * seed + k),
                        "--out", out]
                start = time.perf_counter()
                code = cli.main(argv)
                wall += time.perf_counter() - start
                if code not in (cli.EXIT_OK, cli.EXIT_NONCONVERGED):
                    raise RuntimeError(f"rareevent {' '.join(argv)} exited with {code}")
                with open(out, newline="", encoding="utf-8") as fh:
                    rows = [row for row in csv.DictReader(fh) if row["run_id"] != "summary"]
                reps += [Rep(
                    len(reps) + i, float(row["estimate"]), row["status"],
                    int(row["wall_ms"]) / 1000.0, float(row["cost_units"]),
                    {l: int(row[f"evals_l{l}"]) for l in range(1, self.levels + 1)},
                    int(row["n_temper"]), int(row["n_bridge"]),
                ) for i, row in enumerate(rows)]
        return Run(reps, wall, wall, cli_calls=n_reps // self.workers)


WORKLOADS = {w.name: w for w in (
    EstimatorWorkload(
        name="linear-sis", method="sis",
        reference=EXACT_LINEAR, tolerance=0.10, seconds_per_rep=0.67,
        make_model=lambda: LinearLsfModel(3.5, 150), setup_levels=(1,), levels=1,
        n_samples=2000,
        estimate=lambda model, n, kernel, rng: sis_estimate(
            model, 1, n, 0.5, kernel, 0.1, rng),
    ),
    EstimatorWorkload(
        name="diffusion1d-mlsis", method="mlsis",
        reference=DIFFUSION_1D_REFERENCE, tolerance=0.20, seconds_per_rep=2.9,
        make_model=Diffusion1dModel, setup_levels=tuple(range(1, 9)), levels=8,
        n_samples=2000,
        estimate=lambda model, n, kernel, rng: mlsis_estimate(
            model, 8, n, 0.25, kernel, 0.1, rng),
    ),
    EstimatorWorkload(
        name="flowcell2d-sis", method="sis",
        reference=FLOWCELL_FIXTURE, tolerance=0.50, seconds_per_rep=10.0,
        make_model=lambda: FlowCellModel(tau0=0.2), setup_levels=(3,), levels=3,
        n_samples=250, min_reps=2,
        estimate=lambda model, n, kernel, rng: sis_estimate(
            model, 3, n, 0.5, kernel, 0.1, rng),
    ),
    CliWorkload(
        name="diffusion1d-mlsus-workers2", method="mlsus",
        reference=DIFFUSION_1D_REFERENCE, tolerance=0.50, seconds_per_rep=2.5,
        make_model=Diffusion1dModel, setup_levels=tuple(range(1, 9)), levels=8,
        n_samples=2000, min_reps=4, workers=2,
        argv=("estimate", "--model", "diffusion1d", "--kernel", "acs", "--p0", "0.1", "--nb", "40",
              "--reference", repr(DIFFUSION_1D_REFERENCE)),
    ),
)}
