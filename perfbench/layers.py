"""Outside-in layer trace: spans around the public functions of each module.

`install` replaces public functions and methods of the `rareevent` modules,
at the names their callers look them up by, with wrappers that time the call
and count its work; `Patches.restore` puts the originals back.  Wrappers pass
arguments through untouched and draw no random numbers, so a traced
repetition reproduces the untraced one bit for bit.

Spans nest: a span's self time is its duration minus the spans it encloses.
Process-pool workers inherit the wrappers when they fork; the
`harness.run_single` wrapper ships each worker's tally back on the record it
returns, and the `cli.run_experiment` wrapper folds it into the parent's.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

from rareevent import cli, fem1d, fem2d, harness, mcmc, mlsis, models, sis, subset

LEVELS_1D = range(1, 9)

# per-layer metrics and their units; README.md maps each one to the
# end-to-end metric and workload it should move
PER_LAYER = {
    **{f"models.evals.l{l}": "count" for l in LEVELS_1D},
    **{f"fem1d.eval_s.l{l}": "s" for l in LEVELS_1D},
    **{f"fem1d.us_per_eval.l{l}": "us" for l in LEVELS_1D},
    "fem2d.solve_s": "s",
    "fem2d.track_s": "s",
    "fem2d.us_per_eval.l3": "us",
    "sis.solve_sigma_s": "s",
    "sis.solve_sigma_calls": "count",
    "sis.temper_steps": "count",
    "mlsis.solve_beta_s": "s",
    "mlsis.solve_beta_calls": "count",
    "mlsis.bridge_steps": "count",
    "mlsis.peek_wasted_frac": "frac",
    "distributions.fit_vmfn_s": "s",
    "distributions.sample_vmfn_s": "s",
    "distributions.vmfn_log_density_s": "s",
    "mcmc.run_chains_self_s": "s",
    "mcmc.resample_s": "s",
    "mcmc.proposals": "count",
    "mcmc.acceptance": "frac",
    "randomfield.kl_basis_s": "s",
    "subset.levels": "count",
    "subset.level_updates": "count",
    "cli.main_s": "s",
    "harness.parallel_efficiency": "frac",
    "harness.overhead_s": "s",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """Span durations, self times, call counts and work counters of one process."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._children: list[float] = []    # enclosed span time, one slot per open span

    def snapshot(self) -> dict:
        return {"total": dict(self.total), "self_time": dict(self.self_time),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def merge(self, delta: dict) -> None:
        for key, values in delta.items():
            target = getattr(self, key)
            for name, value in values.items():
                target[name] += value

    def timed(self, name: str, fn, *args, **kwargs):
        """Call `fn` inside a span called `name`."""
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self.total[name] += duration
            self.self_time[name] += duration - self._children.pop()
            self.calls[name] += 1
            if self._children:
                self._children[-1] += duration

    def span(self, fn, name: str):
        """`fn` wrapped in a span called `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.timed(name, fn, *args, **kwargs)

        return wrapper


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _evaluate_batch(tracer: Tracer, fn, pinned: bool):
    """A model's `evaluate_batch`, timed and counted per model class and level.

    A pinned view forwards to its base model's private batch evaluator at
    its own level, so it is named and counted after the base model.
    """

    def counted(model, level, *args):
        name = f"{type(model).__name__}.l{level}"
        values = tracer.timed(f"eval.{name}", fn, *args)
        tracer.counts[f"evals.l{level}"] += len(values)
        tracer.counts[f"evals.{name}"] += len(values)
        return values

    if pinned:
        @functools.wraps(fn)
        def wrapper(self, xis, level=1):
            return counted(self.base, self.level, self, xis, level)
    else:
        @functools.wraps(fn)
        def wrapper(self, xis, level):
            return counted(self, level, self, xis, level)
    return wrapper


def _feedback(tracer: Tracer, fn):
    """A kernel's `feedback`, counting proposals and acceptances as KernelStats does."""

    @functools.wraps(fn)
    def wrapper(self, accepted):
        tracer.timed("kernel.feedback", fn, self, accepted)
        tracer.counts["mcmc.proposals"] += np.size(accepted)
        tracer.counts["mcmc.accepted"] += int(np.count_nonzero(accepted))

    return wrapper


def _worker_tally(tracer: Tracer, run_single):
    """`harness.run_single` that returns a forked worker's tally on its record."""

    @functools.wraps(run_single)
    def wrapper(config, rep):
        if os.getpid() != tracer.pid:       # first call in a forked worker
            tracer.reset()
        before = tracer.snapshot()
        record = run_single(config, rep)
        after = tracer.snapshot()
        record.bench_layers = (tracer.pid, {
            key: {name: value - before[key].get(name, 0) for name, value in values.items()}
            for key, values in after.items()
        })
        return record

    return wrapper


def _parent_merge(tracer: Tracer, run_experiment):
    """`cli.run_experiment` that folds the workers' tallies into the parent's."""

    @functools.wraps(run_experiment)
    def wrapper(config):
        records = run_experiment(config)
        for record in records:
            pid, delta = record.bench_layers
            if pid != tracer.pid:
                tracer.merge(delta)
        return records

    return wrapper


def install(tracer: Tracer) -> Patches:
    """Wrap every traced entry point; call `restore()` on the result to undo."""
    p = Patches()
    span = tracer.span
    p.replace(models.LimitStateModel, "evaluate_batch",
              _evaluate_batch(tracer, models.LimitStateModel.evaluate_batch, pinned=False))
    p.replace(models.PinnedLevelModel, "evaluate_batch",
              _evaluate_batch(tracer, models.PinnedLevelModel.evaluate_batch, pinned=True))
    p.replace(fem2d.FlowCellModel, "travel_time",
              span(fem2d.FlowCellModel.travel_time, "fem2d.travel_time"))
    p.replace(fem2d, "trace_particle", span(fem2d.trace_particle, "fem2d.trace_particle"))
    p.replace(fem1d, "kl_basis_1d", span(fem1d.kl_basis_1d, "randomfield.kl_basis"))
    p.replace(fem2d, "kl_basis_2d", span(fem2d.kl_basis_2d, "randomfield.kl_basis"))

    p.replace(sis, "solve_sigma", span(sis.solve_sigma, "sis.solve_sigma"))
    p.replace(mlsis, "solve_beta", span(mlsis.solve_beta, "mlsis.solve_beta"))
    for module in (sis, mlsis, subset):
        p.replace(module, "run_chains", span(module.run_chains, "mcmc.run_chains"))
    for module in (sis, mlsis):
        p.replace(module, "resample_multinomial",
                  span(module.resample_multinomial, "mcmc.resample"))
    # distributions, at the names the vMFN kernel calls them by
    for fn in ("fit_vmfn", "sample_vmfn", "vmfn_log_density"):
        p.replace(mcmc, fn, span(getattr(mcmc, fn), f"distributions.{fn}"))
    for kernel in (mcmc.AcsKernel, mcmc.VmfnIndependentKernel):
        for method in ("prepare", "propose", "log_accept_extra"):
            p.replace(kernel, method, span(getattr(kernel, method), f"kernel.{method}"))
        p.replace(kernel, "feedback", _feedback(tracer, kernel.feedback))

    p.replace(harness, "run_single", _worker_tally(tracer, harness.run_single))
    p.replace(cli, "run_experiment", _parent_merge(tracer, cli.run_experiment))
    return p


def per_layer_metrics(tracer: Tracer, run, workload) -> dict:
    """Per-layer numbers per repetition (per CLI call for `cli`/`harness`)."""
    reps = run.reps
    n = len(reps)
    t, c, calls = tracer.total, tracer.counts, tracer.calls
    out = {}
    for l in LEVELS_1D:
        out[f"models.evals.l{l}"] = c.get(f"evals.l{l}", 0) / n
        fem1d_s = t.get(f"eval.Diffusion1dModel.l{l}", 0.0)
        fem1d_n = c.get(f"evals.Diffusion1dModel.l{l}", 0)
        out[f"fem1d.eval_s.l{l}"] = fem1d_s / n
        out[f"fem1d.us_per_eval.l{l}"] = 1e6 * fem1d_s / fem1d_n if fem1d_n else 0.0
    travel = t.get("fem2d.travel_time", 0.0)
    track = t.get("fem2d.trace_particle", 0.0)
    out["fem2d.solve_s"] = (travel - track) / n
    out["fem2d.track_s"] = track / n
    fem2d_n = c.get("evals.FlowCellModel.l3", 0)
    out["fem2d.us_per_eval.l3"] = (1e6 * t.get("eval.FlowCellModel.l3", 0.0) / fem2d_n
                                   if fem2d_n else 0.0)
    out["sis.solve_sigma_s"] = t.get("sis.solve_sigma", 0.0) / n
    out["sis.solve_sigma_calls"] = calls.get("sis.solve_sigma", 0) / n
    out["mlsis.solve_beta_s"] = t.get("mlsis.solve_beta", 0.0) / n
    out["mlsis.solve_beta_calls"] = calls.get("mlsis.solve_beta", 0) / n
    subset_method = workload.method in ("sus", "mlsus")
    steps_temper = sum(r.n_temper for r in reps) / n
    steps_bridge = sum(r.n_bridge for r in reps) / n
    out["sis.temper_steps"] = 0.0 if subset_method else steps_temper
    out["mlsis.bridge_steps"] = 0.0 if subset_method else steps_bridge
    peek = sum(r.peek_evals for r in reps)
    out["mlsis.peek_wasted_frac"] = sum(r.peek_wasted_evals for r in reps) / peek if peek else 0.0
    for fn in ("fit_vmfn", "sample_vmfn", "vmfn_log_density"):
        out[f"distributions.{fn}_s"] = t.get(f"distributions.{fn}", 0.0) / n
    out["mcmc.run_chains_self_s"] = tracer.self_time.get("mcmc.run_chains", 0.0) / n
    out["mcmc.resample_s"] = t.get("mcmc.resample", 0.0) / n
    proposals = c.get("mcmc.proposals", 0)
    out["mcmc.proposals"] = proposals / n
    out["mcmc.acceptance"] = c.get("mcmc.accepted", 0) / proposals if proposals else 0.0
    out["subset.levels"] = steps_temper if subset_method else 0.0
    out["subset.level_updates"] = steps_bridge if subset_method else 0.0
    if run.cli_calls:
        busy = sum(r.wall_s for r in reps)
        out["cli.main_s"] = run.wall_s / run.cli_calls
        out["harness.parallel_efficiency"] = busy / (workload.workers * run.wall_s)
        out["harness.overhead_s"] = (run.wall_s - busy / workload.workers) / run.cli_calls
    else:
        out["cli.main_s"] = out["harness.parallel_efficiency"] = out["harness.overhead_s"] = 0.0
    return out
