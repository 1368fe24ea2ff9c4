"""Benchmark of the rareevent estimator stack; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--bench FILE]

Run from the repository root; the package is imported from ./src.  One
workload per invocation: `--trace 0` measures the end-to-end metrics with
tracing off, `--trace 1` runs half the repetitions untraced and the same
repetitions again under the layer trace, checks that both give identical
estimates, and reports the per-layer metrics.  `--workload all` runs every
workload both ways, each in a fresh process, and with `--bench` writes the
combined record to FILE.

A human-readable report goes to stdout, the full record of the run to
.perfbench/<workload>-seed<N>-trace<T>.json, and the last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "rep_s.p50": "s",
    "reps_per_s": "1/s",
    "cost_units_per_rep": "finest_solves",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _require_source() -> None:
    if not (SRC / "rareevent" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'rareevent'}; "
                 "run from the repository root")
    sys.path.insert(0, str(SRC))


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports (read only, never set)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                out[os.path.basename(path)] = getter()
                break
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(name: str) -> list[float]:
    """Set-up times of fresh interpreters, one after another, at reference speed.

    The scale is the median of the speed probes taken around the set-ups, so
    one probe caught by a transient does not skew it.
    """
    from workloads import REFERENCE_PROBE_S, speed_probe

    times, probes = [], [speed_probe()]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        probes.append(speed_probe())
    scale = REFERENCE_PROBE_S / statistics.median(probes)
    return [t * scale for t in times]


def check_estimates(workload, reps) -> dict:
    """The run mean of the successful repetitions against the reference."""
    ok = [r.estimate for r in reps if not r.failed]
    mean = statistics.fmean(ok) if ok else math.nan
    rel_err = abs(mean / workload.reference - 1.0)
    return {"mean_estimate": mean, "reference": workload.reference,
            "rel_err": rel_err, "tolerance": workload.tolerance,
            "passed": bool(ok) and rel_err <= workload.tolerance}


def _rep_key(rep):
    return (rep.index, rep.status, float(rep.estimate).hex(), sorted(rep.eval_counts.items()))


def _summed_counts(reps) -> dict[int, int]:
    total: dict[int, int] = {}
    for rep in reps:
        for level, n in rep.eval_counts.items():
            total[level] = total.get(level, 0) + n
    return {l: n for l, n in sorted(total.items()) if n}


def measure_plain(workload, seed: int, seconds: float, workdir: str):
    model = workload.setup()
    run = workload.run(model, seed, workload.reps_for(seconds), workdir)
    reps = run.reps
    peak = peak_rss_mb()            # before the set-up probes, which are children too
    setups = setup_seconds(workload.name)
    metrics = {
        "rep_s.p50": statistics.median(r.scaled_s for r in reps),
        "reps_per_s": len(reps) / run.scaled_s,
        "cost_units_per_rep": statistics.fmean(r.cost_units for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
    }
    checks = {"estimate": check_estimates(workload, reps)}
    extra = {"setup_probes_s": setups, "run_wall_s": run.wall_s,
             "unscaled": {"rep_s.p50": statistics.median(r.wall_s for r in reps),
                          "reps_per_s": len(reps) / run.wall_s}}
    return reps, metrics, END_TO_END, checks, extra


def measure_traced(workload, seed: int, seconds: float, workdir: str):
    import layers

    tracer = layers.Tracer()
    patches = layers.install(tracer)
    try:
        model = workload.setup()
    finally:
        patches.restore()
    kl_basis_s = tracer.total.get("randomfield.kl_basis", 0.0)

    half = -(-workload.reps_for(seconds) // (2 * workload.workers)) * workload.workers
    plain = workload.run(model, seed, half, workdir)
    tracer.reset()
    patches = layers.install(tracer)
    try:
        traced = workload.run(model, seed, half, workdir)
    finally:
        patches.restore()

    measured = layers.per_layer_metrics(tracer, traced, workload)
    measured["randomfield.kl_basis_s"] = kl_basis_s
    measured["trace.overhead_frac"] = (statistics.median(r.scaled_s for r in traced.reps)
                                       / statistics.median(r.scaled_s for r in plain.reps) - 1.0)
    metrics = {name: measured[name] for name in layers.PER_LAYER}
    seen = {int(k.split(".l")[1]): int(v) for k, v in tracer.counts.items()
            if k.startswith("evals.l") and v}
    checks = {
        "estimate": check_estimates(workload, traced.reps),
        "traced_equals_untraced": {
            "passed": [_rep_key(r) for r in plain.reps] == [_rep_key(r) for r in traced.reps]},
        "wrapper_counts_equal_estimator_counts": {
            "passed": seen == _summed_counts(traced.reps),
            "wrappers": seen, "estimator": _summed_counts(traced.reps)},
    }
    extra = {"untraced_reps": [vars(r) for r in plain.reps],
             "untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s}
    return plain.reps + traced.reps, metrics, layers.PER_LAYER, checks, extra


def run_one(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    measure = measure_traced if args.trace else measure_plain
    reps, metrics, units, checks, extra = measure(
        workload, args.seed, args.seconds, str(OUT_DIR / "tmp"))
    failed = sum(r.failed for r in reps)
    correct = all(c["passed"] for c in checks.values())

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"reps {len(reps)}  failed {failed}/{len(reps)}  "
          f"failed_frac {failed / len(reps):.4g}")
    print(f"  env: cpus {env['cpu_count']} affinity {env['cpu_affinity']} "
          f"blas {env['blas_threads']} {env['thread_env']}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    for name, value in extra.get("unscaled", {}).items():
        print(f"  {name + ' (unscaled)':36s} {value:14.6g} {units[name]}")
    for name, check in checks.items():
        print(f"  check {name}: {'PASS' if check['passed'] else 'FAIL'} "
              + json.dumps({k: v for k, v in check.items() if k != "passed"}))

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "correct": correct,
        "attempted": len(reps), "failed": failed, "failed_frac": failed / len(reps),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "checks": checks, "reps": [vars(r) for r in reps], **extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh interpreter."""
    from workloads import WORKLOADS

    combined = {"command": " ".join(["python3", "perfbench/run.py", *sys.argv[1:]]),
                "seconds": args.seconds, "env": environment(args.seed), "workloads": {}}
    codes = []
    for name in WORKLOADS:
        entry = combined["workloads"][name] = {}
        for trace in (0, 1):
            path = OUT_DIR / f"{name}-seed{args.seed}-trace{trace}.json"
            path.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            codes.append(proc.returncode)
            if path.is_file():
                entry["per_layer" if trace else "end_to_end"] = json.loads(path.read_text())
    if args.bench:
        Path(args.bench).write_text(json.dumps(combined, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.bench}")
    runs = [run for entry in combined["workloads"].values() for run in entry.values()]
    correct = not any(codes) and len(runs) == len(codes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {f"{r['workload']}.{k}": v for r in runs if not r["trace"]
                    for k, v in r["metrics"].items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="fixes the repetition count of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bench", help="with --workload all: write the combined record here")
    args = parser.parse_args(argv)
    _require_source()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
