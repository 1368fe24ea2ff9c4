"""The CLI workload with one worker and with two, under the inherited BLAS threads.

    python3 perfbench/compare_workers.py --seed N --reps R [--bench FILE]
    OPENBLAS_NUM_THREADS=1 python3 perfbench/compare_workers.py --seed N --reps R [--bench FILE]

Runs `diffusion1d-mlsus-workers2` as it is and again with `--workers 1`,
each for R repetitions, and prints both throughputs with the thread
environment.  With --bench it appends the result to the "workers_comparison"
list of FILE, a record written by `run.py --workload all --bench FILE`.
"""

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--bench", help="append the result to this combined record")
    args = parser.parse_args(argv)
    run._require_source()
    from workloads import WORKLOADS

    base = WORKLOADS["diffusion1d-mlsus-workers2"]
    result = {"env": run.environment(args.seed), "workers": {}}
    for workers in (1, base.workers):
        workload = dataclasses.replace(base, workers=workers)
        measured = workload.run(None, args.seed, args.reps, str(run.OUT_DIR / "tmp"))
        result["workers"][workers] = {
            "reps": len(measured.reps),
            "wall_s": measured.wall_s,
            "reps_per_s": len(measured.reps) / measured.wall_s,
            "rep_s.p50": statistics.median(r.wall_s for r in measured.reps),
        }
    print(json.dumps(result))
    if args.bench:
        path = Path(args.bench)
        record = json.loads(path.read_text())
        record.setdefault("workers_comparison", []).append(result)
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
