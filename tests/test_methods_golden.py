"""Golden outputs of all five estimators, frozen before the estimator-core refactor.

`tests/data/methods_golden.json` holds, for a set of small configurations,
the stable-timing CSV of each harness run and the bit patterns of direct
`sus_estimate`/`mlsus_estimate` calls (estimate, per-step threshold, factor,
denominator and evaluation count, per-level evaluation counts).  The file was
written by this module's `__main__` before SuS became the MLSuS loop on a
pinned view and models kept a single batch primitive; both changes must
leave every number here unchanged.  `TraceStep.level` is not
recorded: a pinned SuS run reports the view's level 1, as pinned SIS does.

Regenerate (only for an intended change of results) with

    PYTHONPATH=src python tests/test_methods_golden.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from rareevent.fem1d import Diffusion1dModel
from rareevent.harness import ExperimentConfig, records_to_csv, run_experiment, summarize
from rareevent.mcmc import make_kernel
from rareevent.models import LinearLsfModel
from rareevent.subset import mlsus_estimate, sus_estimate

GOLDEN = Path(__file__).resolve().parent / "data" / "methods_golden.json"

CSV_CASES = {
    "mc-linear": dict(model="linear", method="mc", n=20000, reps=2, seed=11),
    "mc-flowcell2d-l2": dict(model="flowcell2d", method="mc", n=300, levels=2,
                             tau0=0.2, reps=2, seed=12),
    "sis-linear": dict(model="linear", method="sis", n=500, delta_target=0.5,
                       reps=2, seed=13),
    "sis-diffusion1d-l3": dict(model="diffusion1d", method="sis", n=200, levels=3,
                               delta_target=0.5, n_b=2, reps=2, seed=14),
    "mlsis-diffusion1d-l3": dict(model="diffusion1d", method="mlsis", n=200, levels=3,
                                 delta_target=0.5, reps=2, seed=15),
    "mlsis-diffusion1d-l3-fixed-acs": dict(model="diffusion1d", method="mlsis", n=200,
                                           levels=3, level_dims="fixed", kernel="acs",
                                           c=0.2, ns_frac=0.2, reps=2, seed=16),
    "sus-linear": dict(model="linear", method="sus", n=200, kernel="acs", n_b=3,
                       reps=2, seed=17),
    "sus-diffusion1d-l3": dict(model="diffusion1d", method="sus", n=200, levels=3,
                               kernel="acs", n_b=5, reps=2, seed=18),
    "sus-flowcell2d-l2": dict(model="flowcell2d", method="sus", n=100, levels=2,
                              tau0=0.2, kernel="acs", n_b=2, reps=1, seed=19),
    "mlsus-diffusion1d-l4": dict(model="diffusion1d", method="mlsus", n=200, levels=4,
                                 kernel="acs", n_b=5, reps=2, seed=20, workers=2),
    "mlsus-diffusion1d-l3-fixed": dict(model="diffusion1d", method="mlsus", n=200,
                                       levels=3, level_dims="fixed", kernel="acs",
                                       reps=2, seed=21),
}


DIRECT_CASES = {
    # name: (estimator, model factory, level, N, p0, burn-in, seed)
    "sus-linear": (sus_estimate, lambda: LinearLsfModel(3.0, 10), 1, 200, 0.1, 4, 31),
    "sus-diffusion1d-l3": (sus_estimate, lambda: Diffusion1dModel(max_level=3),
                           3, 200, 0.1, 5, 32),
    "sus-diffusion1d-l2-of-4": (sus_estimate, lambda: Diffusion1dModel(max_level=4),
                                2, 200, 0.2, 0, 33),
    "mlsus-diffusion1d-l4": (mlsus_estimate, lambda: Diffusion1dModel(max_level=4),
                             4, 200, 0.1, 5, 34),
    "mlsus-linear": (mlsus_estimate, lambda: LinearLsfModel(3.0, 10), 1, 200, 0.1, 4, 35),
}


def csv_output(case: dict) -> str:
    config = ExperimentConfig(stable_timing=True, **case)
    records = run_experiment(config)
    return records_to_csv(records, summarize(records, config.reference))


def direct_output(case) -> dict:
    estimator, make_model, level, n, p0, burn_in, seed = case
    estimate, trace = estimator(make_model(), level, n, p0, make_kernel("acs"), burn_in,
                                np.random.default_rng([seed, 0]))
    return {
        "estimate": float(estimate).hex(),
        "records": [[r.threshold.hex(), r.factor.hex(), r.denominator.hex(), r.n_evals]
                    for r in trace.steps],
        "eval_counts": {str(level): n for level, n in trace.eval_counts.items()},
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_csv_matches_golden(golden, name):
    assert csv_output(CSV_CASES[name]) == golden["csv"][name]


@pytest.mark.parametrize("name", sorted(DIRECT_CASES))
def test_subset_estimators_match_golden(golden, name):
    assert direct_output(DIRECT_CASES[name]) == golden["direct"][name]


if __name__ == "__main__":
    data = {
        "csv": {name: csv_output(case) for name, case in CSV_CASES.items()},
        "direct": {name: direct_output(case) for name, case in DIRECT_CASES.items()},
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
