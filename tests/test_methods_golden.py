"""Golden outputs of all five estimators, frozen before the estimator-core refactor.

`tests/data/methods_golden.json` holds, for a set of small configurations,
the stable-timing CSV of each harness run and the bit patterns of direct
`sus_estimate`/`mlsus_estimate` calls (estimate, per-step threshold, factor,
denominator and evaluation count, per-level evaluation counts).  The file was
written by this module's `__main__` before SuS became the MLSuS loop on a
pinned view and models kept a single batch primitive; both changes must
leave every number here unchanged.  `TraceStep.level` is not
recorded: a pinned SuS run reports the view's level 1, as pinned SIS does.

Its "trace" entries pin SIS and MLSIS runs step by step: every field of every
`TraceStep` (`step_record`), the final correction, the estimate and the
per-level evaluation counts, floats as `float.hex`.  A change that moves bits
on purpose shows there which steps moved.

Regenerate (only for an intended change of results) with

    PYTHONPATH=src python tests/test_methods_golden.py

which prints every entry it changed, its old and new value and, for a
`float.hex` value, the relative move (CSV text is compared line by line).
A change that only saves or spends evaluations regenerates with

    PYTHONPATH=src python tests/test_methods_golden.py --counts-only

which rewrites the count leaves alone (the CSV `cost_units` and `evals_l*`
columns, summary cost included, and every `n_evals` and `eval_counts`); if
any other leaf moved, it prints those leaves, writes nothing and exits 1.
Either way it ends with each entry whose counts moved and its total before
and after: a CSV's summary cost, or a direct or trace entry's evaluations.
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from rareevent.fem1d import Diffusion1dModel
from rareevent.fem2d import FlowCellModel
from rareevent.harness import ExperimentConfig, records_to_csv, run_experiment, summarize
from rareevent.mcmc import make_kernel
from rareevent.mlsis import mlsis_estimate
from rareevent.models import LinearLsfModel
from rareevent.sis import TraceStep, sis_estimate
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


TRACE_CASES = {
    # name: (estimator, model factory, level, N, delta target, kernel, c, seed,
    #        keyword arguments)
    "sis-linear-vmfn": (sis_estimate, lambda: LinearLsfModel(3.5, 10), 1, 500, 0.5,
                        "vmfn", 0.1, 41, {}),
    "sis-diffusion1d-l3-acs-burn-in": (sis_estimate, lambda: Diffusion1dModel(max_level=3),
                                       3, 200, 0.5, "acs", 0.1, 42, {"burn_in": 2}),
    "mlsis-diffusion1d-l3-vmfn": (mlsis_estimate, lambda: Diffusion1dModel(max_level=3),
                                  3, 200, 0.5, "vmfn", 0.1, 43, {}),
    "mlsis-diffusion1d-l3-fixed-acs": (mlsis_estimate, lambda: Diffusion1dModel(
        max_level=3, level_dims=(150,) * 3), 3, 200, 0.5, "acs", 0.2, 44,
        {"subset_fraction": 0.2}),
    "mlsis-flowcell2d-l2-vmfn": (mlsis_estimate, lambda: FlowCellModel(tau0=0.2, max_level=2),
                                 2, 100, 0.5, "vmfn", 0.1, 45, {}),
}


def step_record(step: TraceStep) -> dict:
    """Every field of a trace step, floats as `float.hex` and the rest as they are."""
    return {f.name: float(v).hex() if isinstance(v, float) else v
            for f in dataclasses.fields(step) for v in [getattr(step, f.name)]}


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


def trace_output(case) -> dict:
    estimator, make_model, level, n, delta_target, kernel, c, seed, kwargs = case
    estimate, trace = estimator(make_model(), level, n, delta_target, make_kernel(kernel), c,
                                np.random.default_rng([seed, 0]), **kwargs)
    return {
        "estimate": float(estimate).hex(),
        "final_correction": float(trace.final_correction).hex(),
        "steps": [step_record(s) for s in trace.steps],
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


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_sequential_traces_match_golden(golden, name):
    assert trace_output(TRACE_CASES[name]) == golden["trace"][name]


def changed_entries(old, new, path=""):
    """(path, old, new) for every leaf of the golden data that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from changed_entries(old.get(key), new.get(key), f"{path}/{key}".lstrip("/"))
    elif isinstance(old, str) and isinstance(new, str) and "\n" in old + new:
        yield from changed_entries(old.splitlines(), new.splitlines(), path)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from changed_entries(a, b, f"{path}[{i}]")
    elif old != new:
        yield path, old, new


def relative_move(old, new) -> str:
    try:
        a, b = float.fromhex(old), float.fromhex(new)
    except (TypeError, ValueError):
        return ""
    return f"  (relative {abs(b - a) / abs(a):.1e})" if a else ""


def csv_without_counts(text: str) -> str:
    """CSV text with its cost and per-level evaluation columns blanked."""
    lines = text.splitlines()
    header = lines[0].split(",")
    counts = [i for i, name in enumerate(header) if re.fullmatch(r"cost_units|evals_l\d+", name)]
    # the status column, last, may hold commas
    rows = [line.split(",", len(header) - 1) for line in lines[1:]]
    return "\n".join([lines[0]] + [",".join("" if i in counts else f for i, f in enumerate(row))
                                   for row in rows])


def count_total(kind: str, entry) -> tuple[str, float]:
    """What an entry spends: a CSV's summary cost, else its evaluations over all levels."""
    if kind == "csv":
        lines = entry.splitlines()
        return "summary cost", float(lines[-1].split(",")[lines[0].split(",").index("cost_units")])
    return "evaluations", sum(entry["eval_counts"].values())


def without_counts(data: dict) -> dict:
    """The golden data with every count leaf blanked: what `--counts-only` must keep."""
    return {
        "csv": {name: csv_without_counts(text) for name, text in data["csv"].items()},
        "direct": {name: {**e, "records": [r[:3] for r in e["records"]], "eval_counts": None}
                   for name, e in data["direct"].items()},
        "trace": {name: {**e, "steps": [{**s, "n_evals": None} for s in e["steps"]],
                         "eval_counts": None} for name, e in data["trace"].items()},
    }


if __name__ == "__main__":
    counts_only = sys.argv[1:] == ["--counts-only"]
    if sys.argv[1:] not in ([], ["--counts-only"]):
        sys.exit(f"usage: {sys.argv[0]} [--counts-only]")
    previous = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    if counts_only and not previous:
        sys.exit(f"--counts-only rewrites {GOLDEN}, which does not exist")
    data = {
        "csv": {name: csv_output(case) for name, case in CSV_CASES.items()},
        "direct": {name: direct_output(case) for name, case in DIRECT_CASES.items()},
        "trace": {name: trace_output(case) for name, case in TRACE_CASES.items()},
    }
    if counts_only:
        moved = list(changed_entries(without_counts(previous), without_counts(data)))
        for path, old, new in moved:
            sys.stdout.write(f"moved {path}: {old!r} -> {new!r}{relative_move(old, new)}\n")
        if moved:
            sys.exit(f"{len(moved)} entries other than counts moved; {GOLDEN} not written")
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
    for path, old, new in changed_entries(previous, data):
        sys.stdout.write(f"changed {path}: {old!r} -> {new!r}{relative_move(old, new)}\n")
    for kind, entries in data.items():
        for name, entry in entries.items():
            if name in previous.get(kind, {}):
                label, before = count_total(kind, previous[kind][name])
                after = count_total(kind, entry)[1]
                if after != before:
                    sys.stdout.write(f"counts {kind} {name}: {label} {before:,.10g} -> {after:,.10g}\n")
