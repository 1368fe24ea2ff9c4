"""Command-line interface: estimate, mc-reference, sweep, selftest.

Settings come from an optional flat key=value file, then the flags, then a
sweep's grid cell.  Every command but selftest takes one path: `_cells`
builds and validates each configuration the command runs and checks where
its CSV goes, then `_run` runs and writes them in turn.  `estimate` is a
sweep of one cell, and `mc-reference` is `estimate` with the method set to
mc.  Exit codes: 0 success; 2 config error, which only `_cells` raises, so
before the first repetition; 3 when no repetition of any cell converged.  A
fault raised inside a repetition is a program error: the rows of the
repetitions that finished before it are written, without a summary row, and
the fault shows its traceback.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import typing

from .harness import (
    KERNELS,
    METHODS,
    MODELS,
    ExperimentConfig,
    records_to_csv,
    run_experiment,
    summarize,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3

_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _coerce(key: str, raw: str):
    """Parse `raw` as the type of config field `key`; `X | None` parses as X."""
    kind = _FIELD_TYPES[key]
    if typing.get_args(kind):
        kind = typing.get_args(kind)[0]
    if kind is bool:
        if (word := raw.strip().lower()) not in _BOOLEANS:
            raise ValueError(f"{key}={raw.strip()} is not one of {'/'.join(_BOOLEANS)}")
        return _BOOLEANS[word]
    return kind(raw.strip())


def read_config_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value, got '{stripped}'")
            key, raw = stripped.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
            values[key] = _coerce(key, raw)
    return values


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--model", choices=MODELS)
    parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--n", type=int, help="samples per repetition")
    parser.add_argument("--delta-target", type=float, dest="delta_target")
    parser.add_argument("--kernel", choices=KERNELS)
    parser.add_argument("--c", type=float, help="seed fraction for MCMC chains")
    parser.add_argument("--p0", type=float, help="subset conditional probability")
    parser.add_argument("--nb", type=int, dest="n_b", help="MCMC burn-in length")
    parser.add_argument("--levels", type=int, help="finest discretization level L")
    parser.add_argument("--level-dims", choices=("fixed", "ldd"), dest="level_dims")
    parser.add_argument("--ns-frac", type=float, dest="ns_frac",
                        help="subset fraction for the bridging decision")
    parser.add_argument("--reps", type=int, help="number of repetitions")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--beta", type=float, help="linear model reliability index")
    parser.add_argument("--tau0", type=float, help="flow-cell travel-time threshold")
    parser.add_argument("--reference", type=float, help="reference P_f for relRMSE")
    parser.add_argument("--workers", type=int, help="parallel repetition workers")
    parser.add_argument("--stable-timing", action="store_true", dest="stable_timing",
                        default=None, help="write wall_ms as 0 for byte-stable CSVs")
    parser.add_argument("--out", help="CSV output path")


def _parse_grid(specs: list[str]) -> list[dict]:
    axes: dict[str, list] = {}
    for item in specs:
        if "=" not in item:
            raise ValueError(f"grid arguments must be key=v1,v2,... got '{item}'")
        key, raw = item.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown grid key '{key}'")
        values = [_coerce(key, v) for v in raw.split(",")]
        if key in axes or len(set(values)) < len(values):
            raise ValueError(f"grid key '{key}' is given twice or repeats a value")
        axes[key] = values
    return [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]


def _cells(args: argparse.Namespace) -> list[tuple[ExperimentConfig, str | None]]:
    """Every (config, CSV path or None for stdout) the command runs, all checked.

    Settings merge in order: the --config file, the flags, the sweep's grid cell.
    """
    base = read_config_file(args.config) if args.config else {}
    base.update({key: getattr(args, key) for key in _FIELD_TYPES
                 if getattr(args, key, None) is not None})
    sweep = args.command == "sweep"
    if sweep and not args.out:
        raise ValueError("sweep needs --out, the directory for its CSV files")
    cells = []
    for cell in _parse_grid(args.grid) if sweep else [{}]:
        values = {**base, **cell}
        missing = [k for k in ("model", "method", "n") if k not in values]
        if missing:
            raise ValueError(f"missing required settings: {', '.join(missing)}")
        config = ExperimentConfig(**values)
        config.validate()
        path = args.out
        if sweep:
            tag = "_".join(f"{k}-{v}" for k, v in sorted(cell.items()))
            path = os.path.join(args.out, f"{config.method}_{config.model}_{tag}.csv")
        cells.append((config, path))
    if sweep:
        os.makedirs(args.out, exist_ok=True)
    elif args.out and os.path.isdir(args.out):
        raise IsADirectoryError(f"--out {args.out} is a directory")
    elif args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FileNotFoundError(f"the directory of --out {args.out} does not exist")
    return cells


def _write(records, summary, path: str | None) -> None:
    """The CSV of `records` and an optional summary row, to `path` or stdout."""
    text = records_to_csv(records, summary)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(records)} rows to {path}")
    else:
        sys.stdout.write(text)


def _run(cells: list[tuple[ExperimentConfig, str | None]]) -> int:
    """Run and write every cell; 3 when no repetition of any cell converged."""
    any_ok = False
    for config, path in cells:
        try:
            records = run_experiment(config)
        except Exception as exc:
            if getattr(exc, "finished_records", None):  # the rows before the fault, no summary
                _write(exc.finished_records, None, path)
            raise
        summary = summarize(records, config.reference)
        _write(records, summary, path)
        if summary.n_ok == 0:
            print("all repetitions failed to converge", file=sys.stderr)
            continue
        any_ok = True
        rel = "" if summary.relrmse is None else f" relRMSE={summary.relrmse:.4g}"
        print(f"mean={summary.mean:.6e} std={summary.std:.4e} "
              f"cost={summary.mean_cost:.6g}{rel} "
              f"(ok={summary.n_ok}, excluded={summary.n_excluded})")
    return EXIT_OK if any_ok else EXIT_NONCONVERGED


def cmd_selftest(args) -> int:
    """Fast end-to-end check against the analytic linear limit state."""
    from scipy.special import ndtr

    exact = float(ndtr(-3.5))
    checks = []
    for method, kernel, tol in (("sis", "vmfn", 0.25), ("sus", "acs", 0.3)):
        config = ExperimentConfig(model="linear", method=method, n=1000,
                                  levels=1, kernel=kernel, reps=10, seed=20240801,
                                  reference=exact, stable_timing=True)
        summary = summarize(run_experiment(config), exact)
        ok = summary.n_ok == 10 and abs(summary.mean / exact - 1.0) < tol
        checks.append(ok)
        print(f"selftest {method}/{kernel}: mean={summary.mean:.4e} "
              f"exact={exact:.4e} -> {'ok' if ok else 'FAIL'}")
    if all(checks):
        print("selftest passed")
        return EXIT_OK
    print("selftest FAILED", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rareevent",
        description="Rare-event failure probability estimation for PDE limit states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="run one estimation experiment")
    _add_config_flags(p_est)

    p_ref = sub.add_parser("mc-reference", help="crude Monte Carlo reference run")
    _add_config_flags(p_ref)

    p_sweep = sub.add_parser("sweep", help="cross-product of configurations")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--grid", action="append", required=True,
                         help="key=v1,v2,... (repeatable; values cross-multiply)")

    sub.add_parser("selftest", help="fast analytic sanity checks")

    args = parser.parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest(args)
    if args.command == "mc-reference":
        args.method = "mc"
    try:
        cells = _cells(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return _run(cells)


if __name__ == "__main__":
    sys.exit(main())
