"""Command-line interface: estimate, mc-reference, sweep, selftest.

Configurations come from an optional flat key=value file plus flag
overrides; one experiment per invocation.  Exit codes: 0 success, 2 config
error, 3 all repetitions failed to converge.
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
    write_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3

_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _coerce(key: str, raw: str):
    """Parse `raw` as the type of config field `key`; `X | None` parses as X."""
    kind = _FIELD_TYPES[key]
    if typing.get_args(kind):
        kind = typing.get_args(kind)[0]
    if kind is bool:
        return raw.strip().lower() in ("1", "true", "yes", "on")
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


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(read_config_file(args.config))
    for key in _FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    missing = [k for k in ("model", "method", "n") if k not in values]
    if missing:
        raise ValueError(f"missing required settings: {', '.join(missing)}")
    return ExperimentConfig(**values)


def _finish(records, config, out_path: str | None) -> int:
    summary = summarize(records, config.reference)
    text = records_to_csv(records, summary)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(records)} rows to {out_path}")
    else:
        sys.stdout.write(text)
    if summary.n_ok == 0:
        print("all repetitions failed to converge", file=sys.stderr)
        return EXIT_NONCONVERGED
    rel = "" if summary.relrmse is None else f" relRMSE={summary.relrmse:.4g}"
    print(f"mean={summary.mean:.6e} std={summary.std:.4e} "
          f"cost={summary.mean_cost:.6g}{rel} "
          f"(ok={summary.n_ok}, excluded={summary.n_excluded})")
    return EXIT_OK


def cmd_estimate(args) -> int:
    config = build_config(args)
    records = run_experiment(config)
    return _finish(records, config, args.out)


def cmd_mc_reference(args) -> int:
    args.method = "mc"
    return cmd_estimate(args)


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


def cmd_sweep(args) -> int:
    """Every cell is validated before the first one runs."""
    if not args.out:
        raise ValueError("sweep needs --out, the directory for its CSV files")
    base = build_config(args)
    cells = [(cell, ExperimentConfig(**{**base.__dict__, **cell}))
             for cell in _parse_grid(args.grid)]
    for _, config in cells:
        config.validate()
    os.makedirs(args.out, exist_ok=True)
    any_ok = False
    for cell, config in cells:
        records = run_experiment(config)
        summary = summarize(records, config.reference)
        tag = "_".join(f"{k}-{v}" for k, v in sorted(cell.items()))
        path = os.path.join(args.out, f"{config.method}_{config.model}_{tag}.csv")
        write_csv(path, records, summary)
        any_ok = any_ok or summary.n_ok > 0
        rel = "" if summary.relrmse is None else f" relRMSE={summary.relrmse:.4g}"
        print(f"{path}: mean={summary.mean:.6e} cost={summary.mean_cost:.6g}{rel}")
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
    p_est.set_defaults(func=cmd_estimate)

    p_ref = sub.add_parser("mc-reference", help="crude Monte Carlo reference run")
    _add_config_flags(p_ref)
    p_ref.set_defaults(func=cmd_mc_reference)

    p_sweep = sub.add_parser("sweep", help="cross-product of configurations")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--grid", action="append", required=True,
                         help="key=v1,v2,... (repeatable; values cross-multiply)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_self = sub.add_parser("selftest", help="fast analytic sanity checks")
    p_self.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
