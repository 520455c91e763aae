"""Command-line experiment harness.

Subcommands: generate (synthetic series CSV), train (warmstart plus a
training variant per flag), eval (per-fold regret tables), sweep (train and
evaluate across a capacity list). All outputs are CSV with a header row and
are deterministic for a fixed seed. Exit codes: 0 success, 1 usage error,
2 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Optional

from .core import load_model, save_model
from .data import (
    Fold,
    SplitSpec,
    load_csv,
    make_knapsack,
    make_scheduling,
    split,
    synthesize,
    write_series_csv,
)
from .evaluation import TrueOptimumCache, _mean_std, evaluate_model_regret
from .oracles import SolverOracle
from .ridge import select_ridge
from .training import TrainConfig, Variant, train, write_trace_csv

PROBLEMS = ("unit-knapsack", "weighted-knapsack", "scheduling")
VARIANTS = ("ridge", "dnl", "dnl-max", "dnl-greedy")
DEFAULT_CAPACITY = {"unit-knapsack": 24.0, "weighted-knapsack": 122.0}


class UsageError(ValueError):
    """Invalid command-line arguments or experiment specification."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number(text: str) -> float:
    """A float flag value; nan is a usage error, inf passes (no capacity limit)."""
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"{text} is not a number")
    return value


def _finite(text: str) -> float:
    """A float flag value; nan and inf are usage errors."""
    value = _number(text)
    if math.isinf(value):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number")
    return value


def _add_data_flags(sub):
    sub.add_argument("--data", help="series CSV to load (omit to synthesize)")
    sub.add_argument("--days", type=int, default=20, help="synthetic days")
    sub.add_argument("--features", type=int, default=4, help="synthetic feature count")
    sub.add_argument("--noise", type=_finite, default=0.5, help="synthetic noise sigma")
    sub.add_argument("--group-size", type=int, default=48, help="rows per problem set")


def _add_problem_flags(sub):
    sub.add_argument("--problem", choices=PROBLEMS, default="unit-knapsack")
    sub.add_argument("--capacity", type=_number, help="knapsack capacity")
    sub.add_argument("--machines", type=int, default=2, help="scheduling machines")
    sub.add_argument("--jobs", type=int, default=4, help="scheduling jobs")


def _add_train_flags(sub):
    sub.add_argument(
        "--variant", action="append", choices=VARIANTS, help="repeatable; default dnl"
    )
    sub.add_argument("--epochs", type=int, default=10)
    sub.add_argument("--max-seconds", type=float, default=120.0)
    sub.add_argument("--batch", type=int, default=32)
    sub.add_argument("--lr", type=float, default=0.1)
    sub.add_argument("--patience", type=int, default=5)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dnl", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write a synthetic series CSV")
    gen.add_argument("--days", type=int, required=True)
    gen.add_argument("--features", type=int, default=4)
    gen.add_argument("--noise", type=_finite, default=0.5)
    gen.add_argument("--group-size", type=int, default=48)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    tr = subs.add_parser("train", help="warmstart and train variants on one fold")
    _add_data_flags(tr)
    _add_problem_flags(tr)
    _add_train_flags(tr)
    tr.add_argument("--folds", type=int, default=1)
    tr.add_argument("--fold", type=int, default=0, help="fold index to train on")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", required=True, help="output directory")

    ev = subs.add_parser("eval", help="regret table for saved models over all folds")
    _add_data_flags(ev)
    _add_problem_flags(ev)
    ev.add_argument("--model", action="append", required=True, help="model file; repeatable")
    ev.add_argument("--folds", type=int, default=1)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", required=True, help="output CSV path")

    sw = subs.add_parser("sweep", help="train and evaluate across capacities")
    _add_data_flags(sw)
    sw.add_argument("--problem", choices=PROBLEMS[:2], default="unit-knapsack")
    sw.add_argument("--capacities", type=_number, nargs="+", required=True)
    _add_train_flags(sw)
    sw.add_argument("--folds", type=int, default=1)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--out", required=True, help="output CSV path")
    return parser


def _load_series(args):
    if args.data:
        if not os.path.exists(args.data):
            raise UsageError(f"data file not found: {args.data}")
        columns = [f"f{i}" for i in range(args.features)]
        return load_csv(args.data, columns, "price", args.group_size)
    return synthesize(args.days, args.features, args.noise, args.seed, args.group_size)


def _build_dataset(args, series, capacity=None):
    problem = args.problem
    if problem == "scheduling":
        return make_scheduling(series, args.machines, args.jobs, seed=args.seed + 1)
    cap = capacity if capacity is not None else args.capacity
    if cap is None:
        cap = DEFAULT_CAPACITY[problem]
    return make_knapsack(series, problem == "weighted-knapsack", cap, seed=args.seed + 1)


def _folds(problem_sets, args) -> list[Fold]:
    try:
        return split(problem_sets, SplitSpec(folds=args.folds))
    except ValueError as exc:  # --folds or the data size admits no split
        raise UsageError(str(exc)) from exc


def _configs(args) -> dict[str, Optional[TrainConfig]]:
    """Each requested variant with its training config (None for ridge), built
    before any work so that a bad training flag is a usage error."""
    configs: dict[str, Optional[TrainConfig]] = {}
    try:
        for variant in dict.fromkeys(args.variant or ["dnl"]):
            configs[variant] = None if variant == "ridge" else TrainConfig(
                variant=Variant(variant),
                batch_size=args.batch,
                learning_rate=args.lr,
                max_epochs=args.epochs,
                max_seconds=args.max_seconds,
                early_stop_patience=args.patience,
                rng_seed=args.seed,
            )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return configs


def _check_flags(args) -> None:
    """Reject out-of-range data and problem flags before any work."""
    for flag in ("days", "features", "group_size", "machines"):
        if getattr(args, flag, 1) < 1:
            raise UsageError(f"--{flag.replace('_', '-')} must be at least 1")
    if getattr(args, "jobs", 0) < 0:
        raise UsageError("--jobs must be nonnegative")
    if args.noise < 0:
        raise UsageError("--noise must be nonnegative")
    if getattr(args, "capacity", None) is not None and not args.capacity > 0:
        raise UsageError("--capacity must be positive")
    if not all(c > 0 for c in getattr(args, "capacities", [])):
        raise UsageError("--capacities must be positive")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")


def cmd_generate(args) -> int:
    series = synthesize(args.days, args.features, args.noise, args.seed, args.group_size)
    write_series_csv(series, args.out)
    print(
        f"wrote {series.num_rows} rows ({args.days} days, p={args.features}, "
        f"seed={args.seed}) to {args.out}"
    )
    return 0


def _variant_runs(fold, configs, warmstart, cache):
    """Train each of `_configs`' variants from `warmstart` on a fresh oracle,
    so its trace counts only its own calls, and score it on the fold's test
    days through `cache`. Yields (variant, model, trace, test mean, test
    std); ridge is the warm start, with no trace."""
    for variant, config in configs.items():
        oracle = SolverOracle()
        model, trace = warmstart, None
        if config is not None:
            trace = train(fold.train, fold.val, config, oracle, warmstart)
            model = trace.best_model
        yield (variant, model, trace, *evaluate_model_regret(model, fold.test, oracle, cache))


def cmd_train(args) -> int:
    configs = _configs(args)
    folds = _folds(_build_dataset(args, _load_series(args)), args)
    if not 0 <= args.fold < len(folds):
        raise UsageError(f"--fold must be in [0, {len(folds) - 1}]")
    fold = folds[args.fold]
    os.makedirs(args.out, exist_ok=True)
    cache = TrueOptimumCache()  # `train` keeps its own, so its call counts stay comparable
    warmstart, penalty = select_ridge(fold.train, fold.val, SolverOracle(), cache)
    save_model(warmstart, os.path.join(args.out, "ridge_model.txt"))
    print(f"ridge warmstart saved (penalty {penalty:g})")
    started = time.perf_counter()
    for variant, model, trace, mean, std in _variant_runs(fold, configs, warmstart, cache):
        line = f"{variant}: test regret {mean:.6g} (std {std:.6g})"
        if trace is not None:
            save_model(model, os.path.join(args.out, f"{variant}_model.txt"))
            write_trace_csv(trace, os.path.join(args.out, f"{variant}_trace.csv"))
            line += (
                f", best epoch {trace.best_epoch}, "
                f"val regret {trace.best_val_regret:.6g}, "
                f"{trace.total_oracle_calls} oracle calls, "
                f"{time.perf_counter() - started:.1f}s wall"
            )
        print(line)
        started = time.perf_counter()
    return 0


def cmd_eval(args) -> int:
    folds = _folds(_build_dataset(args, _load_series(args)), args)
    oracle = SolverOracle()
    cache = TrueOptimumCache()
    rows = []
    for model_path in args.model:
        if not os.path.exists(model_path):
            raise UsageError(f"model file not found: {model_path}")
        model = load_model(model_path)
        name = os.path.basename(model_path)
        fold_means = []
        for f, fold in enumerate(folds):
            mean, std = evaluate_model_regret(model, fold.test, oracle, cache)
            rows.append((name, str(f), mean, std, len(fold.test)))
            fold_means.append(mean)
        rows.append((name, "all", *_mean_std(fold_means),
                     sum(len(fold.test) for fold in folds)))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("model,fold,mean_regret,std_regret,problem_sets\n")
        for name, fold_id, mean, std, count in rows:
            fh.write(f"{name},{fold_id},{mean:.12g},{std:.12g},{count}\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    configs = _configs(args)
    series = _load_series(args)
    rows = []
    for capacity in sorted(args.capacities):
        fold_means: dict[str, list[float]] = {v: [] for v in configs}
        for fold in _folds(_build_dataset(args, series, capacity), args):
            cache = TrueOptimumCache()
            warmstart, _ = select_ridge(fold.train, fold.val, SolverOracle(), cache)
            for variant, _, _, mean, _ in _variant_runs(fold, configs, warmstart, cache):
                fold_means[variant].append(mean)
        rows += [(capacity, v, *_mean_std(means)) for v, means in fold_means.items()]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("capacity,variant,mean_regret,std_regret\n")
        for capacity, variant, mean, std in rows:
            fh.write(f"{capacity:.12g},{variant},{mean:.12g},{std:.12g}\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"dnl: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: distinct exit code for scripts
        print(f"dnl: failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
