"""Benchmark workloads: seeded `dnl train` pipelines built through the public API.

A workload run trains `instances` independent datasets. Instance i of run
seed s synthesises its series with data seed ``s * 1000 + i``, so the same
seed always gives the same inputs. Each instance follows `dnl train`: build
the problems, split them, warm-start with `select_ridge` on a fresh oracle
and cache, train on another fresh oracle, then score the best model on the
test split.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import dnl
from dnl.training import TrainingError

FEATURES = 4
NOISE = 0.5
SEED_STRIDE = 1000

# The machine load `dnl train` builds at its default seed. Solve cost per call
# depends mostly on the load, by up to 19x across load seeds 0-5 with 2
# machines x 4 jobs (see README.md), so the load stays fixed and the seed
# drives the prices.
SCHEDULING_LOAD_SEED = 1

# Far above a training's length at the sizes below (a few seconds), so the
# budget never stops a run on a healthy build; `stopped == "time"` is a failure.
MAX_TRAIN_SECONDS = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str  # "unit-knapsack", "weighted-knapsack" or "scheduling"
    variant: str
    capacity: Optional[float] = None
    machines: int = 2
    jobs: int = 4
    instances: int = 16
    train_days: int = 2
    val_days: int = 36
    test_days: int = 48
    epochs: int = 1

    @property
    def days(self) -> int:
        return self.train_days + self.val_days + self.test_days

    def smoke(self) -> "Workload":
        """The same pipeline at a size small enough for the test suite."""
        return replace(self, instances=1, train_days=1, val_days=1, test_days=1)


# Why each workload is here (BENCHMARK.json carries the same reasons):
# - knapsack-unit-dnl: candidate scoring (select_beta_full -> regret_of -> DP)
#   leads, and unit weights are the input a top-k fast path would serve.
#   Scoring a batch costs about its size squared and extraction its size, so
#   this workload trains on 14 days, where scoring is about half of `train`
#   and extraction under half; with 2 days extraction was three quarters.
#   A round then takes over 20 s, so a run makes one round, and 10 instances
#   keep the seed-to-seed spread of the mean regrets within their bound.
# - knapsack-weighted-greedy: greedy extraction (early exit, TOV probes,
#   truncated profiles) dominates, and non-unit weights bypass a unit-only path.
# - scheduling-max: full extraction in scheduling branch-and-bound; it runs no
#   knapsack code, so a knapsack change should leave it unchanged.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("knapsack-unit-dnl", "unit-knapsack", "dnl", capacity=24.0,
                 instances=10, train_days=14),
        Workload("knapsack-weighted-greedy", "weighted-knapsack", "dnl-greedy", capacity=122.0),
        Workload("scheduling-max", "scheduling", "dnl-max", instances=32, val_days=24, test_days=32),
    )
}


@dataclass
class Instance:
    data_seed: int
    fold: dnl.Fold
    warmstart: dnl.LinearModel


@dataclass
class Outcome:
    """What one training attempt produced; `error` is set when it failed."""

    oracle_calls: int = 0
    trace: Optional[dnl.TrainTrace] = None
    error: Optional[str] = None
    test_regret: Optional[float] = None  # scored for the first round only

    def fingerprint(self) -> tuple:
        """What must repeat exactly for one instance; the test regret follows
        from the coefficients."""
        model = self.trace.best_model
        return (
            self.oracle_calls,
            model.coefficients.tobytes(),
            model.intercept,
            self.trace.best_val_regret,
            self.trace.best_epoch,
        )


def data_seeds(workload: Workload, seed: int) -> list[int]:
    return [seed * SEED_STRIDE + i for i in range(workload.instances)]


def build_instance(workload: Workload, data_seed: int) -> Instance:
    """Synthesise, build problems, split and warm-start one instance."""
    series = dnl.synthesize(workload.days, FEATURES, NOISE, data_seed)
    if workload.problem == "scheduling":
        dataset = dnl.make_scheduling(
            series, workload.machines, workload.jobs, seed=SCHEDULING_LOAD_SEED
        )
    else:
        dataset = dnl.make_knapsack(
            series,
            workload.problem == "weighted-knapsack",
            workload.capacity,
            seed=data_seed + 1,
        )
    n = workload.days
    (fold,) = dnl.split(
        dataset,
        dnl.SplitSpec(
            folds=1,
            train_frac=workload.train_days / n,
            val_frac=workload.val_days / n,
            test_frac=workload.test_days / n,
        ),
    )
    sizes = (len(fold.train), len(fold.val), len(fold.test))
    if sizes != (workload.train_days, workload.val_days, workload.test_days):
        raise ValueError(f"split gave train/val/test sizes {sizes}")
    warmstart, _ = dnl.select_ridge(
        fold.train, fold.val, dnl.SolverOracle(), cache=dnl.TrueOptimumCache()
    )
    return Instance(data_seed, fold, warmstart)


def train_instance(workload: Workload, instance: Instance) -> Outcome:
    """One `dnl.train` call on a fresh oracle."""
    config = dnl.TrainConfig(
        variant=dnl.Variant(workload.variant),
        max_epochs=workload.epochs,
        max_seconds=MAX_TRAIN_SECONDS,
        rng_seed=instance.data_seed,
    )
    oracle = dnl.SolverOracle()
    fold = instance.fold
    try:
        trace = dnl.train(fold.train, fold.val, config, oracle, instance.warmstart)
    except (TrainingError, dnl.InfeasibleInstanceError) as exc:
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    if trace.stopped == "time":
        return Outcome(error=f"training hit max_seconds={MAX_TRAIN_SECONDS}")
    return Outcome(oracle.calls, trace)


def score(instance: Instance, outcome: Outcome) -> None:
    """Set the mean regret of the best model on the test days, as `dnl train`
    reports it."""
    outcome.test_regret, _ = dnl.evaluate_model_regret(
        outcome.trace.best_model, instance.fold.test, dnl.SolverOracle()
    )
