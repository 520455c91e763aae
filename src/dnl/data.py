"""Series ingestion and synthesis, problem construction, and fold splitting.

Series rows are half-hourly observations, kept in time order with no
per-row timestamp; every `group_size` consecutive rows (a day) become one
problem set. The makers return the days' problem sets as a plain
time-ordered tuple, which `split` takes as it is. Folds rotate contiguous time-ordered blocks so
adjacent rows never leak across splits.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    JobSpec,
    Knapsack,
    LinearModel,
    MachineSpec,
    ProblemSet,
    Scheduling,
)
from .oracles import InfeasibleInstanceError, solve_scheduling

__all__ = [
    "RawSeries",
    "SplitSpec",
    "Fold",
    "load_csv",
    "write_series_csv",
    "synthesize",
    "make_knapsack",
    "make_scheduling",
    "split",
    "WEIGHT_CHOICES",
]

logger = logging.getLogger(__name__)

WEIGHT_CHOICES = (3.0, 5.0, 7.0)

# Random scheduling loads drawn before `make_scheduling` gives up.
MAX_LOAD_ATTEMPTS = 50


@dataclass(frozen=True, eq=False)
class RawSeries:
    """Time-ordered rows of (feature vector, true price); row order is time
    order and every `group_size` consecutive rows form one day. Compares
    and hashes by identity, as the array-holding core types do."""

    features: np.ndarray
    prices: np.ndarray
    group_size: int = 48
    hidden_model: Optional[LinearModel] = None

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if self.features.shape[0] != self.prices.shape[0]:
            raise ValueError("features and prices must align")
        if self.group_size < 1:
            raise ValueError("group_size must be positive")

    @property
    def num_rows(self) -> int:
        return self.prices.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_groups(self) -> int:
        return self.num_rows // self.group_size

    def groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(features block, prices block) per full group; the trailing
        partial group is dropped. Raises ValueError when no group is full."""
        if not self.num_groups:
            raise ValueError("series has no complete group")
        dropped = self.num_rows - self.num_groups * self.group_size
        if dropped:
            logger.warning("dropping %d trailing rows that do not fill a group", dropped)
        size = self.group_size
        return [(self.features[lo : lo + size], self.prices[lo : lo + size])
                for lo in range(0, self.num_groups * size, size)]


@dataclass(frozen=True)
class SplitSpec:
    """How `split` divides time-ordered problem sets: fractions nonnegative
    and summing to 1. `val_frac` sizes every validation split. With one fold
    `test_frac` sizes its test split; with several, each test block is a
    folds-th of the sets and `test_frac` is not read. `train_frac` is read
    only in the sum: training takes the rest."""

    folds: int = 5
    train_frac: float = 0.70
    val_frac: float = 0.10
    test_frac: float = 0.20

    def __post_init__(self):
        if self.folds < 1:
            raise ValueError("folds must be positive")
        fractions = (self.train_frac, self.val_frac, self.test_frac)
        if min(fractions) < 0 or abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError("split fractions must be nonnegative and sum to 1")


@dataclass(frozen=True)
class Fold:
    train: tuple[ProblemSet, ...]
    val: tuple[ProblemSet, ...]
    test: tuple[ProblemSet, ...]


def load_csv(
    path,
    feature_columns: Sequence[str],
    price_column: str,
    group_size: int = 48,
) -> RawSeries:
    """Read a series from CSV with a header row, in file row order.

    Only the named columns are read; any other column (a timestamp, say) is
    ignored. Rows with a non-numeric or non-finite value are rejected with
    their file line number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, header row required")
        missing = [c for c in [*feature_columns, price_column] if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        features = []
        prices = []
        for line_no, row in enumerate(reader, start=2):
            try:
                features.append([float(row[c]) for c in feature_columns])
                prices.append(float(row[price_column]))
            except (TypeError, ValueError):
                raise ValueError(f"{path}: non-numeric value on line {line_no}") from None
    if not prices:
        raise ValueError(f"{path}: no data rows")
    features, prices = np.array(features), np.array(prices)
    bad = ~(np.isfinite(prices) & np.isfinite(features).all(axis=1))
    if bad.any():
        raise ValueError(f"{path}: non-finite value on line {int(np.argmax(bad)) + 2}")
    return RawSeries(features, prices, group_size)


def write_series_csv(series: RawSeries, path) -> None:
    """Write a series as CSV: a `timestamp` label per row (`d<day>-t<slot>`,
    from the row index and the group size), the features `f0..`, and `price`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        cols = ["timestamp"] + [f"f{i}" for i in range(series.feature_dim)] + ["price"]
        fh.write(",".join(cols) + "\n")
        for r, (row, price) in enumerate(zip(series.features, series.prices)):
            day, slot = divmod(r, series.group_size)
            cells = [f"d{day:04d}-t{slot:02d}", *(f"{v:.12g}" for v in row), f"{price:.12g}"]
            fh.write(",".join(cells) + "\n")


def synthesize(
    num_days: int,
    p: int,
    noise_sigma: float,
    seed: int,
    group_size: int = 48,
) -> RawSeries:
    """Seeded synthetic series: price = hidden linear map of features + noise.

    The hidden map is recorded on the series for realizability tests.
    """
    if num_days < 1:
        raise ValueError("num_days must be positive")
    if p < 1:
        raise ValueError("p must be positive")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError("noise_sigma must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    hidden = LinearModel(rng.uniform(1.0, 5.0, size=p), 5.0)
    rows = num_days * group_size
    features = rng.uniform(0.0, 1.0, size=(rows, p))
    prices = features @ hidden.coefficients + hidden.intercept
    if noise_sigma > 0:
        prices = prices + rng.normal(0.0, noise_sigma, size=rows)
    return RawSeries(features, prices, group_size, hidden)


def make_knapsack(
    series: RawSeries, weighted: bool, capacity: float, seed: int = 0
) -> tuple[ProblemSet, ...]:
    """One knapsack problem set per day, in time order. The sets share one
    constraint family and one feature dimension.

    Unit mode: weights are all one and item value equals the price. Every
    day shares one `Knapsack`, as `make_scheduling`'s days share one
    `Scheduling`, so its integer form (`oracles._integer_form`) is computed
    once for all of them.
    Weighted mode: item weights are drawn from {3, 5, 7}, value equals
    weight times price, and the weight joins the feature vector; each day
    has its own `Knapsack`. Every day's weights come from one
    `rng.choice(WEIGHT_CHOICES, size=(days, group_size))` draw, which reads
    the generator's stream as one draw of `group_size` per day would, so a
    seed gives the same days either way.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    groups = series.groups()
    rng = np.random.default_rng(seed)
    unit = None if weighted else Knapsack(np.ones(series.group_size), capacity)
    if weighted:  # every day's weights in one draw, a row per day
        day_weights = rng.choice(WEIGHT_CHOICES, size=(len(groups), series.group_size))
    problem_sets = []
    for g, (features, prices) in enumerate(groups):
        if weighted:
            weights = day_weights[g]
            values = weights * prices
            features = np.hstack([features, weights[:, None]])
            constraint = Knapsack(weights, capacity)
        else:
            values, constraint = prices, unit
        problem_sets.append(ProblemSet(values, features, constraint, f"day{g:04d}"))
    return tuple(problem_sets)


def make_scheduling(
    series: RawSeries,
    num_machines: int = 2,
    num_jobs: int = 4,
    seed: int = 0,
) -> tuple[ProblemSet, ...]:
    """One scheduling problem set per day, in time order, sharing a seeded
    random load (so one constraint family and one feature dimension).

    The generated load is validated by actually solving it once; generation
    retries, up to `MAX_LOAD_ATTEMPTS` loads, until a feasible one appears.
    """
    if num_machines < 1:
        raise ValueError("num_machines must be at least 1")
    if num_jobs < 0:
        raise ValueError("num_jobs must be nonnegative")
    groups = series.groups()
    rng = np.random.default_rng(seed)
    periods = series.group_size
    for _ in range(MAX_LOAD_ATTEMPTS):
        machines = tuple(MachineSpec(float(rng.integers(2, 5))) for _ in range(num_machines))
        max_cap = max(m.capacity for m in machines)
        jobs = []
        for _ in range(num_jobs):
            duration = int(rng.integers(1, min(5, periods) + 1))
            earliest = int(rng.integers(0, periods - duration + 1))
            latest = int(rng.integers(earliest + duration, periods + 1))
            jobs.append(
                JobSpec(
                    resource=float(rng.integers(1, int(max_cap) + 1)),
                    power=float(rng.integers(1, 4)),
                    duration=duration,
                    earliest_start=earliest,
                    latest_finish=latest,
                )
            )
        constraint = Scheduling(machines, tuple(jobs), periods)
        try:
            solve_scheduling(np.zeros(periods), constraint)
        except InfeasibleInstanceError:
            continue
        break
    else:
        raise InfeasibleInstanceError(
            f"could not generate a feasible load in {MAX_LOAD_ATTEMPTS} attempts"
        )
    return tuple(
        ProblemSet(prices, features, constraint, f"day{g:04d}")
        for g, (features, prices) in enumerate(groups)
    )


def _fold_test_bounds(n: int, spec: SplitSpec) -> list[tuple[int, int]]:
    """Test block [lo, hi) of each fold: the last test_frac of the sets for a
    single fold, else contiguous blocks that partition all n sets."""
    if spec.folds == 1:
        return [(n - max(1, round(spec.test_frac * n)), n)]
    return [(f * n // spec.folds, (f + 1) * n // spec.folds) for f in range(spec.folds)]


def split(problem_sets: Sequence[ProblemSet], spec: SplitSpec = SplitSpec()) -> list[Fold]:
    """Contiguous-block fold rotation over time-ordered problem sets, such as
    a maker's tuple.

    With multiple folds the test blocks partition all the sets; a single
    fold tests on the last sets. Within each fold the remaining sets stay in
    wrapped time order, train first and validation after. Counts follow the
    configured fractions, remainders going to the training split. Raises
    ValueError when a split would be empty.
    """
    problem_sets = list(problem_sets)
    n = len(problem_sets)
    if n < 3:
        raise ValueError("need at least three problem sets to split")
    if spec.folds > n:
        raise ValueError(f"{spec.folds} folds need {spec.folds} problem sets, got {n}")
    folds = []
    for lo, hi in _fold_test_bounds(n, spec):
        test = problem_sets[lo:hi]
        rest = problem_sets[hi:] + problem_sets[:lo]
        val_n = max(1, round(spec.val_frac * n))
        train_n = len(rest) - val_n
        if train_n < 1:
            raise ValueError("split leaves no training problem sets")
        folds.append(
            Fold(tuple(rest[:train_n]), tuple(rest[train_n:]), tuple(test))
        )
    return folds

