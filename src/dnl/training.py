"""Coordinate-descent training on regret.

Each mini-batch sweeps the model parameters in ascending index order. For
one parameter, transition profiles are extracted per problem set, candidate
values are taken midway between consecutive transition points, the
batch-optimal candidate is selected by the variant's comparison rule, and
the parameter moves a learning-rate fraction toward it (a quasi-gradient
step). Both selectors take the batch's profiles and score candidates from
complete ones without oracle calls; only truncated greedy profiles fall back
to solving at the candidate, through the same probe route as the search
(`evaluation._prober`, built once per set), so no model is built per
candidate. `train` states when training stops.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .core import OBJECTIVE_TOL, LinearModel, ProblemSet
from .evaluation import (
    TrueOptimumCache, _clamped_regret, _memoised, _prober, _same_float, _true_value,
    evaluate_model_regret,
)
from .oracles import InexactOracleError, InfeasibleInstanceError, NodeBudgetError, SolverOracle
from .transitions import SearchSpec, TransitionProfile, extract_full, extract_greedy

__all__ = [
    "Variant",
    "TrainConfig",
    "EpochStats",
    "TrainTrace",
    "TrainingError",
    "candidate_betas",
    "select_beta_full",
    "select_beta_max",
    "train",
    "write_trace_csv",
]

class Variant(str, Enum):
    DNL = "dnl"
    DNL_MAX = "dnl-max"
    DNL_GREEDY = "dnl-greedy"


class TrainingError(RuntimeError):
    """A failed step of `train`, from its cause: "epoch E: floating-point
    error while DOING: cause" (an overflow or lost precision) or "epoch E:
    oracle failure while DOING: cause" (`_failures`)."""


@contextlib.contextmanager
def _failures(epoch: int, doing: str):
    """Re-raise a FloatingPointError or an oracle failure in the block as a
    TrainingError from it, named by its kind; other errors propagate."""
    try:
        yield
    except FloatingPointError as exc:
        raise TrainingError(f"epoch {epoch}: floating-point error while {doing}: {exc}") from exc
    except (InexactOracleError, InfeasibleInstanceError, NodeBudgetError) as exc:
        raise TrainingError(f"epoch {epoch}: oracle failure while {doing}: {exc}") from exc


@dataclass
class TrainConfig:
    """How `train` runs. `variant`: a `Variant` or its value. `batch_size`
    (at least 1): problem sets per mini-batch. `learning_rate` (in (0, 1]):
    the fraction of the way a parameter moves toward its selected candidate.
    `max_epochs` (at least 1): most passes over the training sets.
    `max_seconds` (positive): the wall-time budget, checked before each
    parameter update. `early_stop_patience` (nonnegative): after an epoch
    with no new least validation regret, training stops once that many
    epochs in a row have not improved; 0 stops there, as 1 does.
    `rng_seed` (nonnegative): seeds the mini-batch order."""

    variant: Variant = Variant.DNL
    batch_size: int = 32
    learning_rate: float = 0.1
    max_epochs: int = 20
    max_seconds: float = 120.0
    early_stop_patience: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        self.variant = Variant(self.variant)
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if not self.max_seconds > 0:
            raise ValueError("max_seconds must be positive")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be nonnegative")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")


@dataclass(frozen=True)
class EpochStats:
    """One trace row. `oracle_calls` is the oracle's `calls` counter when the
    row was recorded; answers the training model already held cost no call."""

    epoch: int
    train_regret: float
    val_regret: float
    seconds: float
    oracle_calls: int


@dataclass
class TrainTrace:
    """Per-epoch training record. Epoch 0 is the warmstart evaluation."""

    epochs: list[EpochStats]
    best_model: LinearModel
    best_epoch: int
    stopped: str

    @property
    def best_val_regret(self) -> float:
        return self.epochs[self.best_epoch].val_regret

    @property
    def total_oracle_calls(self) -> int:
        return self.epochs[-1].oracle_calls


def candidate_betas(
    profiles: Sequence[TransitionProfile], current_beta: float
) -> list[float]:
    """Midpoints of the pieces between each profile's region ends and
    breakpoints, plus the current parameter value."""
    candidates = {float(current_beta)}
    for profile in profiles:
        knots = [profile.lower, *profile.breakpoints, profile.upper]
        for a, b in zip(knots[:-1], knots[1:]):
            candidates.add((a + b) / 2.0)
    return sorted(candidates)


def _regret_scorer(
    profiles: Sequence[TransitionProfile],
    batch: Sequence[ProblemSet],
    model: LinearModel,
    beta_index: int,
    oracle: SolverOracle,
    cache: Optional[TrueOptimumCache],
) -> Callable[[int, np.ndarray], np.ndarray]:
    """Regrets of batch member i at an array of candidate values, as a
    function regret(i, betas). Each set's true optimum is read once, here.

    A candidate inside the region of a complete profile takes the true value
    of the piece (or breakpoint) it lies on, with no oracle call. Other
    candidates, and truncated profiles, take the true value of the oracle's
    answer at the candidate (a set's `_prober`, built at its first such
    candidate), memoised per set and value. Both
    then take the optimum minus this value by `_clamped_regret`'s rule, the
    operands `regret_of` uses, so they match it bit for bit.
    """
    if len(profiles) != len(batch):
        raise ValueError("one profile per batch problem set required")
    if not batch:
        raise ValueError("an empty batch has no regret to compare")
    if cache is None:
        cache = TrueOptimumCache()
    optima = [cache.true_optimal(ps, oracle) for ps in batch]
    # Per set, a row of edges: the float below the region's lower end; per
    # breakpoint t, the float below t (t itself where t repeats the edge
    # before it) and t; the upper end; +inf to one width. A candidate b
    # passes k = #(edges < b) of them, as `searchsorted` counts, and lands at
    # k in the rows of true values and regrets: below the region, piece 0,
    # breakpoint 0, piece 1, ..., piece m, above the region. A repeated
    # breakpoint's later copies span no float, so a candidate at it reads the
    # first copy's value and one past it the piece after the last copy, as
    # `bisect_left` over the breakpoints reads them. Rows hold nan, which
    # `regret` solves or raises on, out of the region, for a profile without
    # values (every candidate is solved) and where the regret is below
    # -`OBJECTIVE_TOL` (it raises when scored).
    width = 2 * max(len(p.breakpoints) for p in profiles) + 3
    inf, nan = float("inf"), float("nan")
    edges, true_values = [], []
    for p in profiles:
        row = [math.nextafter(p.lower, -inf)]
        for t in p.breakpoints:
            row += [t if t == row[-1] else math.nextafter(t, -inf), t]
        row.append(p.upper)
        values = [nan, *p.values, nan]
        edges.append(row + [inf] * (width - len(row)))
        true_values.append(values + [nan] * (width - len(values)))
    edges, true_values = np.array(edges), np.array(true_values)
    regrets = np.array(optima)[:, None] - true_values  # `_clamped_regret`'s rule,
    regrets[regrets < -OBJECTIVE_TOL] = nan  # with nan where it raises
    regrets[regrets <= OBJECTIVE_TOL] = 0.0
    solved: dict[tuple[int, float], float] = {}
    probers: dict[int, Callable] = {}  # built on a set's first fallback

    def solved_regret(i: int, beta: float, achieved: float) -> float:
        if achieved != achieved:  # no value to look up: solve at beta
            if (i, beta) not in solved:
                if i not in probers:
                    probers[i] = _prober(model, batch[i], beta_index, oracle)
                solved[i, beta] = _true_value(probers[i](beta), batch[i])
            achieved = solved[i, beta]
        return _clamped_regret(optima[i], achieved, batch[i])

    def regret(i: int, betas: np.ndarray) -> np.ndarray:
        at = edges[i].searchsorted(betas)
        row = regrets[i, at]
        if not np.minimum.reduce(row) >= 0.0:  # nan: solve or raise
            for j in np.flatnonzero(np.isnan(row)).tolist():
                row[j] = solved_regret(i, float(betas[j]), float(true_values[i, at[j]]))
        return row

    return regret


def _batch_regret(
    regret: Callable[[int, np.ndarray], np.ndarray], batch_size: int, betas: list[float]
) -> dict[float, float]:
    """Mean batch regret per candidate, the sets summed in batch order."""
    array = np.array(betas)
    total = sum(regret(i, array) for i in range(batch_size)) / batch_size
    return dict(zip(betas, total.tolist()))


def _argmin_candidate(
    scores: dict[float, float], current_beta: float
) -> float:
    best = min(scores.values())
    tied = [b for b, r in scores.items() if r <= best + OBJECTIVE_TOL]
    return min(tied, key=lambda b: (abs(b - current_beta), b))


def select_beta_full(
    profiles: Sequence[TransitionProfile],
    batch: Sequence[ProblemSet],
    model: LinearModel,
    beta_index: int,
    oracle: SolverOracle,
    cache: Optional[TrueOptimumCache] = None,
) -> float:
    """Full comparison: the batch-mean-regret argmin over every candidate,
    `candidate_betas(profiles, current)`, of the batch's profiles (one per
    problem set). With a warm cache and complete profiles only, the selection
    makes no oracle call. Ties break toward the candidate nearest the current
    parameter value. Raises ValueError on an empty batch.
    """
    current = float(model.coefficients[beta_index])
    regret = _regret_scorer(profiles, batch, model, beta_index, oracle, cache)
    scores = _batch_regret(regret, len(batch), candidate_betas(profiles, current))
    return _argmin_candidate(scores, current)


def select_beta_max(
    profiles: Sequence[TransitionProfile],
    batch: Sequence[ProblemSet],
    model: LinearModel,
    beta_index: int,
    oracle: SolverOracle,
    cache: Optional[TrueOptimumCache] = None,
) -> float:
    """Greedy comparison: each problem set nominates its own best candidate,
    then only the nominees (plus the current value) compete on the whole batch.

    Takes one transition profile per problem set. With a warm cache and
    complete profiles only, the selection makes no oracle call. Otherwise,
    with per-set candidate count at most L and batch size N, it spends at
    most (N-1)N + LN oracle calls on a warm cache. Raises ValueError on an
    empty batch.
    """
    current = float(model.coefficients[beta_index])
    regret = _regret_scorer(profiles, batch, model, beta_index, oracle, cache)
    nominees = {current}
    for i, profile in enumerate(profiles):
        own = candidate_betas([profile], current)
        scores = regret(i, np.array(own)).tolist()
        nominees.add(_argmin_candidate(dict(zip(own, scores)), current))
    batch_scores = _batch_regret(regret, len(batch), sorted(nominees))
    return _argmin_candidate(batch_scores, current)


@np.errstate(over="raise")
def train(
    train_sets: Sequence[ProblemSet],
    val_sets: Sequence[ProblemSet],
    config: TrainConfig,
    oracle: SolverOracle,
    warmstart: LinearModel,
) -> TrainTrace:
    """Coordinate-descent training loop over mini-batch regret.

    The intercept stays at its warmstart value; only the coefficient vector
    is trained. Returns the trace with the model attaining the lowest
    recorded validation regret, which carries no memo. A numpy overflow
    raises FloatingPointError instead of warning, as do a search region and
    a transition search whose own float arithmetic overflows. Scoring an
    epoch (the warm start included) or updating a parameter (region,
    extraction, selection) raises TrainingError from a FloatingPointError
    or an oracle failure; other errors propagate.

    Each epoch updates every parameter of every mini-batch in turn, then is
    scored. Training stops (`TrainTrace.stopped`) on "time" when the budget
    is spent before a parameter update; an epoch so cut short is scored
    unless it made no update, so every epoch in the trace after the warm
    start made one. Otherwise it stops on "patience" once
    max(`early_stop_patience`, 1) epochs have passed since the best epoch
    (an improvement is a validation regret more than 1e-12 below the best
    epoch's), or on "max_epochs".

    Each decision is solved once per model: the model in training keeps the
    oracle's answer at its own coefficients for every set it has solved, so
    an epoch snapshot of an unmoved model, or a greedy probe or selector
    fallback at the current value, costs no oracle call. An update that
    leaves the coefficient bitwise unchanged keeps the model and its memo.
    """
    if not train_sets:
        raise ValueError("training split is empty")
    if not val_sets:
        raise ValueError("validation split is empty")
    if warmstart.num_parameters != train_sets[0].feature_dim:
        raise ValueError("warmstart dimension does not match the dataset")
    model = _memoised(LinearModel(warmstart.coefficients, warmstart.intercept))
    cache = TrueOptimumCache()
    # Looked up per call, so that a wrapper set on the module attribute applies.
    select = select_beta_full if config.variant is Variant.DNL else select_beta_max
    extract = extract_greedy if config.variant is Variant.DNL_GREEDY else extract_full
    rng = np.random.default_rng(config.rng_seed)
    start_time = time.perf_counter()

    def snapshot(epoch: int) -> EpochStats:
        with _failures(epoch, "scoring the model"):
            train_regret, _ = evaluate_model_regret(model, train_sets, oracle, cache)
            val_regret, _ = evaluate_model_regret(model, val_sets, oracle, cache)
        return EpochStats(
            epoch,
            train_regret,
            val_regret,
            time.perf_counter() - start_time,
            oracle.calls,
        )

    stats = [snapshot(0)]
    best_model, best_epoch = model, 0
    stopped = "max_epochs"

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_sets))
        batches = [
            [train_sets[i] for i in order[start : start + config.batch_size]]
            for start in range(0, len(order), config.batch_size)
        ]
        updates = itertools.product(batches, range(model.num_parameters))
        for update, (batch, k) in enumerate(updates):
            if time.perf_counter() - start_time > config.max_seconds:
                stopped = "time"
                break
            beta_old = float(model.coefficients[k])
            with _failures(epoch, f"updating parameter {k}"):
                spec = SearchSpec.from_parameter(beta_old)
                profiles = [extract(model, ps, k, spec, oracle) for ps in batch]
                beta_opt = select(profiles, batch, model, k, oracle, cache)
            if config.learning_rate == 1.0:
                beta_new = beta_opt
            else:
                beta_new = beta_old + config.learning_rate * (beta_opt - beta_old)
            if not _same_float(beta_new, beta_old):
                model = _memoised(model.with_coefficient(k, beta_new))
        if stopped == "time" and update == 0:  # nothing new to score
            break
        stats.append(snapshot(epoch))
        if stats[-1].val_regret < stats[best_epoch].val_regret - 1e-12:
            best_model, best_epoch = model, epoch
        if stopped == "time":
            break
        if epoch - best_epoch >= max(config.early_stop_patience, 1):
            stopped = "patience"
            break

    # A fresh model drops the memo, which would pin every set it solved.
    best_model = LinearModel(best_model.coefficients, best_model.intercept)
    return TrainTrace(stats, best_model, best_epoch, stopped)


def write_trace_csv(trace: TrainTrace, path) -> None:
    """Write the per-epoch trace as CSV.

    Wall times vary between otherwise identical runs, so the seconds column
    is zeroed to keep emitted artifacts reproducible.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("epoch,train_regret,val_regret,seconds,oracle_calls\n")
        for row in trace.epochs:
            fh.write(
                f"{row.epoch},{row.train_regret:.12g},{row.val_regret:.12g},"
                f"0.000000,{row.oracle_calls}\n"
            )
