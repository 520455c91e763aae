"""Ridge regression: the indirect baseline and the training warmstart."""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np

from .core import LinearModel, ProblemSet, _check_dimension
from .evaluation import TrueOptimumCache, _clamped_regret, _true_value
from .oracles import SolverOracle

__all__ = ["fit_ridge", "select_ridge", "DEFAULT_PENALTY_GRID"]

DEFAULT_PENALTY_GRID = (0.0, 0.01, 0.1, 1.0, 10.0)


def fit_ridge(problem_sets: Sequence[ProblemSet], l2_penalty: float = 0.0) -> LinearModel:
    """Closed-form ridge fit over all (feature row, true value) pairs.

    The penalty excludes the intercept. At zero penalty a singular system is
    resolved by the least-norm solution. A fit whose system overflows raises
    FloatingPointError. `select_ridge` fits through the same steps, so its
    models are this function's bit for bit.
    """
    if math.isnan(l2_penalty):
        raise ValueError("l2_penalty must not be NaN")
    if l2_penalty < 0:
        raise ValueError("l2_penalty must be nonnegative")
    return _ridge_models(problem_sets, [l2_penalty])[0]


def _ridge_models(
    problem_sets: Sequence[ProblemSet], penalties: Sequence[float]
) -> list[LinearModel]:
    """The ridge model at each penalty, on the design matrix A (features,
    then a column of ones for the intercept) and the targets y. Penalty 0
    solves least squares on A; the positive penalties share the normal
    equations' A.T @ A and A.T @ y, which only they form. A numpy overflow
    raises FloatingPointError."""
    if not problem_sets:
        raise ValueError("at least one problem set required")
    X = np.vstack([ps.features for ps in problem_sets])
    y = np.concatenate([ps.true_values for ps in problem_sets])
    p = X.shape[1]
    if X.shape[0] < p + 1:
        raise ValueError(f"need at least {p + 1} rows to fit {p} coefficients")
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    models = []
    with np.errstate(over="raise"):
        if any(penalties):  # a positive penalty, which reads the gram
            gram, moment = A.T @ A, A.T @ y
        for penalty in penalties:
            if penalty == 0.0:
                coef, *_ = np.linalg.lstsq(A, y, rcond=None)
            else:
                diagonal = np.full(p + 1, penalty)
                diagonal[-1] = 0.0
                coef = np.linalg.solve(gram + np.diag(diagonal), moment)
            models.append(LinearModel(coef[:p], float(coef[p])))
    return models


def select_ridge(
    train_sets: Sequence[ProblemSet],
    val_sets: Sequence[ProblemSet],
    oracle: SolverOracle,
    cache: Optional[TrueOptimumCache] = None,
) -> tuple[LinearModel, float]:
    """Pick the penalty from `DEFAULT_PENALTY_GRID` with the lowest validation
    regret (ties favor the smallest penalty). Returns the refit model and the
    chosen penalty.

    The grid's positive penalties share one set of normal equations, and a
    fit that overflows raises FloatingPointError. Validation days that share
    a load are solved together: every penalty's predictions on them are rows
    of one `SolverOracle.solve_rows` call, each row computed with `predict`'s
    operands, penalty-major, followed by the true values of each of its days
    whose true optimum `cache` lacks, in validation order. So each answer and
    each call count is the one that a `solve` per (penalty, day), and one per
    uncached true optimum, gives; the optima solved are stored in `cache`,
    and a warm cache solves none again. Each day's optimum is read from the
    cache once, its regret is `regret_of`'s, and a penalty's score is the
    mean over the days in validation order, as `evaluate_model_regret`
    computes it. Each load's answers are scored as soon as they are solved,
    so only one load's are held at a time. A numpy overflow while scoring
    raises FloatingPointError; no validation day raises ValueError."""
    if cache is None:
        cache = TrueOptimumCache()
    penalties = sorted(DEFAULT_PENALTY_GRID)
    models = _ridge_models(train_sets, penalties)
    if not val_sets:
        raise ValueError("at least one problem set required")
    loads: dict[int, list[int]] = {}  # each load's validation days, by index
    for i, problem in enumerate(val_sets):
        _check_dimension(models[0].coefficients, problem)  # as `predict` checks
        loads.setdefault(id(problem.constraint), []).append(i)
    regrets = np.empty((len(models), len(val_sets)))  # per penalty, per day
    with np.errstate(over="raise"):
        for days in loads.values():
            problems = [val_sets[i] for i in days]
            optima = cache._lookup(problems)
            missing = [problem for problem, value in optima.items() if value is None]
            predicted = len(models) * len(days)
            rows = np.empty((predicted + len(missing), problems[0].true_values.shape[0]))
            for row, (model, problem) in zip(rows, itertools.product(models, problems)):
                problem.features.dot(model.coefficients, out=row)
                row += model.intercept + 0.0  # `predict`'s bits
            for row, problem in zip(rows[predicted:], missing):
                row[:] = problem.true_values
            rows.setflags(write=False)  # frozen, so `solve_rows` answers from it uncopied
            solved = oracle.solve_rows(rows, problems[0].constraint)
            for problem, result in zip(missing, solved[predicted:]):
                optima[problem] = cache._store(problem, _true_value(result, problem))
            for (k, i), result in zip(itertools.product(range(len(models)), days), solved):
                problem = val_sets[i]
                regrets[k, i] = _clamped_regret(
                    optima[problem], _true_value(result, problem), problem
                )
        scores = [float(np.mean(per_day)) for per_day in regrets]
    best = 0
    for k, score in enumerate(scores):
        if score < scores[best] - 1e-12:
            best = k
    return models[best], float(penalties[best])
