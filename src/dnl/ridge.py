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
    resolved by the least-norm solution. `select_ridge` fits through the
    same two steps, so its models are this function's bit for bit.
    """
    if math.isnan(l2_penalty):
        raise ValueError("l2_penalty must not be NaN")
    if l2_penalty < 0:
        raise ValueError("l2_penalty must be nonnegative")
    return _ridge_model(_normal_equations(problem_sets), l2_penalty)


def _normal_equations(problem_sets: Sequence[ProblemSet]):
    """The design matrix A (features, then a column of ones for the
    intercept), the targets y, and the normal equations' A.T @ A and
    A.T @ y, which every positive penalty shares."""
    if not problem_sets:
        raise ValueError("at least one problem set required")
    X = np.vstack([ps.features for ps in problem_sets])
    y = np.concatenate([ps.true_values for ps in problem_sets])
    p = X.shape[1]
    if X.shape[0] < p + 1:
        raise ValueError(f"need at least {p + 1} rows to fit {p} coefficients")
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    return A, y, A.T @ A, A.T @ y


def _ridge_model(system, l2_penalty: float) -> LinearModel:
    """The ridge model at one penalty from `_normal_equations`' output."""
    A, y, gram, moment = system
    p = A.shape[1] - 1
    if l2_penalty == 0.0:
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    else:
        penalty = np.full(p + 1, l2_penalty)
        penalty[-1] = 0.0
        coef = np.linalg.solve(gram + np.diag(penalty), moment)
    return LinearModel(coef[:p], float(coef[p]))


def select_ridge(
    train_sets: Sequence[ProblemSet],
    val_sets: Sequence[ProblemSet],
    oracle: SolverOracle,
    cache: Optional[TrueOptimumCache] = None,
) -> tuple[LinearModel, float]:
    """Pick the penalty from `DEFAULT_PENALTY_GRID` with the lowest validation
    regret (ties favor the smallest penalty). Returns the refit model and the
    chosen penalty.

    The grid shares one set of normal equations. Validation days that share
    a load are solved together: every penalty's predictions on them are rows
    of one `SolverOracle.solve_rows` call, each row computed with `predict`'s
    operands, so each answer and each call count is the one that a `solve`
    per (penalty, day) gives. Each day's regret is `regret_of`'s, its true
    optimum read through `cache` (solved once per day on a fresh cache), and
    a penalty's score is the mean over the days in validation order, as
    `evaluate_model_regret` computes it. Each load's answers are scored as
    soon as they are solved, so only one load's are held at a time. A numpy
    overflow while scoring raises FloatingPointError; no validation day
    raises ValueError."""
    if cache is None:
        cache = TrueOptimumCache()
    system = _normal_equations(train_sets)
    penalties = sorted(DEFAULT_PENALTY_GRID)
    models = [_ridge_model(system, penalty) for penalty in penalties]
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
            rows = np.empty((len(models) * len(days), problems[0].true_values.shape[0]))
            for row, (model, problem) in zip(rows, itertools.product(models, problems)):
                problem.features.dot(model.coefficients, out=row)
                row += model.intercept + 0.0  # `predict`'s bits
            solved = oracle.solve_rows(rows, problems[0].constraint)
            for (k, i), result in zip(itertools.product(range(len(models)), days), solved):
                problem = val_sets[i]
                regrets[k, i] = _clamped_regret(
                    cache.true_optimal(problem, oracle), _true_value(result, problem), problem
                )
        best_model, best_penalty, best_regret = None, None, np.inf
        for model, penalty, per_day in zip(models, penalties, regrets):
            regret = float(np.mean(per_day))
            if regret < best_regret - 1e-12:
                best_model, best_penalty, best_regret = model, penalty, regret
    assert best_model is not None
    return best_model, float(best_penalty)
