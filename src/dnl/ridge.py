"""Ridge regression: the indirect baseline and the training warmstart."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .core import LinearModel, ProblemSet
from .evaluation import TrueOptimumCache, evaluate_model_regret
from .oracles import SolverOracle

__all__ = ["fit_ridge", "select_ridge", "DEFAULT_PENALTY_GRID"]

DEFAULT_PENALTY_GRID = (0.0, 0.01, 0.1, 1.0, 10.0)


def fit_ridge(problem_sets: Sequence[ProblemSet], l2_penalty: float = 0.0) -> LinearModel:
    """Closed-form ridge fit over all (feature row, true value) pairs.

    The penalty excludes the intercept. At zero penalty a singular system is
    resolved by the least-norm solution.
    """
    if l2_penalty < 0:
        raise ValueError("l2_penalty must be nonnegative")
    if not problem_sets:
        raise ValueError("at least one problem set required")
    X = np.vstack([ps.features for ps in problem_sets])
    y = np.concatenate([ps.true_values for ps in problem_sets])
    p = X.shape[1]
    if X.shape[0] < p + 1:
        raise ValueError(f"need at least {p + 1} rows to fit {p} coefficients")
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    if l2_penalty == 0.0:
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    else:
        penalty = np.full(A.shape[1], l2_penalty)
        penalty[-1] = 0.0
        coef = np.linalg.solve(A.T @ A + np.diag(penalty), A.T @ y)
    return LinearModel(coef[:p], float(coef[p]))


def select_ridge(
    train_sets: Sequence[ProblemSet],
    val_sets: Sequence[ProblemSet],
    oracle: SolverOracle,
    cache: Optional[TrueOptimumCache] = None,
) -> tuple[LinearModel, float]:
    """Pick the penalty from `DEFAULT_PENALTY_GRID` with the lowest validation
    regret (ties favor the smallest penalty). Returns the refit model and the
    chosen penalty. Scoring runs through `evaluate_model_regret`, so a numpy
    overflow there raises FloatingPointError."""
    if cache is None:
        cache = TrueOptimumCache()
    best_model, best_penalty, best_regret = None, None, np.inf
    for penalty in sorted(DEFAULT_PENALTY_GRID):
        model = fit_ridge(train_sets, penalty)
        regret, _ = evaluate_model_regret(model, val_sets, oracle, cache)
        if regret < best_regret - 1e-12:
            best_model, best_penalty, best_regret = model, penalty, regret
    assert best_model is not None
    return best_model, float(best_penalty)
