"""Decision-quality evaluation: regret, predicted optimal value, true optimal value.

Knapsack maximises and scheduling minimises, so `_sign` turns a constraint
family into the sign that puts both into the shared maximization
convention; it is the one place that does. Larger POV/TOV is always better
and regret is always nonnegative.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    OBJECTIVE_TOL,
    ConstraintData,
    Knapsack,
    LinearModel,
    ProblemSet,
    _check_dimension,
    predict,
)
from .oracles import InexactOracleError, OracleResult, SolverOracle

__all__ = [
    "RegretValue",
    "TrueOptimumCache",
    "regret_of",
    "pov",
    "tov",
    "evaluate_model_regret",
]

def _sign(constraint: ConstraintData) -> float:
    """+1 for a knapsack, which maximises; -1 for scheduling, which minimises."""
    return 1.0 if isinstance(constraint, Knapsack) else -1.0


def _signed_objective(result: OracleResult, problem: ProblemSet) -> float:
    return _sign(problem.constraint) * result.objective


def _true_value(result: OracleResult, problem: ProblemSet) -> float:
    """The result's decision scored under the true coefficients:
    `core.solution_objective`'s expression without its re-checks, as a
    solver's answer always has the set's shape."""
    value = float(result.solution.vector.dot(problem.true_values)) + 0.0
    return _sign(problem.constraint) * value


def _clamped_regret(true_optimal: float, achieved: float, problem: ProblemSet) -> float:
    """true_optimal - achieved, with rounding noise within OBJECTIVE_TOL of
    zero read as zero. A regret below -OBJECTIVE_TOL means the oracle missed
    the optimum: InexactOracleError."""
    regret = true_optimal - achieved
    if regret < -OBJECTIVE_TOL:
        raise InexactOracleError(
            f"negative regret {regret} on problem {problem.id}: oracle is not exact"
        )
    return 0.0 if regret <= OBJECTIVE_TOL else regret


def _same_float(a: float, b: float) -> bool:
    """Whether two finite floats are bitwise equal: equal, and of one sign at zero."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _memoised(model: LinearModel) -> LinearModel:
    """The model, given an empty memo of its own oracle answers (read by
    `_own_answer`), stored on the immutable instance."""
    object.__setattr__(model, "_answers", {})
    return model


def _own_answer(model: LinearModel, problem: ProblemSet, oracle: SolverOracle) -> OracleResult:
    """The oracle's answer at the model's own predictions. A model that
    `training.train` works with carries a memo of these answers (`_memoised`;
    keyed on the problem set, which hashes by identity), so that it solves
    each set once; any other model solves on every call."""
    answers = model.__dict__.get("_answers")
    if answers is None:
        return oracle.solve(predict(model, problem), problem.constraint)
    if problem not in answers:
        answers[problem] = oracle.solve(predict(model, problem), problem.constraint)
    return answers[problem]


def _prober(
    model: LinearModel, problem: ProblemSet, beta_index: int, oracle: SolverOracle
) -> Callable[[float], OracleResult]:
    """The oracle's answer with parameter `beta_index` set to a probed value,
    as a function of that value: the one route from a probed value to an
    answer. Built once per (model, set, parameter), with one copy of the
    coefficients and one dimension check (ValueError on a mismatch, as
    `predict` raises). Each probe computes `predict(model.with_coefficient(
    beta_index, value), problem)` with the same operands, with no model
    built, and raises ValueError on a non-finite value. At the model's own
    value, bit for bit, the probe answers through `_own_answer`, which
    solves the same operands unless the model's memo holds the answer."""
    coefficients = model.coefficients.copy()
    _check_dimension(coefficients, problem)
    current = float(coefficients[beta_index])
    features, constraint = problem.features, problem.constraint
    intercept = model.intercept + 0.0  # `@`'s bits, as in `predict`

    def solve_at(beta: float) -> OracleResult:
        if not math.isfinite(beta):
            raise ValueError(f"probed parameter value {beta} is not finite")
        if beta == current and _same_float(beta, current):
            return _own_answer(model, problem, oracle)
        coefficients[beta_index] = beta
        return oracle.solve(features.dot(coefficients) + intercept, constraint)

    return solve_at


@dataclass(frozen=True)
class RegretValue:
    """Regret decomposition: regret = true_optimal - achieved, both in the
    maximization convention."""

    regret: float
    true_optimal: float
    achieved: float


class TrueOptimumCache:
    """Memo of true-optimal objectives per problem set object.

    True optima never change during training; caching them halves the oracle
    calls of every regret evaluation. Keyed on the problem set, which hashes
    by identity, so two sets with equal ids or values keep separate entries.
    Safe for concurrent readers.
    """

    def __init__(self):
        self._values: dict[ProblemSet, float] = {}
        self._lock = threading.Lock()

    def true_optimal(self, problem: ProblemSet, oracle: SolverOracle) -> float:
        with self._lock:
            value = self._values.get(problem)
        if value is not None:
            return value
        value = _signed_objective(oracle.solve(problem.true_values, problem.constraint), problem)
        with self._lock:
            return self._values.setdefault(problem, value)

    def __len__(self) -> int:
        return len(self._values)


def regret_of(
    model: LinearModel,
    problem: ProblemSet,
    oracle: SolverOracle,
    cache: Optional[TrueOptimumCache] = None,
) -> RegretValue:
    """Regret of deciding with the model's predictions on one problem set.

    Solves once under the true coefficients (memoized in `cache`; without
    one, in a throwaway cache) and once under the predicted coefficients,
    then scores the predicted solution against the true coefficients. A
    model that `training.train` works with already holds its answer on a set
    it has solved, which costs no oracle call; any other model, such as the
    returned `TrainTrace.best_model`, makes both calls.
    """
    if cache is None:
        cache = TrueOptimumCache()
    true_optimal = cache.true_optimal(problem, oracle)
    result = _own_answer(model, problem, oracle)
    achieved = _true_value(result, problem)
    regret = _clamped_regret(true_optimal, achieved, problem)
    return RegretValue(regret, true_optimal, achieved)


def pov(
    model: LinearModel,
    problem: ProblemSet,
    beta_index: int,
    beta_value: float,
    oracle: SolverOracle,
) -> float:
    """Predicted optimal value at one probed parameter setting.

    Solves with the predicted coefficients and evaluates the returned solution
    under those same predictions. Convex and piecewise linear in the probed
    parameter.
    """
    return _signed_objective(_prober(model, problem, beta_index, oracle)(beta_value), problem)


def tov(
    model: LinearModel,
    problem: ProblemSet,
    beta_index: int,
    beta_value: float,
    oracle: SolverOracle,
) -> float:
    """True optimal value: the predicted-coefficient solution scored under the
    true coefficients. A step function of the probed parameter."""
    return _true_value(_prober(model, problem, beta_index, oracle)(beta_value), problem)


@np.errstate(over="raise")
def evaluate_model_regret(
    model: LinearModel,
    problem_sets: Sequence[ProblemSet],
    oracle: SolverOracle,
    cache: Optional[TrueOptimumCache] = None,
) -> tuple[float, float]:
    """Mean and sample standard deviation of per-problem-set regret. A numpy
    overflow, such as a prediction that overflows to inf, raises
    FloatingPointError instead of warning, as it does under `training.train`."""
    if len(problem_sets) == 0:
        raise ValueError("at least one problem set required")
    return _mean_std([regret_of(model, ps, oracle, cache).regret for ps in problem_sets])


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation of one or more values, 0.0 for one."""
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return float(np.mean(values)), std
