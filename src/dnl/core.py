"""Core domain types: problem sets, constraints, linear models, solutions.

All types are immutable after construction (arrays are copied and marked
read-only) and safe to share across threads.

Types that hold arrays (`Knapsack`, `ProblemSet`, `LinearModel`) compare
and hash by identity, as array equality has no single truth value; memos
key on the instance itself. `Scheduling`, `MachineSpec` and `JobSpec` hold
no arrays and compare and hash by value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Knapsack",
    "MachineSpec",
    "JobSpec",
    "Scheduling",
    "ConstraintData",
    "ProblemSet",
    "LinearModel",
    "Solution",
    "predict",
    "solution_objective",
    "knapsack_solution",
    "scheduling_solution",
    "validate_solution",
    "save_model",
    "load_model",
]

# Absolute tolerance for objective comparisons, shared repo-wide.
OBJECTIVE_TOL = 1e-9


_FLOAT = np.dtype(float)


def _frozen_array(values, ndim=1) -> np.ndarray:
    """A read-only float copy of `values`, or `values` itself when it already
    is a read-only native float64 array that owns its data (not a view of
    memory that another array may write)."""
    arr = values
    if not (isinstance(arr, np.ndarray) and arr.dtype is _FLOAT
            and arr.base is None and not arr.flags.writeable):
        arr = np.array(values, dtype=float)
        arr.setflags(write=False)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Knapsack:
    """0-1 knapsack constraint: finite item weights and a capacity limit,
    which may be infinite (no limit)."""

    weights: np.ndarray
    capacity: float

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        object.__setattr__(self, "capacity", float(self.capacity))
        if not np.isfinite(self.weights).all() or (self.weights < 0).any():
            raise ValueError("knapsack weights must be finite and nonnegative")
        if np.isnan(self.capacity) or self.capacity < 0:  # inf means no limit
            raise ValueError("knapsack capacity must be a nonnegative number")

    @property
    def num_items(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class MachineSpec:
    """A machine with a per-period resource capacity."""

    capacity: float

    def __post_init__(self):
        if not 0 <= self.capacity < np.inf:
            raise ValueError("machine capacity must be finite and nonnegative")


@dataclass(frozen=True)
class JobSpec:
    """A job: resource requirement, power draw per period, duration, time window.

    The job must run contiguously on one machine, starting no earlier than
    `earliest_start` and finishing no later than `latest_finish`.
    """

    resource: float
    power: float
    duration: int
    earliest_start: int
    latest_finish: int

    def __post_init__(self):
        if not (0 <= self.resource < np.inf and 0 <= self.power < np.inf):
            raise ValueError("job resource and power must be finite and nonnegative")
        if self.duration <= 0:
            raise ValueError("job duration must be positive")
        if self.earliest_start < 0:
            raise ValueError("earliest_start must be >= 0")
        if self.earliest_start + self.duration > self.latest_finish:
            raise ValueError(
                "job window too small: earliest_start + duration exceeds latest_finish"
            )


@dataclass(frozen=True)
class Scheduling:
    """Machine scheduling constraint: machines, jobs, and a period horizon.

    One coefficient (energy price) per period; the objective is a
    minimization of total energy cost.
    """

    machines: tuple[MachineSpec, ...]
    jobs: tuple[JobSpec, ...]
    periods: int

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if self.periods <= 0:
            raise ValueError("periods must be positive")
        if not self.machines:
            raise ValueError("at least one machine required")
        max_cap = max(m.capacity for m in self.machines)
        for j, job in enumerate(self.jobs):
            if job.duration > self.periods:
                raise ValueError(f"job {j} duration exceeds the horizon")
            if job.latest_finish > self.periods:
                raise ValueError(f"job {j} latest_finish exceeds the horizon")
            if job.resource > max_cap:
                raise ValueError(
                    f"job {j} resource {job.resource} exceeds every machine capacity"
                )


ConstraintData = Union[Knapsack, Scheduling]


@dataclass(frozen=True, eq=False)
class ProblemSet:
    """One optimization instance: true coefficients, per-coefficient features
    (both finite), and the shared constraint data."""

    true_values: np.ndarray
    features: np.ndarray
    constraint: ConstraintData
    id: str

    def __post_init__(self):
        object.__setattr__(self, "true_values", _frozen_array(self.true_values))
        object.__setattr__(self, "features", _frozen_array(self.features, ndim=2))
        if not (np.isfinite(self.true_values).all() and np.isfinite(self.features).all()):
            raise ValueError(f"problem set {self.id}: true values and features must be finite")
        n = self.true_values.shape[0]
        if self.features.shape[0] != n:
            raise ValueError(
                f"features rows ({self.features.shape[0]}) must match "
                f"true_values length ({n})"
            )
        if isinstance(self.constraint, Knapsack):
            if self.constraint.num_items != n:
                raise ValueError("knapsack weights length must match value count")
        elif isinstance(self.constraint, Scheduling):
            if self.constraint.periods != n:
                raise ValueError("one coefficient per period required")
        else:
            raise TypeError(f"unsupported constraint type {type(self.constraint)}")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Linear coefficient predictor: predicted value = coefficients . features + intercept."""

    coefficients: np.ndarray
    intercept: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _frozen_array(self.coefficients))
        object.__setattr__(self, "intercept", float(self.intercept))
        if not np.isfinite(self.coefficients).all() or not math.isfinite(self.intercept):
            raise ValueError("model parameters must be finite")

    @property
    def num_parameters(self) -> int:
        return self.coefficients.shape[0]

    def with_coefficient(self, index: int, value: float) -> "LinearModel":
        """Return a copy with one coefficient replaced."""
        coef = self.coefficients.copy()
        coef[index] = value
        return LinearModel(coef, self.intercept)


@dataclass(frozen=True, eq=False)
class Solution:
    """A feasible assignment plus the dot-product vector it induces.

    For knapsack, `vector` is the 0-1 selection itself. For scheduling,
    `vector` is the per-period total power consumption, so that
    objective = vector . prices in both families. Whether the objective is
    maximised or minimised is a fact of the family, not of the solution
    (`evaluation._sign`).

    A knapsack solution from `knapsack_solution` builds its `assignment`,
    the selection as a tuple of Python ints, from `vector` on first read and
    caches it on the instance. Concurrent first reads build equal tuples, so
    that race is harmless.

    Solutions compare by value: equal vector elements and assignment. Like
    the arrays they hold, they are not hashable (TypeError).
    """

    assignment: tuple
    vector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vector", _frozen_array(self.vector))

    def __getattr__(self, name):
        # Reached only for an attribute the instance lacks: the assignment
        # that `knapsack_solution` leaves to its first read.
        if name != "assignment":
            raise AttributeError(name)
        assignment = tuple(self.vector.astype(int).tolist())
        object.__setattr__(self, "assignment", assignment)
        return assignment

    def __eq__(self, other):
        if not isinstance(other, Solution):
            return NotImplemented
        return np.array_equal(self.vector, other.vector) and self.assignment == other.assignment

    __hash__ = None


def knapsack_solution(selection) -> Solution:
    """A knapsack solution from its 0-1 selection; a solver's fresh vector,
    handed over read-only, becomes the solution's vector without a copy.
    The solution stores only its vector; `assignment` is built from it on
    first read."""
    solution = object.__new__(Solution)
    solution.__dict__["vector"] = _frozen_array(selection)
    return solution


def scheduling_solution(assignment: Sequence[tuple[int, int]], constraint: Scheduling) -> Solution:
    """Build a scheduling solution from per-job (machine index, start period) pairs."""
    consumption = [0.0] * constraint.periods
    for job, (_, start) in zip(constraint.jobs, assignment):
        power = job.power
        for t in range(start, start + job.duration):
            consumption[t] += power
    pairs = tuple((int(m), int(t)) for m, t in assignment)
    return Solution(pairs, consumption)


def validate_solution(solution: Solution, constraint: ConstraintData) -> None:
    """Raise ValueError unless the solution is feasible under the constraint."""
    if isinstance(constraint, Knapsack):
        x = solution.vector
        if x.shape[0] != constraint.num_items:
            raise ValueError("solution length does not match item count")
        if not np.all((x == 0) | (x == 1)):
            raise ValueError("knapsack solution must be 0-1")
        total = float(constraint.weights @ x)
        if total > constraint.capacity + OBJECTIVE_TOL:
            raise ValueError(f"weight {total} exceeds capacity {constraint.capacity}")
        return
    if isinstance(constraint, Scheduling):
        if len(solution.assignment) != len(constraint.jobs):
            raise ValueError("one (machine, start) pair required per job")
        usage = np.zeros((len(constraint.machines), constraint.periods))
        expected = np.zeros(constraint.periods)
        for j, (job, (machine, start)) in enumerate(
            zip(constraint.jobs, solution.assignment)
        ):
            if not 0 <= machine < len(constraint.machines):
                raise ValueError(f"job {j}: machine index {machine} out of range")
            if start < job.earliest_start or start + job.duration > job.latest_finish:
                raise ValueError(f"job {j}: start {start} violates its time window")
            usage[machine, start : start + job.duration] += job.resource
            expected[start : start + job.duration] += job.power
        caps = np.array([m.capacity for m in constraint.machines])
        if np.any(usage > caps[:, None] + OBJECTIVE_TOL):
            raise ValueError("machine resource capacity exceeded in some period")
        if not np.allclose(expected, solution.vector, atol=OBJECTIVE_TOL):
            raise ValueError("consumption vector inconsistent with assignment")
        return
    raise TypeError(f"unsupported constraint type {type(constraint)}")


def predict(model: LinearModel, problem: ProblemSet) -> np.ndarray:
    """Predicted coefficient vector, one entry per item or period.

    The hot products of the package are written `a.dot(b)`, which costs
    less dispatch than `a @ b` for the same BLAS call. On one item or
    period, `dot` multiplies instead, so a product of -0.0 keeps its sign
    where `@`'s sum reads +0.0; adding +0.0 (here, to the intercept) gives
    `@`'s bits in every case."""
    _check_dimension(model.coefficients, problem)
    return problem.features.dot(model.coefficients) + (model.intercept + 0.0)


def _check_dimension(coefficients: np.ndarray, problem: ProblemSet) -> None:
    if coefficients.shape[0] != problem.feature_dim:
        raise ValueError(
            f"model has {coefficients.shape[0]} parameters but problem features "
            f"have dimension {problem.feature_dim}"
        )


def solution_objective(solution: Solution, values) -> float:
    """Objective of a solution under the given coefficient vector."""
    values = np.asarray(values, dtype=float)
    if values.shape != solution.vector.shape:
        raise ValueError(
            f"value vector shape {values.shape} does not match solution "
            f"vector shape {solution.vector.shape}"
        )
    return float(solution.vector.dot(values)) + 0.0  # `@`'s bits: see `predict`


def save_model(model: LinearModel, path) -> None:
    """Write a model as plain text: dimension, coefficients, intercept."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p {model.num_parameters}\n")
        fh.write("beta " + " ".join(f"{v:.17g}" for v in model.coefficients) + "\n")
        fh.write(f"intercept {model.intercept:.17g}\n")


def load_model(path) -> LinearModel:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    fields = {}
    for ln in lines:
        key, _, rest = ln.partition(" ")
        fields[key] = rest
    try:
        p = int(fields["p"])
        beta = np.array([float(v) for v in fields["beta"].split()])
        intercept = float(fields["intercept"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from exc
    if beta.shape[0] != p:
        raise ValueError(f"model file {path}: expected {p} coefficients, got {beta.shape[0]}")
    return LinearModel(beta, intercept)
