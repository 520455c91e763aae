"""Correctness checks on a trained instance, run outside the timed region.

Scheduling optima are compared against an exhaustive enumerator kept here,
so the check shares no search code with the package's solvers.
"""

from __future__ import annotations

import itertools

import numpy as np

import dnl
from dnl.core import OBJECTIVE_TOL

ENUMERATION_LIMIT = 200_000


class ScheduleEnumerator:
    """Every feasible schedule of one load, enumerated once.

    Feasibility does not depend on prices, so the distinct per-period
    consumption vectors of all feasible (machine, start) combinations are
    kept, and the optimum under any price vector is the least of their
    costs.
    """

    def __init__(self, constraint: dnl.Scheduling):
        caps = [m.capacity for m in constraint.machines]
        options = [
            [
                (machine, start)
                for machine, cap in enumerate(caps)
                if job.resource <= cap + OBJECTIVE_TOL
                for start in range(job.earliest_start, job.latest_finish - job.duration + 1)
            ]
            for job in constraint.jobs
        ]
        combos = int(np.prod([len(o) for o in options], dtype=float))
        if combos > ENUMERATION_LIMIT:
            raise ValueError(f"{combos} schedules exceed the enumeration limit")
        vectors = set()
        for combo in itertools.product(*options):
            usage = np.zeros((len(caps), constraint.periods))
            consumption = np.zeros(constraint.periods)
            for job, (machine, start) in zip(constraint.jobs, combo):
                usage[machine, start : start + job.duration] += job.resource
                consumption[start : start + job.duration] += job.power
            if np.all(usage <= np.array(caps)[:, None] + OBJECTIVE_TOL):
                vectors.add(tuple(consumption))
        if not vectors:
            raise ValueError("the load has no feasible schedule")
        self.constraint = constraint
        self.consumption = np.array(sorted(vectors))

    def minimum(self, prices) -> float:
        return float(np.min(self.consumption @ np.asarray(prices, dtype=float)))


def check_instance(instance, trace: dnl.TrainTrace, enumerators: dict) -> list[str]:
    """Problems found with one trained instance; an empty list means it passed.

    Checks that every test-split decision of the best model is feasible, that
    every regret is nonnegative, and that the package's solver agrees with an
    independent one on the predicted and the true coefficients.
    """
    problems = []
    for row in trace.epochs:
        if row.train_regret < 0 or row.val_regret < 0:
            problems.append(f"epoch {row.epoch}: negative regret")
    oracle = dnl.SolverOracle()
    model = trace.best_model
    for ps in instance.fold.test:
        where = f"seed {instance.data_seed} {ps.id}"
        predicted = dnl.predict(model, ps)
        try:
            dnl.validate_solution(oracle.solve(predicted, ps.constraint).solution, ps.constraint)
        except ValueError as exc:
            problems.append(f"{where}: infeasible decision: {exc}")
        try:
            regret = dnl.regret_of(model, ps, oracle).regret
        except RuntimeError as exc:  # regret_of refuses a negative regret
            regret = str(exc)
        if not (isinstance(regret, float) and regret >= 0):
            problems.append(f"{where}: regret is not nonnegative: {regret}")
        c = ps.constraint
        for label, values in (("predicted", predicted), ("true", ps.true_values)):
            if isinstance(c, dnl.Knapsack):
                ours = dnl.solve_knapsack_dp(values, c).objective
                reference = dnl.solve_knapsack_bb(values, c).objective
            else:
                if c not in enumerators:
                    enumerators[c] = ScheduleEnumerator(c)
                ours = dnl.solve_scheduling(values, c).objective
                reference = enumerators[c].minimum(values)
            if not abs(ours - reference) <= OBJECTIVE_TOL:
                problems.append(
                    f"{where}: {label} objective {ours!r} differs from reference {reference!r}"
                )
    return problems
