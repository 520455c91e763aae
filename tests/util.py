"""Test-only helpers: independent enumeration oracles and probe utilities.

These deliberately avoid the package's solver code paths so that agreement
checks are meaningful.
"""

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

import dnl
from dnl.core import OBJECTIVE_TOL, LinearModel, ProblemSet
from dnl.evaluation import _prober, _sign, _true_value
from dnl.oracles import InexactOracleError, SolverOracle
from dnl.transitions import SearchSpec, TransitionProfile

ENUMERATE_MAX_ITEMS = 22


def enumerate_knapsack(values, weights, capacity):
    """Exhaustive 0-1 knapsack by plain subset iteration; ties keep the
    first subset found. Refuses more than ENUMERATE_MAX_ITEMS items."""
    n = len(values)
    if n > ENUMERATE_MAX_ITEMS:
        raise ValueError(f"enumeration limited to {ENUMERATE_MAX_ITEMS} items, got {n}")
    best_val = 0.0
    best_x = (0,) * n
    for bits in itertools.product((0, 1), repeat=n):
        weight = sum(b * w for b, w in zip(bits, weights))
        if weight <= capacity + 1e-9:
            value = sum(b * v for b, v in zip(bits, values))
            if value > best_val + 1e-12:
                best_val = value
                best_x = bits
    return best_val, best_x


def reference_knapsack_bb(values, weights, capacity):
    """Recursive branch-and-bound with the fractional relaxation bound: items
    of positive value that fit by value/weight ratio, descending (zero
    weights taken outright), each node visiting its include child before its
    exclude child and pruning on entry when its bound cannot beat the
    incumbent. Returns (selection, nodes), nodes counting every visit. The
    reference for which optimum the package's branch-and-bound returns and
    for the size of its search tree; it recurses once per item, so it is
    limited to small loads."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    x = [0] * len(values)
    base, candidates = 0.0, []
    for i in range(len(values)):
        if values[i] <= 0 or weights[i] > capacity + 1e-9:
            continue
        if weights[i] == 0:
            x[i] = 1
            base += values[i]
        else:
            candidates.append(i)
    order = sorted(candidates, key=lambda i: values[i] / weights[i], reverse=True)
    vv, ww = values[order], weights[order]
    best = [base, []]
    chosen = []
    nodes = [0]

    def bound(level, value, weight):
        room = capacity - weight
        for j in range(level, len(order)):
            if ww[j] <= room:
                value += vv[j]
                room -= ww[j]
            else:
                return value + vv[j] * room / ww[j]
        return value

    def visit(level, value, weight):
        nodes[0] += 1
        if value > best[0]:
            best[:] = [value, chosen.copy()]
        if level == len(order) or bound(level, value, weight) <= best[0] + 1e-12:
            return
        if weight + ww[level] <= capacity + 1e-9:
            chosen.append(level)
            visit(level + 1, value + vv[level], weight + ww[level])
            chosen.pop()
        visit(level + 1, value, weight)

    visit(0, base, 0.0)
    for level in best[1]:
        x[order[level]] = 1
    return tuple(x), nodes[0]


def enumerate_schedule(prices, constraint):
    """Exhaustive scheduling by iterating every (machine, start) combination."""
    prices = np.asarray(prices, dtype=float)
    per_job = []
    for job in constraint.jobs:
        opts = []
        for m, machine in enumerate(constraint.machines):
            if job.resource > machine.capacity + 1e-9:
                continue
            for t in range(job.earliest_start, job.latest_finish - job.duration + 1):
                cost = job.power * float(prices[t : t + job.duration].sum())
                opts.append((m, t, cost))
        per_job.append(opts)
    best_cost = np.inf
    best_assignment = None
    caps = [m.capacity for m in constraint.machines]
    for combo in itertools.product(*per_job):
        usage = np.zeros((len(caps), constraint.periods))
        ok = True
        cost = 0.0
        for job, (m, t, c) in zip(constraint.jobs, combo):
            usage[m, t : t + job.duration] += job.resource
            cost += c
            if usage[m].max() > caps[m] + 1e-9:
                ok = False
                break
        if ok and cost < best_cost:
            best_cost = cost
            best_assignment = [(m, t) for m, t, _ in combo]
    return best_cost, best_assignment


def reference_schedule(prices, constraint):
    """Plain depth-first branch-and-bound: jobs by window tightness, options
    by ascending (cost, machine, start), a child pruned when its cost plus
    every later job's cheapest option reaches the incumbent. Returns
    (cost, assignment, nodes), with (inf, None, nodes) when no schedule
    fits; nodes counts the visits not pruned on entry. The reference for
    which of several optimal schedules the package's solver returns and for
    the size of its search tree."""
    prices = np.asarray(prices, dtype=float)
    prefix = np.concatenate(([0.0], np.cumsum(prices)))
    jobs = constraint.jobs
    caps = [m.capacity for m in constraint.machines]
    options = [
        sorted(
            (job.power * float(prefix[t + job.duration] - prefix[t]), m, t)
            for m, cap in enumerate(caps)
            if job.resource <= cap + 1e-9
            for t in range(job.earliest_start, job.latest_finish - job.duration + 1)
        )
        for job in jobs
    ]
    order = sorted(
        range(len(jobs)),
        key=lambda j: (jobs[j].latest_finish - jobs[j].earliest_start - jobs[j].duration, j),
    )
    suffix_min = np.zeros(len(jobs) + 1)
    for pos in range(len(jobs) - 1, -1, -1):
        suffix_min[pos] = suffix_min[pos + 1] + options[order[pos]][0][0]
    usage = np.zeros((len(caps), constraint.periods))
    assignment = [None] * len(jobs)
    best = [np.inf, None]
    nodes = [0]

    def visit(pos, cost):
        if cost + suffix_min[pos] >= best[0] - 1e-12:
            return
        nodes[0] += 1
        if pos == len(jobs):
            best[:] = [cost, list(assignment)]
            return
        j = order[pos]
        job = jobs[j]
        for opt_cost, m, t in options[j]:
            window = usage[m, t : t + job.duration]
            if np.any(window + job.resource > caps[m] + 1e-9):
                continue
            window += job.resource
            assignment[j] = (m, t)
            visit(pos + 1, cost + opt_cost)
            window -= job.resource

    visit(0, 0.0)
    return best[0], best[1], nodes[0]


def example1_problem():
    """Three-item knapsack with capacity for two items and known transitions."""
    return dnl.ProblemSet(
        [2.0, 1.0, 3.0],
        [[-1.0, 3.0], [0.0, 1.0], [1.0, 1.0]],
        dnl.Knapsack([1.0, 1.0, 1.0], 2.0),
        "example1",
    )


def example1_model(beta1):
    return dnl.LinearModel([beta1, 1.0], 0.0)


def random_knapsack_problem(rng, n=None, ps_id="rand"):
    """Random small knapsack problem set with continuous features."""
    if n is None:
        n = int(rng.integers(5, 13))
    features = rng.uniform(-1.0, 1.0, size=(n, 3))
    values = rng.uniform(0.5, 3.0, size=n)
    weights = rng.integers(1, 6, size=n).astype(float)
    capacity = max(1.0, 0.45 * float(weights.sum()))
    return dnl.ProblemSet(values, features, dnl.Knapsack(weights, capacity), ps_id)


def sweep_solution_changes(
    model, problem, beta_index, lo, hi, step, solve=None, key=None
):
    """Dense sweep: intervals (between adjacent grid points) where the
    solver's selection changes. Uses direct coefficient evaluation rather
    than the package's probing layer. `key` maps a solution to what is
    compared, by default its assignment."""
    if solve is None:
        solve = dnl.solve_knapsack_dp
    if key is None:
        key = lambda solution: solution.assignment
    rest = model.coefficients.copy()
    rest[beta_index] = 0.0
    base = problem.features @ rest + model.intercept
    direction = problem.features[:, beta_index]
    grid = np.arange(lo, hi + step / 2, step)
    changes = []
    prev_assignment = None
    for b in grid:
        assignment = key(solve(base + b * direction, problem.constraint).solution)
        if prev_assignment is not None and assignment != prev_assignment:
            changes.append((float(b - step), float(b)))
        prev_assignment = assignment
    return changes


def random_scheduling_problem(rng, ps_id="sched"):
    """Random scheduling problem set on two identical machines, so machine
    swaps give different assignments with the same consumption vector."""
    periods = 8
    jobs = []
    for _ in range(3):
        duration = int(rng.integers(1, 4))
        jobs.append(dnl.JobSpec(1.0, float(rng.integers(1, 4)), duration, 0, periods))
    machines = (dnl.MachineSpec(1.0), dnl.MachineSpec(1.0))
    constraint = dnl.Scheduling(machines, tuple(jobs), periods)
    features = rng.uniform(-1.0, 1.0, size=(periods, 3))
    prices = rng.uniform(1.0, 3.0, size=periods)
    return dnl.ProblemSet(prices, features, constraint, ps_id)


# The supporting-line search as it stood before its lines became plain
# tuples, kept verbatim (apart from its name) as the reference that
# `dnl.transitions._search` must match bit for bit: same breakpoints, values,
# probe counts and truncation.
@dataclass(frozen=True)
class _Line:
    """One probe's decision as a line in the free parameter."""

    intercept: float
    slope: float
    true_value: float

    def at(self, beta: float) -> float:
        return self.intercept + self.slope * beta


def reference_search(
    model: LinearModel,
    problem: ProblemSet,
    beta_index: int,
    spec: SearchSpec,
    oracle: SolverOracle,
    beta_old: Optional[float],
) -> TransitionProfile:
    calls_before = oracle.calls
    solve_at = _prober(model, problem, beta_index, oracle)
    rest = model.coefficients.copy()
    rest[beta_index] = 0.0
    base = problem.features @ rest + model.intercept
    direction = problem.features[:, beta_index]

    def probe(beta: float) -> _Line:
        result = solve_at(beta)
        sign = _sign(problem.constraint)
        x = result.solution.vector
        return _Line(
            sign * float(x @ base), sign * float(x @ direction), _true_value(result, problem)
        )

    points = sorted({spec.lower, spec.upper} | ({beta_old} if beta_old is not None else set()))
    lines = [probe(b) for b in points]
    reference = lines[points.index(beta_old)].true_value if beta_old is not None else None

    # Entries are (distance to beta_old, tie order, lo, hi, left, right, at):
    # a span to resolve when `at` is None, else a confirmed breakpoint lo == hi.
    pending: list = []
    order = itertools.count()

    def push(lo, hi, left, right, at=None):
        distance = 0.0 if beta_old is None else max(lo - beta_old, beta_old - hi, 0.0)
        heapq.heappush(pending, (distance, next(order), lo, hi, left, right, at))

    for lo, hi, left, right in zip(points, points[1:], lines, lines[1:]):
        push(lo, hi, left, right)
    found = []
    while pending:
        _, _, lo, hi, left, right, at = heapq.heappop(pending)
        if at is not None:
            # Every span nearer beta_old is resolved, so no nearer breakpoint is left.
            if reference is not None:
                far = ([left] if lo <= beta_old else []) + ([right] if lo >= beta_old else [])
                if any(line.true_value > reference + OBJECTIVE_TOL for line in far):
                    return TransitionProfile(
                        ((lo, lo),), oracle.calls - calls_before,
                        spec.lower, spec.upper, truncated=True,
                    )
            found.append((lo, left, at, right))
            continue
        if all(abs(left.at(b) - right.at(b)) <= OBJECTIVE_TOL for b in (lo, hi)):
            continue  # one piece, up to ties
        gap = right.slope - left.slope
        if gap <= 0:  # supporting lines of a convex function cannot cross this way
            raise InexactOracleError(
                f"POV not convex on problem {problem.id}: oracle is not exact"
            )
        t = min(max((left.intercept - right.intercept) / gap, lo), hi)
        line = probe(t)
        if line.at(t) <= max(left.at(t), right.at(t)) + OBJECTIVE_TOL:
            push(t, t, left, right, line)
        else:
            push(lo, t, left, line)
            push(t, hi, line, right)

    found.sort(key=lambda b: b[0])
    values = [found[0][1].true_value if found else lines[0].true_value]
    for _, _, at, right in found:
        values += [at.true_value, right.true_value]
    return TransitionProfile(
        tuple((t, t) for t, *_ in found),
        oracle.calls - calls_before,
        spec.lower,
        spec.upper,
        values=tuple(values),
    )
