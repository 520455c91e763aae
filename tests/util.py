"""Test-only helpers: independent enumeration oracles and probe utilities.

These deliberately avoid the package's solver code paths so that agreement
checks are meaningful.
"""

import itertools

import numpy as np

import dnl

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
