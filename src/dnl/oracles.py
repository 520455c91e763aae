"""Exact optimization oracles.

Knapsack is solved over integer-scaled weights, or by branch-and-bound with
an LP-relaxation bound (real weights). Each `Knapsack` is scaled once, and
its route (count grid, table DP or branch-and-bound) and weight classes (the
distinct weights that fit and their item counts) are memoised on the
immutable instance. Within a class an optimal selection takes
the highest values, so a load of few classes is solved by a max over
per-class counts: a grid over every class but the heaviest, which takes what
the capacity left holds. One class is a grid of one cell, the capacity // w
largest positive values. The grid runs when it has no more cells than the
items x (capacity + 1) table, nor than `CLASS_GRID_MAX_CELLS`. Within a
class the lower index wins among equal values; across classes the first best
count vector in grid order (lexicographic, lightest class first) wins. Other
loads run the table DP, whose ties exclude the later item, capped at
`DP_TABLE_MAX_CELLS` cells. A load whose table would be larger, or whose
weights do not scale, goes to branch-and-bound; `solve_knapsack_dp` refuses
it with ValueError before anything is allocated. Branch-and-bound searches
depth first on an explicit stack, so no item count overflows the interpreter
stack, and a search that visits more than `KNAPSACK_BB_MAX_NODES` nodes
raises ValueError naming the budget and the item count.
Scheduling is solved by depth-first branch-and-bound. Its price-independent
plan (each job's feasible machines and starts, the job order, the capacity
limits) is built once per `Scheduling` and memoised on the instance, so a
call only prices and sorts the options. Options are tried in ascending cost,
so a job's loop stops at the first option whose lower bound reaches the
incumbent, an exact cut-off. A search that visits more than
`SCHEDULING_MAX_NODES` nodes raises ValueError naming the budget and the job
count. All solvers are pure functions and safe for concurrent use.
"""

from __future__ import annotations

import bisect
import itertools
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    ConstraintData,
    Knapsack,
    OBJECTIVE_TOL,
    Scheduling,
    Solution,
    knapsack_solution,
    scheduling_solution,
    solution_objective,
)

__all__ = [
    "OracleResult",
    "InfeasibleInstanceError",
    "InexactOracleError",
    "solve_knapsack_dp",
    "solve_knapsack_bb",
    "solve_scheduling",
    "SolverOracle",
]

# Largest items x (capacity + 1) boolean table the knapsack DP may allocate.
DP_TABLE_MAX_CELLS = 20_000_000

# Most cells the per-class count grid of a knapsack may have; a larger grid
# runs the table DP. Each cell costs a few float64 temporaries.
CLASS_GRID_MAX_CELLS = 100_000

# Most nodes one scheduling branch-and-bound search may visit.
SCHEDULING_MAX_NODES = 200_000

# Most nodes one knapsack branch-and-bound search may visit. Subset-sum loads
# of 25 to 1,200 real-valued items ran out of it in 1.4-2.0 s (500,000-
# 690,000 nodes per second on a 2-vCPU x86_64 Xeon).
KNAPSACK_BB_MAX_NODES = 1_000_000

# Largest exponent e the DP tries when scaling knapsack weights by 10**e to integers.
MAX_SCALE_SHIFT = 6


class InfeasibleInstanceError(ValueError):
    """Raised when a scheduling instance admits no feasible schedule."""


class InexactOracleError(RuntimeError):
    """Raised when an oracle answer contradicts optimality: a decision beats
    the oracle's optimum, or the predicted optimal value is not convex."""


@dataclass(frozen=True)
class OracleResult:
    """An optimal solution and its objective under the queried coefficients."""

    solution: Solution
    objective: float


def _integerize(weights: np.ndarray, capacity: float):
    """Scale weights by the smallest power of ten that makes them integral.
    The scaled capacity is clamped to the total scaled weight, which is exact
    (every subset fits either way) and keeps an infinite capacity finite."""
    for shift in range(MAX_SCALE_SHIFT + 1):
        scale = 10**shift
        scaled = weights * scale
        rounded = np.rint(scaled)
        tol = 1e-9 * np.maximum(1.0, np.abs(scaled))
        if np.all(np.abs(scaled - rounded) <= tol):
            cap = min(capacity * scale + OBJECTIVE_TOL, rounded.sum())
            return rounded.astype(np.int64), int(np.floor(cap))
    raise ValueError(
        f"weights are not integerizable within 10^{MAX_SCALE_SHIFT} scaling; "
        "use the branch-and-bound solver for real-valued weights"
    )


def _class_plan(weights: np.ndarray, cap: int):
    """The weight classes that fit in the capacity as `(class_weights,
    counts)`: the distinct integer weights up to `cap`, ascending, and each
    one's item count, as Python ints. None when the count grid over every
    class but the heaviest would have more cells than the items x (capacity
    + 1) table the DP fills, or than `CLASS_GRID_MAX_CELLS`: a grid cell
    costs more than a table cell, so such loads run the table DP."""
    listed = weights.tolist()
    budget = min(CLASS_GRID_MAX_CELLS, len(listed) * (cap + 1))
    class_weights, counts, cells = [], [], 1
    for w in sorted(set(listed)):
        if w > cap:
            break
        if cells > budget:  # the classes before this one
            return None
        count = listed.count(w)
        if w:  # a zero-weight class takes all its positive items: one cell
            cells *= min(count, cap // w) + 1
        class_weights.append(w)
        counts.append(count)
    return tuple(class_weights), tuple(counts)


def _integer_form(constraint: Knapsack):
    """The knapsack scaled to integers and its solver, as `(weights,
    capacity, route)`: the route is the `_class_plan` (count grid), None
    (table DP) or, for branch-and-bound, why the DP refuses the load: weights
    that do not scale (weights and capacity are then None) or a table over
    `DP_TABLE_MAX_CELLS` cells. Memoised on the immutable instance at first
    use; concurrent first uses compute equal forms, so that race is harmless."""
    form = constraint.__dict__.get("_integer_form")
    if form is None:
        try:
            weights, cap = _integerize(constraint.weights, constraint.capacity)
        except ValueError as exc:
            form = (None, None, str(exc))
        else:
            route = _class_plan(weights, cap)
            n = weights.shape[0]
            if route is None and n * (cap + 1) > DP_TABLE_MAX_CELLS:
                route = (
                    f"knapsack DP table of {n} x {cap + 1} cells exceeds the "
                    f"{DP_TABLE_MAX_CELLS}-cell budget; use the branch-and-bound solver"
                )
            form = (weights, cap, route)
        object.__setattr__(constraint, "_integer_form", form)
    return form


def _knapsack_table_dp(values: np.ndarray, weights: np.ndarray, cap: int) -> np.ndarray:
    """0-1 selection maximising value by the items x capacity table DP.

    Items with nonpositive value are never selected. Ties prefer excluding
    the later item. `_integer_form` routes only tables within
    `DP_TABLE_MAX_CELLS` here.
    """
    n = values.shape[0]
    best = np.zeros(cap + 1)
    keep = np.zeros((n, cap + 1), dtype=bool)
    for i in range(n):
        v = values[i]
        if v <= 0:
            continue
        w = int(weights[i])
        if w > cap:
            continue
        if w == 0:
            keep[i, :] = True
            best += v
            continue
        candidate = best[: cap + 1 - w] + v
        improved = candidate > best[w:]
        keep[i, w:] = improved
        np.maximum(best[w:], candidate, out=best[w:])

    x = np.zeros(n)
    remaining = cap
    for i in range(n - 1, -1, -1):
        if keep[i, remaining]:
            x[i] = 1.0
            remaining -= int(weights[i])
    return x


def _knapsack_by_class(values: np.ndarray, weights: np.ndarray, cap: int, classes) -> np.ndarray:
    """0-1 selection maximising value over the weight classes that fit.

    Within a class, an optimal selection takes that class's highest positive
    values (an exchange argument), ties to the lower index. So the optimum
    is a max over per-class counts of sorted-value prefix sums, found by
    `_best_class_counts` when more than one class fits.
    """
    class_weights, counts = classes
    keys = -values
    order = np.lexsort((keys, weights))  # class-major, value-descending
    sorted_keys = keys[order].tolist()
    takes, lo = [], 0  # per class: its positive values (keys below 0), at most cap // w
    for w, count in zip(class_weights, counts):
        positive = bisect.bisect_left(sorted_keys, 0.0, lo, lo + count) - lo
        takes.append(min(positive, cap // w) if w else positive)
        lo += count
    if len(counts) > 1:
        takes = _best_class_counts(values[order], cap, classes, takes)
    x = np.zeros(values.shape[0])
    lo = 0
    for count, take in zip(counts, takes):
        x[order[lo : lo + take]] = 1.0
        lo += count
    return x


def _best_class_counts(ranked: np.ndarray, cap: int, classes, limits: list[int]) -> list[int]:
    """The optimal count per class, given each class's values sorted
    descending in `ranked`, class after class, and its most useful count in
    `limits`. The counts of every class but the heaviest form one grid, in
    which the first best count vector in lexicographic order, lightest class
    first, wins; the heaviest class, of weight above 0, takes as many items
    as the capacity left holds."""
    class_weights, counts = classes
    prefixes, lo = [], 0  # sums of each class's top 0..limit values
    for count, limit in zip(counts, limits):
        prefixes.append(np.zeros(limit + 1))
        np.add.accumulate(ranked[lo : lo + limit], out=prefixes[-1][1:])
        lo += count
    grid_value, grid_room = np.zeros(1), np.array([cap])
    for w, limit, prefix in zip(class_weights[:-1], limits, prefixes):
        if w:
            grid_value = np.add.outer(grid_value, prefix).ravel()
            grid_room = np.subtract.outer(grid_room, np.arange(0, w * limit + 1, w)).ravel()
        else:  # a zero-weight class takes all its positive items
            grid_value = grid_value + prefix[limit]
    fill = np.minimum(np.maximum(grid_room, 0) // class_weights[-1], limits[-1])
    total = grid_value + prefixes[-1][fill]
    total[grid_room < 0] = -np.inf
    best = int(total.argmax())
    takes = list(limits)
    takes[-1] = int(fill[best])
    for c in range(len(counts) - 2, -1, -1):
        if class_weights[c]:  # row-major: the last axis varies fastest
            best, takes[c] = divmod(best, limits[c] + 1)
    return takes


def solve_knapsack_dp(values, constraint: Knapsack) -> OracleResult:
    """Maximize selected value subject to the weight capacity, exactly.

    Items with nonpositive value are never selected (excluding an item is
    always feasible). When the count grid of the weight classes is small
    enough (see `_class_plan`), the optimum is read off each class's sorted
    values: within a class the lower index wins among equal values, and
    across classes the first best count vector in grid order wins. When one
    class holds every item, that is the table DP's own selection. Other
    loads run the table DP, whose ties prefer excluding the later item.
    Raises ValueError on the loads `SolverOracle` routes to branch-and-bound:
    weights that do not scale to integers, or a table over `DP_TABLE_MAX_CELLS`.
    """
    values = np.asarray(values, dtype=float)
    weights, cap, route = _integer_form(constraint)
    if isinstance(route, str):
        raise ValueError(route)
    if weights.shape[0] != values.shape[0]:
        raise ValueError("values and weights must have equal length")

    if route is None:
        x = _knapsack_table_dp(values, weights, cap)
    else:
        x = _knapsack_by_class(values, weights, cap, route)
    solution = knapsack_solution(x)
    return OracleResult(solution, solution_objective(solution, values))


def solve_knapsack_bb(values, constraint: Knapsack) -> OracleResult:
    """Maximize selected value by branch-and-bound with a fractional relaxation bound.

    Handles real-valued weights. Objectives agree with the DP solver within
    1e-9; the selection itself may differ under ties. Items of positive
    value are ranked by value/weight; each node visits its include child
    before its exclude child and is pruned on entry when its bound cannot
    beat the incumbent. Raises ValueError when the search visits more than
    `KNAPSACK_BB_MAX_NODES` nodes.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(constraint.weights, dtype=float)
    cap = float(constraint.capacity)
    n = values.shape[0]
    if weights.shape[0] != n:
        raise ValueError("values and weights must have equal length")

    x = np.zeros(n)
    base_value = 0.0
    candidates = []
    for i in range(n):
        if values[i] <= 0 or weights[i] > cap + OBJECTIVE_TOL:
            continue
        if weights[i] == 0:
            x[i] = 1.0
            base_value += values[i]
        else:
            candidates.append(i)
    order = sorted(candidates, key=lambda i: values[i] / weights[i], reverse=True)
    vv = values[order]
    ww = weights[order]
    m = len(order)

    best_value = base_value
    best_chosen: list[int] = []
    taken = [False] * m  # taken[j]: the current path includes ranked item j
    max_nodes = KNAPSACK_BB_MAX_NODES
    nodes = 0

    def bound(level: int, value: float, weight: float) -> float:
        room = cap - weight
        for j in range(level, m):
            if ww[j] <= room:
                value += vv[j]
                room -= ww[j]
            else:
                value += vv[j] * room / ww[j]
                break
        return value

    # Depth first over (level, value, weight, took), where took says whether
    # the node includes item level - 1. The include child is pushed last, so
    # it is visited, with its whole subtree, before the exclude child.
    stack = [(0, base_value, 0.0, False)]
    while stack:
        level, value, weight, took = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            raise ValueError(
                f"knapsack branch-and-bound exceeded the {max_nodes}-node budget "
                f"on a load of {n} items"
            )
        if level:
            taken[level - 1] = took
        if value > best_value:
            best_value = value
            best_chosen = list(itertools.compress(range(level), taken))
        if level == m or bound(level, value, weight) <= best_value + 1e-12:
            continue
        stack.append((level + 1, value, weight, False))
        if weight + ww[level] <= cap + OBJECTIVE_TOL:
            stack.append((level + 1, value + vv[level], weight + ww[level], True))
    for level in best_chosen:
        x[order[level]] = 1.0
    solution = knapsack_solution(x)
    return OracleResult(solution, solution_objective(solution, values))


class _SchedulingPlan(NamedTuple):
    """The price-independent part of a scheduling search. Positions index
    jobs in search order; options are every feasible (machine, start) pair,
    grouped by position, machine-major and start-ascending within a group."""

    order: list[int]  # job at each position, tightest window first
    offsets: list[int]  # options of position p are offsets[p]:offsets[p + 1]
    group: np.ndarray  # position of each option
    start: np.ndarray  # start period of each option
    stop: np.ndarray  # start + duration of each option
    power: np.ndarray  # power of each option's job
    slots: list[tuple[int, int]]  # (machine, start) of each option
    resource: list[float]  # per position
    duration: list[int]  # per position
    limits: list[float]  # machine capacity + OBJECTIVE_TOL, per machine


def _scheduling_plan(constraint: Scheduling) -> _SchedulingPlan:
    """The load's search plan, built on first use and memoised on the
    immutable instance; concurrent first uses build equal plans."""
    plan = constraint.__dict__.get("_scheduling_plan")
    if plan is not None:
        return plan
    jobs = constraint.jobs
    order = sorted(
        range(len(jobs)),
        key=lambda j: (jobs[j].latest_finish - jobs[j].earliest_start - jobs[j].duration, j),
    )
    caps = [m.capacity for m in constraint.machines]
    offsets, slots, rows, power = [0], [], [], []
    for pos, j in enumerate(order):
        job = jobs[j]
        starts = range(job.earliest_start, job.latest_finish - job.duration + 1)
        for m, cap in enumerate(caps):
            if job.resource <= cap + OBJECTIVE_TOL:
                slots += [(m, t) for t in starts]
                rows += [(pos, t, t + job.duration) for t in starts]
                power += [job.power] * len(starts)
        offsets.append(len(slots))
    group, start, stop = np.array(rows, dtype=np.intp).reshape(-1, 3).T
    plan = _SchedulingPlan(
        order=order,
        offsets=offsets,
        group=group,
        start=start,
        stop=stop,
        power=np.array(power, dtype=float),
        slots=slots,
        resource=[jobs[j].resource for j in order],
        duration=[jobs[j].duration for j in order],
        limits=[cap + OBJECTIVE_TOL for cap in caps],
    )
    object.__setattr__(constraint, "_scheduling_plan", plan)
    return plan


def solve_scheduling(prices, constraint: Scheduling) -> OracleResult:
    """Minimize total energy cost by depth-first branch-and-bound.

    Jobs are assigned in order of window tightness, each trying its feasible
    (machine, start) options by ascending (cost, machine, start). The lower
    bound adds each unassigned job's cheapest option cost, ignoring resource
    conflicts. Options come in ascending cost and float addition is monotone,
    so the first option whose bound reaches the incumbent ends its job's
    loop: no later option can do better, and the cut-off is exact. The
    price-independent plan (options, job order, capacity limits) is built
    once per `Scheduling` and memoised on it. Raises InfeasibleInstanceError
    when no complete schedule exists, and ValueError when the search visits
    more than `SCHEDULING_MAX_NODES` nodes.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.shape[0] != constraint.periods:
        raise ValueError("one price per period required")
    plan = _scheduling_plan(constraint)
    prefix = np.concatenate(([0.0], np.cumsum(prices)))
    costs = plan.power * (prefix[plan.stop] - prefix[plan.start])
    rank = np.lexsort((costs, plan.group))
    option_cost = costs[rank].tolist()
    rank = rank.tolist()
    slots, offsets, order = plan.slots, plan.offsets, plan.order
    resource, duration, limits = plan.resource, plan.duration, plan.limits
    num_jobs = len(order)
    suffix_min = [0.0] * (num_jobs + 1)
    for pos in range(num_jobs - 1, -1, -1):
        suffix_min[pos] = suffix_min[pos + 1] + option_cost[offsets[pos]]

    max_nodes = SCHEDULING_MAX_NODES
    usage = [[0.0] * constraint.periods for _ in limits]
    assignment: list[tuple[int, int] | None] = [None] * num_jobs
    best_cost = np.inf
    best_assignment: list[tuple[int, int]] | None = None
    nodes = 0

    def dfs(pos: int, cost: float) -> None:
        nonlocal best_cost, best_assignment, nodes
        nodes += 1
        if nodes > max_nodes:
            raise ValueError(
                f"scheduling search exceeded the {max_nodes}-node budget "
                f"on a load of {num_jobs} jobs"
            )
        if pos == num_jobs:
            best_cost = cost
            best_assignment = assignment.copy()  # type: ignore[assignment]
            return
        j = order[pos]
        r = resource[pos]
        d = duration[pos]
        rest = suffix_min[pos + 1]
        for k in range(offsets[pos], offsets[pos + 1]):
            child_cost = cost + option_cost[k]
            if child_cost + rest >= best_cost - 1e-12:
                break  # later options cost no less, so they would be pruned too
            slot = slots[rank[k]]
            machine, start = slot
            row = usage[machine]
            window = row[start : start + d]
            if max(window) + r > limits[machine]:
                continue
            row[start : start + d] = [u + r for u in window]
            assignment[j] = slot
            dfs(pos + 1, child_cost)
            row[start : start + d] = window

    dfs(0, 0.0)
    if best_assignment is None:
        raise InfeasibleInstanceError("no feasible schedule exists for this instance")
    solution = scheduling_solution(best_assignment, constraint)
    return OracleResult(solution, solution_objective(solution, prices))


class SolverOracle:
    """Dispatching oracle with an invocation counter.

    Knapsack takes the route its memoised integer form chose once per load:
    the DP (count grid or table), or branch-and-bound when the weights do not
    integerize or the DP table would exceed its budget. Scheduling runs
    branch-and-bound. One oracle may be shared across threads: the call
    counter is updated under a lock, and the per-`Knapsack` integer form and
    per-`Scheduling` plan the solvers memoise are idempotent and only read.
    """

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self.calls = 0

    def solve(self, values, constraint: ConstraintData) -> OracleResult:
        with self._lock:
            self.calls += 1
        if isinstance(constraint, Knapsack):
            if isinstance(_integer_form(constraint)[2], str):
                return solve_knapsack_bb(values, constraint)
            return solve_knapsack_dp(values, constraint)
        if isinstance(constraint, Scheduling):
            return solve_scheduling(values, constraint)
        raise TypeError(f"unsupported constraint type {type(constraint)}")
