"""Exact optimization oracles: which solver serves which load.

A `Knapsack` whose weights scale to integers (`_integer_form`, memoised on
the load) runs `solve_knapsack_dp` by one of three routes: a load where at
most one weight class fits, a unit knapsack among them, takes one stable
sort (`_knapsack_top_k`); a count grid over the classes of at most
`CLASS_GRID_MAX_CELLS` cells, and no larger than the table, takes
`_knapsack_by_class`, which raises FloatingPointError when class sums
overflow; other loads run the table DP, capped at `DP_TABLE_MAX_CELLS`
cells. Weights that do not scale to int64 integers (`_integerize`), or a
larger table, go to `solve_knapsack_bb`, capped at `KNAPSACK_BB_MAX_NODES`
nodes. A `Scheduling` runs `solve_scheduling` over a plan memoised on the
load (`_scheduling_plan`), capped at `SCHEDULING_MAX_NODES` nodes; the plan
keeps up to `SCHEDULING_MEMO_MAX` schedules built. A search past its node
cap raises NodeBudgetError, an oracle failure to `training.train`. Every
knapsack entry holds values to one contract, kept in `_check_values`: a
value per item, each finite, or ValueError. `SolverOracle` picks the route
and counts calls; its `solve_rows` hands a block of value rows for one load
to both class routes, and to the scheduling pricing (`_scheduling_rows`),
in one call, while the table DP and branch-and-bound solve row by row. All
solvers are pure functions of their inputs and safe for concurrent use.
Timings beside the routes that stay were taken at seed 0 on a 2-vCPU Xeon.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
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
)

__all__ = [
    "OracleResult",
    "InfeasibleInstanceError",
    "InexactOracleError",
    "NodeBudgetError",
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

# Most schedules a scheduling plan keeps built; past it answers are built but
# not stored. Each seed-0 scheduling-max load met 29 to 47 schedules over its
# set-up and training. A stored schedule is read in 0.6 us, against 7.2 us
# to build its `Solution`.
SCHEDULING_MEMO_MAX = 256

# Most nodes one knapsack branch-and-bound search may visit. Subset-sum loads
# of 25 to 1,200 real-valued items ran out of it in 1.4-2.0 s (500,000-
# 690,000 nodes per second on a 2-vCPU x86_64 Xeon).
KNAPSACK_BB_MAX_NODES = 1_000_000

# Largest exponent e the DP tries when scaling knapsack weights by 10**e to integers.
MAX_SCALE_SHIFT = 6


class InfeasibleInstanceError(ValueError):
    """Raised when a scheduling instance admits no feasible schedule."""


class NodeBudgetError(ValueError):
    """Raised when a branch-and-bound search visits more nodes than its
    budget, `KNAPSACK_BB_MAX_NODES` or `SCHEDULING_MAX_NODES`."""


class InexactOracleError(RuntimeError):
    """Raised when an oracle answer contradicts optimality: a decision beats
    the oracle's optimum, or the predicted optimal value is not convex."""


@dataclass(frozen=True)
class OracleResult:
    """An optimal solution and its objective under the queried coefficients.

    `_values` is the solver's own contiguous copy of the coefficients, so a
    caller that later writes to the array it passed does not change the
    answer; `objective`, `core.solution_objective(solution, _values)` without its
    shape check, is computed on each read. Nothing is written after
    construction. The solvers build their answers in place (`_result`), as
    `core.knapsack_solution` builds a `Solution`; the constructor stays public.
    """

    solution: Solution
    _values: np.ndarray = field(repr=False, compare=False)

    @property
    def objective(self) -> float:
        return float(self.solution.vector.dot(self._values)) + 0.0


def _result(solution: Solution, values: np.ndarray) -> OracleResult:
    """`OracleResult(solution, values)`, built without the frozen
    dataclass's `__init__`: two writes to the new instance's `__dict__`."""
    result = object.__new__(OracleResult)
    result.__dict__["solution"] = solution
    result.__dict__["_values"] = values
    return result


def _integerize(weights: np.ndarray, capacity: float):
    """Scale weights by the smallest power of ten that makes them integral.
    The scaled capacity is clamped to the total scaled weight, which is exact
    (every subset fits either way) and keeps an infinite capacity finite.
    Raises ValueError when no shift up to `MAX_SCALE_SHIFT` makes the weights
    integral, or when their scaled total does not fit int64."""
    for shift in range(MAX_SCALE_SHIFT + 1):
        scale = 10**shift
        scaled = weights * scale
        rounded = np.rint(scaled)
        tol = 1e-9 * np.maximum(1.0, np.abs(scaled))
        if np.all(np.abs(scaled - rounded) <= tol):
            total = rounded.sum()
            if total >= 2.0**63:  # a larger shift only scales it up
                raise ValueError(
                    f"scaled knapsack weights sum to {total:g}, beyond the int64 range; "
                    "use the branch-and-bound solver"
                )
            cap = min(capacity * scale + OBJECTIVE_TOL, total)
            return rounded.astype(np.int64), int(np.floor(cap))
    raise ValueError(
        f"weights are not integerizable within 10^{MAX_SCALE_SHIFT} scaling; "
        "use the branch-and-bound solver for real-valued weights"
    )


class _ClassPlan(NamedTuple):
    """The price-independent part of a count-grid solve: the load's weight
    classes that fit in the capacity, ascending by weight, as Python ints."""

    weights: tuple  # the distinct integer weights up to the capacity
    counts: tuple  # items per class
    extents: tuple  # most items a class can take: min(count, cap // w), count at weight 0
    fill: np.ndarray | None  # with more than one class, its `_class_fill` table


def _class_plan(weights: np.ndarray, cap: int):
    """The load's `_ClassPlan`, or None when the count grid over every class
    but the heaviest would have more cells than the items x (capacity + 1)
    table the DP fills, or than `CLASS_GRID_MAX_CELLS`: a grid cell costs more
    than a table cell, so such loads run the table DP. The grid gives each
    class of weight w above 0 an axis of its extent + 1 cells, and a
    zero-weight class an axis of one cell (it takes all its positive items).
    With more than one class, the fill table is looked up here, once per
    load, whatever its values."""
    listed = weights.tolist()
    budget = min(CLASS_GRID_MAX_CELLS, len(listed) * (cap + 1))
    class_weights, counts, extents, cells = [], [], [], 1
    for w in sorted(set(listed)):
        if w > cap:
            break
        if cells > budget:  # the classes before this one
            return None
        count = listed.count(w)
        extent = min(count, cap // w) if w else count
        cells *= extent + 1 if w else 1
        class_weights.append(w)
        counts.append(count)
        extents.append(extent)
    class_weights, extents = tuple(class_weights), tuple(extents)
    fill = _class_fill(cap, class_weights, extents) if len(extents) > 1 else None
    return _ClassPlan(class_weights, tuple(counts), extents, fill)


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


def _knapsack_by_class(values: np.ndarray, weights: np.ndarray, plan: _ClassPlan) -> np.ndarray:
    """0-1 selection maximising value over two or more weight classes that
    fit (fewer run `_knapsack_top_k`).

    Within a class an optimal selection takes that class's highest positive
    values (an exchange argument), ties to the lower index; items are ranked
    so, class after class. The optimum is the first best cell, in
    row-major order (lexicographic, lightest class first), of the load's
    count grid: a cell holds a count per class but the heaviest, which takes
    the most the room left holds (`_class_fill`), and scores the sum of each
    class's top values at its count. A zero-weight class takes all its
    positive values in every cell.

    The grid spans each class up to its extent, which depends on the load
    alone, so its fill table is built once per load shape. A solve sums each
    grid class's top values as ranked; the heaviest class's values, and a
    zero-weight class's, are clamped at zero first, so a count f of the
    heaviest class reads the sum of its top min(f, positives) values, and it
    takes only those. A cell that counts past some grid class's positive
    values adds nonpositive values of that class. Float addition is
    monotone, so that cell scores at most the cell with those counts lowered
    to the positive values, where the heaviest class has at least as much
    room; and that cell comes earlier in grid order. So the first best cell
    never counts past a class's positive values: it is the first best cell
    of the grid that spans each class only up to its positive values (and
    cap // w), with the same sums. The selection does not depend on how far
    past them the grid reaches. Finite values whose class sums overflow can
    leave a NaN (inf - inf) or +inf first best cell, which reads no
    feasible selection: the solver raises FloatingPointError there, as
    numpy does on the overflow under `training.train`.

    Given a 2-d array of value rows, one call selects for every row: one
    stable lexsort ranks each row, and the sums, the grid and the fill
    lookup carry a trailing row axis. These are the 1-d operations along
    each row (a stable sort's order is unique, and accumulation adds in
    sequence), so each row's selection is the one its own call gives. A
    1-d call keeps its own read-back on Python ints: 15 us on a 48-item
    {3, 5, 7} load at capacity 122, against 31 us as a one-row block.
    """
    class_weights, counts, extents, fill = plan
    # `rows` is the trailing row axis of the arrays below, () for one row;
    # `new_axis` adds a class axis to the grid, before the rows.
    if values.ndim == 2:  # each row ranked as alone, indexed into the flat block
        order = np.lexsort((-values, np.broadcast_to(weights, values.shape))).T
        order += np.arange(0, values.size, values.shape[1])
        rows, new_axis = values.shape[:1], (..., None, slice(None))
    else:
        order = np.lexsort((-values, weights))  # class-major, value-descending
        rows, new_axis = (), (..., None)
    ranked = values.take(order)
    grid, lo = None, 0
    for w, count, extent in zip(class_weights[:-1], counts, extents):
        prefix = np.zeros((extent + 1,) + rows)  # sums of the class's top 0..extent values
        top = prefix[1:]
        if w:
            np.add.accumulate(ranked[lo : lo + extent], out=top)
        else:  # one cell: the sum of its positive values
            np.add.accumulate(np.maximum(ranked[:count], 0.0), out=top)
            prefix = prefix[count:]
        grid = prefix if grid is None else grid[new_axis] + prefix
        lo += count
    extent = extents[-1]
    last = np.zeros((extent + 2,) + rows)  # the heaviest class's sums, then -inf
    top = last[1:-1]
    np.maximum(ranked[lo : lo + extent], 0.0, out=top)
    np.add.accumulate(top, out=top)
    last[-1] = -np.inf
    grid += last.take(fill, axis=0)  # each cell's score
    if rows:  # the 1-d read-back below, on every row at once, as masks in rank order
        if not math.isfinite(grid.max()):  # a NaN or +inf is its row's first best cell
            raise FloatingPointError("knapsack class sums overflow")
        best = grid.reshape((-1,) + rows).argmax(axis=0)
        span = np.arange(values.shape[1])[:, None]
        chosen = np.zeros(ranked.shape, dtype=bool)
        count = counts[-1]
        chosen[lo : lo + count] = (span[:count] < fill.take(best)) & (ranked[lo : lo + count] > 0.0)
        for w, count, extent in zip(class_weights[-2::-1], counts[-2::-1], extents[-2::-1]):
            lo -= count
            if w:
                best, take = np.divmod(best, extent + 1)
                chosen[lo : lo + count] = span[:count] < take
            else:
                chosen[lo : lo + count] = ranked[lo : lo + count] > 0.0
        x = np.zeros(values.shape)
        x.put(order, chosen)
        return x
    x = np.zeros(values.shape[0])
    best = int(grid.argmax())
    if not math.isfinite(grid.item(best)):  # a NaN (inf - inf) is the first best cell
        raise FloatingPointError("knapsack class sums overflow")
    x[order[lo : lo + _positives(ranked, lo, fill.item(best))]] = 1.0
    for w, count, extent in zip(class_weights[-2::-1], counts[-2::-1], extents[-2::-1]):
        lo -= count
        if w:  # row-major: the last axis varies fastest
            best, take = divmod(best, extent + 1)
        else:
            take = _positives(ranked, lo, count)
        x[order[lo : lo + take]] = 1.0
    return x


def _knapsack_top_k(values: np.ndarray, weights: np.ndarray, plan: _ClassPlan) -> np.ndarray:
    """0-1 selection maximising value on a load where at most one weight
    class fits: that class's top `extent` values, ranked by a stable sort
    (value-descending, ties to the lower index), that are positive. A
    zero-weight class's extent is its count, so it takes all its positive
    values; with no class, nothing is taken. This is `_knapsack_by_class`'s
    rule for one class, and the table DP's selection when the class holds
    every item. One sort of the class's values, with no class-major key.
    Given a 2-d array of value rows, one stable sort along the rows selects
    for every row, and each row's selection is the one its 1-d sort gives:
    a stable sort's order is unique."""
    x = np.zeros(values.shape)
    if not plan.extents:
        return x
    (w,), (count,), (extent,) = plan.weights, plan.counts, plan.extents
    if count == values.shape[-1]:
        top = (-values).argsort(kind="stable")[..., :extent]
    else:  # items of weight above the capacity stay out
        members = np.flatnonzero(weights == w)
        top = members.take((-values.take(members, axis=-1)).argsort(kind="stable")[..., :extent])
    if values.ndim == 2:
        rows = np.arange(values.shape[0])[:, None]
        x[rows, top] = values[rows, top] > 0.0
        return x
    # One row keeps its own tail: 2.3 us, against 3.8 us for the line above.
    if not values[top[-1]] > 0.0:
        top = top[values.take(top) > 0.0]
    x[top] = 1.0
    return x


def _positives(ranked: np.ndarray, lo: int, take: int) -> int:
    """How many of the `take` values from `ranked[lo]` on, which descend,
    are positive."""
    if take and not ranked[lo + take - 1] > 0.0:
        take = int(np.count_nonzero(ranked[lo : lo + take] > 0.0))
    return take


@functools.lru_cache(maxsize=64)
def _tiny_ones(n: int) -> np.ndarray:
    """n entries of 2**-32, read-only and shared by loads of n items. On
    n < 2**32 finite values, `values.dot(_tiny_ones(n))` cannot overflow, so
    it is non-finite exactly when a value is NaN or infinite: the knapsack
    solvers' finite check in one BLAS call. Values holding both infinities
    also warn, as numpy does on inf - inf."""
    row = np.full(n, 2.0**-32)
    row.setflags(write=False)
    return row


def _check_values(values: np.ndarray, n: int) -> None:
    """The knapsack value contract, on one value vector or each row of a
    block: n values, each finite (by `_tiny_ones`), or ValueError."""
    if values.shape[-1] != n:
        raise ValueError("values and weights must have equal length")
    sums = values.dot(_tiny_ones(n))  # one per row, non-finite where a value is
    if not (math.isfinite(sums) if values.ndim == 1 else np.isfinite(sums).all()):
        raise ValueError("knapsack values must be finite")


# One entry per load shape, looked up once per load: the 1,376 loads of the
# weighted benchmark at seed 0 hold 231 shapes (231 misses, 1,145 hits).
@functools.lru_cache(maxsize=256)
def _class_fill(cap: int, class_weights: tuple, extents: tuple) -> np.ndarray:
    """The price-independent part of the count grid, shaped as the grid: per
    cell, the heaviest class's count that the room left holds, capped at its
    extent, or extent + 1 (the index of -inf) where the grid's counts alone
    overrun the capacity. Loads of one shape share the entry, stored
    read-only in the smallest unsigned dtype that holds extent + 1."""
    room = np.array(cap)
    for w, extent in zip(class_weights[:-1], extents):
        room = np.subtract.outer(room, np.arange(extent + 1 if w else 1) * w)
    fill = np.minimum(np.maximum(room, 0) // class_weights[-1], extents[-1])
    fill[room < 0] = extents[-1] + 1
    fill = fill.astype(np.min_scalar_type(extents[-1] + 1))
    fill.setflags(write=False)
    return fill


def solve_knapsack_dp(values, constraint: Knapsack) -> OracleResult:
    """Maximize selected value subject to the weight capacity, exactly.

    Items with nonpositive value are never selected (excluding an item is
    always feasible). When the count grid of the weight classes is small
    enough (see `_class_plan`), the optimum is read off each class's sorted
    values: within a class the lower index wins among equal values, and
    across classes the first best count vector in grid order wins. When one
    class holds every item, that is the table DP's own selection. Other
    loads run the table DP, whose ties prefer excluding the later item.
    Raises ValueError on values that are not 1-d or break the value contract
    (`_check_values`). On finite values whose sums overflow, the count grid
    raises FloatingPointError, which numpy raises under `training.train`'s
    error state; the table DP solves them outside that state. Raises
    ValueError on the loads `SolverOracle` routes to branch-and-bound:
    weights that do not scale to integers, or a table over
    `DP_TABLE_MAX_CELLS`.
    """
    values = np.array(values, dtype=float)  # the answer's own copy
    if values.ndim != 1:
        raise ValueError("knapsack values must be a 1-d array")
    weights, cap, route = _integer_form(constraint)
    if isinstance(route, str):
        raise ValueError(route)
    _check_values(values, weights.shape[0])

    if route is None:
        x = _knapsack_table_dp(values, weights, cap)
    elif route.fill is None:  # at most one class fits
        x = _knapsack_top_k(values, weights, route)
    else:
        x = _knapsack_by_class(values, weights, route)
    x.setflags(write=False)  # handed to the solution without a copy
    return _result(knapsack_solution(x), values)


def solve_knapsack_bb(values, constraint: Knapsack) -> OracleResult:
    """Maximize selected value by branch-and-bound with a fractional relaxation bound.

    Handles real-valued weights. Objectives agree with the DP solver within
    1e-9; the selection itself may differ under ties. Items of positive
    value are ranked by value/weight; each node visits its include child
    before its exclude child and is pruned on entry when its bound cannot
    beat the incumbent, on an explicit stack, so no item count overflows the
    interpreter stack. Raises ValueError on values that are not 1-d or
    break the value contract (`_check_values`), and NodeBudgetError when
    the search visits more than `KNAPSACK_BB_MAX_NODES` nodes.
    """
    values = np.array(values, dtype=float)  # the answer's own copy
    if values.ndim != 1:
        raise ValueError("knapsack values must be a 1-d array")
    weights, cap = constraint.weights, constraint.capacity
    n = weights.shape[0]
    _check_values(values, n)

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
    best_chain = None
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

    # Depth first over (level, value, weight, chain), chain the included
    # levels as nested (level, rest) pairs, last first. The include child is
    # pushed last, so its whole subtree is visited before the exclude child.
    stack = [(0, base_value, 0.0, None)]
    while stack:
        level, value, weight, chain = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            raise NodeBudgetError(
                f"knapsack branch-and-bound exceeded the {max_nodes}-node budget "
                f"on a load of {n} items"
            )
        if value > best_value:
            best_value, best_chain = value, chain
        if level == m or bound(level, value, weight) <= best_value + 1e-12:
            continue
        stack.append((level + 1, value, weight, chain))
        if weight + ww[level] <= cap + OBJECTIVE_TOL:
            stack.append((level + 1, value + vv[level], weight + ww[level], (level, chain)))
    while best_chain is not None:
        level, best_chain = best_chain
        x[order[level]] = 1.0
    x.setflags(write=False)  # handed to the solution without a copy
    return _result(knapsack_solution(x), values)


class _SchedulingPlan(NamedTuple):
    """The price-independent part of a scheduling search. Positions index
    jobs in search order; options are every feasible (machine, start) pair,
    grouped by position, machine-major and start-ascending within a group.
    `answers` is the one part written after the build: the schedules the
    load's searches have returned, built once each."""

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
    answers: dict  # assignment -> its Solution, up to SCHEDULING_MEMO_MAX entries


def _scheduling_plan(constraint: Scheduling) -> _SchedulingPlan:
    """The load's search plan, built on first use and memoised on the
    immutable instance; concurrent first uses build equal plans. Solves write
    the plan's `answers`; a concurrent write stores an assignment and the
    `Solution` built from it, equal to what any other call stores, so a race
    can only replace an entry with an equal one, or pass the bound by one
    entry per racing call."""
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
        answers={},
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
    floor is every job's cheapest option cost, summed in search order from
    0.0, the association a path's cost uses. Rounded addition is monotone,
    so no schedule costs less than the floor, and the search ends at the
    first complete schedule that costs it: a later schedule would replace it
    only below its cost - 1e-12, so wherever the full search returns a
    schedule, this one returns the same one, visiting no more nodes. On a
    load whose cheapest options fit together the first dive ends the search.
    The search keeps one option cursor per job on an explicit stack. The
    price-independent plan (options, job order, capacity limits) is built
    once per `Scheduling` and memoised on it, and an optimal schedule met
    before on the load returns its stored `Solution`; the objective is
    always read under this call's prices. Raises ValueError on prices that
    are not 1-d, on a non-finite price or price total, InfeasibleInstanceError
    when no complete schedule exists, and NodeBudgetError when the search
    visits more than `SCHEDULING_MAX_NODES` nodes, counting the root and
    each placed job.
    """
    prices = np.array(prices, dtype=float)  # the answer's own copy
    if prices.ndim != 1:
        raise ValueError("scheduling prices must be a 1-d array")
    if prices.shape[0] != constraint.periods:
        raise ValueError("one price per period required")
    plan = _scheduling_plan(constraint)
    prefix = np.zeros(prices.shape[0] + 1)
    # The ufunc and sequential sums of the `cumsum` method, whose `out=` path
    # costs 1.5 us on 48 prices against 1.0 us here.
    np.add.accumulate(prices, out=prefix[1:])
    if not math.isfinite(prefix[-1]):  # a NaN or infinite price reaches the total
        raise ValueError("scheduling prices must be finite and have a finite sum")
    # One row is priced here in 5.3 us, against 19.4 us for a pricer shared
    # with `_scheduling_rows`.
    costs = plan.power * (prefix[plan.stop] - prefix[plan.start])
    rank = np.lexsort((costs, plan.group))
    return _result(_scheduling_search(plan, costs[rank].tolist(), rank.tolist(), constraint), prices)


def _scheduling_rows(prices: np.ndarray, constraint: Scheduling) -> list[OracleResult]:
    """`solve_scheduling` on each row of a 2-d price array, with the same
    checks. Every row is priced at once: the prefix sums, option costs and
    the (position, cost) ranking are `solve_scheduling`'s operations along
    the rows, so each row's costs and ranks are the bits its own call gives.
    The search then runs per row."""
    if prices.shape[1] != constraint.periods:
        raise ValueError("one price per period required")
    plan = _scheduling_plan(constraint)
    prefix = np.zeros((prices.shape[0], prices.shape[1] + 1))
    np.add.accumulate(prices, axis=1, out=prefix[:, 1:])
    if not np.isfinite(prefix[:, -1]).all():
        raise ValueError("scheduling prices must be finite and have a finite sum")
    costs = prefix.take(plan.stop, axis=1)
    costs -= prefix.take(plan.start, axis=1)
    costs *= plan.power
    rank = np.lexsort((costs, np.broadcast_to(plan.group, costs.shape)))
    option_costs = np.take_along_axis(costs, rank, axis=1)
    return [
        _result(_scheduling_search(plan, cost.tolist(), order.tolist(), constraint), row)
        for cost, order, row in zip(option_costs, rank, prices)
    ]


def _scheduling_search(
    plan: _SchedulingPlan, option_cost: list, rank: list, constraint: Scheduling
) -> Solution:
    """The branch-and-bound search of `solve_scheduling` over options priced
    and ranked by one call: `option_cost` lists every option's cost in rank
    order and `rank` the option at each rank, ascending by (position, cost),
    ties to the lower option. Returns the optimal schedule's `Solution`,
    stored in the plan's memo; raises as `solve_scheduling` documents."""
    slots, offsets, order = plan.slots, plan.offsets, plan.order
    resource, duration, limits = plan.resource, plan.duration, plan.limits
    num_jobs = len(order)
    suffix_min = [0.0] * (num_jobs + 1)
    for pos in range(num_jobs - 1, -1, -1):
        suffix_min[pos] = suffix_min[pos + 1] + option_cost[offsets[pos]]
    floor = 0.0  # every job's cheapest option, summed as a path sums its costs
    for pos in range(num_jobs):
        floor += option_cost[offsets[pos]]

    max_nodes = SCHEDULING_MAX_NODES
    nodes = 1  # the root, which places no job
    usage = [[0.0] * constraint.periods for _ in limits]
    assignment: list[tuple[int, int] | None] = [None] * num_jobs
    best_cost = np.inf
    best = None if num_jobs else ()  # with no jobs the root is the schedule
    last = num_jobs - 1
    cursor = [0] * num_jobs  # per position, its next option
    cost_at = [0.0] * num_jobs  # per position, the cost of the jobs placed before it
    undo = [None] * num_jobs  # per position, (row, start, window) its placed option overwrote
    pos = 0 if num_jobs else -1
    while pos >= 0:
        at = pos
        cost, rest = cost_at[at], suffix_min[at + 1]
        r, d = resource[at], duration[at]
        for k in range(cursor[at], offsets[at + 1]):
            child_cost = cost + option_cost[k]
            if child_cost + rest >= best_cost - 1e-12:
                break  # later options cost no less, so they would be pruned too
            slot = slots[rank[k]]
            machine, start = slot
            row = usage[machine]
            window = row[start : start + d]
            if max(window) + r > limits[machine]:
                continue
            nodes += 1
            if nodes > max_nodes:
                raise NodeBudgetError(
                    f"scheduling search exceeded the {max_nodes}-node budget "
                    f"on a load of {num_jobs} jobs"
                )
            assignment[order[at]] = slot
            if at == last:  # a complete schedule below the incumbent's cost
                best_cost, best = child_cost, tuple(assignment)
                if child_cost <= floor:  # no schedule costs less: stop
                    pos = -1
                    break
                continue
            row[start : start + d] = [u + r for u in window]
            undo[at] = (row, start, window)
            cursor[at] = k + 1
            pos = at + 1
            cursor[pos], cost_at[pos] = offsets[pos], child_cost
            break
        if pos == at:  # no option left here can beat the incumbent: back up
            pos -= 1
            if pos >= 0:
                row, start, window = undo[pos]
                row[start : start + len(window)] = window
    if best is None:
        raise InfeasibleInstanceError("no feasible schedule exists for this instance")
    answers = plan.answers
    solution = answers.get(best)
    if solution is None:
        solution = scheduling_solution(best, constraint)
        if len(answers) < SCHEDULING_MEMO_MAX:
            answers[best] = solution
    return solution


class SolverOracle:
    """Dispatching oracle with an invocation counter.

    Knapsack takes the route its memoised integer form chose once per load:
    the DP (count grid or table), or branch-and-bound when the weights do not
    integerize or the DP table would exceed its budget. Scheduling runs
    branch-and-bound. The solvers' errors propagate: ValueError on faulty
    input, FloatingPointError on overflowing class sums, and the oracle
    failures `training.train` names (InfeasibleInstanceError,
    NodeBudgetError). One oracle may be shared across threads: the call
    counter is updated under a lock, and the memos on a load race harmlessly
    (`_integer_form`, `_scheduling_plan`).
    """

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

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

    def solve_rows(self, values, constraint: ConstraintData) -> list[OracleResult]:
        """`solve` on each row of a 2-d array of coefficient vectors for one
        load, counted as one call per row; answers in row order, and `[]` for
        a block of no rows. Each row's answer has the vector, assignment and
        objective bits `solve` gives it, and a faulty row raises `solve`'s
        error for the block: on both class routes, the value contract
        (`_check_values`) checks the whole block at once. Both class routes
        and scheduling loads answer every row together (one call of
        `_knapsack_top_k` or `_knapsack_by_class`; one pricing and ranking,
        then a search per row): a `select_ridge` round took 20.6 ms on
        unit-dnl's loads and 120 ms on scheduling-max's so, against 29.2 and
        162 ms with `solve` per row. On a 48-item {3, 5, 7} load at capacity
        122, 5 rows take 64 us and 33 rows 206 us, against 94 and 612 us with
        `solve` per row. The table DP and branch-and-bound solve row by row.
        `train` keeps scalar `solve`, one backend call per counted call, which
        `--trace 1` checks until the benchmark's tracer counts calls instead
        of backend spans."""
        values = np.array(values, dtype=float)  # the answers' own copy
        if values.ndim != 2:
            raise ValueError("coefficient rows must be a 2-d array")
        with self._lock:
            self.calls += values.shape[0]
        if isinstance(constraint, Knapsack):
            weights, _, route = _integer_form(constraint)
            if isinstance(route, _ClassPlan):
                _check_values(values, weights.shape[0])
                if not values.shape[0]:  # the count grid has no rows to reduce
                    return []
                solver = _knapsack_top_k if route.fill is None else _knapsack_by_class
                x = solver(values, weights, route)
                return [_result(knapsack_solution(sel), row) for sel, row in zip(x, values)]
            solve = solve_knapsack_bb if isinstance(route, str) else solve_knapsack_dp
            return [solve(row, constraint) for row in values]
        if isinstance(constraint, Scheduling):
            return _scheduling_rows(values, constraint)
        raise TypeError(f"unsupported constraint type {type(constraint)}")
