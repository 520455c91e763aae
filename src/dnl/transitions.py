"""Exact transition points by supporting-line search.

With every parameter but one fixed, the predicted coefficients are affine in
the free parameter beta: base + beta * direction. Each feasible decision x
then scores a line in beta, intercept x.base and slope x.direction (costs are
negated for scheduling, so larger is always better), and the predicted
optimal value (POV) is the upper envelope of those lines: convex and
piecewise linear. Every oracle answer at a probe is a supporting line.

The search (Eisner and Severance's parametric search) probes the two ends of
the region. For a span whose end lines differ by more than `OBJECTIVE_TOL` at
either end, it probes where they cross. If POV there equals the lines' value
within `OBJECTIVE_TOL`, the crossing is a breakpoint: the left line is POV up
to it and the right line after it. Otherwise the probe's line lies above both
and splits the span in two. A probe either finds a new piece or confirms a
breakpoint, so a region with m breakpoints costs at most 2m + 1 probes (two
when m = 0). Several decisions optimal at a breakpoint are a tie the oracle
resolves by its own rule; the profile keeps the true value of the decision it
returned at the confirming probe, which sits exactly on the breakpoint.

A search scores each distinct decision once. Its sign is fixed by the
constraint family, and it memoises the line (intercept, slope, true value,
decision) of every decision it has scored, keyed on the bytes of the
decision's vector. A confirming probe mostly returns a decision the search
has already scored: it still costs its oracle call, but no dot product. The search's
arithmetic on lines is plain Python floats, which overflow to inf silently,
so a new line must be finite at both ends of the region (and so everywhere
in it) and a crossing must be a number; otherwise the search raises
FloatingPointError, as a numpy overflow does under `training.train` and an
overflowing region bound does in `SearchSpec.from_parameter`. End
lines that cross the wrong way mean an inexact oracle (InexactOracleError),
unless they do so by no more than a bound on the rounding error of the
predictions and line values (`_not_convex`), as when one feature term
swamps the rest of every prediction: that is a FloatingPointError naming
the lost precision. Each probe goes through one `evaluation._prober`, built
once per search.

The full search resolves its spans first in, first out, from a deque. It
resolves every span whatever the order, and sorts the breakpoints by t at
the end. That sort is stable, so breakpoints found at one t (a repeated
breakpoint) keep the order in which their spans were queued; a last-in,
first-out stack would reorder them, and with them the profile's values.

The greedy search also probes the old parameter value, takes its decision's
true objective value (TOV) as the reference, and resolves spans nearest the
old value first. It stops at the nearest breakpoint whose far-side piece
raises TOV above the reference by more than `OBJECTIVE_TOL`; that profile is
truncated and holds only this breakpoint. Only it needs a heap, keyed on the
distance to the old value and then on queue order. A greedy search that
finds no such breakpoint is complete; the old-value probe raises its bound
by one, to 2m + 2 probes (three when m = 0).
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import OBJECTIVE_TOL, LinearModel, ProblemSet
from .evaluation import _prober, _sign
from .oracles import InexactOracleError, SolverOracle

__all__ = [
    "SearchSpec",
    "TransitionProfile",
    "extract_full",
    "extract_greedy",
]

# The search region spans the current parameter plus or minus this multiple
# of its magnitude.
RELATIVE_SPAN = 1.5

# Below this magnitude the relative region degenerates and the symmetric
# fallback region is used instead.
ZERO_PARAM_THRESHOLD = 1e-6
ZERO_PARAM_BOUNDS = (-1.0, 1.0)

EPS = float(np.finfo(float).eps)  # 2**-52, twice the unit roundoff


@dataclass(frozen=True)
class SearchSpec:
    """One-parameter search region for transition extraction: finite
    bounds, lower strictly below upper."""

    lower: float
    upper: float

    def __post_init__(self):
        for name, bound in (("lower", self.lower), ("upper", self.upper)):
            if not math.isfinite(bound):
                raise ValueError(f"search region {name} bound {bound} is not finite")
        if not self.lower < self.upper:
            raise ValueError("lower must be strictly below upper")

    @classmethod
    def from_parameter(cls, beta: float) -> "SearchSpec":
        """Region centered on the current parameter, with half-width 1.5
        times its magnitude. Near zero the relative rule degenerates, so a
        fixed symmetric region is substituted. Raises FloatingPointError
        when a bound of a finite parameter overflows to infinity."""
        if abs(beta) < ZERO_PARAM_THRESHOLD:
            return cls(*ZERO_PARAM_BOUNDS)
        lo, hi = sorted((beta - RELATIVE_SPAN * beta, beta + RELATIVE_SPAN * beta))
        if math.isfinite(beta) and not (math.isfinite(lo) and math.isfinite(hi)):
            raise FloatingPointError(f"search region [{lo}, {hi}] of {beta!r} overflows")
        return cls(lo, hi)


@dataclass(frozen=True)
class TransitionProfile:
    """Transition points found for one problem set and parameter.

    `breakpoints` ascend; a breakpoint the search confirmed more than once
    (a repeated breakpoint) keeps every copy. A complete profile also
    carries `values`: the true value (maximisation convention) of the
    oracle's decision on each piece and at each breakpoint, in order piece
    0, breakpoint 0, piece 1, ..., piece m. Truncated greedy profiles, and
    profiles built by hand, carry none. `probe_count` counts the search's
    oracle calls: a probe at the value of a model that `training.train`
    works with, answered from that model's memo, costs none.
    """

    breakpoints: tuple[float, ...]
    probe_count: int
    lower: float
    upper: float
    truncated: bool = False
    values: tuple[float, ...] = ()

    def __post_init__(self):
        knots = (self.lower - 1e-12, *self.breakpoints, self.upper + 1e-12)
        if not all(a <= b for a, b in zip(knots, knots[1:])):
            raise ValueError("breakpoints must ascend within the region")
        if self.values and len(self.values) != 2 * len(self.breakpoints) + 1:
            raise ValueError("one value per piece and per breakpoint required")

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        """Each breakpoint t as (t, t), as `perfbench/tracer.py` counts
        them; it goes once the benchmark reads `breakpoints`."""
        return tuple((t, t) for t in self.breakpoints)


def _search(
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
    base = problem.features.dot(rest) + (model.intercept + 0.0)  # `@`'s bits: `predict`
    direction = problem.features[:, beta_index]
    true_values = problem.true_values
    sign = _sign(problem.constraint)
    scored: dict[bytes, tuple] = {}  # decision vector -> its line

    def probe(beta: float) -> tuple:
        """The oracle's decision x at beta as a line (intercept, slope, true
        value, x): `intercept + slope * b` is its predicted value at b."""
        x = solve_at(beta).solution.vector
        key = x.tobytes()
        line = scored.get(key)
        if line is None:
            # `+ 0.0` gives `@`'s bits on one item or period (`core.predict`).
            a = sign * (float(x.dot(base)) + 0.0)
            s = sign * (float(x.dot(direction)) + 0.0)
            true_value = sign * (float(x.dot(true_values)) + 0.0)
            if not (math.isfinite(true_value) and math.isfinite(a + s * spec.lower)
                    and math.isfinite(a + s * spec.upper)):
                raise FloatingPointError(
                    f"overflow scoring a decision on problem {problem.id}: "
                    f"line {(a, s, true_value)} over [{spec.lower}, {spec.upper}]"
                )
            line = scored[key] = (a, s, true_value, x)
        return line

    points = sorted({spec.lower, spec.upper} | ({beta_old} if beta_old is not None else set()))
    lines = [probe(b) for b in points]
    reference = lines[points.index(beta_old)][2] if beta_old is not None else None

    # Entries are (lo, hi, left, right, at): a span to resolve when `at` is
    # None, else a confirmed breakpoint lo == hi. The full search takes them
    # first in, first out; the greedy search nearest beta_old first, and
    # first in, first out among equal distances.
    if beta_old is None:
        pending = collections.deque()
        push, pop = pending.append, pending.popleft
    else:
        pending = []
        order = itertools.count()

        def push(entry):
            distance = max(entry[0] - beta_old, beta_old - entry[1], 0.0)
            heapq.heappush(pending, (distance, next(order), entry))

        def pop():
            return heapq.heappop(pending)[2]

    for lo, hi, left, right in zip(points, points[1:], lines, lines[1:]):
        push((lo, hi, left, right, None))
    found = []
    while pending:
        lo, hi, left, right, at = pop()
        if at is not None:
            # Every span nearer beta_old is resolved, so no nearer breakpoint is left.
            if reference is not None:
                far = ([left] if lo <= beta_old else []) + ([right] if lo >= beta_old else [])
                if any(line[2] > reference + OBJECTIVE_TOL for line in far):
                    return TransitionProfile(
                        (lo,), oracle.calls - calls_before,
                        spec.lower, spec.upper, truncated=True,
                    )
            found.append((lo, left, at, right))
            continue
        (a0, s0, _, _), (a1, s1, _, _) = left, right
        if abs(a0 + s0 * lo - (a1 + s1 * lo)) <= OBJECTIVE_TOL \
                and abs(a0 + s0 * hi - (a1 + s1 * hi)) <= OBJECTIVE_TOL:
            continue  # one piece, up to ties
        gap = s1 - s0
        if gap <= 0:  # supporting lines of a convex function cannot cross this way
            raise _not_convex(problem, rest, model.intercept, direction, lo, hi, left, right)
        t = min(max((a0 - a1) / gap, lo), hi)
        if not math.isfinite(t):  # both differences overflowed
            raise FloatingPointError(
                f"overflow locating a breakpoint on problem {problem.id} in [{lo}, {hi}]"
            )
        line = probe(t)
        if line[0] + line[1] * t <= max(a0 + s0 * t, a1 + s1 * t) + OBJECTIVE_TOL:
            push((t, t, left, right, line))
        else:
            push((lo, t, left, line, None))
            push((t, hi, line, right, None))

    found.sort(key=lambda b: b[0])
    values = [found[0][1][2] if found else lines[0][2]]
    for _, _, at, right in found:
        values += [at[2], right[2]]
    return TransitionProfile(
        tuple(t for t, *_ in found),
        oracle.calls - calls_before,
        spec.lower,
        spec.upper,
        values=tuple(values),
    )


def _not_convex(
    problem: ProblemSet, rest, intercept, direction, lo, hi, left, right
) -> Exception:
    """The error for a span whose end lines cross the wrong way.

    Exact answers in exact arithmetic cannot do that, but rounding can. A
    float sum of k terms is off by at most about k * u times the sum of its
    terms' magnitudes (u = 2**-53). With n items and d features, each
    prediction the oracle ranks sums d + 1 terms, and a line's value at a
    span end sums n of those predictions and two more terms. Let A be the
    sum of the magnitudes of both end decisions' terms at the span end
    farther from zero. Then the oracle's pick on rounded predictions trails
    the other decision by at most (d + 1) u A, and the two line values are
    off by at most (n + d + 3) u A together. A wrong-way crossing within
    twice their sum, (n + 2d + 4) * 2u * A, is lost precision, as when one
    feature term swamps every prediction: a FloatingPointError. A larger
    one means the oracle missed an optimum: InexactOracleError."""
    (a0, s0, _, x0), (a1, s1, _, x1) = left, right
    wrong = max(a1 + s1 * lo - (a0 + s0 * lo), a0 + s0 * hi - (a1 + s1 * hi))
    n, d = problem.features.shape
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.abs(problem.features) @ np.abs(rest) + abs(intercept) \
            + np.abs(direction) * max(abs(lo), abs(hi))
        rounding = float((np.abs(x0) + np.abs(x1)) @ ((n + 2 * d + 4) * EPS * terms))
    if not wrong > rounding:  # an overflowing term's bound (inf or nan) too
        return FloatingPointError(
            f"precision lost locating a breakpoint on problem {problem.id} in [{lo}, {hi}]: "
            f"its end lines break convexity by {wrong:g}, within their rounding error "
            f"bound {rounding:g}"
        )
    return InexactOracleError(f"POV not convex on problem {problem.id}: oracle is not exact")


def extract_full(
    model: LinearModel,
    problem: ProblemSet,
    beta_index: int,
    spec: SearchSpec,
    oracle: SolverOracle,
) -> TransitionProfile:
    """Every transition point of POV over the region, exactly."""
    return _search(model, problem, beta_index, spec, oracle, None)


def extract_greedy(
    model: LinearModel,
    problem: ProblemSet,
    beta_index: int,
    spec: SearchSpec,
    oracle: SolverOracle,
) -> TransitionProfile:
    """Transition search that stops at the nearest breakpoint to the
    parameter's current value, `model.coefficients[beta_index]`, whose far
    side improves TOV.

    The profile is then truncated to that breakpoint. When nothing improves,
    the complete profile of the region is returned. Raises ValueError when
    the region excludes the current value.
    """
    beta_old = float(model.coefficients[beta_index])
    if not spec.lower <= beta_old <= spec.upper:
        raise ValueError("the parameter's current value must lie inside the search region")
    return _search(model, problem, beta_index, spec, oracle, beta_old)
