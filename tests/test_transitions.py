import numpy as np
import pytest

import dnl
from dnl.core import OBJECTIVE_TOL
from util import (
    example1_model,
    example1_problem,
    random_knapsack_problem,
    random_scheduling_problem,
    reference_search,
    sweep_solution_changes,
)


@pytest.fixture
def oracle():
    return dnl.SolverOracle()


def piece_values(profile):
    return profile.values[::2]


def staircase_problem():
    """Capacity-one knapsack whose best item moves up one slope step at each
    of 0.5, 1.5, 2.5, 3.5 and 4.5; true values rise with the slope."""
    slopes = np.arange(6.0)
    features = np.column_stack([slopes, 20.0 - slopes**2 / 2.0])
    return dnl.ProblemSet(
        1.0 + slopes, features, dnl.Knapsack(np.ones(6), 1.0), "staircase"
    )


class TestSearchSpec:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            dnl.SearchSpec(1.0, 1.0)
        with pytest.raises(ValueError):
            dnl.SearchSpec(2.0, 1.0)

    def test_from_positive_parameter(self):
        spec = dnl.SearchSpec.from_parameter(2.0)
        assert spec.lower == pytest.approx(-1.0)
        assert spec.upper == pytest.approx(5.0)

    def test_from_negative_parameter(self):
        spec = dnl.SearchSpec.from_parameter(-2.0)
        assert spec.lower == pytest.approx(-5.0)
        assert spec.upper == pytest.approx(1.0)

    def test_zero_parameter_uses_fallback(self):
        spec = dnl.SearchSpec.from_parameter(0.0)
        assert (spec.lower, spec.upper) == (-1.0, 1.0)

    @pytest.mark.parametrize(
        "lower, upper, named",
        [(-np.inf, 1.0, "lower"), (0.0, np.inf, "upper"), (np.nan, 1.0, "lower"),
         (0.0, np.nan, "upper")],
    )
    def test_non_finite_bounds_rejected(self, lower, upper, named):
        with pytest.raises(ValueError, match=f"{named} bound .* not finite"):
            dnl.SearchSpec(lower, upper)

    def test_overflowing_parameter_rejected(self):
        with pytest.raises(ValueError, match="upper bound inf is not finite"):
            dnl.SearchSpec.from_parameter(1e308)
        with pytest.raises(ValueError, match="lower bound -inf is not finite"):
            dnl.SearchSpec.from_parameter(-1e308)


class TestExtractFull:
    def test_example1_two_intervals(self, oracle):
        ps = example1_problem()
        spec = dnl.SearchSpec(-5.0, 5.0)
        profile = dnl.extract_full(example1_model(1.0), ps, 0, spec, oracle)
        assert profile.breakpoints == (0.0, 2.0)
        # Items {0, 1}, {0, 2} and {1, 2} hold the three pieces.
        assert piece_values(profile) == (3.0, 5.0, 4.0)

    def test_non_convex_envelope_means_an_inexact_oracle(self):
        # Answering with the worst decision makes the envelope concave: the
        # end lines of the region cross the wrong way.
        class WorstDecision(dnl.SolverOracle):
            def solve(self, values, constraint):
                return super().solve(-np.asarray(values), constraint)

        spec = dnl.SearchSpec(-5.0, 5.0)
        with pytest.raises(dnl.InexactOracleError, match="not convex"):
            dnl.extract_full(example1_model(3.0), example1_problem(), 0, spec, WorstDecision())

    def test_slightly_inexact_oracle_on_large_values_is_inexact(self):
        # Two items, room for one, predictions near 1e7 whose gap stays within
        # 1e-6 over [-1, 1]. The oracle treats values within 1e-5 as tied and
        # takes the worse item (it solves the reversed values), so it misses
        # the optimum by 1e-6 at each end. That is about 500 ulps of the
        # values, far above their rounding (bound near 4e-8): the oracle is
        # to blame, not lost precision.
        class NearTiesTheWrongWay(dnl.SolverOracle):
            def solve(self, values, constraint):
                values = np.asarray(values, dtype=float)
                if np.ptp(values) <= 1e-5:
                    values = values[::-1]
                return super().solve(values, constraint)

        ps = dnl.ProblemSet(
            [1.0, 1.0], [[0.0, 1e7], [1e-6, 1e7]], dnl.Knapsack([1.0, 1.0], 1.0), "near"
        )
        model = dnl.LinearModel([0.0, 1.0], 0.0)
        with pytest.raises(dnl.InexactOracleError, match="not convex on problem near"):
            dnl.extract_full(model, ps, 0, dnl.SearchSpec(-1.0, 1.0), NearTiesTheWrongWay())

    def test_overflowing_crossing_is_an_overflow(self, oracle):
        # Both lines are finite over the region, but their intercepts and
        # slopes differ by more than the largest float: the crossing is nan.
        ps = dnl.ProblemSet(
            [1.0, 1.0], [[1e308, 1e308], [-1e308, -1e308]], dnl.Knapsack([1.0, 1.0], 1.0), "far"
        )
        model = dnl.LinearModel([0.0, 1.0], 0.0)
        with pytest.raises(FloatingPointError, match="locating a breakpoint on problem far"):
            dnl.extract_full(model, ps, 0, dnl.SearchSpec(-1.5, 0.5), oracle)

    def test_overflowing_line_is_an_overflow(self, oracle):
        # Both items at the top of the region: slope 1.2e308, finite, but
        # 1.8e308 at 1.5.
        ps = dnl.ProblemSet(
            [1.0, 2.0], [[6e307, 1.0], [6e307, 1.0]], dnl.Knapsack([1.0, 1.0], 2.0), "steep"
        )
        model = dnl.LinearModel([1.0, 1.0], 0.0)
        with pytest.raises(FloatingPointError, match="scoring a decision on problem steep"):
            dnl.extract_full(model, ps, 0, dnl.SearchSpec(-0.5, 1.5), oracle)

    def test_constant_argmax_region_has_no_intervals(self, oracle):
        # Both items respond identically to the parameter and the leader stays
        # positive across the region, so the selection never changes.
        ps = dnl.ProblemSet(
            [5.0, 1.0],
            [[1.0, 10.0], [1.0, 0.0]],
            dnl.Knapsack([1.0, 1.0], 1.0),
            "const",
        )
        spec = dnl.SearchSpec(-3.0, 3.0)
        profile = dnl.extract_full(dnl.LinearModel([0.0, 1.0], 0.0), ps, 0, spec, oracle)
        assert profile.breakpoints == ()
        assert profile.probe_count == 2

    def test_intervals_bracket_solution_changes(self, oracle):
        rng = np.random.default_rng(211)
        for i in range(12):
            ps = random_knapsack_problem(rng, n=8, ps_id=f"sweep{i}")
            model = dnl.LinearModel(rng.normal(size=3), 0.0)
            spec = dnl.SearchSpec(-1.5, 1.5)
            profile = dnl.extract_full(model, ps, 0, spec, oracle)
            changes = sweep_solution_changes(model, ps, 0, -1.5, 1.5, 0.005)
            for t in profile.breakpoints:
                hit = any(lo - 0.005 <= t <= hi + 0.005 for lo, hi in changes)
                assert hit, f"breakpoint {t} lies near no solution change"
            for lo, hi in changes:
                covered = any(lo <= t <= hi for t in profile.breakpoints)
                assert covered, f"solution change in ({lo}, {hi}) was missed"

    def test_scheduling_breakpoints_match_vector_changes(self, oracle):
        # Compares consumption vectors: a machine swap changes the assignment
        # but not the vector, and is no transition of the predicted value.
        rng = np.random.default_rng(233)
        for i in range(3):
            ps = random_scheduling_problem(rng, f"sched{i}")
            model = dnl.LinearModel(rng.normal(size=3), 0.0)
            profile = dnl.extract_full(model, ps, 0, dnl.SearchSpec(-1.5, 1.5), oracle)
            changes = sweep_solution_changes(
                model, ps, 0, -1.5, 1.5, 0.005,
                solve=dnl.solve_scheduling, key=lambda s: tuple(s.vector),
            )
            assert changes, "the sweep should see the schedule move"
            for t in profile.breakpoints:
                assert any(lo - 1e-9 <= t <= hi + 1e-9 for lo, hi in changes), t
            for lo, hi in changes:
                assert any(lo - 1e-9 <= t <= hi + 1e-9 for t in profile.breakpoints), (lo, hi)

    def test_default_train_data_transitions(self, oracle):
        # `dnl train`'s default data and ridge warm start: a shallow kink of
        # day0002 and one in the last grid cell of day0004 are found.
        series = dnl.synthesize(20, 4, 0.5, 0)
        dataset = dnl.make_knapsack(series, False, 24.0, seed=1)
        (fold,) = dnl.split(dataset, dnl.SplitSpec(folds=1))
        warm, _ = dnl.select_ridge(
            fold.train, fold.val, dnl.SolverOracle(), cache=dnl.TrueOptimumCache()
        )
        spec = dnl.SearchSpec.from_parameter(float(warm.coefficients[3]))
        days = {ps.id: ps for ps in fold.train}
        for day, point in (("day0002", 0.2053), ("day0004", 2.6005)):
            profile = dnl.extract_full(warm, days[day], 3, spec, oracle)
            assert any(t - 5e-4 <= point <= t + 5e-4 for t in profile.breakpoints), day

    def test_probe_budget(self, oracle):
        # Each probe finds a new piece or confirms a breakpoint: at most
        # 2m + 1 probes for m breakpoints, and 2 when there are none.
        rng = np.random.default_rng(239)
        cases = [(example1_model(1.0), example1_problem(), dnl.SearchSpec(-5.0, 5.0))]
        cases.append((dnl.LinearModel([1.0, 1.0], 0.0), staircase_problem(),
                      dnl.SearchSpec(-1.0, 6.0)))
        for i in range(10):
            model = dnl.LinearModel(rng.normal(size=3), 0.0)
            spec = dnl.SearchSpec.from_parameter(float(model.coefficients[0]))
            cases.append((model, random_knapsack_problem(rng, ps_id=f"b{i}"), spec))
        for model, ps, spec in cases:
            profile = dnl.extract_full(model, ps, 0, spec, oracle)
            assert profile.probe_count <= max(2, 2 * len(profile.breakpoints) + 1)

    def test_probe_count_matches_oracle_calls(self, oracle):
        ps = example1_problem()
        spec = dnl.SearchSpec(-5.0, 5.0)
        before = oracle.calls
        profile = dnl.extract_full(example1_model(1.0), ps, 0, spec, oracle)
        assert profile.probe_count == oracle.calls - before


class TestExtractGreedy:
    def test_example1_from_beta_3_returns_improving_interval(self, oracle):
        ps = example1_problem()
        model = example1_model(3.0)
        spec = dnl.SearchSpec(-5.0, 5.0)
        profile = dnl.extract_greedy(model, ps, 0, spec, oracle)
        assert profile.truncated
        # The breakpoint at 2 is nearest; beyond it items {0, 2} are worth 5.
        assert profile.breakpoints == (2.0,)
        assert profile.values == ()
        assert dnl.tov(model, ps, 0, 1.0, oracle) > dnl.tov(model, ps, 0, 3.0, oracle)

    def test_perfect_model_finds_no_improvement(self, oracle):
        exact = dnl.ProblemSet(
            [2.0, 1.0, 3.0],
            [[2.0], [1.0], [3.0]],
            dnl.Knapsack([1.0, 1.0, 1.0], 2.0),
            "identity3",
        )
        model = dnl.LinearModel([1.0], 0.0)
        spec = dnl.SearchSpec.from_parameter(1.0)
        profile = dnl.extract_greedy(model, exact, 0, spec, oracle)
        assert not profile.truncated

    def test_current_value_outside_region_rejected(self, oracle):
        ps = example1_problem()
        spec = dnl.SearchSpec(-1.0, 1.0)
        with pytest.raises(ValueError, match="current value"):
            dnl.extract_greedy(example1_model(5.0), ps, 0, spec, oracle)

    def test_greedy_improves_whenever_full_does(self, oracle):
        # Truncated exactly when some piece of the full profile beats the old
        # TOV, and then the far-side piece of its breakpoint does too.
        rng = np.random.default_rng(223)
        problems = [random_knapsack_problem(rng, ps_id=f"greedy{i}") for i in range(15)]
        problems += [random_scheduling_problem(rng, f"gsched{i}") for i in range(5)]
        truncations = 0
        for ps in problems:
            model = dnl.LinearModel(rng.normal(size=3), 0.0)
            beta_old = float(model.coefficients[0])
            spec = dnl.SearchSpec.from_parameter(beta_old)
            full = dnl.extract_full(model, ps, 0, spec, oracle)
            greedy = dnl.extract_greedy(model, ps, 0, spec, oracle)
            tov_old = dnl.tov(model, ps, 0, beta_old, oracle)
            full_improves = any(v > tov_old + OBJECTIVE_TOL for v in piece_values(full))
            assert greedy.truncated == full_improves
            if greedy.truncated:
                truncations += 1
                (t,) = greedy.breakpoints
                i = full.breakpoints.index(t)
                far = piece_values(full)[i if t < beta_old else i + 1]
                assert far > tov_old + OBJECTIVE_TOL
            else:
                assert greedy.breakpoints == full.breakpoints
                assert greedy.probe_count <= max(3, 2 * len(greedy.breakpoints) + 2)
        assert 0 < truncations < len(problems)

    def test_truncation_skips_the_second_transition(self, oracle):
        # From 0.2 the improving breakpoint at 0.5 is confirmed first, so the
        # four beyond it are never resolved and probes are saved.
        ps = staircase_problem()
        model = dnl.LinearModel([0.2, 1.0], 0.0)
        spec = dnl.SearchSpec(-1.0, 6.0)
        full = dnl.extract_full(model, ps, 0, spec, oracle)
        greedy = dnl.extract_greedy(model, ps, 0, spec, oracle)
        assert full.breakpoints == pytest.approx([0.5, 1.5, 2.5, 3.5, 4.5])
        assert greedy.truncated
        assert greedy.breakpoints == pytest.approx([0.5])
        assert greedy.probe_count < full.probe_count

    def test_greedy_probe_count_matches_oracle_calls(self, oracle):
        ps = example1_problem()
        spec = dnl.SearchSpec(-5.0, 5.0)
        before = oracle.calls
        profile = dnl.extract_greedy(example1_model(3.0), ps, 0, spec, oracle)
        assert profile.probe_count == oracle.calls - before


class TestProfileInvariants:
    def test_intervals_sorted_disjoint_within_region(self, oracle):
        rng = np.random.default_rng(229)
        for i in range(10):
            ps = random_knapsack_problem(rng, ps_id=f"inv{i}")
            model = dnl.LinearModel(rng.normal(size=3), 0.0)
            spec = dnl.SearchSpec(-2.0, 2.0)
            profile = dnl.extract_full(model, ps, 0, spec, oracle)
            knots = [spec.lower, *profile.breakpoints, spec.upper]
            assert knots == sorted(knots)
            assert len(profile.values) == 2 * len(profile.breakpoints) + 1
            assert profile.intervals == tuple((t, t) for t in profile.breakpoints)

    def test_constructor_rejects_overlaps(self):
        with pytest.raises(ValueError):
            dnl.TransitionProfile((0.5, 0.4), 0, -1.0, 1.0)
        with pytest.raises(ValueError):
            dnl.TransitionProfile((-2.0, 0.5), 0, -1.0, 1.0)
        with pytest.raises(ValueError):
            dnl.TransitionProfile((0.0,), 0, -1.0, 1.0, values=(1.0, 2.0))


def random_unit_knapsack_problem(rng, ps_id="unit"):
    """Unit weights, with features on a coarse grid so that ties occur."""
    n = int(rng.integers(4, 13))
    features = rng.integers(-4, 5, size=(n, 3)) / 4.0
    values = rng.integers(1, 9, size=n) / 2.0
    return dnl.ProblemSet(
        values, features, dnl.Knapsack(np.ones(n), float(rng.integers(1, n + 1))), ps_id
    )


def bitwise(numbers):
    return np.array(numbers, dtype=float).tobytes()


class TestMatchesReferenceSearch:
    """The search on plain tuples gives what the search on line objects gave,
    bit for bit, on every problem family and for both extractors."""

    @pytest.mark.parametrize(
        "make", [random_unit_knapsack_problem, random_knapsack_problem, random_scheduling_problem],
        ids=["unit-knapsack", "weighted-knapsack", "scheduling"],
    )
    def test_profiles_equal_reference(self, make):
        rng = np.random.default_rng(401)
        oracle, reference_oracle = dnl.SolverOracle(), dnl.SolverOracle()
        truncated = breakpoints = 0
        for i in range(40):
            ps = make(rng, ps_id=f"ref{i}")
            model = dnl.LinearModel(rng.normal(size=3), float(rng.normal()))
            k = int(rng.integers(3))
            current = float(model.coefficients[k])
            spec = dnl.SearchSpec.from_parameter(current)
            for profile, beta_old in (
                (dnl.extract_full(model, ps, k, spec, oracle), None),
                (dnl.extract_greedy(model, ps, k, spec, oracle), current),
            ):
                expected = reference_search(model, ps, k, spec, reference_oracle, beta_old)
                assert bitwise(profile.breakpoints) == bitwise(expected.breakpoints)
                assert bitwise(profile.values) == bitwise(expected.values)
                assert profile.probe_count == expected.probe_count
                assert profile.truncated == expected.truncated
                truncated += profile.truncated
                breakpoints += len(profile.breakpoints)
        assert oracle.calls == reference_oracle.calls
        assert breakpoints > 40
        if make is not random_scheduling_problem:
            assert truncated > 0

