import dataclasses
import itertools
import sys
import threading

import numpy as np
import pytest

import dnl
from dnl import oracles
from util import (
    enumerate_knapsack,
    enumerate_schedule,
    example1_problem,
    random_knapsack_problem,
    reference_knapsack_bb,
    reference_schedule,
)


def random_schedule_constraint(rng, periods=6, machines=2, jobs=3):
    specs = tuple(dnl.MachineSpec(float(rng.integers(1, 3))) for _ in range(machines))
    max_cap = max(m.capacity for m in specs)
    job_specs = []
    for _ in range(jobs):
        duration = int(rng.integers(1, 4))
        earliest = int(rng.integers(0, periods - duration + 1))
        latest = int(rng.integers(earliest + duration, periods + 1))
        job_specs.append(
            dnl.JobSpec(
                resource=float(rng.integers(1, int(max_cap) + 1)),
                power=float(rng.integers(1, 3)),
                duration=duration,
                earliest_start=earliest,
                latest_finish=latest,
            )
        )
    return dnl.Scheduling(specs, tuple(job_specs), periods)


def assert_rows_match_solve(rows, constraint):
    """`SolverOracle.solve_rows` answers each row as `solve` does: the same
    vector, assignment and objective bits, one counted call per row; where
    `solve` raises on a row, the rows call raises the same error."""
    rows = np.asarray(rows, dtype=float)
    expected, error = [], None
    for row in rows:
        try:
            expected.append(dnl.SolverOracle().solve(row, constraint))
        except Exception as exc:
            error = exc
            break
    oracle = dnl.SolverOracle()
    if error is not None:
        with pytest.raises(type(error)) as info:
            oracle.solve_rows(rows, constraint)
        assert type(info.value) is type(error) and str(info.value) == str(error)
        return
    answers = oracle.solve_rows(rows, constraint)
    assert oracle.calls == len(answers) == len(rows)
    for answer, want in zip(answers, expected):
        assert type(answer) is dnl.OracleResult
        assert answer.solution.vector.tobytes() == want.solution.vector.tobytes()
        assert not answer.solution.vector.flags.writeable
        assert answer.solution.assignment == want.solution.assignment
        assert answer.objective.hex() == want.objective.hex()


class TestKnapsackDP:
    def test_example1_true_values(self):
        ps = example1_problem()
        res = dnl.solve_knapsack_dp(ps.true_values, ps.constraint)
        assert res.objective == pytest.approx(5.0)
        assert res.solution.assignment == (1, 0, 1)
        dnl.validate_solution(res.solution, ps.constraint)

    def test_all_nonpositive_values_pick_nothing(self):
        constraint = dnl.Knapsack([1.0, 2.0, 1.0], 3.0)
        res = dnl.solve_knapsack_dp([-1.0, 0.0, -5.0], constraint)
        assert res.objective == 0.0
        assert res.solution.assignment == (0, 0, 0)

    def test_three_item_instance_matches_enumeration(self):
        values = [4.0, 5.0, 6.0]
        constraint = dnl.Knapsack([3.0, 5.0, 7.0], 8.0)
        best_val, best_x = enumerate_knapsack(values, constraint.weights, 8.0)
        res = dnl.solve_knapsack_dp(values, constraint)
        assert res.objective == pytest.approx(best_val)
        assert res.solution.assignment == best_x

    def test_fractional_weights_are_scaled(self):
        constraint = dnl.Knapsack([0.3, 0.5, 0.7], 0.8)
        res = dnl.solve_knapsack_dp([4.0, 5.0, 6.0], constraint)
        assert res.objective == pytest.approx(9.0)

    def test_non_integerizable_weights_rejected(self):
        constraint = dnl.Knapsack([1.0, 1.0 / 3.0], 1.0)
        with pytest.raises(ValueError):
            dnl.solve_knapsack_dp([1.0, 1.0], constraint)

    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(7)
        for i in range(60):
            n = int(rng.integers(2, 11))
            values = rng.uniform(-1.0, 5.0, size=n)
            weights = rng.integers(0, 6, size=n).astype(float)
            capacity = float(rng.integers(0, int(weights.sum()) + 2))
            constraint = dnl.Knapsack(weights, capacity)
            best_val, _ = enumerate_knapsack(values, weights, capacity)
            res = dnl.solve_knapsack_dp(values, constraint)
            assert res.objective == pytest.approx(best_val, abs=1e-9)
            dnl.validate_solution(res.solution, constraint)

    def test_weights_beyond_int64_go_to_branch_and_bound(self):
        constraint = dnl.Knapsack([1e19, 1.0], 1e19)
        route = oracles._integer_form(constraint)[2]
        assert isinstance(route, str) and "int64" in route
        with pytest.raises(ValueError, match="int64"):
            dnl.solve_knapsack_dp([1.0, 1.0], constraint)
        res = dnl.SolverOracle().solve([1.0, 1.0], constraint)
        expected = dnl.solve_knapsack_bb([1.0, 1.0], constraint)
        assert res.solution.assignment == expected.solution.assignment
        assert res.objective == expected.objective


class TestKnapsackBB:
    def test_matches_dp_on_random_integer_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 16))
            values = rng.integers(-2, 50, size=n).astype(float)
            weights = rng.integers(1, 12, size=n).astype(float)
            capacity = float(rng.integers(1, int(weights.sum()) + 1))
            constraint = dnl.Knapsack(weights, capacity)
            a = dnl.solve_knapsack_dp(values, constraint)
            b = dnl.solve_knapsack_bb(values, constraint)
            assert b.objective == pytest.approx(a.objective, abs=1e-9)
            dnl.validate_solution(b.solution, constraint)

    def test_real_valued_weights(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            values = rng.uniform(0.0, 5.0, size=n)
            weights = rng.uniform(0.1, 3.0, size=n)
            capacity = float(rng.uniform(0.0, weights.sum()))
            constraint = dnl.Knapsack(weights, capacity)
            best_val, _ = enumerate_knapsack(values, weights, capacity)
            res = dnl.solve_knapsack_bb(values, constraint)
            assert res.objective == pytest.approx(best_val, abs=1e-9)

    def test_zero_capacity(self):
        constraint = dnl.Knapsack([1.0, 2.0], 0.0)
        res = dnl.solve_knapsack_bb([3.0, 4.0], constraint)
        assert res.solution.assignment == (0, 0)

    def test_unconstrained_picks_positive_items(self):
        constraint = dnl.Knapsack([1.0, 2.0, 3.0], 6.0)
        res = dnl.solve_knapsack_bb([3.0, -1.0, 4.0], constraint)
        assert res.solution.assignment == (1, 0, 1)
        assert res.objective == pytest.approx(7.0)

    def test_matches_recursive_reference(self):
        # Same tree in the same order: the same selection, ties included.
        rng = np.random.default_rng(29)
        for _ in range(400):
            n = int(rng.integers(1, 16))
            if rng.random() < 0.5:
                values = rng.integers(-2, 5, size=n).astype(float)
                weights = rng.integers(0, 6, size=n).astype(float)
            else:
                values = rng.uniform(-1.0, 5.0, size=n)
                weights = rng.uniform(0.0, 3.0, size=n)
            capacity = float(rng.choice([0.0, rng.uniform(0.0, weights.sum() + 1.0)]))
            res = dnl.solve_knapsack_bb(values, dnl.Knapsack(weights, capacity))
            reference, _ = reference_knapsack_bb(values, weights, capacity)
            assert res.solution.assignment == reference

    def test_thousand_items_of_real_weight(self):
        # Weights in thirds do not scale to integers, so the oracle routes
        # the load to branch-and-bound; a recursion per item overflowed the
        # interpreter stack here. Its integer twin, every weight and the
        # capacity times three, has the same optimum.
        rng = np.random.default_rng(31)
        thirds = rng.integers(1, 6, size=1200).astype(float)
        values = rng.uniform(0.5, 3.0, size=1200)
        capacity = float(thirds.sum() // 2)
        constraint = dnl.Knapsack(thirds / 3.0, capacity / 3.0)
        res = dnl.SolverOracle().solve(values, constraint)
        twin = dnl.solve_knapsack_dp(values, dnl.Knapsack(thirds, capacity))
        assert res.objective == pytest.approx(twin.objective, abs=1e-9)
        dnl.validate_solution(res.solution, constraint)

    def test_node_budget(self, monkeypatch):
        rng = np.random.default_rng(37)
        weights = rng.uniform(1.0, 10.0, size=14)  # subset sum: values = weights
        constraint = dnl.Knapsack(weights, float(weights.sum()) / 2.0)
        reference, nodes = reference_knapsack_bb(weights, weights, constraint.capacity)
        assert nodes > 100
        # A budget of exactly the search's node count changes nothing; one
        # node fewer raises, naming the budget and the item count.
        monkeypatch.setattr(oracles, "KNAPSACK_BB_MAX_NODES", nodes)
        assert dnl.solve_knapsack_bb(weights, constraint).solution.assignment == reference
        monkeypatch.setattr(oracles, "KNAPSACK_BB_MAX_NODES", nodes - 1)
        with pytest.raises(ValueError) as exc:
            dnl.solve_knapsack_bb(weights, constraint)
        assert str(exc.value) == (
            f"knapsack branch-and-bound exceeded the {nodes - 1}-node budget "
            "on a load of 14 items"
        )


class TestScheduling:
    def test_single_job_picks_cheapest_period(self):
        constraint = dnl.Scheduling(
            (dnl.MachineSpec(1.0),), (dnl.JobSpec(1.0, 1.0, 1, 0, 3),), 3
        )
        res = dnl.solve_scheduling([5.0, 2.0, 7.0], constraint)
        assert res.solution.assignment == ((0, 1),)
        assert res.objective == pytest.approx(2.0)

    def test_two_forced_jobs_fill_both_periods(self):
        constraint = dnl.Scheduling(
            (dnl.MachineSpec(1.0),),
            (dnl.JobSpec(1.0, 1.0, 1, 0, 2), dnl.JobSpec(1.0, 1.0, 1, 0, 2)),
            2,
        )
        res = dnl.solve_scheduling([4.0, 9.0], constraint)
        assert res.objective == pytest.approx(13.0)
        dnl.validate_solution(res.solution, constraint)

    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 60:
            constraint = random_schedule_constraint(rng)
            prices = rng.uniform(0.5, 4.0, size=constraint.periods)
            try:
                expected_cost, _ = enumerate_schedule(prices, constraint)
            except Exception:
                continue
            if not np.isfinite(expected_cost):
                continue
            res = dnl.solve_scheduling(prices, constraint)
            assert res.objective == pytest.approx(expected_cost, abs=1e-9)
            dnl.validate_solution(res.solution, constraint)
            checked += 1

    def test_tie_heavy_prices_match_enumeration(self, monkeypatch):
        # Small integer prices, negatives included, make many options and
        # schedules cost exactly the same; the solver must return the
        # reference search's schedule and the enumerator's optimum, within a
        # node budget of the reference search's tree.
        rng = np.random.default_rng(37)
        budget = oracles.SCHEDULING_MAX_NODES
        feasible = infeasible = deep = 0
        while feasible < 150:
            constraint = random_schedule_constraint(
                rng,
                periods=int(rng.integers(3, 8)),
                machines=int(rng.integers(1, 4)),
                jobs=int(rng.integers(1, 5)),
            )
            starts = [j.latest_finish - j.duration - j.earliest_start + 1 for j in constraint.jobs]
            if np.prod(starts) * len(constraint.machines) ** len(starts) > 4000:
                continue
            prices = rng.integers(-2, 3, size=constraint.periods).astype(float)
            expected_cost, _ = enumerate_schedule(prices, constraint)
            reference_cost, reference, nodes = reference_schedule(prices, constraint)
            if nodes > 1:  # the search counts its nodes as the reference does
                monkeypatch.setattr(oracles, "SCHEDULING_MAX_NODES", nodes - 1)
                with pytest.raises(ValueError, match=f"exceeded the {nodes - 1}-node budget"):
                    dnl.solve_scheduling(prices, constraint)
                deep += 1
            monkeypatch.setattr(oracles, "SCHEDULING_MAX_NODES", nodes)
            if not np.isfinite(expected_cost):
                with pytest.raises(dnl.InfeasibleInstanceError):
                    dnl.solve_scheduling(prices, constraint)
                monkeypatch.setattr(oracles, "SCHEDULING_MAX_NODES", budget)
                assert_rows_match_solve([prices, -prices], constraint)
                infeasible += 1
                continue
            res = dnl.solve_scheduling(prices, constraint)
            assert res.objective == expected_cost == reference_cost
            assert res.solution.assignment == tuple(reference)
            dnl.validate_solution(res.solution, constraint)
            feasible += 1
            monkeypatch.setattr(oracles, "SCHEDULING_MAX_NODES", budget)
            assert_rows_match_solve([prices, -prices, prices[::-1]], constraint)
        assert infeasible > 0 and deep > 100

    def test_plan_built_once_per_load(self, monkeypatch):
        calls = []
        original = oracles._SchedulingPlan

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(oracles, "_SchedulingPlan", counting)
        oracle = dnl.SolverOracle()
        rng = np.random.default_rng(43)
        for _ in range(3):
            constraint = random_schedule_constraint(rng, machines=3, jobs=2)
            before = len(calls)
            for _ in range(5):
                prices = rng.integers(-2, 3, size=constraint.periods).astype(float)
                _, reference, _ = reference_schedule(prices, constraint)
                assert oracle.solve(prices, constraint).solution.assignment == tuple(reference)
            assert len(calls) - before == 1

    def test_node_budget(self, monkeypatch):
        constraint = dnl.Scheduling(
            (dnl.MachineSpec(1.0), dnl.MachineSpec(1.0)),
            tuple(dnl.JobSpec(1.0, 1.0, 2, 0, 6) for _ in range(5)),
            6,
        )
        prices = [3.0, 1.0, 2.0, 2.0, 1.0, 3.0]
        expected = dnl.solve_scheduling(prices, constraint)
        _, reference, nodes = reference_schedule(prices, constraint)
        assert nodes > 100
        # A budget of exactly the search's node count changes nothing; one
        # node fewer raises, naming the budget and the job count.
        monkeypatch.setattr(oracles, "SCHEDULING_MAX_NODES", nodes)
        res = dnl.solve_scheduling(prices, constraint)
        assert res.solution.assignment == expected.solution.assignment == tuple(reference)
        assert res.objective == expected.objective == 18.0
        monkeypatch.setattr(oracles, "SCHEDULING_MAX_NODES", nodes - 1)
        with pytest.raises(ValueError) as exc:
            dnl.solve_scheduling(prices, constraint)
        assert str(exc.value) == (
            f"scheduling search exceeded the {nodes - 1}-node budget on a load of 5 jobs"
        )

    def test_floor_stop_matches_the_reference(self, monkeypatch):
        # The search stops at the first schedule that costs its floor, the
        # jobs' cheapest options summed in search order. On loads where those
        # options fit together (two machines that each hold every job) and
        # loads where they conflict (unit machines, unit jobs, full windows),
        # at tied integer prices and at scales where the reference's absolute
        # 1e-12 slack lets tied nodes through, the solver returns the
        # reference's schedule within the reference's node budget, and skips
        # nodes the reference visits on some scaled loads.
        rng = np.random.default_rng(67)
        budget = oracles.SCHEDULING_MAX_NODES
        cases = skipped = 0
        for _ in range(60):
            periods, count = int(rng.integers(4, 9)), int(rng.integers(2, 5))
            durations = rng.integers(1, 3, size=count)
            conflicting = dnl.Scheduling(
                (dnl.MachineSpec(1.0), dnl.MachineSpec(1.0)),
                tuple(dnl.JobSpec(1.0, float(rng.integers(1, 4)), int(d), 0, periods) for d in durations),
                periods,
            )
            jobs = random_schedule_constraint(rng, periods=periods, jobs=count).jobs
            room = sum(job.resource for job in jobs)
            fitting = dnl.Scheduling((dnl.MachineSpec(room), dnl.MachineSpec(room)), jobs, periods)
            ties = rng.integers(0, 3, size=periods).astype(float)
            normal = rng.normal(30.0, 10.0, size=periods)
            # Small ties after +1e16 keep only what sequential rounding leaves
            # of them until -1e16 cancels it, so an exact, pairwise or
            # right-to-left prefix sum prices options differently and picks
            # another schedule on some of these loads. Signed ties mix -0.0
            # with 0.0.
            cancelling = ties.copy()
            cancelling[0] += 1e16
            cancelling[periods // 2] -= 1e16
            signed = np.copysign(ties, rng.choice([-1.0, 1.0], size=periods))
            for constraint in (fitting, conflicting):
                corpus = (ties, normal * 1e3, normal * 1e6, normal * 1e9, cancelling, signed)
                for prices in corpus:
                    _, reference, nodes = reference_schedule(prices, constraint)
                    monkeypatch.setattr(oracles, "SCHEDULING_MAX_NODES", nodes)
                    res = dnl.solve_scheduling(prices, constraint)
                    assert res.solution.assignment == tuple(reference)
                    expected = float(dnl.scheduling_solution(reference, constraint).vector @ prices)
                    assert res.objective.hex() == expected.hex()
                    dnl.validate_solution(res.solution, constraint)
                    monkeypatch.setattr(oracles, "SCHEDULING_MAX_NODES", nodes - 1)
                    try:
                        dnl.solve_scheduling(prices, constraint)
                    except ValueError:
                        pass
                    else:
                        skipped += 1
                    cases += 1
                monkeypatch.setattr(oracles, "SCHEDULING_MAX_NODES", budget)
                assert_rows_match_solve(corpus, constraint)
        assert cases == 720 and skipped > 0

    def test_floor_stop_needs_only_the_dive(self, monkeypatch):
        # At 1e3 times N(30, 10) prices, rounding lets the reference search
        # past its first schedule, which is already optimal, through tied
        # nodes; the solver stops there, within the dive's own J + 1 nodes
        # (the root and one per job).
        rng = np.random.default_rng(0)
        constraint = random_schedule_constraint(rng, periods=8, machines=2, jobs=4)
        prices = rng.normal(30.0, 10.0, size=8) * 1e3
        _, reference, nodes = reference_schedule(prices, constraint)
        assert nodes > 5
        monkeypatch.setattr(oracles, "SCHEDULING_MAX_NODES", 5)
        res = dnl.solve_scheduling(prices, constraint)
        assert res.solution.assignment == tuple(reference)
        dnl.validate_solution(res.solution, constraint)

    def test_each_load_keeps_its_own_stored_schedules(self):
        # The plan and its schedule memo live on the instance: an equal load
        # built separately starts empty and fills its own memo.
        def load():
            return dnl.Scheduling(
                (dnl.MachineSpec(3.0), dnl.MachineSpec(2.0)),
                (dnl.JobSpec(1.0, 2.0, 2, 0, 5), dnl.JobSpec(2.0, 1.0, 1, 1, 5)),
                5,
            )

        first, second = load(), load()
        prices = [3.0, 1.0, 2.0, 5.0, 4.0]
        stored = dnl.solve_scheduling(prices, first).solution
        assert oracles._scheduling_plan(first).answers == {stored.assignment: stored}
        assert oracles._scheduling_plan(second) is not oracles._scheduling_plan(first)
        assert not oracles._scheduling_plan(second).answers
        assert dnl.solve_scheduling(prices, second).solution is not stored
        assert dnl.solve_scheduling(prices, first).solution is stored

    def test_repeated_schedule_returns_the_stored_solution(self):
        # Shifting and scaling every price keeps the optimal schedule; the
        # second call returns the first call's Solution, and each objective is
        # its own prices' dot, bit for bit.
        rng = np.random.default_rng(59)
        constraint = random_schedule_constraint(rng, periods=7, machines=2, jobs=3)
        prices = rng.uniform(0.5, 4.0, size=7)
        results = [
            dnl.solve_scheduling(p, constraint) for p in (prices, 3.0 * prices, prices + 1.0)
        ]
        assert results[0].solution is results[1].solution is results[2].solution
        for p, res in zip((prices, 3.0 * prices, prices + 1.0), results):
            assert res.objective.hex() == float(res.solution.vector @ p).hex()
        _, reference, _ = reference_schedule(prices + 1.0, constraint)
        assert results[2].solution.assignment == tuple(reference)

    def test_stored_schedules_are_bounded(self, monkeypatch):
        monkeypatch.setattr(oracles, "SCHEDULING_MEMO_MAX", 2)
        constraint = dnl.Scheduling(
            (dnl.MachineSpec(2.5), dnl.MachineSpec(1.5)),
            (dnl.JobSpec(1.5, 1.0, 2, 0, 8), dnl.JobSpec(1.0, 3.0, 3, 1, 8)),
            8,
        )
        answers = oracles._scheduling_plan(constraint).answers
        assert not answers
        rng = np.random.default_rng(61)
        schedules = set()
        for _ in range(40):
            prices = rng.integers(-3, 4, size=8).astype(float)
            res = dnl.solve_scheduling(prices, constraint)
            _, reference, _ = reference_schedule(prices, constraint)
            assert res.solution.assignment == tuple(reference)
            assert res.objective == float(res.solution.vector @ prices)
            dnl.validate_solution(res.solution, constraint)
            schedules.add(res.solution.assignment)
            assert len(answers) <= 2
        assert len(schedules) > 2 and len(answers) == 2

    @pytest.mark.parametrize(
        "prices", [[1.0, np.nan, 2.0], [np.inf, 1.0, 2.0], [1.0, 2.0, -np.inf]]
    )
    def test_non_finite_prices_rejected(self, prices):
        constraint = dnl.Scheduling(
            (dnl.MachineSpec(1.25),), (dnl.JobSpec(1.0, 1.0, 1, 0, 3),), 3
        )
        with pytest.raises(ValueError, match="finite") as exc:
            dnl.solve_scheduling(prices, constraint)
        assert type(exc.value) is ValueError
        assert not oracles._scheduling_plan(constraint).answers

    def test_negative_prices_supported(self):
        constraint = dnl.Scheduling(
            (dnl.MachineSpec(1.0),), (dnl.JobSpec(1.0, 2.0, 1, 0, 3),), 3
        )
        res = dnl.solve_scheduling([1.0, -2.0, 0.5], constraint)
        assert res.objective == pytest.approx(-4.0)

    def test_infeasible_instance_raises(self):
        # Two resource-1 jobs forced into the same single period on one machine.
        constraint = dnl.Scheduling(
            (dnl.MachineSpec(1.0),),
            (dnl.JobSpec(1.0, 1.0, 1, 0, 1), dnl.JobSpec(1.0, 1.0, 1, 0, 1)),
            2,
        )
        with pytest.raises(dnl.InfeasibleInstanceError):
            dnl.solve_scheduling([1.0, 1.0], constraint)


def table_dp_assignment(values, constraint):
    weights, cap, _ = oracles._integer_form(constraint)
    x = oracles._knapsack_table_dp(np.asarray(values, dtype=float), weights, cap)
    return tuple(int(v) for v in x)


class TestEqualWeightPath:
    """Equal weights form one class, a one-cell grid: the top cap // w
    positive values. That must be the table DP's selection, ties included."""

    def test_tie_heavy_inputs_match_table_dp(self):
        rng = np.random.default_rng(71)
        for _ in range(3000):
            n = int(rng.integers(1, 13))
            values = rng.integers(-3, 4, size=n).astype(float)
            w = float(rng.choice([1.0, 2.0, 0.5, 3.0]))
            capacity = float(
                rng.choice([0.0, n * w, (n + 2) * w, float(rng.uniform(0.0, n * w))])
            )
            constraint = dnl.Knapsack(np.full(n, w), capacity)
            res = dnl.solve_knapsack_dp(values, constraint)
            assert oracles._integer_form(constraint)[2][1] in ((n,), ())
            assert res.solution.assignment == table_dp_assignment(values, constraint)
            assert_rows_match_solve([values, -values, values[::-1]], constraint)

    def test_one_class_edge_loads(self):
        # At most one class fits (`_knapsack_top_k`): a class of weight 0,
        # items heavier than the capacity, or nothing that fits, with tied
        # values, zeros of both signs and all-nonpositive values. The class
        # takes its best positive values, ties to the lower index.
        rng = np.random.default_rng(151)
        seen = dict.fromkeys(["zero weight", "too heavy", "nothing fits", "nonpositive"], 0)
        for _ in range(600):
            n = int(rng.integers(1, 13))
            w = float(rng.choice([0.0, 1.0, 2.0, 3.0]))
            capacity = float(rng.choice([0.0, n * w, (n + 2) * w, float(rng.integers(0, n + 1))]))
            weights = np.full(n, w)
            if rng.random() < 0.3:
                heavy = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
                weights[heavy] = capacity + float(rng.integers(1, 4))
            values = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0], size=n)
            if rng.random() < 0.2:
                values = -np.abs(values)
            constraint = dnl.Knapsack(weights, capacity)
            plan = oracles._integer_form(constraint)[2]
            assert plan.fill is None
            res = dnl.solve_knapsack_dp(values, constraint)
            best_val, _ = enumerate_knapsack(values, weights, capacity)
            assert res.objective == best_val
            dnl.validate_solution(res.solution, constraint)
            takes, ranked_ok = class_counts(values, constraint, res.solution.assignment)
            assert ranked_ok and takes == first_best_counts(values, constraint)
            if takes and weights.max() <= capacity:  # the class holds every item
                assert res.solution.assignment == table_dp_assignment(values, constraint)
            assert_rows_match_solve([values, -values, values[::-1]], constraint)
            seen["zero weight"] += plan.weights == (0,)
            seen["too heavy"] += bool(np.any(weights > capacity)) and bool(plan.weights)
            seen["nothing fits"] += not plan.weights
            seen["nonpositive"] += not np.any(values > 0)
        assert min(seen.values()) >= 20, seen

    def test_equal_non_unit_weights(self):
        constraint = dnl.Knapsack(np.full(6, 2.0), 7.0)
        values = [1.0, 2.0, 2.0, -1.0, 2.0, 2.0]
        res = dnl.solve_knapsack_dp(values, constraint)
        assert res.solution.assignment == (0, 1, 1, 0, 1, 0)
        assert res.solution.assignment == table_dp_assignment(values, constraint)
        assert res.objective == 6.0

    def test_solvers_agree_with_enumeration(self):
        rng = np.random.default_rng(73)
        for _ in range(150):
            n = int(rng.integers(1, 11))
            values = rng.integers(-3, 4, size=n).astype(float)
            if rng.random() < 0.5:
                weights = np.full(n, float(rng.integers(1, 4)))
            else:
                weights = rng.integers(0, 5, size=n).astype(float)
            capacity = float(rng.uniform(0.0, weights.sum() + 1.0))
            constraint = dnl.Knapsack(weights, capacity)
            best_val, _ = enumerate_knapsack(values, weights, capacity)
            dp = dnl.solve_knapsack_dp(values, constraint)
            bb = dnl.solve_knapsack_bb(values, constraint)
            assert dp.objective == pytest.approx(best_val, abs=1e-9)
            assert bb.objective == pytest.approx(best_val, abs=1e-9)
            dnl.validate_solution(dp.solution, constraint)

    def test_integerize_runs_once_per_knapsack(self, monkeypatch):
        calls = {"_integerize": [], "_class_plan": []}

        def counting(name):
            original = getattr(oracles, name)

            def wrapper(*args):
                calls[name].append(1)
                return original(*args)

            monkeypatch.setattr(oracles, name, wrapper)

        counting("_integerize")
        counting("_class_plan")
        oracle = dnl.SolverOracle()
        for weights, plans in (
            ([1.0, 1.0, 1.0], 1),
            ([1.0, 2.0, 3.0], 1),
            ([1.0, 1.0 / 3.0, 1.0], 0),  # not integerizable: no class plan
        ):
            constraint = dnl.Knapsack(weights, 2.0)
            before = {name: len(c) for name, c in calls.items()}
            for k in range(5):
                oracle.solve([1.0, float(k), 2.0], constraint)
            assert len(calls["_integerize"]) - before["_integerize"] == 1
            assert len(calls["_class_plan"]) - before["_class_plan"] == plans


def class_counts(values, constraint, x):
    """Items taken per weight class, and whether each class took its best
    values with ties to the lower index; classes ascend by weight."""
    weights, _, plan = oracles._integer_form(constraint)
    takes, ranked_ok = [], True
    for w in plan.weights:
        members = np.flatnonzero(weights == w)
        ranked = sorted(members, key=lambda i: (-values[i], i))
        k = int(sum(x[i] for i in members))
        ranked_ok &= sorted(ranked[:k]) == [i for i in members if x[i]]
        takes.append(k)
    return tuple(takes), ranked_ok


def first_best_counts(values, constraint):
    """Every per-class count vector by brute force: the first one, in
    ascending lexicographic order, with the best objective."""
    weights, cap, plan = oracles._integer_form(constraint)
    class_weights = plan.weights
    prefixes = []
    for w in class_weights:
        top = sorted((v for v, wi in zip(values, weights) if wi == w and v > 0), reverse=True)
        prefixes.append(np.concatenate(([0.0], np.cumsum(top))))
    best, best_counts = -np.inf, None
    for counts in itertools.product(*(range(p.shape[0]) for p in prefixes)):
        if sum(k * w for k, w in zip(counts, class_weights)) > cap:
            continue
        value = sum(p[k] for p, k in zip(prefixes, counts))
        if value > best:
            best, best_counts = value, counts
    return best_counts


def random_class_load(rng, max_items):
    """1-4 weight classes, sometimes with a zero-weight class, a class heavier
    than the capacity, capacity 0 or only nonpositive values."""
    n = int(rng.integers(1, max_items + 1))
    classes = rng.choice(np.arange(1, 9), size=int(rng.integers(1, 5)), replace=False)
    if rng.random() < 0.2:
        classes[0] = 0
    weights = rng.choice(classes, size=n).astype(float)
    capacity = float(rng.integers(0, int(weights.sum()) + 2))
    if rng.random() < 0.1:
        capacity = 0.0
    elif rng.random() < 0.2:
        weights[rng.integers(0, n)] = capacity + float(rng.integers(1, 4))
    if rng.random() < 0.5:
        values = rng.integers(-3, 4, size=n).astype(float)
    else:
        values = rng.uniform(-1.0, 5.0, size=n)
    if rng.random() < 0.1:
        values = -np.abs(values)
    return values, dnl.Knapsack(weights, capacity)


def edge_class_load(rng):
    """2-4 weight classes that fit, one of them of weight 0 in some loads,
    and in some an item heavier than the capacity. Values are small integers
    with ties, zeros of both signs and negatives, so that a class often holds
    fewer positive values than it could take."""
    k = int(rng.integers(2, 5))
    classes = rng.choice(np.arange(1, 7), size=k, replace=False).astype(float)
    if rng.random() < 0.3:
        classes[0] = 0.0
    weights = np.concatenate([classes, rng.choice(classes, size=int(rng.integers(0, 11 - k)))])
    capacity = float(rng.integers(int(classes.max()), int(weights.sum()) + 1))
    if rng.random() < 0.3:
        weights = np.append(weights, capacity + float(rng.integers(1, 4)))
    values = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0], size=weights.shape[0])
    order = rng.permutation(weights.shape[0])
    return values[order], dnl.Knapsack(weights[order], capacity)


class TestClassSolver:
    """Few distinct weights run the per-class grid solver."""

    def test_matches_enumeration(self):
        rng = np.random.default_rng(83)
        multi = 0
        for _ in range(400):
            values, constraint = random_class_load(rng, max_items=11)
            res = dnl.solve_knapsack_dp(values, constraint)
            multi += oracles._integer_form(constraint)[2][1] != (len(values),)
            best_val, _ = enumerate_knapsack(values, constraint.weights, constraint.capacity)
            assert res.objective == pytest.approx(best_val, abs=1e-9)
            dnl.validate_solution(res.solution, constraint)
        assert multi > 300

    def test_matches_table_dp_on_continuous_values(self):
        rng = np.random.default_rng(89)
        for _ in range(300):
            weights = rng.choice([3.0, 5.0, 7.0], size=48)
            constraint = dnl.Knapsack(weights, 122.0)
            values = rng.normal(2.0, 3.0, size=48)
            res = dnl.solve_knapsack_dp(values, constraint)
            assert len(oracles._integer_form(constraint)[2][0]) == 3
            assert res.solution.assignment == table_dp_assignment(values, constraint)

    def test_tie_rule(self):
        # Within a class the lower index wins among equal values; across
        # classes the first best count vector in grid order wins. The table
        # DP may pick another optimum, never a better one.
        rng = np.random.default_rng(97)
        differ = 0
        for _ in range(300):
            n = int(rng.integers(2, 13))
            weights = rng.choice([1.0, 2.0, 3.0], size=n)
            values = rng.integers(-1, 4, size=n).astype(float)
            constraint = dnl.Knapsack(weights, float(rng.integers(0, int(weights.sum()) + 1)))
            res = dnl.solve_knapsack_dp(values, constraint)
            x = res.solution.assignment
            takes, ranked_ok = class_counts(values, constraint, x)
            assert ranked_ok
            assert takes == first_best_counts(values, constraint)
            table = table_dp_assignment(values, constraint)
            assert res.objective == float(np.dot(table, values))
            differ += x != table
        assert differ > 0

    def test_edge_loads_match_table_dp_and_enumeration(self):
        # The grid spans each class's extent whatever its values: cells past
        # a class's positive values never hold the first best count vector.
        rng = np.random.default_rng(139)
        seen = {"grid": 0, "zero class": 0, "too heavy": 0, "few positives": 0}
        for _ in range(250):
            values, constraint = edge_class_load(rng)
            weights, cap, plan = oracles._integer_form(constraint)
            res = dnl.solve_knapsack_dp(values, constraint)
            best_val, _ = enumerate_knapsack(values, constraint.weights, constraint.capacity)
            table = table_dp_assignment(values, constraint)
            assert res.objective == best_val == float(np.dot(table, values))
            dnl.validate_solution(res.solution, constraint)
            if plan is None:
                continue
            takes, ranked_ok = class_counts(values, constraint, res.solution.assignment)
            assert ranked_ok
            assert takes == first_best_counts(values, constraint)
            positives = [int(np.sum(values[weights == w] > 0)) for w in plan.weights]
            seen["grid"] += len(plan.weights) > 1
            seen["zero class"] += plan.weights[0] == 0
            seen["too heavy"] += int(weights.max()) > cap
            seen["few positives"] += any(
                p < e for p, e, w in zip(positives, plan.extents, plan.weights) if w
            )
        assert min(seen.values()) > 40, seen

    def test_grid_larger_than_table_runs_table_dp(self):
        # 17 singleton classes at capacity 200: the grid over all but the
        # heaviest has 2^16 cells, the table 17 x 201.
        rng = np.random.default_rng(103)
        constraint = dnl.Knapsack(np.arange(1.0, 18.0), 200.0)
        for _ in range(5):
            values = rng.uniform(-1.0, 5.0, size=17)
            res = dnl.solve_knapsack_dp(values, constraint)
            assert oracles._integer_form(constraint)[2] is None
            assert res.solution.assignment == table_dp_assignment(values, constraint)
        # The same weights at capacity 5 fit five classes: a 2^4-cell grid.
        small = dnl.Knapsack(np.arange(1.0, 18.0), 5.0)
        res = dnl.solve_knapsack_dp(values, small)
        assert oracles._integer_form(small)[2][:3] == ((1, 2, 3, 4, 5), (1,) * 5, (1,) * 5)
        best_val, _ = enumerate_knapsack(values, small.weights, 5.0)
        assert res.objective == pytest.approx(best_val, abs=1e-9)

    def test_overflowing_class_sums_answer_feasibly_or_raise(self):
        # Values of 1e307-5e307 times small integers are finite, but class
        # sums of them overflow. Outside `train`'s error state numpy only
        # warns there, and every route either answers feasibly or raises the
        # FloatingPointError numpy raises under it.
        rng = np.random.default_rng(173)
        outcomes = {"feasible": 0, "overflow": 0}
        for _ in range(150):
            values, constraint = edge_class_load(rng)
            rows = np.stack([values, rng.permutation(values)]) * rng.choice([1e307, 3e307, 5e307])
            calls = [
                lambda: [dnl.solve_knapsack_dp(rows[0], constraint)],
                lambda: [dnl.SolverOracle().solve(rows[1], constraint)],
                lambda: dnl.SolverOracle().solve_rows(rows, constraint),
            ]
            for call in calls:
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        answers = call()
                except FloatingPointError as exc:
                    assert str(exc) == "knapsack class sums overflow"
                    outcomes["overflow"] += 1
                    continue
                for answer in answers:
                    dnl.validate_solution(answer.solution, constraint)
                outcomes["feasible"] += 1
        assert min(outcomes.values()) > 50, outcomes

    def test_grid_budget_falls_back_to_table_dp(self, monkeypatch):
        monkeypatch.setattr(oracles, "CLASS_GRID_MAX_CELLS", 4)
        rng = np.random.default_rng(101)
        for _ in range(20):
            values = rng.uniform(-1.0, 5.0, size=12)
            constraint = dnl.Knapsack(rng.choice([3.0, 5.0, 7.0], size=12), 20.0)
            res = dnl.solve_knapsack_dp(values, constraint)
            assert oracles._integer_form(constraint)[2] is None
            assert res.solution.assignment == table_dp_assignment(values, constraint)
            best_val, _ = enumerate_knapsack(values, constraint.weights, 20.0)
            assert res.objective == pytest.approx(best_val, abs=1e-9)


def value_rows(rng, values, size):
    """`size` rows from one load's values: the values, their negation and
    their reversal, then shuffles of them with random signs, so that zeros
    of both signs and ties recur across rows."""
    rows = [values, -values, values[::-1]]
    while len(rows) < size:
        rows.append(rng.permutation(values) * rng.choice([-1.0, 1.0], size=values.shape))
    return np.stack(rows)[:size]


class TestClassRows:
    """`SolverOracle.solve_rows` answers a block of rows on a class plan (the
    count grid, or one class's top-k) in one call of its solver, and gives
    each row the bits its own `solve` gives."""

    def test_rows_match_solve(self):
        rng = np.random.default_rng(163)
        seen = dict.fromkeys(["grid", "zero class", "too heavy", "nothing fits"], 0)
        for i in range(240):
            if i % 3 == 0:
                values, constraint = random_class_load(rng, max_items=14)
            elif i % 3 == 1:
                values, constraint = edge_class_load(rng)
            else:  # `TestClassSolver.test_tie_rule`'s tie-heavy loads
                n = int(rng.integers(2, 13))
                weights = rng.choice([1.0, 2.0, 3.0], size=n)
                values = rng.integers(-1, 4, size=n).astype(float)
                constraint = dnl.Knapsack(weights, float(rng.integers(0, int(weights.sum()) + 1)))
            for size in (0, 1, 2, 5, 33):
                assert_rows_match_solve(value_rows(rng, values, size), constraint)
            weights, cap, plan = oracles._integer_form(constraint)
            if plan is None:
                continue
            seen["grid"] += plan.fill is not None
            seen["zero class"] += plan.fill is not None and plan.weights[0] == 0
            seen["too heavy"] += plan.fill is not None and int(weights.max()) > cap
            seen["nothing fits"] += not plan.weights
        assert min(seen.values()) >= 15 and seen["grid"] > 150, seen

    def test_rows_on_a_count_grid(self, monkeypatch):
        # A block of rows costs one call of the class solver.
        rng = np.random.default_rng(157)
        constraint = dnl.Knapsack(rng.choice([3.0, 5.0, 7.0], size=48), 122.0)
        plan = oracles._integer_form(constraint)[2]
        assert isinstance(plan, oracles._ClassPlan) and plan.fill is not None
        rows = rng.normal(2.0, 3.0, size=(6, constraint.weights.shape[0]))
        rows[3:] = np.round(rows[3:])  # tied values
        assert_rows_match_solve(rows, constraint)
        solver, shapes = oracles._knapsack_by_class, []
        monkeypatch.setattr(
            oracles, "_knapsack_by_class", lambda v, *a: shapes.append(v.shape) or solver(v, *a)
        )
        dnl.SolverOracle().solve_rows(rows, constraint)
        assert shapes == [rows.shape]

    @pytest.mark.parametrize("fault", ["nan", "inf", "length"])
    def test_row_errors_match_solve(self, fault):
        rng = np.random.default_rng(167)
        constraint = dnl.Knapsack(rng.choice([3.0, 5.0, 7.0], size=48), 122.0)
        rows = rng.normal(2.0, 3.0, size=(5, 49 if fault == "length" else 48))
        if fault != "length":
            rows[3, 7] = np.nan if fault == "nan" else np.inf
        message = "equal length" if fault == "length" else "must be finite"
        with pytest.raises(ValueError, match=message):
            dnl.SolverOracle().solve_rows(rows, constraint)
        assert_rows_match_solve(rows, constraint)


class TestZeroWeightItemsOnTheTableDP:
    """The table DP's general update keeps a zero-weight item of positive
    value on every capacity, and never one of value zero or below."""

    @pytest.mark.parametrize("integral", [True, False], ids=["integer", "real"])
    def test_every_positive_zero_weight_item_is_selected(self, monkeypatch, integral):
        monkeypatch.setattr(oracles, "CLASS_GRID_MAX_CELLS", 0)  # every load: table DP
        rng = np.random.default_rng(109 if integral else 113)
        for _ in range(20):
            n = int(rng.integers(6, 11))
            weights = rng.choice([0.0, 2.0, 3.0, 5.0], size=n)
            if integral:
                values = rng.integers(-3, 6, size=n).astype(float)
                free = (float(rng.integers(1, 4)), 0.0, -float(rng.integers(1, 4)))
            else:
                values = rng.uniform(-2.0, 5.0, size=n)
                free = (rng.uniform(0.5, 2.0), 0.0, -rng.uniform(0.5, 2.0))
            weights[:3], values[:3] = 0.0, free
            order = rng.permutation(n)
            weights, values = weights[order], values[order]
            constraint = dnl.Knapsack(weights, 9.0)
            res = dnl.solve_knapsack_dp(values, constraint)
            assert oracles._integer_form(constraint)[2] is None
            best_val, _ = enumerate_knapsack(values, weights, 9.0)
            if integral:
                assert res.objective == best_val
            else:
                assert res.objective == pytest.approx(best_val, abs=1e-9)
            zero = weights == 0
            assert np.array_equal(res.solution.vector[zero], values[zero] > 0)
            dnl.validate_solution(res.solution, constraint)


class TestClassGridMemo:
    """The price-independent part of the count grid is memoised per (scaled
    capacity, class weights, extents), across loads, and looked up once per
    load, when its route is chosen."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        oracles._class_fill.cache_clear()
        yield
        oracles._class_fill.cache_clear()

    def test_loads_of_one_shape_share_an_entry(self):
        weights = [3.0, 5.0, 3.0, 7.0, 5.0, 7.0]
        values = [4.0, 3.0, 2.0, 6.0, 1.0, 5.0]
        first = dnl.Knapsack(weights, 12.0)
        second = dnl.Knapsack(weights[::-1], 12.0)
        dnl.solve_knapsack_dp(values, first)
        dnl.solve_knapsack_dp(values[::-1], second)
        dnl.solve_knapsack_dp([v + 1.0 for v in values], first)
        info = oracles._class_fill.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
        assert oracles._integer_form(first)[2].fill is oracles._integer_form(second)[2].fill

    def test_fewer_positive_values_share_the_entry(self):
        constraint = dnl.Knapsack([3.0, 5.0, 3.0, 7.0, 5.0, 7.0], 12.0)
        dnl.solve_knapsack_dp([4.0, 3.0, 2.0, 6.0, 1.0, 5.0], constraint)
        # Item 2 is worth nothing, so weight class 3 takes at most one item;
        # the grid still spans both.
        for values in ([4.0, 3.0, -2.0, 6.0, 1.0, 5.0], [-1.0, 0.0, -2.0, 6.0, -0.0, 5.0]):
            res = dnl.solve_knapsack_dp(values, constraint)
            assert res.solution.assignment == table_dp_assignment(values, constraint)
        info = oracles._class_fill.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 0)

    def test_memoised_answers_equal_table_dp(self):
        # Four shapes, two loads each (the second a permutation of the first):
        # one lookup per load, one entry per shape.
        rng = np.random.default_rng(107)
        loads = []
        for _ in range(4):
            weights = rng.choice([1.0, 2.0, 3.0, 5.0], size=12)
            capacity = float(rng.integers(8, 25))
            loads += [dnl.Knapsack(weights, capacity), dnl.Knapsack(rng.permutation(weights), capacity)]
        for r in range(48):
            constraint = loads[r % len(loads)]
            values = rng.normal(4.0, 2.0, size=12)
            res = dnl.solve_knapsack_dp(values, constraint)
            assert res.solution.assignment == table_dp_assignment(values, constraint)
        assert all(oracles._integer_form(c)[2].fill is not None for c in loads)
        info = oracles._class_fill.cache_info()
        assert (info.currsize, info.misses, info.hits) == (4, 4, 4)

    def test_entries_are_read_only(self):
        dnl.solve_knapsack_dp([4.0, 3.0, 2.0], dnl.Knapsack([1.0, 2.0, 3.0], 4.0))
        fill = oracles._class_fill(4, (1, 2, 3), (1, 1, 1))
        assert not fill.flags.writeable
        assert fill.dtype == np.uint8
        with pytest.raises(ValueError):
            fill[0] = 0
        assert oracles._class_fill.cache_info().hits == 1


class TestDPTableBudget:
    """Six-decimal weights at capacity 100 would need a 48 x 100,000,001
    table; large allocations fail the test instead of running."""

    @pytest.fixture(autouse=True)
    def small_allocations_only(self, monkeypatch):
        real_zeros = np.zeros

        def small_zeros(shape, *args, **kwargs):
            assert np.prod(shape) < 1_000_000, f"allocated an array of shape {shape}"
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", small_zeros)

    @pytest.fixture
    def oversized(self):
        rng = np.random.default_rng(79)
        weights = np.round(rng.uniform(1.0, 5.0, size=48), 6)
        return rng.uniform(0.5, 3.0, size=48), dnl.Knapsack(weights, 100.0)

    def test_oversized_table_rejected_before_allocation(self, oversized):
        values, constraint = oversized
        _, cap, _ = oracles._integer_form(constraint)
        assert 48 * (cap + 1) > oracles.DP_TABLE_MAX_CELLS
        with pytest.raises(ValueError, match="budget"):
            dnl.solve_knapsack_dp(values, constraint)

    def test_auto_mode_falls_back_to_bb(self, oversized):
        values, constraint = oversized
        res = dnl.SolverOracle().solve(values, constraint)
        assert res.objective == dnl.solve_knapsack_bb(values, constraint).objective
        dnl.validate_solution(res.solution, constraint)

    def test_oracle_routes_to_bb_without_entering_the_dp(self, oversized, monkeypatch):
        values, constraint = oversized
        entered = []

        def recording(name):
            original = getattr(oracles, name)

            def wrapper(*args):
                entered.append(name)
                return original(*args)

            monkeypatch.setattr(oracles, name, wrapper)

        recording("solve_knapsack_dp")
        recording("solve_knapsack_bb")
        oracle = dnl.SolverOracle()
        for _ in range(3):
            oracle.solve(values, constraint)
        assert entered == ["solve_knapsack_bb"] * 3
        assert "budget" in oracles._integer_form(constraint)[2]

    def test_a_made_weighted_day_reaches_bb(self):
        # `dnl train --problem weighted-knapsack --group-size 3000` with a
        # capacity of 10^4 builds such days: the count grid and the table
        # both refuse them, so branch-and-bound is the solver that answers.
        series = dnl.synthesize(1, 4, 0.5, 0, group_size=3000)
        (day,) = dnl.make_knapsack(series, True, 10000.0, seed=1)
        route = oracles._integer_form(day.constraint)[2]
        assert route.startswith("knapsack DP table of 3000 x 10001 cells exceeds")
        with pytest.raises(ValueError) as info:
            dnl.solve_knapsack_dp(day.true_values, day.constraint)
        assert str(info.value) == route


class TestBruteForce:
    """The exhaustive enumerators in util.py are the ground truth the
    solvers are checked against."""

    def test_matches_dp_on_example1(self):
        ps = example1_problem()
        c = ps.constraint
        best_val, _ = enumerate_knapsack(ps.true_values, c.weights, c.capacity)
        dp = dnl.solve_knapsack_dp(ps.true_values, c)
        assert best_val == pytest.approx(dp.objective)

    def test_single_item(self):
        _, best_x = enumerate_knapsack([1.0], [1.0], 1.0)
        assert best_x == (1,)
        assert dnl.solve_knapsack_dp([1.0], dnl.Knapsack([1.0], 1.0)).solution.assignment == (1,)

    def test_too_large_rejected(self):
        n = 23
        with pytest.raises(ValueError):
            enumerate_knapsack(np.ones(n), np.ones(n), 3.0)

    def test_scheduling_matches_enumeration(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            constraint = random_schedule_constraint(rng, periods=5, jobs=2)
            prices = rng.uniform(0.5, 3.0, size=5)
            try:
                expected_cost, _ = enumerate_schedule(prices, constraint)
            except Exception:
                continue
            if not np.isfinite(expected_cost):
                continue
            res = dnl.solve_scheduling(prices, constraint)
            assert res.objective == pytest.approx(expected_cost, abs=1e-9)


class TestOracleProperties:
    def test_raising_one_value_never_hurts(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            ps = random_knapsack_problem(rng)
            values = ps.true_values.copy()
            base = dnl.solve_knapsack_dp(values, ps.constraint).objective
            i = int(rng.integers(0, len(values)))
            values[i] += float(rng.uniform(0.1, 2.0))
            bumped = dnl.solve_knapsack_dp(values, ps.constraint).objective
            assert bumped >= base - 1e-9

    def test_scale_covariance(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            ps = random_knapsack_problem(rng)
            k = float(rng.uniform(0.2, 4.0))
            base = dnl.solve_knapsack_dp(ps.true_values, ps.constraint)
            scaled = dnl.solve_knapsack_dp(k * ps.true_values, ps.constraint)
            assert scaled.objective == pytest.approx(k * base.objective, rel=1e-12)

    def test_scheduling_scale_covariance(self):
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 5:
            constraint = random_schedule_constraint(rng)
            prices = rng.uniform(0.5, 4.0, size=constraint.periods)
            try:
                base = dnl.solve_scheduling(prices, constraint)
            except dnl.InfeasibleInstanceError:
                continue
            scaled = dnl.solve_scheduling(3.0 * prices, constraint)
            assert scaled.objective == pytest.approx(3.0 * base.objective, rel=1e-12)
            checked += 1

    def test_result_objective_consistent_with_solution(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            ps = random_knapsack_problem(rng)
            res = dnl.solve_knapsack_dp(ps.true_values, ps.constraint)
            assert res.objective == pytest.approx(
                dnl.solution_objective(res.solution, ps.true_values), abs=1e-9
            )


class TestCapacityAtOrAboveTotalWeight:
    """Every subset fits, so every solver takes exactly the positive items."""

    LOADS = {
        "integer classes": (
            [3.0, 5.0, 7.0, 3.0, 5.0, 7.0, 3.0],
            [2.0, -1.0, 0.5, 0.0, 4.0, 3.0, -2.0],
        ),
        "six decimals": (
            [1.234567, 2.5, 0.000001, 3.141593, 2.5, 4.0],
            [1.0, 0.25, -0.5, 2.0, 0.0, 3.5],
        ),
    }

    @pytest.mark.parametrize("load", sorted(LOADS))
    @pytest.mark.parametrize("capacity", ["total", 1e20, np.inf])
    @pytest.mark.parametrize(
        "solve",
        [dnl.solve_knapsack_dp, dnl.solve_knapsack_bb, dnl.SolverOracle().solve],
        ids=["dp", "bb", "oracle"],
    )
    def test_takes_every_positive_item(self, load, capacity, solve):
        weights, values = self.LOADS[load]
        if capacity == "total":
            capacity = sum(weights)
        constraint = dnl.Knapsack(weights, capacity)
        res = solve(values, constraint)
        assert np.array_equal(res.solution.vector, np.greater(values, 0))
        assert res.objective == pytest.approx(sum(v for v in values if v > 0), abs=1e-9)


# One load per knapsack route.
KNAPSACK_ROUTE_LOADS = {
    "top-k": dnl.Knapsack(np.ones(9), 4.0),
    "count grid": dnl.Knapsack(np.resize([3.0, 5.0, 7.0], 48), 122.0),
    "table DP": dnl.Knapsack(np.arange(1.0, 18.0), 200.0),
    "branch-and-bound": dnl.Knapsack([1.0, 1.0 / 3.0, 2.0, 0.5, 1.5], 2.0),
}


def knapsack_route(constraint):
    """The name of the route `SolverOracle` takes on a knapsack load."""
    plan = oracles._integer_form(constraint)[2]
    if isinstance(plan, str):
        return "branch-and-bound"
    if plan is None:
        return "table DP"
    return "top-k" if plan.fill is None else "count grid"


class TestSolverOracle:
    def test_counts_calls(self):
        oracle = dnl.SolverOracle()
        ps = example1_problem()
        oracle.solve(ps.true_values, ps.constraint)
        oracle.solve(ps.true_values, ps.constraint)
        assert oracle.calls == 2
        oracle.solve_rows(np.stack([ps.true_values] * 3), ps.constraint)
        assert oracle.calls == 5
        oracle.solve_rows(np.empty((0, ps.true_values.shape[0])), ps.constraint)
        assert oracle.calls == 5

    @pytest.mark.parametrize("route", ["table DP", "branch-and-bound"])
    def test_rows_on_scalar_routes(self, route):
        # Knapsack loads with no row form of their own answer each row
        # through their backend, as `solve` does.
        rng = np.random.default_rng(157)
        if route == "table DP":
            constraint = dnl.Knapsack(np.arange(1.0, 18.0), 200.0)
        else:
            constraint = dnl.Knapsack(rng.uniform(0.5, 3.0, size=20), 12.0)
        plan = oracles._integer_form(constraint)[2]
        assert {"table DP": plan is None, "branch-and-bound": isinstance(plan, str)}[route]
        rows = rng.normal(2.0, 3.0, size=(6, constraint.weights.shape[0]))
        rows[3:] = np.round(rows[3:])  # tied values
        assert_rows_match_solve(rows, constraint)

    @pytest.mark.parametrize("route", [*KNAPSACK_ROUTE_LOADS, "scheduling"])
    def test_empty_block_answers_nothing(self, route):
        # A block of no rows answers [] and counts no call on every route, and
        # its width is checked on every route, the table DP and
        # branch-and-bound included, though they solve the rows one by one.
        if route == "scheduling":
            constraint = random_schedule_constraint(np.random.default_rng(0))
            width = constraint.periods
        else:
            constraint = KNAPSACK_ROUTE_LOADS[route]
            assert knapsack_route(constraint) == route
            width = constraint.num_items
        oracle = dnl.SolverOracle()
        assert oracle.solve_rows(np.empty((0, width)), constraint) == []
        assert oracle.calls == 0
        message = "one price per period" if route == "scheduling" else "equal length"
        with pytest.raises(ValueError, match=message):
            oracle.solve_rows(np.empty((0, width + 1)), constraint)

    def test_auto_falls_back_to_bb(self):
        constraint = dnl.Knapsack([1.0, 1.0 / 3.0], 2.0)
        res = dnl.SolverOracle().solve([1.0, 1.0], constraint)
        assert res.objective == pytest.approx(2.0)

    def test_solver_errors_are_not_rerouted(self, monkeypatch):
        # The route is chosen per load, not by catching errors: a fault in
        # the DP propagates instead of silently running branch-and-bound.
        def failing(*args):
            raise ValueError("shape mismatch inside the class solver")

        monkeypatch.setattr(oracles, "_knapsack_by_class", failing)
        constraint = dnl.Knapsack([1.0, 2.0, 2.0], 3.0)
        with pytest.raises(ValueError, match="inside the class solver"):
            dnl.SolverOracle().solve([1.0, 2.0, 3.0], constraint)

    def test_counter_is_exact_across_threads(self):
        oracle = dnl.SolverOracle()
        ps = example1_problem()
        rows = np.stack([ps.true_values] * 3)

        def work():
            for _ in range(500):
                oracle.solve(ps.true_values, ps.constraint)
                oracle.solve_rows(rows, ps.constraint)

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert oracle.calls == 8000

    def test_stored_schedules_are_exact_across_threads(self, monkeypatch):
        # Threads solving one shared load write its schedule memo at once;
        # every answer stays exact and the memo passes its bound by at most
        # one entry per thread.
        monkeypatch.setattr(oracles, "SCHEDULING_MEMO_MAX", 3)
        constraint = dnl.Scheduling(
            (dnl.MachineSpec(3.5), dnl.MachineSpec(2.5)),
            (dnl.JobSpec(2.5, 1.0, 2, 0, 7), dnl.JobSpec(1.5, 2.0, 1, 1, 7),
             dnl.JobSpec(1.0, 3.0, 3, 0, 7)),
            7,
        )
        rng = np.random.default_rng(67)
        prices = [rng.integers(-3, 4, size=7).astype(float) for _ in range(40)]
        expected = [tuple(reference_schedule(p, constraint)[1]) for p in prices]
        results = [[] for _ in range(4)]

        def work(out):
            for _ in range(5):
                for p in prices:
                    res = dnl.solve_scheduling(p, constraint)
                    out.append((res.solution.assignment, res.objective == res.solution.vector @ p))

        threads = [threading.Thread(target=work, args=(out,)) for out in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for out in results:
            assert out == [(e, True) for e in expected] * 5
        assert len(set(expected)) > 3
        assert len(oracles._scheduling_plan(constraint).answers) <= 3 + len(threads)


class TestAnswersBuiltOnFirstRead:
    """A solver answer builds its knapsack assignment and its objective on
    first read, with the values and types an eager build gives."""

    def test_knapsack_assignment_is_the_vector_as_python_ints(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            ps = random_knapsack_problem(rng, n=int(rng.integers(1, 12)))
            values = rng.normal(size=ps.true_values.shape[0])
            for solve in (dnl.solve_knapsack_dp, dnl.solve_knapsack_bb):
                solution = solve(values, ps.constraint).solution
                expected = tuple(int(v) for v in solution.vector)
                assert solution.assignment == expected
                assert all(type(v) is int for v in solution.assignment)
                assert solution.assignment is solution.assignment  # cached

    def test_lazy_solution_reads_like_an_eager_one(self):
        constraint = dnl.Knapsack([3.0, 5.0, 7.0], 8.0)
        solution = dnl.solve_knapsack_dp([4.0, 5.0, 6.0], constraint).solution
        eager = dnl.Solution((1, 1, 0), [1.0, 1.0, 0.0])
        assert set(vars(solution)) == {"vector"}  # the assignment waits for its first read
        assert repr(solution) == repr(eager)
        assert not solution.vector.flags.writeable
        with pytest.raises(AttributeError):
            solution.missing

    def test_objective_is_the_eager_dot_bit_for_bit(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            ps = random_knapsack_problem(rng, n=int(rng.integers(1, 12)))
            values = rng.normal(size=ps.true_values.shape[0])
            res = dnl.solve_knapsack_dp(values, ps.constraint)
            eager = float(res.solution.vector @ values)
            assert res.objective.hex() == eager.hex()
            assert type(res.objective) is float

    @pytest.mark.parametrize("family", ["dp", "bb", "scheduling", "top-k"])
    def test_objective_ignores_later_writes_to_the_input(self, family):
        if family == "scheduling":
            constraint = random_schedule_constraint(np.random.default_rng(53))
            values, solve = np.arange(1.0, 7.0), dnl.solve_scheduling
        else:
            weights = [1.0] * 4 if family == "top-k" else [3.0, 5.0, 7.0, 2.0]
            constraint = dnl.Knapsack(weights, 10.0 if family != "top-k" else 2.0)
            values = np.array([4.0, 5.0, 6.0, 1.5])
            solve = dnl.solve_knapsack_bb if family == "bb" else dnl.solve_knapsack_dp
        rows = np.stack([values, values[::-1]])
        res = solve(values, constraint)
        answers = dnl.SolverOracle().solve_rows(rows, constraint)
        expected = float(res.solution.vector @ values)
        expected_rows = [float(a.solution.vector @ row) for a, row in zip(answers, rows)]
        values[:] = 1e6
        rows[:] = 1e6
        assert res.objective == expected
        assert [a.objective for a in answers] == expected_rows

    @pytest.mark.parametrize("family", ["top-k", "class", "scheduling"])
    def test_rows_answers_view_a_frozen_block_and_copy_a_writable_one(self, family):
        # A read-only block that owns its memory, as `select_ridge` passes
        # it, is not copied again; any other block is.
        if family == "scheduling":
            constraint = random_schedule_constraint(np.random.default_rng(59))
            values = np.arange(1.0, 7.0)
        else:
            weights = [1.0] * 4 if family == "top-k" else [3.0, 5.0, 7.0, 2.0]
            constraint = dnl.Knapsack(weights, 2.0 if family == "top-k" else 10.0)
            values = np.array([4.0, 5.0, 6.0, 1.5])
        frozen = np.array([values, values[::-1]])
        frozen.setflags(write=False)
        writable = frozen.copy()
        for block, shared in ((frozen, True), (writable, False)):
            answers = dnl.SolverOracle().solve_rows(block, constraint)
            assert [np.shares_memory(a._values, block) for a in answers] == [shared] * 2
            assert [a.objective for a in answers] == [
                float(a.solution.vector @ row) for a, row in zip(answers, block)
            ]


class TestOracleResult:
    """A solver answer is a plain frozen dataclass: its solution and the
    solver's own copy of the coefficients, the objective read from both."""

    def test_no_attribute_hook(self):
        assert "__getattr__" not in vars(dnl.OracleResult)
        with pytest.raises(AttributeError):
            dnl.solve_knapsack_dp([1.0], dnl.Knapsack([1.0], 1.0)).missing

    def test_replace_keeps_the_objective(self):
        constraint = dnl.Knapsack([3.0, 5.0, 7.0], 8.0)
        res = dnl.solve_knapsack_dp([4.0, 5.0, 6.0], constraint)
        same = dataclasses.replace(res, solution=dnl.knapsack_solution([1.0, 1.0, 0.0]))
        assert same.objective == res.objective == 9.0
        other = dataclasses.replace(res, solution=dnl.knapsack_solution([0.0, 0.0, 1.0]))
        assert other.objective == 6.0

    def test_repr_and_equality_read_the_solution_only(self):
        constraint = dnl.Knapsack([3.0, 5.0, 7.0], 8.0)
        low = dnl.solve_knapsack_dp([4.0, 5.0, 6.0], constraint)
        high = dnl.solve_knapsack_dp([40.0, 50.0, 6.0], constraint)
        assert (low.objective, high.objective) == (9.0, 90.0)
        assert low == high
        assert repr(low) == f"OracleResult(solution={low.solution!r})"

    @pytest.mark.parametrize("solve", ["dp", "bb", "scheduling"])
    def test_solvers_build_what_the_constructor_builds(self, solve):
        # The solvers build their answers in place; each is still a frozen
        # OracleResult holding what the constructor would store.
        if solve == "scheduling":
            constraint = dnl.Scheduling((dnl.MachineSpec(1.0),), (dnl.JobSpec(1.0, 1.0, 1, 0, 3),), 3)
            res = dnl.solve_scheduling([5.0, 2.0, 7.0], constraint)
        else:
            solver = dnl.solve_knapsack_dp if solve == "dp" else dnl.solve_knapsack_bb
            res = solver([4.0, 5.0, 6.0], dnl.Knapsack([3.0, 5.0, 7.0], 8.0))
        built = dnl.OracleResult(res.solution, res._values)
        assert type(res) is dnl.OracleResult
        assert vars(res).keys() == vars(built).keys()
        assert res == built and repr(res) == repr(built)
        assert res.objective == built.objective
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.solution = None


def under_overflow(solve, values, weights, capacity):
    """An INPUT_CHECKS case: `solve(values, Knapsack(weights, capacity))`
    outside `train`'s error state, where numpy's overflow only warns (and
    pytest would turn the warning into an error)."""
    def call():
        with np.errstate(over="ignore", invalid="ignore"):
            solve(values, dnl.Knapsack(weights, capacity))
    return call, FloatingPointError, "knapsack class sums overflow"


# Two loads whose class sums overflow on finite values: the first best cell
# of the count grid is a NaN (+inf + -inf), which read an index past a class
# (the first load) or an infeasible selection (the second).
OVERFLOWING_LOADS = {
    "past a class": (
        [5e307, -1.5e308, 1e308, 1e308, -5e307, -5e307, 1e308, 5e307, 0.0],
        [3, 2, 1, 3, 3, 4, 3, 1, 1], 6),
    "infeasible cell": (
        [0, 0, 0, -1e307, 1e308, -0.0, -1e307, 1.5e308, -1.5e308, 3e307],
        [4, 1, 0, 0, 7, 1, 0, 1, 3, 0], 5),
}
OVERFLOW_ROUTES = {
    "dp": dnl.solve_knapsack_dp,
    "oracle": lambda values, constraint: dnl.SolverOracle().solve(values, constraint),
    "rows": lambda values, constraint: dnl.SolverOracle().solve_rows([values, values], constraint),
}

# Each input check: (call, exception type, message fragment).
INPUT_CHECKS = {
    **{
        f"{route} class sums overflow {load}": under_overflow(solve, *OVERFLOWING_LOADS[load])
        for route, solve in OVERFLOW_ROUTES.items()
        for load in OVERFLOWING_LOADS
    },
    "dp value count": (
        lambda: dnl.solve_knapsack_dp([1.0, 2.0], dnl.Knapsack([1.0] * 3, 2.0)),
        ValueError, "values and weights must have equal length"),
    "bb value count": (
        lambda: dnl.solve_knapsack_bb([1.0, 2.0], dnl.Knapsack([1.0] * 3, 2.0)),
        ValueError, "values and weights must have equal length"),
    "dp nan value": (
        lambda: dnl.solve_knapsack_dp([1.0, np.nan, 2.0], dnl.Knapsack([1, 1, 1], 2)),
        ValueError, "knapsack values must be finite"),
    "dp infinite value": (
        lambda: dnl.solve_knapsack_dp([np.inf, 1.0, 2.0], dnl.Knapsack([1, 1, 1], 2)),
        ValueError, "knapsack values must be finite"),
    "bb nan value": (
        lambda: dnl.solve_knapsack_bb([1.0, np.nan, 2.0], dnl.Knapsack([1, 1, 1], 2)),
        ValueError, "knapsack values must be finite"),
    "bb infinite value": (
        lambda: dnl.solve_knapsack_bb([np.inf, 1.0, 2.0], dnl.Knapsack([1, 1, 1], 2)),
        ValueError, "knapsack values must be finite"),
    "dp column of values": (
        lambda: dnl.solve_knapsack_dp(np.ones((3, 1)), dnl.Knapsack([1, 1, 1], 2)),
        ValueError, "knapsack values must be a 1-d array"),
    "bb column of values": (
        lambda: dnl.solve_knapsack_bb(np.ones((3, 1)), dnl.Knapsack([1, 1, 1], 2)),
        ValueError, "knapsack values must be a 1-d array"),
    "price column": (
        lambda: dnl.solve_scheduling(
            np.ones((3, 1)),
            dnl.Scheduling((dnl.MachineSpec(1.0),), (dnl.JobSpec(1.0, 1.0, 1, 0, 3),), 3),
        ),
        ValueError, "scheduling prices must be a 1-d array"),
    "price count": (
        lambda: dnl.solve_scheduling([1.0] * 3, random_schedule_constraint(np.random.default_rng(0))),
        ValueError, "one price per period required"),
    "unknown constraint": (
        lambda: dnl.SolverOracle().solve([1.0], object()), TypeError, "unsupported constraint type"),
    "knapsack rows given one row": (
        lambda: dnl.SolverOracle().solve_rows([1.0, 2.0, 3.0], dnl.Knapsack([1, 1, 1], 2)),
        ValueError, "coefficient rows must be a 2-d array"),
    "knapsack row length": (
        lambda: dnl.SolverOracle().solve_rows(np.ones((2, 2)), dnl.Knapsack([1.0] * 3, 2.0)),
        ValueError, "values and weights must have equal length"),
    "knapsack nan row": (
        lambda: dnl.SolverOracle().solve_rows(
            [[1.0, 2.0, 3.0], [1.0, np.nan, 2.0]], dnl.Knapsack([1, 1, 1], 2)),
        ValueError, "knapsack values must be finite"),
    "knapsack infinite row": (
        lambda: dnl.SolverOracle().solve_rows(
            [[1.0, 2.0, 3.0], [np.inf, 1.0, 2.0]], dnl.Knapsack([1, 1, 1], 2)),
        ValueError, "knapsack values must be finite"),
    "price rows given one row": (
        lambda: dnl.SolverOracle().solve_rows(
            [1.0, 2.0, 3.0],
            dnl.Scheduling((dnl.MachineSpec(1.0),), (dnl.JobSpec(1.0, 1.0, 1, 0, 3),), 3),
        ),
        ValueError, "coefficient rows must be a 2-d array"),
    "price row length": (
        lambda: dnl.SolverOracle().solve_rows(
            np.ones((2, 3)), random_schedule_constraint(np.random.default_rng(0))),
        ValueError, "one price per period required"),
    "nan price row": (
        lambda: dnl.SolverOracle().solve_rows(
            [[1.0, 2.0, 3.0], [1.0, np.nan, 2.0]],
            dnl.Scheduling((dnl.MachineSpec(1.0),), (dnl.JobSpec(1.0, 1.0, 1, 0, 3),), 3),
        ),
        ValueError, "scheduling prices must be finite and have a finite sum"),
    "infinite price row": (
        lambda: dnl.SolverOracle().solve_rows(
            [[1.0, 2.0, 3.0], [np.inf, 1.0, 2.0]],
            dnl.Scheduling((dnl.MachineSpec(1.0),), (dnl.JobSpec(1.0, 1.0, 1, 0, 3),), 3),
        ),
        ValueError, "scheduling prices must be finite and have a finite sum"),
    "unknown constraint rows": (
        lambda: dnl.SolverOracle().solve_rows([[1.0]], object()),
        TypeError, "unsupported constraint type"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check_names_the_fault(case):
    call, error, fragment = INPUT_CHECKS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)


@pytest.mark.parametrize("load", KNAPSACK_ROUTE_LOADS)
@pytest.mark.parametrize("fault", ["short vector", "nan", "+inf", "-inf"])
def test_knapsack_entries_agree_on_faulty_values(load, fault):
    # Every knapsack entry holds values to one contract: on each route, the
    # same faulty values raise the same type and message from each entry.
    constraint = KNAPSACK_ROUTE_LOADS[load]
    assert knapsack_route(constraint) == load
    good = np.linspace(-1.0, 2.0, constraint.num_items)
    if fault == "short vector":  # every row of a block has the block's width
        bad = good[:-1]
        block = np.stack([good[1:], bad])
    else:
        bad = good.copy()
        bad[1] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[fault]
        block = np.stack([good, bad])
    entries = {
        "dp": lambda: dnl.solve_knapsack_dp(bad, constraint),
        "bb": lambda: dnl.solve_knapsack_bb(bad, constraint),
        "solve": lambda: dnl.SolverOracle().solve(bad, constraint),
        "rows": lambda: dnl.SolverOracle().solve_rows(block, constraint),
    }
    if load == "branch-and-bound":  # the DP refuses the load by route
        del entries["dp"]
    raised = {}
    for name, call in entries.items():
        with pytest.raises(Exception) as info:
            call()
        raised[name] = (type(info.value), str(info.value))
    message = "values and weights must have equal length" if fault == "short vector" else (
        "knapsack values must be finite")
    assert raised == dict.fromkeys(entries, (ValueError, message))
