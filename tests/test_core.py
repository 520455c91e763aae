import numpy as np
import pytest

import dnl
from util import example1_model, example1_problem


class TestTypes:
    def test_problem_set_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            dnl.ProblemSet([1.0, 2.0], [[1.0]], dnl.Knapsack([1, 1], 1), "bad")

    def test_knapsack_weight_length_checked(self):
        with pytest.raises(ValueError):
            dnl.ProblemSet([1.0, 2.0], [[1.0], [2.0]], dnl.Knapsack([1], 1), "bad")

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            dnl.Knapsack([1, 1], -1.0)

    @pytest.mark.parametrize(
        "weights, capacity",
        [
            ([1.0, np.nan], 2.0),
            ([1.0, np.inf], 2.0),
            ([1.0, -np.inf], 2.0),
            ([1.0, 1.0], np.nan),
        ],
    )
    def test_knapsack_rejects_non_finite(self, weights, capacity):
        # An infinite capacity is allowed: TestCapacityAtOrAboveTotalWeight.
        with pytest.raises(ValueError, match="knapsack"):
            dnl.Knapsack(weights, capacity)

    @pytest.mark.parametrize("capacity", [np.nan, np.inf, -np.inf])
    def test_machine_rejects_non_finite_capacity(self, capacity):
        with pytest.raises(ValueError, match="machine capacity"):
            dnl.MachineSpec(capacity)

    @pytest.mark.parametrize(
        "resource, power", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)]
    )
    def test_job_rejects_non_finite_resource_or_power(self, resource, power):
        with pytest.raises(ValueError, match="resource and power"):
            dnl.JobSpec(resource, power, 1, 0, 2)

    @pytest.mark.parametrize(
        "values, features",
        [
            ([1.0, np.nan], [[1.0], [2.0]]),
            ([1.0, np.inf], [[1.0], [2.0]]),
            ([1.0, 2.0], [[1.0], [np.nan]]),
            ([1.0, 2.0], [[-np.inf], [2.0]]),
        ],
    )
    def test_problem_set_rejects_non_finite(self, values, features):
        with pytest.raises(ValueError, match="problem set bad: .* must be finite"):
            dnl.ProblemSet(values, features, dnl.Knapsack([1.0, 1.0], 1.0), "bad")

    def test_model_rejects_nan(self):
        with pytest.raises(ValueError):
            dnl.LinearModel([np.nan], 0.0)

    def test_job_window_validated(self):
        with pytest.raises(ValueError):
            dnl.JobSpec(resource=1, power=1, duration=5, earliest_start=0, latest_finish=4)

    def test_scheduling_rejects_oversized_resource(self):
        machines = (dnl.MachineSpec(2.0),)
        jobs = (dnl.JobSpec(3.0, 1.0, 1, 0, 4),)
        with pytest.raises(ValueError):
            dnl.Scheduling(machines, jobs, 4)

    def test_dataset_requires_shared_family(self):
        knap = dnl.ProblemSet([1.0], [[1.0]], dnl.Knapsack([1.0], 1.0), "a")
        sched = dnl.ProblemSet(
            [1.0, 1.0],
            [[1.0], [1.0]],
            dnl.Scheduling((dnl.MachineSpec(1),), (dnl.JobSpec(1, 1, 1, 0, 2),), 2),
            "b",
        )
        with pytest.raises(ValueError):
            dnl.Dataset((knap, sched))

    def test_dataset_requires_shared_feature_dim(self):
        a = dnl.ProblemSet([1.0], [[1.0, 2.0]], dnl.Knapsack([1.0], 1.0), "a")
        b = dnl.ProblemSet([1.0], [[1.0]], dnl.Knapsack([1.0], 1.0), "b")
        assert dnl.Dataset((a, a)).feature_dim == 2
        with pytest.raises(ValueError, match="problem set b has feature_dim 1"):
            dnl.Dataset((a, b))

    def test_core_arrays_are_read_only(self):
        # Each stored array is a copy of the caller's, and writing to it raises.
        weights = np.array([1.0, 1.0, 1.0])
        values = np.array([2.0, 1.0, 3.0])
        features = np.array([[-1.0, 3.0], [0.0, 1.0], [1.0, 1.0]])
        coefficients = np.array([1.0, 1.0])
        knapsack = dnl.Knapsack(weights, 2.0)
        ps = dnl.ProblemSet(values, features, knapsack, "p")
        model = dnl.LinearModel(coefficients, 0.0)
        result = dnl.SolverOracle().solve(values, knapsack)
        stored = [
            knapsack.weights,
            ps.true_values,
            ps.features,
            model.coefficients,
            result.solution.vector,
        ]
        before = [arr.copy() for arr in stored]
        for source in (weights, values, features, coefficients):
            source *= -1.0
        for arr, expected in zip(stored, before):
            assert np.array_equal(arr, expected)
            with pytest.raises(ValueError):
                arr[0] = 9.0


class TestPredict:
    def test_example1_row(self):
        # Feature row (-1, 3) with beta (1, 1): prediction 2, and as a
        # function of the first parameter alone it is 3 - beta1.
        ps = example1_problem()
        preds = dnl.predict(example1_model(1.0), ps)
        assert preds[0] == pytest.approx(2.0)
        for b1 in (-2.0, 0.5, 4.0):
            assert dnl.predict(example1_model(b1), ps)[0] == pytest.approx(-b1 + 3.0)

    def test_zero_parameters(self):
        ps = example1_problem()
        preds = dnl.predict(dnl.LinearModel([0.0, 0.0], 0.0), ps)
        assert np.allclose(preds, 0.0)

    def test_single_feature_with_intercept(self):
        ps = dnl.ProblemSet([7.0], [[3.0]], dnl.Knapsack([1.0], 1.0), "one")
        assert dnl.predict(dnl.LinearModel([2.0], 1.0), ps)[0] == pytest.approx(7.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dnl.predict(dnl.LinearModel([1.0], 0.0), example1_problem())

    def test_predict_is_linear_in_parameters(self):
        rng = np.random.default_rng(3)
        ps = example1_problem()
        for _ in range(50):
            b1 = rng.normal(size=2)
            b2 = rng.normal(size=2)
            alpha = rng.uniform()
            mixed = dnl.predict(dnl.LinearModel(alpha * b1 + (1 - alpha) * b2, 0.0), ps)
            combo = alpha * dnl.predict(dnl.LinearModel(b1, 0.0), ps) + (
                1 - alpha
            ) * dnl.predict(dnl.LinearModel(b2, 0.0), ps)
            assert np.max(np.abs(mixed - combo)) <= 1e-9


class TestSolutionEquality:
    def test_solver_answer_equals_a_hand_built_solution(self):
        constraint = dnl.Scheduling(
            (dnl.MachineSpec(1.0),), (dnl.JobSpec(1.0, 2.0, 2, 0, 4),), 4
        )
        solution = dnl.solve_scheduling([5.0, 1.0, 2.0, 7.0], constraint).solution
        built = dnl.Solution(((0, 1),), [0.0, 2.0, 2.0, 0.0])
        assert solution.vector is not built.vector
        assert (solution == built) is True
        assert (solution != built) is False
        assert solution != dnl.Solution(((0, 1),), [0.0, 2.0, 2.0, 1.0])
        assert solution != dnl.Solution(((0, 2),), [0.0, 2.0, 2.0, 0.0])
        assert solution != dnl.Solution(((0, 1),), [0.0, 2.0, 2.0])
        assert solution != ((0, 1),)

    def test_knapsack_answers_compare_by_value(self):
        constraint = dnl.Knapsack([3.0, 5.0, 7.0], 8.0)
        a = dnl.solve_knapsack_dp([4.0, 5.0, 6.0], constraint)
        b = dnl.solve_knapsack_bb([4.0, 5.0, 6.0], constraint)
        assert a.solution.vector is not b.solution.vector
        assert a.solution == b.solution == dnl.knapsack_solution([1, 1, 0])
        assert a == b

    def test_solutions_are_not_hashable(self):
        with pytest.raises(TypeError):
            hash(dnl.knapsack_solution([1, 0]))
        with pytest.raises(TypeError):
            hash(dnl.Solution(((0, 0),), [1.0]))


class TestSolutionObjective:
    def test_knapsack_dot(self):
        sol = dnl.knapsack_solution([1, 0, 1])
        assert sol.assignment == (1, 0, 1)
        assert all(type(v) is int for v in sol.assignment)
        assert dnl.solution_objective(sol, [2.0, 1.0, 3.0]) == pytest.approx(5.0)

    def test_zero_values(self):
        sol = dnl.knapsack_solution([1, 1, 0])
        assert dnl.solution_objective(sol, [0.0, 0.0, 0.0]) == 0.0

    def test_scheduling_expands_consumption(self):
        constraint = dnl.Scheduling(
            (dnl.MachineSpec(1.0),), (dnl.JobSpec(1.0, 2.0, 2, 0, 3),), 3
        )
        sol = dnl.scheduling_solution([(0, 0)], constraint)
        assert np.allclose(sol.vector, [2.0, 2.0, 0.0])
        assert dnl.solution_objective(sol, [5.0, 3.0, 9.0]) == pytest.approx(16.0)

    def test_scheduling_consumption_matches_slice_adds(self):
        # The same float additions in job order as a numpy slice add per job;
        # the pairs come back as tuples of Python ints.
        rng = np.random.default_rng(5)
        for _ in range(50):
            periods = int(rng.integers(3, 12))
            jobs, assignment = [], []
            for _ in range(int(rng.integers(1, 6))):
                duration = int(rng.integers(1, periods + 1))
                start = rng.integers(0, periods - duration + 1)
                jobs.append(dnl.JobSpec(1.0, float(rng.uniform(0.1, 3.0)), duration, 0, periods))
                assignment.append((np.int64(0), start))
            constraint = dnl.Scheduling((dnl.MachineSpec(9.0),), tuple(jobs), periods)
            expected = np.zeros(periods)
            for job, (_, start) in zip(jobs, assignment):
                expected[start : start + job.duration] += job.power
            sol = dnl.scheduling_solution(assignment, constraint)
            assert sol.vector.tobytes() == expected.tobytes()
            assert sol.assignment == tuple((0, int(t)) for _, t in assignment)
            assert all(type(v) is int for pair in sol.assignment for v in pair)
        # Python-int pairs given as lists come back as tuples too.
        constraint = dnl.Scheduling(
            (dnl.MachineSpec(9.0),), (dnl.JobSpec(1.0, 2.0, 1, 0, 3),), 3
        )
        sol = dnl.scheduling_solution([[0, 1]], constraint)
        assert sol.vector.tolist() == [0.0, 2.0, 0.0]
        assert sol.assignment == ((0, 1),)
        hash(sol.assignment)

    def test_dimension_mismatch(self):
        sol = dnl.knapsack_solution([1, 0])
        with pytest.raises(ValueError):
            dnl.solution_objective(sol, [1.0, 2.0, 3.0])

    def test_bilinear(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = rng.integers(0, 2, size=6).astype(float)
            v1, v2 = rng.normal(size=6), rng.normal(size=6)
            a, b = rng.normal(), rng.normal()
            sol = dnl.knapsack_solution(x)
            assert dnl.solution_objective(sol, a * v1 + b * v2) == pytest.approx(
                a * dnl.solution_objective(sol, v1) + b * dnl.solution_objective(sol, v2)
            )


class TestValidateSolution:
    def test_overweight_rejected(self):
        constraint = dnl.Knapsack([1.0, 1.0, 1.0], 2.0)
        with pytest.raises(ValueError):
            dnl.validate_solution(dnl.knapsack_solution([1, 1, 1]), constraint)

    def test_feasible_passes(self):
        constraint = dnl.Knapsack([1.0, 1.0, 1.0], 2.0)
        dnl.validate_solution(dnl.knapsack_solution([1, 0, 1]), constraint)

    def test_schedule_window_violation_rejected(self):
        constraint = dnl.Scheduling(
            (dnl.MachineSpec(1.0),), (dnl.JobSpec(1.0, 1.0, 1, 2, 4),), 4
        )
        with pytest.raises(ValueError):
            dnl.validate_solution(dnl.scheduling_solution([(0, 0)], constraint), constraint)

    def test_schedule_capacity_violation_rejected(self):
        constraint = dnl.Scheduling(
            (dnl.MachineSpec(1.0),),
            (dnl.JobSpec(1.0, 1.0, 1, 0, 2), dnl.JobSpec(1.0, 1.0, 1, 0, 2)),
            2,
        )
        with pytest.raises(ValueError):
            dnl.validate_solution(
                dnl.scheduling_solution([(0, 0), (0, 0)], constraint), constraint
            )


def test_model_roundtrip(tmp_path):
    model = dnl.LinearModel([0.25, -1.5, 3.0], 0.125)
    path = tmp_path / "model.txt"
    dnl.save_model(model, path)
    loaded = dnl.load_model(path)
    assert np.array_equal(loaded.coefficients, model.coefficients)
    assert loaded.intercept == model.intercept


def _one_job_load(periods=4):
    return dnl.Scheduling((dnl.MachineSpec(1.0),), (dnl.JobSpec(1.0, 1.0, 1, 0, periods),), periods)


def _problem_set():
    return dnl.ProblemSet([1.0, 2.0], [[1.0], [2.0]], dnl.Knapsack([1.0, 1.0], 1.0), "p")


# Each type: a builder of one instance, and whether two built instances,
# equal in every field value, compare equal. Array-holding types compare
# by identity, as do types built from distinct instances of them.
EQUALITY_RULES = {
    "Knapsack": (lambda: dnl.Knapsack([1.0, 2.0], 3.0), False),
    "ProblemSet": (_problem_set, False),
    "LinearModel": (lambda: dnl.LinearModel([1.0, 2.0]), False),
    "RawSeries": (lambda: dnl.RawSeries(np.zeros((4, 2)), np.zeros(4), group_size=2), False),
    "Fold": (lambda: dnl.Fold((_problem_set(),), (_problem_set(),), (_problem_set(),)), False),
    "Dataset": (lambda: dnl.Dataset((_problem_set(), _problem_set())), False),
    "Scheduling": (_one_job_load, True),
    "MachineSpec": (lambda: dnl.MachineSpec(2.0), True),
    "JobSpec": (lambda: dnl.JobSpec(1.0, 2.0, 2, 0, 4), True),
}


@pytest.mark.parametrize("name", EQUALITY_RULES)
def test_each_type_compares_by_identity_or_by_value(name):
    make, by_value = EQUALITY_RULES[name]
    a, b = make(), make()
    assert a is not b
    assert a == a and hash(a) == hash(a)
    assert (a == b) is by_value and (a != b) is not by_value
    assert len({a: 0, b: 1}) == (1 if by_value else 2)


def _model_file(tmp, text):
    path = tmp / "model.txt"
    path.write_text(text)
    return path


# Each input check: (call taking a scratch directory, exception type, message fragment).
INPUT_CHECKS = {
    "2-d weights": (
        lambda tmp: dnl.Knapsack([[1.0, 2.0]], 1.0), ValueError, "expected a 1-d array"),
    "zero duration": (
        lambda tmp: dnl.JobSpec(1.0, 1.0, 0, 0, 2), ValueError, "duration must be positive"),
    "negative start": (
        lambda tmp: dnl.JobSpec(1.0, 1.0, 1, -1, 2), ValueError, "earliest_start must be >= 0"),
    "zero periods": (
        lambda tmp: dnl.Scheduling((dnl.MachineSpec(1.0),), (), 0),
        ValueError, "periods must be positive"),
    "no machine": (
        lambda tmp: dnl.Scheduling((), (), 3), ValueError, "at least one machine required"),
    "duration past horizon": (
        lambda tmp: dnl.Scheduling((dnl.MachineSpec(1.0),), (dnl.JobSpec(1.0, 1.0, 5, 0, 5),), 4),
        ValueError, "job 0 duration exceeds the horizon"),
    "finish past horizon": (
        lambda tmp: dnl.Scheduling((dnl.MachineSpec(1.0),), (dnl.JobSpec(1.0, 1.0, 2, 0, 5),), 4),
        ValueError, "job 0 latest_finish exceeds the horizon"),
    "prices per period": (
        lambda tmp: dnl.ProblemSet(np.ones(3), np.ones((3, 1)), _one_job_load(), "p"),
        ValueError, "one coefficient per period required"),
    "unknown constraint": (
        lambda tmp: dnl.ProblemSet(np.ones(3), np.ones((3, 1)), object(), "p"),
        TypeError, "unsupported constraint type"),
    "empty dataset": (
        lambda tmp: dnl.Dataset(()), ValueError, "at least one problem set"),
    "selection length": (
        lambda tmp: dnl.validate_solution(dnl.knapsack_solution([1.0, 0.0]), dnl.Knapsack([1.0] * 3, 2.0)),
        ValueError, "does not match item count"),
    "fractional selection": (
        lambda tmp: dnl.validate_solution(
            dnl.Solution((0,), [0.5]), dnl.Knapsack([1.0], 2.0)),
        ValueError, "must be 0-1"),
    "pairs per job": (
        lambda tmp: dnl.validate_solution(
            dnl.Solution((), np.zeros(4)), _one_job_load()),
        ValueError, "one (machine, start) pair required per job"),
    "machine index": (
        lambda tmp: dnl.validate_solution(
            dnl.Solution(((5, 0),), [1.0, 0.0, 0.0, 0.0]), _one_job_load()),
        ValueError, "job 0: machine index 5 out of range"),
    "consumption vector": (
        lambda tmp: dnl.validate_solution(
            dnl.Solution(((0, 0),), np.zeros(4)), _one_job_load()),
        ValueError, "consumption vector inconsistent"),
    "unknown constraint to validate": (
        lambda tmp: dnl.validate_solution(dnl.knapsack_solution([1.0]), object()),
        TypeError, "unsupported constraint type"),
    "malformed model file": (
        lambda tmp: dnl.load_model(_model_file(tmp, "p 2\nbeta 1.0 x\nintercept 0\n")),
        ValueError, "malformed model file"),
    "coefficient count": (
        lambda tmp: dnl.load_model(_model_file(tmp, "p 3\nbeta 1.0 2.0\nintercept 0\n")),
        ValueError, "expected 3 coefficients, got 2"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check_names_the_fault(tmp_path, case):
    call, error, fragment = INPUT_CHECKS[case]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert fragment in str(info.value)
