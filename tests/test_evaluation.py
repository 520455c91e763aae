import sys
import threading

import numpy as np
import pytest

import dnl
from dnl.core import OBJECTIVE_TOL
from dnl.core import solution_objective
from dnl.evaluation import _clamped_regret, _mean_std, _memoised, _prober, _sign
from dnl.training import _regret_scorer
from util import (
    enumerate_knapsack,
    enumerate_schedule,
    example1_model,
    example1_problem,
    random_knapsack_problem,
    random_scheduling_problem,
)


@pytest.fixture
def oracle():
    return dnl.SolverOracle()


class TestRegret:
    def test_perfect_predictions_have_zero_regret(self, oracle):
        # Identity feature: the unit model reproduces the true values exactly.
        exact = dnl.ProblemSet(
            [2.0, 1.0, 3.0],
            [[2.0], [1.0], [3.0]],
            dnl.Knapsack([1.0, 1.0, 1.0], 2.0),
            "identity",
        )
        value = dnl.regret_of(dnl.LinearModel([1.0], 0.0), exact, oracle)
        assert value.regret == 0.0
        assert value.true_optimal == pytest.approx(5.0)
        assert value.achieved == pytest.approx(5.0)

    def test_example1_beta1_equal_1(self, oracle):
        # Predictions (2, 1, 2). Enumerating all feasible subsets of the true
        # values confirms the chosen pair is also the true optimum.
        ps = example1_problem()
        preds = dnl.predict(example1_model(1.0), ps)
        assert np.allclose(preds, [2.0, 1.0, 2.0])
        true_best, _ = enumerate_knapsack(ps.true_values, ps.constraint.weights, 2.0)
        value = dnl.regret_of(example1_model(1.0), ps, oracle)
        assert value.true_optimal == pytest.approx(true_best)
        assert value.regret == 0.0

    def test_example1_beta1_equal_3(self, oracle):
        # Predictions (0, 1, 4) select items 2 and 3 worth 4; optimum is 5.
        ps = example1_problem()
        value = dnl.regret_of(example1_model(3.0), ps, oracle)
        assert value.regret == pytest.approx(1.0)

    def test_regret_never_negative_on_random_instances(self, oracle):
        rng = np.random.default_rng(101)
        for _ in range(30):
            ps = random_knapsack_problem(rng)
            model = dnl.LinearModel(rng.normal(size=3), rng.normal())
            assert dnl.regret_of(model, ps, oracle).regret >= 0.0

    def test_scheduling_regret_nonnegative(self, oracle):
        rng = np.random.default_rng(103)
        constraint = dnl.Scheduling(
            (dnl.MachineSpec(2.0),),
            (dnl.JobSpec(1.0, 1.0, 2, 0, 6), dnl.JobSpec(2.0, 2.0, 1, 1, 5)),
            6,
        )
        ps = dnl.ProblemSet(
            rng.uniform(1.0, 3.0, size=6), rng.uniform(size=(6, 2)), constraint, "sched"
        )
        for _ in range(10):
            model = dnl.LinearModel(rng.normal(size=2), rng.normal())
            value = dnl.regret_of(model, ps, oracle)
            assert value.regret >= 0.0
            assert value.true_optimal >= value.achieved - 1e-9

    def test_regret_decomposes_against_enumeration(self, oracle):
        # Random problem sets of both families under random models: regret is
        # true_optimal - achieved (0 within OBJECTIVE_TOL), never negative,
        # and true_optimal is the enumerator's optimum in the maximisation
        # convention.
        rng = np.random.default_rng(107)
        for k in range(60):
            if k % 2:
                ps = random_scheduling_problem(rng)
                true_best = -enumerate_schedule(ps.true_values, ps.constraint)[0]
            else:
                ps = random_knapsack_problem(rng)
                true_best, _ = enumerate_knapsack(
                    ps.true_values, ps.constraint.weights, ps.constraint.capacity
                )
            model = dnl.LinearModel(rng.normal(0.0, 2.0, size=3), rng.normal())
            value = dnl.regret_of(model, ps, oracle)
            assert value.regret >= 0.0
            assert value.true_optimal == pytest.approx(true_best, abs=1e-9)
            gap = value.true_optimal - value.achieved
            assert value.regret == (0.0 if gap <= OBJECTIVE_TOL else gap)

    def test_cache_halves_oracle_calls(self, oracle):
        ps = example1_problem()
        cache = dnl.TrueOptimumCache()
        dnl.regret_of(example1_model(1.0), ps, oracle, cache)
        calls_after_first = oracle.calls
        assert calls_after_first == 2
        dnl.regret_of(example1_model(3.0), ps, oracle, cache)
        assert oracle.calls == calls_after_first + 1

    def test_cache_separates_problem_sets_sharing_an_id(self, oracle):
        ps = example1_problem()
        other = dnl.ProblemSet([5.0, 1.0, 1.0], ps.features, ps.constraint, ps.id)
        cache = dnl.TrueOptimumCache()
        assert cache.true_optimal(ps, oracle) == pytest.approx(5.0)
        assert cache.true_optimal(other, oracle) == pytest.approx(6.0)
        assert cache.true_optimal(ps, oracle) == pytest.approx(5.0)
        assert len(cache) == 2
        assert oracle.calls == 2

    def test_cache_keeps_equal_valued_sets_apart(self, oracle):
        ps = example1_problem()
        twin = dnl.ProblemSet(ps.true_values, ps.features, ps.constraint, ps.id)
        cache = dnl.TrueOptimumCache()
        assert cache.true_optimal(ps, oracle) == cache.true_optimal(twin, oracle)
        assert len(cache) == 2
        assert oracle.calls == 2
        cache.true_optimal(twin, oracle)
        assert oracle.calls == 2

    def test_true_optimum_is_the_signed_objective_of_the_true_solve(self):
        # The cache scores the true-coefficient solve's decision under the
        # true coefficients: the solver's own objective, bit for bit, on each
        # maker's unit, weighted and scheduling days.
        series = dnl.synthesize(6, 3, 0.5, seed=29, group_size=12)
        corpora = {
            "unit": dnl.make_knapsack(series, False, 5.0, seed=1),
            "weighted": dnl.make_knapsack(series, True, 20.0, seed=1),
            "scheduling": dnl.make_scheduling(series, 2, 4, seed=1),
        }
        for name, sets in corpora.items():
            oracle = dnl.SolverOracle()
            for ps in sets:
                c = ps.constraint
                want = _sign(c) * oracle.solve(ps.true_values, c).objective
                assert dnl.TrueOptimumCache().true_optimal(ps, oracle).hex() == want.hex(), name

    def test_cache_is_exact_across_threads(self):
        # Four threads read the true optima of shared sets through one cache
        # and one oracle, racing on the first solve of each set and on the
        # memos of its load: every value is the single-threaded one, bit for
        # bit, and each set keeps one entry.
        def corpus():
            series = dnl.synthesize(6, 3, 0.5, seed=29, group_size=12)
            return [
                *dnl.make_knapsack(series, False, 5.0, seed=1),
                *dnl.make_knapsack(series, True, 20.0, seed=1),
                *dnl.make_scheduling(series, 2, 4, seed=1),
            ]

        reference = dnl.TrueOptimumCache()
        want = [reference.true_optimal(ps, dnl.SolverOracle()).hex() for ps in corpus()]
        sets, cache, oracle = corpus(), dnl.TrueOptimumCache(), dnl.SolverOracle()
        results = [[] for _ in range(4)]

        def work(out):
            for _ in range(20):
                out.append([cache.true_optimal(ps, oracle).hex() for ps in sets])

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
            assert out == [want] * 20
        assert len(cache) == len(sets)

    def test_negative_regret_means_an_inexact_oracle(self):
        ps = example1_problem()
        with pytest.raises(dnl.InexactOracleError, match="not exact"):
            _clamped_regret(5.0, 5.5, ps)
        assert _clamped_regret(5.0, 5.0 + 1e-12, ps) == 0.0


class TestPovTov:
    def test_example1_pov_values(self, oracle):
        ps = example1_problem()
        model = example1_model(0.0)
        assert dnl.pov(model, ps, 0, -2.0, oracle) == pytest.approx(6.0)
        assert dnl.pov(model, ps, 0, 1.0, oracle) == pytest.approx(4.0)
        assert dnl.pov(model, ps, 0, 3.0, oracle) == pytest.approx(5.0)

    def test_all_nonpositive_predictions_give_zero_pov(self, oracle):
        ps = dnl.ProblemSet(
            [1.0, 1.0],
            [[1.0], [2.0]],
            dnl.Knapsack([1.0, 1.0], 1.0),
            "nonpos",
        )
        assert dnl.pov(dnl.LinearModel([0.0], 0.0), ps, 0, -5.0, oracle) == 0.0

    def test_example1_tov_values(self, oracle):
        ps = example1_problem()
        model = example1_model(0.0)
        assert dnl.tov(model, ps, 0, 1.0, oracle) == pytest.approx(5.0)
        assert dnl.tov(model, ps, 0, 3.0, oracle) == pytest.approx(4.0)
        assert dnl.tov(model, ps, 0, -2.0, oracle) == pytest.approx(3.0)

    def test_perfect_model_tov_equals_true_optimal(self, oracle):
        exact = dnl.ProblemSet(
            [2.0, 1.0, 3.0],
            [[2.0], [1.0], [3.0]],
            dnl.Knapsack([1.0, 1.0, 1.0], 2.0),
            "identity2",
        )
        model = dnl.LinearModel([1.0], 0.0)
        assert dnl.tov(model, exact, 0, 1.0, oracle) == pytest.approx(5.0)

    def test_pov_dominates_tov_of_any_probe(self, oracle):
        # POV is the optimum under the predictions, so scoring any returned
        # solution under those same predictions can never beat it.
        rng = np.random.default_rng(107)
        for _ in range(20):
            ps = random_knapsack_problem(rng)
            model = dnl.LinearModel(rng.normal(size=3), 0.0)
            b = float(rng.uniform(-2, 2))
            value = dnl.pov(model, ps, 0, b, oracle)
            probe = model.with_coefficient(0, b)
            preds = dnl.predict(probe, ps)
            res = oracle.solve(preds, ps.constraint)
            assert value >= dnl.solution_objective(res.solution, preds) - 1e-9

    def test_pov_is_convex_along_a_coordinate(self, oracle):
        rng = np.random.default_rng(109)
        for _ in range(25):
            ps = random_knapsack_problem(rng)
            model = dnl.LinearModel(rng.normal(size=3), 0.0)
            k = int(rng.integers(0, 3))
            b1, b2 = sorted(rng.uniform(-3, 3, size=2))
            alpha = float(rng.uniform(0.1, 0.9))
            mid = alpha * b1 + (1 - alpha) * b2
            lhs = dnl.pov(model, ps, k, mid, oracle)
            rhs = alpha * dnl.pov(model, ps, k, b1, oracle) + (1 - alpha) * dnl.pov(
                model, ps, k, b2, oracle
            )
            assert lhs <= rhs + 1e-7

    def test_pov_is_piecewise_linear(self, oracle):
        # Inside a span with a fixed argmax, three samples are collinear.
        ps = example1_problem()
        model = example1_model(0.0)
        xs = (0.2, 1.0, 1.8)
        (x1, x2, x3) = xs
        y1, y2, y3 = [dnl.pov(model, ps, 0, x, oracle) for x in xs]
        assert (y2 - y1) * (x3 - x2) == pytest.approx((y3 - y2) * (x2 - x1), abs=1e-12)


class RecordingOracle(dnl.SolverOracle):
    """Records the bytes of every coefficient vector it is asked to solve."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def solve(self, values, constraint):
        self.seen.append(np.asarray(values).tobytes())
        return super().solve(values, constraint)


class TestProbeRoute:
    @pytest.mark.parametrize(
        "make", [random_knapsack_problem, random_scheduling_problem],
        ids=["knapsack", "scheduling"],
    )
    def test_same_operands_as_a_probe_model(self, make):
        rng = np.random.default_rng(127)
        oracle = RecordingOracle()
        for i in range(6):
            ps = make(rng, ps_id=f"route{i}")
            model = dnl.LinearModel(rng.normal(size=3), float(rng.normal()))
            for k in range(3):
                spec = dnl.SearchSpec.from_parameter(float(model.coefficients[k]))
                solve_at = _prober(model, ps, k, oracle)
                for beta in (0.0, spec.lower, spec.upper, float(rng.uniform(-2, 2))):
                    result = solve_at(beta)
                    expected = dnl.predict(model.with_coefficient(k, beta), ps)
                    assert oracle.seen[-1] == expected.tobytes()
                    solved = oracle.solve(expected, ps.constraint)
                    assert result.solution.assignment == solved.solution.assignment
                    assert result.objective == solved.objective

    def test_no_model_built_per_probe(self, oracle, monkeypatch):
        rng = np.random.default_rng(131)
        ps = random_knapsack_problem(rng, ps_id="builds")
        model = dnl.LinearModel(rng.normal(size=3), 0.0)
        current = float(model.coefficients[0])
        spec = dnl.SearchSpec.from_parameter(current)
        truncated = dnl.extract_greedy(
            example1_model(3.0), example1_problem(), 0, dnl.SearchSpec(-5.0, 5.0), oracle
        )
        assert truncated.truncated
        scorer = _regret_scorer(
            [truncated], [example1_problem()], example1_model(3.0), 0, oracle, None
        )
        builds = []
        post_init = dnl.LinearModel.__post_init__

        def counting(self):
            builds.append(1)
            post_init(self)

        monkeypatch.setattr(dnl.LinearModel, "__post_init__", counting)
        before = oracle.calls
        dnl.extract_full(model, ps, 0, spec, oracle)
        dnl.extract_greedy(model, ps, 0, spec, oracle)
        dnl.pov(model, ps, 1, 0.5, oracle)
        dnl.tov(model, ps, 2, -0.5, oracle)
        assert scorer(0, np.array([1.0])).tolist() == [0.0]
        assert oracle.calls - before > 6
        assert builds == []

    def test_invalid_probes_raise(self, oracle):
        ps = example1_problem()
        model = example1_model(1.0)
        solve_at = _prober(model, ps, 0, oracle)
        for beta in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite"):
                solve_at(beta)
            with pytest.raises(ValueError, match="finite"):
                dnl.pov(model, ps, 0, beta, oracle)
        with pytest.raises(ValueError, match="parameters but problem features"):
            _prober(dnl.LinearModel([1.0, 2.0, 3.0], 0.0), ps, 0, oracle)
        assert oracle.calls == 0

    def test_one_call_per_probe(self, oracle):
        # A model without a memo solves at its own value too.
        rng = np.random.default_rng(137)
        ps = random_knapsack_problem(rng, ps_id="calls")
        model = dnl.LinearModel(rng.normal(size=3), 0.0)
        own = float(model.coefficients[1])
        solve_at = _prober(model, ps, 1, oracle)
        for beta in (own, own + 0.5, -1.0, own, -1.0):
            before = oracle.calls
            solve_at(beta)
            assert oracle.calls == before + 1

    def test_own_value_answered_from_the_memo(self, oracle):
        rng = np.random.default_rng(139)
        ps = random_knapsack_problem(rng, ps_id="memo")
        model = _memoised(dnl.LinearModel(np.array([rng.normal(), 0.0, rng.normal()]), 0.0))
        solve_at = _prober(model, ps, 0, oracle)
        own = solve_at(float(model.coefficients[0]))  # solved once, then stored
        assert oracle.calls == 1
        assert solve_at(float(model.coefficients[0])) is own
        assert _prober(model, ps, 1, oracle)(0.0) is own
        assert dnl.pov(model, ps, 2, float(model.coefficients[2]), oracle) == own.objective
        assert oracle.calls == 1
        # Away from it, -0.0 against a coefficient of 0.0 included: one call each.
        _prober(model, ps, 1, oracle)(-0.0)
        solve_at(float(model.coefficients[0]) + 0.25)
        assert oracle.calls == 3

    @pytest.mark.parametrize(
        "make", [random_knapsack_problem, random_scheduling_problem],
        ids=["knapsack", "scheduling"],
    )
    def test_pov_tov_and_fallback_match_a_probe_model(self, oracle, make):
        # Each equals, bit for bit, what the model with the probed value set
        # gets from the oracle; the selectors' fallback solves through the
        # prober on profiles without values.
        rng = np.random.default_rng(149)
        bits = lambda value: np.float64(value).tobytes()
        for i in range(5):
            ps = make(rng, ps_id=f"same{i}")
            model = dnl.LinearModel(rng.normal(size=3), float(rng.normal()))
            cache = dnl.TrueOptimumCache()
            for k in range(3):
                spec = dnl.SearchSpec.from_parameter(float(model.coefficients[k]))
                betas = [spec.lower, float(model.coefficients[k]), float(rng.uniform(-2, 2))]
                blind = dnl.TransitionProfile((), 0, spec.lower, spec.upper, truncated=True)
                fallback = _regret_scorer([blind], [ps], model, k, oracle, cache)(0, np.array(betas))
                for beta, regret in zip(betas, fallback.tolist()):
                    probe = model.with_coefficient(k, beta)
                    answer = oracle.solve(dnl.predict(probe, ps), ps.constraint)
                    sign = 1.0 if isinstance(ps.constraint, dnl.Knapsack) else -1.0
                    assert bits(dnl.pov(model, ps, k, beta, oracle)) == bits(sign * answer.objective)
                    true_value = sign * solution_objective(answer.solution, ps.true_values)
                    assert bits(dnl.tov(model, ps, k, beta, oracle)) == bits(true_value)
                    assert bits(regret) == bits(dnl.regret_of(probe, ps, oracle, cache).regret)


class TestEvaluateModelRegret:
    def test_perfect_model_summary(self, oracle):
        sets = [
            dnl.ProblemSet(
                [2.0, 1.0], [[2.0], [1.0]], dnl.Knapsack([1.0, 1.0], 1.0), f"p{i}"
            )
            for i in range(3)
        ]
        mean, std = dnl.evaluate_model_regret(dnl.LinearModel([1.0], 0.0), sets, oracle)
        assert mean == 0.0 and std == 0.0

    def test_no_problem_set_rejected(self, oracle):
        with pytest.raises(ValueError, match="at least one problem set required"):
            dnl.evaluate_model_regret(example1_model(1.0), [], oracle)
        assert oracle.calls == 0

    def test_single_problem_set_has_zero_std(self, oracle):
        ps = example1_problem()
        _, std = dnl.evaluate_model_regret(example1_model(3.0), [ps], oracle)
        assert std == 0.0

    def test_overflowing_prediction_raises(self, oracle):
        # Every prediction overflows to inf; scoring must not rank the infs.
        features = [[1e308, 1.0], [1e308, 2.0], [1e308, 3.0], [1e308, 4.0]]
        ps = dnl.ProblemSet([1.0, 2.0, 3.0, 4.0], features, dnl.Knapsack([1, 1, 1, 1], 2), "big")
        with pytest.raises(FloatingPointError):
            dnl.evaluate_model_regret(dnl.LinearModel([10.0, 1.0]), [ps], oracle)

    def test_matches_manual_computation(self):
        # Epoch scoring is `regret_of` per set, summarised by `_mean_std`: the
        # same bits and the same oracle calls, with and without a shared cache,
        # on random knapsack sets and on each maker's unit, weighted and
        # scheduling days.
        rng = np.random.default_rng(113)
        series = dnl.synthesize(6, 3, 0.5, seed=113, group_size=12)
        corpora = {
            "random": [random_knapsack_problem(rng, ps_id=f"m{i}") for i in range(3)],
            "unit": dnl.make_knapsack(series, False, 5.0, seed=1),
            "weighted": dnl.make_knapsack(series, True, 20.0, seed=1),
            "scheduling": dnl.make_scheduling(series, 2, 4, seed=1),
        }
        for name, sets in corpora.items():
            model = dnl.LinearModel(rng.normal(size=sets[0].feature_dim), float(rng.normal()))
            for shared in (False, True):
                manual = dnl.SolverOracle()
                cache = dnl.TrueOptimumCache() if shared else None
                regrets = [dnl.regret_of(model, ps, manual, cache).regret for ps in sets]
                scored = dnl.SolverOracle()
                cache = dnl.TrueOptimumCache() if shared else None
                mean, std = dnl.evaluate_model_regret(model, sets, scored, cache)
                want_mean, want_std = _mean_std(regrets)
                assert (mean.hex(), std.hex()) == (want_mean.hex(), want_std.hex()), name
                assert scored.calls == manual.calls == 2 * len(sets), name
            assert any(r > 0.0 for r in regrets), name

    @pytest.mark.parametrize("count", [1, 2, 24, 157])
    def test_mean_std_has_numpys_bits(self, count):
        # One array conversion gives the bits of `np.mean` and
        # `np.std(ddof=1)` on the list, signed zeros included.
        rng = np.random.default_rng(count)
        for _ in range(50):
            values = rng.normal(size=count).tolist()
            values[0] = float(rng.choice([0.0, -0.0, values[0]]))
            mean, std = _mean_std(values)
            want_std = float(np.std(values, ddof=1)) if count > 1 else 0.0
            assert (mean.hex(), std.hex()) == (float(np.mean(values)).hex(), want_std.hex())

    def test_set_listed_twice_without_cache_solves_its_optimum_twice(self, oracle):
        # Without a cache each set gets a fresh one, so a repeated set solves
        # its true optimum again: two calls per listed set.
        rng = np.random.default_rng(5)
        ps = random_knapsack_problem(rng)
        model = dnl.LinearModel(rng.normal(size=3), 0.0)
        mean, std = dnl.evaluate_model_regret(model, [ps, ps], oracle)
        assert oracle.calls == 4
        regret = dnl.regret_of(model, ps, dnl.SolverOracle()).regret
        assert (mean.hex(), std.hex()) == (regret.hex(), (0.0).hex())
