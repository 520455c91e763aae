import warnings

import numpy as np
import pytest

import dnl


def linear_problem_sets(rng, num_sets=4, rows=6, p=3, noise=0.0, hidden=None, intercept=2.0):
    if hidden is None:
        hidden = rng.uniform(-2, 2, size=p)
    sets = []
    for i in range(num_sets):
        feats = rng.uniform(-1, 1, size=(rows, p))
        vals = feats @ hidden + intercept + noise * rng.normal(size=rows)
        sets.append(
            dnl.ProblemSet(vals, feats, dnl.Knapsack(np.ones(rows), rows // 2), f"r{i}")
        )
    return sets, hidden, intercept


def test_exact_recovery_at_zero_penalty():
    rng = np.random.default_rng(401)
    sets, hidden, intercept = linear_problem_sets(rng)
    model = dnl.fit_ridge(sets, l2_penalty=0.0)
    assert np.max(np.abs(model.coefficients - hidden)) < 1e-6
    assert abs(model.intercept - intercept) < 1e-6


def test_huge_penalty_shrinks_to_target_mean():
    rng = np.random.default_rng(403)
    sets, _, _ = linear_problem_sets(rng)
    model = dnl.fit_ridge(sets, l2_penalty=1e12)
    targets = np.concatenate([ps.true_values for ps in sets])
    assert np.max(np.abs(model.coefficients)) < 1e-6
    assert model.intercept == pytest.approx(float(np.mean(targets)), abs=1e-6)


def test_matches_hand_rolled_normal_equations():
    # 5 rows, 3 features, penalty 0.1, intercept unpenalized.
    rng = np.random.default_rng(405)
    X = rng.normal(size=(5, 3))
    y = rng.normal(size=5)
    ps = dnl.ProblemSet(y, X, dnl.Knapsack(np.ones(5), 2.0), "hand")
    model = dnl.fit_ridge([ps], l2_penalty=0.1)

    A = np.hstack([X, np.ones((5, 1))])
    G = A.T @ A + np.diag([0.1, 0.1, 0.1, 0.0])
    expected = np.linalg.inv(G) @ A.T @ y
    assert np.max(np.abs(model.coefficients - expected[:3])) < 1e-8
    assert abs(model.intercept - expected[3]) < 1e-8


def test_solution_is_a_local_optimum_of_the_ridge_objective():
    rng = np.random.default_rng(407)
    sets, _, _ = linear_problem_sets(rng, noise=0.3)
    penalty = 0.5
    model = dnl.fit_ridge(sets, l2_penalty=penalty)
    X = np.vstack([ps.features for ps in sets])
    y = np.concatenate([ps.true_values for ps in sets])

    def objective(beta, c):
        resid = y - X @ beta - c
        return float(resid @ resid + penalty * beta @ beta)

    base = objective(model.coefficients, model.intercept)
    for _ in range(1000):
        noise_beta = rng.normal(scale=1e-3, size=3)
        noise_c = float(rng.normal(scale=1e-3))
        assert objective(model.coefficients + noise_beta, model.intercept + noise_c) >= base


def test_deterministic():
    rng = np.random.default_rng(409)
    sets, _, _ = linear_problem_sets(rng, noise=0.2)
    a = dnl.fit_ridge(sets, l2_penalty=0.01)
    b = dnl.fit_ridge(sets, l2_penalty=0.01)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.intercept == b.intercept


def test_too_few_rows_rejected():
    ps = dnl.ProblemSet(
        [1.0, 2.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dnl.Knapsack([1, 1], 1.0), "tiny"
    )
    with pytest.raises(ValueError):
        dnl.fit_ridge([ps])


def test_no_problem_set_rejected():
    with pytest.raises(ValueError, match="at least one problem set required"):
        dnl.fit_ridge([])


def test_negative_penalty_rejected():
    sets, _, _ = linear_problem_sets(np.random.default_rng(409))
    with pytest.raises(ValueError):
        dnl.fit_ridge(sets, l2_penalty=-1.0)


def test_select_ridge_prefers_lower_validation_regret():
    rng = np.random.default_rng(413)
    sets, _, _ = linear_problem_sets(rng, num_sets=6, noise=0.4)
    oracle = dnl.SolverOracle()
    model, penalty = dnl.select_ridge(sets[:4], sets[4:], oracle)
    assert penalty in dnl.ridge.DEFAULT_PENALTY_GRID
    chosen, _ = dnl.evaluate_model_regret(model, sets[4:], oracle)
    for lam in dnl.ridge.DEFAULT_PENALTY_GRID:
        other = dnl.fit_ridge(sets[:4], l2_penalty=lam)
        other_regret, _ = dnl.evaluate_model_regret(other, sets[4:], oracle)
        assert chosen <= other_regret + 1e-9


def test_nan_penalty_rejected():
    sets, _, _ = linear_problem_sets(np.random.default_rng(409))
    with pytest.raises(ValueError, match="l2_penalty must not be NaN"):
        dnl.fit_ridge(sets, l2_penalty=float("nan"))


def select_by_fit_and_evaluate(train_sets, val_sets, oracle):
    """`select_ridge`'s rule through the scalar path: each penalty fitted by
    `fit_ridge` and scored by `evaluate_model_regret`."""
    best_model, best_penalty, best_regret = None, None, np.inf
    for penalty in sorted(dnl.ridge.DEFAULT_PENALTY_GRID):
        model = dnl.fit_ridge(train_sets, penalty)
        regret, _ = dnl.evaluate_model_regret(model, val_sets, oracle)
        if regret < best_regret - 1e-12:
            best_model, best_penalty, best_regret = model, penalty, regret
    return best_model, best_penalty


def synthetic_fold(problem, seed):
    """One fold of 40 synthetic days of 12 rows: unit days share one
    knapsack, weighted days each have their own, scheduling days share one
    machine load."""
    series = dnl.synthesize(40, 3, 0.5, seed, group_size=12)
    if problem == "scheduling":
        sets = dnl.make_scheduling(series, 2, 3, seed=1)
    else:
        weighted = problem == "weighted"
        sets = dnl.make_knapsack(series, weighted, 20.0 if weighted else 4.0, seed=seed + 1)
    return dnl.split(sets, dnl.SplitSpec(folds=1, train_frac=0.2, val_frac=0.4, test_frac=0.4))[0]


class RowRecordingOracle(dnl.SolverOracle):
    def __init__(self):
        super().__init__()
        self.row_calls = []

    def solve_rows(self, values, constraint):
        self.row_calls.append((np.array(values), constraint))
        return super().solve_rows(values, constraint)


@pytest.mark.parametrize("problem", ["unit", "weighted", "scheduling"])
def test_select_ridge_matches_fit_and_evaluate(problem):
    # Solving every penalty's predictions on a load as rows of one call
    # selects what a fit and a scalar evaluation per penalty select, bit for
    # bit; each load's rows are `predict`'s vectors, penalty-major, then the
    # true values of its days, whose optima a fresh cache lacks.
    chosen = set()
    penalties = sorted(dnl.ridge.DEFAULT_PENALTY_GRID)
    for seed in range(8):
        fold = synthetic_fold(problem, seed)
        loads = list({id(ps.constraint): ps.constraint for ps in fold.val}.values())
        assert len(loads) == (len(fold.val) if problem == "weighted" else 1)
        oracle = RowRecordingOracle()
        model, penalty = dnl.select_ridge(fold.train, fold.val, oracle)
        assert [constraint for _, constraint in oracle.row_calls] == loads
        for rows, constraint in oracle.row_calls:
            days = [ps for ps in fold.val if ps.constraint is constraint]
            expected_rows = [
                dnl.predict(dnl.fit_ridge(fold.train, lam), ps) for lam in penalties for ps in days
            ] + [ps.true_values for ps in days]
            assert rows.tobytes() == np.stack(expected_rows).tobytes()
        expected, expected_penalty = select_by_fit_and_evaluate(
            fold.train, fold.val, dnl.SolverOracle()
        )
        assert model.coefficients.tobytes() == expected.coefficients.tobytes()
        assert model.intercept.hex() == expected.intercept.hex()
        assert penalty == expected_penalty
        chosen.add(penalty)
    assert len(chosen) > 1


@pytest.mark.parametrize("problem", ["unit", "weighted", "scheduling"])
def test_select_ridge_counts_a_call_per_penalty_and_day(problem):
    # Five penalties per validation day, and one true optimum per day on a
    # fresh cache; a warm cache solves no true optimum again.
    fold = synthetic_fold(problem, 0)
    oracle, cache = dnl.SolverOracle(), dnl.TrueOptimumCache()
    dnl.select_ridge(fold.train, fold.val, oracle, cache)
    assert oracle.calls == 6 * len(fold.val)
    dnl.select_ridge(fold.train, fold.val, oracle, cache)
    assert oracle.calls == 11 * len(fold.val)


@pytest.mark.parametrize("problem", ["unit", "weighted", "scheduling"])
def test_select_ridge_solves_only_uncached_optima(problem):
    # On a partly warm cache, each load's block ends in one true-value row
    # per day whose optimum the cache lacks, in validation order; the cached
    # optima are left as they were.
    fold = synthetic_fold(problem, 0)
    cache = dnl.TrueOptimumCache()
    warm = fold.val[::2]
    cached = [cache.true_optimal(ps, dnl.SolverOracle()).hex() for ps in warm]
    oracle = RowRecordingOracle()
    dnl.select_ridge(fold.train, fold.val, oracle, cache)
    empty = dnl.SolverOracle()
    assert [cache.true_optimal(ps, empty).hex() for ps in warm] == cached
    assert empty.calls == 0 and len(cache) == len(fold.val)
    predicted = len(dnl.ridge.DEFAULT_PENALTY_GRID)
    for rows, constraint in oracle.row_calls:
        days = [ps for ps in fold.val if ps.constraint is constraint]
        uncached = [ps.true_values for ps in days if not any(ps is w for w in warm)]
        assert len(rows) == predicted * len(days) + len(uncached)
        assert rows[predicted * len(days):].tobytes() == np.array(uncached).tobytes()
    assert oracle.calls == predicted * len(fold.val) + len(fold.val) - len(warm)


@pytest.mark.parametrize("problem", ["unit", "weighted", "scheduling"])
def test_select_ridge_caches_each_true_optimum_as_solve_gives_it(problem):
    # The optima solved as rows are the ones a scalar solve caches, bit for bit.
    fold = synthetic_fold(problem, 0)
    cache = dnl.TrueOptimumCache()
    dnl.select_ridge(fold.train, fold.val, dnl.SolverOracle(), cache)
    empty = dnl.SolverOracle()
    for ps in fold.val:
        expected = dnl.TrueOptimumCache().true_optimal(ps, dnl.SolverOracle())
        assert cache.true_optimal(ps, empty).hex() == expected.hex()
    assert empty.calls == 0


def overflowing_set():
    """A day whose first feature is 1e308: its normal equations overflow
    (A.T @ A holds 6e616), and so does a prediction with a coefficient of 2."""
    return dnl.ProblemSet(
        np.ones(6), [[1e308, 1.0, 1.0]] * 6, dnl.Knapsack(np.ones(6), 3.0), "big"
    )


def test_select_ridge_overflowing_predictions_raise():
    rng = np.random.default_rng(415)
    train, _, _ = linear_problem_sets(rng, hidden=np.array([2.0, 1.0, 1.0]))
    with pytest.raises(FloatingPointError):
        dnl.select_ridge(train, [overflowing_set()], dnl.SolverOracle())


def test_zero_penalty_fit_forms_no_normal_equations():
    # Least squares on the design matrix never reads A.T @ A, so its
    # overflow neither warns nor raises here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = dnl.fit_ridge([overflowing_set()], 0.0)
    assert np.isfinite(model.coefficients).all()


def test_overflowing_normal_equations_raise():
    with pytest.raises(FloatingPointError, match="overflow"):
        dnl.fit_ridge([overflowing_set()], 1.0)
    sets, _, _ = linear_problem_sets(np.random.default_rng(419))
    oracle = dnl.SolverOracle()
    with pytest.raises(FloatingPointError, match="overflow"):
        dnl.select_ridge([*sets[:3], overflowing_set()], sets[3:], oracle)
    assert oracle.calls == 0


def test_select_ridge_needs_a_validation_day():
    sets, _, _ = linear_problem_sets(np.random.default_rng(417))
    oracle = dnl.SolverOracle()
    with pytest.raises(ValueError, match="at least one problem set required"):
        dnl.select_ridge(sets, [], oracle)
    assert oracle.calls == 0
