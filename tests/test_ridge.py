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
