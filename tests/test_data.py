import numpy as np
import pytest

import dnl


def write_csv(path, rows, header="timestamp,f0,f1,price"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def make_rows(n, broken_line=None):
    rows = []
    for i in range(n):
        price = "oops" if broken_line == i + 2 else f"{1.0 + 0.01 * i:.4f}"
        rows.append(f"t{i},{0.1 * i:.3f},{0.2 * i:.3f},{price}")
    return rows


class TestLoadCsv:
    def test_96_rows_two_groups(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(path, make_rows(96))
        series = dnl.load_csv(path, ["f0", "f1"], "price", "timestamp", group_size=48)
        assert series.num_groups == 2
        assert series.feature_dim == 2

    def test_partial_group_dropped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "series.csv"
        write_csv(path, make_rows(100))
        series = dnl.load_csv(path, ["f0", "f1"], "price", group_size=48)
        with caplog.at_level("WARNING", logger="dnl.data"):
            groups = list(series.groups())
        assert len(groups) == 2
        assert "dropping 4 trailing rows" in caplog.text

    def test_non_numeric_price_names_line(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(path, make_rows(10, broken_line=7))
        with pytest.raises(ValueError, match="line 7"):
            dnl.load_csv(path, ["f0", "f1"], "price")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(path, ["t0,1.0,2.0"], header="timestamp,f0,f1")
        with pytest.raises(ValueError, match="price"):
            dnl.load_csv(path, ["f0", "f1"], "price")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            dnl.load_csv(path, ["f0"], "price")

    def test_roundtrip_through_writer(self, tmp_path):
        series = dnl.synthesize(2, 3, 0.1, seed=5, group_size=8)
        path = tmp_path / "series.csv"
        dnl.write_series_csv(series, path)
        loaded = dnl.load_csv(
            path, ["f0", "f1", "f2"], "price", "timestamp", group_size=8
        )
        assert loaded.num_rows == series.num_rows
        assert np.allclose(loaded.prices, series.prices, atol=1e-10)


class TestSynthesize:
    def test_seeded_determinism(self):
        a = dnl.synthesize(3, 4, 0.5, seed=11)
        b = dnl.synthesize(3, 4, 0.5, seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.prices, b.prices)

    def test_noise_free_is_exactly_linear(self):
        series = dnl.synthesize(2, 3, 0.0, seed=13, group_size=12)
        expected = series.features @ series.hidden_model.coefficients
        expected = expected + series.hidden_model.intercept
        assert np.allclose(series.prices, expected)

    def test_noise_free_ridge_recovers_hidden_map(self):
        series = dnl.synthesize(4, 3, 0.0, seed=17, group_size=12)
        dataset = dnl.make_knapsack(series, weighted=False, capacity=5.0)
        model = dnl.fit_ridge(dataset.problem_sets, l2_penalty=0.0)
        assert np.max(np.abs(model.coefficients - series.hidden_model.coefficients)) < 1e-6

    def test_residual_std_tracks_noise_sigma(self):
        series = dnl.synthesize(500, 3, 1.0, seed=19)
        dataset = dnl.make_knapsack(series, weighted=False, capacity=5.0)
        model = dnl.fit_ridge(dataset.problem_sets, l2_penalty=0.0)
        preds = np.concatenate(
            [dnl.predict(model, ps) for ps in dataset.problem_sets]
        )
        targets = np.concatenate([ps.true_values for ps in dataset.problem_sets])
        resid_std = float(np.std(targets - preds))
        assert abs(resid_std - 1.0) < 0.1

    def test_zero_days_rejected(self):
        with pytest.raises(ValueError):
            dnl.synthesize(0, 3, 0.5, seed=0)


class TestMakeKnapsack:
    def test_unit_mode(self):
        series = dnl.synthesize(2, 3, 0.0, seed=23, group_size=10)
        dataset = dnl.make_knapsack(series, weighted=False, capacity=4.0)
        assert len(dataset) == 2
        ps = dataset.problem_sets[0]
        assert np.all(ps.constraint.weights == 1.0)
        assert np.allclose(ps.true_values, series.prices[:10])
        assert ps.feature_dim == 3

    def test_weighted_mode_values_and_feature(self):
        series = dnl.synthesize(3, 3, 0.2, seed=29, group_size=10)
        dataset = dnl.make_knapsack(series, weighted=True, capacity=15.0, seed=31)
        for g, ps in enumerate(dataset.problem_sets):
            weights = ps.constraint.weights
            prices = series.prices[g * 10 : (g + 1) * 10]
            assert set(np.unique(weights)) <= {3.0, 5.0, 7.0}
            assert np.array_equal(ps.true_values, weights * prices)
            assert np.array_equal(ps.features[:, -1], weights)
            assert ps.feature_dim == 4
            # profitability is exactly the price for every item
            assert np.allclose(ps.true_values / weights, prices)

    def test_weighted_mode_deterministic(self):
        series = dnl.synthesize(2, 2, 0.0, seed=37, group_size=6)
        a = dnl.make_knapsack(series, True, 9.0, seed=41)
        b = dnl.make_knapsack(series, True, 9.0, seed=41)
        for x, y in zip(a.problem_sets, b.problem_sets):
            assert np.array_equal(x.constraint.weights, y.constraint.weights)

    def test_nonpositive_capacity_rejected(self):
        series = dnl.synthesize(1, 2, 0.0, seed=43, group_size=6)
        with pytest.raises(ValueError):
            dnl.make_knapsack(series, False, 0.0)


class TestMakeScheduling:
    def test_shared_feasible_constraint(self):
        series = dnl.synthesize(3, 2, 0.1, seed=47, group_size=12)
        dataset = dnl.make_scheduling(series, num_machines=2, num_jobs=3, seed=53)
        assert len(dataset) == 3
        first = dataset.problem_sets[0].constraint
        for ps in dataset.problem_sets:
            assert ps.constraint is first
        res = dnl.solve_scheduling(dataset.problem_sets[0].true_values, first)
        dnl.validate_solution(res.solution, first)

    def test_deterministic(self):
        series = dnl.synthesize(2, 2, 0.1, seed=59, group_size=12)
        a = dnl.make_scheduling(series, 2, 3, seed=61)
        b = dnl.make_scheduling(series, 2, 3, seed=61)
        assert a.problem_sets[0].constraint == b.problem_sets[0].constraint


class TestSplit:
    def problem_sets(self, n):
        return [
            dnl.ProblemSet([float(i)], [[1.0]], dnl.Knapsack([1.0], 1.0), f"ps{i}")
            for i in range(n)
        ]

    def test_single_fold_counts(self):
        folds = dnl.split(self.problem_sets(10), dnl.SplitSpec(folds=1))
        fold = folds[0]
        assert (len(fold.train), len(fold.val), len(fold.test)) == (7, 1, 2)
        assert [ps.id for ps in fold.train] == [f"ps{i}" for i in range(7)]

    def test_paper_scale_counts(self):
        folds = dnl.split(self.problem_sets(789), dnl.SplitSpec(folds=5))
        for fold in folds:
            assert abs(len(fold.train) - 552) <= 1
            assert abs(len(fold.val) - 79) <= 1
            assert abs(len(fold.test) - 157) <= 1
            assert len(fold.train) + len(fold.val) + len(fold.test) == 789

    def test_five_folds_partition_test_sets(self):
        sets = self.problem_sets(53)
        folds = dnl.split(sets, dnl.SplitSpec(folds=5))
        seen = [ps.id for fold in folds for ps in fold.test]
        assert sorted(seen) == sorted(ps.id for ps in sets)

    def test_no_overlap_within_fold(self):
        folds = dnl.split(self.problem_sets(20), dnl.SplitSpec(folds=4))
        for fold in folds:
            ids = [ps.id for part in (fold.train, fold.val, fold.test) for ps in part]
            assert len(ids) == len(set(ids)) == 20

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            dnl.SplitSpec(train_frac=0.5, val_frac=0.1, test_frac=0.2)
        with pytest.raises(ValueError):
            dnl.SplitSpec(train_frac=-0.3, val_frac=0.1, test_frac=1.2)

    def test_more_folds_than_problem_sets_rejected(self):
        # Every fold would need a nonempty test block.
        assert len(dnl.split(self.problem_sets(5), dnl.SplitSpec(folds=5))) == 5
        with pytest.raises(ValueError, match="6 folds"):
            dnl.split(self.problem_sets(5), dnl.SplitSpec(folds=6))

