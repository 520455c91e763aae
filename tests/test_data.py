import numpy as np
import pytest

import dnl
from dnl.cli import main


def write_csv(path, rows, header="timestamp,f0,f1,price"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def make_rows(n, broken_line=None, bad="oops", column=3):
    """n rows of timestamp,f0,f1,price; `bad` replaces cell `column` on file
    line `broken_line`."""
    rows = []
    for i in range(n):
        cells = [f"t{i}", f"{0.1 * i:.3f}", f"{0.2 * i:.3f}", f"{1.0 + 0.01 * i:.4f}"]
        if broken_line == i + 2:
            cells[column] = bad
        rows.append(",".join(cells))
    return rows


class TestLoadCsv:
    def test_96_rows_two_groups(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(path, make_rows(96))
        series = dnl.load_csv(path, ["f0", "f1"], "price", group_size=48)
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
        loaded = dnl.load_csv(path, ["f0", "f1", "f2"], "price", group_size=8)
        assert loaded.num_rows == series.num_rows
        assert np.allclose(loaded.prices, series.prices, atol=1e-10)

    def test_no_timestamp_column(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(path, ["0.5,1.5,2.5", "0.25,1.25,3.5"], header="f0,f1,price")
        series = dnl.load_csv(path, ["f0", "f1"], "price", group_size=2)
        assert np.array_equal(series.features, [[0.5, 1.5], [0.25, 1.25]])
        assert np.array_equal(series.prices, [2.5, 3.5])
        assert series.num_groups == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    @pytest.mark.parametrize("column", [1, 3])  # a feature, the price
    def test_non_finite_value_names_line(self, tmp_path, cell, column):
        path = tmp_path / "series.csv"
        write_csv(path, make_rows(10, broken_line=6, bad=cell, column=column))
        with pytest.raises(ValueError, match="non-finite value on line 6"):
            dnl.load_csv(path, ["f0", "f1"], "price")


class TestWriteSeriesCsv:
    def test_generated_bytes_are_pinned(self, tmp_path):
        # `dnl generate --days 1 --features 2 --group-size 4 --seed 0`
        path = tmp_path / "series.csv"
        assert main(
            ["generate", "--days", "1", "--features", "2", "--group-size", "4",
             "--seed", "0", "--out", str(path)]
        ) == 0
        assert path.read_text() == (
            "timestamp,f0,f1,price\n"
            "d0000-t00,0.0409735239362,0.0165276355285,4.86809393387\n"
            "d0000-t01,0.8132702392,0.912755577278,9.80377405204\n"
            "d0000-t02,0.606635775767,0.729496560984,7.50646585828\n"
            "d0000-t03,0.543624991465,0.935072423788,8.763455216\n"
        )

    def test_labels_count_days_and_slots(self, tmp_path):
        series = dnl.synthesize(2, 1, 0.0, seed=3, group_size=3)
        path = tmp_path / "series.csv"
        dnl.write_series_csv(series, path)
        labels = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
        assert labels == ["d0000-t00", "d0000-t01", "d0000-t02",
                          "d0001-t00", "d0001-t01", "d0001-t02"]


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
        model = dnl.fit_ridge(dataset, l2_penalty=0.0)
        assert np.max(np.abs(model.coefficients - series.hidden_model.coefficients)) < 1e-6

    def test_residual_std_tracks_noise_sigma(self):
        series = dnl.synthesize(500, 3, 1.0, seed=19)
        dataset = dnl.make_knapsack(series, weighted=False, capacity=5.0)
        model = dnl.fit_ridge(dataset, l2_penalty=0.0)
        preds = np.concatenate(
            [dnl.predict(model, ps) for ps in dataset]
        )
        targets = np.concatenate([ps.true_values for ps in dataset])
        resid_std = float(np.std(targets - preds))
        assert abs(resid_std - 1.0) < 0.1

    def test_zero_days_rejected(self):
        with pytest.raises(ValueError):
            dnl.synthesize(0, 3, 0.5, seed=0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.5])
    def test_bad_noise_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            dnl.synthesize(2, 3, sigma, seed=0)


class TestMakeKnapsack:
    def test_unit_mode(self):
        series = dnl.synthesize(2, 3, 0.0, seed=23, group_size=10)
        dataset = dnl.make_knapsack(series, weighted=False, capacity=4.0)
        assert len(dataset) == 2
        ps = dataset[0]
        assert np.all(ps.constraint.weights == 1.0)
        assert np.allclose(ps.true_values, series.prices[:10])
        assert ps.feature_dim == 3

    def test_weighted_mode_values_and_feature(self):
        series = dnl.synthesize(3, 3, 0.2, seed=29, group_size=10)
        dataset = dnl.make_knapsack(series, weighted=True, capacity=15.0, seed=31)
        for g, ps in enumerate(dataset):
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
        for x, y in zip(a, b):
            assert np.array_equal(x.constraint.weights, y.constraint.weights)

    @pytest.mark.parametrize("seed", [0, 61])
    @pytest.mark.parametrize("group_size", [12, 47])
    def test_weighted_days_match_a_draw_per_day(self, seed, group_size):
        # The maker draws every day's weights in one call; each day must hold
        # the bytes that one `rng.choice` per day gives, on every numpy the
        # package runs on. A trailing partial group is dropped, drawing nothing.
        rows = 5 * group_size + group_size // 2
        data = np.random.default_rng(seed + 1)
        series = dnl.RawSeries(data.uniform(size=(rows, 3)), data.normal(5.0, 2.0, size=rows), group_size)
        dataset = dnl.make_knapsack(series, True, 60.0, seed=seed)
        assert len(dataset) == 5
        rng = np.random.default_rng(seed)
        for g, ps in enumerate(dataset):
            block = slice(g * group_size, (g + 1) * group_size)
            weights = rng.choice(dnl.WEIGHT_CHOICES, size=group_size)
            features = np.hstack([series.features[block], weights[:, None]])
            assert ps.features.tobytes() == features.tobytes()
            assert ps.features.shape == features.shape
            assert ps.true_values.tobytes() == (weights * series.prices[block]).tobytes()
            assert ps.constraint.weights.tobytes() == weights.tobytes()
            assert ps.id == f"day{g:04d}"
            assert ps.constraint.capacity.hex() == (60.0).hex()

    def test_unit_days_share_one_constraint(self):
        # One `Knapsack` per unit series, whose integer form is computed
        # once; weighted days draw their own weights, so each has its own.
        series = dnl.synthesize(3, 2, 0.0, seed=39, group_size=6)
        unit = dnl.make_knapsack(series, False, 3.0)
        assert all(ps.constraint is unit[0].constraint for ps in unit)
        weighted = dnl.make_knapsack(series, True, 9.0, seed=41)
        assert len({id(ps.constraint) for ps in weighted}) == len(weighted)

    def test_nonpositive_capacity_rejected(self):
        series = dnl.synthesize(1, 2, 0.0, seed=43, group_size=6)
        with pytest.raises(ValueError):
            dnl.make_knapsack(series, False, 0.0)


class TestMakeScheduling:
    def test_shared_feasible_constraint(self):
        series = dnl.synthesize(3, 2, 0.1, seed=47, group_size=12)
        dataset = dnl.make_scheduling(series, num_machines=2, num_jobs=3, seed=53)
        assert len(dataset) == 3
        first = dataset[0].constraint
        for ps in dataset:
            assert ps.constraint is first
        res = dnl.solve_scheduling(dataset[0].true_values, first)
        dnl.validate_solution(res.solution, first)

    @pytest.mark.parametrize("machines, jobs, named", [
        (0, 3, "num_machines"), (-1, 3, "num_machines"), (2, -2, "num_jobs"),
    ])
    def test_bad_counts_name_the_argument(self, machines, jobs, named):
        series = dnl.synthesize(2, 2, 0.1, seed=59, group_size=12)
        with pytest.raises(ValueError, match=named):
            dnl.make_scheduling(series, machines, jobs, seed=61)

    def test_no_complete_group_raises_before_any_solve(self, monkeypatch):
        solved = []
        monkeypatch.setattr(dnl.data, "solve_scheduling", lambda *args: solved.append(args))
        series = dnl.RawSeries(np.zeros((10, 2)), np.zeros(10), group_size=48)
        with pytest.raises(ValueError, match="series has no complete group"):
            dnl.make_scheduling(series)
        assert solved == []

    def test_infeasible_load_is_redrawn(self, monkeypatch):
        # One-period days on one machine: two jobs fit only when their
        # resources sum to the capacity or less. Seed 0 draws an infeasible
        # load first, then a feasible one.
        solved = []
        solve = dnl.data.solve_scheduling

        def counting(prices, constraint):
            solved.append(constraint)
            return solve(prices, constraint)

        monkeypatch.setattr(dnl.data, "solve_scheduling", counting)
        series = dnl.RawSeries(np.zeros((3, 2)), np.zeros(3), group_size=1)
        dataset = dnl.make_scheduling(series, 1, 2, seed=0)
        assert len(solved) == 2
        assert dataset[0].constraint is solved[-1]
        with pytest.raises(dnl.InfeasibleInstanceError):
            dnl.solve_scheduling([0.0], solved[0])

    def test_deterministic(self):
        series = dnl.synthesize(2, 2, 0.1, seed=59, group_size=12)
        a = dnl.make_scheduling(series, 2, 3, seed=61)
        b = dnl.make_scheduling(series, 2, 3, seed=61)
        assert a[0].constraint == b[0].constraint


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

    def test_several_folds_read_only_the_validation_fraction(self):
        # Each test block is n / folds whatever test_frac says, and training
        # takes the rest: 13 / 2 / 5 of 20, as with the default fractions.
        sets = self.problem_sets(20)
        for spec in (dnl.SplitSpec(folds=4, train_frac=0.5, test_frac=0.4),
                     dnl.SplitSpec(folds=4)):
            for fold in dnl.split(sets, spec):
                assert (len(fold.train), len(fold.val), len(fold.test)) == (13, 2, 5)

    def test_more_folds_than_problem_sets_rejected(self):
        # Every fold would need a nonempty test block.
        assert len(dnl.split(self.problem_sets(5), dnl.SplitSpec(folds=5))) == 5
        with pytest.raises(ValueError, match="6 folds"):
            dnl.split(self.problem_sets(5), dnl.SplitSpec(folds=6))


def _header_only_csv(tmp):
    path = tmp / "series.csv"
    write_csv(path, [])
    return path


def _split_sets(n):
    return [dnl.ProblemSet([1.0], [[1.0]], dnl.Knapsack([1.0], 1.0), f"ps{i}") for i in range(n)]


# Each input check: (call taking a scratch directory, exception type, message fragment).
INPUT_CHECKS = {
    "1-d features": (
        lambda tmp: dnl.RawSeries(np.zeros(4), np.zeros(4)),
        ValueError, "features must be a 2-d array"),
    "misaligned rows": (
        lambda tmp: dnl.RawSeries(np.zeros((4, 2)), np.zeros(3)),
        ValueError, "features and prices must align"),
    "zero group size": (
        lambda tmp: dnl.RawSeries(np.zeros((4, 2)), np.zeros(4), group_size=0),
        ValueError, "group_size must be positive"),
    "zero folds": (
        lambda tmp: dnl.SplitSpec(folds=0), ValueError, "folds must be positive"),
    "no data rows": (
        lambda tmp: dnl.load_csv(_header_only_csv(tmp), ["f0", "f1"], "price"),
        ValueError, "no data rows"),
    "no features": (
        lambda tmp: dnl.synthesize(2, 0, 0.1, seed=0), ValueError, "p must be positive"),
    "knapsack without a day": (
        lambda tmp: dnl.make_knapsack(
            dnl.RawSeries(np.zeros((3, 2)), np.zeros(3), group_size=4), False, 2.0),
        ValueError, "series has no complete group"),
    "no feasible load": (
        # Eight jobs of resource 1 or more in one period of one machine of
        # capacity 4 or less: every draw is infeasible.
        lambda tmp: dnl.make_scheduling(
            dnl.RawSeries(np.zeros((3, 2)), np.zeros(3), group_size=1), 1, 8, seed=0),
        dnl.InfeasibleInstanceError, "could not generate a feasible load in 50 attempts"),
    "scheduling without a day": (
        lambda tmp: dnl.make_scheduling(
            dnl.RawSeries(np.zeros((3, 2)), np.zeros(3), group_size=4), 1, 1, seed=0),
        ValueError, "series has no complete group"),
    "two problem sets": (
        lambda tmp: dnl.split(_split_sets(2)), ValueError, "need at least three problem sets"),
    "no training sets": (
        lambda tmp: dnl.split(
            _split_sets(4), dnl.SplitSpec(folds=1, train_frac=0.0, val_frac=0.5, test_frac=0.5)),
        ValueError, "split leaves no training problem sets"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check_names_the_fault(tmp_path, case):
    call, error, fragment = INPUT_CHECKS[case]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert fragment in str(info.value)
