import time

import numpy as np
import pytest

import dnl
from dnl.training import TrainingError, _regret_scorer
from util import (
    example1_model,
    example1_problem,
    random_knapsack_problem,
    random_scheduling_problem,
)


@pytest.fixture
def oracle():
    return dnl.SolverOracle()


def profile_of(breakpoints, lower=-5.0, upper=5.0):
    return dnl.TransitionProfile(tuple(breakpoints), 0, lower, upper)


def realizable_sets(num_sets=12, seed=5):
    """Noise-free 5-item unit knapsacks generated by a hidden linear map."""
    rng = np.random.default_rng(seed)
    hidden = np.array([2.0, -1.5])
    intercept = 1.0
    sets = []
    for i in range(num_sets):
        feats = rng.uniform(-1, 1, size=(5, 2))
        vals = feats @ hidden + intercept
        sets.append(dnl.ProblemSet(vals, feats, dnl.Knapsack(np.ones(5), 2.0), f"s{i}"))
    return sets, dnl.LinearModel(hidden, intercept)


class TestCandidateBetas:
    def test_known_transitions_give_piecewise_midpoints(self):
        profile = profile_of([0.0, 2.0])
        cands = dnl.candidate_betas([profile], current_beta=1.0)
        assert cands == pytest.approx([-2.5, 1.0, 3.5])

    def test_no_transitions_give_region_midpoint_and_current(self):
        profile = profile_of([])
        cands = dnl.candidate_betas([profile], current_beta=3.25)
        assert cands == pytest.approx([0.0, 3.25])

    def test_union_of_two_profiles(self):
        a = profile_of([0.0])
        b = profile_of([2.0])
        cands = dnl.candidate_betas([a, b], current_beta=0.0)
        assert cands == pytest.approx([-2.5, -1.5, 0.0, 2.5, 3.5])


class TestSelectBetaFull:
    def test_example1_reaches_zero_regret_plateau(self, oracle):
        ps = example1_problem()
        model = example1_model(3.0)
        profile = profile_of([0.0, 2.0])
        beta = dnl.select_beta_full([profile], [ps], model, 0, oracle)
        assert 0.0 < beta < 2.0
        assert dnl.regret_of(model.with_coefficient(0, beta), ps, oracle).regret == 0.0

    def test_returned_beta_minimizes_batch_regret(self, oracle):
        rng = np.random.default_rng(307)
        batch = [random_knapsack_problem(rng, ps_id=f"b{i}") for i in range(3)]
        model = dnl.LinearModel(rng.normal(size=3), 0.0)
        spec = dnl.SearchSpec.from_parameter(float(model.coefficients[0]))
        profiles = [dnl.extract_full(model, ps, 0, spec, oracle) for ps in batch]
        cands = dnl.candidate_betas(profiles, float(model.coefficients[0]))
        chosen = dnl.select_beta_full(profiles, batch, model, 0, oracle)

        def batch_regret(beta):
            probe = model.with_coefficient(0, beta)
            return np.mean([dnl.regret_of(probe, ps, oracle).regret for ps in batch])

        chosen_regret = batch_regret(chosen)
        for cand in cands:
            assert chosen_regret <= batch_regret(cand) + 1e-9

    def test_ties_break_toward_current(self, oracle):
        # A model predicting zero everywhere keeps the same (empty) selection
        # at every candidate, so regrets tie and the current value wins over
        # the candidates -2.0 and 3.0 of the hand-built profile.
        ps = dnl.ProblemSet(
            [1.0, 2.0], [[0.0], [0.0]], dnl.Knapsack([1.0, 1.0], 1.0), "tie"
        )
        model = dnl.LinearModel([0.5], 0.0)
        profile = profile_of([1.0])
        assert dnl.candidate_betas([profile], 0.5) == [-2.0, 0.5, 3.0]
        for selector in (dnl.select_beta_full, dnl.select_beta_max):
            assert selector([profile], [ps], model, 0, oracle) == 0.5

    @pytest.mark.parametrize("select", [dnl.select_beta_full, dnl.select_beta_max])
    def test_empty_batch_rejected(self, oracle, select):
        with pytest.raises(ValueError, match="empty batch"):
            select([], [], example1_model(1.0), 0, oracle)


class TestSelectBetaMax:
    def test_single_problem_set_matches_full(self, oracle):
        rng = np.random.default_rng(311)
        for i in range(5):
            ps = random_knapsack_problem(rng, ps_id=f"n1-{i}")
            model = dnl.LinearModel(rng.normal(size=3), 0.0)
            current = float(model.coefficients[0])
            spec = dnl.SearchSpec.from_parameter(current)
            profile = dnl.extract_full(model, ps, 0, spec, oracle)
            full = dnl.select_beta_full([profile], [ps], model, 0, oracle)
            greedy = dnl.select_beta_max([profile], [ps], model, 0, oracle)
            assert greedy == pytest.approx(full)

    def test_max_choice_sits_between_full_choice_and_old(self, oracle):
        rng = np.random.default_rng(313)
        for i in range(8):
            batch = [random_knapsack_problem(rng, ps_id=f"mx{i}-{j}") for j in range(3)]
            model = dnl.LinearModel(rng.normal(size=3), 0.0)
            current = float(model.coefficients[0])
            spec = dnl.SearchSpec.from_parameter(current)
            profiles = [dnl.extract_full(model, ps, 0, spec, oracle) for ps in batch]

            def batch_regret(beta):
                probe = model.with_coefficient(0, beta)
                return np.mean([dnl.regret_of(probe, ps, oracle).regret for ps in batch])

            full_choice = dnl.select_beta_full(profiles, batch, model, 0, oracle)
            max_choice = dnl.select_beta_max(profiles, batch, model, 0, oracle)
            assert batch_regret(full_choice) <= batch_regret(max_choice) + 1e-9
            assert batch_regret(max_choice) <= batch_regret(current) + 1e-9

    def test_selection_oracle_budget(self, oracle):
        # Ceiling (N-1)N + LN with L the largest per-set candidate count.
        rng = np.random.default_rng(317)
        batch = [random_knapsack_problem(rng, ps_id=f"bud{j}") for j in range(4)]
        model = dnl.LinearModel(rng.normal(size=3), 0.0)
        current = float(model.coefficients[0])
        spec = dnl.SearchSpec.from_parameter(current)
        profiles = [dnl.extract_full(model, ps, 0, spec, oracle) for ps in batch]
        cache = dnl.TrueOptimumCache()
        for ps in batch:
            cache.true_optimal(ps, oracle)
        n = len(batch)
        limit = (n - 1) * n + n * max(
            len(dnl.candidate_betas([prof], current)) for prof in profiles
        )
        before = oracle.calls
        dnl.select_beta_max(profiles, batch, model, 0, oracle, cache)
        assert oracle.calls - before <= limit


class TestLookupScoring:
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize(
        "make", [random_knapsack_problem, random_scheduling_problem],
        ids=["knapsack", "scheduling"],
    )
    def test_lookup_equals_regret_of_bit_for_bit(self, oracle, make, cached):
        # Every candidate, and every breakpoint (a tie the oracle resolves
        # itself), scores the same from a complete profile as by solving.
        rng = np.random.default_rng(331)
        regrets = []
        for i in range(8):
            ps = make(rng, ps_id=f"look{i}")
            model = dnl.LinearModel(rng.normal(size=3), 0.0)
            current = float(model.coefficients[0])
            spec = dnl.SearchSpec.from_parameter(current)
            for profile in (
                dnl.extract_full(model, ps, 0, spec, oracle),
                dnl.extract_greedy(model, ps, 0, spec, oracle),
            ):
                if profile.truncated:
                    continue
                cache = dnl.TrueOptimumCache() if cached else None
                regret = _regret_scorer([profile], [ps], model, 0, oracle, cache)
                points = dnl.candidate_betas([profile], current) + list(profile.breakpoints)
                for beta in points:
                    before = oracle.calls
                    lookup = regret(0, np.array([beta]))[0]
                    assert oracle.calls == before
                    probe = model.with_coefficient(0, beta)
                    assert lookup == dnl.regret_of(probe, ps, oracle, cache).regret
                    regrets.append(lookup)
        assert len(regrets) > 40 and sum(r > 0 for r in regrets) > 10

    @pytest.mark.parametrize("select", [dnl.select_beta_full, dnl.select_beta_max])
    def test_true_optimum_read_once_per_set(self, oracle, select, monkeypatch):
        rng = np.random.default_rng(337)
        batch = [random_knapsack_problem(rng, ps_id=f"once{j}") for j in range(4)]
        model = dnl.LinearModel(rng.normal(size=3), 0.0)
        spec = dnl.SearchSpec.from_parameter(float(model.coefficients[0]))
        profiles = [dnl.extract_full(model, ps, 0, spec, oracle) for ps in batch]
        assert not any(p.truncated for p in profiles)
        cache = dnl.TrueOptimumCache()
        for ps in batch:
            cache.true_optimal(ps, oracle)
        reads = []
        true_optimal = dnl.TrueOptimumCache.true_optimal

        def counting(self, problem, oracle):
            reads.append(problem.id)
            return true_optimal(self, problem, oracle)

        monkeypatch.setattr(dnl.TrueOptimumCache, "true_optimal", counting)
        before = oracle.calls
        select(profiles, batch, model, 0, oracle, cache)
        assert sorted(reads) == sorted(ps.id for ps in batch)
        assert oracle.calls == before

    @pytest.mark.parametrize(
        "make", [random_knapsack_problem, random_scheduling_problem],
        ids=["knapsack", "scheduling"],
    )
    def test_table_equals_regret_of_everywhere(self, oracle, make):
        # On a breakpoint, inside a piece, at the region ends and outside the
        # region (solved at the candidate), in one call per set.
        rng = np.random.default_rng(347)
        checked = outside = 0
        for i in range(8):
            ps = make(rng, ps_id=f"table{i}")
            model = dnl.LinearModel(rng.normal(size=3), 0.0)
            spec = dnl.SearchSpec.from_parameter(float(model.coefficients[1]))
            profile = dnl.extract_full(model, ps, 1, spec, oracle)
            width = spec.upper - spec.lower
            breakpoints = list(profile.breakpoints)
            knots = [spec.lower, *breakpoints, spec.upper]
            inside = [(a + b) / 2.0 for a, b in zip(knots, knots[1:])]
            beyond = [spec.lower - 0.25 * width, spec.upper + 0.5 * width]
            betas = breakpoints + inside + [spec.lower, spec.upper] + beyond
            cache = dnl.TrueOptimumCache()
            regret = _regret_scorer([profile], [ps], model, 1, oracle, cache)
            before = oracle.calls
            table = regret(0, np.array(betas))
            assert oracle.calls - before == len(beyond)
            for beta, value in zip(betas, table.tolist()):
                probe = model.with_coefficient(1, beta)
                expected = dnl.regret_of(probe, ps, oracle, cache).regret
                assert np.float64(value).tobytes() == np.float64(expected).tobytes()
            checked += len(betas)
            outside += sum(value > 0 for value in table[-2:].tolist())
        assert checked > 60 and outside > 0

    def test_all_truncated_batch_solves_each_candidate_once(self, oracle):
        # Profiles without values: each set solves each distinct candidate
        # once, through the scorer's memo, and scores it as `regret_of` does.
        rng = np.random.default_rng(353)
        batch = [random_knapsack_problem(rng, ps_id=f"trunc{j}") for j in range(3)]
        model = dnl.LinearModel(rng.normal(size=3), 0.0)
        profiles = [dnl.TransitionProfile((), 0, -2.0, 2.0, truncated=True) for _ in batch]
        cache = dnl.TrueOptimumCache()
        for ps in batch:
            cache.true_optimal(ps, oracle)
        regret = _regret_scorer(profiles, batch, model, 0, oracle, cache)
        betas = np.array([-1.5, 0.25, 1.0, 0.25])
        before = oracle.calls
        for i, ps in enumerate(batch):
            expected = [
                dnl.regret_of(model.with_coefficient(0, b), ps, dnl.SolverOracle(), cache).regret
                for b in betas.tolist()
            ]
            assert regret(i, betas).tolist() == expected
        assert oracle.calls - before == 3 * len(batch)
        for i in range(len(batch)):
            regret(i, betas)
        assert oracle.calls - before == 3 * len(batch)

    def test_repeated_breakpoint_reads_as_one(self, oracle):
        # A candidate at a repeated breakpoint takes the first copy's value,
        # one past it the piece after the last copy; the region's ends read
        # as inside it. Values are the optimum less 1, 2, ..., 2m + 1.
        ps = example1_problem()
        optimum = dnl.TrueOptimumCache().true_optimal(ps, oracle)
        betas = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        for breakpoints, expected in (
            ((0.0, 0.0), [1.0, 1.0, 2.0, 5.0, 5.0]),
            ((0.0, 0.0, 0.0), [1.0, 1.0, 2.0, 7.0, 7.0]),
            ((-1.0, -1.0), [2.0, 5.0, 5.0, 5.0, 5.0]),
            ((1.0, 1.0), [1.0, 1.0, 1.0, 1.0, 2.0]),
        ):
            values = tuple(optimum - r for r in range(1, 2 * len(breakpoints) + 2))
            profile = dnl.TransitionProfile(breakpoints, 3, -1.0, 1.0, values=values)
            regret = _regret_scorer([profile], [ps], example1_model(0.0), 0, oracle, None)
            before = oracle.calls
            assert regret(0, betas).tolist() == expected, breakpoints
            assert oracle.calls == before
            regret(0, np.array([-1.5, 1.5]))
            assert oracle.calls == before + 2

    def test_negative_regret_names_the_set(self, oracle):
        ps = example1_problem()
        optimum = dnl.TrueOptimumCache().true_optimal(ps, oracle)
        beyond = dnl.TransitionProfile((0.0,), 3, -1.0, 1.0, values=(
            optimum, optimum, optimum + 1.0,
        ))
        regret = _regret_scorer([beyond], [ps], example1_model(0.0), 0, oracle, None)
        assert regret(0, np.array([-0.5, 0.0])).tolist() == [0.0, 0.0]
        with pytest.raises(dnl.InexactOracleError, match="on problem example1"):
            regret(0, np.array([-0.5, 0.5]))
        for select in (dnl.select_beta_full, dnl.select_beta_max):
            with pytest.raises(dnl.InexactOracleError, match="negative regret -1.0 "):
                select([beyond], [ps], example1_model(0.0), 0, oracle)

    def test_truncated_profile_falls_back_to_the_oracle(self, oracle):
        ps = example1_problem()
        model = example1_model(3.0)
        profile = dnl.extract_greedy(model, ps, 0, dnl.SearchSpec(-5.0, 5.0), oracle)
        assert profile.truncated
        before = oracle.calls
        regret = _regret_scorer([profile], [ps], model, 0, oracle, None)
        assert regret(0, np.array([1.0])).tolist() == [0.0]
        assert oracle.calls == before + 2


class TestTrain:
    @pytest.fixture
    def updated(self, monkeypatch):
        """The index of each parameter that "dnl" training updates, in order."""
        updated = []
        select = dnl.training.select_beta_full

        def recording_select(profiles, batch, model, beta_index, *args):
            updated.append(beta_index)
            return select(profiles, batch, model, beta_index, *args)

        monkeypatch.setattr(dnl.training, "select_beta_full", recording_select)
        return updated

    def test_time_budget_checked_before_each_parameter(self, oracle, monkeypatch, updated):
        # The clock crosses the budget once parameter 0 is updated, inside
        # the first batch: parameter 1 is not updated, and the epoch is still
        # scored before training stops.
        sets, hidden = realizable_sets(8)
        monkeypatch.setattr(time, "perf_counter", lambda: 100.0 if updated else 0.0)
        config = dnl.TrainConfig(variant="dnl", max_epochs=3, max_seconds=50.0, rng_seed=1)
        trace = dnl.train(sets[:6], sets[6:], config, oracle, hidden)
        assert updated == [0]
        assert trace.stopped == "time"
        assert [e.epoch for e in trace.epochs] == [0, 1]

    def test_budget_spent_by_an_epochs_last_update_adds_no_row(
        self, oracle, monkeypatch, updated
    ):
        # The clock crosses the budget once epoch 1's third and last update
        # is made: epoch 2 makes no update, so it is neither scored nor
        # recorded.
        sets = dnl.make_knapsack(dnl.synthesize(8, 3, 0.5, 7, group_size=12), False, 5.0)
        monkeypatch.setattr(time, "perf_counter", lambda: 100.0 if len(updated) >= 3 else 0.0)
        config = dnl.TrainConfig(variant="dnl", max_epochs=5, max_seconds=50.0)
        trace = dnl.train(sets[:5], sets[5:], config, oracle, dnl.fit_ridge(sets[:5]))
        assert updated == [0, 1, 2]
        assert trace.stopped == "time"
        assert [e.epoch for e in trace.epochs] == [0, 1]

    def test_learning_rate_one_jumps_to_selected_candidate(self, oracle):
        # Single parameter, one full batch, lr 1: replay the coordinate update
        # by hand and expect the trained coefficient to match exactly.
        sets, _ = realizable_sets(6, seed=8)
        sets = [
            dnl.ProblemSet(ps.true_values, ps.features[:, :1], ps.constraint, ps.id)
            for ps in sets
        ]
        warm = dnl.LinearModel([-0.8], 0.0)
        config = dnl.TrainConfig(
            variant="dnl", batch_size=32, learning_rate=1.0, max_epochs=1, rng_seed=9
        )
        trace = dnl.train(sets[:4], sets[4:], config, dnl.SolverOracle(), warm)

        order = np.random.default_rng(9).permutation(4)
        batch = [sets[:4][i] for i in order]
        spec = dnl.SearchSpec.from_parameter(-0.8)
        profiles = [dnl.extract_full(warm, ps, 0, spec, oracle) for ps in batch]
        expected = dnl.select_beta_full(profiles, batch, warm, 0, oracle)
        assert trace.best_epoch == 1, "the single update should improve validation"
        assert float(trace.best_model.coefficients[0]) == expected

    def test_realizable_dataset_reaches_zero_regret(self, oracle):
        sets, hidden = realizable_sets()
        train_sets, val_sets = sets[:9], sets[9:]
        perturbed = dnl.LinearModel(
            hidden.coefficients * np.array([1.8, 0.3]), hidden.intercept
        )
        start, _ = dnl.evaluate_model_regret(perturbed, train_sets, oracle)
        assert start > 0.0
        config = dnl.TrainConfig(
            variant="dnl",
            max_epochs=20,
            early_stop_patience=20,
            rng_seed=0,
            max_seconds=60.0,
        )
        trace = dnl.train(train_sets, val_sets, config, oracle, perturbed)
        assert any(e.train_regret == 0.0 for e in trace.epochs if e.epoch <= 20)

    def test_same_seed_reproduces_regret_sequence(self, oracle):
        sets, hidden = realizable_sets(8)
        perturbed = dnl.LinearModel(hidden.coefficients * 1.4, 0.5)
        config = dnl.TrainConfig(variant="dnl-max", max_epochs=3, rng_seed=7)
        a = dnl.train(sets[:6], sets[6:], config, dnl.SolverOracle(), perturbed)
        b = dnl.train(sets[:6], sets[6:], config, dnl.SolverOracle(), perturbed)
        assert [e.train_regret for e in a.epochs] == [e.train_regret for e in b.epochs]
        assert [e.val_regret for e in a.epochs] == [e.val_regret for e in b.epochs]
        assert np.array_equal(a.best_model.coefficients, b.best_model.coefficients)

    def test_best_epoch_attains_minimum_validation_regret(self, oracle):
        sets, hidden = realizable_sets()
        perturbed = dnl.LinearModel(hidden.coefficients * np.array([1.8, 0.3]), 1.0)
        config = dnl.TrainConfig(variant="dnl", max_epochs=6, rng_seed=1)
        trace = dnl.train(sets[:9], sets[9:], config, oracle, perturbed)
        vals = [e.val_regret for e in trace.epochs]
        assert trace.epochs[trace.best_epoch].val_regret == min(vals)

    def test_early_stop_on_patience(self, oracle):
        sets, hidden = realizable_sets(8)
        config = dnl.TrainConfig(
            variant="dnl", max_epochs=50, early_stop_patience=2, rng_seed=3
        )
        trace = dnl.train(sets[:6], sets[6:], config, oracle, hidden)
        assert trace.stopped == "patience"
        assert len(trace.epochs) <= 4  # warmstart row plus a few epochs

    def test_patience_zero_trains_while_validation_improves(self):
        # Validation regret falls over epochs 1 and 2 and rises at epoch 3:
        # patience 0 stops at that first epoch without improvement, as
        # patience 1 does, not after epoch 1.
        series = dnl.synthesize(40, 4, 0.5, 0)
        sets = dnl.make_knapsack(series, weighted=False, capacity=12.0)
        (fold,) = dnl.split(sets, dnl.SplitSpec(folds=1))
        warmstart, _ = dnl.select_ridge(fold.train, fold.val, dnl.SolverOracle())
        runs = []
        for patience in (0, 1):
            config = dnl.TrainConfig(batch_size=8, max_epochs=4, early_stop_patience=patience)
            trace = dnl.train(fold.train, fold.val, config, dnl.SolverOracle(), warmstart)
            runs.append(([e.val_regret for e in trace.epochs], trace.stopped))
        (regrets, stopped), other = runs
        assert (regrets, stopped) == other
        assert stopped == "patience" and len(regrets) == 4
        assert regrets[0] > regrets[1] > regrets[2] <= regrets[3]

    @pytest.mark.parametrize(
        "val_regrets, max_epochs, patience, stopped, best_epoch, last_epoch",
        [
            # Improve, stall twice, improve, then stall.
            *(
                pytest.param(
                    (5.0, 4.0, 4.0, 4.0, 3.0, 3.0, 3.0, 3.0, 3.0), 8, patience,
                    "patience", best, last, id=f"stalls-patience{patience}",
                )
                for patience, best, last in ((0, 1, 2), (1, 1, 2), (2, 1, 3), (3, 4, 7))
            ),
            # Drops smaller than 1e-12 below the best epoch's regret are no
            # improvement, even where each follows a smaller one.
            pytest.param(
                (5.0, 4.0, 4.0 - 6e-13, 4.0 - 9e-13, 4.0 - 9e-13), 4, 2,
                "patience", 1, 3, id="sub-tolerance-drops",
            ),
            pytest.param(
                (5.0, 4.0, 4.0 - 6e-13, 4.0 - 1.2e-12, 4.0 - 1.2e-12, 4.0 - 1.2e-12), 5, 2,
                "patience", 3, 5, id="drops-add-up-past-the-tolerance",
            ),
            pytest.param((5.0, 4.0, 3.0, 2.0), 3, 1, "max_epochs", 3, 3, id="max-epochs"),
        ],
    )
    def test_stop_rule_on_scripted_regrets(
        self, oracle, monkeypatch, val_regrets, max_epochs, patience, stopped, best_epoch,
        last_epoch,
    ):
        # Each snapshot scores the training sets, then the validation sets.
        scores = iter([s for val in val_regrets for s in (val + 1.0, val)])
        monkeypatch.setattr(
            dnl.training, "evaluate_model_regret", lambda *args: (next(scores), [])
        )
        sets, hidden = realizable_sets(8)
        config = dnl.TrainConfig(max_epochs=max_epochs, early_stop_patience=patience)
        trace = dnl.train(sets[:6], sets[6:], config, oracle, hidden)
        assert trace.stopped == stopped
        assert trace.best_epoch == best_epoch
        assert [e.epoch for e in trace.epochs] == list(range(last_epoch + 1))
        assert [e.val_regret for e in trace.epochs] == list(val_regrets[: last_epoch + 1])
        assert trace.best_val_regret == val_regrets[best_epoch]

    def test_greedy_variant_runs_and_counts_calls(self, oracle):
        sets, hidden = realizable_sets(8)
        perturbed = dnl.LinearModel(hidden.coefficients * 1.5, 1.0)
        config = dnl.TrainConfig(variant="dnl-greedy", max_epochs=2, rng_seed=2)
        trace = dnl.train(sets[:6], sets[6:], config, oracle, perturbed)
        assert trace.total_oracle_calls == oracle.calls
        assert trace.epochs[-1].oracle_calls >= trace.epochs[0].oracle_calls

    @pytest.mark.parametrize(
        "phase, error, wrapped",
        [
            pytest.param(phase, error, wrapped, id=f"{prefix}{error.__name__}-{wrapped}")
            for phase, prefix in (("extract_full", ""), ("evaluate_model_regret", "scoring-"))
            for error, wrapped in (
                (dnl.InexactOracleError, True),
                (dnl.InfeasibleInstanceError, True),
                (dnl.NodeBudgetError, True),
                (ValueError, False),
                (RuntimeError, False),
                (FloatingPointError, True),
            )
        ],
    )
    def test_only_oracle_failures_become_training_errors(
        self, oracle, monkeypatch, phase, error, wrapped
    ):
        # A failure raised while updating a parameter (`extract_full`) or
        # while scoring an epoch (`evaluate_model_regret`).
        def failing(*args):
            raise error(f"raised in {phase}")

        monkeypatch.setattr(dnl.training, phase, failing)
        sets, hidden = realizable_sets(4)
        with pytest.raises((error, TrainingError)) as info:
            dnl.train(sets[:3], sets[3:], dnl.TrainConfig(max_epochs=1), oracle, hidden)
        if wrapped:
            assert type(info.value) is TrainingError
            assert type(info.value.__cause__) is error
            where = "updating parameter 0" if phase == "extract_full" else "scoring the model"
            kind = "floating-point error" if error is FloatingPointError else "oracle failure"
            epoch = 1 if phase == "extract_full" else 0
            assert str(info.value) == f"epoch {epoch}: {kind} while {where}: raised in {phase}"
        else:
            assert type(info.value) is error

    def test_inexact_oracle_while_scoring_becomes_a_training_error(self):
        # An oracle that answers one validation set's true values with the
        # empty selection gives it a negative regret when the warm start is
        # scored.
        sets = dnl.make_knapsack(dnl.synthesize(6, 2, 0.3, 1, group_size=6), False, 2.0)
        wrong = sets[4].true_values

        class WrongOnOneSet(dnl.SolverOracle):
            def solve(self, values, constraint):
                result = super().solve(values, constraint)
                if values is wrong:
                    empty = dnl.knapsack_solution(np.zeros(len(values), bool))
                    return dnl.OracleResult(empty, np.asarray(values, float))
                return result

        warmstart = dnl.LinearModel([1.0, 1.0], 0.0)
        with pytest.raises(TrainingError, match="epoch 0: oracle failure while scoring") as info:
            dnl.train(sets[:3], sets[3:5], dnl.TrainConfig(), WrongOnOneSet(), warmstart)
        assert type(info.value.__cause__) is dnl.InexactOracleError

    @staticmethod
    def stops_at_overflow(
        constraint, size, feature, seed, oracle,
        failure="epoch 1: floating-point error while updating parameter 0: overflow",
    ):
        """Train on sets whose feature 0 is `feature`; training must stop on
        a FloatingPointError, by default in the update of parameter 0, as a
        TrainingError from it whose message starts with `failure`."""
        rng = np.random.default_rng(seed)
        sets = [
            dnl.ProblemSet(
                rng.uniform(1.0, 3.0, size),
                np.column_stack([np.full(size, feature), rng.uniform(1.0, 2.0, size)]),
                constraint,
                f"s{i}",
            )
            for i in range(4)
        ]
        warmstart = dnl.LinearModel([1.0, 1.0], 0.0)
        with pytest.raises(TrainingError) as info:
            dnl.train(sets[:3], sets[3:], dnl.TrainConfig(max_epochs=1), oracle, warmstart)
        assert str(info.value).startswith(failure)
        assert type(info.value.__cause__) is FloatingPointError

    def test_overflowing_predicted_prices_become_a_training_error(self, oracle):
        # Feature 0 is huge: at the warm start the price total is finite,
        # but the top of the coefficient's search region (2.5) overflows it.
        periods = 6
        constraint = dnl.Scheduling(
            (dnl.MachineSpec(1.0),), (dnl.JobSpec(1.0, 1.0, 2, 0, periods),), periods
        )
        self.stops_at_overflow(constraint, periods, 2e307, 83, oracle)

    def test_overflowing_predicted_values_become_a_training_error(self, oracle):
        # The knapsack twin: at the warm start each predicted value is
        # finite (one weight class, so the solver sums none of them), but
        # the prediction overflows at the top of the search region (2.5).
        constraint = dnl.Knapsack([1.0, 1.0, 1.0, 1.0], 2.0)
        self.stops_at_overflow(constraint, 4, 1e308, 89, oracle)

    def test_overflow_while_scoring_becomes_a_training_error(self, oracle):
        # The warm start's values are finite, but two of weight 1 sum past
        # the largest float in the class solver's prefix sums.
        constraint = dnl.Knapsack([1.0, 2.0, 3.0, 1.0], 4.0)
        failure = "epoch 0: floating-point error while scoring the model: overflow encountered"
        self.stops_at_overflow(constraint, 4, 1e308, 97, oracle, failure)

    def test_overflowing_search_line_becomes_a_training_error(self, oracle):
        # Every prediction is finite, but the line of two items, slope 1e308,
        # overflows at the top of the search region (2.5): a Python float
        # overflow, which numpy's error state does not see.
        constraint = dnl.Knapsack([1.0, 1.0, 1.0, 1.0], 2.0)
        failure = (
            "epoch 1: floating-point error while updating parameter 0: overflow scoring a decision"
        )
        self.stops_at_overflow(constraint, 4, 5e307, 101, oracle, failure)

    def test_overflowing_search_region_becomes_a_training_error(self, oracle):
        # The warm start scores, but parameter 0's region ends at
        # 8e307 + 1.5 * 8e307, past the largest float.
        sets, _ = realizable_sets(8)
        warmstart = dnl.LinearModel([8e307, 1.0], 0.0)
        failure = (
            "epoch 1: floating-point error while updating parameter 0: "
            "search region [-3.9999999999999994e+307, inf] of 8e+307 overflows"
        )
        with pytest.raises(TrainingError) as info:
            dnl.train(sets[:6], sets[6:], dnl.TrainConfig(max_epochs=1), oracle, warmstart)
        assert str(info.value) == failure
        assert type(info.value.__cause__) is FloatingPointError

    @pytest.mark.parametrize("seed", range(6))
    def test_swamping_feature_is_a_precision_error(self, oracle, seed):
        # At the region's top (2.5) every prediction rounds to 5e307, so the
        # oracle takes two items on a tie that the exact lines score 1.17
        # lower, a gap far below their rounding: the span between the two
        # decisions has equal slopes. That is lost precision, not an
        # inexact oracle.
        constraint = dnl.Knapsack([1.0, 1.0, 1.0, 1.0], 2.0)
        failure = "epoch 1: floating-point error while updating parameter 0: precision lost"
        self.stops_at_overflow(constraint, 4, 2e307, seed, oracle, failure)

    @pytest.mark.parametrize("load", ["scheduling", "real-weight knapsack"])
    def test_node_budget_overrun_becomes_a_training_error(self, oracle, monkeypatch, load):
        # A budget of one node, the root, is overrun by the first solve,
        # while the warm start is scored. Real-valued weights do not scale
        # to integers, so the knapsack runs branch-and-bound.
        rng = np.random.default_rng(7)
        if load == "scheduling":
            monkeypatch.setattr(dnl.oracles, "SCHEDULING_MAX_NODES", 1)
            sets = [random_scheduling_problem(rng, f"s{i}") for i in range(4)]
            cause = "scheduling search exceeded the 1-node budget on a load of 3 jobs"
        else:
            monkeypatch.setattr(dnl.oracles, "KNAPSACK_BB_MAX_NODES", 1)
            sets = []
            for i in range(4):
                ps = random_knapsack_problem(rng, 6, f"s{i}")
                weights = ps.constraint.weights + rng.uniform(0.1, 0.9, 6).round(9)
                sets.append(dnl.ProblemSet(
                    ps.true_values, ps.features, dnl.Knapsack(weights, 0.45 * weights.sum()), ps.id))
            cause = "knapsack branch-and-bound exceeded the 1-node budget on a load of 6 items"
        warmstart = dnl.LinearModel([1.0, 1.0, 1.0], 0.0)
        with pytest.raises(TrainingError) as info:
            dnl.train(sets[:3], sets[3:], dnl.TrainConfig(max_epochs=1), oracle, warmstart)
        assert str(info.value) == f"epoch 0: oracle failure while scoring the model: {cause}"
        assert type(info.value.__cause__) is dnl.NodeBudgetError

    @pytest.mark.parametrize("variant", ["dnl", "dnl-max", "dnl-greedy"])
    def test_shared_unit_knapsack_trains_as_one_per_day(self, variant):
        # Unit days share one `Knapsack`; days that each hold an equal one of
        # their own must train the same, bit for bit.
        series = dnl.synthesize(8, 3, 0.5, 7, group_size=12)
        shared = dnl.make_knapsack(series, False, 5.0)
        own = [
            dnl.ProblemSet(
                ps.true_values, ps.features,
                dnl.Knapsack(ps.constraint.weights, ps.constraint.capacity), ps.id,
            )
            for ps in shared
        ]
        config = dnl.TrainConfig(variant=variant, batch_size=3, max_epochs=2)

        def run(sets):
            oracle = dnl.SolverOracle()
            warm, _ = dnl.select_ridge(sets[:5], sets[5:], oracle)
            trace = dnl.train(sets[:5], sets[5:], config, oracle, warm)
            return oracle.calls, trace.best_model.coefficients.tobytes(), [
                (e.train_regret, e.val_regret, e.oracle_calls) for e in trace.epochs
            ]

        assert run(shared) == run(own)

    def test_dimension_mismatch_rejected(self, oracle):
        sets, hidden = realizable_sets(4)
        bad = dnl.LinearModel([1.0, 2.0, 3.0], 0.0)
        with pytest.raises(ValueError):
            dnl.train(sets[:3], sets[3:], dnl.TrainConfig(), oracle, bad)

    # Each input check: (call on sets, their model and an oracle, message fragment).
    INPUT_CHECKS = {
        "profile count": (
            lambda sets, model, oracle: dnl.select_beta_full([], sets[:1], model, 0, oracle),
            "one profile per batch problem set required"),
        "empty training split": (
            lambda sets, model, oracle: dnl.train([], sets, dnl.TrainConfig(), oracle, model),
            "training split is empty"),
    }

    @pytest.mark.parametrize("case", INPUT_CHECKS)
    def test_input_check_names_the_fault(self, oracle, case):
        call, fragment = self.INPUT_CHECKS[case]
        sets, hidden = realizable_sets(4)
        with pytest.raises(ValueError) as info:
            call(sets, hidden, oracle)
        assert type(info.value) is ValueError and fragment in str(info.value)
        assert oracle.calls == 0

    def test_empty_validation_split_rejected_before_solving(self, oracle):
        sets, hidden = realizable_sets(4)
        with pytest.raises(ValueError, match="validation split is empty"):
            dnl.train(sets, [], dnl.TrainConfig(), oracle, hidden)
        assert oracle.calls == 0


class RepeatCountingOracle(dnl.SolverOracle):
    """Counts solves of a (constraint, coefficient vector) pair it has
    already solved."""

    def __init__(self):
        super().__init__()
        self.seen = set()
        self.repeats = 0

    def solve(self, values, constraint):
        key = (id(constraint), np.asarray(values, dtype=float).tobytes())
        self.repeats += key in self.seen
        self.seen.add(key)
        return super().solve(values, constraint)


def moving_training(variant, oracle):
    """Three epochs on eight seeded knapsack sets, split 5 / 3, from a random
    warm start that the updates move."""
    rng = np.random.default_rng(11)
    sets = [random_knapsack_problem(rng, ps_id=f"s{i}") for i in range(8)]
    warm = dnl.LinearModel(rng.normal(size=3), 1.0)
    config = dnl.TrainConfig(variant=variant, batch_size=3, max_epochs=3, rng_seed=1)
    return dnl.train(sets[:5], sets[5:], config, oracle, warm), sets[:5], sets[5:]


def unmoved_training(variant, oracle):
    """One epoch from exactly twice the hidden map: it predicts the same
    decisions as the truth, with zero regret, so no update moves it."""
    sets, hidden = realizable_sets(8)
    warm = dnl.LinearModel(hidden.coefficients * 2, hidden.intercept * 2)
    config = dnl.TrainConfig(variant=variant, max_epochs=1, rng_seed=1)
    return dnl.train(sets[:6], sets[6:], config, oracle, warm), sets[:6], sets[6:]


def shared_unit_training(variant, oracle):
    """Three epochs on eight unit-knapsack days, which share one `Knapsack`,
    split 5 / 3, in batches of three, from a random warm start that the
    updates move."""
    series = dnl.synthesize(8, 3, 0.5, 13, group_size=12)
    sets = dnl.make_knapsack(series, False, 5.0)
    warm = dnl.LinearModel(np.random.default_rng(13).normal(size=sets[0].feature_dim), 1.0)
    config = dnl.TrainConfig(variant=variant, batch_size=3, max_epochs=3, rng_seed=1)
    return dnl.train(sets[:5], sets[5:], config, oracle, warm), sets[:5], sets[5:]


@pytest.mark.parametrize("run", [moving_training, unmoved_training, shared_unit_training])
@pytest.mark.parametrize("variant", list(dnl.Variant))
class TestOwnAnswerMemo:
    def test_no_decision_solved_twice(self, run, variant):
        # Without the memo, the snapshot of an unmoved model and probes at
        # the current value solve decisions already solved.
        oracle = RepeatCountingOracle()
        trace, _, _ = run(variant, oracle)
        assert oracle.calls > 0 and oracle.repeats == 0
        assert trace.total_oracle_calls == oracle.calls

    def test_best_model_carries_no_memo(self, run, variant):
        trace, train_sets, val_sets = run(variant, dnl.SolverOracle())
        for ps in [*train_sets, *val_sets]:
            oracle = dnl.SolverOracle()
            dnl.regret_of(trace.best_model, ps, oracle, dnl.TrueOptimumCache())
            assert oracle.calls == 2

    def test_rescored_best_model_gives_best_val_regret(self, run, variant):
        trace, _, val_sets = run(variant, dnl.SolverOracle())
        regret, _ = dnl.evaluate_model_regret(trace.best_model, val_sets, dnl.SolverOracle())
        assert regret == trace.best_val_regret


# Per (problem, variant): per-epoch oracle calls, best epoch, per-epoch train
# and validation regrets, and the best model's coefficients, as recorded from
# `pinned_training`. A change that keeps every answer must keep these.
PINNED_TRAJECTORIES = {
    ("unit-knapsack", "dnl"): (
        [32, 540, 1062, 1568], 0,
        [0.6424469798126365, 0.623092312304174, 0.5957634898960629, 0.5957634898960629],
        [0.2597656095064771] * 4,
        [1.6012039590199065, 2.7510908157928595, 3.483487926838636],
    ),
    ("unit-knapsack", "dnl-max"): (
        [32, 532, 1034, 1542], 0,
        [0.6424469798126365, 0.5432647656073993, 0.5014647181062146, 0.5432647656073993],
        [0.2597656095064771] * 4,
        [1.6012039590199065, 2.7510908157928595, 3.483487926838636],
    ),
    ("unit-knapsack", "dnl-greedy"): (
        [32, 458, 899, 1345], 0,
        [0.6424469798126365, 0.623092312304174, 0.5957634898960629, 0.5966660892679343],
        [0.2597656095064771] * 4,
        [1.6012039590199065, 2.7510908157928595, 3.483487926838636],
    ),
    ("weighted-knapsack", "dnl"): (
        [32, 708, 1374, 2060], 0,
        [2.036842561585916, 2.036842561585916, 1.7766002954638063, 1.7766002954638063],
        [1.4881252678980275] * 4,
        [8.798114016983687, 14.786746549073268, 17.83409911921075, 8.938523665420687],
    ),
    ("weighted-knapsack", "dnl-max"): (
        [32, 702, 1344, 1998], 0,
        [2.036842561585916, 1.7766002954638063, 2.036842561585916, 2.036842561585916],
        [1.4881252678980275, 1.4881252678980275, 5.864186005345005, 5.864186005345005],
        [8.798114016983687, 14.786746549073268, 17.83409911921075, 8.938523665420687],
    ),
    ("weighted-knapsack", "dnl-greedy"): (
        [32, 629, 1225, 1799], 0,
        [2.036842561585916, 2.7477554190595543, 2.7477554190595543, 2.7477554190595543],
        [1.4881252678980275, 1.4881252678980275, 6.034899738480419, 6.034899738480419],
        [8.798114016983687, 14.786746549073268, 17.83409911921075, 8.938523665420687],
    ),
    ("scheduling", "dnl"): (
        [32, 196, 356, 518], 0,
        [0.17867294755995797, 0.2282307230698178, 0.2282307230698178, 0.1842049858557512],
        [0.9250861231407583] * 4,
        [1.6012039590199065, 2.7510908157928595, 3.483487926838636],
    ),
    ("scheduling", "dnl-max"): (
        [32, 196, 356, 516], 0,
        [0.17867294755995797, 0.2282307230698178, 0.10398878218911177, 0.2282307230698178],
        [0.9250861231407583] * 4,
        [1.6012039590199065, 2.7510908157928595, 3.483487926838636],
    ),
    ("scheduling", "dnl-greedy"): (
        [32, 223, 420, 617], 0,
        [0.17867294755995797, 0.2282307230698178, 0.10398878218911177, 0.2282307230698178],
        [0.9250861231407583] * 4,
        [1.6012039590199065, 2.7510908157928595, 3.483487926838636],
    ),
}


def pinned_training(problem, variant):
    """Three epochs in batches of four on one fold of 20 synthetic days of
    24 rows, from a `select_ridge` warm start."""
    series = dnl.synthesize(20, 3, 0.5, 11, group_size=24)
    if problem == "scheduling":
        problem_sets = dnl.make_scheduling(series, 2, 3, seed=1)
    else:
        weighted = problem == "weighted-knapsack"
        problem_sets = dnl.make_knapsack(series, weighted, 30.0 if weighted else 6.0, seed=12)
    fold = dnl.split(problem_sets, dnl.SplitSpec(folds=1))[0]
    warm, _ = dnl.select_ridge(fold.train, fold.val, dnl.SolverOracle())
    config = dnl.TrainConfig(variant=variant, batch_size=4, max_epochs=3)
    return dnl.train(fold.train, fold.val, config, dnl.SolverOracle(), warm)


@pytest.mark.parametrize("problem, variant", PINNED_TRAJECTORIES)
def test_training_trajectory_is_pinned(problem, variant):
    # Exact counts; the floats allow last-bit BLAS differences between hosts.
    calls, best_epoch, train_regrets, val_regrets, coefficients = (
        PINNED_TRAJECTORIES[problem, variant])
    trace = pinned_training(problem, variant)
    assert [e.oracle_calls for e in trace.epochs] == calls
    assert trace.best_epoch == best_epoch
    assert [e.train_regret for e in trace.epochs] == pytest.approx(train_regrets, rel=1e-9)
    assert [e.val_regret for e in trace.epochs] == pytest.approx(val_regrets, rel=1e-9)
    assert trace.best_model.coefficients.tolist() == pytest.approx(coefficients, rel=1e-9)


class TestTraceCsv:
    def test_schema_and_determinism(self, tmp_path, oracle):
        sets, hidden = realizable_sets(8)
        config = dnl.TrainConfig(variant="dnl", max_epochs=2, rng_seed=4)
        trace = dnl.train(sets[:6], sets[6:], config, oracle, hidden)
        path = tmp_path / "trace.csv"
        dnl.write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_regret,val_regret,seconds,oracle_calls"
        assert len(lines) == len(trace.epochs) + 1
        assert all(ln.split(",")[3] == "0.000000" for ln in lines[1:])


class TestConfigValidation:
    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            dnl.TrainConfig(batch_size=0)

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            dnl.TrainConfig(learning_rate=1.5)

    def test_negative_patience(self):
        with pytest.raises(ValueError, match="early_stop_patience"):
            dnl.TrainConfig(early_stop_patience=-1)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="rng_seed"):
            dnl.TrainConfig(rng_seed=-1)

    @pytest.mark.parametrize("seconds", [0.0, -1.0, float("nan")])
    def test_nonpositive_time_budget(self, seconds):
        with pytest.raises(ValueError, match="max_seconds"):
            dnl.TrainConfig(max_seconds=seconds)

    def test_variant_coercion(self):
        assert dnl.TrainConfig(variant="dnl-greedy").variant is dnl.Variant.DNL_GREEDY
