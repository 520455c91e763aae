from collections import Counter

import numpy as np
import pytest

import dnl
from dnl import cli
from dnl.cli import main


def run(argv):
    return main(argv)


class TestGenerate:
    def test_writes_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert run(["generate", "--days", "30", "--features", "3", "--seed", "1",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 30 * 48 + 1
        assert "wrote 1440 rows" in capsys.readouterr().out

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["generate", "--days", "3", "--seed", "9", "--out", str(a)])
        run(["generate", "--days", "3", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_days_is_usage_error(self, tmp_path):
        out = tmp_path / "series.csv"
        assert run(["generate", "--days", "0", "--out", str(out)]) == 1
        assert not out.exists()

    def test_zero_group_size_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert run(["generate", "--days", "3", "--group-size", "0", "--out", str(out)]) == 1
        assert "--group-size must be at least 1" in capsys.readouterr().err
        assert not out.exists()


DATA_FLAGS = [
    "--days", "6", "--features", "2", "--noise", "0.4", "--group-size", "8",
    "--problem", "unit-knapsack", "--capacity", "3", "--seed", "3",
]
TRAIN_FLAGS = [*DATA_FLAGS, "--epochs", "2"]


@pytest.mark.parametrize("command", [
    ["generate", "--days", "3"],
    ["train", *TRAIN_FLAGS],
    ["eval", *DATA_FLAGS, "--model", "absent.txt"],
    ["sweep", "--days", "6", "--capacities", "2"],
])
def test_negative_seed_is_usage_error(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "synthesize", None)
    out = tmp_path / "out"
    assert run([*command, "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "dnl: error: --seed must be nonnegative\n"
    assert not out.exists()


NON_FINITE = [
    (["generate", "--days", "3"], "--noise", "nan"),
    (["generate", "--days", "3"], "--noise", "inf"),
    (["train", *TRAIN_FLAGS], "--capacity", "nan"),
    (["train", *TRAIN_FLAGS], "--noise", "inf"),
    (["eval", *DATA_FLAGS, "--model", "absent.txt"], "--capacity", "nan"),
    (["eval", *DATA_FLAGS, "--model", "absent.txt"], "--noise", "inf"),
    (["sweep", "--days", "6"], "--capacities", "2 nan"),
]


@pytest.mark.parametrize("command, flag, values", NON_FINITE, ids=[
    f"{command[0]}-{flag[2:]}-{values.replace(' ', '-')}" for command, flag, values in NON_FINITE
])
def test_non_finite_data_flag_is_usage_error(tmp_path, capsys, monkeypatch, command, flag, values):
    # NaN and infinity are range errors like any other, reported before any
    # work; an infinite capacity means no limit (`test_capacity_above_total_weight`).
    monkeypatch.setattr(cli, "synthesize", None)
    out = tmp_path / "out"
    assert run([*command, flag, *values.split(), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"dnl: error: {flag} ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--out", "run"],
    ["sweep", "--capacities", "2", "--out", "sweep.csv"],
])
def test_training_flags_follow_the_library(argv):
    # The shared training defaults and the variant names come from
    # `TrainConfig` and `Variant`; `--epochs` keeps its own default of 10.
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    config = dnl.TrainConfig()
    assert (args.batch, args.lr, args.max_seconds, args.patience) == (
        config.batch_size, config.learning_rate, config.max_seconds, config.early_stop_patience
    )
    assert args.epochs == 10
    assert cli.VARIANTS == ("ridge", *(v.value for v in dnl.Variant))
    for variant in cli.VARIANTS:
        assert parser.parse_args([*argv, "--variant", variant]).variant == [variant]


class TestTrain:
    def test_writes_model_and_trace(self, tmp_path):
        out = tmp_path / "run"
        assert run(["train", *TRAIN_FLAGS, "--variant", "dnl", "--out", str(out)]) == 0
        assert (out / "dnl_model.txt").exists()
        assert (out / "dnl_trace.csv").exists()
        assert (out / "ridge_model.txt").exists()
        header = (out / "dnl_trace.csv").read_text().splitlines()[0]
        assert header == "epoch,train_regret,val_regret,seconds,oracle_calls"

    def test_trace_is_deterministic_across_runs(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        argv = ["train", *TRAIN_FLAGS, "--variant", "dnl-greedy"]
        assert run(argv + ["--out", str(out_a)]) == 0
        assert run(argv + ["--out", str(out_b)]) == 0
        trace_a = (out_a / "dnl-greedy_trace.csv").read_bytes()
        trace_b = (out_b / "dnl-greedy_trace.csv").read_bytes()
        assert trace_a == trace_b

    def test_ridge_only_variant(self, tmp_path):
        out = tmp_path / "ridge_run"
        assert run(["train", *TRAIN_FLAGS, "--variant", "ridge", "--out", str(out)]) == 0
        assert (out / "ridge_model.txt").exists()

    def test_scheduling_problem(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["train", "--problem", "scheduling", "--days", "6", "--group-size", "8",
                "--epochs", "1", "--variant", "dnl-max", "--out", str(out)]
        assert run(argv) == 0
        assert "dnl-max: test regret " in capsys.readouterr().out
        assert (out / "dnl-max_model.txt").exists()

    def test_missing_data_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        out = tmp_path / "run"
        assert run(["train", *TRAIN_FLAGS, "--data", str(missing), "--out", str(out)]) == 1
        assert f"dnl: error: data file not found: {missing}" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_failure_exits_2(self, tmp_path, capsys):
        # Ten jobs in one-period days on one machine: no draw is feasible.
        out = tmp_path / "run"
        argv = ["train", "--problem", "scheduling", "--days", "6", "--group-size", "1",
                "--machines", "1", "--jobs", "10", "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("dnl: failed: could not generate a feasible load")
        assert not out.exists()

    def test_bad_fold_index(self, tmp_path):
        assert run(["train", *TRAIN_FLAGS, "--fold", "7", "--out", str(tmp_path)]) == 1

    def test_more_folds_than_days_fails_before_training(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", *TRAIN_FLAGS, "--folds", "10", "--out", str(out)]) == 1
        assert "10 folds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--batch", "0"), ("--lr", "2"), ("--epochs", "0"),
        ("--patience", "-1"), ("--max-seconds", "-1"),
    ])
    def test_bad_training_flag_fails_before_training(self, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        assert run(["train", *TRAIN_FLAGS, flag, value, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("dnl: error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--days", "0"), ("--features", "0"), ("--group-size", "0"), ("--noise", "-1"),
        ("--capacity", "-3"), ("--capacity", "0"), ("--machines", "0"), ("--jobs", "-2"),
        ("--folds", "0"), ("--fold", "7"),
    ])
    def test_bad_data_flag_fails_before_work(self, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(cli, "synthesize", None)
        out = tmp_path / "run"
        argv = ["train", *TRAIN_FLAGS, "--problem", "scheduling", flag, value, "--out", str(out)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("dnl: error: ") and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("capacity", ["1e20", "inf"])
    def test_capacity_above_total_weight(self, tmp_path, capacity):
        argv = ["train", *TRAIN_FLAGS, "--problem", "weighted-knapsack",
                "--capacity", capacity, "--epochs", "1", "--out", str(tmp_path)]
        assert run(argv) == 0

    def test_each_test_set_solved_once(self, tmp_path, monkeypatch):
        # One cache serves the warm start and every variant's test regret.
        # Each row of a `solve_rows` block counts as a solve of that row.
        solved = Counter()
        original, original_rows = dnl.SolverOracle.solve, dnl.SolverOracle.solve_rows

        def counting(self, values, constraint):
            solved[np.asarray(values, dtype=float).tobytes()] += 1
            return original(self, values, constraint)

        def counting_rows(self, values, constraint):
            solved.update(row.tobytes() for row in np.asarray(values, dtype=float))
            return original_rows(self, values, constraint)

        monkeypatch.setattr(dnl.SolverOracle, "solve", counting)
        monkeypatch.setattr(dnl.SolverOracle, "solve_rows", counting_rows)
        argv = ["train", *TRAIN_FLAGS, "--days", "12", "--epochs", "1",
                "--variant", "dnl", "--variant", "dnl-max", "--variant", "ridge",
                "--out", str(tmp_path)]
        assert run(argv) == 0
        args = cli.build_parser().parse_args(argv)
        fold = cli._folds(cli._build_dataset(args, cli._load_series(args)), args)[0]
        assert len(fold.test) == 2
        assert [solved[ps.true_values.tobytes()] for ps in fold.test] == [1, 1]
        # `train` keeps its own cache: the ridge warm start and both trainings
        # each solve every validation set once.
        assert [solved[ps.true_values.tobytes()] for ps in fold.val] == [3]

    def test_unknown_variant_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["train", *TRAIN_FLAGS, "--variant", "sgd", "--out", str(tmp_path)])
        assert exc.value.code == 1


class TestEval:
    @pytest.mark.parametrize("folds", [1, 2])
    def test_table_and_aggregate_consistency(self, tmp_path, folds):
        # With one fold the test block is not every set; the `all` row
        # counts the sets scored.
        out = tmp_path / "run"
        run(["train", *TRAIN_FLAGS, "--variant", "ridge", "--out", str(out)])
        table = tmp_path / "eval.csv"
        assert run([
            "eval", *DATA_FLAGS, "--folds", str(folds),
            "--model", str(out / "ridge_model.txt"), "--out", str(table),
        ]) == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "model,fold,mean_regret,std_regret,problem_sets"
        rows = [ln.split(",") for ln in lines[1:]]
        fold_rows = [r for r in rows if r[1] != "all"]
        fold_means = [float(r[2]) for r in fold_rows]
        agg = [r for r in rows if r[1] == "all"][0]
        assert len(fold_rows) == folds
        assert float(agg[2]) == pytest.approx(float(np.mean(fold_means)), abs=1e-9)
        std = float(np.std(fold_means, ddof=1)) if folds > 1 else 0.0
        assert float(agg[3]) == pytest.approx(std, abs=1e-9)
        assert int(agg[4]) == sum(int(r[4]) for r in fold_rows)
        assert all(r[2] == f"{float(r[2]):.12g}" and r[4].isdigit() for r in rows)

    def test_perfect_model_gives_zero_rows(self, tmp_path):
        # Noise-free series and the hidden generator model: regret must be 0.
        series = dnl.synthesize(6, 2, 0.0, seed=3, group_size=8)
        data_csv = tmp_path / "series.csv"
        dnl.write_series_csv(series, data_csv)
        model_path = tmp_path / "hidden_model.txt"
        dnl.save_model(series.hidden_model, model_path)
        table = tmp_path / "eval.csv"
        assert run([
            "eval", "--data", str(data_csv), "--features", "2", "--group-size", "8",
            "--problem", "unit-knapsack", "--capacity", "3",
            "--model", str(model_path), "--out", str(table), "--seed", "3",
        ]) == 0
        rows = [ln.split(",") for ln in table.read_text().splitlines()[1:]]
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_missing_model_file(self, tmp_path):
        table = tmp_path / "eval.csv"
        assert run([
            "eval", *DATA_FLAGS, "--model", str(tmp_path / "nope.txt"),
            "--out", str(table),
        ]) == 1


class TestSweep:
    def test_capacity_sweep_rows(self, tmp_path):
        table = tmp_path / "sweep.csv"
        assert run([
            "sweep", "--days", "6", "--features", "2", "--noise", "0.4",
            "--group-size", "8", "--problem", "unit-knapsack",
            "--capacities", "2", "4", "6",
            "--variant", "ridge", "--variant", "dnl-greedy",
            "--epochs", "1", "--seed", "5", "--out", str(table),
        ]) == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "capacity,variant,mean_regret,std_regret"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 3 * 2
        capacities = [float(r[0]) for r in rows]
        assert capacities == sorted(capacities)
        assert [r[0] for r in rows] == ["2", "2", "4", "4", "6", "6"]

    def test_each_run_has_its_own_oracle_and_one_series(self, tmp_path, monkeypatch):
        # Ridge selection and every training get a fresh oracle, so a trace
        # counts only its own calls; the series is built once for all
        # capacities.
        starts, builds = [], []
        original_train, original_synthesize = cli.train, cli.synthesize

        def recording_train(train_sets, val_sets, config, oracle, warmstart):
            starts.append(oracle.calls)
            return original_train(train_sets, val_sets, config, oracle, warmstart)

        def counting_synthesize(*args):
            builds.append(args)
            return original_synthesize(*args)

        monkeypatch.setattr(cli, "train", recording_train)
        monkeypatch.setattr(cli, "synthesize", counting_synthesize)
        assert run([
            "sweep", "--days", "6", "--features", "2", "--group-size", "8",
            "--capacities", "2", "4", "--folds", "2", "--variant", "ridge",
            "--variant", "dnl", "--variant", "dnl-max", "--epochs", "1",
            "--out", str(tmp_path / "sweep.csv"),
        ]) == 0
        assert starts == [0] * 2 * 2 * 2
        assert len(builds) == 1

    def test_missing_capacities_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--days", "4", "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 1

    def test_bad_training_flag_fails_before_training(self, tmp_path, capsys):
        table = tmp_path / "sweep.csv"
        assert run([
            "sweep", "--days", "6", "--features", "2", "--group-size", "8",
            "--capacities", "2", "--batch", "0", "--out", str(table),
        ]) == 1
        assert capsys.readouterr().err.startswith("dnl: error: batch_size")
        assert not table.exists()

    def test_zero_capacity_is_usage_error(self, tmp_path, capsys):
        table = tmp_path / "s.csv"
        assert run(["sweep", "--days", "4", "--capacities", "2", "0", "--out", str(table)]) == 1
        assert "--capacities must be positive" in capsys.readouterr().err
        assert not table.exists()
