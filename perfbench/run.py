"""Seeded end-to-end benchmark of `dnl` training.

Run from the root of a checkout:

    python3 perfbench/run.py --workload knapsack-unit-dnl --seed 0 --seconds 30 --trace 0

A run works in rounds for about --seconds. Each round builds the workload's
instances from the seed (data synthesis, problems, split, ridge warm start)
and trains every instance, timing the set-up and each `dnl.train` call.
Outputs are checked outside the timed regions: decisions are feasible,
regrets are nonnegative, the solvers agree with independent references, and
every round repeats the first exactly. With --trace 1 a further traced round gives per-layer metrics
and must match the untraced rounds exactly. The last line of standard output
is one JSON object with the metrics; the exit code is 0 only when every
check passed. `--workload all` runs each workload in its own process.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so runs measure single-threaded work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import SpeedSampler

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_SETUPS = 5

END_TO_END_UNITS = {
    "train_s": "s",
    "setup_s": "s",
    "oracle_calls": "count",
    "test_regret": "regret",
    "val_regret": "regret",
    "peak_rss_mb": "MB",
    "success_share": "ratio",
}


def _import_package():
    src = ROOT / "src"
    if not (src / "dnl" / "__init__.py").is_file():
        sys.exit(f"run.py: {src / 'dnl'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import dnl

    if Path(dnl.__file__).resolve().parent != src / "dnl":
        sys.exit(f"run.py: imported dnl from {dnl.__file__}, not from {src}")


class Run:
    """Attempts, failures and failed checks of one benchmark run.

    A training attempt fails when it raises, hits its time budget or fails a
    check. Only failed checks make the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, outcome, expected):
        """Count one training attempt; compare it with the instance's first result."""
        self.attempted += 1
        if outcome.error is not None:
            self.failed += 1
            print(f"training failed: {outcome.error}", file=sys.stderr)
        elif expected is not None and outcome.fingerprint() != expected.fingerprint():
            self.failed += 1
            self.problems.append("a repeated training gave a different result")


def _warmstarts(instances) -> list:
    return [(i.warmstart.coefficients.tobytes(), i.warmstart.intercept) for i in instances]


def _timed(call, tracer=None):
    """Run `call` under a speed sampler. Returns its result, its wall seconds
    without the sampler's passes, and the speed that scales them."""
    with SpeedSampler() as sampler:
        started = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - started
    seconds = elapsed - sampler.spent
    if tracer is not None:
        # The call's spans include the sampler's passes; scaling by
        # seconds / elapsed takes them out in proportion.
        tracer.assign_speed(sampler.speed * seconds / elapsed)
    return result, seconds, sampler.speed


class Timings:
    """Measured seconds of one run, each also scaled to nominal host speed."""

    def __init__(self, instances: int):
        self.train = [[] for _ in range(instances)]  # scaled, per instance
        self.wall_train = [[] for _ in range(instances)]
        self.setup: list[float] = []  # scaled
        self.wall_setup: list[float] = []
        self.speed: list[float] = []  # nominal over measured reference time

    def add(self, seconds: float, speed: float, scaled: list, wall: list) -> None:
        scaled.append(seconds * speed)
        wall.append(seconds)
        self.speed.append(speed)

    def set_up(self, workload, seed, tracer=None) -> list:
        """Build every instance, timing each build on its own."""
        from workloads import build_instance, data_seeds

        instances, scaled, wall = [], [], []
        for data_seed in data_seeds(workload, seed):
            instance, seconds, speed = _timed(
                functools.partial(build_instance, workload, data_seed), tracer
            )
            instances.append(instance)
            self.add(seconds, speed, scaled, wall)
        self.setup.append(sum(scaled))
        self.wall_setup.append(sum(wall))
        return instances

    def train_s(self, lists=None) -> float:
        """One round's training: the sum of each instance's median time."""
        return sum(statistics.median(t) for t in (lists or self.train) if t)


def _rounds(workload, seed, budget, run):
    """Set up and train every instance, round after round, until another round
    would overrun the budget. Each instance's set-up and each `train` call is
    timed on its own. After a single round the first instance trains once
    more, so that a run always repeats a training, and the set-up repeats
    until it has been timed MIN_SETUPS times. Returns each instance's first
    outcome and the timings."""
    from checks import check_instance
    from workloads import score, train_instance

    firsts: list = [None] * workload.instances
    timings = Timings(workload.instances)
    warmstarts: list = []
    enumerators: dict = {}

    def set_up():
        instances = timings.set_up(workload, seed)
        warmstarts.append(_warmstarts(instances))
        if warmstarts[-1] != warmstarts[0]:
            run.problems.append("a repeated set-up gave a different ridge warm start")
        return instances

    def train(k, instance):
        outcome, seconds, speed = _timed(functools.partial(train_instance, workload, instance))
        run.record(outcome, firsts[k])
        if outcome.error is None:
            timings.add(seconds, speed, timings.train[k], timings.wall_train[k])
        return outcome

    started = time.perf_counter()
    checking = 0.0  # scoring and check time does not count against the budget
    while True:
        instances = set_up()
        for k, instance in enumerate(instances):
            outcome = train(k, instance)
            if outcome.error is None and firsts[k] is None:
                firsts[k] = outcome
                check_started = time.perf_counter()
                score(instance, outcome)
                found = check_instance(instance, outcome.trace, enumerators)
                checking += time.perf_counter() - check_started
                if found:
                    run.failed += 1
                    run.problems.extend(found)
        rounds = len(timings.setup)
        elapsed = time.perf_counter() - started - checking
        if elapsed * (rounds + 1) / rounds > budget:
            break
    if rounds == 1:
        train(0, instances[0])
    while len(timings.setup) < MIN_SETUPS:
        set_up()
    return firsts, timings


def _end_to_end(firsts, timings, run) -> dict[str, float]:
    done = [o for o in firsts if o is not None]
    return {
        "train_s": timings.train_s(),
        "setup_s": statistics.median(timings.setup),
        "oracle_calls": sum(o.oracle_calls for o in done),
        "test_regret": statistics.fmean(o.test_regret for o in done),
        "val_regret": statistics.fmean(o.trace.best_val_regret for o in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_share": (run.attempted - run.failed) / run.attempted,
    }


def _traced_round(workload, seed, firsts, timings, run, trace_path):
    """One more set-up and round under the tracer; it must match the untraced rounds."""
    from tracer import Tracer
    from workloads import score, train_instance

    tracer = Tracer()
    traced_train_s = 0.0
    with tracer.installed():
        instances = Timings(workload.instances).set_up(workload, seed, tracer)
        outcomes = []
        for instance in instances:
            outcome, seconds, speed = _timed(
                functools.partial(train_instance, workload, instance), tracer
            )
            outcomes.append(outcome)
            traced_train_s += seconds * speed
    for instance, outcome, first in zip(instances, outcomes, firsts):
        run.record(outcome, first)
        if outcome.error is None and first is not None:
            score(instance, outcome)
            if outcome.test_regret != first.test_regret:
                run.problems.append("the traced round gave a different test regret")
    metrics = tracer.metrics()
    backend_calls = (
        metrics["oracles.dp.calls"] - metrics["oracles.dp.fallbacks"]
        + metrics["oracles.bb.calls"] + metrics["oracles.sched.calls"]
    )
    untraced_calls = sum(o.oracle_calls for o in firsts if o is not None)
    if backend_calls != untraced_calls:
        run.problems.append(
            f"traced backend calls {backend_calls} != untraced oracle_calls {untraced_calls}"
        )
    metrics["trace.train_s"] = traced_train_s
    metrics["trace.overhead_s"] = traced_train_s - timings.train_s()
    metrics["host.speed"] = statistics.median(timings.speed)
    metrics["host.wall_train_s"] = timings.train_s(timings.wall_train)
    metrics["host.wall_setup_s"] = statistics.median(timings.wall_setup)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_csv(trace_path)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    from tracer import UNITS
    from workloads import WORKLOADS

    workload = WORKLOADS[name].smoke() if smoke else WORKLOADS[name]
    run = Run()
    budget = seconds / 2 if trace else seconds
    firsts, timings = _rounds(workload, seed, budget, run)
    if not any(firsts):
        print(f"run.py: every training of {name} failed", file=sys.stderr)
        return 2
    values = _end_to_end(firsts, timings, run)
    units = END_TO_END_UNITS
    if trace:
        trace_path = ROOT / ".bench_out" / f"trace-{name}-seed{seed}.csv"
        values = _traced_round(workload, seed, firsts, timings, run, trace_path)
        units = UNITS
        print(f"spans written to {trace_path}")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not run.problems
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for key, metric in metrics.items():
        print(f"{name:26s} {key:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    _import_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="training time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
