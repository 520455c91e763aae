"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

For every workload and end-to-end metric it reports the median of the runs
and the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. It also
checks each spread against the metric's bound in BENCHMARK.json. With --out,
it also makes one traced run per workload and measures host noise by
repeating one seed, and writes all of it with the environment it was
measured in. Workloads and run length come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRACE_SEED = 0  # with --out: the seed of one traced run per workload
NOISE_RUNS = 5  # with --out: repeats of TRACE_SEED that measure host noise


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _spread(runs: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return (q3 - q1) / statistics.median(runs)


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "load_average_at_start": os.getloadavg()[0],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    environment = _environment()
    summary: dict = {}
    within = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            started = time.perf_counter()
            result = _run(workload, seed, seconds, 0)
            print(f"{workload} seed {seed}: {time.perf_counter() - started:.1f}s wall, "
                  f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for metric in spec["end_to_end"]:
            runs = values[metric["name"]]
            median = statistics.median(runs)
            spread = _spread(runs)
            ok = spread <= metric["bound"]
            within = within and ok
            rows[metric["name"]] = {
                "median": median, "spread": spread, "bound": metric["bound"],
                "unit": metric["unit"], "runs": runs,
            }
            print(f"  {metric['name']:16s} median {median:12.6g} {metric['unit']:7s} "
                  f"spread {spread:.3f} (bound {metric['bound']}){'' if ok else '  OVER BOUND'}")
        summary[workload] = {"seeds": args.seeds, "end_to_end": rows}
        if args.out:
            traced = _run(workload, TRACE_SEED, seconds, 1)
            summary[workload]["per_layer_seed"] = TRACE_SEED
            summary[workload]["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
            repeats = [_run(workload, TRACE_SEED, seconds, 0)["metrics"]
                       for _ in range(NOISE_RUNS)]
            summary[workload]["host_noise"] = {
                name: {"runs": runs, "spread": _spread(runs)}
                for name in ("train_s", "setup_s")
                for runs in [[r[name]["value"] for r in repeats]]
            }
    if args.out:
        args.out.write_text(json.dumps(
            {"environment": environment, "run_seconds": seconds, "workloads": summary},
            indent=2,
        ) + "\n")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
