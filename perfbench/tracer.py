"""In-memory span tracing around the public functions of each `dnl` module.

While installed, the tracer replaces every reference to a traced function in
the `dnl` modules with a wrapper that records a span: name, parent span,
start and end. Spans sit in flat arrays and are summarised into per-layer
metrics, and optionally written out, after the traced work ends. The layers
are the package modules, and a span is named ``<module>.<function>``.

Seconds in the metrics are scaled to nominal host speed like the run's
`train_s`: `assign_speed` gives the outermost spans opened since its last
call a factor, and the spans inside them inherit it. The written spans keep
raw wall times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from contextlib import contextmanager
from statistics import fmean

# Public functions traced per module; methods are given as "Class.method".
TRACED = {
    "core": ("predict", "knapsack_solution", "scheduling_solution"),
    "data": ("synthesize", "make_knapsack", "make_scheduling", "split"),
    "ridge": ("fit_ridge", "select_ridge"),
    "training": ("train", "candidate_betas", "select_beta_full", "select_beta_max"),
    "transitions": ("extract_full", "extract_greedy"),
    "evaluation": (
        "regret_of", "pov", "tov", "evaluate_model_regret", "TrueOptimumCache.true_optimal",
    ),
    "oracles": (
        "SolverOracle.solve", "solve_knapsack_dp", "solve_knapsack_bb", "solve_scheduling",
    ),
}
MODULES = ("core", "data", "ridge", "training", "transitions", "evaluation", "oracles")

EXTRACT = ("transitions.extract_full", "transitions.extract_greedy")
SELECT = ("training.select_beta_full", "training.select_beta_max")
SOLVE = "oracles.SolverOracle.solve"
BACKENDS = {
    "dp": "oracles.solve_knapsack_dp",
    "bb": "oracles.solve_knapsack_bb",
    "sched": "oracles.solve_scheduling",
}
DATA = ("data.synthesize", "data.make_knapsack", "data.make_scheduling", "data.split")

# Per-layer metrics with their units, in output order.
UNITS = {
    **{
        f"oracles.{b}.{k}": u
        for b in BACKENDS
        for k, u in (("calls", "count"), ("s", "s"), ("us_per_call", "us"))
    },
    "oracles.dp.fallbacks": "count",
    **{f"oracles.s.under_{c}": "s" for c in ("extract", "select", "snapshot")},
    **{f"oracles.calls.under_{c}": "count" for c in ("extract", "select", "snapshot")},
    "core.knapsack_solution.s": "s",
    "core.scheduling_solution.s": "s",
    "core.predict.calls": "count",
    "core.predict.s": "s",
    "transitions.extract.calls": "count",
    "transitions.extract.s": "s",
    "transitions.extract.self_s": "s",
    "transitions.extract.oracle_calls": "count",
    "transitions.probes_per_profile": "count",
    "transitions.intervals_per_profile": "count",
    "transitions.truncated_share": "ratio",
    "training.select.calls": "count",
    "training.select.s": "s",
    "training.select.self_s": "s",
    "training.select.oracle_calls": "count",
    "training.candidates_per_select": "count",
    "training.move_share": "ratio",
    "training.loop_self_s": "s",
    "evaluation.snapshot.s": "s",
    "evaluation.snapshot.oracle_calls": "count",
    "evaluation.regret_of.calls": "count",
    "evaluation.pov.calls": "count",
    "evaluation.tov.calls": "count",
    "evaluation.true_opt_cache.hit_share": "ratio",
    "data.build_s": "s",
    "ridge.select_s": "s",
    "ridge.oracle_calls": "count",
    "trace.train_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "host.speed": "ratio",
    "host.wall_train_s": "s",
    "host.wall_setup_s": "s",
}


def _mean(values) -> float:
    values = list(values)
    return fmean(values) if values else 0.0


def _profile_notes(arguments, profile):
    return len(profile.intervals), profile.probe_count, profile.truncated


def _select_notes(arguments, beta, candidate_betas):
    current = float(arguments["model"].coefficients[arguments["beta_index"]])
    if "candidates" in arguments:
        count = len(arguments["candidates"])
    else:
        count = len(candidate_betas(arguments["profiles"], current))
    return count, beta != current


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.notes: dict[int, tuple] = {}  # span index -> facts read off its call
        self.failed: set[int] = set()  # spans whose call raised
        self.root_speed: dict[int, float] = {}  # outermost span index -> its factor
        self._unscaled_roots: list[int] = []
        self._open = [-1]

    def _wrap(self, name, fn, notes=None):
        signature = inspect.signature(fn) if notes else None
        names, parents, starts, ends, open_ = (
            self.names, self.parents, self.starts, self.ends, self._open,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(open_[-1])
            if open_[-1] < 0:
                self._unscaled_roots.append(index)
            ends.append(0.0)
            open_.append(index)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed.add(index)
                raise
            finally:
                ends[index] = time.perf_counter()
                open_.pop()
            if notes is not None:
                self.notes[index] = notes(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace every call into the `dnl` modules for the duration of the block."""
        modules = {m: importlib.import_module(f"dnl.{m}") for m in MODULES}
        package = importlib.import_module("dnl")
        candidate_betas = modules["training"].candidate_betas
        notes = {name: _profile_notes for name in EXTRACT}
        for name in SELECT:
            notes[name] = lambda a, r: _select_notes(a, r, candidate_betas)
        restore = []
        wrappers = {}
        for module_name, functions in TRACED.items():
            module = modules[module_name]
            for qualname in functions:
                span = f"{module_name}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    restore.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(span, original, notes.get(span)))
                else:
                    original = getattr(module, attr)
                    wrappers[id(original)] = self._wrap(span, original, notes.get(span))
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def assign_speed(self, speed: float) -> None:
        """Scale the outermost spans opened since the last call by `speed`."""
        for index in self._unscaled_roots:
            self.root_speed[index] = speed
        self._unscaled_roots.clear()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_us,end_us\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{self.parents[i]},{name},"
                    f"{(self.starts[i] - t0) * 1e6:.1f},{(self.ends[i] - t0) * 1e6:.1f}\n"
                )

    def metrics(self) -> dict[str, float]:
        """Per-layer totals; oracle figures count only work inside `train`."""
        names, parents = self.names, self.parents
        n = len(names)
        speed = [1.0] * n
        for i in range(n):
            speed[i] = speed[parents[i]] if parents[i] >= 0 else self.root_speed[i]
        duration = [(self.ends[i] - self.starts[i]) * speed[i] for i in range(n)]
        child_time = [0.0] * n
        phase: list = [None] * n  # "train" or "ridge": the outermost phase span
        group: list = [None] * n  # "extract", "select" or "snapshot" inside train
        for i in range(n):
            p = parents[i]
            name = names[i]
            if p >= 0:
                child_time[p] += duration[i]
                phase[i], group[i] = phase[p], group[p]
            if name == "training.train":
                phase[i] = "train"
            elif name == "ridge.select_ridge":
                phase[i] = "ridge"
            elif name in EXTRACT:
                group[i] = "extract"
            elif name in SELECT:
                group[i] = "select"
            elif name == "evaluation.evaluate_model_regret" and p >= 0 \
                    and names[p] == "training.train":
                group[i] = "snapshot"

        calls: dict[str, int] = {}
        seconds: dict[str, float] = {}
        own: dict[str, float] = {}
        solve_parents: set[int] = set()
        out: dict[str, float] = {}
        group_calls = {"extract": 0, "select": 0, "snapshot": 0}
        group_solve_s = {"extract": 0.0, "select": 0.0, "snapshot": 0.0}
        ridge_calls = 0
        for i in range(n):
            name = names[i]
            if name == SOLVE:
                solve_parents.add(parents[i])
                if phase[i] == "ridge":
                    ridge_calls += 1
                if group[i] is not None and phase[i] == "train":
                    group_calls[group[i]] += 1
                    group_solve_s[group[i]] += duration[i]
            if phase[i] != "train":
                continue
            calls[name] = calls.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + duration[i]
            own[name] = own.get(name, 0.0) + duration[i] - child_time[i]

        for short, span in BACKENDS.items():
            c, s = calls.get(span, 0), seconds.get(span, 0.0)
            out[f"oracles.{short}.calls"] = c
            out[f"oracles.{short}.s"] = s
            out[f"oracles.{short}.us_per_call"] = s / c * 1e6 if c else 0.0
        out["oracles.dp.fallbacks"] = sum(
            1 for i in self.failed if names[i] == BACKENDS["dp"] and phase[i] == "train"
        )
        for g in group_calls:
            out[f"oracles.s.under_{g}"] = group_solve_s[g]
            out[f"oracles.calls.under_{g}"] = group_calls[g]
        out["core.knapsack_solution.s"] = seconds.get("core.knapsack_solution", 0.0)
        out["core.scheduling_solution.s"] = seconds.get("core.scheduling_solution", 0.0)
        out["core.predict.calls"] = calls.get("core.predict", 0)
        out["core.predict.s"] = seconds.get("core.predict", 0.0)

        profiles = [self.notes[i] for i in range(n) if names[i] in EXTRACT and i in self.notes]
        out["transitions.extract.calls"] = sum(calls.get(s, 0) for s in EXTRACT)
        out["transitions.extract.s"] = sum(seconds.get(s, 0.0) for s in EXTRACT)
        out["transitions.extract.self_s"] = sum(own.get(s, 0.0) for s in EXTRACT)
        out["transitions.extract.oracle_calls"] = group_calls["extract"]
        out["transitions.intervals_per_profile"] = _mean(p[0] for p in profiles)
        out["transitions.probes_per_profile"] = _mean(p[1] for p in profiles)
        out["transitions.truncated_share"] = _mean(p[2] for p in profiles)

        selects = [self.notes[i] for i in range(n) if names[i] in SELECT and i in self.notes]
        out["training.select.calls"] = sum(calls.get(s, 0) for s in SELECT)
        out["training.select.s"] = sum(seconds.get(s, 0.0) for s in SELECT)
        out["training.select.self_s"] = sum(own.get(s, 0.0) for s in SELECT)
        out["training.select.oracle_calls"] = group_calls["select"]
        out["training.candidates_per_select"] = _mean(s[0] for s in selects)
        out["training.move_share"] = _mean(s[1] for s in selects)
        out["training.loop_self_s"] = own.get("training.train", 0.0)

        out["evaluation.snapshot.s"] = sum(
            duration[i] for i in range(n)
            if group[i] == "snapshot" and names[i] == "evaluation.evaluate_model_regret"
        )
        out["evaluation.snapshot.oracle_calls"] = group_calls["snapshot"]
        for f in ("regret_of", "pov", "tov"):
            out[f"evaluation.{f}.calls"] = calls.get(f"evaluation.{f}", 0)
        lookups = [
            i for i in range(n)
            if names[i] == "evaluation.TrueOptimumCache.true_optimal" and phase[i] == "train"
        ]
        hits = sum(1 for i in lookups if i not in solve_parents)
        out["evaluation.true_opt_cache.hit_share"] = hits / len(lookups) if lookups else 0.0

        out["data.build_s"] = sum(
            duration[i] for i in range(n) if names[i] in DATA and parents[i] < 0
        )
        out["ridge.select_s"] = sum(
            duration[i] for i in range(n) if names[i] == "ridge.select_ridge" and parents[i] < 0
        )
        out["ridge.oracle_calls"] = ridge_calls
        out["trace.spans"] = n
        return out
