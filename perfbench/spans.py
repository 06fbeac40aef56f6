"""In-memory span tracing for the benchmark, applied from outside the package.

The softirl modules import each other's functions by name, so a call is
traced by replacing the name the *caller* looks up (e.g.
`softirl.harness.evaluate`, not only `softirl.metrics.evaluate`). Each call
through a wrapper records one span: name, start, end, parent span and an
optional dict of counts taken from the call's result. Nothing under
`src/softirl` is modified; every patched name is restored on exit.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, INFO = range(5)


@contextmanager
def patched(targets):
    """Set each (module, attribute, value) for the duration of the block."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, value in targets:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _records(args, dataset):
    return {"records": dataset.n}


def _iterations(args, solution):
    return {"K": solution.diagnostics.iterations}


def _epochs(args, fit):
    return {"epochs": fit.diagnostics["epochs_run"]}


def _train_size(args, fitted):
    return {"records": fitted.diagnostics["n_train"]}


def _file_size(args, result):
    return {"bytes": os.path.getsize(args[1])}


def trace_sites():
    """(module, attribute, result-info) for every call site the trace wraps."""
    from softirl import envs, harness, maxent, mdp, metrics, solver

    sites = [(harness, name, info) for name, info in (
        ("run_experiment", None), ("build_env", None), ("expert_policy", None),
        ("sample_transitions", _records), ("classify_then_regress", _iterations),
        ("split_classify_regress", _iterations), ("maxent_fit", _epochs),
        ("evaluate", None))]
    sites += [(module, "soft_value_iteration", None) for module in (maxent, metrics, envs)]
    sites += [(solver, "fit_classifier", None), (solver, "fit_regressor", _train_size),
              (mdp, "apply_P", None)]
    # cli imports these module attributes at call time.
    sites += [(envs, name, info) for name, info in (
        ("build_env", None), ("expert_policy", None), ("sample_transitions", _records),
        ("write_dataset", _file_size), ("read_dataset", _records))]
    sites += [(solver, name, info) for name, info in (
        ("classify_then_regress", _iterations), ("split_classify_regress", _iterations),
        ("exact_population_solver", None))]
    sites += [(metrics, "evaluate", None)]
    return sites


class Tracer:
    """Records spans as [name, start, end, parent index, info] lists."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return self.spans[index]

    def _close(self, span):
        self._stack.pop()
        span[END] = time.perf_counter()

    def wrap(self, fn, name, info=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return traced

    @contextmanager
    def section(self, name):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def instrument(self):
        """Wrap every trace site, naming each span `<module>.<function>`."""
        targets = []
        for module, attr, info in trace_sites():
            fn = getattr(module, attr)
            layer = fn.__module__.rsplit(".", 1)[-1]
            targets.append((module, attr, self.wrap(fn, f"{layer}.{fn.__name__}", info)))
        with patched(targets):
            yield self


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, window, untraced_wall_s: float, failed_reruns: int,
                  nonzero_exits: int) -> dict:
    """Per-layer totals over the spans of a traced run whose timed section
    spans `window` (t0, t1); `untraced_wall_s` is the same work untraced."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(lambda: defaultdict(float))
    sweeps = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        total[name] += duration
        self_s[name] += duration - child_s[i]
        calls[name] += 1
        for key, value in (span[INFO] or {}).items():
            info[name][key] += value
        if name == "mdp.apply_P" and span[PARENT] >= 0 \
                and spans[span[PARENT]][NAME] == "mdp.soft_value_iteration":
            sweeps += 1
    svi_in_eval = sum(1 for s in spans if s[NAME] == "mdp.soft_value_iteration"
                      and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "metrics.evaluate")

    t0, t1 = window
    traced_wall_s = t1 - t0
    covered = sum(s[END] - s[START] for s in spans
                  if s[PARENT] < 0 and s[START] >= t0 and s[END] <= t1)
    svi = "mdp.soft_value_iteration"
    fit = "maxent.maxent_fit"
    solves = ("solver.classify_then_regress", "solver.split_classify_regress")
    n_solves = sum(calls[n] for n in solves)
    return {
        "mdp.svi_calls": calls[svi],
        "mdp.svi_s": total[svi],
        "mdp.bellman_sweeps": sweeps,
        "mdp.sweeps_per_svi": _ratio(sweeps, calls[svi]),
        "maxent.fit_s": total[fit],
        "maxent.epochs": int(info[fit]["epochs"]),
        "maxent.epoch_s": _ratio(total[fit], info[fit]["epochs"]),
        "maxent.self_s": self_s[fit],
        "envs.build_env_s": total["envs.build_env"],
        "envs.build_env_calls": calls["envs.build_env"],
        "envs.expert_policy_s": total["envs.expert_policy"],
        "envs.sample_transitions_s": total["envs.sample_transitions"],
        "envs.records_per_s": _ratio(info["envs.sample_transitions"]["records"],
                                     total["envs.sample_transitions"]),
        "envs.write_dataset_s": total["envs.write_dataset"],
        "envs.read_dataset_s": total["envs.read_dataset"],
        "envs.dataset_bytes": int(info["envs.write_dataset"]["bytes"]),
        "solver.classify_then_regress_s": total[solves[0]],
        "solver.split_classify_regress_s": total[solves[1]],
        "solver.exact_population_solver_s": total["solver.exact_population_solver"],
        "solver.K": _ratio(sum(info[n]["K"] for n in solves), n_solves),
        "solver.self_s": sum(self_s[n] for n in solves + ("solver.exact_population_solver",)),
        "oracles.fit_classifier_s": total["oracles.fit_classifier"],
        "oracles.fit_regressor_calls": calls["oracles.fit_regressor"],
        "oracles.fit_regressor_s": total["oracles.fit_regressor"],
        "oracles.records_per_fit": _ratio(info["oracles.fit_regressor"]["records"],
                                          calls["oracles.fit_regressor"]),
        "metrics.evaluate_calls": calls["metrics.evaluate"],
        "metrics.evaluate_s": total["metrics.evaluate"],
        "metrics.svi_per_evaluate": _ratio(svi_in_eval, calls["metrics.evaluate"]),
        "harness.run_experiment_s": total["harness.run_experiment"],
        "harness.self_s": self_s["harness.run_experiment"],
        "harness.failed_reruns": failed_reruns,
        "cli.gen-data_s": total["cli.gen-data"],
        "cli.solve_s": total["cli.solve"],
        "cli.eval_s": total["cli.eval"],
        "cli.diagnose_s": total["cli.diagnose"],
        "cli.nonzero_exits": nonzero_exits,
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.span_coverage": _ratio(covered, traced_wall_s),
    }
