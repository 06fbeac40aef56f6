"""Self-tests of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json

import pytest

import run
import spans
import workloads

TINY = {
    "reproduce-ident": workloads.Sizes(ops=1, n=3000, maxent_epochs=3),
    "sweep-ident-800k": workloads.Sizes(ops=1, n=3000),
    "cli-ident-split": workloads.Sizes(ops=1, n=3000),
}


def _run(workload, tmp_path, seed=0, reference=None, tracer=None):
    return workloads.run(workload, seed, TINY[workload], reference, tmp_path / "work",
                         tracer=tracer)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_printed_with_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "full_sizes", lambda name, seconds: TINY[name])
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", trace])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    specs = run.metric_specs("per_layer" if trace == "1" else "end_to_end")
    assert list(last["metrics"]) == [name for name, _ in specs]
    for name, unit in specs:
        value = last["metrics"][name]
        assert value["unit"] == unit
        assert isinstance(value["value"], (int, float)), name
    if trace == "0":
        assert all(last["metrics"][n]["value"] > 0 for n, _ in specs)


def _flip_reward(fn):
    def flipped(*args, **kwargs):
        solution = fn(*args, **kwargs)
        solution.r = -solution.r
        return solution
    return flipped


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_sign_flipped_reward_fails_the_check(workload, tmp_path):
    clean = _run(workload, tmp_path)
    assert not clean.failed and run.end_to_end_values(clean)["ok_rate"] == 1.0
    sites = [(workloads.harness, "classify_then_regress"),
             (workloads.solver, "classify_then_regress"),
             (workloads.solver, "split_classify_regress")]
    with spans.patched([(m, a, _flip_reward(getattr(m, a))) for m, a in sites]):
        flipped = _run(workload, tmp_path, reference=clean.record)
    assert flipped.failed
    assert run.end_to_end_values(flipped)["ok_rate"] < 1.0


@pytest.mark.parametrize("workload", ["sweep-ident-800k", "cli-ident-split"])
def test_seed_fixes_the_data(workload, tmp_path):
    first = _run(workload, tmp_path, seed=1)
    again = _run(workload, tmp_path, seed=1, reference=first.record)
    assert not again.failed
    assert again.record == first.record
    other = _run(workload, tmp_path, seed=2)
    assert set(other.record) == set(first.record)
    for key in first.record:
        assert list(other.record[key].values()) != list(first.record[key].values())


def test_trace_counts_sweeps_inside_soft_value_iteration(tmp_path):
    tracer = spans.Tracer()
    out = _run("reproduce-ident", tmp_path, tracer=tracer)
    layers = spans.layer_metrics(tracer, out.wall.window, out.wall.raw_s, 0, 0)
    assert layers["maxent.epochs"] == 3
    assert layers["mdp.svi_calls"] > 0
    assert layers["mdp.bellman_sweeps"] >= layers["mdp.svi_calls"]
    assert layers["metrics.evaluate_calls"] == 2
    assert 0.95 < layers["trace.span_coverage"] <= 1.0
