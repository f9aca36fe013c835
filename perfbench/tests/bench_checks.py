"""Checks of the benchmark itself: repeatable counts, self times, zeros.

Run with ``python3 -m pytest -q perfbench/tests/bench_checks.py``. The file
name keeps it out of the repository's default test run, since the traced
cells take several seconds.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

COUNT_METRICS = ("tape.nodes_per_step", "tape.backward_calls",
                 "tape.gaussian_logpdf_calls", "targets.score_calls",
                 "targets.logp_calls", "annealing.bridge_score_calls",
                 "scorenet.apply_calls")


def traced_run(name: str):
    inputs = wl.build_inputs(wl.WORKLOADS[name], seed=3)
    tracer = tr.Tracer()
    cell = wl.run_cell(inputs, tracer)
    assert cell.problems == []
    main_steps = inputs.plan.steps if inputs.plan is not None else None
    return tracer.spans, tr.layer_metrics([tracer.spans], main_steps)


@pytest.fixture(scope="module", params=list(wl.WORKLOADS))
def two_runs(request):
    return traced_run(request.param), traced_run(request.param)


def test_count_metrics_repeat_exactly(two_runs):
    (_, first), (_, second) = two_runs
    for name in COUNT_METRICS:
        assert first[name] == second[name], name
    assert first["tape.nodes_per_step"] > 0


def test_self_times_are_non_negative(two_runs):
    (spans, metrics), _ = two_runs
    assert min(tr.self_seconds(spans)) >= 0.0
    for name, value in metrics.items():
        if name.endswith("_self_ms"):
            assert value >= 0.0, name


def test_every_layer_metric_is_reported(two_runs):
    (_, metrics), _ = two_runs
    assert set(metrics) | {"trace.overhead_ratio"} == set(tr.LAYER_METRICS)


def test_predicted_zeros():
    _, brownian = traced_run("uha_em-brownian")
    assert brownian["scorenet.apply_calls"] == 0
    _, sonar = traced_run("ldvi-sonar")
    assert sonar["scorenet.apply_calls"] > 0
    _, evaluation = traced_run("eval-mcd-ionosphere")
    assert evaluation["tape.backward_calls"] == 0
    assert evaluation["scorenet.apply_calls"] > 0


def test_wrappers_are_restored_after_a_failing_cell():
    before = {(owner, attr): vars(owner)[attr]
              for owner, attr, _ in tr.patch_points()}
    target = wl.build_inputs(wl.WORKLOADS["ldvi-sonar"], 0).target
    with pytest.raises(RuntimeError):
        with tr.Tracer().recording(target):
            raise RuntimeError("cell failed")
    after = {(owner, attr): vars(owner)[attr]
             for owner, attr, _ in tr.patch_points()}
    assert after == before


def test_reference_check_tolerates_reordering_but_not_a_changed_bound():
    workload = wl.WORKLOADS["ldvi-sonar"]
    ref = json.loads(wl.REFERENCES.read_text())[workload.name]["final_elbo"]
    assert wl.reference_problems(workload, ref) == []
    assert wl.reference_problems(workload, ref * (1 + 1e-12)) == []
    assert wl.reference_problems(workload, ref * (1 + 1e-6)) != []


def test_tail_has_ten_samples_beyond_it():
    value, pct = tr.tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == tr.LAYER_METRICS
