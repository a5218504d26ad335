"""Tests of the benchmark's own machinery.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _fingerprint(inputs):
    return (
        [
            (r.request_id, r.env, r.seed, np.asarray(r.q_start).tobytes(), np.asarray(r.q_goal).tobytes())
            for r in inputs.requests
        ],
        [json.dumps(octree.to_dict(), sort_keys=True) for octree in inputs.octrees],
        inputs.waves,
        inputs.updates,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests_new_seed_new_requests(name):
    make = workloads.WORKLOADS[name].make_inputs
    first = _fingerprint(make(11, 0.2))
    assert _fingerprint(make(11, 0.2)) == first
    assert _fingerprint(make(12, 0.2))[0] != first[0]


def test_request_count_is_fixed_by_seconds_not_by_the_host():
    inputs = workloads.WORKLOADS["fleet_moving"].make_inputs(3, 2.0)
    n_waves = round(workloads.FLEET_WAVES_PER_S * 2.0)
    assert len(inputs.waves) == n_waves
    assert len(inputs.requests) == workloads.ROBOTS * n_waves


def test_price_paper_prices_its_fixed_traces_once_per_pass():
    inputs = workloads.WORKLOADS["price_paper"].make_inputs(5, 10.0)
    passes = round(workloads.PRICE_PASSES_PER_S * 10.0)
    n = len(inputs.traces)
    assert passes > 1
    assert workloads.PRICE_QUERIES * 0.9 < n < workloads.PRICE_QUERIES
    assert len(inputs.requests) == passes * n
    assert {trace.benchmark_index for trace in inputs.traces} == set(range(workloads.PRICE_ENVS))
    assert max(map(workloads.trace_poses, inputs.traces)) <= workloads.PRICE_MAX_POSES
    for index, req in enumerate(inputs.requests):
        trace = inputs.traces[index % n]
        assert req.env == trace.benchmark_index
        if trace.result.success:
            assert np.array_equal(req.q_start, trace.result.path[0])
    assert all(inputs.warmup_trace is not trace for trace in inputs.traces)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_groups_self_time_by_name_under_timed_roots():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 20.0, 21.0, 22.0, 24.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    root = tracer.begin("request", "request:0")  # 0
    outer = tracer.begin("cache.lookup")  # 1
    inner = tracer.begin("cache.lookup")  # 2 (a tiered cache's local tier)
    tracer.end(inner)  # 3
    tracer.end(outer)  # 5
    tracer.end(root)  # 8
    setup = tracer.begin("setup", "setup")  # 20
    build = tracer.begin("env.octree_build")  # 21
    tracer.end(build)  # 22
    tracer.end(setup)  # 24
    timed, total = tracing.layer_self_seconds(tracer, lambda tag: tag != "setup")
    assert total == 8.0
    assert timed == {"<root>": 4.0, "cache.lookup": 4.0}
    assert tracer.tags[2] == "request:0"
    setup_selfs, setup_total = tracing.layer_self_seconds(tracer, lambda tag: tag == "setup")
    assert setup_selfs["env.octree_build"] == 1.0 and setup_total == 4.0


def test_generator_wrapper_times_each_resume_and_keeps_the_protocol():
    tracer = tracing.Tracer()

    def steps(limit):
        total = 0
        for _ in range(limit):
            total += yield total
        return total

    wrapped = tracing._wrap_generator(tracer, "planning.planner", steps)
    gen = wrapped(3)
    assert next(gen) == 0
    assert gen.send(2) == 2
    assert gen.send(3) == 5
    with pytest.raises(StopIteration) as stop:
        gen.send(4)
    assert stop.value.value == 9
    assert tracer.names == ["planning.planner"] * 4
    assert not tracer.stack


def test_patches_restore_every_original():
    from repro.collision.cache import CollisionCache
    from repro.env.octree import Octree

    before = (CollisionCache.__dict__["lookup"], Octree.__dict__["from_scene"])
    with tracing.Patches(tracing.Tracer()):
        assert CollisionCache.__dict__["lookup"] is not before[0]
    assert (CollisionCache.__dict__["lookup"], Octree.__dict__["from_scene"]) == before


@pytest.mark.parametrize(
    "n, p",
    [(5, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_at_least_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p
    if n >= 20:
        assert n * (100 - p) / 100 == pytest.approx(10) or n * (100 - p) / 100 > 10


def test_tail_rule_counts_independent_latencies_not_requests():
    # 40 waves of 8: 320 request latencies but only 40 independent ones,
    # so the tail is p75 (10 waves beyond), not p95 (16 requests beyond).
    waves = [0.001 * (w + 1) for w in range(40)]
    outcomes = [workloads.Outcome(True, None, 1, 1, lat) for lat in waves for _ in range(8)]
    result = workloads.RunResult(outcomes, sum(waves), {}, [(8, lat) for lat in waves], 40)
    values = run.end_to_end_metrics(result, 1.0, 4, 50.0)
    latencies_ms = [o.latency_s * 1e3 for o in outcomes]
    assert values["latency_ms_tail"] == pytest.approx(np.percentile(latencies_ms, 75.0))
    assert sum(lat * 1e3 > values["latency_ms_tail"] for lat in waves) == 10


def test_percentile_matches_numpy_and_failures_count_as_missing():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    for p in (0, 25, 50, 90, 95, 100):
        assert run.percentile(values, p) == pytest.approx(np.percentile(values, p))
    assert run.percentile([1.0, 2.0, float("inf")], 99) == float("inf")


def test_round_goodputs():
    units = [(True, 1.0), (True, 1.0), (False, 2.0), (True, 0.5), (True, 0.5)]
    assert run.round_goodputs(units, 2) == [1.0, 0.4, 2.0]


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _fake_result():
    outcome = workloads.Outcome(True, None, 2, 40, 0.002)
    return workloads.RunResult([outcome] * 30, 0.06, {}, [(True, 0.002)] * 30, 30)


def test_end_to_end_metrics_are_the_ones_benchmark_json_names():
    values = run.end_to_end_metrics(_fake_result(), 1.0, 5, 50.0)
    assert list(values) == [m["name"] for m in _benchmark_json()["end_to_end"]]


def test_per_layer_metrics_are_the_ones_benchmark_json_names():
    tracer = tracing.Tracer()
    root = tracer.begin("request", "request:0")
    tracer.end(root)
    values, _ = run.layer_metrics(tracer, _fake_result(), _fake_result())
    assert sorted(values) == sorted(m["name"] for m in _benchmark_json()["per_layer"])
    assert set(run.SELF_TIME_SPANS) <= set(values)


def test_benchmark_json_names_the_workloads():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]
