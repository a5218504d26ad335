"""Serving throughput: cross-request batching + verdict cache vs solo plans.

Run standalone for a report::

    PYTHONPATH=src python benchmarks/bench_serving_throughput.py

or as the tier-2 perf guard (skipped in tier-1, which only collects
``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving_throughput.py -m perf

The workload is one wave of planning requests served three ways over the
same environment:

1. **solo** — the reference the differential tests use: each request
   alone, one after another, through :func:`repro.api.plan` at the default
   config (scalar backend, sequential engine, no cache);
2. **batched (cold)** — the multi-client service coalescing CD phases
   across requests into vectorized dispatches, shared cache starting empty;
3. **batched (warm)** — the same wave resubmitted to the same service, so
   the octree-versioned cache already holds every verdict.

Per-request results are bit-identical across all three (pinned by
``tests/test_serving.py``); only wall clock and the work mix change.  The
guard asserts the cache-warm batched path beats the solo baseline by at
least 2x wall-clock.  Reported but not guarded: cold-batch speedup,
requests per wall-second, and the cache hit rate.

**Why the cold wave barely coalesces.**  The wave has one heavy-tailed
request: ``req-1`` runs 1399 phases and ends unsuccessful at its planner's
iteration budget, while the other five finish in 2–3 phases each.  After
the first three rounds ``req-1`` is alone in flight, so 1396 of the cold
wave's 1399 flushes hold one phase (widths 1396×1, 1×2, 2×6) and the cold
wave costs about what ``req-1`` costs solo.  The batcher is not at fault:
there is nothing left to coalesce with.

**Overload sweep.**  A second experiment drives the service with seeded
Poisson traffic at multiples of its measured capacity, with admission
control and fairness on: per offered load it reports goodput (useful
completions per simulated second), shed counts, and p50/p99/p999
*simulated* latency — all deterministic, emitted as
``BENCH_serving_overload.json``.  The (non-blocking) guard asserts the
load-shedding keeps post-knee goodput at >=70% of peak — i.e. the service
degrades by refusing work, not by collapsing.  A third guard pins the
disabled-hook cost: with admission control and fairness enabled but inert,
a polite wave must cost at most 5% over the default service.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import api
from repro.collision.checker import RobotEnvironmentChecker
from repro.config import ReproConfig, ServiceConfig
from repro.env.generator import random_scene
from repro.env.octree import Octree
from repro.robot.presets import planar_arm
from repro.scenarios.suite import percentile
from repro.serving import (
    PlanningService,
    PlanRequest,
    TrafficSpec,
    requests_from_trace,
)

SEED = 13
N_REQUESTS = 6
SPEEDUP_FLOOR = 2.0

OVERLOAD_SEED = 29
OVERLOAD_N = 48
LOAD_MULTIPLES = (0.5, 1.0, 2.0, 4.0, 8.0)
GOODPUT_FLOOR = 0.70
HOOK_OVERHEAD_CEILING = 1.05


def _workload():
    robot = planar_arm(3)
    octree = Octree.from_scene(random_scene(seed=5), resolution=16)
    checker = RobotEnvironmentChecker.from_config(robot, octree, ReproConfig())
    rng = np.random.default_rng(SEED)
    pairs = [
        (
            checker.sample_free_configuration(rng),
            checker.sample_free_configuration(rng),
        )
        for _ in range(N_REQUESTS)
    ]
    return robot, octree, pairs


def _requests(pairs, suffix=""):
    return [
        PlanRequest(f"req-{i}{suffix}", q_start, q_goal, seed=200 + i)
        for i, (q_start, q_goal) in enumerate(pairs)
    ]


def _drain(service, requests):
    """Submit a wave, drain it, and return (wall seconds, report)."""
    for request in requests:
        service.submit(request)
    start = time.perf_counter()
    report = service.run()
    return time.perf_counter() - start, report


def _solo(robot, octree, requests):
    """Each request alone through ``repro.api.plan``: (wall seconds, outcomes)."""
    start = time.perf_counter()
    outcomes = [
        api.plan(robot, octree, r.q_start, r.q_goal, seed=r.seed)
        for r in requests
    ]
    return time.perf_counter() - start, outcomes


def measure_serving() -> dict:
    robot, octree, pairs = _workload()

    solo_seconds, solo_outcomes = _solo(robot, octree, _requests(pairs))

    batched = PlanningService(robot, octree)  # for_service(): batch + cache
    cold_seconds, cold_report = _drain(batched, _requests(pairs))
    hits_before = batched.cache.hits
    warm_seconds, warm_report = _drain(batched, _requests(pairs, suffix="-w"))
    warm_hits = batched.cache.hits - hits_before

    # Same per-request outcomes everywhere (the differential suite pins
    # bit-identity; this is the cheap smoke version of it).
    for i, a in enumerate(solo_outcomes):
        b = warm_report.responses[f"req-{i}-w"]
        assert a.success == b.success
        assert a.stats.pose_checks == b.stats.pose_checks

    return {
        "solo_s": solo_seconds,
        "cold_s": cold_seconds,
        "warm_s": warm_seconds,
        "speedup_cold": solo_seconds / cold_seconds,
        "speedup_warm": solo_seconds / warm_seconds,
        "requests_per_s_solo": N_REQUESTS / solo_seconds,
        "requests_per_s_warm": N_REQUESTS / warm_seconds,
        "warm_hit_rate": warm_hits / max(1, warm_report.poses_dispatched),
        "cache_counters": batched.cache.counters(),
        "dispatches_cold": cold_report.dispatches,
        "phases_cold": cold_report.phases_answered,
    }


@pytest.mark.perf
def test_cache_warm_batched_at_least_2x_faster():
    report = measure_serving()
    assert report["speedup_warm"] >= SPEEDUP_FLOOR, (
        f"cache-warm batched serving speedup {report['speedup_warm']:.1f}x "
        f"fell below the {SPEEDUP_FLOOR:.0f}x floor (solo "
        f"{report['solo_s']:.3f}s, warm {report['warm_s']:.3f}s)"
    )


@pytest.mark.perf
def test_batching_coalesces_phases():
    report = measure_serving()
    assert report["dispatches_cold"] < report["phases_cold"]
    assert report["warm_hit_rate"] > 0.5


def measure_overload() -> dict:
    """Sweep offered load over multiples of measured capacity.

    Everything here runs on the *simulated* clock, so the whole sweep —
    arrival trace, shed set, tail latencies, goodput curve — is a pure
    function of the seeds.
    """
    robot, octree, pairs = _workload()

    # Capacity estimate: drain one polite wave through the default
    # batched service and read its simulated throughput.
    probe = PlanningService(robot, octree)
    _, unloaded = _drain(probe, _requests(pairs, suffix="-cap"))
    capacity_rps = unloaded.requests_per_sim_s
    unloaded_ms = unloaded.sim_ms

    sweep = []
    for multiple in LOAD_MULTIPLES:
        spec = TrafficSpec(
            kind="poisson",
            seed=OVERLOAD_SEED,
            n_requests=OVERLOAD_N,
            n_clients=4,
            rate_rps=multiple * capacity_rps,
            deadline_ms=1.5 * unloaded_ms,
        )
        config = ReproConfig.for_service(
            service=ServiceConfig(
                admission_control=True,
                max_inflight=4,
                max_queue_depth=6,
                fairness=True,
            )
        )
        service = PlanningService(robot, octree, config=config)
        for request, arrival_ms in requests_from_trace(spec.generate(), pairs):
            service.submit(request, arrival_ms=arrival_ms)
        report = service.run()
        latencies = [r.latency_ms for r in report.responses.values()]
        sweep.append(
            {
                "load_multiple": multiple,
                "offered_rps": spec.generate().offered_rps,
                "goodput_per_sim_s": report.goodput_per_sim_s,
                "completed": report.status_counts.get("completed", 0),
                "shed": report.status_counts.get("shed", 0),
                "sim_ms_p50": percentile(latencies, 50.0),
                "sim_ms_p99": percentile(latencies, 99.0),
                "sim_ms_p999": percentile(latencies, 99.9),
            }
        )

    peak = max(point["goodput_per_sim_s"] for point in sweep)
    post_knee = sweep[-1]["goodput_per_sim_s"]
    return {
        "capacity_rps": capacity_rps,
        "sweep": sweep,
        "peak_goodput": peak,
        "post_knee_goodput": post_knee,
        "post_knee_ratio": post_knee / peak if peak > 0 else 0.0,
    }


def measure_hook_overhead(repeats: int = 3) -> dict:
    """Disabled-hook cost: inert admission+fairness vs the default service.

    Interleaved min-of-repeats (the resilience-overhead methodology): a
    polite wave through a service with admission control and fairness
    enabled but never firing must cost at most a few percent over the
    default service with the hooks compiled out of the path.
    """
    robot, octree, pairs = _workload()
    inert = ReproConfig.for_service(
        service=ServiceConfig(
            admission_control=True,
            max_queue_depth=1_000_000,
            fairness=True,
        )
    )
    base_s = hook_s = float("inf")
    for repeat in range(repeats):
        seconds, _ = _drain(
            PlanningService(robot, octree),
            _requests(pairs, suffix=f"-b{repeat}"),
        )
        base_s = min(base_s, seconds)
        seconds, _ = _drain(
            PlanningService(robot, octree, config=inert),
            _requests(pairs, suffix=f"-h{repeat}"),
        )
        hook_s = min(hook_s, seconds)
    return {
        "baseline_s": base_s,
        "inert_hooks_s": hook_s,
        "ratio": hook_s / base_s,
    }


@pytest.mark.perf
def test_post_knee_goodput_floor():
    report = measure_overload()
    assert report["post_knee_ratio"] >= GOODPUT_FLOOR, (
        f"goodput at {LOAD_MULTIPLES[-1]}x offered load fell to "
        f"{report['post_knee_ratio']:.0%} of peak (floor {GOODPUT_FLOOR:.0%}): "
        f"load shedding is no longer protecting the service"
    )


@pytest.mark.perf
def test_inert_overload_hooks_are_cheap():
    report = measure_hook_overhead()
    assert report["ratio"] <= HOOK_OVERHEAD_CEILING, (
        f"inert admission/fairness hooks cost {report['ratio']:.2f}x the "
        f"default service (ceiling {HOOK_OVERHEAD_CEILING:.2f}x)"
    )


def write_overload_artifact(report: dict, path: str) -> None:
    """Emit the overload sweep as a BENCH artifact."""
    from repro.harness.bench_artifact import make_bench_payload, save_bench

    cases = [
        {
            "name": f"load_{point['load_multiple']:g}x",
            "metrics": {
                "offered_rps": round(point["offered_rps"], 3),
                "goodput_per_sim_s": round(point["goodput_per_sim_s"], 3),
                "completed": point["completed"],
                "shed": point["shed"],
                "sim_ms_p50": round(point["sim_ms_p50"], 4),
                "sim_ms_p99": round(point["sim_ms_p99"], 4),
                "sim_ms_p999": round(point["sim_ms_p999"], 4),
            },
        }
        for point in report["sweep"]
    ]
    payload = make_bench_payload(
        bench="serving_overload",
        seed=OVERLOAD_SEED,
        cases=cases,
        summary={
            "capacity_rps": round(report["capacity_rps"], 3),
            "peak_goodput": round(report["peak_goodput"], 3),
            "post_knee_goodput": round(report["post_knee_goodput"], 3),
            "post_knee_ratio": round(report["post_knee_ratio"], 4),
        },
    )
    save_bench(path, payload)


def write_artifact(report: dict, path: str) -> None:
    """Emit the run as a BENCH artifact for the cross-PR trajectory."""
    from repro.harness.bench_artifact import make_bench_payload, save_bench

    cases = [
        {
            "name": "solo",
            "metrics": {
                "seconds": round(report["solo_s"], 6),
                "requests_per_s": round(report["requests_per_s_solo"], 3),
            },
        },
        {
            "name": "batched_cold",
            "metrics": {
                "seconds": round(report["cold_s"], 6),
                "speedup": round(report["speedup_cold"], 3),
                "dispatches": report["dispatches_cold"],
                "phases": report["phases_cold"],
            },
        },
        {
            "name": "batched_warm",
            "metrics": {
                "seconds": round(report["warm_s"], 6),
                "speedup": round(report["speedup_warm"], 3),
                "requests_per_s": round(report["requests_per_s_warm"], 3),
                "hit_rate": round(report["warm_hit_rate"], 4),
            },
        },
    ]
    payload = make_bench_payload(
        bench="serving_throughput",
        seed=SEED,
        cases=cases,
        summary={"speedup_warm": round(report["speedup_warm"], 3)},
    )
    save_bench(path, payload)


def main() -> int:
    import os

    report = measure_serving()
    print("serving throughput (wall clock)")
    print(
        f"  solo api.plan       : {report['solo_s']:.3f}s "
        f"({report['requests_per_s_solo']:.1f} req/s)"
    )
    print(
        f"  batched, cold cache : {report['cold_s']:.3f}s "
        f"({report['speedup_cold']:.1f}x)"
    )
    print(
        f"  batched, warm cache : {report['warm_s']:.3f}s "
        f"({report['speedup_warm']:.1f}x, "
        f"{report['requests_per_s_warm']:.1f} req/s)"
    )
    print(
        f"  coalescing          : {report['phases_cold']} phases in "
        f"{report['dispatches_cold']} dispatches (cold wave)"
    )
    print(f"  warm hit rate       : {report['warm_hit_rate']:.1%}")
    print(f"  cache               : {report['cache_counters']}")
    floor_met = report["speedup_warm"] >= SPEEDUP_FLOOR
    print(
        f"  2x floor            : {'met' if floor_met else 'MISSED'}"
    )
    artifact = os.path.join(
        os.path.dirname(__file__), "BENCH_serving_throughput.json"
    )
    write_artifact(report, artifact)
    print(f"wrote {artifact}")

    overload = measure_overload()
    print("overload sweep (simulated clock)")
    print(f"  capacity            : {overload['capacity_rps']:.1f} req/sim-s")
    for point in overload["sweep"]:
        print(
            f"  {point['load_multiple']:>4g}x offered "
            f"({point['offered_rps']:7.1f} rps): goodput "
            f"{point['goodput_per_sim_s']:7.1f}/s, "
            f"{point['completed']:2d} ok / {point['shed']:2d} shed, "
            f"p50 {point['sim_ms_p50']:.2f}ms p99 {point['sim_ms_p99']:.2f}ms "
            f"p999 {point['sim_ms_p999']:.2f}ms"
        )
    goodput_met = overload["post_knee_ratio"] >= GOODPUT_FLOOR
    print(
        f"  post-knee goodput   : {overload['post_knee_ratio']:.0%} of peak "
        f"({'met' if goodput_met else 'MISSED'}, floor {GOODPUT_FLOOR:.0%})"
    )
    overload_artifact = os.path.join(
        os.path.dirname(__file__), "BENCH_serving_overload.json"
    )
    write_overload_artifact(overload, overload_artifact)
    print(f"wrote {overload_artifact}")
    return 0 if (floor_met and goodput_met) else 1


if __name__ == "__main__":
    raise SystemExit(main())
