"""Fleet scaling: goodput vs shard count under a fixed overload.

Run standalone for a report::

    PYTHONPATH=src python benchmarks/bench_fleet_scaling.py

or as the tier-2 perf guard (skipped in tier-1, which only collects
``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_fleet_scaling.py -m perf

One seeded Poisson arrival trace — offered at several times a single
shard's measured capacity, with admission control, fairness, and deadlines
on — is replayed against fleets of 1, 2, and 4 shards, each drained
inline (one shard after another).  Every run is deterministic on the
simulated clock: the router splits the same trace the same way every
time, so the simulated goodput curve is a pure function of the seeds.

Sharding helps twice: each shard sees a fraction of the queue (fewer
deadline sheds, so more useful completions) and the shards' simulated
clocks advance in parallel (fleet ``sim_ms`` is the max, not the sum).
The guard asserts goodput (useful completions per simulated second) at 4
shards is at least 2x the 1-shard figure.  Reported but not guarded: the
wall-clock drain time, wall-clock goodput (useful completions per wall
second of the drain) and the shed breakdown per shard count.  On the wall
clock the shards drain one after another, so wall goodput does not scale
with shard count the way simulated goodput does.  Emitted as
``BENCH_fleet_scaling.json`` for the cross-PR trajectory.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.collision.checker import RobotEnvironmentChecker
from repro.config import FleetConfig, ReproConfig, ServiceConfig
from repro.env.generator import random_scene
from repro.env.octree import Octree
from repro.robot.presets import planar_arm
from repro.serving import PlanningFleet, PlanningService, PlanRequest
from repro.serving import TrafficSpec, requests_from_trace

SEED = 17
TRAFFIC_SEED = 31
N_REQUESTS = 48
N_CLIENTS = 8
LOAD_MULTIPLE = 12.0
SHARD_COUNTS = (1, 2, 4)
SCALING_FLOOR = 2.0


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
        for _ in range(8)
    ]
    return robot, octree, pairs


def _capacity(robot, octree, pairs) -> tuple:
    """One polite wave through a single default service: (rps, sim_ms)."""
    probe = PlanningService(robot, octree)
    for i, (q_start, q_goal) in enumerate(pairs):
        probe.submit(PlanRequest(f"cap-{i}", q_start, q_goal, seed=400 + i))
    report = probe.run()
    return report.requests_per_sim_s, report.sim_ms


def _overload_config(n_shards: int) -> ReproConfig:
    return ReproConfig.for_fleet(
        fleet=FleetConfig(n_shards=n_shards, router="hash"),
        service=ServiceConfig(
            admission_control=True,
            max_inflight=4,
            max_queue_depth=6,
            fairness=True,
        ),
    )


def measure_fleet_scaling() -> dict:
    robot, octree, pairs = _workload()
    capacity_rps, unloaded_ms = _capacity(robot, octree, pairs)
    spec = TrafficSpec(
        kind="poisson",
        seed=TRAFFIC_SEED,
        n_requests=N_REQUESTS,
        n_clients=N_CLIENTS,
        rate_rps=LOAD_MULTIPLE * capacity_rps,
        deadline_ms=1.0 * unloaded_ms,
    )
    trace = spec.generate()

    sweep = []
    for n_shards in SHARD_COUNTS:
        fleet = PlanningFleet(robot, octree, config=_overload_config(n_shards))
        for request, arrival_ms in requests_from_trace(trace, pairs):
            fleet.submit(request, arrival_ms=arrival_ms)
        start = time.perf_counter()
        report = fleet.run()
        wall_s = time.perf_counter() - start
        sweep.append(
            {
                "n_shards": n_shards,
                "goodput_per_sim_s": report.goodput_per_sim_s,
                "completed": report.completed,
                "shed": report.shed,
                "sim_ms": report.sim_ms,
                "shard_sim_ms": list(report.shard_sim_ms),
                "wall_s": wall_s,
                "wall_goodput_per_s": report.goodput / wall_s,
                "shed_counts": dict(report.shed_counts),
            }
        )

    by_shards = {point["n_shards"]: point for point in sweep}
    base = by_shards[1]["goodput_per_sim_s"]
    scaling_4x = (
        by_shards[4]["goodput_per_sim_s"] / base if base > 0 else float("inf")
    )
    return {
        "capacity_rps": capacity_rps,
        "offered_rps": trace.offered_rps,
        "load_multiple": LOAD_MULTIPLE,
        "sweep": sweep,
        "scaling_4x": scaling_4x,
    }


@pytest.mark.perf
@pytest.mark.fleet
def test_four_shards_at_least_2x_goodput():
    """Non-blocking perf guard: 4-shard goodput >= 2x the 1-shard figure."""
    report = measure_fleet_scaling()
    assert report["scaling_4x"] >= SCALING_FLOOR, (
        f"4-shard fleet goodput scaled only {report['scaling_4x']:.2f}x over "
        f"one shard (floor {SCALING_FLOOR:.0f}x) at "
        f"{report['load_multiple']:g}x offered load"
    )


def write_artifact(report: dict, path: str) -> None:
    """Emit the sweep as a BENCH artifact for the cross-PR trajectory."""
    from repro.harness.bench_artifact import make_bench_payload, save_bench

    cases = [
        {
            "name": f"shards_{point['n_shards']}",
            "metrics": {
                "goodput_per_sim_s": round(point["goodput_per_sim_s"], 3),
                "completed": point["completed"],
                "shed": point["shed"],
                "sim_ms": round(point["sim_ms"], 4),
                "wall_s": round(point["wall_s"], 6),
                "wall_goodput_per_s": round(point["wall_goodput_per_s"], 3),
            },
        }
        for point in report["sweep"]
    ]
    payload = make_bench_payload(
        bench="fleet_scaling",
        seed=TRAFFIC_SEED,
        cases=cases,
        summary={
            "capacity_rps": round(report["capacity_rps"], 3),
            "offered_rps": round(report["offered_rps"], 3),
            "load_multiple": report["load_multiple"],
            "scaling_4x": round(report["scaling_4x"], 3),
        },
    )
    save_bench(path, payload)


def main() -> int:
    import os

    report = measure_fleet_scaling()
    print("fleet scaling (simulated clock, inline drains)")
    print(
        f"  1-shard capacity    : {report['capacity_rps']:.1f} req/sim-s; "
        f"offered {report['offered_rps']:.1f} rps "
        f"({report['load_multiple']:g}x)"
    )
    for point in report["sweep"]:
        print(
            f"  {point['n_shards']} shard(s): goodput "
            f"{point['goodput_per_sim_s']:7.1f}/sim-s, "
            f"{point['completed']:2d} ok / {point['shed']:2d} shed, "
            f"sim {point['sim_ms']:.2f}ms, wall {point['wall_s']:.2f}s "
            f"({point['wall_goodput_per_s']:.2f} goodput/wall-s)"
        )
    floor_met = report["scaling_4x"] >= SCALING_FLOOR
    print(
        f"  4-shard scaling     : {report['scaling_4x']:.2f}x "
        f"({'met' if floor_met else 'MISSED'}, floor {SCALING_FLOOR:.0f}x)"
    )
    artifact = os.path.join(
        os.path.dirname(__file__), "BENCH_fleet_scaling.json"
    )
    write_artifact(report, artifact)
    print(f"wrote {artifact}")
    return 0 if floor_met else 1


if __name__ == "__main__":
    raise SystemExit(main())
