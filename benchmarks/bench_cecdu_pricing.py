"""Scalar-vs-batched CECDU pricing: the batched pricer's speedup guard.

Run standalone for a throughput report::

    PYTHONPATH=src python benchmarks/bench_cecdu_pricing.py

or as the tier-2 perf guard (skipped in tier-1, which only collects
``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_cecdu_pricing.py -m perf

The guard asserts ``CECDUModel.simulate_poses`` prices 256 Baxter poses on a
4-OOCD CECDU at least 5x faster than 256 scalar ``simulate_pose`` calls.
Both return the same outcomes (``tests/test_accel_cecdu_batch.py`` pins
that); the floor only catches pathological regressions.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.accel.cecdu import CECDUModel
from repro.accel.config import CECDUConfig
from repro.env.generator import random_scene
from repro.env.octree import Octree
from repro.robot.presets import baxter_arm

N_POSES = 256
SPEEDUP_FLOOR = 5.0


def _workload(seed: int = 3, resolution: int = 16):
    robot = baxter_arm()
    octree = Octree.from_scene(random_scene(seed=seed), resolution=resolution)
    rng = np.random.default_rng(0)
    poses = np.stack([robot.random_configuration(rng) for _ in range(N_POSES)])
    return CECDUModel(robot, octree, CECDUConfig(n_oocds=4)), poses


def measure_speedup(repeats: int = 3) -> dict:
    """Time scalar vs batched pricing on the canonical 256-pose workload."""
    model, poses = _workload()
    model.simulate_poses(poses[:4])  # warm caches before timing

    scalar_best = min(
        _timed(lambda: [model.simulate_pose(q) for q in poses]) for _ in range(repeats)
    )
    batch_best = min(_timed(lambda: model.simulate_poses(poses)) for _ in range(repeats))
    return {
        "n_poses": N_POSES,
        "scalar_s": scalar_best,
        "batch_s": batch_best,
        "speedup": scalar_best / batch_best,
        "scalar_poses_per_s": N_POSES / scalar_best,
        "batch_poses_per_s": N_POSES / batch_best,
    }


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.mark.perf
def test_batched_pricing_at_least_5x_faster():
    report = measure_speedup()
    assert report["speedup"] >= SPEEDUP_FLOOR, (
        f"batched pricing speedup {report['speedup']:.1f}x fell below the "
        f"{SPEEDUP_FLOOR:.0f}x floor (scalar {report['scalar_s']:.4f}s, "
        f"batch {report['batch_s']:.4f}s on {N_POSES} poses)"
    )


@pytest.mark.perf
def test_batched_pricing_still_matches():
    # A perf run that returned different numbers would be worse than a slow one.
    model, poses = _workload()
    sample = poses[:32]
    assert model.simulate_poses(sample) == [model.simulate_pose(q) for q in sample]


if __name__ == "__main__":
    report = measure_speedup()
    print(
        f"workload: {report['n_poses']} baxter poses, 4-OOCD multi-cycle CECDU, "
        "benchmark scene, octree r=16"
    )
    print(
        f"scalar:  {report['scalar_s']:.4f} s"
        f"  ({report['scalar_poses_per_s']:,.0f} poses/s)"
    )
    print(
        f"batch:   {report['batch_s']:.4f} s"
        f"  ({report['batch_poses_per_s']:,.0f} poses/s)"
    )
    print(f"speedup: {report['speedup']:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)")
