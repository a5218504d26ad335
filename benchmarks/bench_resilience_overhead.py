"""Disabled-fault-hook overhead guard for the planning/simulation stack.

Run standalone for a report::

    PYTHONPATH=src python benchmarks/bench_resilience_overhead.py

or as the tier-2 perf guard::

    PYTHONPATH=src python -m pytest benchmarks/bench_resilience_overhead.py -m perf

Every fault hook in the stack — OBB corruption in the checker, lane faults
in SAS dispatch, phase faults in the query engines — is gated on
``injector is not None and injector.enabled`` (plus a per-model rate
check), so a run with no injector, or with a disabled one, must cost the
same.  The guard drives the closed-loop :class:`RobotRuntime` — the widest
path through all the hook sites — three ways (no injector / disabled
injector / attached-but-inert models) and asserts each costs at most 5%
over the no-injector baseline (min-of-repeats to shed scheduler noise).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.accel.config import CECDUConfig, MPAccelConfig
from repro.accel.runtime import RobotRuntime
from repro.config import EngineConfig, ReproConfig
from repro.env.scene import Scene
from repro.geometry.aabb import AABB
from repro.resilience import FaultInjector, FaultModels
from repro.robot.presets import planar_arm

OVERHEAD_CEILING = 1.05


def _scene() -> Scene:
    scene = Scene(extent=4.0)
    scene.add_obstacle(AABB.from_min_max([0.7, -0.4, 0.0], [0.9, 0.4, 0.2]))
    return scene


def _update(scene, tick, rng_):
    if tick == 2:
        scene.add_obstacle(AABB.from_min_max([1.6, 1.6, 0.0], [1.9, 1.9, 0.2]))
        return True
    return False


def _run_loop(faults) -> None:
    runtime = RobotRuntime(
        robot=planar_arm(2),
        scene=_scene(),
        config=MPAccelConfig(n_cecdus=8, cecdu=CECDUConfig(n_oocds=4)),
        scene_update=_update,
        faults=faults,
        repro=ReproConfig(
            backend="batch",
            octree_resolution=32,
            collect_stats=False,
            engine=EngineConfig(kind="batch"),
        ),
    )
    runtime.run(
        np.array([np.pi * 0.9, 0.0]),
        np.array([-np.pi * 0.9, 0.0]),
        n_ticks=4,
        rng=np.random.default_rng(0),
    )


def _timed(func) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


#: Rates that would fire constantly — attached disabled, they must be free.
HOT_MODELS = FaultModels(
    bit_flip_rate=0.5,
    lane_drop_rate=0.2,
    lane_stall_rate=0.2,
    sensor_dropout_rate=0.5,
    engine_exception_rate=0.2,
)


def measure_overhead(repeats: int = 7) -> dict:
    """Time the loop with no injector vs disabled vs inert injectors.

    The three arms are interleaved round-robin (not measured back to back)
    so slow machine-load drift hits every arm equally; min-of-repeats then
    sheds the remaining scheduler noise.
    """
    _run_loop(None)  # warm caches
    arms = {
        "baseline": lambda: _run_loop(None),
        "disabled": lambda: _run_loop(FaultInjector(HOT_MODELS, enabled=False)),
        "inert": lambda: _run_loop(FaultInjector(FaultModels())),
    }
    samples = {name: [] for name in arms}
    for _ in range(repeats):
        for name, arm in arms.items():
            samples[name].append(_timed(arm))
    baseline = min(samples["baseline"])
    disabled = min(samples["disabled"])
    inert = min(samples["inert"])
    return {
        "baseline_s": baseline,
        "disabled_s": disabled,
        "inert_s": inert,
        "disabled_overhead": disabled / baseline,
        "inert_overhead": inert / baseline,
    }


@pytest.mark.perf
def test_disabled_fault_hooks_overhead_under_5pct():
    report = measure_overhead()
    assert report["disabled_overhead"] <= OVERHEAD_CEILING, report
    assert report["inert_overhead"] <= OVERHEAD_CEILING, report


if __name__ == "__main__":
    report = measure_overhead()
    print(f"baseline (faults=None):         {report['baseline_s'] * 1e3:8.2f} ms")
    print(
        f"disabled injector attached:     {report['disabled_s'] * 1e3:8.2f} ms "
        f"({(report['disabled_overhead'] - 1) * 100:+.1f}%)"
    )
    print(
        f"inert (all-zero rate) injector: {report['inert_s'] * 1e3:8.2f} ms "
        f"({(report['inert_overhead'] - 1) * 100:+.1f}%)"
    )
