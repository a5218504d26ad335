"""The facade: build and run the stack from one typed config.

Every entry point takes a :class:`repro.config.ReproConfig` (or defaults
to one) and wires the layers through it:

- :func:`make_checker` — a collision checker (plus optional verdict cache)
  for one robot/octree pair;
- :func:`make_recorder` — a checker wrapped in a
  :class:`~repro.planning.recorder.CDTraceRecorder` with the configured
  query engine;
- :func:`plan` — one planning query end to end, returning a
  :class:`PlanOutcome` with the path, stats, and the recorder (for
  replaying the phase trace through the simulators);
- :func:`make_runtime` — the closed-loop realtime runtime
  (:class:`repro.accel.runtime.RobotRuntime`);
- :func:`make_fleet` — the sharded planning fleet
  (:class:`repro.serving.fleet.PlanningFleet`);
- :func:`make_service` — the multi-client planning service
  (:class:`repro.serving.PlanningService`), built as the 1-shard special
  case of :func:`make_fleet`.

The facade is intentionally thin: everything it builds can also be built
directly from the underlying classes' ``from_config`` / typed-config
paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.collision.checker import RobotEnvironmentChecker
from repro.collision.stats import CollisionStats
from repro.config import ReproConfig
from repro.planning.engine import make_engine
from repro.planning.recorder import CDTraceRecorder

__all__ = [
    "PlanOutcome",
    "make_checker",
    "make_recorder",
    "make_planner",
    "plan",
    "make_runtime",
    "make_fleet",
    "make_service",
]


def make_checker(
    robot,
    octree,
    config: Optional[ReproConfig] = None,
    *,
    stats=None,
    fault_injector=None,
    cache=None,
    telemetry=None,
) -> RobotEnvironmentChecker:
    """A collision checker wired from ``config`` (default bundle if None)."""
    config = ReproConfig() if config is None else config
    return RobotEnvironmentChecker.from_config(
        robot,
        octree,
        config,
        stats=stats,
        fault_injector=fault_injector,
        cache=cache,
        telemetry=telemetry,
    )


def make_recorder(
    robot,
    octree,
    config: Optional[ReproConfig] = None,
    *,
    fault_injector=None,
    cache=None,
    telemetry=None,
) -> CDTraceRecorder:
    """A trace recorder over the configured checker and query engine."""
    config = ReproConfig() if config is None else config
    checker = make_checker(
        robot,
        octree,
        config,
        fault_injector=fault_injector,
        cache=cache,
        telemetry=telemetry,
    )
    engine = make_engine(
        config.engine, checker, telemetry=telemetry, fault_injector=fault_injector
    )
    return CDTraceRecorder(checker, engine=engine)


def make_planner(recorder: CDTraceRecorder, kind: str):
    """A planner of ``kind`` over ``recorder``.

    ``"mpnet"`` is rejected here: the neural planner needs a sampler and a
    scanned point cloud of the scene, which a bare recorder does not carry
    — build :class:`~repro.planning.mpnet.MPNetPlanner` directly or use
    :func:`make_runtime` (whose stack scans the scene each tick).
    """
    from repro.planning import PLANNER_FACTORIES

    factory = PLANNER_FACTORIES.get(kind)
    if factory is None:
        extra = (
            " ('mpnet' needs scene context: build MPNetPlanner directly "
            "or use make_runtime)"
            if kind == "mpnet"
            else ""
        )
        raise ValueError(
            f"unknown planner {kind!r}; valid choices: "
            f"{sorted(PLANNER_FACTORIES)}{extra}"
        )
    return factory(recorder)


@dataclass
class PlanOutcome:
    """One :func:`plan` call: the emitted path plus its full CD record."""

    success: bool
    path: Optional[List[np.ndarray]]
    #: Raw planner return (a path list for RRT/PRM, a PlanResult for MPNet).
    result: object
    #: The checker's operation counts for this query.
    stats: CollisionStats
    #: Recorder holding the phase trace (replayable through the simulators).
    recorder: CDTraceRecorder

    @property
    def num_phases(self) -> int:
        return self.recorder.num_phases


def plan(
    robot,
    octree,
    q_start,
    q_goal,
    config: Optional[ReproConfig] = None,
    *,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
    planner_factory: Optional[Callable[[CDTraceRecorder], object]] = None,
    telemetry=None,
) -> PlanOutcome:
    """One planning query end to end through the configured stack.

    Deterministic in ``seed`` (or pass an explicit ``rng``).  With the
    default config this is the sequential scalar reference flow the
    differential tests compare every other configuration against.
    """
    config = ReproConfig() if config is None else config
    recorder = make_recorder(robot, octree, config, telemetry=telemetry)
    planner = (
        planner_factory(recorder)
        if planner_factory is not None
        else make_planner(recorder, config.planner)
    )
    if rng is None:
        rng = np.random.default_rng(seed)
    result = planner.plan(q_start, q_goal, rng)
    if result is None:
        success, path = False, None
    elif hasattr(result, "success"):
        success = bool(result.success)
        path = list(result.path) if result.success else None
    else:
        success, path = True, list(result)
    return PlanOutcome(
        success=success,
        path=path,
        result=result,
        stats=recorder.checker.stats,
        recorder=recorder,
    )


def make_runtime(
    robot,
    scene,
    accel_config,
    scene_update,
    config: Optional[ReproConfig] = None,
    *,
    telemetry=None,
    faults=None,
    clock=time.perf_counter,
):
    """The closed-loop realtime runtime, wired from ``config``.

    ``accel_config`` is the :class:`repro.accel.config.MPAccelConfig`
    pricing model (hardware-side); ``config`` wires the software stack
    (backend, engine, resilience, cache).
    """
    from repro.accel.runtime import RobotRuntime

    return RobotRuntime(
        robot,
        scene,
        accel_config,
        scene_update,
        telemetry=telemetry,
        faults=faults,
        clock=clock,
        repro=ReproConfig() if config is None else config,
    )


def make_fleet(robot, octree, config: Optional[ReproConfig] = None, *, telemetry=None):
    """The sharded planning fleet, wired from ``config``.

    Defaults to :meth:`ReproConfig.for_fleet` when ``config`` is None;
    ``config.fleet`` selects the shard count, router policy, and global
    cache tier.
    """
    from repro.serving.fleet import PlanningFleet

    if config is None:
        config = ReproConfig.for_fleet()
    return PlanningFleet(robot, octree, config=config, telemetry=telemetry)


def make_service(robot, octree, config: Optional[ReproConfig] = None, *, telemetry=None):
    """The multi-client planning service: the 1-shard case of the fleet.

    Defaults to :meth:`ReproConfig.for_service` (batch backend + enabled
    collision cache) when ``config`` is None.  The service returned is the
    single shard of a 1-shard :func:`make_fleet` — one construction path
    for every shard count — so ``config.fleet.n_shards`` must be 1 here;
    ask for more shards through :func:`make_fleet`.
    """
    if config is None:
        config = ReproConfig.for_service()
    if config.fleet.n_shards != 1:
        raise ValueError(
            f"make_service builds the 1-shard special case, but "
            f"config.fleet.n_shards is {config.fleet.n_shards}; use "
            "make_fleet for a sharded deployment"
        )
    return make_fleet(robot, octree, config, telemetry=telemetry).shards[0]
