"""Dynamic replanning: the environment changes mid-task.

Autonomous robots must replan when obstacles move (the paper's real-time
motivation: the environment octree is rebuilt once per planning query, and
planning must finish within the ~1 ms actuator period).  This example plans
a path, drops a new obstacle across it, detects the invalidation with a
feasibility check, replans in the updated octree, and reports what the
replanning cycle would cost on MPAccel versus an embedded CPU.

The process exits nonzero when any stage fails (initial plan, replan, or
the 1 ms budget), so this example doubles as a smoke test.

Run:  python examples/dynamic_replanning.py
"""

import sys

import numpy as np

from repro.accel import CECDUConfig, CECDUModel, MPAccelConfig, MPAccelSimulator
from repro.api import make_checker
from repro.baselines.device import CPU_DEVICES
from repro.baselines.system import BaselineSystemModel
from repro.collision import RobotEnvironmentChecker
from repro.config import ReproConfig
from repro.env import Octree, random_scene
from repro.env.mapping import scan_scene_points
from repro.geometry.aabb import AABB
from repro.harness.traces import QueryTrace
from repro.planning import CDTraceRecorder, HeuristicSampler, MPNetPlanner
from repro.robot import baxter_arm


def _pose_along_path(path, fraction: float) -> np.ndarray:
    """The configuration at arc-length fraction ``fraction`` of a path."""
    lengths = [
        float(np.linalg.norm(np.asarray(b) - np.asarray(a)))
        for a, b in zip(path[:-1], path[1:])
    ]
    total = sum(lengths)
    if total == 0.0:
        return np.asarray(path[0], dtype=float)
    target = fraction * total
    walked = 0.0
    for (a, b), seg in zip(zip(path[:-1], path[1:]), lengths):
        if walked + seg >= target and seg > 0:
            t = (target - walked) / seg
            return np.asarray(a) + t * (np.asarray(b) - np.asarray(a))
        walked += seg
    return np.asarray(path[-1], dtype=float)


def main() -> int:
    rng = np.random.default_rng(5)
    scene = random_scene(seed=9, n_obstacles=5)
    octree = Octree.from_scene(scene, resolution=16)
    robot = baxter_arm()
    # Direct construction: ``backend=`` is an ordinary keyword beside
    # ``collect_stats``, and builds the same checker as the typed path
    # (make_checker / from_config) used everywhere else.
    checker = RobotEnvironmentChecker(
        robot, octree, collect_stats=False, backend="scalar"
    )

    recorder = CDTraceRecorder(checker)
    planner = MPNetPlanner(
        recorder,
        HeuristicSampler(robot),
        environment_points=scan_scene_points(scene, 60, rng=rng),
    )
    q_start = checker.sample_free_configuration(rng)
    q_goal = checker.sample_free_configuration(rng)
    result = planner.plan(q_start, q_goal, rng)
    print(f"initial plan: success={result.success}, waypoints={len(result.path)}")
    if not result.success:
        print("FAIL: initial planning failed; rerun with another seed")
        return 1

    # A new obstacle appears on top of the planned path: drop a box at the
    # robot's elbow position for the C-space midpoint of the path, making
    # sure the start and goal poses themselves stay collision-free (else
    # replanning would be impossible by construction).
    new_octree = None
    new_checker = None
    for fraction in (0.5, 0.35, 0.65, 0.25):
        mid = _pose_along_path(result.path, fraction)
        elbow = robot.forward_kinematics(mid)[4].translation
        size = np.array([0.09, 0.09, 0.09])
        lo = np.maximum(scene.bounds.minimum + 0.01, elbow - size)
        hi = np.minimum(scene.bounds.maximum - 0.01, elbow + size)
        candidate = AABB.from_min_max(lo, hi)
        scene.add_obstacle(candidate)
        octree_try = Octree.from_scene(scene, resolution=16)
        checker_try = make_checker(
            robot, octree_try, ReproConfig(collect_stats=False)
        )
        if checker_try.check_pose(q_start) or checker_try.check_pose(q_goal):
            scene.obstacles.remove(candidate)  # endpoints blocked: retry
            continue
        new_octree, new_checker = octree_try, checker_try
        print(f"obstacle dropped at elbow {np.round(elbow, 2)} (t={fraction}); octree rebuilt")
        break
    if new_octree is None:
        print("FAIL: could not place an obstacle without blocking the endpoints")
        return 1

    # Detect the invalidation (a feasibility-mode phase) and replan.
    replan_recorder = CDTraceRecorder(new_checker)
    bad_segment = replan_recorder.feasibility(result.path, label="revalidate")
    if bad_segment is None:
        print("old path still valid (obstacle missed it); nothing to do")
        return 0
    print(f"old path invalidated at segment {bad_segment}; replanning...")
    replanner = MPNetPlanner(
        replan_recorder,
        HeuristicSampler(robot),
        environment_points=scan_scene_points(scene, 60, rng=rng),
    )
    new_result = replanner.plan(q_start, q_goal, rng)
    print(
        f"replanned: success={new_result.success}, waypoints={len(new_result.path)}, "
        f"phases recorded={replan_recorder.num_phases}"
    )
    if not new_result.success:
        print("FAIL: replanning did not recover a valid path")
        return 1

    # Price the replanning cycle on MPAccel vs an embedded CPU.
    config = MPAccelConfig(n_cecdus=16, cecdu=CECDUConfig(n_oocds=4))
    cecdu = CECDUModel(robot, new_octree, config.cecdu)
    accel = MPAccelSimulator(config, cecdu, 3_800_000, 1_300_000)
    timing = accel.run_query(new_result, replan_recorder.phases)
    cpu = BaselineSystemModel("cortex-a57", CPU_DEVICES["cortex-a57"])
    cpu_ms = cpu.run_query(
        QueryTrace(0, new_result, list(replan_recorder.phases))
    ).total_ms
    print(f"\nreplanning latency: MPAccel {timing.total_ms:.3f} ms "
          f"vs Cortex-A57 {cpu_ms:.2f} ms "
          f"({cpu_ms / max(1e-9, timing.total_ms):.0f}x)")
    budget_ok = timing.total_ms < 1.0
    print(f"MPAccel {'meets' if budget_ok else 'misses'} the 1 ms real-time budget")
    if not budget_ok:
        print("FAIL: the 1 ms budget was violated")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
