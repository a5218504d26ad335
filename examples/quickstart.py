"""Quickstart: plan a motion for a 7-DOF arm and time it on MPAccel.

This walks the full public API in one page:

1. generate a benchmark environment and its octree,
2. build the collision checker for a Baxter arm,
3. run the MPNet-style planner through a query engine (recording its
   collision detection phases; the batched engine answers each phase with
   one vectorized dispatch),
4. replay the recorded phases on the MPAccel simulator and print the
   end-to-end motion planning latency breakdown.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.accel import CECDUConfig, CECDUModel, MPAccelConfig, MPAccelSimulator
from repro.api import make_recorder
from repro.config import EngineConfig, ReproConfig
from repro.env import Octree, random_scene
from repro.env.mapping import scan_scene_points
from repro.planning import HeuristicSampler, MPNetPlanner
from repro.robot import baxter_arm


def main() -> None:
    rng = np.random.default_rng(42)

    # 1. Environment: 5-9 random cuboid obstacles in a 1.8 m workspace,
    #    rasterized into the octree MPAccel keeps in on-chip SRAM.
    scene = random_scene(seed=7)
    octree = Octree.from_scene(scene, resolution=16)
    print(f"environment: {scene}")
    print(f"octree: {octree} (hardware compatible: {octree.hardware_compatible})")

    # 2. One typed config wires the whole software stack: the "batch"
    #    checker backend feeds the vectorized pipeline the batched query
    #    engine dispatches to (16-bit fixed-point datapath throughout).
    robot = baxter_arm()
    repro_config = ReproConfig(
        backend="batch", collect_stats=False, engine=EngineConfig(kind="batch")
    )

    # 3. Plan with the learning-based planner.  Every collision query is
    #    recorded as a CD phase (motions + scheduler function mode) and
    #    answered by a query engine — here the batched one, which resolves
    #    each phase in a single vectorized dispatch.  Swapping
    #    EngineConfig(kind=...) ("sequential" or "batch") never changes the
    #    plan, only how it is computed; the simulators price it afterwards
    #    by replaying the recorded phases.
    recorder = make_recorder(robot, octree, repro_config)
    checker = recorder.checker
    planner = MPNetPlanner(
        recorder,
        HeuristicSampler(robot),
        environment_points=scan_scene_points(scene, points_per_obstacle=60, rng=rng),
    )
    q_start = checker.sample_free_configuration(rng)
    q_goal = checker.sample_free_configuration(rng)
    result = planner.plan(q_start, q_goal, rng)
    print(
        f"\nplanner: success={result.success}, waypoints={len(result.path)}, "
        f"C-space length={result.length:.2f} rad, "
        f"NN inferences={result.nn_inferences}, replans={result.replans}"
    )
    print(
        f"recorded workload: {recorder.num_phases} phases, "
        f"{recorder.total_motions} motions, {recorder.total_poses} poses"
    )

    # 4. Price the run on MPAccel: 16 CECDUs, 4 multi-cycle OOCDs each,
    #    MCSP scheduling (the paper's flagship configuration).
    config = MPAccelConfig(n_cecdus=16, cecdu=CECDUConfig(n_oocds=4))
    cecdu = CECDUModel(robot, octree, config.cecdu)
    simulator = MPAccelSimulator(
        config,
        cecdu,
        sampler_pnet_macs=3_800_000,
        sampler_enet_macs=1_300_000,
    )
    timing = simulator.run_query(result, recorder.phases)
    print(f"\nMPAccel ({config.label()}): {timing.total_ms:.3f} ms total")
    print(f"  collision detection: {timing.collision_detection_s * 1e3:.3f} ms")
    print(f"  neural inference:    {timing.nn_inference_s * 1e3:.3f} ms")
    print(f"  IO + controller:     {(timing.io_s + timing.controller_s) * 1e3:.3f} ms")
    print(f"  area {simulator.area_mm2():.1f} mm^2, power {simulator.power_w():.2f} W")
    realtime = "yes" if timing.total_ms < 1.0 else "no"
    print(f"  real-time (< 1 ms actuator period): {realtime}")


if __name__ == "__main__":
    main()
