"""Fine-grained parallelism experiments: Figures 8, 17, 18 and Table 1.

These measure the intra-collision-detection story: where separating axes
are found, what the sphere filters catch, and what the cascaded early-exit
flow does to CECDU latency and energy.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.accel.cecdu import CECDUModel
from repro.accel.config import CECDUConfig, IntersectionUnitKind
from repro.accel.energy import HardwareBlockLibrary
from repro.collision.cascade import (
    CascadeConfig,
    DEFAULT_CASCADE,
    SATMode,
    SAT_ONLY_PARALLEL,
    SAT_ONLY_SEQUENTIAL,
    cascade_intersect,
)
from repro.collision.stats import CollisionStats
from repro.env.generator import random_scene
from repro.env.octree import Octree
from repro.geometry.sat import sat_obb_aabb
from repro.geometry.sphere import SPHERE_AABB_MULTIPLIES, sphere_aabb_overlap
from repro.harness.experiments.context import Experiment, ExperimentContext
from repro.harness.workloads import collect_cascade_pairs, random_link_obbs
from repro.robot.presets import jaco2


def _cascade_pairs(ctx: ExperimentContext):
    """(OBB, AABB) pairs from real traversals over the Jaco2 suite."""
    key = "cascade_pairs"
    if key not in ctx._cache:
        pairs = []
        for benchmark in ctx.jaco2_benchmarks():
            obbs = random_link_obbs(
                benchmark.robot,
                n_poses=max(20, ctx.scale.random_poses // (7 * ctx.scale.n_envs)),
                seed=ctx.seed + benchmark.index,
            )
            pairs.extend(collect_cascade_pairs(obbs, benchmark.octree))
        ctx._cache[key] = pairs
    return ctx._cache[key]


def run_fig8a(ctx: ExperimentContext) -> Experiment:
    """Figure 8a: sequential vs parallel separating-axis test execution."""
    pairs = _cascade_pairs(ctx)
    rows = []
    for label, config in (
        ("sequential", SAT_ONLY_SEQUENTIAL),
        ("parallel", SAT_ONLY_PARALLEL),
    ):
        cycles = 0
        multiplies = 0
        n_free = 0
        for obb, aabb in pairs:
            result = cascade_intersect(obb, aabb, config)
            if result.hit:
                continue  # Figure 8a reports collision-free cases
            cycles += result.exit_cycle
            multiplies += result.multiplies
            n_free += 1
        rows.append(
            {
                "mode": label,
                "runtime_cycles": cycles,
                "multiplies": multiplies,
                "cases": n_free,
            }
        )
    base = rows[0]
    for row in rows:
        row["normalized_runtime"] = row["runtime_cycles"] / max(1, base["runtime_cycles"])
        row["normalized_energy"] = row["multiplies"] / max(1, base["multiplies"])
    return Experiment(
        id="fig8a",
        title="Sequential vs parallel separating-axis tests (collision-free cases)",
        paper_reference="Parallel execution costs ~3x the energy of sequential",
        rows=rows,
    )


def run_fig8b(ctx: ExperimentContext) -> Experiment:
    """Figure 8b: distribution of the first successful separating axis."""
    pairs = _cascade_pairs(ctx)
    histogram = {axis: 0 for axis in range(1, 16)}
    filtered = {axis: 0 for axis in range(1, 16)}
    for obb, aabb in pairs:
        result = sat_obb_aabb(obb, aabb)
        if result.separating_axis is None:
            continue
        axis = result.separating_axis
        histogram[axis] += 1
        if not sphere_aabb_overlap(obb.center, obb.bounding_sphere_radius, aabb):
            filtered[axis] += 1
    rows = [
        {
            "axis_id": axis,
            "frequency": histogram[axis],
            "filtered_by_bounding_sphere": filtered[axis],
        }
        for axis in range(1, 16)
    ]
    from repro.harness.charts import histogram as ascii_histogram

    chart = ascii_histogram(
        [(f"axis {axis:2d}", histogram[axis]) for axis in range(1, 16)], width=44
    )
    return Experiment(
        id="fig8b",
        chart=chart,
        title="First successful separating axis identifier (and sphere-filter hits)",
        paper_reference=(
            "Most separating axes are found within the first six candidates; "
            "the bounding-sphere test filters the bulk of the axis-1 cases"
        ),
        rows=rows,
    )


def run_fig17(ctx: ExperimentContext) -> Experiment:
    """Figure 17: sequential vs parallel CD with and without the filters."""
    pairs = _cascade_pairs(ctx)
    configs = [
        ("sequential_no_filters", SAT_ONLY_SEQUENTIAL),
        ("parallel_no_filters", SAT_ONLY_PARALLEL),
        (
            "staged_no_filters",
            CascadeConfig(bounding_sphere=False, inscribed_sphere=False),
        ),
        (
            "bounding_sphere_only",
            CascadeConfig(bounding_sphere=True, inscribed_sphere=False),
        ),
        ("proposed_both_filters", DEFAULT_CASCADE),
    ]
    rows = []
    for label, config in configs:
        cycles = 0
        multiplies = 0
        for obb, aabb in pairs:
            result = cascade_intersect(obb, aabb, config)
            cycles += result.exit_cycle
            multiplies += result.multiplies
        rows.append({"config": label, "runtime_cycles": cycles, "multiplies": multiplies})
    base = rows[0]
    for row in rows:
        row["speedup_vs_sequential"] = base["runtime_cycles"] / max(1, row["runtime_cycles"])
        row["computation_vs_sequential"] = row["multiplies"] / max(1, base["multiplies"])
    return Experiment(
        id="fig17",
        title="Runtime and computation of sequential vs parallel collision detection",
        paper_reference=(
            "Parallel SAT: +46% computation for 1.77-2.52x speedup; bounding "
            "sphere closes the computation gap (~+1.3%); both filters: ~4.1x "
            "speedup with 61% computation savings vs sequential"
        ),
        rows=rows,
    )


def _environment_sweep(ctx: ExperimentContext, obstacle_counts=(2, 4, 8, 16)):
    robot = jaco2()
    sweep = []
    for n_obstacles in obstacle_counts:
        scene = random_scene(seed=ctx.seed + n_obstacles, n_obstacles=n_obstacles)
        octree = Octree.from_scene(scene, resolution=16)
        sweep.append((n_obstacles, robot, octree))
    return sweep


def run_fig18a(ctx: ExperimentContext) -> Experiment:
    """Figure 18a: CECDU runtime/energy vs environment complexity."""
    rows = []
    n_poses = max(50, ctx.scale.random_poses // 4)
    for n_obstacles, robot, octree in _environment_sweep(ctx):
        for n_oocds, label in ((1, "single_iu"), (4, "four_iu")):
            model = CECDUModel(robot, octree, CECDUConfig(n_oocds=n_oocds))
            rng = np.random.default_rng(ctx.seed)
            poses = [robot.random_configuration(rng) for _ in range(n_poses)]
            outcomes = model.simulate_poses(poses)
            cycles = [outcome.cycles for outcome in outcomes]
            energy = [outcome.energy_pj for outcome in outcomes]
            rows.append(
                {
                    "n_obstacles": n_obstacles,
                    "config": label,
                    "mean_cycles": float(np.mean(cycles)),
                    "mean_energy_pj": float(np.mean(energy)),
                }
            )
    return Experiment(
        id="fig18a",
        title="CECDU runtime/energy vs number of obstacles",
        paper_reference="Runtime grows ~50% per doubling of the obstacle count",
        rows=rows,
    )


def run_fig18b(ctx: ExperimentContext) -> Experiment:
    """Figure 18b: cascade exit-cycle breakdown vs environment complexity."""
    rows = []
    n_poses = max(50, ctx.scale.random_poses // 4)
    for n_obstacles, robot, octree in _environment_sweep(ctx):
        stats = CollisionStats()
        from repro.collision.octree_cd import OBBOctreeCollider

        collider = OBBOctreeCollider(octree)
        rng = np.random.default_rng(ctx.seed)
        for _ in range(n_poses):
            for obb in random_link_obbs(robot, 1, seed=int(rng.integers(1 << 30))):
                collider.collide(obb, stats=stats, record_trace=False)
        total = sum(stats.cascade_exits.values())
        row = {"n_obstacles": n_obstacles, "total_tests": total}
        for stage, count in sorted(stats.cascade_exits.items()):
            row[stage] = count / max(1, total)
        rows.append(row)
    return Experiment(
        id="fig18b",
        title="Cascade exit-stage breakdown vs environment complexity",
        paper_reference=(
            "The filters catch most easy cases in cycle 1 across complexities"
        ),
        rows=rows,
    )


def run_table1(ctx: ExperimentContext) -> Experiment:
    """Table 1: CECDU latency/area/power for the four configurations."""
    benchmark = ctx.jaco2_benchmarks()[0]
    robot = benchmark.robot
    rows = []
    paper = {
        (1, "mc"): 154.4,
        (1, "p"): 137.5,
        (4, "mc"): 54.8,
        (4, "p"): 46.3,
    }
    n_poses = max(100, ctx.scale.random_poses)
    for n_oocds in (1, 4):
        for kind in IntersectionUnitKind:
            config = CECDUConfig(n_oocds=n_oocds, iu_kind=kind)
            model = CECDUModel(robot, benchmark.octree, config)
            rng = np.random.default_rng(ctx.seed)
            poses = [robot.random_configuration(rng) for _ in range(n_poses)]
            cycles = [outcome.cycles for outcome in model.simulate_poses(poses)]
            spec = HardwareBlockLibrary.cecdu(config)
            rows.append(
                {
                    "intersection_units": n_oocds,
                    "iu_kind": kind.value,
                    "latency_cycles": float(np.mean(cycles)),
                    "paper_latency_cycles": paper[(n_oocds, kind.value)],
                    "area_mm2": spec.area_mm2,
                    "power_mw": spec.power_mw,
                }
            )
    return Experiment(
        id="table1",
        title="Collision detection latency for CECDU configurations (Jaco2)",
        paper_reference="154.4 / 137.5 / 54.8 / 46.3 cycles for 1mc/1p/4mc/4p",
        rows=rows,
    )
