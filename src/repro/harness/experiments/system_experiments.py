"""System-level experiments: Figures 19/20 and Tables 2/3.

End-to-end motion planning latency on MPAccel configurations and the
CPU/GPU baseline comparison.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.accel.cecdu import CECDUModel
from repro.accel.config import CECDUConfig, IntersectionUnitKind, MPAccelConfig
from repro.accel.energy import HardwareBlockLibrary
from repro.accel.mpaccel import MPAccelSimulator
from repro.baselines.cpu import CPUModel, collect_query_work
from repro.baselines.device import CPU_DEVICES, GPU_DEVICES
from repro.baselines.gpu import GPUModel
from repro.baselines.system import BaselineSystemModel
from repro.env.octree import Octree
from repro.harness.experiments.context import Experiment, ExperimentContext
from repro.harness.workloads import random_link_obbs
from repro.neural.mpnet_nets import ORIGINAL_ENET_MACS, ORIGINAL_PNET_MACS
from repro.robot.presets import jaco2


def _query_times_ms(ctx: ExperimentContext, config: MPAccelConfig) -> Dict[int, List[float]]:
    """Per-benchmark lists of end-to-end query latencies on ``config``."""
    benchmarks = {b.index: b for b in ctx.baxter_benchmarks()}
    per_env: Dict[int, List[float]] = {}
    simulators: Dict[int, MPAccelSimulator] = {}
    for trace in ctx.baxter_traces():
        index = trace.benchmark_index
        if index not in simulators:
            benchmark = benchmarks[index]
            cecdu = CECDUModel(benchmark.robot, benchmark.octree, config.cecdu)
            simulators[index] = MPAccelSimulator(
                config,
                cecdu,
                sampler_pnet_macs=ORIGINAL_PNET_MACS,
                sampler_enet_macs=ORIGINAL_ENET_MACS,
            )
        timing = simulators[index].run_query(trace.result, trace.phases)
        per_env.setdefault(index, []).append(timing.total_ms)
    return per_env


def run_fig19(ctx: ExperimentContext) -> Experiment:
    """Figure 19: motion planning latency per benchmark environment."""
    config = MPAccelConfig(n_cecdus=16, cecdu=CECDUConfig(n_oocds=4))
    per_env = _query_times_ms(ctx, config)
    rows = []
    all_times: List[float] = []
    for index in sorted(per_env):
        times = per_env[index]
        all_times.extend(times)
        rows.append(
            {
                "benchmark": f"bench_{index}",
                "min_ms": min(times),
                "mean_ms": float(np.mean(times)),
                "max_ms": max(times),
            }
        )
    rows.append(
        {
            "benchmark": "overall",
            "min_ms": min(all_times),
            "mean_ms": float(np.mean(all_times)),
            "max_ms": max(all_times),
        }
    )
    return Experiment(
        id="fig19",
        title="MPNet motion planning runtime on MPAccel (Baxter, 16 CECDUs x 4 mc OOCDs)",
        paper_reference="0.014 ms - 0.49 ms per query, 0.099 ms average (< 1 ms real-time)",
        rows=rows,
    )


def run_fig20(ctx: ExperimentContext) -> Experiment:
    """Figure 20: latency and queries/(s*W*mm^2) across MPAccel configs."""
    rows = []
    for n_cecdus in (8, 16):
        for n_oocds in (4, 1):
            for kind in IntersectionUnitKind:
                config = MPAccelConfig(
                    n_cecdus=n_cecdus,
                    cecdu=CECDUConfig(n_oocds=n_oocds, iu_kind=kind),
                )
                per_env = _query_times_ms(ctx, config)
                times = [t for env_times in per_env.values() for t in env_times]
                mean_s = float(np.mean(times)) / 1e3
                spec = HardwareBlockLibrary.mpaccel(config)
                performance = (1.0 / mean_s) / (
                    (spec.power_mw / 1e3) * spec.area_mm2
                )
                rows.append(
                    {
                        "config": config.label(),
                        "mean_ms": float(np.mean(times)),
                        "p95_ms": float(np.percentile(times, 95)),
                        "max_ms": max(times),
                        "queries_per_s_w_mm2": performance,
                    }
                )
    return Experiment(
        id="fig20",
        title="Motion planning latency and area-power efficiency per MPAccel config",
        paper_reference=(
            "More CECDUs/OOCDs cut latency; smaller configs win on "
            "queries/(s*W*mm^2) density"
        ),
        rows=rows,
    )


def run_table2(ctx: ExperimentContext) -> Experiment:
    """Table 2: area and power breakdown of the hardware blocks."""
    lib = HardwareBlockLibrary
    rows = [
        {"module": "Scheduler", "area_mm2": lib.SCHEDULER.area_mm2, "power_mw": lib.SCHEDULER.power_mw},
        {
            "module": "OBB Transformation Unit",
            "area_mm2": lib.OBB_TRANSFORM_UNIT.area_mm2,
            "power_mw": lib.OBB_TRANSFORM_UNIT.power_mw,
        },
        {
            "module": "Octree Traversal Unit",
            "area_mm2": lib.OCTREE_TRAVERSAL_UNIT.area_mm2,
            "power_mw": lib.OCTREE_TRAVERSAL_UNIT.power_mw,
        },
        {
            "module": "Intersection Unit (multi-cycle)",
            "area_mm2": lib.INTERSECTION_UNIT_MC.area_mm2,
            "power_mw": lib.INTERSECTION_UNIT_MC.power_mw,
        },
        {
            "module": "Intersection Unit (pipelined)",
            "area_mm2": lib.INTERSECTION_UNIT_P.area_mm2,
            "power_mw": lib.INTERSECTION_UNIT_P.power_mw,
        },
    ]
    cecdu_mc = lib.cecdu(CECDUConfig(n_oocds=4, iu_kind=IntersectionUnitKind.MULTI_CYCLE))
    rows.append(
        {
            "module": "CECDU (4 multi-cycle OOCDs)",
            "area_mm2": cecdu_mc.area_mm2,
            "power_mw": cecdu_mc.power_mw,
        }
    )
    for kind, label in (
        (IntersectionUnitKind.MULTI_CYCLE, "MPAccel config 1 (16 CECDUs, 4 mc OOCDs)"),
        (IntersectionUnitKind.PIPELINED, "MPAccel config 2 (16 CECDUs, 4 p OOCDs)"),
    ):
        config = MPAccelConfig(n_cecdus=16, cecdu=CECDUConfig(n_oocds=4, iu_kind=kind))
        spec = lib.mpaccel(config)
        rows.append({"module": label, "area_mm2": spec.area_mm2, "power_mw": spec.power_mw})
    return Experiment(
        id="table2",
        title="Area and power breakdown (45 nm)",
        paper_reference=(
            "CECDU(4 mc) 0.694 mm2 / 215.7 mW; MPAccel config 1: 11.21 mm2 / "
            "3.51 W; config 2: 18.12 mm2 / 4.03 W"
        ),
        rows=rows,
        notes=(
            "Block values are the paper's synthesis numbers (our calibration "
            "inputs); composed totals deviate < ~10% from the paper's "
            "synthesized top-level area."
        ),
    )


def run_table3(ctx: ExperimentContext) -> Experiment:
    """Table 3: CD throughput and motion planning runtime on CPUs/GPUs."""
    # --- Collision detection rows: 2^20 OBB-octree queries -------------
    from repro.env.generator import random_scene

    scene = random_scene(seed=ctx.seed)
    octree = Octree.from_scene(scene, resolution=32)
    robot = jaco2()
    n_model_queries = max(2048, ctx.scale.random_poses * 7)
    obbs = random_link_obbs(robot, n_model_queries // 7, seed=ctx.seed)
    work = collect_query_work(obbs, octree)
    positions = np.array([obb.center for obb in obbs])
    n_leaves = len(octree.occupied_leaves())
    scale = 2**20 / len(work)

    rows = []
    for key, device in GPU_DEVICES.items():
        model = GPUModel(device)
        rows.append(
            {
                "device": device.name,
                "obb_octree_ms": model.traversal_time_s(work) * scale * 1e3,
                "optimized_ms": model.traversal_time_s(
                    work, positions=positions, locality_sort=True, memory_interleaving=True
                )
                * scale
                * 1e3,
                "leaf_nodes_ms": model.leaf_time_s(2**20, n_leaves) * 1e3,
                "power_w": device.power_w,
            }
        )
    for key, device in CPU_DEVICES.items():
        model = CPUModel(device)
        rows.append(
            {
                "device": device.name,
                "obb_octree_ms": model.traversal_time_s(work) * scale * 1e3,
                "optimized_ms": float("nan"),
                "leaf_nodes_ms": model.leaf_time_s(2**20, n_leaves) * 1e3,
                "power_w": device.power_w,
            }
        )

    # MPAccel rows: 2^20 OBB-octree queries over the CECDU pool.
    for kind, label in (
        (IntersectionUnitKind.MULTI_CYCLE, "MPAccel 16x4 multi-cycle"),
        (IntersectionUnitKind.PIPELINED, "MPAccel 16x4 pipelined"),
    ):
        config = MPAccelConfig(n_cecdus=16, cecdu=CECDUConfig(n_oocds=4, iu_kind=kind))
        cecdu = CECDUModel(robot, octree, config.cecdu)
        rng = np.random.default_rng(ctx.seed)
        poses = [robot.random_configuration(rng) for _ in range(200)]
        sample = [outcome.cycles for outcome in cecdu.simulate_poses(poses)]
        n_poses = 2**20 / len(robot.links)
        cycles = (n_poses / config.n_cecdus) * float(np.mean(sample))
        time_ms = cycles * config.cecdu.clock_period_ns * 1e-6
        spec = HardwareBlockLibrary.mpaccel(config)
        rows.append(
            {
                "device": label,
                "obb_octree_ms": time_ms,
                "optimized_ms": float("nan"),
                "leaf_nodes_ms": float("nan"),
                "power_w": spec.power_mw / 1e3,
            }
        )

    # --- Motion planning row: average MPNet query runtime --------------
    traces = ctx.baxter_traces()
    mp_rows = []
    for key in ("titan-v", "jetson-tx2"):
        model = BaselineSystemModel(key, GPU_DEVICES[key])
        times = [model.run_query(trace).total_ms for trace in traces]
        mp_rows.append({"device": GPU_DEVICES[key].name, "mean_planning_ms": float(np.mean(times))})
    for key in ("i7-4771", "cortex-a57"):
        model = BaselineSystemModel(key, CPU_DEVICES[key])
        times = [model.run_query(trace).total_ms for trace in traces]
        mp_rows.append({"device": CPU_DEVICES[key].name, "mean_planning_ms": float(np.mean(times))})
    for row, mp_row in zip(rows, mp_rows):
        row["mean_planning_ms"] = mp_row["mean_planning_ms"]

    return Experiment(
        id="table3",
        title="Collision detection and motion planning runtime on CPUs/GPUs",
        paper_reference=(
            "2^20 queries: Titan V 24/12/6 ms, TX2 5833/3403/1373 ms, i7 "
            "153/890 ms, A57 360/3304 ms; MPAccel 16x4: 0.91 ms (mc), 0.53 ms "
            "(p); planning: 1.42 / 110.27 / 4.13 / 11.62 ms"
        ),
        rows=rows,
        notes=(
            "Device models are behavioral: work counts come from real "
            "traversals; per-device throughput constants are calibrated to "
            "the paper's traversal-kernel measurements (see repro/baselines)."
        ),
    )
