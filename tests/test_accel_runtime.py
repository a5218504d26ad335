"""Tests for the closed-loop robot runtime and SAS utilization stats."""

import numpy as np
import pytest

from repro.accel.config import CECDUConfig, MPAccelConfig, SASConfig
from repro.accel.runtime import RobotRuntime, RuntimeReport, TickReport
from repro.accel.sas import SASSimulator
from repro.collision.checker import RobotEnvironmentChecker
from repro.config import ReproConfig
from repro.env.octree import Octree
from repro.env.scene import Scene
from repro.geometry.aabb import AABB
from repro.planning.motion import CDPhase, FunctionMode, MotionRecord
from repro.robot.presets import planar_arm


def _scene_with_wall():
    scene = Scene(extent=4.0)
    scene.add_obstacle(AABB.from_min_max([0.7, -0.4, 0.0], [0.9, 0.4, 0.2]))
    return scene


class TestRobotRuntime:
    def _runtime(self, update):
        return RobotRuntime(
            robot=planar_arm(2),
            scene=_scene_with_wall(),
            config=MPAccelConfig(n_cecdus=8, cecdu=CECDUConfig(n_oocds=4)),
            scene_update=update,
            repro=ReproConfig(octree_resolution=32, collect_stats=False),
        )

    def test_static_scene_plans_once(self, rng):
        runtime = self._runtime(lambda scene, tick, rng: False)
        report = runtime.run(
            np.array([np.pi * 0.9, 0.0]), np.array([-np.pi * 0.9, 0.0]),
            n_ticks=3, rng=rng,
        )
        assert len(report.ticks) == 4  # initial plan + 3 quiet ticks
        assert report.replan_count == 1  # only the initial plan
        assert report.ticks[0].plan_valid
        assert all(t.planning_ms == 0.0 for t in report.ticks[1:])
        assert report.final_path

    def test_obstacle_drop_triggers_replanning(self, rng):
        def drop_wall(scene, tick, rng_):
            if tick == 2:
                # A bar across the -x half plane, where the detour lives.
                scene.add_obstacle(
                    AABB.from_min_max([-0.9, -0.4, 0.0], [-0.7, 0.4, 0.2])
                )
                return True
            return False

        runtime = self._runtime(drop_wall)
        report = runtime.run(
            np.array([np.pi * 0.9, 0.0]), np.array([-np.pi * 0.9, 0.0]),
            n_ticks=3, rng=rng,
        )
        changed_tick = report.ticks[2]
        assert changed_tick.planning_ms > 0.0
        assert changed_tick.phases > 0

    def test_budget_check(self, rng):
        runtime = self._runtime(lambda scene, tick, rng_: False)
        report = runtime.run(
            np.array([np.pi * 0.9, 0.0]), np.array([np.pi * 0.5, 0.0]),
            n_ticks=1, rng=rng,
        )
        assert report.worst_tick_ms > 0.0
        assert report.meets_budget(budget_ms=10.0)


class TestRuntimeReportEdgeCases:
    """Regressions pinning the report math on degenerate inputs."""

    def test_empty_report(self):
        report = RuntimeReport()
        assert report.worst_tick_ms == 0.0
        assert report.replan_count == 0
        assert report.meets_budget()  # max() default: an empty run holds
        assert report.deadline_miss_count == 0
        assert report.fault_count == 0
        assert sum(report.degradation_histogram.values()) == 0

    def test_single_tick_run(self, rng):
        runtime = RobotRuntime(
            robot=planar_arm(2),
            scene=_scene_with_wall(),
            config=MPAccelConfig(n_cecdus=8, cecdu=CECDUConfig(n_oocds=4)),
            scene_update=lambda scene, tick, rng_: False,
            repro=ReproConfig(octree_resolution=32, collect_stats=False),
        )
        report = runtime.run(
            np.array([np.pi * 0.9, 0.0]), np.array([-np.pi * 0.9, 0.0]),
            n_ticks=0, rng=rng,
        )
        assert len(report.ticks) == 1
        assert report.replan_count == 1
        first = report.ticks[0]
        assert report.worst_tick_ms == first.total_ms
        assert first.octree_update_ms > 0.0  # initial full octree transfer
        assert not report.meets_budget(budget_ms=first.total_ms * 0.5)
        assert report.meets_budget(budget_ms=first.total_ms)

    def test_total_ms_includes_octree_update(self):
        tick = TickReport(
            tick=0, replanned=True, plan_valid=True, planning_ms=0.25,
            phases=1, poses_checked=10, octree_update_ms=0.75,
        )
        assert tick.total_ms == pytest.approx(1.0)
        report = RuntimeReport(ticks=[tick])
        assert report.worst_tick_ms == pytest.approx(1.0)
        assert not report.meets_budget(budget_ms=0.9)


class _FakeChecker:
    def __init__(self):
        self.motion_step = 0.2

    def check_pose(self, q):
        return False


class TestUtilization:
    def _phase(self, n_motions=4, n_poses=20):
        motions = [
            MotionRecord(np.linspace([0.0], [1.0], n_poses), _FakeChecker())
            for _ in range(n_motions)
        ]
        return CDPhase(FunctionMode.COMPLETE, motions)

    def test_busy_cycles_counted(self):
        result = SASSimulator(n_cdus=2, policy="np").run(self._phase())
        assert result.busy_cycles == result.tests  # unit latency model

    def test_single_cdu_high_utilization(self):
        result = SASSimulator(
            n_cdus=1, policy="np", config=SASConfig(dispatch_per_cycle=None)
        ).run(self._phase())
        assert result.utilization > 0.9

    def test_overprovisioned_cdus_idle(self):
        """The Section 7.1 saturation: 1 dispatch/cycle cannot feed many
        single-cycle CDUs, so utilization collapses as the pool grows."""
        small = SASSimulator(n_cdus=2, policy="mnp").run(self._phase())
        large = SASSimulator(n_cdus=32, policy="mnp").run(self._phase())
        assert large.utilization < small.utilization

    def test_utilization_bounded(self):
        for n_cdus in (1, 4, 16):
            result = SASSimulator(n_cdus=n_cdus, policy="mcsp").run(self._phase())
            assert 0.0 <= result.utilization <= 1.0

    def test_run_phases_accumulates_busy(self):
        sim = SASSimulator(n_cdus=2, policy="np")
        total = sim.run_phases([self._phase(), self._phase()])
        assert total.busy_cycles == total.tests


class TestCandidateSampling:
    def test_multi_candidate_planner(self, rng):
        from repro.env.mapping import scan_scene_points
        from repro.planning.mpnet import MPNetPlanner
        from repro.planning.recorder import CDTraceRecorder
        from repro.planning.samplers import HeuristicSampler

        scene = _scene_with_wall()
        octree = Octree.from_scene(scene, resolution=32)
        robot = planar_arm(2)
        checker = RobotEnvironmentChecker(robot, octree, motion_step=0.05)
        recorder = CDTraceRecorder(checker)
        planner = MPNetPlanner(
            recorder,
            HeuristicSampler(robot),
            scan_scene_points(scene, 40, rng=rng),
            candidates_per_step=4,
        )
        result = planner.plan(
            np.array([np.pi * 0.9, 0.0]), np.array([-np.pi * 0.9, 0.0]), rng
        )
        assert result.success
        # Each planner step pays for all candidates.
        assert result.nn_inferences >= 4

    def test_candidates_validation(self, rng):
        from repro.planning.samplers import HeuristicSampler

        sampler = HeuristicSampler(planar_arm(2))
        with pytest.raises(ValueError):
            sampler.sample_candidates(None, np.zeros(2), np.ones(2), rng, 0)

    def test_planner_validation(self):
        from repro.planning.mpnet import MPNetPlanner
        from repro.planning.recorder import CDTraceRecorder
        from repro.planning.samplers import HeuristicSampler

        robot = planar_arm(2)
        octree = Octree.from_scene(_scene_with_wall(), resolution=16)
        checker = RobotEnvironmentChecker(robot, octree)
        with pytest.raises(ValueError):
            MPNetPlanner(
                CDTraceRecorder(checker),
                HeuristicSampler(robot),
                np.zeros((1, 3)),
                candidates_per_step=0,
            )
