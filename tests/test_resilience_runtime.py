"""Chaos suite: the realtime loop under deterministic fault injection.

Everything here is marked ``chaos`` and runs as its own CI job.  The suite
pins four guarantees:

1. **Determinism** — a fixed fault seed produces an identical fault
   schedule and an identical RuntimeReport across two runs.
2. **Safety** — under any injected fault mix, every path the loop emits
   was validated against the octree the runtime held that tick; when
   nothing validates, the loop safe-stops instead of shipping a guess.
3. **Deadline enforcement** — the simulated per-tick budget drives the
   degradation ladder and the miss accounting.
4. **Transparency** — disabled hooks change nothing: a run with a disabled
   injector is bit-identical to a run with no injector at all.
"""

import numpy as np
import pytest

from repro.accel.config import CECDUConfig, MPAccelConfig
from repro.accel.runtime import RobotRuntime
from repro.accel.sas import SASSimulator, unit_latency_model
from repro.accel.telemetry import MetricsRegistry
from repro.collision.checker import RobotEnvironmentChecker
from repro.config import ReproConfig, ResilienceConfig
from repro.env.scene import Scene
from repro.geometry.aabb import AABB
from repro.planning.motion import CDPhase, FunctionMode, MotionRecord
from repro.robot.presets import planar_arm
from repro.resilience import (
    DegradationLevel,
    FaultInjector,
    FaultModels,
)

pytestmark = pytest.mark.chaos


def _scene():
    scene = Scene(extent=4.0)
    scene.add_obstacle(AABB.from_min_max([0.7, -0.4, 0.0], [0.9, 0.4, 0.2]))
    return scene


def _update_far_then_near(scene, tick, rng_):
    if tick == 2:
        # Far from the workspace the arm sweeps: path survives revalidation.
        scene.add_obstacle(AABB.from_min_max([1.6, 1.6, 0.0], [1.9, 1.9, 0.2]))
        return True
    if tick == 4:
        # In the detour's way: forces the ladder below revalidate-only.
        scene.add_obstacle(AABB.from_min_max([-0.9, -0.4, 0.0], [-0.7, 0.4, 0.2]))
        return True
    return False


def _runtime(update=_update_far_then_near, resilience=ResilienceConfig(), **kwargs):
    return RobotRuntime(
        robot=planar_arm(2),
        scene=_scene(),
        config=MPAccelConfig(n_cecdus=8, cecdu=CECDUConfig(n_oocds=4)),
        scene_update=update,
        repro=ReproConfig(
            octree_resolution=32, collect_stats=False, resilience=resilience
        ),
        **kwargs,
    )


def _run(runtime, n_ticks=5, seed=0):
    return runtime.run(
        np.array([np.pi * 0.9, 0.0]),
        np.array([-np.pi * 0.9, 0.0]),
        n_ticks=n_ticks,
        rng=np.random.default_rng(seed),
    )


def _report_fingerprint(report):
    rows = [
        (
            t.tick, t.replanned, t.plan_valid, round(t.planning_ms, 12),
            t.phases, t.poses_checked, round(t.octree_update_ms, 12),
            t.degradation, t.deadline_miss, t.stale_octree, t.faults, t.retries,
        )
        for t in report.ticks
    ]
    path = tuple(tuple(np.asarray(q, dtype=float)) for q in report.final_path)
    return (tuple(rows), path)


CHAOS_MODELS = FaultModels(
    bit_flip_rate=0.02,
    lane_drop_rate=0.02,
    lane_stall_rate=0.02,
    sensor_dropout_rate=0.2,
    engine_exception_rate=0.05,
)


class TestDeterminism:
    def test_same_seed_same_report_and_schedule(self):
        fingerprints, schedules = [], []
        for _ in range(2):
            injector = FaultInjector(CHAOS_MODELS, seed=13)
            runtime = _runtime(
                faults=injector, resilience=ResilienceConfig(sim_ms=1.0)
            )
            report = _run(runtime)
            fingerprints.append(_report_fingerprint(report))
            schedules.append(injector.schedule().events)
        assert fingerprints[0] == fingerprints[1]
        assert schedules[0] == schedules[1]
        assert schedules[0]  # the chaos rates must actually fire

    def test_disabled_injector_is_bit_identical_to_none(self):
        baseline = _report_fingerprint(_run(_runtime()))
        disabled = FaultInjector(CHAOS_MODELS, seed=13, enabled=False)
        shadowed = _report_fingerprint(_run(_runtime(faults=disabled)))
        assert shadowed == baseline
        assert disabled.fault_count == 0

    def test_inert_models_are_bit_identical_to_none(self):
        baseline = _report_fingerprint(_run(_runtime()))
        inert = FaultInjector(FaultModels(), seed=13)
        assert _report_fingerprint(_run(_runtime(faults=inert))) == baseline


#: CHAOS_MODELS minus bit flips: every fault here is verdict-preserving
#: (lane faults touch only scheduling, engine faults only raise, dropout
#: only withholds updates), so an offline clean-checker audit must agree
#: with the runtime's own validation verdicts.  Bit flips are excluded on
#: purpose — corrupting the datapath's verdicts is their entire job.
VERDICT_PRESERVING_MODELS = FaultModels(
    lane_drop_rate=0.02,
    lane_stall_rate=0.02,
    sensor_dropout_rate=0.2,
    engine_exception_rate=0.05,
)


class TestSafetyInvariant:
    def test_every_emitted_path_validated_against_held_octree(self):
        """Audit each emission offline with an independent checker."""
        injector = FaultInjector(VERDICT_PRESERVING_MODELS, seed=3)
        runtime = _runtime(
            faults=injector, resilience=ResilienceConfig(sim_ms=1.0, audit=True)
        )
        report = _run(runtime, n_ticks=6)
        assert runtime.audit_trail  # something was emitted
        robot = runtime.robot
        for tick, path, octree in runtime.audit_trail:
            checker = RobotEnvironmentChecker(robot, octree, motion_step=0.05)
            for i in range(len(path) - 1):
                assert not checker.check_motion(path[i], path[i + 1]).collision, (
                    f"tick {tick}: emitted segment {i} collides on the "
                    "octree it was supposedly validated against"
                )

    def test_unvalidatable_tick_safe_stops(self):
        """When every validation avenue fails, the loop emits no path."""
        # Every engine phase raises: revalidate, replan, and reuse all fail.
        injector = FaultInjector(
            FaultModels(engine_exception_rate=1.0), seed=0
        )
        runtime = _runtime(
            faults=injector,
            resilience=ResilienceConfig(sim_ms=1.0, max_retries=1),
        )
        report = _run(runtime, n_ticks=3)
        assert report.final_path == []
        work_ticks = [t for t in report.ticks if t.degradation is not None]
        assert work_ticks
        for t in work_ticks:
            assert t.degradation == DegradationLevel.SAFE_STOP.label
            assert not t.plan_valid
        assert report.safe_stop_count == len(work_ticks)
        assert report.retry_count > 0

    def test_reuse_last_valid_rung(self):
        """A known-good path is restored when replanning is unaffordable."""

        def toggle(scene, tick, rng_):
            # tick 2 adds a far obstacle; tick 3 removes it again, so the
            # original path stays valid throughout.
            if tick == 2:
                scene.add_obstacle(
                    AABB.from_min_max([1.6, 1.6, 0.0], [1.9, 1.9, 0.2])
                )
                return True
            if tick == 3:
                scene.obstacles.pop()
                return True
            return False

        # Engine faults kill revalidation of the *current* path on its
        # first try beyond the retry allowance; with the replan rung gated
        # by an exhausted budget, only the reuse rung can save the tick.
        injector = FaultInjector(
            FaultModels(engine_exception_rate=0.35), seed=6
        )
        runtime = _runtime(
            update=toggle,
            faults=injector,
            resilience=ResilienceConfig(sim_ms=0.05, max_retries=0),
        )
        report = _run(runtime, n_ticks=4)
        histogram = report.degradation_histogram
        # The run must have degraded below full replans at least once and
        # never emitted an unvalidated path.
        assert sum(histogram.values()) == len(
            [t for t in report.ticks if t.degradation is not None]
        )
        for t in report.ticks:
            if t.plan_valid:
                assert t.degradation != DegradationLevel.SAFE_STOP.label


class TestDeadlineEnforcement:
    def test_tiny_sim_budget_records_misses(self):
        runtime = _runtime(resilience=ResilienceConfig(sim_ms=0.001))
        report = _run(runtime)
        assert report.deadline_miss_count > 0
        # Quiet ticks never miss: they do no work.
        for t in report.ticks:
            if t.degradation is None:
                assert not t.deadline_miss

    def test_generous_budget_matches_healthy_run(self):
        """A deadline that never triggers must not change planner outcomes.

        Resilient mode may do strictly *more* validation work on failing
        ticks (the reuse-last-valid rung revalidates the fallback path),
        so timings are compared only on ticks that emit a path.
        """
        baseline = _run(_runtime())
        budgeted = _run(_runtime(resilience=ResilienceConfig(sim_ms=1e9)))
        assert [t.plan_valid for t in budgeted.ticks] == [
            t.plan_valid for t in baseline.ticks
        ]
        for base, budg in zip(baseline.ticks, budgeted.ticks):
            if base.plan_valid:
                assert round(budg.planning_ms, 12) == round(base.planning_ms, 12)
        assert budgeted.deadline_miss_count == 0
        np.testing.assert_array_equal(
            np.asarray(budgeted.final_path), np.asarray(baseline.final_path)
        )

    def test_wall_budget_uses_injected_clock(self):
        ticks = iter(np.arange(0.0, 1e4, 0.5))  # every clock() call +500 ms

        runtime = _runtime(
            resilience=ResilienceConfig(sim_ms=None, wall_ms=1.0),
            clock=lambda: next(ticks),
        )
        report = _run(runtime, n_ticks=3)
        assert report.deadline_miss_count > 0

    def test_exhausted_budget_gates_the_replan_rung(self):
        """A budget already spent before planning gates the replan rung.

        Tick 0 ships the full initial octree, so its bus cost alone blows
        a 1 ns budget before any planning happens — the replan rung must
        be gated and the tick safe-stops.  (Later ticks with a zero-delta
        update cost may still legitimately attempt a replan: the gate
        prices work already *spent*, it does not predict the replan.)
        """
        runtime = _runtime(resilience=ResilienceConfig(sim_ms=1e-9))
        report = _run(runtime, n_ticks=4)
        first = report.ticks[0]
        assert first.degradation == DegradationLevel.SAFE_STOP.label
        assert not first.replanned  # the planner never ran
        assert first.deadline_miss
        # Every tick that did any work at all missed the 1 ns budget.
        for t in report.ticks:
            if t.degradation is not None:
                assert t.deadline_miss


class TestSensorDropout:
    def test_dropout_produces_stale_quiet_ticks(self):
        injector = FaultInjector(
            FaultModels(sensor_dropout_rate=1.0), seed=0
        )
        runtime = _runtime(faults=injector)
        report = _run(runtime, n_ticks=5)
        stale = [t for t in report.ticks if t.stale_octree]
        # Updates arrive at ticks 2 and 4 and both are dropped.
        assert len(stale) == 2
        for t in stale:
            assert t.faults >= 1
        assert report.stale_tick_count == 2
        assert report.fault_count >= 2
        # The path planned at tick 0 is still the emitted path: the loop
        # never observed the changes.
        assert report.final_path


class TestFaultTelemetry:
    def test_counters_and_histogram_exported(self):
        telemetry = MetricsRegistry()
        injector = FaultInjector(
            FaultModels(sensor_dropout_rate=1.0), seed=1, telemetry=telemetry
        )
        runtime = _runtime(faults=injector, telemetry=telemetry)
        report = _run(runtime, n_ticks=5)
        assert telemetry.counter_value("faults.sensor_dropout") == 2
        assert telemetry.counter_value("runtime.stale_ticks") == 2
        histogram = report.degradation_histogram
        assert sum(histogram.values()) >= 1


class TestSASLaneFaults:
    def _phase(self, n_motions=6, n_poses=10):
        class _Checker:
            motion_step = 0.2

            def check_pose(self, q):
                return float(q[0]) > 0.7

        checker = _Checker()
        motions = [
            MotionRecord(np.linspace([0.0], [1.0], n_poses), checker)
            for _ in range(n_motions)
        ]
        return CDPhase(FunctionMode.COMPLETE, motions)

    def test_drops_requeue_and_verdicts_stay_correct(self):
        injector = FaultInjector(FaultModels(lane_drop_rate=0.3), seed=4)
        sim = SASSimulator(
            n_cdus=4, policy="np", latency_model=unit_latency_model,
            fault_injector=injector,
        )
        phase = self._phase()
        result = sim.run(phase)
        reference = SASSimulator(
            n_cdus=4, policy="np", latency_model=unit_latency_model
        ).run(self._phase())
        assert result.dropped_queries > 0
        assert result.motion_outcomes == reference.motion_outcomes
        # Dropped work was still performed: tests can only grow.
        assert result.tests >= reference.tests

    def test_stalls_add_latency_not_wrong_answers(self):
        injector = FaultInjector(
            FaultModels(lane_stall_rate=0.5, lane_stall_cycles=16), seed=4
        )
        sim = SASSimulator(
            n_cdus=4, policy="np", latency_model=unit_latency_model,
            fault_injector=injector,
        )
        result = sim.run(self._phase())
        reference = SASSimulator(
            n_cdus=4, policy="np", latency_model=unit_latency_model
        ).run(self._phase())
        assert result.stalled_queries > 0
        assert result.motion_outcomes == reference.motion_outcomes
        assert result.cycles >= reference.cycles

    def test_fault_counters_round_trip_serialization(self, tmp_path):
        from repro.harness.serialization import load_sas_run, save_sas_run

        injector = FaultInjector(
            FaultModels(lane_drop_rate=0.3, lane_stall_rate=0.3), seed=5
        )
        sim = SASSimulator(
            n_cdus=4, policy="np", latency_model=unit_latency_model,
            fault_injector=injector,
        )
        result = sim.run(self._phase())
        assert result.dropped_queries + result.stalled_queries > 0
        path = str(tmp_path / "sas.json")
        save_sas_run(path, result)
        loaded, _ = load_sas_run(path)
        assert loaded.dropped_queries == result.dropped_queries
        assert loaded.stalled_queries == result.stalled_queries


class TestBitFlips:
    def test_checker_survives_certain_flips(self, simple_octree):
        robot = planar_arm(2)
        injector = FaultInjector(FaultModels(bit_flip_rate=1.0), seed=7)
        checker = RobotEnvironmentChecker(
            robot, simple_octree, fault_injector=injector
        )
        for q in np.linspace([-1.0, -1.0], [1.0, 1.0], 20):
            checker.check_pose(q)  # must not raise
        assert injector.counts_by_kind().get("bit_flip", 0) > 0

    def test_batch_backend_falls_back_under_flips(self, simple_octree):
        robot = planar_arm(2)
        injector = FaultInjector(FaultModels(bit_flip_rate=0.5), seed=8)
        checker = RobotEnvironmentChecker(
            robot, simple_octree, backend="batch", fault_injector=injector
        )
        poses = np.linspace([-1.0, -1.0], [1.0, 1.0], 16)
        verdicts = checker.check_poses(poses)  # scalar fallback path
        assert verdicts.shape == (16,)
