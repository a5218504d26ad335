"""Tests for the query-engine layer (repro.planning.engine)."""

import numpy as np
import pytest

from repro.accel.telemetry import MetricsRegistry
from repro.collision.checker import RobotEnvironmentChecker
from repro.config import ENGINE_KINDS, EngineConfig
from repro.env.octree import Octree
from repro.env.scene import Scene
from repro.geometry.aabb import AABB
from repro.planning.engine import (
    BatchedEngine,
    PhaseAnswer,
    SequentialEngine,
    make_engine,
)
from repro.planning.recorder import CDTraceRecorder
from repro.robot.presets import planar_arm


@pytest.fixture(scope="module")
def world():
    scene = Scene(extent=4.0)
    scene.add_obstacle(AABB.from_min_max([0.7, -0.4, 0.0], [0.9, 0.4, 0.2]))
    octree = Octree.from_scene(scene, resolution=32)
    robot = planar_arm(2)
    return robot, octree


def make_checker(world, backend: str) -> RobotEnvironmentChecker:
    robot, octree = world
    return RobotEnvironmentChecker(
        robot, octree, motion_step=0.05, collect_stats=True, backend=backend
    )


FREE_A = np.array([np.pi, 0.0])  # pointing -x, away from the wall
FREE_B = np.array([np.pi - 0.4, 0.0])
BLOCKED = np.array([0.0, 0.0])  # straight through the wall


def run_script(recorder: CDTraceRecorder) -> list:
    """A fixed query script covering all four recorder entry points."""
    return [
        recorder.steer(FREE_A, FREE_B),
        recorder.steer(FREE_A, BLOCKED),
        recorder.feasibility([FREE_A, FREE_B, BLOCKED, FREE_A]),
        recorder.connectivity(FREE_A, [BLOCKED, FREE_B, FREE_A]),
        recorder.complete([(FREE_A, FREE_B), (FREE_A, BLOCKED)]),
    ]


class TestPhaseAnswer:
    def test_first_colliding_and_free(self):
        answer = PhaseAnswer(outcomes=[False, True, None])
        assert answer.first_colliding() == 1
        assert answer.first_free() == 0
        assert not answer.all_free

    def test_all_free(self):
        assert PhaseAnswer(outcomes=[False, False]).all_free
        assert PhaseAnswer(outcomes=[]).all_free

    def test_flags_requires_complete_answer(self):
        assert PhaseAnswer(outcomes=[False, True]).flags() == [False, True]
        with pytest.raises(ValueError):
            PhaseAnswer(outcomes=[False, None]).flags()


class TestMakeEngine:
    def test_kinds_and_aliases(self, world):
        scalar = make_checker(world, "scalar")
        batch = make_checker(world, "batch")
        assert isinstance(
            make_engine(EngineConfig(kind="sequential"), scalar), SequentialEngine
        )
        engine = make_engine(EngineConfig(kind="batch"), batch)
        assert isinstance(engine, BatchedEngine) and engine.prefilter is None
        prefiltered = make_engine(EngineConfig(kind="batch", prefilter=True), batch)
        assert prefiltered.prefilter is not None
        assert ENGINE_KINDS == ("sequential", "batch")
        with pytest.raises(ValueError, match="unknown engine kind"):
            EngineConfig(kind="batched")  # the old alias is gone

    def test_unknown_kind_raises(self, world):
        """A bare string, known kind or not, gets a migration ``TypeError``;
        an unknown kind is rejected by ``EngineConfig`` itself."""
        checker = make_checker(world, "batch")
        for kind in ("warp", "batch"):
            with pytest.raises(TypeError, match="EngineConfig"):
                make_engine(kind, checker)
        with pytest.raises(ValueError, match="unknown engine kind"):
            EngineConfig(kind="warp")

    def test_batched_rejects_scalar_checker(self, world):
        with pytest.raises(ValueError, match="backend='batch'"):
            BatchedEngine(make_checker(world, "scalar"))


class TestRecorderEngineIntegration:
    def test_answers_parallel_to_phases(self, world):
        checker = make_checker(world, "scalar")
        recorder = CDTraceRecorder(checker)
        run_script(recorder)
        assert len(recorder.answers) == len(recorder.phases) == 5
        assert all(a.engine == "sequential" for a in recorder.answers)

    def test_engine_without_checker_argument(self, world):
        checker = make_checker(world, "batch")
        recorder = CDTraceRecorder(engine=BatchedEngine(checker))
        assert recorder.checker is checker
        assert recorder.steer(FREE_A, FREE_B)

    def test_requires_checker_or_engine(self):
        with pytest.raises(ValueError):
            CDTraceRecorder()


class TestEngineEquivalence:
    """The semantics contract: identical answers AND identical stats."""

    def _run(self, world, engine_kind, backend):
        checker = make_checker(world, backend)
        engine = make_engine(EngineConfig(kind=engine_kind), checker)
        recorder = CDTraceRecorder(checker, engine=engine)
        answers = run_script(recorder)
        return answers, checker.stats.as_dict(), recorder

    def test_batched_matches_sequential(self, world):
        seq_answers, seq_stats, _ = self._run(world, "sequential", "scalar")
        bat_answers, bat_stats, _ = self._run(world, "batch", "batch")
        assert bat_answers == seq_answers
        assert bat_stats == seq_stats


class TestEngineTelemetry:
    def test_scopes_and_counters(self, world):
        telemetry = MetricsRegistry()
        checker = make_checker(world, "scalar")
        engine = SequentialEngine(checker, telemetry=telemetry)
        recorder = CDTraceRecorder(checker, engine=engine)
        run_script(recorder)
        scopes = telemetry.scopes_of("engine.phase")
        assert len(scopes) == 5
        assert scopes[0].label == "sequential:steer"
        assert telemetry.counter_value("engine.sequential.phases") == 5
        assert telemetry.counter_value("engine.mode.feasibility") == 3
        assert telemetry.counter_value("engine.mode.connectivity") == 1
        assert telemetry.counter_value("engine.mode.complete") == 1
        assert telemetry.counter_value("engine.motions") == sum(
            len(p.motions) for p in recorder.phases
        )
        assert telemetry.counter_value("engine.poses") == sum(
            p.total_poses for p in recorder.phases
        )

    def test_disabled_registry_is_noop(self, world):
        telemetry = MetricsRegistry(enabled=False)
        checker = make_checker(world, "scalar")
        recorder = CDTraceRecorder(
            checker, engine=SequentialEngine(checker, telemetry=telemetry)
        )
        assert recorder.steer(FREE_A, FREE_B)
        assert telemetry.scopes == []
