"""Chaos serving: the planning service and the fleet under engine faults.

The serving leg of the chaos contract: with seeded fault models
configured through ``ServiceConfig(fault_models=..., fault_seed=...)``
raising transient engine faults inside the batched round, under live
multi-request traffic, the service (a) never emits a path that was not
validated by a successfully answered phase — a request whose retries are
exhausted fails with ``status="failed"`` and no path; (b) remains
deterministic per request — two runs with the same seeds produce
bit-identical responses, statuses, and clocks; (c) returns, for every
request that does complete, exactly what solo :func:`repro.api.plan`
returns — path, stats and phase count; and (d) counts retries per phase,
as ``ServiceConfig.max_fault_retries`` documents.  A 2-shard fleet, whose
shards each build their own injector from the same ``fault_seed``, keeps
(a)–(c).
"""

import collections

import numpy as np
import pytest

from repro import api
from repro.collision.checker import RobotEnvironmentChecker
from repro.config import ReproConfig, ServiceConfig
from repro.env.generator import random_scene
from repro.env.octree import Octree
from repro.planning.queries import CDQuery
from repro.resilience.faults import FaultModels
from repro.robot.presets import planar_arm
from repro.serving import PlanningFleet, PlanningService, PlanRequest

pytestmark = [pytest.mark.chaos, pytest.mark.serving]

#: Eight requests over all three planners (one PRM: it is the slow solo run).
_PLANNERS = ("rrt_connect", "rrt", "prm") + ("rrt_connect", "rrt") * 2 + (
    "rrt_connect",
)


@pytest.fixture(scope="module")
def world():
    scene = random_scene(seed=1)
    octree = Octree.from_scene(scene, resolution=16)
    return scene, octree, planar_arm()


@pytest.fixture(scope="module")
def free_configs(world):
    _, octree, robot = world
    checker = RobotEnvironmentChecker.from_config(robot, octree, ReproConfig())
    rng = np.random.default_rng(7)
    return [checker.sample_free_configuration(rng) for _ in range(16)]


@pytest.fixture(scope="module")
def requests(free_configs):
    qs = free_configs
    return [
        PlanRequest(f"chaos-{i}", qs[2 * i], qs[2 * i + 1], seed=200 + i)
        for i in range(4)
    ]


@pytest.fixture(scope="module")
def mixed_requests(free_configs):
    qs = free_configs
    return [
        PlanRequest(
            f"mixed-{i}",
            qs[2 * i],
            qs[2 * i + 1],
            planner=planner,
            seed=300 + i,
        )
        for i, planner in enumerate(_PLANNERS)
    ]


@pytest.fixture(scope="module")
def solo(world, mixed_requests):
    """Each mixed request alone through the default ``repro.api.plan``."""
    _, octree, robot = world
    return {
        request.request_id: api.plan(
            robot,
            octree,
            request.q_start,
            request.q_goal,
            ReproConfig(planner=request.planner),
            seed=request.seed,
        )
        for request in mixed_requests
    }


def _faulty_service(rate, fault_seed=99, max_fault_retries=2):
    """A service section whose engine faults fire at ``rate`` per phase."""
    return ServiceConfig(
        max_fault_retries=max_fault_retries,
        fault_models=FaultModels(
            engine_exception_rate=rate / 2, engine_timeout_rate=rate / 2
        ),
        fault_seed=fault_seed,
    )


def _chaos_drain(world, requests, rate, max_fault_retries=2):
    _, octree, robot = world
    config = ReproConfig.for_service(
        service=_faulty_service(rate, max_fault_retries=max_fault_retries)
    )
    service = PlanningService(robot, octree, config=config)
    for request in requests:
        service.submit(request)
    return service.run(), service.fault_injector


def _paths_equal(a, b):
    if a is None or b is None:
        return a is b
    return len(a) == len(b) and all(
        np.array_equal(x, y) for x, y in zip(a, b)
    )


def _assert_completed_match_solo(responses, solo):
    for rid, response in responses.items():
        if response.status != "completed":
            assert response.path is None, rid
            assert not response.success, rid
            continue
        reference = solo[rid]
        assert response.success == reference.success, rid
        assert _paths_equal(response.path, reference.path), rid
        assert response.stats.as_dict() == reference.stats.as_dict(), rid
        assert response.num_phases == reference.num_phases, rid


def _fingerprint(report):
    """Per-request outcome and timing, plus the drain clock."""
    return (
        {
            rid: (
                r.status,
                r.success,
                None if r.path is None else [q.tolist() for q in r.path],
                r.stats.as_dict(),
                r.completed_ms,
            )
            for rid, r in sorted(report.responses.items())
        },
        report.sim_ms,
    )


class TestChaosServing:
    def test_deterministic_under_faults(self, world, requests):
        def fingerprint():
            report, injector = _chaos_drain(world, requests, rate=0.05)
            return _fingerprint(report) + (
                [event.kind for event in injector.events],
            )

        first, second = fingerprint(), fingerprint()
        assert first == second
        assert first[2], "the fault schedule should have fired"

    def test_exhausted_retries_fail_without_a_path(self, world, requests):
        # Every phase faults: retries always exhaust, every request fails,
        # and no path is ever emitted from an unvalidated phase.
        report, injector = _chaos_drain(
            world, requests, rate=2.0, max_fault_retries=1
        )
        assert len(report.responses) == len(requests)
        for response in report.responses.values():
            assert response.status == "failed"
            assert response.path is None
            assert not response.success
            assert response.latency_ms >= 0.0
        assert report.status_counts == {"failed": len(requests)}
        assert any(
            event.kind in ("engine_exception", "engine_timeout")
            for event in injector.events
        )

    def test_surviving_paths_revalidate_cleanly(self, world, requests):
        # Moderate fault rate: some requests complete; every emitted path
        # must be collision-free under a fresh fault-free checker.
        _, octree, robot = world
        report, _ = _chaos_drain(world, requests, rate=0.02)
        clean = RobotEnvironmentChecker.from_config(
            robot, octree, ReproConfig()
        )
        validated = 0
        for response in report.responses.values():
            if response.path is None:
                continue
            assert response.status == "completed"
            for q_start, q_end in zip(response.path, response.path[1:]):
                assert not clean.check_motion(q_start, q_end).collision
            validated += 1
        assert validated > 0, "expected at least one survivor at this rate"


class TestFaultsInTheFlush:
    @pytest.mark.parametrize("fault_seed", [1, 2])
    @pytest.mark.parametrize("rate", [0.02, 0.1, 0.3])
    def test_completed_requests_match_solo(
        self, world, mixed_requests, solo, rate, fault_seed
    ):
        """A fault only delays its request: whatever completes is exactly
        the solo ``repro.api.plan`` result, and nothing else has a path."""
        _, octree, robot = world
        config = ReproConfig.for_service(
            service=_faulty_service(rate, fault_seed=fault_seed)
        )
        service = PlanningService(robot, octree, config=config)
        for request in mixed_requests:
            service.submit(request)
        report = service.run()
        assert len(report.responses) == len(mixed_requests)
        assert service.fault_injector.fault_count > 0
        assert report.status_counts.get("completed", 0) > 0
        _assert_completed_match_solo(report.responses, solo)

    def test_retries_count_per_phase(self, world, free_configs):
        """``max_fault_retries`` bounds the faults of one phase, not of the
        request: a request whose phases each fault at most that often
        completes, however many faults it sees in total."""
        _, octree, robot = world
        n_phases, max_fault_retries = 40, 1

        def factory(recorder):
            class _Stub:
                def plan_steps(self, q_start, q_goal, rng):
                    for i in range(n_phases):
                        yield CDQuery.steer(q_start, q_goal, label=f"stub-{i}")
                    return [q_start, q_goal]

            return _Stub()

        config = ReproConfig.for_service(
            service=_faulty_service(
                0.3, fault_seed=5, max_fault_retries=max_fault_retries
            )
        )
        service = PlanningService(robot, octree, config=config)
        service.submit(
            PlanRequest(
                "stub", free_configs[0], free_configs[1], planner_factory=factory
            )
        )
        report = service.run()
        per_phase = collections.Counter(
            event.detail[0] for event in service.fault_injector.events
        )
        assert sum(per_phase.values()) > max_fault_retries
        assert max(per_phase.values()) <= max_fault_retries
        assert report.responses["stub"].status == "completed"
        assert report.responses["stub"].num_phases == n_phases


@pytest.mark.fleet
class TestFleetUnderFaults:
    def test_two_shard_fleet_under_engine_faults(
        self, world, mixed_requests, solo
    ):
        """Each shard builds its own injector from the same ``fault_seed``;
        the fleet drains identically twice, every request ends in a typed
        status, and whatever completes equals the solo reference."""
        _, octree, robot = world

        def drain():
            config = ReproConfig.for_fleet(
                2, service=_faulty_service(0.1, fault_seed=3)
            )
            fleet = PlanningFleet(robot, octree, config=config)
            for request in mixed_requests:
                fleet.submit(request)
            return fleet, fleet.run()

        fleet, first = drain()
        _, second = drain()
        assert _fingerprint(first) == _fingerprint(second)
        assert len(first.responses) == len(mixed_requests)
        assert set(first.status_counts) <= {"completed", "failed"}
        assert sum(first.status_counts.values()) == len(mixed_requests)
        assert {fleet.shard_of(r.request_id) for r in mixed_requests} == {0, 1}
        assert all(
            shard.fault_injector.fault_count > 0 for shard in fleet.shards
        )
        _assert_completed_match_solo(first.responses, solo)
