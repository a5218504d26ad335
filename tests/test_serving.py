"""Multi-client planning service: determinism, bit-identity, deadlines.

The serving layer's headline claim is that concurrency is *free* of
observable effects per request: whatever the arrival interleaving, batch
window, cache state, or co-tenants, every request's path, verdicts, and
:class:`CollisionStats` are bit-identical to running that request alone
through the sequential scalar reference stack with no cache.  These tests
pin that differential, the cross-run determinism, the staleness-freedom of
the shared cache across environment updates, and the deadline policies.
"""

import numpy as np
import pytest

from repro.collision.checker import RobotEnvironmentChecker
from repro.config import CacheConfig, ReproConfig, ServiceConfig
from repro.env.generator import random_scene
from repro.env.octree import Octree
from repro.geometry.aabb import AABB
from repro.planning.prm import PRMPlanner
from repro.planning.recorder import CDTraceRecorder
from repro.planning.rrt import RRTPlanner
from repro.planning.rrt_connect import RRTConnectPlanner
from repro.robot.presets import planar_arm
from repro.serving import PlanningService, PlanRequest

pytestmark = pytest.mark.serving

_SOLO_PLANNERS = {
    "rrt": RRTPlanner,
    "rrt_connect": RRTConnectPlanner,
    "prm": PRMPlanner,
}


@pytest.fixture(scope="module")
def world():
    scene = random_scene(seed=1)
    octree = Octree.from_scene(scene, resolution=16)
    return scene, octree, planar_arm()


@pytest.fixture(scope="module")
def requests(world):
    _, octree, robot = world
    checker = RobotEnvironmentChecker.from_config(robot, octree, ReproConfig())
    rng = np.random.default_rng(7)
    qs = [checker.sample_free_configuration(rng) for _ in range(8)]
    return [
        PlanRequest("rc-0", qs[0], qs[1], planner="rrt_connect", seed=100),
        PlanRequest("rrt-1", qs[2], qs[3], planner="rrt", seed=101),
        PlanRequest("rc-2", qs[4], qs[5], planner="rrt_connect", seed=102),
        PlanRequest("prm-3", qs[6], qs[7], planner="prm", seed=103),
    ]


def _solo(robot, octree, request):
    """The reference run: sequential scalar engine, no cache, alone."""
    checker = RobotEnvironmentChecker.from_config(robot, octree, ReproConfig())
    recorder = CDTraceRecorder(checker)
    planner = _SOLO_PLANNERS[request.planner](recorder)
    result = planner.plan(
        request.q_start, request.q_goal, np.random.default_rng(request.seed)
    )
    if result is None:
        path = None
    elif hasattr(result, "success"):
        path = list(result.path) if result.success else None
    else:
        path = list(result)
    return path, checker.stats.as_dict(), recorder.num_phases


def _paths_equal(a, b):
    if a is None or b is None:
        return a is b
    return len(a) == len(b) and all(
        np.array_equal(x, y) for x, y in zip(a, b)
    )


def _fingerprint(report):
    """Per-request observable outcome (no timing): path + stats + phases."""
    out = {}
    for rid, resp in report.responses.items():
        path = None if resp.path is None else [q.tolist() for q in resp.path]
        out[rid] = (resp.success, path, resp.stats.as_dict(), resp.num_phases)
    return out


class TestDifferential:
    """Service (batched + cached) == each request alone, bit for bit."""

    @pytest.mark.parametrize(
        "max_inflight", [8, 1], ids=["batched", "sequential"]
    )
    def test_service_matches_solo_reference(
        self, world, requests, max_inflight
    ):
        """All requests in flight at once, or one after another."""
        _, octree, robot = world
        config = ReproConfig.for_service(
            service=ServiceConfig(max_inflight=max_inflight)
        )
        service = PlanningService(robot, octree, config=config)
        for request in requests:
            service.submit(request)
        report = service.run()
        assert len(report.responses) == len(requests)
        for request in requests:
            resp = report.responses[request.request_id]
            path, stats, phases = _solo(robot, octree, request)
            assert _paths_equal(resp.path, path), request.request_id
            assert resp.stats.as_dict() == stats, request.request_id
            assert resp.num_phases == phases, request.request_id

    def test_batched_run_actually_coalesces_and_caches(self, world, requests):
        _, octree, robot = world
        service = PlanningService(robot, octree)
        for request in requests:
            service.submit(request)
        report = service.run()
        # Fewer dispatches than phases: cross-request coalescing happened.
        assert report.dispatches < report.phases_answered
        assert report.cache_counters is not None
        assert report.cache_counters["hits"] > 0
        assert report.sim_ms > 0
        assert report.completed >= 1
        assert report.requests_per_sim_s > 0


class TestDeterminism:
    def test_submission_order_is_invisible(self, world, requests):
        _, octree, robot = world
        fingerprints = []
        for order in (requests, list(reversed(requests))):
            service = PlanningService(robot, octree)
            for request in order:
                service.submit(request)
            fingerprints.append(_fingerprint(service.run()))
        assert fingerprints[0] == fingerprints[1]

    @pytest.mark.parametrize("window", [1, 2, 8])
    def test_batch_window_is_invisible(self, world, requests, window):
        _, octree, robot = world
        service = PlanningService(
            robot,
            octree,
            config=ReproConfig.for_service(
                service=ServiceConfig(batch_window=window)
            ),
        )
        for request in requests:
            service.submit(request)
        fingerprint = _fingerprint(service.run())
        for request in requests:
            path, stats, phases = _solo(robot, octree, request)
            got_success, got_path, got_stats, got_phases = fingerprint[
                request.request_id
            ]
            assert got_stats == stats
            assert got_phases == phases

    def test_repeat_runs_identical(self, world, requests):
        _, octree, robot = world

        def run_once():
            service = PlanningService(robot, octree)
            for request in requests:
                service.submit(request)
            report = service.run()
            return _fingerprint(report), report.sim_ms, report.dispatches

        assert run_once() == run_once()


class TestCacheAcrossWaves:
    def test_warm_cache_serves_identical_results(self, world, requests):
        _, octree, robot = world
        service = PlanningService(robot, octree)
        first = requests[0]
        service.submit(first)
        service.run()
        hits_after_first = service.cache.hits
        rerun = PlanRequest(
            "again", first.q_start, first.q_goal, planner=first.planner,
            seed=first.seed,
        )
        service.submit(rerun)
        report = service.run()
        assert service.cache.hits > hits_after_first
        a = service.response(first.request_id)
        b = report.responses["again"]
        assert _paths_equal(a.path, b.path)
        assert a.stats.as_dict() == b.stats.as_dict()

    def test_environment_update_never_serves_stale(self, world, requests):
        scene, octree, robot = world
        service = PlanningService(robot, octree)
        for request in requests[:2]:
            service.submit(request)
        service.run()

        scene2 = random_scene(seed=1)
        scene2.add_obstacle(
            AABB.from_min_max([0.1, -0.3, 0.0], [0.5, 0.3, 0.3])
        )
        octree2 = Octree.from_scene(scene2, resolution=16)
        dropped = service.update_environment(octree2)
        assert dropped >= 0
        assert service.env_epoch == 1

        for request in requests[:2]:
            renamed = PlanRequest(
                request.request_id + "-v2",
                request.q_start,
                request.q_goal,
                planner=request.planner,
                seed=request.seed,
            )
            service.submit(renamed)
        report = service.run()
        for request in requests[:2]:
            resp = report.responses[request.request_id + "-v2"]
            path, stats, phases = _solo(robot, octree2, request)
            assert _paths_equal(resp.path, path)
            assert resp.stats.as_dict() == stats
            assert resp.num_phases == phases
            assert resp.env_epoch == 1

    def test_update_requires_idle(self, world, requests):
        _, octree, robot = world
        service = PlanningService(robot, octree)
        service.submit(requests[0])
        with pytest.raises(RuntimeError, match="idle"):
            service.update_environment(octree)


class TestAdmissionAndDeadlines:
    def test_duplicate_request_id_rejected(self, world, requests):
        _, octree, robot = world
        service = PlanningService(robot, octree)
        service.submit(requests[0])
        with pytest.raises(ValueError, match="duplicate"):
            service.submit(requests[0])

    def test_unknown_planner_lists_choices(self, world, requests):
        _, octree, robot = world
        service = PlanningService(robot, octree)
        bad = PlanRequest(
            "bad", requests[0].q_start, requests[0].q_goal, planner="dijkstra"
        )
        with pytest.raises(ValueError, match="rrt_connect"):
            service.submit(bad)

    def test_batched_mode_requires_batch_backend(self, world):
        _, octree, robot = world
        with pytest.raises(ValueError, match="for_service"):
            PlanningService(robot, octree, config=ReproConfig())

    def test_priority_orders_sequential_completion(self, world, requests):
        _, octree, robot = world
        service = PlanningService(
            robot,
            octree,
            config=ReproConfig.for_service(
                service=ServiceConfig(max_inflight=1)
            ),
        )
        by_priority = {}
        for priority, request in zip((2, 0, 1), requests[:3]):
            renamed = PlanRequest(
                f"p{priority}",
                request.q_start,
                request.q_goal,
                planner=request.planner,
                seed=request.seed,
                priority=priority,
            )
            by_priority[priority] = renamed.request_id
            service.submit(renamed)
        report = service.run()
        completed = sorted(
            report.responses.values(), key=lambda r: r.completed_ms
        )
        assert [r.request_id for r in completed] == ["p0", "p1", "p2"]

    def test_deadline_flagged_but_not_cancelled_by_default(
        self, world, requests
    ):
        _, octree, robot = world
        service = PlanningService(robot, octree)
        tight = PlanRequest(
            "tight",
            requests[0].q_start,
            requests[0].q_goal,
            seed=requests[0].seed,
            deadline_ms=1e-6,
        )
        service.submit(tight)
        resp = service.run().responses["tight"]
        assert resp.deadline_missed
        assert not resp.cancelled
        # Flag-only policy: the result is still the bit-identical solo one.
        path, stats, _ = _solo(robot, octree, requests[0])
        assert _paths_equal(resp.path, path)
        assert resp.stats.as_dict() == stats

    def test_cancel_on_deadline_miss(self, world, requests):
        _, octree, robot = world
        service = PlanningService(
            robot,
            octree,
            config=ReproConfig.for_service(
                service=ServiceConfig(cancel_on_deadline_miss=True)
            ),
        )
        tight = PlanRequest(
            "tight",
            requests[0].q_start,
            requests[0].q_goal,
            seed=requests[0].seed,
            deadline_ms=1e-6,
        )
        service.submit(tight)
        resp = service.run().responses["tight"]
        assert resp.cancelled
        assert resp.deadline_missed
        assert not resp.success
        assert service.num_pending == 0

    def test_latency_accounting_monotone(self, world, requests):
        _, octree, robot = world
        service = PlanningService(robot, octree)
        for request in requests[:2]:
            service.submit(request)
        report = service.run()
        for resp in report.responses.values():
            assert resp.submitted_ms <= resp.admitted_ms <= resp.completed_ms
            assert resp.latency_ms >= 0
