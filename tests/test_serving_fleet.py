"""Sharded planning fleet: router determinism, bit-identity, cache tiers.

The fleet's contract extends the service's: a request routed to any shard
of any fleet produces the same path, verdicts, and stats as running alone
through the sequential scalar reference — under shard counts {1, 2, 4, 7}
and across environment updates.  These tests pin that differential, the
deterministic router policies, the drain-boundary global-tier sync, the
epoch-consistent invalidation broadcast (including its atomicity against
in-flight work), and the 1-shard fleet's equivalence to the plain
service.
"""

import numpy as np
import pytest

from repro import api
from repro.collision.checker import RobotEnvironmentChecker
from repro.config import FleetConfig, ReproConfig, ServiceConfig
from repro.env.generator import random_scene
from repro.env.octree import Octree
from repro.planning.prm import PRMPlanner
from repro.planning.recorder import CDTraceRecorder
from repro.planning.rrt import RRTPlanner
from repro.planning.rrt_connect import RRTConnectPlanner
from repro.robot.presets import planar_arm
from repro.serving import (
    FleetRouter,
    PlanningFleet,
    PlanningService,
    PlanRequest,
)

pytestmark = [pytest.mark.fleet, pytest.mark.serving]

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
def updated_octree():
    return Octree.from_scene(random_scene(seed=2), resolution=16)


@pytest.fixture(scope="module")
def poses(world):
    _, octree, robot = world
    checker = RobotEnvironmentChecker.from_config(robot, octree, ReproConfig())
    rng = np.random.default_rng(7)
    return [checker.sample_free_configuration(rng) for _ in range(8)]


@pytest.fixture(scope="module")
def requests(poses):
    return [
        PlanRequest("rc-0", poses[0], poses[1], planner="rrt_connect", seed=100),
        PlanRequest("rrt-1", poses[2], poses[3], planner="rrt", seed=101),
        PlanRequest("rc-2", poses[4], poses[5], planner="rrt_connect", seed=102),
        PlanRequest("prm-3", poses[6], poses[7], planner="prm", seed=103),
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
    """Per-request observable outcome: path + stats + phases + status."""
    out = {}
    for rid, resp in sorted(report.responses.items()):
        path = None if resp.path is None else [q.tolist() for q in resp.path]
        out[rid] = (
            resp.success,
            path,
            resp.stats.as_dict(),
            resp.num_phases,
            resp.status,
        )
    return out


def _fleet(robot, octree, n_shards, **fleet_kwargs):
    config = ReproConfig.for_fleet(
        fleet=FleetConfig(n_shards=n_shards, **fleet_kwargs)
    )
    return PlanningFleet(robot, octree, config=config)


class TestRouter:
    def _request(self, rid, client="", q=(0.0, 0.0, 0.0)):
        return PlanRequest(rid, np.asarray(q), np.asarray(q), client_id=client)

    def test_hash_is_deterministic_across_instances(self):
        a = FleetRouter(FleetConfig(n_shards=4, router="hash"))
        b = FleetRouter(FleetConfig(n_shards=4, router="hash"))
        reqs = [self._request(f"r{i}") for i in range(32)]
        assert [a.assign(r) for r in reqs] == [b.assign(r) for r in reqs]

    def test_seed_changes_hash_assignment(self):
        a = FleetRouter(FleetConfig(n_shards=7, router="hash", router_seed=0))
        b = FleetRouter(FleetConfig(n_shards=7, router="hash", router_seed=1))
        reqs = [self._request(f"r{i}") for i in range(64)]
        assert [a.assign(r) for r in reqs] != [b.assign(r) for r in reqs]

    def test_round_robin_cycles_and_resets(self):
        router = FleetRouter(FleetConfig(n_shards=3, router="round_robin"))
        reqs = [self._request(f"r{i}") for i in range(7)]
        assert [router.assign(r) for r in reqs] == [0, 1, 2, 0, 1, 2, 0]
        router.reset()
        assert router.assign(self._request("again")) == 0

    def test_client_policy_pins_a_client_to_one_shard(self):
        router = FleetRouter(FleetConfig(n_shards=5, router="client"))
        shards = {
            router.assign(self._request(f"r{i}", client="tenant-a"))
            for i in range(16)
        }
        assert len(shards) == 1

    def test_region_policy_groups_nearby_starts(self):
        router = FleetRouter(
            FleetConfig(n_shards=5, router="region", region_quantum=1.0)
        )
        near = [
            self._request(f"n{i}", q=(2.0 + 1e-6 * i, 0.0, 0.0))
            for i in range(4)
        ]
        assert len({router.assign(r) for r in near}) == 1
        far = self._request("far", q=(-2.0, 3.0, 0.0))
        # Not guaranteed distinct for arbitrary cells, but pinned for this
        # seed/quantum so a routing change is visible.
        assert router.assign(far) != router.assign(near[0])

    def test_single_shard_short_circuits(self):
        router = FleetRouter(FleetConfig(n_shards=1, router="hash"))
        assert router.assign(self._request("only")) == 0


class TestEmptyFleet:
    def test_empty_drain_is_a_clean_noop(self, world):
        _, octree, robot = world
        fleet = _fleet(robot, octree, n_shards=3)
        report = fleet.run()
        assert report.responses == {}
        assert report.sim_ms == 0.0
        assert report.n_shards == 3
        assert report.completed == 0 and report.shed == 0
        assert report.goodput_per_sim_s == 0.0
        assert fleet.num_pending == 0

    def test_duplicate_request_id_rejected_fleet_wide(self, world, requests):
        _, octree, robot = world
        fleet = _fleet(robot, octree, n_shards=4)
        fleet.submit(requests[0])
        with pytest.raises(ValueError, match="duplicate"):
            fleet.submit(requests[0])


class TestOneShardEquivalence:
    def test_one_shard_fleet_equals_pr9_service(self, world, requests):
        """Tuple-compare: the 1-shard fleet is the plain service."""
        _, octree, robot = world
        service = PlanningService(
            robot, octree, config=ReproConfig.for_service()
        )
        for request in requests:
            service.submit(request)
        service_report = service.run()

        fleet = _fleet(robot, octree, n_shards=1)
        for request in requests:
            assert fleet.submit(request) == 0
        fleet_report = fleet.run()

        assert _fingerprint(fleet_report) == _fingerprint(service_report)
        assert (
            fleet_report.sim_ms,
            fleet_report.rounds,
            fleet_report.dispatches,
            fleet_report.phases_answered,
            fleet_report.poses_dispatched,
            fleet_report.status_counts,
        ) == (
            service_report.sim_ms,
            service_report.rounds,
            service_report.dispatches,
            service_report.phases_answered,
            service_report.poses_dispatched,
            service_report.status_counts,
        )
        # Same hit/miss totals: the unpopulated global tier is invisible.
        assert (
            fleet_report.cache_counters["hits"]
            == service_report.cache_counters["hits"]
        )
        assert (
            fleet_report.cache_counters["misses"]
            == service_report.cache_counters["misses"]
        )

    def test_make_service_is_the_one_shard_special_case(self, world):
        _, octree, robot = world
        service = api.make_service(robot, octree)
        assert isinstance(service, PlanningService)
        from repro.collision.cache import TieredCollisionCache

        assert isinstance(service.cache, TieredCollisionCache)
        with pytest.raises(ValueError, match="make_fleet"):
            api.make_service(
                robot, octree, ReproConfig.for_fleet(n_shards=2)
            )

    def test_make_fleet_builds_from_config(self, world):
        _, octree, robot = world
        fleet = api.make_fleet(
            robot, octree, ReproConfig.for_fleet(n_shards=3)
        )
        assert isinstance(fleet, PlanningFleet)
        assert fleet.n_shards == 3 and len(fleet.shards) == 3


class TestShardCountDifferential:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
    def test_fleet_matches_solo_reference(self, world, requests, n_shards):
        """Every request bit-identical to its solo run, any shard count."""
        _, octree, robot = world
        fleet = _fleet(robot, octree, n_shards=n_shards)
        for request in requests:
            fleet.submit(request)
        report = fleet.run()
        assert len(report.responses) == len(requests)
        for request in requests:
            resp = report.responses[request.request_id]
            assert resp is fleet.response(request.request_id)
            path, stats, phases = _solo(robot, octree, request)
            assert _paths_equal(resp.path, path), request.request_id
            assert resp.stats.as_dict() == stats, request.request_id
            assert resp.num_phases == phases, request.request_id

    def test_fingerprint_is_shard_count_invariant(self, world, requests):
        _, octree, robot = world
        fingerprints = []
        for n_shards in (1, 2, 4, 7):
            fleet = _fleet(robot, octree, n_shards=n_shards)
            for request in requests:
                fleet.submit(request)
            fingerprints.append(_fingerprint(fleet.run()))
        assert all(fp == fingerprints[0] for fp in fingerprints[1:])


class TestGlobalCacheTier:
    def test_drain_boundary_sync_populates_global_tier(self, world, requests):
        _, octree, robot = world
        fleet = _fleet(robot, octree, n_shards=2)
        for request in requests:
            fleet.submit(request)
        fleet.run()
        assert fleet.global_cache is not None
        assert len(fleet.global_cache) > 0

    def test_global_hits_preserve_bit_identity(self, world, poses):
        """A request served from another shard's entries stays bit-exact."""
        _, octree, robot = world
        # Round-robin: the identical twin lands on the other shard and can
        # only reuse work through the global tier.
        fleet = _fleet(robot, octree, n_shards=2, router="round_robin")
        first = PlanRequest(
            "orig", poses[0], poses[1], planner="rrt_connect", seed=100
        )
        assert fleet.submit(first) == 0
        fleet.run()
        twin = PlanRequest(
            "twin", poses[0], poses[1], planner="rrt_connect", seed=100
        )
        assert fleet.submit(twin) == 1
        report = fleet.run()
        assert report.cache_counters["hits_global"] > 0
        path, stats, phases = _solo(robot, octree, twin)
        resp = report.responses["twin"]
        assert _paths_equal(resp.path, path)
        assert resp.stats.as_dict() == stats
        assert resp.num_phases == phases

    def test_global_cache_can_be_disabled(self, world, requests):
        _, octree, robot = world
        fleet = _fleet(robot, octree, n_shards=2, global_cache=False)
        assert fleet.global_cache is None
        for request in requests:
            fleet.submit(request)
        report = fleet.run()
        assert report.cache_counters["hits_global"] == 0


class TestEnvironmentBroadcast:
    def test_update_requires_idle_fleet_and_is_atomic(
        self, world, updated_octree, requests
    ):
        _, octree, robot = world
        fleet = _fleet(robot, octree, n_shards=3)
        for request in requests:
            fleet.submit(request)
        with pytest.raises(RuntimeError, match="idle"):
            fleet.update_environment(updated_octree)
        # Nothing moved: no shard saw a partial broadcast.
        assert fleet.env_epoch == 0
        assert all(shard.env_epoch == 0 for shard in fleet.shards)
        assert fleet.global_cache.epoch == 0
        fleet.run()
        fleet.update_environment(updated_octree)
        assert fleet.env_epoch == 1
        assert all(shard.env_epoch == 1 for shard in fleet.shards)
        assert all(
            cache.epoch == 1 and cache.local.epoch == 1
            for cache in fleet.caches
        )
        assert fleet.global_cache.epoch == 1

    def test_epoch_consistent_invalidation_matches_one_shard(
        self, world, updated_octree, requests
    ):
        """Post-update results are shard-count invariant too."""
        _, octree, robot = world
        fingerprints = []
        for n_shards in (1, 3):
            fleet = _fleet(robot, octree, n_shards=n_shards)
            for request in requests:
                fleet.submit(request)
            fleet.run()
            fleet.update_environment(updated_octree)
            for request in requests:
                fleet.submit(
                    PlanRequest(
                        f"post-{request.request_id}",
                        request.q_start,
                        request.q_goal,
                        planner=request.planner,
                        seed=request.seed,
                    )
                )
            fingerprints.append(_fingerprint(fleet.run()))
        assert fingerprints[0] == fingerprints[1]

    def test_skipped_epoch_broadcast_rejected(self, world, updated_octree):
        _, octree, robot = world
        fleet = _fleet(robot, octree, n_shards=2)
        with pytest.raises(ValueError, match="non-consecutive"):
            fleet.shards[0].apply_environment_update(updated_octree, [], 5)


class TestFleetWithOverloadPolicies:
    def test_fairness_and_admission_fleet_is_deterministic(
        self, world, poses
    ):
        """Two identical DRR + admission fleets drain bit-identically."""
        _, octree, robot = world
        outcomes = []
        for _ in range(2):
            config = ReproConfig.for_fleet(
                fleet=FleetConfig(n_shards=2, router="round_robin"),
                service=ServiceConfig(
                    admission_control=True,
                    fairness=True,
                    max_queue_depth=16,
                    default_deadline_ms=50.0,
                ),
            )
            fleet = PlanningFleet(robot, octree, config=config)
            for i in range(6):
                fleet.submit(
                    PlanRequest(
                        f"r{i}",
                        poses[(2 * i) % 8],
                        poses[(2 * i + 1) % 8],
                        planner="rrt_connect",
                        seed=300 + i,
                        client_id=f"tenant-{i % 2}",
                    ),
                    arrival_ms=0.05 * i,
                )
            report = fleet.run()
            outcomes.append(
                (
                    _fingerprint(report),
                    report.status_counts,
                    report.shed_counts,
                    report.overload_histogram,
                    report.sim_ms,
                )
            )
        assert outcomes[0] == outcomes[1]
