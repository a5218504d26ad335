"""Typed configuration API: validation, round-trip, and the facade.

Two contracts are pinned here.  First, the config objects themselves:
construction validates every field with error messages listing the valid
choices, knobs that could never act are rejected rather than ignored, and
any config round-trips through dicts and JSON losslessly (unknown or
removed keys and bad enums in a loaded file fail loudly).  Second, the
construction paths: the checker's plain ``backend=`` keyword and
``from_config`` build the same checker, ``make_engine`` takes only an
:class:`EngineConfig`, and the ``repro.api`` facade wires everything from
one :class:`ReproConfig`.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import api
from repro.collision.checker import RobotEnvironmentChecker
from repro.config import (
    CacheConfig,
    EngineConfig,
    FleetConfig,
    ReproConfig,
    ResilienceConfig,
    ServiceConfig,
)
from repro.env.generator import random_scene
from repro.env.octree import Octree
from repro.harness.serialization import load_config, save_config
from repro.planning.engine import BatchedEngine, SequentialEngine, make_engine
from repro.robot.presets import planar_arm


@pytest.fixture(scope="module")
def world():
    scene = random_scene(seed=7)
    octree = Octree.from_scene(scene, resolution=16)
    return scene, octree, planar_arm()


class TestValidation:
    def test_bad_backend_lists_choices(self):
        with pytest.raises(ValueError) as excinfo:
            ReproConfig(backend="vectorised")
        message = str(excinfo.value)
        assert "vectorised" in message and "scalar" in message and "batch" in message

    def test_bad_planner_lists_choices(self):
        with pytest.raises(ValueError, match="rrt_connect"):
            ReproConfig(planner="a_star")

    def test_bad_engine_kind_lists_choices(self):
        # "simulated" (inline SAS pricing) and its "sas" alias were removed:
        # runs are priced by replaying their recorded trace.
        for kind in ("simulated", "sas"):
            with pytest.raises(ValueError, match="sequential"):
                EngineConfig(kind=kind)

    def test_batch_engine_requires_batch_backend(self):
        with pytest.raises(ValueError, match="backend 'batch'"):
            ReproConfig(engine=EngineConfig(kind="batch"))

    def test_prefilter_requires_batch_engine(self):
        """Only the batched engine runs the swept prefilter; asking the
        sequential engine for it is rejected, not ignored."""
        with pytest.raises(ValueError, match="prefilter"):
            EngineConfig(kind="sequential", prefilter=True)
        assert EngineConfig(kind="batch", prefilter=True).prefilter

    def test_positive_fields(self):
        with pytest.raises(ValueError, match="quantum"):
            CacheConfig(quantum=0.0)
        with pytest.raises(ValueError, match="motion_step"):
            ReproConfig(motion_step=-1.0)
        with pytest.raises(ValueError, match="sim_ms"):
            ResilienceConfig(sim_ms=0.0)

    def test_configs_are_frozen(self):
        config = ReproConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.backend = "batch"

    def test_for_service_defaults(self):
        config = ReproConfig.for_service()
        assert config.backend == "batch"
        assert config.cache.enabled
        override = ReproConfig.for_service(planner="rrt")
        assert override.planner == "rrt" and override.backend == "batch"

    def test_fleet_config_validates_fields(self):
        with pytest.raises(ValueError, match="n_shards"):
            FleetConfig(n_shards=0)
        with pytest.raises(ValueError, match="round_robin"):
            FleetConfig(router="sticky")
        with pytest.raises(ValueError, match="region_quantum"):
            FleetConfig(region_quantum=0.0)

    def test_for_fleet_defaults(self):
        config = ReproConfig.for_fleet(4)
        assert config.fleet.n_shards == 4
        assert config.backend == "batch" and config.cache.enabled
        override = ReproConfig.for_fleet(
            2, fleet=FleetConfig(n_shards=2, router="round_robin")
        )
        assert override.fleet.router == "round_robin"

    def test_for_fleet_rejects_disagreeing_shard_counts(self):
        """A shard count next to ``fleet=`` must not be silently dropped."""
        with pytest.raises(ValueError, match="n_shards=4.*n_shards=1"):
            ReproConfig.for_fleet(4, fleet=FleetConfig(router="round_robin"))
        from_fleet = ReproConfig.for_fleet(fleet=FleetConfig(n_shards=3))
        assert from_fleet.fleet.n_shards == 3
        assert ReproConfig.for_fleet().fleet.n_shards == 1

    def test_service_rejects_fault_models_that_cannot_fire(self):
        """The service has no SAS lanes or sensor and its flush never
        reaches the bit-flip hook: those rates are rejected by name, not
        ignored; the engine rates are served."""
        from repro.resilience.faults import FaultModels

        for name in (
            "bit_flip_rate",
            "lane_drop_rate",
            "lane_stall_rate",
            "sensor_dropout_rate",
        ):
            with pytest.raises(ValueError, match=name):
                ServiceConfig(fault_models=FaultModels(**{name: 1.0}))
        with pytest.raises(ValueError) as excinfo:
            ServiceConfig(
                fault_models=FaultModels(
                    bit_flip_rate=0.1,
                    sensor_dropout_rate=0.2,
                    engine_exception_rate=0.1,
                )
            )
        assert "['bit_flip_rate', 'sensor_dropout_rate']" in str(excinfo.value)
        engine = FaultModels(engine_exception_rate=0.1, engine_timeout_rate=0.1)
        assert ServiceConfig(fault_models=engine).fault_models is engine

    def test_service_rejects_fault_knobs_without_fault_models(self):
        """With no fault models the service builds no injector, so a
        non-default ``fault_seed`` or ``max_fault_retries`` is rejected by
        name; beside ``fault_models`` both are served."""
        from repro.resilience.faults import FaultModels

        for name, value in (("fault_seed", 7), ("max_fault_retries", 5)):
            with pytest.raises(ValueError, match=name):
                ServiceConfig(**{name: value})
        served = ServiceConfig(
            fault_models=FaultModels(engine_exception_rate=0.1),
            fault_seed=7,
            max_fault_retries=5,
        )
        assert (served.fault_seed, served.max_fault_retries) == (7, 5)


class TestRoundTrip:
    def _sample(self):
        return ReproConfig(
            backend="batch",
            planner="prm",
            motion_step=0.1,
            engine=EngineConfig(kind="batch", prefilter=True),
            resilience=ResilienceConfig(sim_ms=2.0, audit=True),
            cache=CacheConfig(enabled=True, quantum=1e-6, max_entries=128),
            service=ServiceConfig(batch_window=4, default_deadline_ms=5.0),
            fleet=FleetConfig(
                n_shards=4,
                router="region",
                router_seed=3,
                region_quantum=0.5,
                global_cache=False,
            ),
        )

    def test_dict_round_trip(self):
        config = self._sample()
        rebuilt = ReproConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert isinstance(rebuilt.engine, EngineConfig)
        assert isinstance(rebuilt.cache, CacheConfig)
        assert isinstance(rebuilt.fleet, FleetConfig)
        assert rebuilt.fleet == config.fleet

    def test_json_round_trip(self, tmp_path):
        config = self._sample()
        path = str(tmp_path / "config.json")
        save_config(path, config)
        assert load_config(path) == config
        # Sub-configs round-trip through the same entry points.
        save_config(path, config.engine)
        assert load_config(path) == config.engine

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ValueError) as excinfo:
            ReproConfig.from_dict({"backend": "batch", "bogus_knob": 1})
        message = str(excinfo.value)
        assert "bogus_knob" in message and "octree_resolution" in message

    def test_removed_fleet_workers_key_rejected(self):
        """A config saved with the removed worker mode fails loudly."""
        data = ReproConfig.for_fleet(2).to_dict()
        data["fleet"]["workers"] = "process"
        with pytest.raises(ValueError, match="workers"):
            ReproConfig.from_dict(data)

    @pytest.mark.parametrize(
        "key, value", [("mode", "sequential"), ("pose_cost_us", 1.0)]
    )
    def test_removed_service_keys_rejected(self, key, value):
        """A config saved with the removed sequential service mode or its
        per-pose cost fails loudly, naming the key."""
        data = ReproConfig.for_service().to_dict()
        data["service"][key] = value
        with pytest.raises(ValueError, match=key):
            ReproConfig.from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_cdus", 16),
            ("policy", "mcsp"),
            ("seed", 0),
            ("check_invariants", True),
            ("record_timeline", False),
        ],
    )
    def test_removed_engine_keys_rejected(self, key, value):
        """A config saved with the removed inline-pricing engine's knobs
        fails loudly, naming the key."""
        data = ReproConfig().to_dict()
        data["engine"][key] = value
        with pytest.raises(ValueError, match=rf"\['{key}'\]"):
            ReproConfig.from_dict(data)

    def test_loaded_bad_enum_lists_choices(self, tmp_path):
        path = str(tmp_path / "config.json")
        save_config(path, ReproConfig())
        payload = json.load(open(path))
        payload["config"]["backend"] = "vectorised"
        json.dump(payload, open(path, "w"))
        with pytest.raises(ValueError, match="scalar"):
            load_config(path)

    def test_wrong_version_and_class_rejected(self, tmp_path):
        path = str(tmp_path / "config.json")
        save_config(path, ReproConfig())
        payload = json.load(open(path))
        payload["config_class"] = "TurboConfig"
        json.dump(payload, open(path, "w"))
        with pytest.raises(ValueError, match="TurboConfig"):
            load_config(path)
        payload["config_class"] = "ReproConfig"
        payload["version"] = 99
        json.dump(payload, open(path, "w"))
        with pytest.raises(ValueError, match="version"):
            load_config(path)

    def test_save_rejects_non_config(self, tmp_path):
        with pytest.raises(TypeError):
            save_config(str(tmp_path / "x.json"), {"backend": "batch"})


class TestLegacyShims:
    """The checker's plain ``backend=`` keyword and the typed path agree."""

    def test_checker_old_equals_new(self, world):
        _, octree, robot = world
        legacy = RobotEnvironmentChecker(robot, octree, backend="batch")
        typed = RobotEnvironmentChecker.from_config(
            robot, octree, ReproConfig(backend="batch")
        )
        rng = np.random.default_rng(2)
        poses = [robot.random_configuration(rng) for _ in range(10)]
        assert [legacy.check_pose(q) for q in poses] == [
            typed.check_pose(q) for q in poses
        ]
        assert legacy.stats.as_dict() == typed.stats.as_dict()

    def test_typed_engine_kinds(self, world):
        _, octree, robot = world
        checker = RobotEnvironmentChecker.from_config(
            robot, octree, ReproConfig(backend="batch")
        )
        assert isinstance(
            make_engine(EngineConfig(kind="sequential"), checker),
            SequentialEngine,
        )
        assert isinstance(
            make_engine(EngineConfig(kind="batch"), checker), BatchedEngine
        )


class TestFacade:
    """The typed API end to end."""

    def test_plan_deterministic(self, world):
        _, octree, robot = world
        checker = api.make_checker(robot, octree)
        rng = np.random.default_rng(1)
        q_start = checker.sample_free_configuration(rng)
        q_goal = checker.sample_free_configuration(rng)
        first = api.plan(robot, octree, q_start, q_goal, seed=4)
        second = api.plan(robot, octree, q_start, q_goal, seed=4)
        assert first.success and second.success
        assert first.stats.as_dict() == second.stats.as_dict()
        assert first.num_phases == second.num_phases
        assert all(
            np.array_equal(a, b) for a, b in zip(first.path, second.path)
        )

    def test_plan_batch_engine_matches_sequential(self, world):
        _, octree, robot = world
        checker = api.make_checker(robot, octree)
        rng = np.random.default_rng(1)
        q_start = checker.sample_free_configuration(rng)
        q_goal = checker.sample_free_configuration(rng)
        reference = api.plan(robot, octree, q_start, q_goal, seed=4)
        batched = api.plan(
            robot,
            octree,
            q_start,
            q_goal,
            ReproConfig(backend="batch", engine=EngineConfig(kind="batch")),
            seed=4,
        )
        assert batched.success
        assert all(
            np.array_equal(a, b)
            for a, b in zip(reference.path, batched.path)
        )

    def test_make_recorder_and_planner(self, world):
        _, octree, robot = world
        recorder = api.make_recorder(robot, octree, ReproConfig(planner="prm"))
        planner = api.make_planner(recorder, "prm")
        assert type(planner).__name__ == "PRMPlanner"
        with pytest.raises(ValueError, match="mpnet"):
            api.make_planner(recorder, "mpnet")
        with pytest.raises(ValueError, match="rrt_connect"):
            api.make_planner(recorder, "dijkstra")

    def test_make_service_default_config(self, world):
        _, octree, robot = world
        service = api.make_service(robot, octree)
        assert service.config.backend == "batch"
        assert service.cache is not None

    def test_make_service_rejects_multi_shard_config(self, world):
        _, octree, robot = world
        with pytest.raises(ValueError, match="make_fleet"):
            api.make_service(robot, octree, ReproConfig.for_fleet(3))

    def test_make_fleet_default_config(self, world):
        _, octree, robot = world
        fleet = api.make_fleet(
            robot, octree, ReproConfig.for_fleet(2)
        )
        assert fleet.n_shards == 2
        assert all(s.config.backend == "batch" for s in fleet.shards)
        assert fleet.global_cache is not None

    def test_make_runtime_typed_only(self):
        from repro.accel.cecdu import CECDUConfig
        from repro.accel.config import MPAccelConfig
        from repro.env.scene import Scene
        from repro.geometry.aabb import AABB

        scene = Scene(extent=4.0)
        scene.add_obstacle(AABB.from_min_max([0.7, -0.4, 0.0], [0.9, 0.4, 0.2]))
        runtime = api.make_runtime(
            planar_arm(2),
            scene,
            MPAccelConfig(n_cecdus=8, cecdu=CECDUConfig(n_oocds=4)),
            lambda s, tick, r: False,
            ReproConfig(backend="batch", octree_resolution=32),
        )
        report = runtime.run(
            np.array([np.pi * 0.9, 0.0]),
            np.array([-np.pi * 0.9, 0.0]),
            n_ticks=1,
            rng=np.random.default_rng(0),
        )
        assert report.ticks
