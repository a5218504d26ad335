"""Batched CECDU pricing against the scalar model, its differential oracle.

``CECDUModel.simulate_poses`` must return exactly what ``simulate_pose``
returns pose by pose — every ``PoseCDOutcome`` field, energy to the bit —
for both Intersection Unit styles, 1 and 4 OOCDs and both multi-link
robots.  ``MPAccelSimulator.run_query`` primes a query's poses through it,
so a primed query must time identically to an unprimed one and must never
reach the scalar model.
"""

import numpy as np
import pytest

from repro.accel.cecdu import PRIME_CHUNK_POSES, CECDUModel
from repro.accel.config import CECDUConfig, IntersectionUnitKind, MPAccelConfig
from repro.accel.intersection import multi_cycle_node_cycles, pipelined_node_cycles
from repro.accel.mpaccel import MPAccelSimulator
from repro.collision.batch import BatchOBBs, BatchOctreeCollider
from repro.harness.traces import generate_mpnet_traces
from repro.harness.workloads import build_benchmarks
from repro.neural.mpnet_nets import ORIGINAL_ENET_MACS, ORIGINAL_PNET_MACS
from repro.planning.motion import CDPhase, FunctionMode, MotionRecord
from repro.resilience.faults import FaultInjector, FaultModels
from repro.robot.presets import baxter_arm, jaco2

pytestmark = pytest.mark.engine_differential

CONFIGS = [
    CECDUConfig(n_oocds=n, iu_kind=kind)
    for n in (1, 4)
    for kind in IntersectionUnitKind
]
CONFIG_IDS = [config.label() for config in CONFIGS]
#: Poses per robot drawn from the recorded trace for the field-by-field
#: check (the scalar oracle costs ~1.5 ms a pose).
TRACE_SAMPLE = 40


@pytest.fixture(scope="module", params=[jaco2, baxter_arm], ids=["jaco2", "baxter"])
def recorded(request):
    """One environment and two recorded MPNet queries on it."""
    benchmarks = build_benchmarks(
        request.param, n_envs=1, queries_per_env=2, seed=2024, backend="batch"
    )
    traces = generate_mpnet_traces(benchmarks, seed=3)
    return benchmarks[0], traces


def _trace_poses(traces) -> np.ndarray:
    return np.concatenate(
        [
            motion.poses
            for trace in traces
            for phase in trace.phases
            for motion in phase.motions
        ]
    )


def _assert_bit_equal(got, expected):
    assert got == expected
    assert [o.energy_pj.hex() for o in got] == [o.energy_pj.hex() for o in expected]


class TestSimulatePoses:
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_equals_scalar_on_random_and_trace_poses(self, recorded, config):
        benchmark, traces = recorded
        robot = benchmark.robot
        model = CECDUModel(robot, benchmark.octree, config)
        rng = np.random.default_rng(11)
        trace_poses = _trace_poses(traces)
        picked = rng.choice(len(trace_poses), TRACE_SAMPLE, replace=False)
        random_poses = [robot.random_configuration(rng) for _ in range(24)]
        poses = np.concatenate([trace_poses[np.sort(picked)], random_poses])
        expected = [model.simulate_pose(q) for q in poses]
        _assert_bit_equal(model.simulate_poses(poses), expected)
        # The trace poses are mostly free, so they traverse deep; the random
        # ones supply the colliding cases and the link early exits.
        assert any(o.hit for o in expected) and not all(o.hit for o in expected)
        assert any(o.links_checked < robot.num_links for o in expected)

    def test_empty_single_and_duplicated_batches(self, recorded):
        benchmark, _ = recorded
        robot = benchmark.robot
        model = CECDUModel(robot, benchmark.octree, CECDUConfig(n_oocds=4))
        assert model.simulate_poses([]) == []
        assert model.simulate_poses(np.empty((0, robot.dof))) == []
        rng = np.random.default_rng(5)
        q, r = robot.random_configuration(rng), robot.random_configuration(rng)
        assert model.simulate_poses(q[None, :]) == [model.simulate_pose(q)]
        batch = [q, q, r, q]
        expected = [model.simulate_pose(p) for p in batch]
        _assert_bit_equal(model.simulate_poses(batch), expected)


class TestTraversalIUSums:
    def test_sums_match_scalar_traces(self, recorded):
        """The opt-in sums equal price_traversal's per-node IU cycles."""
        benchmark, _ = recorded
        robot = benchmark.robot
        model = CECDUModel(robot, benchmark.octree)
        rng = np.random.default_rng(2)
        obbs = [
            obb
            for _ in range(6)
            for obb in model.obb_generator.generate(robot.random_configuration(rng)).obbs
        ]
        batch = BatchOctreeCollider(benchmark.octree)
        outcome = batch.collide(BatchOBBs.from_obbs(obbs), iu_cycles=True)
        for index, obb in enumerate(obbs):
            visits = model.collider.collide(obb).visits
            results = [[t.result for t in visit.tests] for visit in visits]
            assert outcome.multi_cycle_iu[index] == sum(
                multi_cycle_node_cycles(r) for r in results
            )
            assert outcome.pipelined_iu[index] == sum(
                pipelined_node_cycles(r) for r in results
            )

    def test_sums_are_opt_in(self, recorded):
        benchmark, _ = recorded
        model = CECDUModel(benchmark.robot, benchmark.octree)
        obbs = BatchOBBs.from_obbs(
            model.obb_generator.generate(np.zeros(benchmark.robot.dof)).obbs
        )
        batch = BatchOctreeCollider(benchmark.octree)
        plain = batch.collide(obbs)
        assert plain.multi_cycle_iu is None and plain.pipelined_iu is None
        with pytest.raises(ValueError, match="need_work"):
            batch.collide(obbs, need_work=False, iu_cycles=True)


class TestPrime:
    def test_dedupes_and_chunks(self, recorded, monkeypatch):
        benchmark, _ = recorded
        robot = benchmark.robot
        model = CECDUModel(robot, benchmark.octree, CECDUConfig(n_oocds=1))
        rng = np.random.default_rng(9)
        unique = np.stack(
            [robot.random_configuration(rng) for _ in range(PRIME_CHUNK_POSES + 3)]
        )
        # Two-pose motions that share endpoints, plus one exact repeat.
        motions = [MotionRecord(unique[i : i + 2], None) for i in range(len(unique) - 1)]
        motions.append(MotionRecord(unique[:2].copy(), None))
        phases = [CDPhase(FunctionMode.COMPLETE, motions)]

        sizes = []
        original = CECDUModel.simulate_poses

        def spy(self, poses):
            sizes.append(len(poses))
            return original(self, poses)

        monkeypatch.setattr(CECDUModel, "simulate_poses", spy)
        assert model.prime(phases) == len(unique)
        assert sizes == [PRIME_CHUNK_POSES, 3]
        assert model.prime(phases) == 0
        assert sizes == [PRIME_CHUNK_POSES, 3]
        oracle = CECDUModel(robot, benchmark.octree, CECDUConfig(n_oocds=1))
        for q in unique:
            assert model.simulate_pose_cached(q) == oracle.simulate_pose(q)


def _simulator(benchmark, fault_seed=None):
    config = MPAccelConfig(n_cecdus=16, cecdu=CECDUConfig(n_oocds=4))
    injector = None
    if fault_seed is not None:
        injector = FaultInjector(
            FaultModels(lane_drop_rate=0.1, lane_stall_rate=0.1), seed=fault_seed
        )
    sim = MPAccelSimulator(
        config,
        CECDUModel(benchmark.robot, benchmark.octree, config.cecdu),
        sampler_pnet_macs=ORIGINAL_PNET_MACS,
        sampler_enet_macs=ORIGINAL_ENET_MACS,
        fault_injector=injector,
    )
    return sim, injector


class TestRunQuery:
    @pytest.mark.parametrize("fault_seed", [None, 17], ids=["clean", "lane_faults"])
    def test_primed_equals_unprimed(self, recorded, monkeypatch, fault_seed):
        benchmark, traces = recorded
        primed_sim, primed_faults = _simulator(benchmark, fault_seed)
        primed = [primed_sim.run_query(t.result, t.phases) for t in traces]

        monkeypatch.setattr(CECDUModel, "prime", lambda self, phases: 0)
        lazy_sim, lazy_faults = _simulator(benchmark, fault_seed)
        unprimed = [lazy_sim.run_query(t.result, t.phases) for t in traces]
        assert primed == unprimed
        if fault_seed is not None:
            assert primed_faults.fault_count > 0
            assert primed_faults.counts_by_kind() == lazy_faults.counts_by_kind()

    def test_never_reaches_scalar_model(self, recorded, monkeypatch):
        benchmark, traces = recorded
        calls = {"scalar": 0, "cached": 0}
        scalar = CECDUModel.simulate_pose
        cached = CECDUModel.simulate_pose_cached

        def counting_scalar(self, q):
            calls["scalar"] += 1
            return scalar(self, q)

        def counting_cached(self, q):
            calls["cached"] += 1
            return cached(self, q)

        monkeypatch.setattr(CECDUModel, "simulate_pose", counting_scalar)
        monkeypatch.setattr(CECDUModel, "simulate_pose_cached", counting_cached)
        sim, _ = _simulator(benchmark)
        for trace in traces:
            sim.run_query(trace.result, trace.phases)
        assert calls["cached"] > 0
        assert calls["scalar"] == 0
