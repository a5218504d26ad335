"""Regression tests for the SAS accounting fixes.

Three bugs fixed in this layer, each pinned here:

1. utilization over-count — in-flight latency past an early stop used to
   inflate ``busy_cycles`` and the >1 ratio was masked by a ``min(1.0,...)``
   clamp; busy work is now truncated at the stop boundary and the ratio is
   unclamped (so a regression is visible, and the invariant checker fails);
2. ``run_phases`` dropped per-phase timelines and cycle offsets — the
   aggregate now carries ``phase_breakdown`` plus offset-shifted traces;
3. round-robin cursor skew — removing a motion from the scheduling group
   below the cursor used to shift which motion the cursor pointed at,
   starving the killed motion's round-robin successor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.cecdu import CECDUModel
from repro.accel.config import CECDUConfig, MPAccelConfig, SASConfig
from repro.accel.mpaccel import MPAccelSimulator
from repro.accel.sas import SASSimulator
from repro.collision.checker import RobotEnvironmentChecker
from repro.planning.motion import CDPhase, FunctionMode, MotionRecord
from repro.planning.mpnet import PlanResult


class _FakeChecker:
    def __init__(self, collides):
        self._collides = collides
        self.motion_step = 0.25

    def check_pose(self, q):
        return bool(self._collides(float(np.asarray(q)[0])))


def _make_phase(mode, thresholds, n_poses=12):
    motions = []
    for t in thresholds:
        predicate = (lambda x: False) if t is None else (lambda x, t=t: x >= t)
        motions.append(
            MotionRecord(np.linspace([0.0], [1.0], n_poses), _FakeChecker(predicate))
        )
    return CDPhase(mode, motions)


class TestUtilizationTruncation:
    """Satellite (a): busy work truncated at the stop boundary, no clamp."""

    def _long_tail_run(self):
        """FEASIBILITY stop at cycle 1 with 100-cycle queries in flight.

        Pose 0 of the colliding motion completes in 1 cycle; the other
        three CDUs are busy with 100-cycle queries when the phase stops.
        The pre-fix accounting summed full latencies (busy = 301 over a
        4-CDU x 1-cycle window) and clamped the 75x over-count to 1.0.
        """

        def model(motion, pose_index):
            hit = motion.pose_collides(pose_index)
            return hit, 1 if pose_index == 0 else 100, 1.0

        phase = _make_phase(FunctionMode.FEASIBILITY, [0.0], n_poses=8)
        sim = SASSimulator(
            n_cdus=4,
            policy="mnp",
            config=SASConfig(dispatch_per_cycle=None),
            latency_model=model,
        )
        return sim.run(phase, record_timeline=True)

    def test_regression_utilization_was_over_one(self):
        result = self._long_tail_run()
        assert result.stopped_early and result.cycles == 1
        # The pre-fix value: full latencies over the 1-cycle window.
        pre_fix = (result.busy_cycles + result.abandoned_cycles) / (
            result.cycles * result.n_cdus
        )
        assert pre_fix > 1.0  # the bug this pins: >1 "utilization"
        assert result.utilization <= 1.0
        assert result.utilization == pytest.approx(1.0)  # window fully busy

    def test_abandoned_work_still_counted_as_tests_and_energy(self):
        """Redundant in-flight work is the paper's headline cost — it must
        stay in tests/energy even though it leaves the utilization window."""
        result = self._long_tail_run()
        assert result.abandoned_cycles > 0
        assert result.tests == len(result.timeline)
        assert result.energy_pj == pytest.approx(result.tests * 1.0)
        assert (
            result.total_busy_cycles
            == result.busy_cycles + result.abandoned_cycles
        )

    def test_no_stop_means_no_abandoned_work(self):
        phase = _make_phase(FunctionMode.COMPLETE, [None, 0.5])
        result = SASSimulator(n_cdus=4, policy="mnp").run(phase)
        assert result.abandoned_cycles == 0

    @settings(max_examples=40, deadline=None)
    @given(
        policy=st.sampled_from(["np", "rnd", "mnp", "mcsp", "mbrp"]),
        n_cdus=st.sampled_from([1, 4, 16]),
        seed=st.integers(0, 50),
        mode=st.sampled_from(
            [FunctionMode.FEASIBILITY, FunctionMode.CONNECTIVITY]
        ),
    )
    def test_utilization_always_a_fraction(self, policy, n_cdus, seed, mode):
        def model(motion, pose_index, seed=seed):
            hit = motion.pose_collides(pose_index)
            return hit, 1 + (pose_index * 13 + seed) % 37, 1.0

        phase = _make_phase(mode, [0.5, None, 0.2], n_poses=20)
        result = SASSimulator(
            n_cdus=n_cdus,
            policy=policy,
            config=SASConfig(dispatch_per_cycle=None),
            latency_model=model,
        ).run(phase)
        assert 0.0 <= result.utilization <= 1.0
        assert result.busy_cycles <= result.cycles * result.n_cdus


class TestRunPhasesAggregation:
    """Satellite (b): aggregates keep timelines, offsets, and breakdowns."""

    def _phases(self):
        return [
            _make_phase(FunctionMode.COMPLETE, [None, 0.5]),
            _make_phase(FunctionMode.FEASIBILITY, [0.2]),
            _make_phase(FunctionMode.CONNECTIVITY, [None, None]),
        ]

    def test_breakdown_sums_and_offsets(self):
        sim = SASSimulator(n_cdus=4, policy="mcsp")
        phases = self._phases()
        total = sim.run_phases(phases)
        assert total.phase_count == len(phases)
        assert len(total.phase_breakdown) == len(phases)
        assert sum(s.cycles for s in total.phase_breakdown) == total.cycles
        assert sum(s.tests for s in total.phase_breakdown) == total.tests
        offset = 0
        for stats in total.phase_breakdown:
            assert stats.cycle_offset == offset
            offset += stats.cycles
        assert [s.mode for s in total.phase_breakdown] == [
            "complete", "feasibility", "connectivity",
        ]

    def test_aggregated_timeline_offset_and_attributed(self):
        """Pre-fix, run_phases silently dropped every phase's timeline."""
        sim = SASSimulator(n_cdus=4, policy="mcsp")
        phases = self._phases()
        total = sim.run_phases(phases, record_timeline=True)
        assert total.timeline, "aggregate must keep the recorded timelines"
        assert len(total.timeline) == total.tests
        by_phase = {s.index: s for s in total.phase_breakdown}
        for event in total.timeline:
            window = by_phase[event.phase]
            assert window.cycle_offset <= event.dispatch_cycle
            assert event.dispatch_cycle <= window.cycle_offset + window.cycles
        # Events from a later phase never dispatch before an earlier one.
        dispatches = [e.dispatch_cycle for e in total.timeline]
        assert dispatches == sorted(dispatches)

    def test_aggregate_equals_individual_runs(self):
        phases = self._phases()
        agg = SASSimulator(n_cdus=4, policy="mnp", seed=7).run_phases(phases)
        singles = [
            SASSimulator(n_cdus=4, policy="mnp", seed=7).run(p)
            for p in self._phases()
        ]
        assert agg.cycles == sum(r.cycles for r in singles)
        assert agg.tests == sum(r.tests for r in singles)
        assert agg.busy_cycles == sum(r.busy_cycles for r in singles)
        assert agg.abandoned_cycles == sum(r.abandoned_cycles for r in singles)


class TestRoundRobinCursor:
    """Satellite (c): group removal must not skew round-robin fairness."""

    def test_kill_does_not_skip_successor(self):
        """Deterministic cursor regression.

        1 CDU, unit latency, 1 dispatch/cycle, motions [0, 1, 2, 3] with
        motion 1 colliding at its first pose.  Dispatch order starts
        0, 1, 2, ...; motion 1's kill lands while the cursor points past
        it.  Pre-fix, removal shifted the list under the cursor so motion
        2 was skipped (order 0,1,3,...); the cursor now compensates.
        """
        phase = _make_phase(
            FunctionMode.COMPLETE, [None, 0.0, None, None], n_poses=6
        )
        sim = SASSimulator(
            n_cdus=1,
            policy="mnp",
            config=SASConfig(dispatch_per_cycle=1),
        )
        result = sim.run(phase, record_timeline=True)
        order = [e.motion_index for e in result.timeline]
        assert order[:4] == [0, 1, 2, 3]
        # After the kill the survivors keep strict rotation: 0, 2, 3, ...
        survivors = [m for m in order[3:] if m != 1]
        for i in range(len(survivors) - 1):
            assert survivors[i] != survivors[i + 1]

    @settings(max_examples=50, deadline=None)
    @given(
        policy=st.sampled_from(["mnp", "mrnd", "mbrp", "mcsp", "ms"]),
        n_cdus=st.sampled_from([1, 2, 4]),
        n_motions=st.integers(2, 8),
        n_poses=st.integers(4, 16),
        seed=st.integers(0, 100),
    )
    def test_dispatch_imbalance_bounded(
        self, policy, n_cdus, n_motions, n_poses, seed
    ):
        """With identical free motions, round-robin keeps every timeline
        prefix balanced: per-motion dispatch counts differ by at most 1."""
        phase = _make_phase(
            FunctionMode.COMPLETE, [None] * n_motions, n_poses=n_poses
        )
        sim = SASSimulator(
            n_cdus=n_cdus,
            policy=policy,
            config=SASConfig(dispatch_per_cycle=1, group_size=16),
            seed=seed,
        )
        result = sim.run(phase, record_timeline=True)
        counts = dict.fromkeys(range(n_motions), 0)
        for event in result.timeline:
            counts[event.motion_index] += 1
            live = [c for m, c in counts.items() if c < n_poses] or list(
                counts.values()
            )
            assert max(live) - min(live) <= 1, (
                f"prefix imbalance {counts} under {policy}"
            )


class TestPrimedVsLazyDifferential:
    """Satellite (d): batch-primed simulation is bit-identical to lazy."""

    def _phases(self, jaco, checker, seed=41):
        rng = np.random.default_rng(seed)
        qs = rng.uniform(-np.pi, np.pi, (5, jaco.dof))
        motions = [
            MotionRecord.from_endpoints(qs[i], qs[i + 1], checker)
            for i in range(4)
        ]
        return [
            CDPhase(FunctionMode.COMPLETE, motions[:2], "steer"),
            CDPhase(FunctionMode.FEASIBILITY, motions[2:], "check"),
        ]

    def _simulator(self, jaco, bench_octree, checker):
        config = MPAccelConfig(n_cecdus=8, cecdu=CECDUConfig(n_oocds=4))
        cecdu = CECDUModel(jaco, bench_octree, config.cecdu)
        return MPAccelSimulator(
            config, cecdu, 3_800_000, 1_300_000, checker=checker,
            check_invariants=True,
        )

    def test_run_query_bit_identical_and_primed(self, jaco, bench_octree):
        lazy_checker = RobotEnvironmentChecker(jaco, bench_octree)
        batch_checker = RobotEnvironmentChecker(
            jaco, bench_octree, backend="batch"
        )
        result = PlanResult(success=True, nn_inferences=3, encoder_inferences=1)

        lazy_sim = self._simulator(jaco, bench_octree, lazy_checker)
        batch_sim = self._simulator(jaco, bench_octree, batch_checker)
        lazy_timing = lazy_sim.run_query(
            result, self._phases(jaco, lazy_checker)
        )
        batch_timing = batch_sim.run_query(
            result, self._phases(jaco, batch_checker)
        )

        assert lazy_timing.primed_poses == 0  # scalar backend: no priming
        assert batch_timing.primed_poses > 0  # batch backend: wired in
        # Bit-identical modeled results: priming only changes *how* ground
        # truth is computed, never what the simulator observes.
        assert batch_timing.cd_cycles == lazy_timing.cd_cycles
        assert batch_timing.cd_tests == lazy_timing.cd_tests
        assert batch_timing.cd_busy_cycles == lazy_timing.cd_busy_cycles
        assert batch_timing.cd_abandoned_cycles == lazy_timing.cd_abandoned_cycles
        assert batch_timing.cd_energy_pj == pytest.approx(lazy_timing.cd_energy_pj)
        assert batch_timing.total_s == pytest.approx(lazy_timing.total_s)

    def test_sas_result_bit_identical(self, jaco, bench_octree):
        """Down at the SASResult level: identical timelines, not just sums."""
        lazy_checker = RobotEnvironmentChecker(jaco, bench_octree)
        batch_checker = RobotEnvironmentChecker(
            jaco, bench_octree, backend="batch"
        )
        lazy_phase = self._phases(jaco, lazy_checker)[0]
        batch_phase = self._phases(jaco, batch_checker)[0]

        from repro.accel.sas import prime_phase

        primed = prime_phase(batch_phase, batch_checker)
        assert primed == batch_phase.total_poses

        r_lazy = SASSimulator(4, seed=3).run(lazy_phase, record_timeline=True)
        r_batch = SASSimulator(4, seed=3).run(batch_phase, record_timeline=True)
        assert r_lazy == r_batch


class TestRuntimeBatchBackend:
    """Satellite (d), runtime side: backend="batch" primes inside the loop."""

    def test_runtime_reports_match_and_telemetry_primes(self, rng):
        from repro.accel.runtime import RobotRuntime
        from repro.accel.telemetry import MetricsRegistry
        from repro.config import ReproConfig
        from repro.env.scene import Scene
        from repro.geometry.aabb import AABB
        from repro.robot.presets import planar_arm

        def scene():
            s = Scene(extent=4.0)
            s.add_obstacle(AABB.from_min_max([0.7, -0.4, 0.0], [0.9, 0.4, 0.2]))
            return s

        def runtime(backend, telemetry=None):
            return RobotRuntime(
                robot=planar_arm(2),
                scene=scene(),
                config=MPAccelConfig(n_cecdus=8, cecdu=CECDUConfig(n_oocds=4)),
                scene_update=lambda s, tick, r: False,
                telemetry=telemetry,
                repro=ReproConfig(
                    backend=backend, octree_resolution=32, collect_stats=False
                ),
            )

        # The detour scenario: planning hits the wall, so the recorder's
        # sequential early-exit leaves later poses of colliding motions
        # unevaluated — exactly the ground truth priming resolves.
        q_start = np.array([np.pi * 0.9, 0.0])
        q_goal = np.array([-np.pi * 0.9, 0.0])
        registry = MetricsRegistry()

        scalar_report = runtime("scalar").run(
            q_start, q_goal, n_ticks=1, rng=np.random.default_rng(5)
        )
        batch_report = runtime("batch", registry).run(
            q_start, q_goal, n_ticks=1, rng=np.random.default_rng(5)
        )

        # Same modeled latency either way: priming is behavior-neutral.
        assert batch_report.worst_tick_ms == pytest.approx(
            scalar_report.worst_tick_ms
        )
        assert [t.poses_checked for t in batch_report.ticks] == [
            t.poses_checked for t in scalar_report.ticks
        ]
        # The batch path actually primed, and the tick scope captured it.
        assert registry.counter_value("sas.primed_poses") > 0
        tick_scopes = registry.scopes_of("tick")
        assert tick_scopes and tick_scopes[0].label == "0"
        assert tick_scopes[0].counters.get("sas.primed_poses", 0) > 0
