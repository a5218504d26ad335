"""The Spatially Aware Scheduler: an event-driven cycle-accurate simulator.

Models the SAS microarchitecture of Section 5.1: the CD Query Generator
dispatches at most one collision detection query per cycle to a free CDU,
ordering poses by the configured policy and keeping ``group_size`` motions
live for inter-motion parallelism.  Results retire queries; a colliding
pose kills its motion (its unscheduled poses are dropped), and the function
mode decides when the whole phase may stop:

- FEASIBILITY stops at the first colliding pose,
- CONNECTIVITY stops at the first motion proven collision-free,
- COMPLETE runs until every motion is decided.

Queries in flight when the stop condition fires were already dispatched, so
their work counts toward energy — exactly the redundant computation the
paper's schedulers are designed to minimize.  Time accounting splits that
work at the stop boundary: ``busy_cycles`` covers only CDU-cycles inside
the measured window (so utilization is a true 0..1 fraction), and the
in-flight remainder is reported as ``abandoned_cycles``.

Phases reach the simulator as a replay of a recorded trace
(:meth:`SASSimulator.run_phases`, or :meth:`SASSimulator.run` per phase):
the planner records first through a query engine, and the trace is priced
afterwards.  A trace recorded through
:class:`repro.planning.engine.BatchedEngine` carries ground truth for every
pose, so its replay needs no collision checker; replays of the sequential
and the batched recording of one workload are equal phase for phase.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.accel.config import SASConfig
from repro.accel.policies import SchedulingPolicy, make_policy
from repro.accel.telemetry import MetricsRegistry, TraceEvent
from repro.planning.motion import CDPhase, FunctionMode, MotionRecord

#: A latency model maps (motion, pose_index) to the query's outcome:
#: (hit, latency_cycles, energy_pj).  The limit study uses a constant
#: single-cycle model; Section 7.1 plugs in the CECDU timing model.
LatencyModel = Callable[[MotionRecord, int], tuple]


@dataclass(frozen=True)
class DispatchEvent:
    """One scheduled query, for timeline inspection/debugging.

    ``phase`` is 0 for a single-phase run; multi-phase aggregation
    (:meth:`SASSimulator.run_phases`) rewrites it so every event stays
    attributable after cycle offsets are applied.
    """

    dispatch_cycle: int
    complete_cycle: int
    motion_index: int
    pose_index: int
    hit: bool
    phase: int = 0


@dataclass(frozen=True)
class PhaseStats:
    """Per-phase breakdown of an aggregated :meth:`run_phases` result."""

    index: int
    label: str
    mode: str
    cycle_offset: int
    cycles: int
    tests: int
    energy_pj: float
    busy_cycles: int
    abandoned_cycles: int
    stopped_early: bool
    n_motions: int


def unit_latency_model(motion: MotionRecord, pose_index: int) -> tuple:
    """The limit-study CDU: ground-truth verdict in exactly one cycle."""
    return motion.pose_collides(pose_index), 1, 1.0


@dataclass
class SASResult:
    """Outcome of simulating one CD phase (or an aggregated sequence) on SAS."""

    cycles: int
    tests: int
    energy_pj: float
    motion_outcomes: List[Optional[bool]] = field(default_factory=list)
    stopped_early: bool = False
    #: Queries whose result was lost to an injected lane drop (each one is
    #: re-dispatched; the lost work still counts toward tests/energy).
    dropped_queries: int = 0
    #: Queries delayed by an injected lane stall.
    stalled_queries: int = 0
    #: CDU-cycles spent executing queries *inside* the measured window —
    #: latencies truncated at the stop boundary on early exit.
    busy_cycles: int = 0
    #: CDU count the phase ran on (for utilization computation).
    n_cdus: int = 1
    #: Per-dispatch events (populated only when the simulator records them).
    timeline: List["DispatchEvent"] = field(default_factory=list)
    #: In-flight CDU-cycles past the stop boundary on early exit.  This
    #: work still counts toward ``tests``/``energy_pj`` (it was dispatched,
    #: so the hardware pays for it) but not toward window utilization.
    abandoned_cycles: int = 0
    #: Number of CD phases aggregated into this result (1 for ``run``).
    phase_count: int = 1
    #: Per-phase stats with cycle offsets (populated by ``run_phases``).
    phase_breakdown: List["PhaseStats"] = field(default_factory=list)
    #: Scheduler event trace (populated alongside ``timeline``).
    events: List[TraceEvent] = field(default_factory=list)

    @property
    def any_collision(self) -> bool:
        return any(outcome is True for outcome in self.motion_outcomes)

    @property
    def any_free(self) -> bool:
        return any(outcome is False for outcome in self.motion_outcomes)

    @property
    def total_busy_cycles(self) -> int:
        """All CDU-cycles dispatched, including work abandoned at a stop."""
        return self.busy_cycles + self.abandoned_cycles

    @property
    def utilization(self) -> float:
        """Fraction of CDU-cycles that executed a query (0..1, unclamped).

        ``busy_cycles`` is truncated at the stop boundary, so the ratio is
        a true fraction — any value outside [0, 1] is an accounting bug
        (``repro.accel.invariants`` asserts this).  Low utilization at high
        CDU counts is the dispatch-rate bound the paper describes in
        Section 7.1 ("if the latency of CDUs is less than the number of
        CDUs ... the scheduler can not dispatch CD queries fast enough").
        """
        if self.cycles <= 0:
            return 0.0
        return self.busy_cycles / (self.cycles * self.n_cdus)


class _MotionState:
    """Scheduler-side bookkeeping for one motion."""

    __slots__ = (
        "motion", "order", "n_poses", "next_index", "in_flight", "returned",
        "killed", "decided",
    )

    def __init__(self, motion: MotionRecord, order: List[int]):
        self.motion = motion
        self.order = order
        # `order` starts as a permutation of the poses but may grow when an
        # injected lane drop requeues a pose, so the free-motion decision
        # compares against the pose count, not len(order).
        self.n_poses = len(order)
        self.next_index = 0  # next position in `order` to dispatch
        self.in_flight = 0
        self.returned = 0
        self.killed = False
        self.decided: Optional[bool] = None  # True=colliding, False=free

    @property
    def exhausted(self) -> bool:
        """No more poses to dispatch (killed motions stop scheduling)."""
        return self.killed or self.next_index >= len(self.order)

    def pop_pose(self) -> int:
        pose = self.order[self.next_index]
        self.next_index += 1
        self.in_flight += 1
        return pose


class SASSimulator:
    """Simulates SAS + a pool of CDUs over one CD phase.

    ``telemetry`` (optional) receives dispatch/completion/kill counters and
    latency histograms; ``check_invariants=True`` records the timeline and
    validates every run with :mod:`repro.accel.invariants`, raising
    ``SASInvariantError`` on any accounting violation.
    """

    def __init__(
        self,
        n_cdus: int,
        policy: SchedulingPolicy | str = "mcsp",
        config: SASConfig | None = None,
        latency_model: LatencyModel = unit_latency_model,
        seed: int = 0,
        telemetry: MetricsRegistry | None = None,
        check_invariants: bool = False,
        fault_injector=None,
    ):
        if n_cdus < 1:
            raise ValueError(f"n_cdus must be >= 1, got {n_cdus}")
        if config is None:
            config = SASConfig()
        if isinstance(policy, str):
            policy = make_policy(policy, step_size=config.step_size)
        self.n_cdus = n_cdus
        self.policy = policy
        self.config = config
        self.latency_model = latency_model
        self.telemetry = telemetry
        self.check_invariants = check_invariants
        # Optional repro.resilience.faults.FaultInjector: dispatched queries
        # may be dropped (result lost, pose re-dispatched) or stalled (late
        # completion).  One predicate per run when absent or disabled.
        self.fault_injector = fault_injector
        self._rng = np.random.default_rng(seed)

    def _lane_faults_active(self) -> bool:
        injector = self.fault_injector
        return (
            injector is not None
            and injector.enabled
            and (
                injector.models.lane_drop_rate > 0.0
                or injector.models.lane_stall_rate > 0.0
            )
        )

    # ------------------------------------------------------------------

    def run(self, phase: CDPhase, record_timeline: bool = False) -> SASResult:
        """Simulate one phase; optionally record the dispatch timeline.

        ``record_timeline=True`` fills ``SASResult.timeline`` with one
        :class:`DispatchEvent` per query (in dispatch order) and
        ``SASResult.events`` with the scheduler event trace — useful for
        inspecting a schedule or asserting scheduling properties in tests.
        """
        record = record_timeline or self.check_invariants
        policy = self.policy
        group_size = self.config.group_size if policy.inter_motion else 1
        throttled = self.config.dispatch_per_cycle is not None
        injector = self.fault_injector
        lane_faults = self._lane_faults_active()
        timeline: List[DispatchEvent] = []
        events: List[TraceEvent] = []
        motion_index = {id(m): i for i, m in enumerate(phase.motions)}

        tel = self.telemetry
        if tel is not None and tel.enabled:
            c_dispatch = tel.counter("sas.dispatches")
            c_complete = tel.counter("sas.completions")
            c_kill = tel.counter("sas.kills")
            c_refill = tel.counter("sas.refills")
            c_stop = tel.counter("sas.early_stops")
            h_latency = tel.histogram("sas.query_latency_cycles")
        else:
            tel = None
            c_dispatch = c_complete = c_kill = c_refill = c_stop = None
            h_latency = None

        states = [
            _MotionState(m, policy.pose_order(m.num_poses, self._rng))
            for m in phase.motions
        ]
        active: List[_MotionState] = []
        backlog = list(states)

        free_cdus = self.n_cdus
        # heap of (time, seq, state, pose_index, hit, energy, dropped)
        completions: list = []
        seq = 0
        now = 0
        next_dispatch = 0
        dispatch_cycle = -1
        dispatch_budget = 0
        rr_index = 0  # round-robin cursor over `active`
        tests = 0
        energy = 0.0
        busy_cycles = 0
        abandoned = 0
        dropped_queries = 0
        stalled_queries = 0
        stop = False
        stop_time = 0

        def refill_active(cycle: int):
            while len(active) < group_size and backlog:
                candidate = backlog.pop(0)
                if candidate.exhausted and candidate.in_flight == 0:
                    continue
                active.append(candidate)
                if record:
                    events.append(
                        TraceEvent(
                            "refill", cycle, motion_index[id(candidate.motion)]
                        )
                    )
                if c_refill is not None:
                    c_refill.inc()

        def remove_active(state: _MotionState, cycle: int):
            """Drop a motion from the group, keeping the round-robin cursor
            pointed at the same next motion (removal must not skew fairness)."""
            nonlocal rr_index
            index = active.index(state)
            active.pop(index)
            if index < rr_index:
                rr_index -= 1
            if rr_index >= len(active):
                rr_index = 0
            refill_active(cycle)

        refill_active(0)

        def select_query() -> Optional[_MotionState]:
            """Next motion to dispatch from, round-robin over the group."""
            nonlocal rr_index
            if not active:
                return None
            n = len(active)
            for k in range(n):
                state = active[(rr_index + k) % n]
                if state.exhausted:
                    continue
                if not policy.intra_motion and state.in_flight > 0:
                    continue
                rr_index = (rr_index + k + 1) % n
                return state
            return None

        def process(state: _MotionState, pose_index: int, hit: bool, t: int):
            nonlocal stop, stop_time
            state.in_flight -= 1
            state.returned += 1
            index = motion_index[id(state.motion)]
            if record:
                events.append(TraceEvent("complete", t, index, pose_index, hit))
            if c_complete is not None:
                c_complete.inc()
            if state.decided is None:
                if hit:
                    # Kill: drop the motion's unscheduled poses and free its
                    # slot in the scheduling group immediately.
                    state.killed = True
                    state.decided = True
                    if record:
                        events.append(TraceEvent("kill", t, index, pose_index, True))
                    if c_kill is not None:
                        c_kill.inc()
                    if state in active:
                        remove_active(state, t)
                elif state.returned == state.n_poses:
                    state.decided = False
            if not stop:
                if phase.mode is FunctionMode.FEASIBILITY and state.decided is True:
                    stop = True
                    stop_time = t
                elif phase.mode is FunctionMode.CONNECTIVITY and state.decided is False:
                    stop = True
                    stop_time = t
                else:
                    return
                if record:
                    events.append(TraceEvent("stop", t, index, pose_index, hit))
                if c_stop is not None:
                    c_stop.inc()

        last_completion = 0

        def requeue(state: _MotionState, pose_index: int, t: int):
            """A lane drop lost this query's result: schedule the pose again.

            The pose goes back to the front of the motion's dispatch order;
            if the motion had already left the scheduling group (exhausted),
            it re-enters through the backlog.  Moot once the motion is
            killed or the phase has stopped — the result would be discarded
            anyway.
            """
            state.in_flight -= 1
            if state.killed or stop:
                return
            state.order.insert(state.next_index, pose_index)
            if state not in active and state not in backlog:
                backlog.insert(0, state)
                refill_active(t)

        def drain_one():
            """Retire the earliest completion; truncate post-stop latency."""
            nonlocal free_cdus, now, last_completion, abandoned
            ct, _, state, pose_index, hit, _energy, dropped = heapq.heappop(
                completions
            )
            free_cdus += 1
            now = ct
            if ct > last_completion:
                last_completion = ct
            if dropped:
                if record:
                    events.append(
                        TraceEvent(
                            "drop", ct, motion_index[id(state.motion)], pose_index
                        )
                    )
                requeue(state, pose_index, ct)
            else:
                process(state, pose_index, hit, ct)
            if stop and ct > stop_time:
                # The query was in flight when the phase stopped: the CDU-
                # cycles past the stop boundary are abandoned work, outside
                # the measured window.
                abandoned += ct - stop_time

        while True:
            t = max(now, next_dispatch)
            can_dispatch = not stop and free_cdus > 0
            # Results due at or before this dispatch slot must be processed
            # first: they may kill the motion we would otherwise schedule
            # from.  Draining before selection also keeps the round-robin
            # cursor untouched until a dispatch actually happens — an
            # aborted attempt must not cost a motion its turn.
            if can_dispatch and completions and completions[0][0] <= t:
                drain_one()
                continue
            candidate = select_query() if can_dispatch else None
            if candidate is not None:
                pose_index = candidate.pop_pose()
                if candidate.exhausted:
                    # No poses left to schedule: free the group slot so the
                    # next backlog motion can enter (Section 5.1).
                    remove_active(candidate, t)
                hit, latency, query_energy = self.latency_model(
                    candidate.motion, pose_index
                )
                dropped = False
                if lane_faults:
                    fault = injector.lane_fault()
                    if fault is not None:
                        if fault[0] == "stall":
                            latency += fault[1]
                            stalled_queries += 1
                            if record:
                                events.append(
                                    TraceEvent(
                                        "stall", t,
                                        motion_index[id(candidate.motion)],
                                        pose_index,
                                    )
                                )
                        else:
                            # The CDU runs the query but its result is lost:
                            # the work is paid for, the verdict never lands.
                            dropped = True
                            dropped_queries += 1
                tests += 1
                energy += query_energy
                busy_cycles += latency
                if record:
                    index = motion_index[id(candidate.motion)]
                    timeline.append(
                        DispatchEvent(
                            dispatch_cycle=t,
                            complete_cycle=t + latency,
                            motion_index=index,
                            pose_index=pose_index,
                            hit=hit,
                        )
                    )
                    events.append(TraceEvent("dispatch", t, index, pose_index))
                if c_dispatch is not None:
                    c_dispatch.inc()
                    h_latency.record(latency)
                free_cdus -= 1
                seq += 1
                heapq.heappush(
                    completions,
                    (t + latency, seq, candidate, pose_index, hit, query_energy,
                     dropped),
                )
                if throttled:
                    if t == dispatch_cycle:
                        dispatch_budget -= 1
                    else:
                        dispatch_cycle = t
                        dispatch_budget = self.config.dispatch_per_cycle - 1
                    if dispatch_budget <= 0:
                        next_dispatch = t + 1
                now = t
                continue
            if completions:
                drain_one()
                continue
            break  # no dispatchable work and nothing in flight

        if stop:
            cycles = stop_time
        else:
            cycles = last_completion
        outcomes = [state.decided for state in states]
        if tel is not None:
            tel.counter("sas.runs").inc()
            tel.counter("sas.cycles").inc(cycles)
            tel.counter("sas.tests").inc(tests)
            tel.counter("sas.busy_cycles").inc(busy_cycles - abandoned)
            tel.counter("sas.abandoned_cycles").inc(abandoned)
        result = SASResult(
            cycles=cycles,
            tests=tests,
            energy_pj=energy,
            motion_outcomes=outcomes,
            stopped_early=stop,
            busy_cycles=busy_cycles - abandoned,
            n_cdus=self.n_cdus,
            timeline=timeline,
            abandoned_cycles=abandoned,
            events=events,
            dropped_queries=dropped_queries,
            stalled_queries=stalled_queries,
        )
        if self.check_invariants and not (dropped_queries or stalled_queries):
            # Lane faults deliberately break the accounting invariants a
            # healthy schedule must satisfy (a dropped pose dispatches
            # twice, a stall decouples latency from the latency model), so
            # the audit only runs on fault-free schedules.
            from repro.accel.invariants import verify_sas_result

            verify_sas_result(result, config=self.config, phases=[phase])
        return result

    def run_phases(
        self, phases: List[CDPhase], record_timeline: bool = False
    ) -> SASResult:
        """Simulate a sequence of phases; totals cycles/tests/energy.

        The aggregate keeps per-phase state: ``phase_breakdown`` holds one
        :class:`PhaseStats` per phase (with its cycle offset), and when
        ``record_timeline=True`` the per-phase timelines/event traces are
        merged with those offsets applied, so an aggregated trace is
        globally ordered and phase-attributable.
        """
        tel = self.telemetry
        total = SASResult(
            cycles=0, tests=0, energy_pj=0.0, n_cdus=self.n_cdus, phase_count=0
        )
        for index, phase in enumerate(phases):
            if tel is not None and tel.enabled:
                label = f"{index}:{phase.label or phase.mode.value}"
                with tel.scope("phase", label):
                    result = self.run(phase, record_timeline=record_timeline)
            else:
                result = self.run(phase, record_timeline=record_timeline)
            offset = total.cycles
            total.cycles += result.cycles
            total.tests += result.tests
            total.energy_pj += result.energy_pj
            total.busy_cycles += result.busy_cycles
            total.abandoned_cycles += result.abandoned_cycles
            total.dropped_queries += result.dropped_queries
            total.stalled_queries += result.stalled_queries
            total.motion_outcomes.extend(result.motion_outcomes)
            total.stopped_early = total.stopped_early or result.stopped_early
            total.phase_count += 1
            total.phase_breakdown.append(
                PhaseStats(
                    index=index,
                    label=phase.label,
                    mode=phase.mode.value,
                    cycle_offset=offset,
                    cycles=result.cycles,
                    tests=result.tests,
                    energy_pj=result.energy_pj,
                    busy_cycles=result.busy_cycles,
                    abandoned_cycles=result.abandoned_cycles,
                    stopped_early=result.stopped_early,
                    n_motions=len(phase.motions),
                )
            )
            if record_timeline:
                total.timeline.extend(
                    replace(
                        event,
                        dispatch_cycle=event.dispatch_cycle + offset,
                        complete_cycle=event.complete_cycle + offset,
                        phase=index,
                    )
                    for event in result.timeline
                )
                total.events.extend(
                    replace(event, cycle=event.cycle + offset, phase=index)
                    for event in result.events
                )
        if self.check_invariants and not (
            total.dropped_queries or total.stalled_queries
        ):
            from repro.accel.invariants import verify_sas_result

            verify_sas_result(total, config=self.config, phases=list(phases))
        return total


def prime_phase(phase: CDPhase, checker) -> int:
    """Resolve every undecided pose of a phase in one batched dispatch.

    The lazy ``MotionRecord`` cache answers the simulator's out-of-order
    probes with one scalar ``check_pose`` call each; priming instead stacks
    all unevaluated poses across the phase's motions into a single
    ``checker.check_poses`` call — with a ``backend="batch"`` checker that is
    one vectorized pipeline invocation for the whole MCSP batch.  Verdicts
    and recorded stats are bit-identical either way (the batch backend's
    contract), so simulation results do not change.  Returns the number of
    poses primed.
    """
    targets = [
        (motion, index)
        for motion in phase.motions
        for index in motion.unevaluated_indices()
    ]
    if not targets:
        return 0
    stacked = np.stack([motion.poses[index] for motion, index in targets])
    verdicts = checker.check_poses(stacked)
    for (motion, index), hit in zip(targets, verdicts):
        motion.set_pose_outcome(index, bool(hit))
    return len(targets)


def prime_phases(
    phases: Sequence[CDPhase], checker, telemetry: MetricsRegistry | None = None
) -> int:
    """Prime a sequence of phases; returns total poses primed.

    Used by :class:`repro.accel.mpaccel.MPAccelSimulator` and
    :class:`repro.accel.runtime.RobotRuntime` when the checker reports the
    vectorized backend, so every simulated query resolves its ground truth
    through the batch pipeline instead of N scalar calls.
    """
    primed = 0
    for phase in phases:
        primed += prime_phase(phase, checker)
    if telemetry is not None and telemetry.enabled and primed:
        telemetry.counter("sas.primed_poses").inc(primed)
    return primed


def sequential_reference_tests(phase: CDPhase) -> int:
    """Work of the early-exiting sequential evaluation (the efficiency baseline)."""
    return phase.sequential_reference().tests
