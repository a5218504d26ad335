"""Closed-loop robot runtime: sense -> map -> plan -> accelerate, per tick.

The paper's motivation is a robot reacting to a *dynamic* environment under
a ~1 ms actuator period.  This module couples the substrates into that
loop: each control tick the environment may change, the mapper rebuilds the
octree, the planner revalidates (and if needed replans) the current path,
and the MPAccel simulator prices the tick's computation.  The result is a
latency series showing whether the system holds the real-time budget as
obstacles move.

The loop does not merely *measure* the budget — it can enforce it.  With a
:class:`~repro.resilience.deadline.DeadlineBudget` attached, each tick
charges its simulated cost (octree-update bus time + MPAccel planning
latency + retry backoff) and optionally its wall clock against the budget,
retries transient engine faults with bounded exponential backoff, and walks
the graceful-degradation ladder
(:class:`~repro.resilience.degradation.DegradationLevel`) when the budget
or the retries are exhausted:

1. **full replan** — a fresh plan was produced and validated this tick;
2. **revalidate only** — the current path re-validated against this tick's
   octree and was kept;
3. **reuse last validated** — the current path was invalid or planning was
   unaffordable/failing, but an older known-good path re-validated clean
   against this tick's octree and was restored;
4. **safe stop** — nothing could be validated; the tick emits *no* path.

Safety invariant (pinned by ``tests/test_resilience_runtime.py``): every
path the loop emits was validated against the octree the runtime holds
that tick — under any injected fault sequence, an unvalidatable tick
reaches safe-stop instead of shipping a stale or unchecked path.

A :class:`~repro.resilience.faults.FaultInjector` plugs the loop into the
fault models (sensor dropout here; bit flips, lane faults, and engine
faults in the layers below).  With no deadline and no faults attached the
loop follows exactly the pre-resilience code path — fixed-seed runs are
bit-identical to it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from contextlib import nullcontext

from repro.accel.cecdu import CECDUModel
from repro.accel.config import MPAccelConfig
from repro.accel.mpaccel import MPAccelSimulator
from repro.accel.telemetry import MetricsRegistry
from repro.collision.cache import CollisionCache
from repro.collision.checker import RobotEnvironmentChecker
from repro.config import ReproConfig
from repro.env.diff import octree_delta_regions
from repro.env.mapping import scan_scene_points
from repro.env.octree import Octree
from repro.env.scene import Scene
from repro.planning.engine import make_engine
from repro.planning.mpnet import MPNetPlanner, PlanResult
from repro.planning.recorder import CDTraceRecorder
from repro.planning.samplers import HeuristicSampler
from repro.resilience.deadline import TickTimer
from repro.resilience.degradation import DegradationLevel, degradation_histogram
from repro.resilience.faults import FaultInjector, TransientEngineFault

#: Retry policy used when engine faults fire but no DeadlineBudget is
#: attached (resilience without deadlines still must not crash the loop).
DEFAULT_MAX_RETRIES = 2
DEFAULT_BACKOFF_MS = 0.05


@dataclass
class TickReport:
    """What happened during one control tick."""

    tick: int
    replanned: bool
    plan_valid: bool
    planning_ms: float
    phases: int
    poses_checked: int
    #: Time to ship the environment octree delta over the 5 GBPS bus.
    octree_update_ms: float = 0.0
    #: Ladder rung that produced this tick's emitted path (None for quiet
    #: ticks that did no validation work).
    degradation: Optional[str] = None
    #: Whether the tick exceeded its simulated or wall-clock budget.
    deadline_miss: bool = False
    #: Whether the tick ran against a stale octree (sensor dropout).
    stale_octree: bool = False
    #: Faults injected during this tick (all models).
    faults: int = 0
    #: Transient engine faults retried during this tick.
    retries: int = 0

    @property
    def total_ms(self) -> float:
        return self.planning_ms + self.octree_update_ms

    _KEYS = (
        "tick",
        "replanned",
        "plan_valid",
        "planning_ms",
        "phases",
        "poses_checked",
        "octree_update_ms",
        "degradation",
        "deadline_miss",
        "stale_octree",
        "faults",
        "retries",
    )

    def to_dict(self) -> dict:
        """JSON-native payload (nested inside a serialized report)."""
        return {
            "tick": self.tick,
            "replanned": self.replanned,
            "plan_valid": self.plan_valid,
            "planning_ms": self.planning_ms,
            "phases": self.phases,
            "poses_checked": self.poses_checked,
            "octree_update_ms": self.octree_update_ms,
            "degradation": self.degradation,
            "deadline_miss": self.deadline_miss,
            "stale_octree": self.stale_octree,
            "faults": self.faults,
            "retries": self.retries,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TickReport":
        from repro.harness.reports import check_keys

        check_keys("TickReport", data, cls._KEYS)
        return cls(**data)


@dataclass
class RuntimeReport:
    """The full run: per-tick reports plus the final plan state."""

    ticks: List[TickReport] = field(default_factory=list)
    final_path: List[np.ndarray] = field(default_factory=list)

    @property
    def worst_tick_ms(self) -> float:
        return max((t.total_ms for t in self.ticks), default=0.0)

    @property
    def replan_count(self) -> int:
        return sum(1 for t in self.ticks if t.replanned)

    def meets_budget(self, budget_ms: float = 1.0) -> bool:
        return self.worst_tick_ms <= budget_ms

    # -- resilience accounting ----------------------------------------

    @property
    def deadline_miss_count(self) -> int:
        return sum(1 for t in self.ticks if t.deadline_miss)

    @property
    def safe_stop_count(self) -> int:
        return sum(
            1
            for t in self.ticks
            if t.degradation == DegradationLevel.SAFE_STOP.label
        )

    @property
    def fault_count(self) -> int:
        return sum(t.faults for t in self.ticks)

    @property
    def retry_count(self) -> int:
        return sum(t.retries for t in self.ticks)

    @property
    def stale_tick_count(self) -> int:
        return sum(1 for t in self.ticks if t.stale_octree)

    def degradation_levels(self) -> List[DegradationLevel]:
        """Ladder rungs of the ticks that did validation work, in order."""
        return [
            DegradationLevel.from_label(t.degradation)
            for t in self.ticks
            if t.degradation is not None
        ]

    @property
    def degradation_histogram(self) -> Dict[str, int]:
        """Ladder-ordered ``{rung label: tick count}`` for the run."""
        return degradation_histogram(self.degradation_levels())

    _KEYS = ("ticks", "final_path")

    def to_dict(self) -> dict:
        """Serialize under the common report protocol (kind
        ``"runtime_report"``; see :mod:`repro.harness.reports`)."""
        from repro.harness.reports import stamp_report

        return stamp_report(
            "runtime_report",
            {
                "ticks": [tick.to_dict() for tick in self.ticks],
                "final_path": [
                    np.asarray(q, dtype=float).tolist()
                    for q in self.final_path
                ],
            },
        )

    @classmethod
    def from_dict(cls, data: dict) -> "RuntimeReport":
        from repro.harness.reports import unpack_report

        body = unpack_report(data, "runtime_report", cls._KEYS)
        return cls(
            ticks=[TickReport.from_dict(tick) for tick in body["ticks"]],
            final_path=[
                np.asarray(q, dtype=float) for q in body["final_path"]
            ],
        )


class RobotRuntime:
    """Drives plan maintenance against a mutating scene.

    ``scene_update(scene, tick, rng)`` mutates the scene in place (move or
    add obstacles) and returns True when something changed; ticks without
    changes only revalidate the current path.

    ``repro`` (:class:`repro.config.ReproConfig`) wires the planning stack:
    collision backend, query-engine kind, motion step, octree resolution,
    resilience policy (deadline budget + audit flag), and the optional
    collision cache all come from one validated bundle.  ``repro=None``
    runs the scalar sequential stack without per-operation stats,
    ``ReproConfig(collect_stats=False)``; note that ``ReproConfig()``
    itself collects them.

    With ``repro.backend="batch"`` the MPAccel simulator primes every CD
    phase's ground truth through one vectorized dispatch before pricing it
    (bit-identical verdicts, see :func:`repro.accel.sas.prime_phase`); with
    ``repro.engine.kind="batch"`` every planner phase is answered by one
    vectorized dispatch *during* planning, which both speeds up the tick
    and leaves the phases pre-primed for pricing.  ``telemetry`` receives
    a per-tick scope with the SAS counters.

    With ``repro.cache.enabled`` the runtime keeps one
    :class:`~repro.collision.cache.CollisionCache` across ticks: each tick's
    rebuilt checker shares it, and the octree delta between consecutive
    ticks selectively invalidates only the cached verdicts whose robot
    footprints overlap a changed region — verdicts for poses far from the
    moving obstacle survive the update.

    Resilience:

    - ``repro.resilience`` (:class:`repro.config.ResilienceConfig`) with
      ``sim_ms`` or ``wall_ms`` set builds a
      :class:`~repro.resilience.deadline.DeadlineBudget` that enforces a
      per-tick budget over the simulated tick cost (and wall clock when
      ``wall_ms`` is set) and bounds transient-fault retries;
    - ``faults`` (:class:`~repro.resilience.faults.FaultInjector`) attaches
      the deterministic fault models to every layer the runtime builds
      (checker bit flips, SAS lane faults, engine phase faults) plus the
      sensor-dropout model handled here;
    - ``repro.resilience.audit`` keeps a flight-recorder list
      ``audit_trail`` of ``(tick, path, octree)`` for every emitted path,
      so tests (or an offline safety review) can re-validate each emission
      against the exact octree it was checked under;
    - ``clock`` is the wall-clock source for ``wall_ms`` budgets
      (injectable for deterministic tests).

    With no deadline and no active faults the loop is bit-identical to the
    pre-resilience runtime (same calls, same rng draws).
    """

    def __init__(
        self,
        robot,
        scene: Scene,
        config: MPAccelConfig,
        scene_update: Callable[[Scene, int, np.random.Generator], bool],
        telemetry: MetricsRegistry | None = None,
        faults: FaultInjector | None = None,
        clock=time.perf_counter,
        repro: Optional[ReproConfig] = None,
    ):
        self.repro = ReproConfig(collect_stats=False) if repro is None else repro
        self.robot = robot
        self.scene = scene
        self.config = config
        self.scene_update = scene_update
        self.telemetry = telemetry
        self.deadline = self.repro.resilience.make_deadline()
        self.faults = faults
        self.audit = self.repro.resilience.audit
        self._clock = clock
        self._previous_octree = None
        self._stack: Optional[tuple] = None
        self._last_validated_path: List[np.ndarray] = []
        #: (tick, path, octree) per emitted path when auditing.
        self.audit_trail: List[tuple] = []
        #: Persistent verdict cache (``repro.cache.enabled``): survives the
        #: per-tick checker rebuild and is selectively invalidated from the
        #: octree delta each tick instead of being dropped.
        self._cache: Optional[CollisionCache] = None
        self._cache_octree: Optional[Octree] = None
        if self.repro.cache.enabled:
            self._cache = CollisionCache(
                quantum=self.repro.cache.quantum,
                max_entries=self.repro.cache.max_entries,
                telemetry=telemetry,
            )

    # -- plumbing ------------------------------------------------------

    def _tick_scope(self, tick: int):
        if self.telemetry is not None and self.telemetry.enabled:
            return self.telemetry.scope("tick", str(tick))
        return nullcontext()

    def _faults_on(self) -> bool:
        return (
            self.faults is not None
            and self.faults.enabled
            and self.faults.models.any_active
        )

    def _resilient(self) -> bool:
        return self.deadline is not None or self._faults_on()

    def _retry_policy(self) -> Tuple[int, float]:
        if self.deadline is not None:
            return self.deadline.max_retries, self.deadline.backoff_ms
        return DEFAULT_MAX_RETRIES, DEFAULT_BACKOFF_MS

    def _octree_update_ms(self, octree: Octree) -> float:
        """Bus time to ship the environment update (delta when possible)."""
        from repro.env.diff import octree_delta

        if self._previous_octree is None:
            bits = octree.memory_bits
        else:
            bits = octree_delta(self._previous_octree, octree).transfer_bits()
        self._previous_octree = octree
        return bits / (self.config.io_gbps * 1e9) * 1e3

    def _build_stack(self, rng):
        octree = Octree.from_scene(
            self.scene, resolution=self.repro.octree_resolution
        )
        if self._cache is not None:
            if self._cache_octree is not None:
                self._cache.invalidate_regions(
                    octree_delta_regions(self._cache_octree, octree)
                )
            self._cache_octree = octree
        checker = RobotEnvironmentChecker.from_config(
            self.robot, octree, self.repro,
            fault_injector=self.faults, cache=self._cache,
            telemetry=self.telemetry,
        )
        recorder = CDTraceRecorder(
            checker,
            engine=make_engine(
                self.repro.engine, checker, telemetry=self.telemetry,
                fault_injector=self.faults,
            ),
        )
        planner = MPNetPlanner(
            recorder,
            HeuristicSampler(self.robot),
            environment_points=scan_scene_points(self.scene, 60, rng=rng),
        )
        cecdu = CECDUModel(self.robot, octree, self.config.cecdu)
        accel = MPAccelSimulator(
            self.config, cecdu, sampler_pnet_macs=3_800_000,
            sampler_enet_macs=1_300_000, checker=checker,
            telemetry=self.telemetry, fault_injector=self.faults,
        )
        self._stack = (octree, checker, recorder, planner, accel)
        return self._stack

    # -- the per-tick deliberation -------------------------------------

    def _with_retries(self, fn, budget: dict):
        """Run ``fn``, retrying transient engine faults with backoff.

        ``budget`` carries the tick's mutable ``retries``/``penalty_ms``
        counters.  Returns ``(value, True)`` on success or ``(None, False)``
        when the per-tick retry allowance is exhausted.
        """
        max_retries, backoff_ms = self._retry_policy()
        while True:
            try:
                return fn(), True
            except TransientEngineFault:
                if budget["retries"] >= max_retries:
                    return None, False
                budget["penalty_ms"] += backoff_ms * (2.0 ** budget["retries"])
                budget["retries"] += 1

    def _emit(self, tick: int, path, octree) -> None:
        if path:
            self._last_validated_path = list(path)
            if self.audit:
                self.audit_trail.append((tick, list(path), octree))

    def _record_resilience(self, report: TickReport) -> None:
        tel = self.telemetry
        if tel is None or not tel.enabled:
            return
        if report.deadline_miss:
            tel.counter("runtime.deadline_misses").inc()
        if report.retries:
            tel.counter("runtime.retries").inc(report.retries)
        if report.stale_octree:
            tel.counter("runtime.stale_ticks").inc()
        if report.degradation is not None:
            tel.counter(f"runtime.degradation.{report.degradation}").inc()

    def _deliberate_tick(
        self,
        tick: int,
        path: List[np.ndarray],
        q_start,
        q_goal,
        rng,
        update_ms: float,
        timer: Optional[TickTimer],
        stale: bool = False,
    ) -> Tuple[TickReport, List[np.ndarray]]:
        """Run one working tick's ladder; returns (report, emitted path).

        In non-resilient mode this follows the legacy flow exactly:
        revalidate (when a path exists), else replan, emit whatever the
        planner produced.  In resilient mode the flow adds retry-with-
        backoff around engine faults, a budget gate before the (expensive)
        replan rung, and the two fallback rungs below it.
        """
        octree, checker, recorder, planner, accel = self._stack
        deadline = self.deadline
        resilient = self._resilient()
        budget = {"retries": 0, "penalty_ms": 0.0}
        faults_before = self.faults.fault_count if self._faults_on() else 0
        miss = False
        planned = False
        result: Optional[PlanResult] = None
        level: Optional[DegradationLevel] = None
        new_path: List[np.ndarray] = []

        def over_budget(spent_ms: float) -> bool:
            if deadline is None:
                return False
            if deadline.sim_exceeded(spent_ms):
                return True
            return timer is not None and deadline.wall_exceeded(timer.elapsed_ms())

        # Rung 2 attempt: revalidate the current path against this octree.
        if path:
            if resilient:
                bad, ok = self._with_retries(
                    lambda: recorder.feasibility(path, label="revalidate"), budget
                )
            else:
                bad, ok = recorder.feasibility(path, label="revalidate"), True
            if ok and bad is None:
                # Path survived the update: the tick only paid revalidation.
                result = PlanResult(success=True, path=path)
                level = DegradationLevel.REVALIDATE_ONLY
                new_path = list(path)

        # Rung 1: full replan — unless the budget is already gone.
        if level is None:
            gated = False
            if resilient and deadline is not None:
                spent = update_ms + budget["penalty_ms"]
                if recorder.phases:
                    probe = accel.run_query(
                        PlanResult(success=False, path=[]), recorder.phases
                    )
                    spent += probe.total_ms
                gated = over_budget(spent)
                miss = miss or gated
            if not gated:
                planned = True
                if resilient:
                    result, ok = self._with_retries(
                        lambda: planner.plan(q_start, q_goal, rng), budget
                    )
                else:
                    result, ok = planner.plan(q_start, q_goal, rng), True
                if ok and result.success:
                    level = DegradationLevel.FULL_REPLAN
                    new_path = list(result.path)
                elif not resilient:
                    # Legacy behavior: a failed plan emits an empty path.
                    level = DegradationLevel.SAFE_STOP
                    new_path = []

        # Rung 3: restore the last known-good path if it still validates.
        if level is None and resilient:
            fallback = self._last_validated_path
            if fallback and not (
                len(fallback) == len(path)
                and all(np.array_equal(a, b) for a, b in zip(fallback, path))
            ):
                bad, ok = self._with_retries(
                    lambda: recorder.feasibility(fallback, label="reuse_last_valid"),
                    budget,
                )
                if ok and bad is None:
                    level = DegradationLevel.REUSE_LAST_VALID
                    new_path = list(fallback)

        # Rung 4: safe stop — emit nothing rather than an unvalidated path.
        if level is None:
            level = DegradationLevel.SAFE_STOP
            new_path = []

        if result is None:
            result = PlanResult(success=bool(new_path), path=new_path)
        timing = accel.run_query(result, recorder.phases)
        planning_ms = timing.total_ms + budget["penalty_ms"]
        miss = miss or over_budget(update_ms + planning_ms)

        plan_valid = bool(new_path)
        faults_now = self.faults.fault_count if self._faults_on() else 0
        tick_report = TickReport(
            tick=tick,
            replanned=planned,
            plan_valid=plan_valid,
            planning_ms=planning_ms,
            phases=len(recorder.phases),
            poses_checked=recorder.total_poses,
            octree_update_ms=update_ms,
            degradation=level.label,
            deadline_miss=miss,
            stale_octree=stale,
            faults=faults_now - faults_before,
            retries=budget["retries"],
        )
        self._emit(tick, new_path, octree)
        self._record_resilience(tick_report)
        return tick_report, new_path

    # -- the loop ------------------------------------------------------

    def run(
        self,
        q_start,
        q_goal,
        n_ticks: int,
        rng: np.random.Generator,
    ) -> RuntimeReport:
        """Plan once, then maintain the plan through ``n_ticks`` updates."""
        report = RuntimeReport()
        deadline = self.deadline
        self._last_validated_path = []
        self.audit_trail = []

        timer = TickTimer(self._clock) if deadline is not None else None
        with self._tick_scope(0):
            octree, *_ = self._build_stack(rng)
            update_ms = self._octree_update_ms(octree)
            tick_report, path = self._deliberate_tick(
                0, [], q_start, q_goal, rng, update_ms, timer
            )
        report.ticks.append(tick_report)

        for tick in range(1, n_ticks + 1):
            changed = self.scene_update(self.scene, tick, rng)
            dropout = False
            if changed and self._faults_on():
                dropout = self.faults.sensor_dropout(tick)
            if dropout and path:
                # The update was lost: the runtime observes nothing, keeps
                # its stale octree, and (having a validated path for that
                # octree) does no work — exactly a quiet tick, plus the
                # fault on the books.
                quiet = TickReport(
                    tick, False, bool(path), 0.0, 0, 0,
                    stale_octree=True, faults=1,
                )
                self._record_resilience(quiet)
                report.ticks.append(quiet)
                continue
            if not changed and path and not dropout:
                report.ticks.append(
                    TickReport(tick, False, bool(path), 0.0, 0, 0)
                )
                continue
            if deadline is not None:
                timer = TickTimer(self._clock)
            with self._tick_scope(tick):
                if dropout:
                    # No path to lean on and no update arrived: replan
                    # against the stale map (nothing new to ship, so no
                    # octree-update cost).  The cached stack's recorder
                    # still holds the previous tick's phases — clear it so
                    # this tick prices only its own work.
                    self._stack[2].clear()
                    tick_report, path = self._deliberate_tick(
                        tick, path, q_start, q_goal, rng, 0.0, timer, stale=True
                    )
                    tick_report.faults += 1  # the dropout itself
                else:
                    octree, *_ = self._build_stack(rng)
                    update_ms = self._octree_update_ms(octree)
                    tick_report, path = self._deliberate_tick(
                        tick, path, q_start, q_goal, rng, update_ms, timer
                    )
            report.ticks.append(tick_report)
        report.final_path = path
        return report
