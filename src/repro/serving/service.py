"""The multi-client planning service: admission, batching, deadlines.

:class:`PlanningService` accepts many concurrent plan requests and runs
them to completion on one deterministic *simulated clock* — no threads, no
wall-clock nondeterminism.  Planners are suspendable generators
(``plan_steps``, :mod:`repro.planning.queries`), so the service interleaves
requests at collision-query boundaries:

1. **Arrival.**  ``submit`` enqueues a request either immediately or at a
   future simulated time (``arrival_ms``), which is how seeded traffic
   traces (:mod:`repro.serving.traffic`) replay open-loop arrivals: the
   drain loop ingests each arrival when the clock reaches it, and fast-
   forwards the clock to the next arrival when the service is idle.
2. **Admission.**  Queued requests wait in a priority queue with an
   explicit, documented order — ``(priority, arrival_us, sequence)``, so
   equal-priority requests are admitted strictly FIFO by arrival and the
   tiebreak among simultaneous arrivals is submission order (pinned by
   ``tests/test_serving_overload.py``).  At most ``max_inflight`` run at
   once.  With ``admission_control`` on, the gates of
   :mod:`repro.serving.admission` may *shed* a request instead — at
   arrival (queue full, provably/estimably infeasible deadline,
   best-effort refusal under overload) or at dequeue (deadline expired
   while queued) — producing a typed ``status="shed"`` response with a
   named reason; the planner never runs.  With ``fairness`` on, admission
   runs deficit round-robin over ``client_id`` instead of the global
   queue, so a flooding client cannot starve the others.
3. **Rounds.**  Each round resumes every in-flight request's generator to
   its next CD phase (degenerate queries are answered inline per the
   recorder contract), then flushes the collected phases through the
   :class:`~repro.serving.batcher.CrossRequestBatcher` in windows of
   ``batch_window`` phases — one vectorized dispatch per window, coalescing
   work *across* requests.  Every request in a drain plans against the
   same octree: :meth:`PlanningService.update_environment` refuses unless
   the service is idle, so a flush never mixes environment epochs.  With
   ``ServiceConfig.fault_models`` set, each pending phase first draws one
   injected engine fault, in scheduling order; a faulted request sits out
   this round's flush and retries its phase in the next round, and fails
   (``status="failed"``, no path) once one phase has faulted more than
   ``max_fault_retries`` times.
4. **Deadlines and budgets.**  Every request carries a
   :class:`~repro.resilience.deadline.DeadlineBudget` (simulated
   milliseconds).  By default a miss is flagged on the response; with
   ``cancel_on_deadline_miss`` the request is cancelled at the next
   scheduling point after its budget lapses.  With
   ``preempt_energy_budget_pj`` set, a request whose consumed work —
   priced through the MPAccel energy model
   (:func:`repro.serving.admission.priced_energy_pj`) — exceeds the budget
   is preempted at the next scheduling point (``status="preempted"``).

**Determinism and per-request bit-identity.**  The round structure, the
admission order, the shed set, and the simulated cost model are all pure
functions of the submitted requests and the
:class:`~repro.config.ServiceConfig`; there is no hidden state.  Because
each planner is one generator driven by answers that are bit-identical to
a solo run (see :mod:`repro.serving.batcher`), every *surviving* request's
path, verdicts, and :class:`~repro.collision.stats.CollisionStats` are
independent of arrival interleaving, batch window size, and the other
requests in flight — pinned by ``tests/test_serving.py`` and
``tests/test_serving_overload.py``.  With every overload knob at its
default the service reproduces the pre-overload behavior bit-for-bit.

The simulated cost model (microseconds) makes batching visible in service
latency: a dispatch costs ``dispatch_overhead_us`` once, however many
phases it coalesces, plus per-pose costs (cheap for cache hits) — the
same overhead-amortization argument as the paper's SAS dispatch model.  A
faulted phase costs one more ``dispatch_overhead_us``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.collision.cache import CollisionCache
from repro.collision.checker import RobotEnvironmentChecker
from repro.collision.stats import CollisionStats
from repro.config import ReproConfig
from repro.env.diff import octree_delta_regions
from repro.env.octree import Octree
from repro.geometry.aabb import AABB
from repro.planning.recorder import CDTraceRecorder
from repro.resilience.deadline import DeadlineBudget
from repro.resilience.degradation import degradation_histogram
from repro.resilience.faults import FaultInjector, TransientEngineFault
from repro.robot.model import RobotModel
from repro.serving.admission import (
    AdmissionController,
    DeficitRoundRobin,
    priced_energy_pj,
)
from repro.serving.batcher import CrossRequestBatcher

__all__ = [
    "PlanRequest",
    "PlanResponse",
    "ServiceReport",
    "PlanningService",
]


@dataclass
class PlanRequest:
    """One client's planning query.

    ``planner`` names a built-in planner (``"rrt"``, ``"rrt_connect"``,
    ``"prm"``); ``planner_factory`` overrides it with any callable taking a
    recorder and returning an object with ``plan_steps(q_start, q_goal,
    rng)``.  ``seed`` feeds the request's private RNG; ``deadline_ms`` (in
    simulated milliseconds) defaults to the service's
    ``default_deadline_ms``.  Lower ``priority`` admits first.

    ``client_id`` groups requests for fairness accounting (deficit
    round-robin under ``ServiceConfig.fairness``); ``size`` is the
    request's fairness cost, in the same units as ``fairness_quantum``
    (heavy-tailed sizes come from the traffic model).
    """

    request_id: str
    q_start: object
    q_goal: object
    planner: str = "rrt_connect"
    planner_factory: Optional[object] = None
    seed: int = 0
    priority: int = 0
    deadline_ms: Optional[float] = None
    client_id: str = ""
    size: float = 1.0


@dataclass
class PlanResponse:
    """What the service returns for one request.

    ``status`` is the typed terminal state (the values of
    :class:`repro.serving.admission.RequestStatus`): ``"completed"``,
    ``"cancelled"`` (deadline policy), ``"shed"`` (refused at admission —
    ``shed_reason`` names the gate), ``"preempted"`` (energy budget), or
    ``"failed"`` (engine-fault retries exhausted).  Only ``"completed"``
    responses can carry a path.
    """

    request_id: str
    success: bool
    path: Optional[list]
    result: object
    stats: CollisionStats
    num_phases: int
    submitted_ms: float
    admitted_ms: float
    completed_ms: float
    deadline_ms: Optional[float]
    deadline_missed: bool
    cancelled: bool
    env_epoch: int
    status: str = "completed"
    shed_reason: Optional[str] = None
    client_id: str = ""

    @property
    def latency_ms(self) -> float:
        """Submission-to-terminal latency, clamped non-negative.

        Well-defined for every terminal status: a request shed at its own
        arrival instant has latency exactly 0.0, never a negative value
        from float round-off.
        """
        return max(0.0, self.completed_ms - self.submitted_ms)

    _KEYS = (
        "request_id",
        "success",
        "path",
        "result",
        "stats",
        "num_phases",
        "submitted_ms",
        "admitted_ms",
        "completed_ms",
        "deadline_ms",
        "deadline_missed",
        "cancelled",
        "env_epoch",
        "status",
        "shed_reason",
        "client_id",
    )

    def to_dict(self) -> dict:
        """JSON-native payload (nested inside a serialized report)."""
        if self.result is None:
            result: dict = {"kind": "none"}
        elif isinstance(self.result, list):
            result = {"kind": "path", "path": _path_to_lists(self.result)}
        else:
            result = {
                "kind": "plan_result",
                "success": bool(self.result.success),
                "path": _path_to_lists(self.result.path),
                "nn_inferences": int(self.result.nn_inferences),
                "encoder_inferences": int(self.result.encoder_inferences),
                "fallback_used": bool(self.result.fallback_used),
                "replans": int(self.result.replans),
            }
        return {
            "request_id": self.request_id,
            "success": self.success,
            "path": None if self.path is None else _path_to_lists(self.path),
            "result": result,
            "stats": self.stats.as_dict(),
            "num_phases": self.num_phases,
            "submitted_ms": self.submitted_ms,
            "admitted_ms": self.admitted_ms,
            "completed_ms": self.completed_ms,
            "deadline_ms": self.deadline_ms,
            "deadline_missed": self.deadline_missed,
            "cancelled": self.cancelled,
            "env_epoch": self.env_epoch,
            "status": self.status,
            "shed_reason": self.shed_reason,
            "client_id": self.client_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlanResponse":
        from repro.harness.reports import check_keys

        check_keys("PlanResponse", data, cls._KEYS)
        raw = data["result"]
        result: object
        if raw["kind"] == "none":
            result = None
        elif raw["kind"] == "path":
            result = _path_from_lists(raw["path"])
        elif raw["kind"] == "plan_result":
            from repro.planning.mpnet import PlanResult

            result = PlanResult(
                success=raw["success"],
                path=_path_from_lists(raw["path"]),
                nn_inferences=raw["nn_inferences"],
                encoder_inferences=raw["encoder_inferences"],
                fallback_used=raw["fallback_used"],
                replans=raw["replans"],
            )
        else:
            raise ValueError(f"unknown result kind {raw['kind']!r}")
        return cls(
            request_id=data["request_id"],
            success=data["success"],
            path=(
                None if data["path"] is None else _path_from_lists(data["path"])
            ),
            result=result,
            stats=CollisionStats.from_dict(data["stats"]),
            num_phases=data["num_phases"],
            submitted_ms=data["submitted_ms"],
            admitted_ms=data["admitted_ms"],
            completed_ms=data["completed_ms"],
            deadline_ms=data["deadline_ms"],
            deadline_missed=data["deadline_missed"],
            cancelled=data["cancelled"],
            env_epoch=data["env_epoch"],
            status=data["status"],
            shed_reason=data["shed_reason"],
            client_id=data["client_id"],
        )


def _path_to_lists(path) -> list:
    """Waypoints as nested float lists (exact: doubles survive JSON)."""
    return [np.asarray(q, dtype=float).tolist() for q in path]


def _path_from_lists(rows: list) -> list:
    return [np.asarray(q, dtype=float) for q in rows]


@dataclass
class ServiceReport:
    """Aggregate accounting for one :meth:`PlanningService.run` drain."""

    responses: Dict[str, PlanResponse]
    sim_ms: float
    rounds: int
    dispatches: int
    phases_answered: int
    poses_dispatched: int
    cache_counters: Optional[dict]
    #: Terminal-status tally over ``responses`` (completed/cancelled/...).
    status_counts: Dict[str, int] = field(default_factory=dict)
    #: Shed-reason tally (zero-filled when admission control is off).
    shed_counts: Dict[str, int] = field(default_factory=dict)
    #: Overload-level histogram over arrival-gate checks (admission only).
    overload_histogram: Dict[str, int] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.responses.values() if r.success)

    @property
    def shed(self) -> int:
        return sum(1 for r in self.responses.values() if r.status == "shed")

    @property
    def goodput(self) -> int:
        """Completed, successful responses that met their deadline."""
        return sum(
            1
            for r in self.responses.values()
            if r.status == "completed" and r.success and not r.deadline_missed
        )

    @property
    def requests_per_sim_s(self) -> float:
        """Terminal responses per simulated second (0.0 on a zero-time
        drain — e.g. every request shed at arrival — never a
        division-by-zero)."""
        if self.sim_ms <= 0:
            return 0.0
        return len(self.responses) / (self.sim_ms / 1e3)

    @property
    def goodput_per_sim_s(self) -> float:
        """Useful completions per simulated second (same zero-time guard)."""
        if self.sim_ms <= 0:
            return 0.0
        return self.goodput / (self.sim_ms / 1e3)

    _KEYS = (
        "responses",
        "sim_ms",
        "rounds",
        "dispatches",
        "phases_answered",
        "poses_dispatched",
        "cache_counters",
        "status_counts",
        "shed_counts",
        "overload_histogram",
    )

    def to_dict(self) -> dict:
        """Serialize under the common report protocol (kind
        ``"service_report"``; see :mod:`repro.harness.reports`)."""
        from repro.harness.reports import stamp_report

        return stamp_report(
            "service_report",
            {
                "responses": {
                    rid: response.to_dict()
                    for rid, response in sorted(self.responses.items())
                },
                "sim_ms": self.sim_ms,
                "rounds": self.rounds,
                "dispatches": self.dispatches,
                "phases_answered": self.phases_answered,
                "poses_dispatched": self.poses_dispatched,
                "cache_counters": self.cache_counters,
                "status_counts": dict(self.status_counts),
                "shed_counts": dict(self.shed_counts),
                "overload_histogram": dict(self.overload_histogram),
            },
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceReport":
        from repro.harness.reports import unpack_report

        body = unpack_report(data, "service_report", cls._KEYS)
        return cls(
            responses={
                rid: PlanResponse.from_dict(response)
                for rid, response in body["responses"].items()
            },
            sim_ms=body["sim_ms"],
            rounds=body["rounds"],
            dispatches=body["dispatches"],
            phases_answered=body["phases_answered"],
            poses_dispatched=body["poses_dispatched"],
            cache_counters=body["cache_counters"],
            status_counts=dict(body["status_counts"]),
            shed_counts=dict(body["shed_counts"]),
            overload_histogram=dict(body["overload_histogram"]),
        )


class _Task:
    """Internal per-request state (generator + recorder + clocks)."""

    __slots__ = (
        "request",
        "gen",
        "recorder",
        "deadline",
        "submitted_us",
        "admitted_us",
        "pending_value",
        "pending_item",
        "done",
        "result",
        "cancelled",
        "status",
        "env_epoch",
        "retries",
    )

    def __init__(self, request, gen, recorder, deadline, submitted_us, env_epoch):
        self.request = request
        self.gen = gen
        self.recorder = recorder
        self.deadline: Optional[DeadlineBudget] = deadline
        self.submitted_us = submitted_us
        self.admitted_us = submitted_us
        self.pending_value = None
        self.pending_item = None  # (query, phase) awaiting a batched answer
        self.done = False
        self.result = None
        self.cancelled = False
        self.status = "completed"
        self.env_epoch = env_epoch
        self.retries = 0  # injected faults drawn by the pending phase


class PlanningService:
    """Deterministic multi-client planning service over one environment.

    ``config`` is a :class:`~repro.config.ReproConfig` with the batch
    backend (:meth:`~repro.config.ReproConfig.for_service`); its
    ``service`` section sets the batch window, admission limits, the
    simulated cost model, and the overload policy (admission control,
    fairness, preemption).  ``config.cache`` controls the shared
    octree-versioned verdict cache.  Every phase of every request is
    answered by one shared :class:`~repro.serving.batcher.
    CrossRequestBatcher`.

    Fault injection is configured through the typed config:
    ``ServiceConfig(fault_models=..., fault_seed=...)`` builds the
    service-owned :class:`repro.resilience.faults.FaultInjector`, which
    draws one engine fault per pending phase each round; a phase is
    retried up to ``max_fault_retries`` times before the request fails
    with ``status="failed"`` (and no path).

    ``cache=`` injects an externally owned cache — the fleet's hook for
    mounting a :class:`~repro.collision.cache.TieredCollisionCache` per
    shard; by default the service builds its own from ``config.cache``.
    """

    def __init__(
        self,
        robot: RobotModel,
        octree: Octree,
        config: Optional[ReproConfig] = None,
        telemetry=None,
        cache=None,
    ):
        if config is None:
            config = ReproConfig.for_service()
        if config.backend != "batch":
            raise ValueError(
                "the planning service requires backend 'batch' "
                "(cross-request coalescing dispatches through the vectorized "
                "pipeline); use ReproConfig.for_service()"
            )
        self.robot = robot
        self.octree = octree
        self.config = config
        self.telemetry = telemetry
        self.fault_injector: Optional[FaultInjector] = None
        if config.service.fault_models is not None:
            self.fault_injector = FaultInjector(
                models=config.service.fault_models,
                seed=config.service.fault_seed,
                telemetry=telemetry,
            )
        self.env_epoch = 0
        self.clock_us = 0.0
        self.rounds = 0
        self._seq = 0
        self._queue: list = []  # (priority, arrival_us, seq, request)
        self._arrivals: list = []  # (arrival_us, seq, request) in the future
        self._inflight: List[_Task] = []
        self._responses: Dict[str, PlanResponse] = {}
        self._request_ids: set = set()

        service = config.service
        self.admission: Optional[AdmissionController] = None
        if service.admission_control:
            self.admission = AdmissionController(
                max_queue_depth=service.max_queue_depth,
                floor_ms=service.dispatch_overhead_us / 1e3,
                telemetry=telemetry,
            )
        self._drr: Optional[DeficitRoundRobin] = None
        if service.fairness:
            self._drr = DeficitRoundRobin(quantum=service.fairness_quantum)

        self.cache: Optional[CollisionCache] = None
        if cache is not None:
            if not config.cache.enabled:
                raise ValueError(
                    "cache= was injected but config.cache.enabled is False; "
                    "enable the cache section or drop the injection"
                )
            self.cache = cache
        elif config.cache.enabled:
            self.cache = CollisionCache(
                quantum=config.cache.quantum,
                max_entries=config.cache.max_entries,
                telemetry=telemetry,
            )

        self._build_batcher()

    # ------------------------------------------------------------------
    # Submission / environment
    # ------------------------------------------------------------------

    def submit(
        self, request: PlanRequest, arrival_ms: Optional[float] = None
    ) -> None:
        """Enqueue a request, now or at a future simulated time.

        With ``arrival_ms`` (simulated milliseconds, absolute) beyond the
        current clock the request is held until the drain loop's clock
        reaches it — the open-loop replay path for traffic traces; the
        admission gates run at that arrival instant, not at submission.
        """
        if request.request_id in self._request_ids:
            raise ValueError(f"duplicate request_id {request.request_id!r}")
        self._validate_planner(request)
        self._request_ids.add(request.request_id)
        arrival_us = (
            self.clock_us if arrival_ms is None else float(arrival_ms) * 1e3
        )
        if arrival_us > self.clock_us:
            heapq.heappush(
                self._arrivals, (arrival_us, self._next_seq(), request)
            )
        else:
            self._ingest(request, self.clock_us)

    def submit_many(
        self, requests: Sequence[Tuple[PlanRequest, Optional[float]]]
    ) -> None:
        """Submit ``(request, arrival_ms)`` pairs in order.

        The shape :func:`repro.serving.traffic.requests_from_trace` emits,
        and the shard-submission unit of the fleet protocol.
        """
        for request, arrival_ms in requests:
            self.submit(request, arrival_ms=arrival_ms)

    def _next_seq(self) -> int:
        """Monotone submission sequence (the FIFO tiebreak)."""
        seq = self._seq
        self._seq += 1
        return seq

    def _ingest(self, request: PlanRequest, arrival_us: float) -> None:
        """Run the arrival gate and enqueue (or shed) one request."""
        if self.admission is not None:
            decision = self.admission.check_arrival(
                queue_depth=self._queue_depth(),
                deadline_ms=self._effective_deadline_ms(request),
                priority=request.priority,
            )
            if not decision.admitted:
                self._shed(request, arrival_us, decision.reason)
                return
        seq = self._next_seq()
        if self._drr is not None:
            self._drr.push(
                request.client_id,
                request.priority,
                arrival_us,
                seq,
                request.size,
                (request, arrival_us),
            )
        else:
            # FIFO-stable ordering contract: among equal priorities,
            # strictly by arrival time, then by submission sequence.
            heapq.heappush(
                self._queue, (request.priority, arrival_us, seq, request)
            )

    def update_environment(self, octree: Octree) -> int:
        """Swap the environment octree between drains (service must be idle).

        Advances the environment epoch and selectively invalidates the
        shared cache from the changed-region boxes.  Returns the number of
        cache entries dropped.  Because the epoch can only change while
        nothing is queued, in flight, or due to arrive, every task in a
        drain plans against one octree and no flush mixes epochs.
        """
        regions = octree_delta_regions(self.octree, octree)
        return self.apply_environment_update(
            octree, regions, self.env_epoch + 1
        )

    def apply_environment_update(
        self, octree: Octree, regions: Sequence[AABB], epoch: int
    ) -> int:
        """The shard half of the fleet's epoch-consistent update broadcast.

        The caller (:meth:`update_environment` solo, or
        :class:`repro.serving.fleet.PlanningFleet` fanning one update out)
        computes the changed-region boxes once and names the target epoch
        explicitly; every shard applies the same ``(octree, regions,
        epoch)`` triple, so all local cache tiers and the fleet's global
        tier advance through identical epoch sequences.  The epoch must be
        exactly the successor of this service's current epoch — a skipped
        or repeated broadcast is a protocol bug, not something to paper
        over.  Returns the number of cache entries dropped.
        """
        if self._queue_depth() or self._inflight or self._arrivals:
            raise RuntimeError(
                "update_environment requires an idle service (drain with "
                "run() first)"
            )
        if epoch != self.env_epoch + 1:
            raise ValueError(
                f"non-consecutive environment epoch: service is at "
                f"{self.env_epoch}, broadcast names {epoch} (expected "
                f"{self.env_epoch + 1})"
            )
        self.octree = octree
        self.env_epoch = epoch
        dropped = 0
        if self.cache is not None:
            dropped = self.cache.invalidate_regions(regions)
        self._build_batcher()
        return dropped

    def _build_batcher(self) -> None:
        """The shared vectorized checker every phase is answered through."""
        shared = RobotEnvironmentChecker.from_config(
            self.robot, self.octree, self.config, cache=self.cache
        )
        self._shared_evaluator = shared.batch_evaluator
        self.batcher = CrossRequestBatcher(shared)

    def _effective_deadline_ms(self, request: PlanRequest) -> Optional[float]:
        if request.deadline_ms is not None:
            return request.deadline_ms
        return self.config.service.default_deadline_ms

    def _make_task(self, request: PlanRequest, arrival_us: float) -> _Task:
        checker = RobotEnvironmentChecker.from_config(
            self.robot, self.octree, self.config, cache=self.cache
        )
        # All requests share one vectorized pipeline (it is stateless apart
        # from precomputed octree arrays).
        checker._batch_evaluator = self._shared_evaluator
        recorder = CDTraceRecorder(checker)
        planner = self._make_planner(request, recorder)
        rng = np.random.default_rng(request.seed)
        gen = planner.plan_steps(request.q_start, request.q_goal, rng)
        deadline_ms = self._effective_deadline_ms(request)
        deadline = (
            DeadlineBudget(sim_ms=deadline_ms) if deadline_ms is not None else None
        )
        return _Task(request, gen, recorder, deadline, arrival_us, self.env_epoch)

    @staticmethod
    def _validate_planner(request: PlanRequest) -> None:
        """Check the planner name eagerly at submission (tasks build lazily).

        Names resolve through the one registry,
        :data:`repro.planning.PLANNER_FACTORIES` (imported lazily — the
        planning package is heavyweight and submit may never need it if a
        factory was passed).
        """
        if request.planner_factory is not None:
            return
        from repro.planning import PLANNER_FACTORIES

        if request.planner not in PLANNER_FACTORIES:
            raise ValueError(
                f"unknown planner {request.planner!r}; valid choices: "
                f"{sorted(PLANNER_FACTORIES)} (or pass planner_factory)"
            )

    @staticmethod
    def _make_planner(request: PlanRequest, recorder: CDTraceRecorder):
        if request.planner_factory is not None:
            return request.planner_factory(recorder)
        from repro.planning import PLANNER_FACTORIES

        factory = PLANNER_FACTORIES.get(request.planner)
        if factory is None:
            raise ValueError(
                f"unknown planner {request.planner!r}; valid choices: "
                f"{sorted(PLANNER_FACTORIES)} (or pass planner_factory)"
            )
        return factory(recorder)

    # ------------------------------------------------------------------
    # The drain loop
    # ------------------------------------------------------------------

    def run(self) -> ServiceReport:
        """Drain every submitted request; returns the aggregate report.

        Deterministic: same requests + config -> same responses, shed set,
        clock, and dispatch sequence.
        """
        start_dispatches = self.batcher.dispatches
        start_phases = self.batcher.phases_answered
        start_poses = self.batcher.poses_dispatched
        rounds = 0

        while self._queue_depth() or self._inflight or self._arrivals:
            self._ingest_due_arrivals()
            if not self._queue_depth() and not self._inflight:
                if not self._arrivals:
                    break
                # Idle: fast-forward the clock to the next arrival.
                self.clock_us = max(self.clock_us, self._arrivals[0][0])
                continue
            rounds += 1
            self._admit()
            if not self._inflight:
                continue
            self._round_batched()
        self.rounds += rounds

        status_counts: Dict[str, int] = {}
        for response in self._responses.values():
            status_counts[response.status] = (
                status_counts.get(response.status, 0) + 1
            )
        return ServiceReport(
            responses=dict(self._responses),
            sim_ms=self.clock_us / 1e3,
            rounds=rounds,
            dispatches=self.batcher.dispatches - start_dispatches,
            phases_answered=self.batcher.phases_answered - start_phases,
            poses_dispatched=self.batcher.poses_dispatched - start_poses,
            cache_counters=self.cache.counters() if self.cache else None,
            status_counts=status_counts,
            shed_counts=(
                dict(self.admission.shed_counts)
                if self.admission is not None
                else {}
            ),
            overload_histogram=(
                degradation_histogram(self.admission.level_history)
                if self.admission is not None
                else {}
            ),
        )

    def _queue_depth(self) -> int:
        return len(self._drr) if self._drr is not None else len(self._queue)

    def _ingest_due_arrivals(self) -> None:
        while self._arrivals and self._arrivals[0][0] <= self.clock_us:
            _, _, request = heapq.heappop(self._arrivals)
            self._ingest(request, self.clock_us)

    def _admit(self) -> None:
        limit = self.config.service.max_inflight
        if self._drr is not None:
            while self._queue_depth() and len(self._inflight) < limit:
                released = self._drr.pop_round(limit - len(self._inflight))
                for request, arrival_us in released:
                    self._start_or_shed(request, arrival_us)
            return
        while self._queue and len(self._inflight) < limit:
            _, arrival_us, _, request = heapq.heappop(self._queue)
            self._start_or_shed(request, arrival_us)

    def _start_or_shed(self, request: PlanRequest, arrival_us: float) -> None:
        """The dequeue gate: start a task, or shed if it expired in queue."""
        if self.admission is not None:
            decision = self.admission.check_admission(
                waited_ms=(self.clock_us - arrival_us) / 1e3,
                deadline_ms=self._effective_deadline_ms(request),
            )
            if not decision.admitted:
                self._shed(request, arrival_us, decision.reason)
                return
        task = self._make_task(request, arrival_us)
        task.admitted_us = self.clock_us
        self._inflight.append(task)

    def _round_batched(self) -> None:
        """One scheduling round: advance every task, flush phase windows.

        A task still holding a phase from a faulted round keeps it; every
        other task resumes to its next phase.  Injected engine faults are
        drawn per pending phase in scheduling order, and the tasks that
        draw none flush in windows of ``batch_window``.
        """
        service = self.config.service
        pending: List[_Task] = []
        for task in list(self._inflight):
            if self._cancel_if_expired(task):
                continue
            if self._preempt_if_over_budget(task):
                continue
            if task.pending_item is None:
                task.pending_item = self._advance(task)
                if task.done:
                    self._finish(task)
                    continue
            pending.append(task)

        injector = self.fault_injector
        if injector is not None and injector.enabled:
            pending = [task for task in pending if not self._faulted(task)]

        window = service.batch_window
        for at in range(0, len(pending), window):
            chunk = pending[at : at + window]
            items = [(task.recorder, task.pending_item[1]) for task in chunk]
            answers, report = self.batcher.flush(items)
            self.clock_us += (
                service.dispatch_overhead_us
                + service.batch_pose_cost_us * report.fresh_rows
                + service.cache_hit_cost_us * report.cached_rows
            )
            for task, answer in zip(chunk, answers):
                query, phase = task.pending_item
                task.pending_item = None
                task.retries = 0
                task.pending_value = task.recorder.commit(query, phase, answer)

    def _faulted(self, task: _Task) -> bool:
        """Draw the injected engine fault for a task's pending phase.

        A fault charges one ``dispatch_overhead_us`` and leaves the phase
        pending for the next round; past ``max_fault_retries`` faults on
        the same phase the request fails — no path is ever emitted from a
        faulted, unanswered phase.  (Timeouts subclass the transient
        fault.)
        """
        phase = task.pending_item[1]
        try:
            self.fault_injector.engine_phase(phase.label or phase.mode.value)
        except TransientEngineFault:
            service = self.config.service
            task.retries += 1
            self.clock_us += service.dispatch_overhead_us
            if task.retries > service.max_fault_retries:
                task.status = "failed"
                task.pending_item = None
                task.done = True
                task.gen.close()
                self._finish(task)
            return True
        return False

    def _advance(self, task: _Task):
        """Resume a task's generator to its next non-degenerate query.

        Returns ``(query, phase)`` or None when the task finished.
        Degenerate queries (no phase) are answered inline from the
        recorder's trivial-result contract — they cost no dispatch.
        """
        while True:
            try:
                query = task.gen.send(task.pending_value)
            except StopIteration as stop:
                task.result = stop.value
                task.done = True
                return None
            task.pending_value = None
            phase = task.recorder.prepare(query)
            if phase is None:
                task.pending_value = task.recorder.trivial_result(query)
                continue
            return query, phase

    def _cancel_if_expired(self, task: _Task) -> bool:
        """Cancel a task whose deadline lapsed (when the policy says so)."""
        if not self.config.service.cancel_on_deadline_miss:
            return False
        if task.deadline is None:
            return False
        elapsed_ms = (self.clock_us - task.submitted_us) / 1e3
        if not task.deadline.sim_exceeded(elapsed_ms):
            return False
        task.cancelled = True
        task.status = "cancelled"
        task.done = True
        task.gen.close()
        self._finish(task)
        return True

    def _preempt_if_over_budget(self, task: _Task) -> bool:
        """Preempt a task whose priced energy exceeds the configured budget.

        The budget is priced through the MPAccel energy model over the
        request's own collision stats, so "over budget" means the same
        thing here as in the paper's energy accounting.
        """
        budget = self.config.service.preempt_energy_budget_pj
        if budget is None:
            return False
        if priced_energy_pj(task.recorder.checker.stats) <= budget:
            return False
        task.status = "preempted"
        task.done = True
        task.gen.close()
        if self.telemetry is not None:
            self.telemetry.counter("service.preempted").inc()
        self._finish(task)
        return True

    def _shed(
        self, request: PlanRequest, arrival_us: float, reason: Optional[str]
    ) -> None:
        """Record a typed shed response (the planner never ran)."""
        deadline_ms = self._effective_deadline_ms(request)
        self._responses[request.request_id] = PlanResponse(
            request_id=request.request_id,
            success=False,
            path=None,
            result=None,
            stats=CollisionStats(),
            num_phases=0,
            submitted_ms=arrival_us / 1e3,
            admitted_ms=self.clock_us / 1e3,
            completed_ms=self.clock_us / 1e3,
            deadline_ms=deadline_ms,
            deadline_missed=reason in ("infeasible_deadline", "expired_in_queue"),
            cancelled=False,
            env_epoch=self.env_epoch,
            status="shed",
            shed_reason=reason,
            client_id=request.client_id,
        )

    def _finish(self, task: _Task) -> None:
        self._inflight.remove(task)
        result = task.result
        path: Optional[list] = None
        success = False
        if task.status == "completed":
            if isinstance(result, list):
                path = result
                success = True
            elif result is not None and hasattr(result, "success"):
                success = bool(result.success)
                path = list(result.path) if success else None
        deadline_ms = task.deadline.sim_ms if task.deadline is not None else None
        elapsed_ms = (self.clock_us - task.submitted_us) / 1e3
        missed = deadline_ms is not None and elapsed_ms > deadline_ms
        if self.admission is not None and task.status == "completed":
            self.admission.observe_completion(self.clock_us - task.admitted_us)
        self._responses[task.request.request_id] = PlanResponse(
            request_id=task.request.request_id,
            success=success,
            path=path,
            result=result,
            stats=task.recorder.checker.stats.copy(),
            num_phases=task.recorder.num_phases,
            submitted_ms=task.submitted_us / 1e3,
            admitted_ms=task.admitted_us / 1e3,
            completed_ms=self.clock_us / 1e3,
            deadline_ms=deadline_ms,
            deadline_missed=missed or task.cancelled,
            cancelled=task.cancelled,
            env_epoch=task.env_epoch,
            status=task.status,
            shed_reason=None,
            client_id=task.request.client_id,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_pending(self) -> int:
        return self._queue_depth() + len(self._inflight) + len(self._arrivals)

    def response(self, request_id: str) -> PlanResponse:
        return self._responses[request_id]
