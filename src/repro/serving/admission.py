"""Admission control, load shedding, fairness, and preemption pricing.

Under polite traffic the service's priority queue is enough; under
overload it is exactly wrong — every queued request eventually runs, long
after its deadline, wasting capacity on work nobody will use.  This module
gives :class:`~repro.serving.service.PlanningService` an explicit behavior
contract for the overload regime:

- :class:`RequestStatus` — the typed terminal states.  Overload decisions
  are *statuses*, not exceptions: a request that cannot be served is shed
  at admission with :attr:`RequestStatus.SHED` (and a named reason), never
  silently dropped or cancelled mid-flight.
- :func:`overload_level` — maps queue backlog onto the resilience
  degradation ladder (:class:`~repro.resilience.degradation.
  DegradationLevel`), so serving-side shedding escalates through the same
  rungs the realtime runtime walks: healthy → estimate-based deadline
  shedding → best-effort shedding → shed-everything.
- :class:`AdmissionController` — the arrival/admission gates.  Everything
  is a pure function of the simulated clock and the service's own history,
  so a fixed seed fixes the shed set exactly.
- :class:`DeficitRoundRobin` — per-client fair admission.  Each client
  owns a FIFO-stable priority queue; a round-robin pass over clients in
  first-seen order tops up per-client deficit counters by a fixed quantum
  and admits while the deficit covers the head request's ``size``.  A
  flooding client can only consume its round-robin share; quiet clients
  accumulate deficit and are never starved (property-tested).
- :func:`priced_energy_pj` — prices a request's consumed work through the
  MPAccel energy model so preemption decisions ("this request has burned
  its energy budget") use the same cost model as the paper's accelerator
  accounting.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.accel.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.collision.stats import CollisionStats
from repro.resilience.degradation import DegradationLevel

__all__ = [
    "RequestStatus",
    "SHED_REASONS",
    "overload_level",
    "AdmissionController",
    "DeficitRoundRobin",
    "priced_energy_pj",
]


class RequestStatus(Enum):
    """How a request reached its terminal state."""

    #: The planner ran to completion (its result may still be a failure to
    #: find a path — see ``PlanResponse.success``).
    COMPLETED = "completed"
    #: Cancelled mid-flight by the deadline policy
    #: (``cancel_on_deadline_miss``).
    CANCELLED = "cancelled"
    #: Refused at admission by an overload gate; the planner never ran.
    SHED = "shed"
    #: Evicted mid-flight after exceeding its priced energy budget.
    PREEMPTED = "preempted"
    #: Aborted after exhausting retries against injected engine faults.
    FAILED = "failed"

    @property
    def label(self) -> str:
        return self.value


#: Why a request was shed (``PlanResponse.shed_reason``).
SHED_REASONS = (
    "queue_full",          # backlog at or beyond max_queue_depth
    "infeasible_deadline", # provably or estimably cannot meet its deadline
    "expired_in_queue",    # deadline lapsed before the request was admitted
    "best_effort_overload",# non-zero priority refused at a degraded rung
)


def overload_level(
    depth: int, max_queue_depth: Optional[int]
) -> DegradationLevel:
    """The serving-side degradation rung implied by queue backlog.

    Thresholds are quarters of ``max_queue_depth``: the ladder starts
    stepping down once the queue passes 25% of its bound and reaches
    :attr:`DegradationLevel.SAFE_STOP` (shed everything) at the bound.
    With no bound configured the service is always considered healthy.
    """
    if max_queue_depth is None:
        return DegradationLevel.FULL_REPLAN
    if depth >= max_queue_depth:
        return DegradationLevel.SAFE_STOP
    if depth * 4 >= max_queue_depth * 3:
        return DegradationLevel.REUSE_LAST_VALID
    if depth * 4 >= max_queue_depth:
        return DegradationLevel.REVALIDATE_ONLY
    return DegradationLevel.FULL_REPLAN


@dataclass
class AdmissionDecision:
    """Outcome of one arrival/admission gate check."""

    admitted: bool
    reason: Optional[str] = None
    level: DegradationLevel = DegradationLevel.FULL_REPLAN


class AdmissionController:
    """The shedding gates, driven entirely by deterministic service state.

    ``floor_ms`` is the provable lower bound on any non-trivial request's
    service time (one dispatch overhead): a deadline below it cannot be met
    by construction.  The estimate-based gate uses the running mean of
    completed requests' service times — a pure function of the run so far,
    hence replayable.
    """

    def __init__(
        self,
        max_queue_depth: Optional[int],
        floor_ms: float,
        telemetry=None,
    ):
        self.max_queue_depth = max_queue_depth
        self.floor_ms = floor_ms
        self.telemetry = telemetry
        self._service_us_total = 0.0
        self._service_count = 0
        self.shed_counts: Dict[str, int] = {reason: 0 for reason in SHED_REASONS}
        self.level_history: List[DegradationLevel] = []

    # -- history ------------------------------------------------------

    def observe_completion(self, service_us: float) -> None:
        """Feed one completed request's service time into the estimator."""
        self._service_us_total += max(0.0, service_us)
        self._service_count += 1

    @property
    def estimated_service_ms(self) -> Optional[float]:
        """Running mean service time of completed requests (None early)."""
        if self._service_count == 0:
            return None
        return self._service_us_total / self._service_count / 1e3

    # -- gates --------------------------------------------------------

    def check_arrival(
        self,
        queue_depth: int,
        deadline_ms: Optional[float],
        priority: int,
    ) -> AdmissionDecision:
        """Gate a new arrival against backlog and deadline feasibility."""
        level = overload_level(queue_depth, self.max_queue_depth)
        self.level_history.append(level)
        if level >= DegradationLevel.SAFE_STOP:
            return self._shed("queue_full", level)
        if deadline_ms is not None:
            if deadline_ms <= self.floor_ms:
                # Provable: even an empty service needs one dispatch.
                return self._shed("infeasible_deadline", level)
            estimate = self.estimated_service_ms
            if (
                level >= DegradationLevel.REVALIDATE_ONLY
                and estimate is not None
                and estimate * (queue_depth + 1) > deadline_ms
            ):
                return self._shed("infeasible_deadline", level)
        if level >= DegradationLevel.REUSE_LAST_VALID and priority > 0:
            return self._shed("best_effort_overload", level)
        self._count("admission.admitted")
        return AdmissionDecision(admitted=True, level=level)

    def check_admission(
        self, waited_ms: float, deadline_ms: Optional[float]
    ) -> AdmissionDecision:
        """Gate queue → in-flight: shed requests that expired while queued."""
        if deadline_ms is not None and waited_ms + self.floor_ms > deadline_ms:
            return self._shed("expired_in_queue", DegradationLevel.FULL_REPLAN)
        return AdmissionDecision(admitted=True)

    # -- internals ----------------------------------------------------

    def _shed(self, reason: str, level: DegradationLevel) -> AdmissionDecision:
        self.shed_counts[reason] += 1
        self._count("admission.shed")
        self._count(f"shed.{reason}")
        return AdmissionDecision(admitted=False, reason=reason, level=level)

    def _count(self, name: str) -> None:
        if self.telemetry is not None:
            self.telemetry.counter(name).inc()


class DeficitRoundRobin:
    """Deficit-round-robin admission over client ids.

    Entries are ``(priority, arrival_us, seq, item)`` per client — the same
    explicit FIFO-stable ordering contract as the service's global queue —
    and clients are visited in first-seen order.  Each visit tops the
    client's deficit up by ``quantum``; its head request is released while
    the deficit covers the request's ``size``.  Deficits are bounded by the
    head size, so an idle client cannot bank unlimited credit and then
    monopolize a round, but a client whose head request is larger than one
    quantum still accumulates across rounds and is never starved.
    """

    def __init__(self, quantum: float = 1.0):
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.quantum = quantum
        self._queues: Dict[str, list] = {}
        self._order: List[str] = []
        self._deficit: Dict[str, float] = {}
        self._cursor = 0

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    @property
    def clients(self) -> List[str]:
        return list(self._order)

    def push(
        self,
        client_id: str,
        priority: int,
        arrival_us: float,
        seq: int,
        size: float,
        item,
    ) -> None:
        if client_id not in self._queues:
            self._queues[client_id] = []
            self._deficit[client_id] = 0.0
            self._order.append(client_id)
        heapq.heappush(
            self._queues[client_id],
            (priority, arrival_us, seq, max(size, 0.0), item),
        )

    def pop_round(self, limit: int) -> List[object]:
        """Release up to ``limit`` requests with one DRR pass.

        One pass visits each backlogged client once, starting at the
        rotating cursor so leftover capacity does not always favor the
        first-seen client.  Returns the released items in admission order.
        """
        released: List[object] = []
        if limit <= 0 or not self._order:
            return released
        n = len(self._order)
        visited = 0
        start = self._cursor
        while len(released) < limit and visited < n:
            client = self._order[(start + visited) % n]
            visited += 1
            queue = self._queues[client]
            if not queue:
                self._deficit[client] = 0.0
                continue
            self._deficit[client] += self.quantum
            while queue and len(released) < limit:
                priority, arrival_us, seq, size, item = queue[0]
                if self._deficit[client] < size:
                    break
                heapq.heappop(queue)
                self._deficit[client] -= size
                released.append(item)
            if not queue:
                self._deficit[client] = 0.0
            else:
                # Bound banked credit to the head request's cost.
                head_size = queue[0][3]
                self._deficit[client] = min(
                    self._deficit[client], head_size
                )
        self._cursor = (start + visited) % n if n else 0
        return released

    def drain_fifo(self) -> List[object]:
        """All remaining items in global (priority, arrival, seq) order."""
        merged = []
        for client in self._order:
            merged.extend(self._queues[client])
            self._queues[client] = []
            self._deficit[client] = 0.0
        merged.sort(key=lambda entry: entry[:3])
        return [entry[4] for entry in merged]


def priced_energy_pj(
    stats: CollisionStats, model: EnergyModel = DEFAULT_ENERGY_MODEL
) -> float:
    """Energy a request has consumed, priced through the MPAccel model.

    With full stats collection this is the activity-based cascade energy
    (multiplies, additions, SRAM reads, node visits — the paper's proxy);
    with stats collection off only pose counts survive, so each pose is
    priced at the model's OBB-generation cost as a stand-in floor.
    """
    energy = model.cascade_energy_pj(stats)
    if energy == 0.0 and stats.pose_checks:
        energy = stats.pose_checks * model.obb_generation_pj_per_link
    return energy
