"""Multi-client planning service with cross-request batching.

The serving layer runs many concurrent planning requests on one
deterministic simulated clock, coalescing their collision-detection phases
into shared vectorized dispatches and memoizing verdicts in an
octree-versioned cache — while keeping every request's answers, path, and
operation counts bit-identical to running it alone.

Overload is a first-class regime: seeded open-loop traffic models
(:mod:`repro.serving.traffic`) replay bursty arrivals bit-identically, and
the admission layer (:mod:`repro.serving.admission`) sheds infeasible work
with typed statuses, enforces per-client fairness via deficit round-robin,
and preempts requests that exceed their priced energy budget.

Scaling past the single event loop is the fleet layer
(:mod:`repro.serving.fleet`): N service shards behind a deterministic
router (:mod:`repro.serving.router`) and tiered local+global verdict
caches, drained one shard after another on per-shard simulated clocks.
"""

from repro.serving.admission import (
    AdmissionController,
    DeficitRoundRobin,
    RequestStatus,
    SHED_REASONS,
    overload_level,
    priced_energy_pj,
)
from repro.serving.batcher import CrossRequestBatcher, FlushReport
from repro.serving.fleet import FleetReport, PlanningFleet
from repro.serving.router import FleetRouter
from repro.serving.service import (
    PlanningService,
    PlanRequest,
    PlanResponse,
    ServiceReport,
)
from repro.serving.traffic import (
    TrafficEvent,
    TrafficSpec,
    TrafficTrace,
    requests_from_trace,
)

__all__ = [
    "AdmissionController",
    "CrossRequestBatcher",
    "DeficitRoundRobin",
    "FleetReport",
    "FleetRouter",
    "FlushReport",
    "PlanningFleet",
    "PlanningService",
    "PlanRequest",
    "PlanResponse",
    "RequestStatus",
    "SHED_REASONS",
    "ServiceReport",
    "TrafficEvent",
    "TrafficSpec",
    "TrafficTrace",
    "overload_level",
    "priced_energy_pj",
    "requests_from_trace",
]
