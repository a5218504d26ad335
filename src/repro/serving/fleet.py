"""The sharded planning fleet: N services behind one deterministic router.

:class:`PlanningFleet` scales :class:`~repro.serving.service.
PlanningService` past the single-event-loop ceiling by running N shards —
each a complete service with its own simulated clock, queues, and local
cache tier — behind a :class:`~repro.serving.router.FleetRouter` that
assigns every request to exactly one shard as a pure function of the
request and the router seed.

**Topology.**  ::

    submit ──► FleetRouter ──► shard 0: PlanningService ── local tier ─┐
                          ├──► shard 1: PlanningService ── local tier ─┼─► global
                          └──► shard k: PlanningService ── local tier ─┘   tier

**Determinism contract (non-negotiable).**  Simulated time is
authoritative and per-shard: shard clocks model independent replicas, and
nothing observable depends on *wall-clock* interleaving.  Concretely:

- Every surviving request's path, verdicts, and
  :class:`~repro.collision.stats.CollisionStats` are bit-identical to a
  solo sequential run of that request — inherited from the service's
  per-request contract, and unchanged by sharding because a request's
  whole lifetime lives on one shard.
- A fixed ``(seed, config)`` fixes each shard's entire drain — responses,
  shed set, clock — because the router assignment is deterministic and
  each shard is the already-deterministic PR 5/9 service.
- Shards drain one after another, in shard-index order, and their
  results merge in that order.

**Cache tiers.**  Each shard mounts a :class:`~repro.collision.cache.
TieredCollisionCache`: reads go local-then-global, writes land locally and
are logged.  The global tier is *frozen during a drain*: shards model
parallel replicas on the simulated clock, so one shard must not see
another's writes from the same drain — otherwise its cache hits, simulated
clock and sheds would depend on shard order.  At the drain boundary the
fleet merges every shard's fresh entries into the global tier in
shard-index order (:meth:`~repro.collision.cache.CollisionCache.adopt`,
first writer wins).

**Epoch-consistent invalidation broadcast.**  :meth:`PlanningFleet.
update_environment` requires the whole fleet idle, computes the
changed-region boxes once (:func:`repro.env.diff.octree_delta_regions`),
invalidates the global tier once, and fans the same ``(octree, regions,
epoch)`` triple to every shard via :meth:`~repro.serving.service.
PlanningService.apply_environment_update` — so every tier on every shard
observes the update at the same epoch boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.collision.cache import CollisionCache, TieredCollisionCache
from repro.config import ReproConfig
from repro.env.diff import octree_delta_regions
from repro.env.octree import Octree
from repro.robot.model import RobotModel
from repro.serving.router import FleetRouter
from repro.serving.service import (
    PlanRequest,
    PlanResponse,
    PlanningService,
    ServiceReport,
)

__all__ = ["PlanningFleet", "FleetReport"]


# ----------------------------------------------------------------------
# The fleet report
# ----------------------------------------------------------------------


@dataclass
class FleetReport:
    """Deterministic merge of one drain's per-shard reports.

    ``responses`` is the shard reports' union (request ids are unique
    fleet-wide), merged in shard-index order.  ``sim_ms`` is the *maximum*
    shard clock — shards are parallel replicas, so the fleet's simulated
    drain time is the slowest shard, which is exactly why goodput scales
    with shard count at fixed offered load.  Count fields are sums;
    ``shard_sim_ms`` and ``shard_summaries`` keep the per-shard breakdown.
    """

    responses: Dict[str, PlanResponse]
    sim_ms: float
    rounds: int
    dispatches: int
    phases_answered: int
    poses_dispatched: int
    cache_counters: Optional[dict]
    status_counts: Dict[str, int] = field(default_factory=dict)
    shed_counts: Dict[str, int] = field(default_factory=dict)
    overload_histogram: Dict[str, int] = field(default_factory=dict)
    n_shards: int = 1
    shard_sim_ms: List[float] = field(default_factory=list)
    shard_summaries: List[dict] = field(default_factory=list)

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
        if self.sim_ms <= 0:
            return 0.0
        return len(self.responses) / (self.sim_ms / 1e3)

    @property
    def goodput_per_sim_s(self) -> float:
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
        "n_shards",
        "shard_sim_ms",
        "shard_summaries",
    )

    def to_dict(self) -> dict:
        """Serialize under the common report protocol (kind
        ``"fleet_report"``; see :mod:`repro.harness.reports`)."""
        from repro.harness.reports import stamp_report

        return stamp_report(
            "fleet_report",
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
                "n_shards": self.n_shards,
                "shard_sim_ms": list(self.shard_sim_ms),
                "shard_summaries": [dict(s) for s in self.shard_summaries],
            },
        )

    @classmethod
    def from_dict(cls, data: dict) -> "FleetReport":
        from repro.harness.reports import unpack_report

        body = unpack_report(data, "fleet_report", cls._KEYS)
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
            n_shards=body["n_shards"],
            shard_sim_ms=list(body["shard_sim_ms"]),
            shard_summaries=[dict(s) for s in body["shard_summaries"]],
        )


def _merge_counter_dicts(dicts: Sequence[Dict[str, int]]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for d in dicts:
        for key, value in d.items():
            out[key] = out.get(key, 0) + value
    return out


# ----------------------------------------------------------------------
# The fleet
# ----------------------------------------------------------------------


class PlanningFleet:
    """N planning-service shards behind one deterministic router.

    ``config.fleet`` selects the shard count, router policy/seed, and
    whether the fleet mounts a shared global cache tier.  :meth:`run`
    drains the shards one after another in index order.  Every shard
    is a full :class:`~repro.serving.service.PlanningService` built from
    the same config; ``make_service`` is literally the 1-shard special
    case (see :func:`repro.api.make_fleet`).
    """

    def __init__(
        self,
        robot: RobotModel,
        octree: Octree,
        config: Optional[ReproConfig] = None,
        telemetry=None,
    ):
        if config is None:
            config = ReproConfig.for_fleet()
        self.robot = robot
        self.octree = octree
        self.config = config
        self.telemetry = telemetry
        self.env_epoch = 0
        self.router = FleetRouter(config.fleet)
        self.n_shards = config.fleet.n_shards

        self.global_cache: Optional[CollisionCache] = None
        if config.cache.enabled and config.fleet.global_cache:
            self.global_cache = CollisionCache(
                quantum=config.cache.quantum,
                max_entries=config.cache.max_entries,
                telemetry=telemetry,
            )

        self.shards: List[PlanningService] = []
        self.caches: List[Optional[TieredCollisionCache]] = []
        for _ in range(self.n_shards):
            cache = None
            if config.cache.enabled:
                local = CollisionCache(
                    quantum=config.cache.quantum,
                    max_entries=config.cache.max_entries,
                    telemetry=telemetry,
                )
                cache = TieredCollisionCache(local, self.global_cache)
            self.shards.append(
                PlanningService(
                    robot,
                    octree,
                    config=config,
                    telemetry=telemetry,
                    cache=cache,
                )
            )
            self.caches.append(cache)
        self._request_ids: set = set()
        self._assignments: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Submission / environment
    # ------------------------------------------------------------------

    def submit(
        self, request: PlanRequest, arrival_ms: Optional[float] = None
    ) -> int:
        """Route one request to its shard; returns the shard index."""
        if request.request_id in self._request_ids:
            raise ValueError(f"duplicate request_id {request.request_id!r}")
        shard = self.router.assign(request)
        self.shards[shard].submit(request, arrival_ms=arrival_ms)
        self._request_ids.add(request.request_id)
        self._assignments[request.request_id] = shard
        return shard

    def submit_many(
        self, requests: Sequence[Tuple[PlanRequest, Optional[float]]]
    ) -> List[int]:
        """Route ``(request, arrival_ms)`` pairs in order."""
        return [
            self.submit(request, arrival_ms=arrival_ms)
            for request, arrival_ms in requests
        ]

    def update_environment(self, octree: Octree) -> int:
        """Epoch-consistent invalidation broadcast (whole fleet idle).

        Computes the changed-region boxes once, invalidates the global
        tier once, and applies the same ``(octree, regions, epoch)``
        triple to every shard — all tiers land on the same epoch.  Raises
        without touching *any* shard if one of them still has queued or
        in-flight work (no partial broadcasts).  Returns the total number
        of cache entries dropped across every tier.
        """
        busy = [i for i, shard in enumerate(self.shards) if shard.num_pending]
        if busy:
            raise RuntimeError(
                "update_environment requires an idle fleet; shards "
                f"{busy} still have pending work (drain with run() first)"
            )
        regions = octree_delta_regions(self.octree, octree)
        epoch = self.env_epoch + 1
        dropped = 0
        if self.global_cache is not None:
            dropped += self.global_cache.invalidate_regions(regions)
        for shard in self.shards:
            dropped += shard.apply_environment_update(octree, regions, epoch)
        self.octree = octree
        self.env_epoch = epoch
        return dropped

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------

    def run(self) -> FleetReport:
        """Drain every shard and merge their reports deterministically."""
        reports = [shard.run() for shard in self.shards]
        fresh = [
            cache.export_fresh() for cache in self.caches if cache is not None
        ]
        # Drain-boundary global-tier sync, in shard-index order (first
        # writer wins) — the global tier was frozen during the drain.
        if self.global_cache is not None:
            for entries in fresh:
                self.global_cache.adopt(entries)
        return self._merge_reports(reports)

    def _merge_reports(self, reports: List[ServiceReport]) -> FleetReport:
        responses: Dict[str, PlanResponse] = {}
        for report in reports:
            responses.update(report.responses)
        cache_counters: Optional[dict] = None
        shard_counters = [
            r.cache_counters for r in reports if r.cache_counters is not None
        ]
        if shard_counters:
            cache_counters = _merge_counter_dicts(
                [
                    {k: v for k, v in c.items() if k != "epoch"}
                    for c in shard_counters
                ]
            )
            cache_counters["epoch"] = shard_counters[0]["epoch"]
            if self.global_cache is not None:
                # Only structural facts: probe counts for the global tier
                # already live in the shards' hits_global.
                cache_counters["global"] = {
                    "entries": len(self.global_cache),
                    "epoch": self.global_cache.epoch,
                }
        return FleetReport(
            responses=responses,
            sim_ms=max((r.sim_ms for r in reports), default=0.0),
            rounds=sum(r.rounds for r in reports),
            dispatches=sum(r.dispatches for r in reports),
            phases_answered=sum(r.phases_answered for r in reports),
            poses_dispatched=sum(r.poses_dispatched for r in reports),
            cache_counters=cache_counters,
            status_counts=_merge_counter_dicts(
                [r.status_counts for r in reports]
            ),
            shed_counts=_merge_counter_dicts([r.shed_counts for r in reports]),
            overload_histogram=_merge_counter_dicts(
                [r.overload_histogram for r in reports]
            ),
            n_shards=self.n_shards,
            shard_sim_ms=[r.sim_ms for r in reports],
            shard_summaries=[
                {
                    "shard": index,
                    "responses": len(report.responses),
                    "completed": report.completed,
                    "shed": report.shed,
                    "goodput": report.goodput,
                    "sim_ms": report.sim_ms,
                    "rounds": report.rounds,
                }
                for index, report in enumerate(reports)
            ],
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_pending(self) -> int:
        return sum(shard.num_pending for shard in self.shards)

    def shard_of(self, request_id: str) -> int:
        """Which shard a submitted request was routed to."""
        return self._assignments[request_id]

    def response(self, request_id: str) -> PlanResponse:
        return self.shards[self._assignments[request_id]].response(request_id)
