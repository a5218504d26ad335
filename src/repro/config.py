"""Typed configuration objects: the one coherent way to wire the stack.

Before this module the public surface had accreted three uncoordinated
string-kwarg vocabularies — ``backend=`` on the collision checker,
``engine=`` on the runtime and :func:`repro.planning.engine.make_engine`,
and the loose fault/deadline kwargs on :class:`repro.accel.runtime.
RobotRuntime`.  Each validated its own strings, none composed, and a new
layer (the multi-client planning service) would have added a fourth.

This module replaces them with frozen dataclasses:

- :class:`EngineConfig` — which query engine answers planner CD phases and
  whether the batched one runs the swept-motion prefilter;
- :class:`ResilienceConfig` — the per-tick deadline budget, retry policy,
  and audit flag (:mod:`repro.resilience`);
- :class:`CacheConfig` — the octree-versioned collision cache
  (:mod:`repro.collision.cache`);
- :class:`ServiceConfig` — the multi-client planning service
  (:mod:`repro.serving`): admission, batching window, the simulated
  cost model, and the in-config fault-injection regime;
- :class:`FleetConfig` — the sharded planning fleet
  (:mod:`repro.serving.fleet`): shard count, routing policy, and the
  global cache tier;
- :class:`ReproConfig` — the top-level bundle the :mod:`repro.api` facade
  consumes.

Every config is immutable, validates its fields on construction with
error messages that list the valid choices, and round-trips through
``to_dict``/``from_dict`` (and JSON via
:func:`repro.harness.serialization.save_config`).  ``from_dict`` rejects
unknown keys by name, so a typo in a saved config — or a key a later
version removed — fails loudly.

The typed configs are the only way to select an engine
(:func:`repro.planning.engine.make_engine` takes an :class:`EngineConfig`)
or to wire :class:`repro.accel.runtime.RobotRuntime` (``repro=``).  The
checker's ``backend=`` keyword is an ordinary validated argument beside
``motion_step`` and ``collect_stats``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Tuple, Type, TypeVar

from repro.resilience.faults import FaultModels

__all__ = [
    "BACKENDS",
    "ENGINE_KINDS",
    "PLANNERS",
    "ROUTER_POLICIES",
    "EngineConfig",
    "ResilienceConfig",
    "CacheConfig",
    "ServiceConfig",
    "FleetConfig",
    "ReproConfig",
    "config_from_dict",
    "config_to_dict",
]

#: Collision-checker backends (see :class:`repro.collision.checker`).
BACKENDS = ("scalar", "batch")
#: Query-engine kinds (see :mod:`repro.planning.engine`).
ENGINE_KINDS = ("sequential", "batch")
#: Planner kinds the facade and the serving layer can instantiate.
PLANNERS = ("rrt", "rrt_connect", "prm", "mpnet")
#: Fleet request-routing policies (see :class:`repro.serving.router.FleetRouter`).
ROUTER_POLICIES = ("hash", "round_robin", "client", "region")


def _check_choice(name: str, value: str, choices: Tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(
            f"unknown {name} {value!r}; valid choices: {list(choices)}"
        )


def _check_positive(name: str, value, allow_none: bool = False) -> None:
    if value is None:
        if allow_none:
            return
        raise ValueError(f"{name} must not be None")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _check_non_negative(name: str, value) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


_C = TypeVar("_C")


def config_to_dict(config) -> dict:
    """Serialize any config dataclass (nested configs become nested dicts)."""
    out = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        out[f.name] = config_to_dict(value) if dataclasses.is_dataclass(value) else value
    return out


def config_from_dict(cls: Type[_C], data: dict) -> _C:
    """Build a config dataclass from a dict, rejecting unknown keys.

    Nested config fields accept nested dicts.  The error message for an
    unknown key lists every valid key (mirroring the name-validation
    pattern of the string-kwarg era, but for whole config objects).
    """
    if not isinstance(data, dict):
        raise TypeError(f"{cls.__name__} expects a dict, got {type(data).__name__}")
    fields_by_name = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields_by_name))
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} key(s) {unknown}; "
            f"valid keys: {sorted(fields_by_name)}"
        )
    kwargs = {}
    for name, value in data.items():
        f = fields_by_name[name]
        nested = _NESTED_FIELDS.get((cls.__name__, name))
        if nested is not None and isinstance(value, dict):
            value = config_from_dict(nested, value)
        kwargs[name] = value
    return cls(**kwargs)


@dataclass(frozen=True)
class EngineConfig:
    """Which :class:`~repro.planning.engine.QueryEngine` answers CD phases.

    ``prefilter`` enables the batched engine's conservative swept-motion
    prefilter (:class:`~repro.planning.swept.SweptMotionPrefilter`); the
    sequential engine has none, so asking it for one is rejected.
    """

    kind: str = "sequential"
    prefilter: bool = False

    def __post_init__(self):
        _check_choice("engine kind", self.kind, ENGINE_KINDS)
        if self.prefilter and self.kind != "batch":
            raise ValueError(
                f"prefilter=True needs engine kind 'batch', got {self.kind!r} "
                "(only the batched engine runs the swept-motion prefilter)"
            )

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        return config_from_dict(cls, data)


@dataclass(frozen=True)
class ResilienceConfig:
    """Deadline budget + retry policy + audit flag for the realtime loop.

    ``sim_ms``/``wall_ms`` of ``None`` disable that clock; with both
    disabled no :class:`~repro.resilience.deadline.DeadlineBudget` is built
    and the runtime follows the legacy (non-resilient) flow exactly.
    """

    sim_ms: Optional[float] = None
    wall_ms: Optional[float] = None
    max_retries: int = 2
    backoff_ms: float = 0.05
    audit: bool = False

    def __post_init__(self):
        if self.sim_ms is not None:
            _check_positive("sim_ms", self.sim_ms)
        if self.wall_ms is not None:
            _check_positive("wall_ms", self.wall_ms)
        _check_non_negative("max_retries", self.max_retries)
        _check_non_negative("backoff_ms", self.backoff_ms)

    @property
    def has_deadline(self) -> bool:
        return self.sim_ms is not None or self.wall_ms is not None

    def make_deadline(self):
        """The equivalent :class:`DeadlineBudget`, or None when disabled."""
        if not self.has_deadline:
            return None
        from repro.resilience.deadline import DeadlineBudget

        return DeadlineBudget(
            sim_ms=self.sim_ms,
            wall_ms=self.wall_ms,
            max_retries=self.max_retries,
            backoff_ms=self.backoff_ms,
        )

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ResilienceConfig":
        return config_from_dict(cls, data)


@dataclass(frozen=True)
class CacheConfig:
    """The octree-versioned collision cache (:mod:`repro.collision.cache`).

    ``quantum`` is the pose-quantization step of the cache key: poses are
    snapped to a grid of this pitch (radians) before hashing, so two poses
    closer than half a quantum share a verdict.  The default is far below
    any workload's pose spacing, which makes the key effectively exact
    (pinned by the differential tests); raise it to trade fidelity for hit
    rate.  ``max_entries`` bounds memory with deterministic FIFO eviction.
    """

    enabled: bool = False
    quantum: float = 1e-9
    max_entries: int = 1_000_000

    def __post_init__(self):
        _check_positive("quantum", self.quantum)
        _check_positive("max_entries", self.max_entries)

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CacheConfig":
        return config_from_dict(cls, data)


@dataclass(frozen=True)
class ServiceConfig:
    """The multi-client planning service (:mod:`repro.serving`).

    Each scheduling round coalesces CD phases from up to ``batch_window``
    in-flight requests into single vectorized dispatches (inter-query
    MCSP); ``max_inflight`` bounds how many requests are in flight at once
    (``max_inflight=1`` serves them one after another).

    The ``*_us`` fields are the simulated cost model the service clock
    charges per round: a fixed ``dispatch_overhead_us`` per dispatch (and
    per faulted phase), plus ``batch_pose_cost_us`` per pose evaluated
    inside a coalesced vectorized dispatch and ``cache_hit_cost_us`` per
    verdict served from the collision cache.

    The overload fields (all off by default — the defaults reproduce the
    pre-overload service bit-for-bit) gate :mod:`repro.serving.admission`:
    ``admission_control`` turns on the shedding gates, with
    ``max_queue_depth`` bounding the backlog and driving the
    queue-depth → :class:`~repro.resilience.degradation.DegradationLevel`
    ladder; ``fairness`` admits via deficit round-robin over
    ``PlanRequest.client_id`` with per-visit credit ``fairness_quantum``
    (in units of ``PlanRequest.size``); ``preempt_energy_budget_pj``
    evicts an in-flight request once its consumed work, priced through the
    MPAccel energy model, exceeds the budget; ``max_fault_retries`` bounds
    per-phase retries against injected engine faults before the request
    fails (the count restarts whenever a phase is answered).

    ``fault_models`` (a :class:`repro.resilience.faults.FaultModels`) plus
    ``fault_seed`` describe the chaos regime in-config: when
    ``fault_models`` is set the service builds its own seeded
    :class:`~repro.resilience.faults.FaultInjector` at construction
    (exposed as ``service.fault_injector`` for event inspection), and each
    round draws one engine fault per pending phase.  Only the engine rates
    can fire in the service: it has no SAS lanes and no sensor, and its
    vectorized flush never reaches the scalar bit-flip hook, so a nonzero
    ``bit_flip_rate``, ``lane_drop_rate``, ``lane_stall_rate`` or
    ``sensor_dropout_rate`` is rejected here rather than left silently
    inert.  For the same reason a non-default ``fault_seed`` or
    ``max_fault_retries`` without ``fault_models`` is rejected: with no
    injector, nothing reads them.
    """

    batch_window: int = 8
    max_inflight: int = 8
    default_deadline_ms: Optional[float] = None
    cancel_on_deadline_miss: bool = False
    dispatch_overhead_us: float = 25.0
    batch_pose_cost_us: float = 0.05
    cache_hit_cost_us: float = 0.01
    admission_control: bool = False
    max_queue_depth: Optional[int] = None
    fairness: bool = False
    fairness_quantum: float = 1.0
    preempt_energy_budget_pj: Optional[float] = None
    max_fault_retries: int = 2
    fault_seed: int = 0
    fault_models: Optional[FaultModels] = None

    def __post_init__(self):
        _check_positive("batch_window", self.batch_window)
        _check_positive("max_inflight", self.max_inflight)
        if self.default_deadline_ms is not None:
            _check_positive("default_deadline_ms", self.default_deadline_ms)
        _check_non_negative("dispatch_overhead_us", self.dispatch_overhead_us)
        _check_non_negative("batch_pose_cost_us", self.batch_pose_cost_us)
        _check_non_negative("cache_hit_cost_us", self.cache_hit_cost_us)
        if self.max_queue_depth is not None:
            _check_positive("max_queue_depth", self.max_queue_depth)
        _check_positive("fairness_quantum", self.fairness_quantum)
        if self.preempt_energy_budget_pj is not None:
            _check_positive(
                "preempt_energy_budget_pj", self.preempt_energy_budget_pj
            )
        _check_non_negative("max_fault_retries", self.max_fault_retries)
        if self.fault_models is None:
            fields = self.__dataclass_fields__
            inert = [
                name
                for name in ("max_fault_retries", "fault_seed")
                if getattr(self, name) != fields[name].default
            ]
            if inert:
                raise ValueError(
                    f"field(s) {inert} only matter with fault_models set "
                    "(no fault injector is built without it); set "
                    "fault_models or leave them at their defaults"
                )
            return
        if not isinstance(self.fault_models, FaultModels):
            raise TypeError(
                "fault_models must be a repro.resilience.faults.FaultModels "
                f"(or None), got {type(self.fault_models).__name__}"
            )
        inert = [
            name
            for name in (
                "bit_flip_rate",
                "lane_drop_rate",
                "lane_stall_rate",
                "sensor_dropout_rate",
            )
            if getattr(self.fault_models, name) > 0.0
        ]
        if inert:
            raise ValueError(
                f"fault model(s) {inert} can never fire in the planning "
                "service (it has no SAS lanes or sensor, and its vectorized "
                "flush never reaches the bit-flip hook); the service serves "
                "engine_exception_rate and engine_timeout_rate only"
            )

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceConfig":
        return config_from_dict(cls, data)


@dataclass(frozen=True)
class FleetConfig:
    """The sharded planning fleet (:mod:`repro.serving.fleet`).

    ``n_shards`` is the number of :class:`~repro.serving.PlanningService`
    shards behind the :class:`~repro.serving.fleet.PlanningFleet` facade;
    ``router`` picks the deterministic request-to-shard assignment policy
    (:class:`~repro.serving.router.FleetRouter`): ``"hash"`` — seeded hash
    of the request id; ``"round_robin"`` — global submission order;
    ``"client"`` — seeded hash of ``PlanRequest.client_id`` (all of one
    robot's/client's requests land on one shard, preserving per-client
    FIFO); ``"region"`` — seeded hash of the request's start configuration
    quantized to ``region_quantum`` (spatial locality).  ``router_seed``
    keys the hashes.  ``global_cache`` enables the fleet-wide global
    verdict-cache tier that shards sync into at drain boundaries (requires
    ``CacheConfig.enabled``).
    """

    n_shards: int = 1
    router: str = "hash"
    router_seed: int = 0
    region_quantum: float = 1.0
    global_cache: bool = True

    def __post_init__(self):
        _check_positive("n_shards", self.n_shards)
        _check_choice("router policy", self.router, ROUTER_POLICIES)
        _check_positive("region_quantum", self.region_quantum)

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FleetConfig":
        return config_from_dict(cls, data)


@dataclass(frozen=True)
class ReproConfig:
    """Top-level configuration bundle for the :mod:`repro.api` facade.

    One object wires the whole stack: collision backend, planner kind,
    query engine, resilience policy, collision cache, and serving layer.
    Cross-field constraints are validated here (e.g. the batched engine
    needs the batch collision backend to dispatch to).
    """

    backend: str = "scalar"
    planner: str = "rrt_connect"
    motion_step: float = 0.05
    octree_resolution: int = 16
    collect_stats: bool = True
    engine: EngineConfig = field(default_factory=EngineConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    service: ServiceConfig = field(default_factory=ServiceConfig)
    fleet: FleetConfig = field(default_factory=FleetConfig)

    def __post_init__(self):
        _check_choice("backend", self.backend, BACKENDS)
        _check_choice("planner", self.planner, PLANNERS)
        _check_positive("motion_step", self.motion_step)
        _check_positive("octree_resolution", self.octree_resolution)
        if self.engine.kind == "batch" and self.backend != "batch":
            raise ValueError(
                "engine kind 'batch' requires backend 'batch' "
                "(the scalar checker has no vectorized pipeline to dispatch to)"
            )
        # (the planning service additionally requires backend "batch";
        # PlanningService enforces that at construction, where the service
        # section actually binds — the default bundle stays valid for
        # non-serving uses.)

    @classmethod
    def for_service(cls, **overrides) -> "ReproConfig":
        """The serving default: batch backend + enabled collision cache."""
        overrides.setdefault("backend", "batch")
        overrides.setdefault("cache", CacheConfig(enabled=True))
        return cls(**overrides)

    @classmethod
    def for_fleet(cls, n_shards: Optional[int] = None, **overrides) -> "ReproConfig":
        """The fleet default: serving defaults plus an ``n_shards`` fleet.

        ``n_shards`` alone builds ``FleetConfig(n_shards=n_shards)`` (one
        shard when omitted); with an explicit ``fleet=`` it may only
        restate that config's shard count — a disagreeing pair raises.
        """
        fleet = overrides.get("fleet")
        if fleet is None:
            overrides["fleet"] = FleetConfig(n_shards=n_shards or 1)
        elif n_shards is not None and n_shards != fleet.n_shards:
            raise ValueError(
                f"for_fleet got n_shards={n_shards} but "
                f"fleet=FleetConfig(n_shards={fleet.n_shards}); "
                "give the shard count once"
            )
        return cls.for_service(**overrides)

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ReproConfig":
        return config_from_dict(cls, data)


#: (owner class name, field name) -> nested config class, for from_dict.
_NESTED_FIELDS = {
    ("ReproConfig", "engine"): EngineConfig,
    ("ReproConfig", "resilience"): ResilienceConfig,
    ("ReproConfig", "cache"): CacheConfig,
    ("ReproConfig", "service"): ServiceConfig,
    ("ReproConfig", "fleet"): FleetConfig,
    ("ServiceConfig", "fault_models"): FaultModels,
}

#: Config classes by name, for serialization dispatch.
CONFIG_CLASSES = {
    "EngineConfig": EngineConfig,
    "ResilienceConfig": ResilienceConfig,
    "CacheConfig": CacheConfig,
    "ServiceConfig": ServiceConfig,
    "FleetConfig": FleetConfig,
    "ReproConfig": ReproConfig,
}
