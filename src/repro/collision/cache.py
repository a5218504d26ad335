"""Octree-versioned collision verdict cache.

Multi-client serving (:mod:`repro.serving`) re-checks the same quantized
poses over and over: requests share an environment, planners revisit
configurations, and motion discretizations overlap.  This cache memoizes
per-pose verdicts keyed on the quantized configuration, versioned by an
*environment epoch* that advances on every octree update.

**Bit-identity contract.**  Alongside each verdict the cache stores the
exact :class:`~repro.collision.stats.CollisionStats` delta the fresh
evaluation charged for that pose (node visits, SAT axes, cascade exits, ...
— everything except the caller-owned ``pose_checks``/``motion_checks``
counters).  A hit replays the stored delta into the live stats object, so a
cache-on run records *identical* operation counts to a cache-off run — the
energy model prices those counts, so "the check was skipped" must not be
visible in the accounting.  The evaluator is deterministic, which makes the
stored delta equal to what a fresh evaluation would have charged, always.

**Selective invalidation.**  On an environment update the owner computes
the changed-region boxes with :func:`repro.env.diff.octree_delta_regions`
and calls :meth:`invalidate_regions`.  An entry survives iff its
*footprint* — the AABB over the robot's quantized link OBBs at the cached
pose — is disjoint from every changed box.  This is safe because the
octree traversal only examines an octant whose parent node it visited, and
it only visits nodes whose box intersects the query volume: when no
changed node's box touches the footprint, the traversal (verdict *and*
work counts) is identical in the old and new trees.  Footprints are
computed lazily at first invalidation and cached on the entry.

Hit/miss/invalidation counters are mirrored into an optional
:class:`~repro.accel.telemetry.MetricsRegistry` (``cache.hits``,
``cache.misses``, ``cache.invalidated``, ``cache.epoch_advances``).

**Tiered caching for the sharded fleet.**  :class:`TieredCollisionCache`
stacks a shard-private *local* tier over an optional fleet-wide *global*
tier (:mod:`repro.serving.fleet`).  During a drain a shard reads
local-then-global and writes local only, logging its fresh entries; at the
drain boundary the fleet merges every shard's fresh entries into the
global tier in shard-index order (:meth:`CollisionCache.adopt`, first
writer wins).  The global tier stays frozen during a drain because shards
model parallel replicas: no shard may see another's writes from the same
drain, or its hits would depend on shard order.  Both tiers observe every
environment update at the same epoch boundary with the same changed-region
boxes, so an entry's survival verdict is identical in every tier.  Cache
*content* never affects verdicts or stats (hits replay exact deltas), so
tiering is purely a performance protocol — the bit-identity contract above
is unchanged.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.collision.stats import CollisionStats
from repro.geometry.aabb import AABB

__all__ = [
    "CacheEntry",
    "CollisionCache",
    "TieredCollisionCache",
    "DEFAULT_QUANTUM",
]

#: Default pose-key quantum (radians).  Far below any meaningful joint
#: resolution, so distinct planner poses virtually never alias; equal poses
#: (the common repeat case) always do.
DEFAULT_QUANTUM = 1e-9


class CacheEntry:
    """One cached pose verdict with its replayable stats delta."""

    __slots__ = ("verdict", "stats", "pose", "epoch", "footprint")

    def __init__(
        self,
        verdict: bool,
        stats: CollisionStats,
        pose: np.ndarray,
        epoch: int,
    ):
        self.verdict = verdict
        self.stats = stats
        self.pose = pose
        self.epoch = epoch
        self.footprint: Optional[AABB] = None


class CollisionCache:
    """Pose-verdict cache keyed on (quantized pose, environment epoch).

    ``quantum`` sets the pose quantization grid; ``max_entries`` bounds
    memory with FIFO eviction (insertion order).  ``telemetry`` mirrors the
    counters into a metrics registry.  The cache is attached to one or more
    :class:`~repro.collision.checker.RobotEnvironmentChecker` instances
    (sharing a robot and environment); the first attach binds the
    stats-collection mode and the footprint function, later attaches must
    agree — mixing ``collect_stats`` modes would replay empty deltas into a
    collecting stats object and break bit-identity.
    """

    def __init__(
        self,
        quantum: float = DEFAULT_QUANTUM,
        max_entries: int = 1_000_000,
        telemetry=None,
    ):
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.quantum = quantum
        self.max_entries = max_entries
        self.telemetry = telemetry
        self.epoch = 0
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        self.epoch_advances = 0
        self.collect_stats: Optional[bool] = None
        self._footprint_fn: Optional[Callable[[np.ndarray], AABB]] = None
        self._entries: dict = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(
        self, collect_stats: bool, footprint_fn: Callable[[np.ndarray], AABB]
    ) -> None:
        """Bind the cache to a checker's stats mode and footprint geometry."""
        if self.collect_stats is None:
            self.collect_stats = collect_stats
            self._footprint_fn = footprint_fn
        elif self.collect_stats != collect_stats:
            raise ValueError(
                "cache is shared between checkers with different collect_stats "
                f"modes ({self.collect_stats} vs {collect_stats}); stored stat "
                "deltas would not match what a cache-off run records"
            )

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def key(self, q) -> bytes:
        """Quantized-pose dictionary key."""
        q = np.asarray(q, dtype=float)
        return np.round(q / self.quantum).astype(np.int64).tobytes()

    def lookup(self, q) -> Optional[CacheEntry]:
        """The entry for a pose at the current epoch, or None (counted)."""
        entry = self._entries.get(self.key(q))
        if entry is not None and entry.epoch == self.epoch:
            self.hits += 1
            if self.telemetry is not None and self.telemetry.enabled:
                self.telemetry.counter("cache.hits").inc()
            return entry
        self.misses += 1
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.counter("cache.misses").inc()
        return None

    def store(self, q, verdict: bool, stats_delta: CollisionStats) -> None:
        """Insert a freshly evaluated pose verdict (FIFO-evicting).

        Overwriting an existing key (e.g. re-storing a pose after an epoch
        advance stale-ed its entry) is not an insert and must not evict:
        evicting on overwrites drops a live entry and permanently shrinks
        the effective capacity below ``max_entries``.
        """
        key = self.key(q)
        if key not in self._entries and len(self._entries) >= self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        pose = np.array(q, dtype=float, copy=True)
        self._entries[key] = CacheEntry(
            bool(verdict), stats_delta, pose, self.epoch
        )

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def advance_epoch(self) -> None:
        """Invalidate everything (an update with unknown extent)."""
        self.epoch += 1
        self.epoch_advances += 1
        self.invalidated += len(self._entries)
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.counter("cache.epoch_advances").inc()
            self.telemetry.counter("cache.invalidated").inc(len(self._entries))
        self._entries.clear()

    def invalidate_regions(self, regions: Sequence[AABB]) -> int:
        """Advance the epoch, dropping entries whose footprint meets a region.

        Entries whose footprint is disjoint from *every* changed box are
        re-stamped to the new epoch (their traversal is provably identical
        in the updated tree); the rest are dropped.  Returns the number of
        dropped entries.
        """
        self.epoch += 1
        self.epoch_advances += 1
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.counter("cache.epoch_advances").inc()
        if not regions:
            for entry in self._entries.values():
                entry.epoch = self.epoch
            return 0
        if self._footprint_fn is None:
            # Never attached: no geometry to prove survival with.
            dropped = len(self._entries)
            self._entries.clear()
        else:
            survivors = {}
            for key, entry in self._entries.items():
                if entry.footprint is None:
                    entry.footprint = self._footprint_fn(entry.pose)
                if any(entry.footprint.overlaps(region) for region in regions):
                    continue
                entry.epoch = self.epoch
                survivors[key] = entry
            dropped = len(self._entries) - len(survivors)
            self._entries = survivors
        self.invalidated += dropped
        if self.telemetry is not None and self.telemetry.enabled and dropped:
            self.telemetry.counter("cache.invalidated").inc(dropped)
        return dropped

    # ------------------------------------------------------------------
    # Fleet sync (drain-boundary entry exchange)
    # ------------------------------------------------------------------

    def adopt(self, items: Sequence[Tuple[bytes, CacheEntry]]) -> int:
        """Merge externally evaluated entries (the fleet's global-tier sync).

        ``items`` are ``(key, entry)`` pairs in a deterministic order (the
        fleet merges shards in shard-index order).  Entries whose epoch
        does not match this cache's current epoch are skipped — they were
        evaluated against a different octree version and their survival was
        never proven.  Existing keys are kept (first writer wins, matching
        the deterministic merge order); genuine inserts FIFO-evict like
        :meth:`store`.  Returns the number of entries adopted.
        """
        adopted = 0
        for key, entry in items:
            if entry.epoch != self.epoch or key in self._entries:
                continue
            if len(self._entries) >= self.max_entries:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
            self._entries[key] = entry
            adopted += 1
        return adopted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidated": self.invalidated,
            "epoch_advances": self.epoch_advances,
            "entries": len(self._entries),
            "epoch": self.epoch,
        }

    def clear(self) -> None:
        """Drop all entries and counters (the epoch is preserved)."""
        self._entries.clear()
        self.hits = self.misses = self.invalidated = 0


class TieredCollisionCache:
    """Local + global two-tier verdict cache for one fleet shard.

    Drop-in for :class:`CollisionCache` where checkers and the serving
    layer are concerned (``attach``/``lookup``/``store``/``counters``/
    ``invalidate_regions``/``hits``), with the fleet cache protocol on top:

    - **Reads** go local tier first, then the shared global tier.  A
      global hit is *promoted* into the local tier so the shard keeps
      serving it locally (promotions are not logged as fresh — the global
      tier already has the entry).
    - **Writes** land in the local tier only and are logged; the fleet
      collects the log with :meth:`export_fresh` at the drain boundary and
      merges it into the global tier in shard-index order.  The global
      tier is therefore frozen for the whole drain: shards are parallel
      replicas, so no shard sees another's writes from the same drain.
    - **Invalidation** (:meth:`invalidate_regions`) applies to the local
      tier only; the owner of the shared global tier (the fleet)
      invalidates it exactly once per environment update with the same
      region boxes, so both tiers advance through the same epoch sequence.

    ``hits``/``misses`` on this object count *tiered* outcomes (a lookup
    that hits either tier is one hit), which is what the service's
    simulated cost model and the batcher's cached-row accounting read.
    """

    def __init__(
        self,
        local: CollisionCache,
        global_tier: Optional[CollisionCache] = None,
    ):
        if global_tier is not None and global_tier.quantum != local.quantum:
            raise ValueError(
                "tier quantum mismatch: local "
                f"{local.quantum} vs global {global_tier.quantum} — tiers "
                "must share one pose-key grid"
            )
        if global_tier is not None and global_tier.epoch != local.epoch:
            raise ValueError(
                f"tier epoch mismatch: local {local.epoch} vs global "
                f"{global_tier.epoch} — tiers must join at the same epoch"
            )
        self.local = local
        self.global_tier = global_tier
        self.hits = 0
        self.misses = 0
        self.hits_local = 0
        self.hits_global = 0
        self._fresh: List[bytes] = []

    # -- CollisionCache interface --------------------------------------

    @property
    def quantum(self) -> float:
        return self.local.quantum

    @property
    def epoch(self) -> int:
        return self.local.epoch

    @property
    def collect_stats(self) -> Optional[bool]:
        return self.local.collect_stats

    def attach(
        self, collect_stats: bool, footprint_fn: Callable[[np.ndarray], AABB]
    ) -> None:
        self.local.attach(collect_stats, footprint_fn)
        if self.global_tier is not None:
            self.global_tier.attach(collect_stats, footprint_fn)

    def key(self, q) -> bytes:
        return self.local.key(q)

    def lookup(self, q) -> Optional[CacheEntry]:
        entry = self.local.lookup(q)
        if entry is not None:
            self.hits += 1
            self.hits_local += 1
            return entry
        if self.global_tier is not None:
            entry = self.global_tier.lookup(q)
            if entry is not None:
                self.hits += 1
                self.hits_global += 1
                # Promote so subsequent lookups stay shard-local.  Not
                # logged as fresh: the global tier already holds it.
                key = self.local.key(q)
                self.local.adopt([(key, entry)])
                return entry
        self.misses += 1
        return None

    def store(self, q, verdict: bool, stats_delta: CollisionStats) -> None:
        key = self.local.key(q)
        fresh_insert = key not in self.local._entries
        self.local.store(q, verdict, stats_delta)
        if fresh_insert:
            self._fresh.append(key)

    def invalidate_regions(self, regions: Sequence[AABB]) -> int:
        """Invalidate the *local* tier (the fleet does the global tier once)."""
        dropped = self.local.invalidate_regions(regions)
        self._fresh.clear()
        return dropped

    def advance_epoch(self) -> None:
        self.local.advance_epoch()
        self._fresh.clear()

    def __len__(self) -> int:
        return len(self.local)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict:
        out = self.local.counters()
        out.update(
            {
                "hits": self.hits,
                "misses": self.misses,
                "hits_local": self.hits_local,
                "hits_global": self.hits_global,
                "entries": len(self.local),
                "epoch": self.local.epoch,
            }
        )
        return out

    def clear(self) -> None:
        self.local.clear()
        self.hits = self.misses = self.hits_local = self.hits_global = 0
        self._fresh.clear()

    # -- fleet protocol -------------------------------------------------

    def export_fresh(self) -> List[Tuple[bytes, CacheEntry]]:
        """Entries stored (not promoted) since the last export, in order.

        Clears the log: the fleet calls this exactly once per drain, after
        every shard finished, and merges the results into the global tier.
        Entries evicted from the local tier since being logged are skipped.
        """
        out = []
        for key in self._fresh:
            entry = self.local._entries.get(key)
            if entry is not None:
                out.append((key, entry))
        self._fresh.clear()
        return out


def footprint_of_obbs(obbs) -> AABB:
    """AABB enclosing a set of OBBs (the cache's pose footprint)."""
    lo = np.full(3, np.inf)
    hi = np.full(3, -np.inf)
    for obb in obbs:
        extent = np.abs(obb.rotation) @ obb.half_extents
        lo = np.minimum(lo, obb.center - extent)
        hi = np.maximum(hi, obb.center + extent)
    return AABB.from_min_max(lo, hi)
