"""The CECDU model: pose-level collision detection timing (Figure 13).

A CECDU receives a robot pose, generates the link OBBs on-chip, and farms
them out to its OOCDs:

- with a single OOCD the links are checked serially, stopping at the first
  colliding link (the Result Collector's kill);
- with four OOCDs links run in synchronous batches of four — a batch costs
  the *maximum* of its traversal times, and a hit in a batch discards the
  later batches but not its batch-mates (Section 7.2.2 explains both
  effects).

:meth:`CECDUModel.simulate_pose` prices one pose through the scalar
traversal trace; :meth:`CECDUModel.simulate_poses` prices a pose batch from
one batched traversal and returns the same outcomes, field for field.  The
scalar path is the batch path's differential oracle and the memo's
fallback for poses nobody primed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.accel.config import CECDUConfig, IntersectionUnitKind
from repro.accel.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.accel.intersection import NODE_OVERHEAD_CYCLES
from repro.accel.obbgen import OBB_GEN_MULTIPLIES_PER_LINK, OBBGenerationUnit
from repro.accel.oocd import OOCDTiming, price_traversal
from repro.collision.batch import BatchOctreeCollider, batch_link_obbs
from repro.collision.cascade import CascadeConfig, DEFAULT_CASCADE
from repro.collision.octree_cd import OBBOctreeCollider
from repro.env.octree import Octree
from repro.geometry.fixed_point import DEFAULT_FORMAT, FixedPointFormat
from repro.planning.motion import CDPhase
from repro.robot.model import RobotModel

#: Poses per batched pricing call in :meth:`CECDUModel.prime`.  The batched
#: traversal's arrays grow with the pose count, so chunking keeps peak
#: memory flat however many poses a query holds.
PRIME_CHUNK_POSES = 64


@dataclass(frozen=True)
class PoseCDOutcome:
    """Full cost/verdict of one robot-pose collision detection on a CECDU."""

    hit: bool
    cycles: int
    tests: int
    multiplies: int
    node_visits: int
    energy_pj: float
    links_checked: int


class CECDUModel:
    """Cycle/energy model of one CECDU bound to a robot and environment."""

    def __init__(
        self,
        robot: RobotModel,
        octree: Octree,
        config: CECDUConfig = CECDUConfig(),
        cascade: CascadeConfig = DEFAULT_CASCADE,
        fixed_point: Optional[FixedPointFormat] = DEFAULT_FORMAT,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    ):
        self.robot = robot
        self.octree = octree
        self.config = config
        self.collider = OBBOctreeCollider(octree, cascade)
        self.batch_collider = BatchOctreeCollider(octree, cascade)
        self.obb_generator = OBBGenerationUnit(robot, fixed_point)
        self.energy_model = energy_model
        self._cache: Dict[bytes, PoseCDOutcome] = {}

    # ------------------------------------------------------------------

    def simulate_pose(self, q) -> PoseCDOutcome:
        """Collision-detect one pose; returns verdict plus cycles/energy."""
        generation = self.obb_generator.generate(q)
        obbs = generation.obbs
        ready = generation.ready_cycles
        n_oocds = self.config.n_oocds
        kind = self.config.iu_kind

        tests = 0
        multiplies = generation.multiplies
        node_visits = 0
        energy = len(obbs) * self.energy_model.obb_generation_pj_per_link
        links_checked = 0
        hit = False

        if n_oocds == 1:
            # Serial link checks with early exit on the first collision.
            time = 0
            for index, obb in enumerate(obbs):
                trace = self.collider.collide(obb)
                timing = price_traversal(trace, kind, self.energy_model)
                time = max(time, ready[index]) + timing.cycles
                tests += timing.tests
                multiplies += timing.multiplies
                node_visits += timing.node_visits
                energy += timing.energy_pj
                links_checked += 1
                if timing.hit:
                    hit = True
                    break
            total_cycles = time
        else:
            # Synchronous batches of n_oocds links: a batch costs its
            # slowest member; a hit stops later batches only.
            time = 0
            for start in range(0, len(obbs), n_oocds):
                batch = list(range(start, min(start + n_oocds, len(obbs))))
                timings: List[OOCDTiming] = []
                for index in batch:
                    trace = self.collider.collide(obbs[index])
                    timings.append(price_traversal(trace, kind, self.energy_model))
                batch_start = max(time, max(ready[index] for index in batch))
                time = batch_start + max(t.cycles for t in timings)
                for t in timings:
                    tests += t.tests
                    multiplies += t.multiplies
                    node_visits += t.node_visits
                    energy += t.energy_pj
                links_checked += len(batch)
                if any(t.hit for t in timings):
                    hit = True
                    break
            total_cycles = time

        return PoseCDOutcome(
            hit=hit,
            cycles=total_cycles,
            tests=tests,
            multiplies=multiplies,
            node_visits=node_visits,
            energy_pj=energy,
            links_checked=links_checked,
        )

    def simulate_poses(self, poses) -> List[PoseCDOutcome]:
        """``[self.simulate_pose(q) for q in poses]``, from one batched pass.

        One :func:`~repro.collision.batch.batch_link_obbs` call generates
        every link OBB and one :meth:`BatchOctreeCollider.collide` call
        traverses them all; every (pose, link) query is traversed in full
        and the link composition below replays the scalar early exits.
        The collider's replay of the scalar BFS gives each query the same
        tests, multiplies and node visits as its traversal trace, plus the
        two Intersection Unit sums that ``price_traversal`` derives from it.
        Energy adds per-link terms in link order, as the scalar loop does,
        so the float totals are bit-equal.
        """
        poses = np.asarray(poses, dtype=float)
        if poses.size == 0:
            return []
        n = len(poses)
        n_links = self.robot.num_links
        trav = self.batch_collider.collide(
            batch_link_obbs(self.robot, poses, self.obb_generator.fixed_point),
            iu_cycles=True,
        )
        if self.config.iu_kind is IntersectionUnitKind.PIPELINED:
            iu = trav.pipelined_iu
        else:
            iu = trav.multi_cycle_iu
        # Per (pose, link): one OOCD traversal priced as price_traversal does.
        shape = (n, n_links)
        hit = trav.hit.reshape(shape)
        visits = trav.node_visits.reshape(shape)
        tests = trav.tests.reshape(shape)
        multiplies = trav.multiplies.reshape(shape)
        cycles = (NODE_OVERHEAD_CYCLES * trav.node_visits + iu).reshape(shape)
        model = self.energy_model
        link_energy = multiplies * model.multiply_pj + visits * (
            model.sram_read_pj + model.node_process_pj
        )

        # Links in synchronous batches of n_oocds (one OOCD: batches of
        # one, i.e. serial links): a batch starts when its last OBB is
        # ready, costs its slowest member, and a hit stops later batches.
        ready = self.obb_generator.ready_cycles()
        n_oocds = self.config.n_oocds
        checked = np.zeros(shape, dtype=bool)
        running = np.ones(n, dtype=bool)
        time = np.zeros(n, dtype=np.int64)
        for start in range(0, n_links, n_oocds):
            stop = min(start + n_oocds, n_links)
            slowest = cycles[:, start:stop].max(axis=1)
            np.copyto(
                time, np.maximum(time, max(ready[start:stop])) + slowest, where=running
            )
            checked[:, start:stop] = running[:, None]
            running &= ~hit[:, start:stop].any(axis=1)
        energy = np.full(n, n_links * model.obb_generation_pj_per_link)
        for j in range(n_links):
            np.add(energy, link_energy[:, j], out=energy, where=checked[:, j])
        generation_multiplies = OBB_GEN_MULTIPLIES_PER_LINK * n_links

        return [
            PoseCDOutcome(
                hit=bool(h),
                cycles=int(c),
                tests=int(t),
                multiplies=int(m),
                node_visits=int(v),
                energy_pj=float(e),
                links_checked=int(k),
            )
            for h, c, t, m, v, e, k in zip(
                (hit & checked).any(axis=1),
                time,
                (tests * checked).sum(axis=1),
                generation_multiplies + (multiplies * checked).sum(axis=1),
                (visits * checked).sum(axis=1),
                energy,
                checked.sum(axis=1),
            )
        ]

    def prime(self, phases: Sequence[CDPhase]) -> int:
        """Memoize every pose of ``phases`` not memoized yet; returns how many.

        Poses are deduplicated by the memo's own key and priced through
        :meth:`simulate_poses` in chunks of :data:`PRIME_CHUNK_POSES`, so a
        primed query never reaches the scalar :meth:`simulate_pose`.
        """
        cache = self._cache
        pending: Dict[bytes, np.ndarray] = {}
        for phase in phases:
            for motion in phase.motions:
                for q in motion.poses:
                    key = _memo_key(q)
                    if key not in cache:
                        pending.setdefault(key, q)
        keys = list(pending)
        for start in range(0, len(keys), PRIME_CHUNK_POSES):
            chunk = keys[start : start + PRIME_CHUNK_POSES]
            outcomes = self.simulate_poses(np.stack([pending[key] for key in chunk]))
            cache.update(zip(chunk, outcomes))
        return len(keys)

    def simulate_pose_cached(self, q) -> PoseCDOutcome:
        """Memoized :meth:`simulate_pose` (poses repeat across schedulers)."""
        key = _memo_key(q)
        outcome = self._cache.get(key)
        if outcome is None:
            outcome = self.simulate_pose(q)
            self._cache[key] = outcome
        return outcome

    def time_ns(self, outcome: PoseCDOutcome) -> float:
        return outcome.cycles * self.config.clock_period_ns

    # ------------------------------------------------------------------

    def sas_latency_model(self):
        """Adapter: use this CECDU as the SAS simulator's latency model."""

        def model(motion, pose_index: int):
            outcome = self.simulate_pose_cached(motion.poses[pose_index])
            return outcome.hit, outcome.cycles, outcome.energy_pj

        return model


def _memo_key(q) -> bytes:
    return np.asarray(q, dtype=float).tobytes()
