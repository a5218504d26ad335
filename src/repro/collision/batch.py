"""Vectorized batch collision pipeline: the Figure-10 cascade over pose tensors.

The scalar modules (:mod:`repro.collision.cascade`,
:mod:`repro.collision.octree_cd`, :mod:`repro.collision.checker`) evaluate one
OBB-AABB pair at a time through Python loops — the faithful behavioral twin of
one CECDU, but orders of magnitude slower than the arithmetic requires.  This
module evaluates the same cascade over an ``(N_poses x N_links x
N_leaf_candidates)`` batch of pairs in a handful of numpy calls:

* :func:`batch_forward_kinematics` / :func:`batch_link_obbs` — the OBB
  Generation Unit over a whole pose batch (DH chain as stacked 4x4 matmuls,
  fixed-point quantization as array ops);
* :func:`batch_cascade` — bounding-sphere filter, inscribed-sphere filter and
  the staged/sequential/parallel SAT over M pairs at once;
* :class:`BatchOctreeCollider` — level-synchronous octree traversal that
  gathers every frontier octant of every query into one cascade call per tree
  level, then replays the scalar traversal's early-exit accounting;
* :class:`BatchPoseEvaluator` — the full robot-vs-environment pose check,
  consumed by ``RobotEnvironmentChecker(backend="batch")``.

**Contract: bit-identical to the scalar cascade.**  For the same inputs the
batch engine returns the same booleans, the same per-pair
:class:`~repro.collision.cascade.ExitStage`, and the same
:class:`~repro.collision.stats.CollisionStats` operation counts as the scalar
path — the energy model (:mod:`repro.accel.energy`) prices those counts, so
"approximately equal" is not good enough.  Equality holds because every
floating-point operation is replicated with the same operand order:

* numpy elementwise ufuncs are IEEE-754 double ops, identical to Python float
  arithmetic, and the expressions here copy the scalar source's association;
* stacked ``(N,4,4) @ (N,4,4)`` matmul produces the same bits as the per-slice
  2-D ``@`` the scalar FK uses (both dispatch to the same gemm kernel);
* ``np.rint`` matches Python ``round`` (both half-to-even), so the
  fixed-point snapping grids agree;
* the bounding-sphere radius uses the ``(M,1,3) @ (M,3,1)`` stacked product,
  which reproduces ``np.dot(h, h)`` (BLAS ddot) bit-for-bit.

The differential harness (``tests/differential.py``) enforces the contract
pair-by-pair; new backends (GPU, fixed-point, octree variants) should be run
through the same harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.collision.cascade import (
    CascadeConfig,
    DEFAULT_CASCADE,
    ExitStage,
    SATMode,
)
from repro.collision.stats import CollisionStats
from repro.env.octree import OctantState, Octree
from repro.geometry.fixed_point import DEFAULT_FORMAT, FixedPointFormat, ROTATION_FORMAT
from repro.geometry.obb import OBB
from repro.geometry.sat import SAT_AXIS_MULTIPLIES, extract_obb_scalars, stage_axis_ids
from repro.geometry.sphere import SPHERE_AABB_MULTIPLIES
from repro.robot.model import RobotModel

# Must match repro.geometry.sat._EPS: the cross-axis degeneracy guard.
_EPS = 1e-9

#: Canonical exit-stage order; the ``exit_code`` arrays index into this.
EXIT_STAGE_ORDER: Tuple[ExitStage, ...] = (
    ExitStage.BOUNDING_SPHERE,
    ExitStage.INSCRIBED_SPHERE,
    ExitStage.SAT_STAGE_1,
    ExitStage.SAT_STAGE_2,
    ExitStage.SAT_STAGE_3,
    ExitStage.SAT_EXHAUSTED,
)
EXIT_CODE = {stage: code for code, stage in enumerate(EXIT_STAGE_ORDER)}
_CODE_BOUNDING = EXIT_CODE[ExitStage.BOUNDING_SPHERE]
_CODE_INSCRIBED = EXIT_CODE[ExitStage.INSCRIBED_SPHERE]
_CODE_SAT_1 = EXIT_CODE[ExitStage.SAT_STAGE_1]
_CODE_EXHAUSTED = EXIT_CODE[ExitStage.SAT_EXHAUSTED]

#: Cumulative multiply cost of the sequential SAT through axis k (1-based).
_CUM_AXIS_MULTIPLIES = np.cumsum(SAT_AXIS_MULTIPLIES)
_SAT_FULL_MULTIPLIES = int(_CUM_AXIS_MULTIPLIES[-1])


# ----------------------------------------------------------------------
# Persistent SoA scratch buffers
# ----------------------------------------------------------------------


class SoAScratch:
    """Growable persistent buffers for the batch pipeline.

    The batched planner path dispatches one pose tensor per CD phase, so a
    planning run makes hundreds of ``batch_forward_kinematics`` /
    ``batch_link_obbs`` calls whose large intermediates (frame stacks, DH
    step matrices, per-link pose products, OBB arrays) would otherwise be
    re-allocated every call.  A scratch instance keeps one buffer per
    (name, trailing-shape) slot and grows it geometrically when a larger
    batch arrives, handing out leading-axis views — so steady-state phases
    allocate nothing.

    **Lifetime contract:** an array returned by :meth:`array` (and any
    pipeline output that aliases one, e.g. ``batch_link_obbs(...,
    fixed_point=None, scratch=...)``) is valid only until the next call
    that uses the same scratch.  Callers that need the data beyond that
    must copy.  The default quantized pipeline materializes fresh output
    arrays, so :class:`BatchPoseEvaluator` results never alias scratch.
    """

    def __init__(self):
        self._buffers: dict = {}
        #: How many times a slot (re-)allocated — tests pin steady-state 0.
        self.reallocations = 0

    def array(self, name: str, n: int, trailing: Tuple[int, ...], dtype=float):
        """A ``(n, *trailing)`` view of the named buffer, growing as needed."""
        trailing = tuple(int(t) for t in trailing)
        buf = self._buffers.get(name)
        if buf is None or buf.shape[1:] != trailing or buf.dtype != dtype:
            capacity = n
        elif buf.shape[0] < n:
            capacity = max(n, 2 * buf.shape[0])
        else:
            return buf[:n]
        buf = np.empty((capacity,) + trailing, dtype=dtype)
        self._buffers[name] = buf
        self.reallocations += 1
        return buf[:n]

    def clear(self) -> None:
        self._buffers.clear()


# ----------------------------------------------------------------------
# Struct-of-arrays OBB batch
# ----------------------------------------------------------------------


@dataclass
class BatchOBBs:
    """M OBBs as a struct of arrays (the batch twin of 17-value OBB words).

    ``rot`` is ``(M, 3, 3)`` row-major world-from-local rotations, ``half``
    and ``center`` are ``(M, 3)``, and the sphere radii are ``(M,)`` — the
    same five fields :func:`repro.geometry.sat.extract_obb_scalars` yields.
    """

    rot: np.ndarray
    half: np.ndarray
    center: np.ndarray
    r_bound: np.ndarray
    r_inscribed: np.ndarray

    def __len__(self) -> int:
        return len(self.center)

    @classmethod
    def from_arrays(cls, center, half, rot) -> "BatchOBBs":
        """Build from raw arrays, deriving the sphere radii.

        The bounding radius uses a stacked ``(M,1,3) @ (M,3,1)`` product so
        the squared norm matches the scalar ``np.dot(h, h)`` bit-for-bit.
        """
        center = np.asarray(center, dtype=float).reshape(-1, 3)
        half = np.asarray(half, dtype=float).reshape(-1, 3)
        rot = np.asarray(rot, dtype=float).reshape(-1, 3, 3)
        r_bound = np.sqrt((half[:, None, :] @ half[:, :, None])[:, 0, 0])
        r_inscribed = np.min(half, axis=1)
        return cls(rot, half, center, r_bound, r_inscribed)

    @classmethod
    def from_obbs(cls, obbs: Sequence[OBB]) -> "BatchOBBs":
        """Pack OBB objects, taking radii through the scalar extraction."""
        pre = [extract_obb_scalars(obb) for obb in obbs]
        rot = np.array([p[0] for p in pre], dtype=float).reshape(-1, 3, 3)
        half = np.array([p[1] for p in pre], dtype=float).reshape(-1, 3)
        center = np.array([p[2] for p in pre], dtype=float).reshape(-1, 3)
        r_bound = np.array([p[3] for p in pre], dtype=float)
        r_inscribed = np.array([p[4] for p in pre], dtype=float)
        return cls(rot, half, center, r_bound, r_inscribed)

    def take(self, indices) -> "BatchOBBs":
        """Gather a (possibly repeated) subset of rows."""
        return BatchOBBs(
            self.rot[indices],
            self.half[indices],
            self.center[indices],
            self.r_bound[indices],
            self.r_inscribed[indices],
        )


# ----------------------------------------------------------------------
# Vectorized cascade
# ----------------------------------------------------------------------


@dataclass
class BatchCascadeOutcome:
    """Per-pair cascade results for M pairs — the batch CascadeResult.

    All arrays have length M.  ``separating_axis`` is the 1-based axis id or
    0 where no tested axis separated; ``sphere_tests`` counts the sphere
    filter evaluations the scalar path would have charged to each pair (the
    inscribed filter only runs when the bounding filter did not exit).
    """

    hit: np.ndarray
    exit_code: np.ndarray
    exit_cycle: np.ndarray
    multiplies: np.ndarray
    sat_axes_tested: np.ndarray
    separating_axis: np.ndarray
    sphere_tests: np.ndarray

    def __len__(self) -> int:
        return len(self.hit)

    def exit_stages(self) -> List[ExitStage]:
        return [EXIT_STAGE_ORDER[code] for code in self.exit_code]

    def record(self, stats: CollisionStats) -> None:
        """Accumulate the same totals M scalar cascade calls would have."""
        stats.intersection_tests += len(self.hit)
        stats.multiplies += int(self.multiplies.sum())
        stats.sat_axes_tested += int(self.sat_axes_tested.sum())
        stats.sphere_tests += int(self.sphere_tests.sum())
        counts = np.bincount(self.exit_code, minlength=len(EXIT_STAGE_ORDER))
        for code, count in enumerate(counts):
            if count:
                stats.cascade_exits[EXIT_STAGE_ORDER[code].value] += int(count)


#: Octant index -> child-center offset signs, one gather instead of three
#: ``np.where`` calls in the traversal level loops.  Row k is
#: ``(+1 if k & 1 else -1, +1 if k & 2 else -1, +1 if k & 4 else -1)`` —
#: identical values to the bit tests, so child centers are bit-identical.
_OCTANT_SIGNS = np.array(
    [
        [1.0 if k & 1 else -1.0, 1.0 if k & 2 else -1.0, 1.0 if k & 4 else -1.0]
        for k in range(8)
    ]
)


def _sphere_box_separated_mask(center, box_center, box_half, radius) -> np.ndarray:
    """Vectorized twin of ``cascade._sphere_box_separated`` (same op order)."""
    dx = np.abs(center[:, 0] - box_center[:, 0]) - box_half[:, 0]
    dy = np.abs(center[:, 1] - box_center[:, 1]) - box_half[:, 1]
    dz = np.abs(center[:, 2] - box_center[:, 2]) - box_half[:, 2]
    dist_sq = (
        np.where(dx > 0.0, dx * dx, 0.0)
        + np.where(dy > 0.0, dy * dy, 0.0)
        + np.where(dz > 0.0, dz * dz, 0.0)
    )
    return dist_sq > radius * radius


def _sat_separation_masks(rot, a, b, t) -> np.ndarray:
    """All 15 axis tests for K pairs: ``(K, 15)`` separation booleans.

    Each column transcribes ``repro.geometry.sat._test_axis`` with identical
    operand association, so every comparison reproduces the scalar bits.
    """
    r00, r01, r02 = rot[:, 0, 0], rot[:, 0, 1], rot[:, 0, 2]
    r10, r11, r12 = rot[:, 1, 0], rot[:, 1, 1], rot[:, 1, 2]
    r20, r21, r22 = rot[:, 2, 0], rot[:, 2, 1], rot[:, 2, 2]
    ar00, ar01, ar02 = np.abs(r00), np.abs(r01), np.abs(r02)
    ar10, ar11, ar12 = np.abs(r10), np.abs(r11), np.abs(r12)
    ar20, ar21, ar22 = np.abs(r20), np.abs(r21), np.abs(r22)
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    t0, t1, t2 = t[:, 0], t[:, 1], t[:, 2]

    sep = np.empty((len(a0), 15), dtype=bool)
    # AABB face axes.
    sep[:, 0] = np.abs(t0) > a0 + b0 * ar00 + b1 * ar01 + b2 * ar02
    sep[:, 1] = np.abs(t1) > a1 + b0 * ar10 + b1 * ar11 + b2 * ar12
    sep[:, 2] = np.abs(t2) > a2 + b0 * ar20 + b1 * ar21 + b2 * ar22
    # OBB face axes.
    sep[:, 3] = np.abs(t0 * r00 + t1 * r10 + t2 * r20) > (
        b0 + a0 * ar00 + a1 * ar10 + a2 * ar20
    )
    sep[:, 4] = np.abs(t0 * r01 + t1 * r11 + t2 * r21) > (
        b1 + a0 * ar01 + a1 * ar11 + a2 * ar21
    )
    sep[:, 5] = np.abs(t0 * r02 + t1 * r12 + t2 * r22) > (
        b2 + a0 * ar02 + a1 * ar12 + a2 * ar22
    )
    # Cross axes e_i x B_j, axis ids 7..15.
    sep[:, 6] = np.abs(t2 * r10 - t1 * r20) > (
        a1 * ar20 + a2 * ar10 + (b1 * ar02 + b2 * ar01) + _EPS
    )
    sep[:, 7] = np.abs(t2 * r11 - t1 * r21) > (
        a1 * ar21 + a2 * ar11 + (b0 * ar02 + b2 * ar00) + _EPS
    )
    sep[:, 8] = np.abs(t2 * r12 - t1 * r22) > (
        a1 * ar22 + a2 * ar12 + (b0 * ar01 + b1 * ar00) + _EPS
    )
    sep[:, 9] = np.abs(t0 * r20 - t2 * r00) > (
        a0 * ar20 + a2 * ar00 + (b1 * ar12 + b2 * ar11) + _EPS
    )
    sep[:, 10] = np.abs(t0 * r21 - t2 * r01) > (
        a0 * ar21 + a2 * ar01 + (b0 * ar12 + b2 * ar10) + _EPS
    )
    sep[:, 11] = np.abs(t0 * r22 - t2 * r02) > (
        a0 * ar22 + a2 * ar02 + (b0 * ar11 + b1 * ar10) + _EPS
    )
    sep[:, 12] = np.abs(t1 * r00 - t0 * r10) > (
        a0 * ar10 + a1 * ar00 + (b1 * ar22 + b2 * ar21) + _EPS
    )
    sep[:, 13] = np.abs(t1 * r01 - t0 * r11) > (
        a0 * ar11 + a1 * ar01 + (b0 * ar22 + b2 * ar20) + _EPS
    )
    sep[:, 14] = np.abs(t1 * r02 - t0 * r12) > (
        a0 * ar12 + a1 * ar02 + (b0 * ar21 + b1 * ar20) + _EPS
    )
    return sep


_STAGE_TABLE_CACHE: dict = {}


def _stage_tables(stages: Tuple[int, ...]):
    """Cumulative sizes/costs and exit codes for a staged SAT layout."""
    tables = _STAGE_TABLE_CACHE.get(stages)
    if tables is None:
        ids = stage_axis_ids(stages)
        sizes = np.cumsum(stages)
        costs = np.cumsum(
            [sum(SAT_AXIS_MULTIPLIES[axis - 1] for axis in stage) for stage in ids]
        )
        codes = np.array(
            [_CODE_SAT_1 + min(index, 2) for index in range(len(stages))],
            dtype=np.int64,
        )
        tables = _STAGE_TABLE_CACHE[stages] = (sizes, costs, codes)
    return tables


def batch_cascade(
    obbs: BatchOBBs,
    box_center,
    box_half,
    config: CascadeConfig = DEFAULT_CASCADE,
    stats: Optional[CollisionStats] = None,
    obb_index=None,
    need_work: bool = True,
) -> BatchCascadeOutcome:
    """The Figure-10 cascade over M pre-paired (OBB, AABB) rows.

    ``box_center``/``box_half`` are ``(M, 3)`` and align row-for-row with
    ``obbs`` — or, when ``obb_index`` is given, with ``obbs.take(obb_index)``
    (the gather of the wide rotation matrices is then deferred to the pairs
    that actually reach the SAT).  Passing ``stats`` accumulates exactly what
    M scalar :func:`~repro.collision.cascade.cascade_intersect_scalars` calls
    would.

    ``need_work=False`` computes verdicts only: the same sphere filters and
    SAT produce bit-identical ``hit``, but exit codes/cycles and the priced
    per-op counters are left zero (callers that never read them — the
    engines with stats collection off — skip that bookkeeping entirely).
    """
    box_center = np.asarray(box_center, dtype=float).reshape(-1, 3)
    box_half = np.asarray(box_half, dtype=float).reshape(-1, 3)
    if obb_index is None:
        m = len(obbs)
        center = obbs.center
        r_bound = obbs.r_bound
        r_inscribed = obbs.r_inscribed
    else:
        obb_index = np.asarray(obb_index, dtype=np.int64)
        m = len(obb_index)
        center = obbs.center[obb_index]
        r_bound = obbs.r_bound[obb_index]
        r_inscribed = obbs.r_inscribed[obb_index]
    if len(box_center) != m or len(box_half) != m:
        raise ValueError(
            f"need one box per OBB: {m} OBBs vs {len(box_center)} boxes"
        )

    if not need_work:
        hit = np.zeros(m, dtype=bool)
        active = np.ones(m, dtype=bool)
        if config.bounding_sphere:
            active &= ~_sphere_box_separated_mask(
                center, box_center, box_half, r_bound
            )
        if config.inscribed_sphere:
            act = np.flatnonzero(active)
            overlap = ~_sphere_box_separated_mask(
                center[act], box_center[act], box_half[act], r_inscribed[act]
            )
            certain = act[overlap]
            hit[certain] = True
            active[certain] = False
        idx = np.flatnonzero(active)
        if len(idx):
            src = idx if obb_index is None else obb_index[idx]
            t = center[idx] - box_center[idx]
            sep = _sat_separation_masks(
                obbs.rot[src], box_half[idx], obbs.half[src], t
            )
            hit[idx] = ~sep.any(axis=1)
        zeros = np.zeros(m, dtype=np.int64)
        return BatchCascadeOutcome(
            hit=hit,
            exit_code=zeros,
            exit_cycle=zeros,
            multiplies=zeros,
            sat_axes_tested=zeros,
            separating_axis=zeros,
            sphere_tests=zeros,
        )

    hit = np.zeros(m, dtype=bool)
    exit_code = np.full(m, _CODE_EXHAUSTED, dtype=np.int64)
    exit_cycle = np.zeros(m, dtype=np.int64)
    multiplies = np.zeros(m, dtype=np.int64)
    sat_axes = np.zeros(m, dtype=np.int64)
    separating = np.zeros(m, dtype=np.int64)
    sphere_tests = np.zeros(m, dtype=np.int64)

    base_cycle = 1 if config.has_sphere_filters else 0
    active = np.ones(m, dtype=bool)

    if config.bounding_sphere:
        multiplies += SPHERE_AABB_MULTIPLIES
        sphere_tests += 1
        separated = _sphere_box_separated_mask(
            center, box_center, box_half, r_bound
        )
        exit_code[separated] = _CODE_BOUNDING
        exit_cycle[separated] = base_cycle
        active &= ~separated
    if config.inscribed_sphere:
        act = np.flatnonzero(active)
        multiplies[act] += SPHERE_AABB_MULTIPLIES
        sphere_tests[act] += 1
        overlap = ~_sphere_box_separated_mask(
            center[act], box_center[act], box_half[act], r_inscribed[act]
        )
        certain = act[overlap]
        hit[certain] = True
        exit_code[certain] = _CODE_INSCRIBED
        exit_cycle[certain] = base_cycle
        active[certain] = False

    idx = np.flatnonzero(active)
    if len(idx):
        src = idx if obb_index is None else obb_index[idx]
        t = center[idx] - box_center[idx]
        sep = _sat_separation_masks(
            obbs.rot[src], box_half[idx], obbs.half[src], t
        )
        any_sep = sep.any(axis=1)
        axis_id = np.argmax(sep, axis=1) + 1  # meaningful only where any_sep
        sat_mult = np.empty(len(idx), dtype=np.int64)
        sat_tested = np.empty(len(idx), dtype=np.int64)
        sat_cycle = np.empty(len(idx), dtype=np.int64)
        sat_code = np.full(len(idx), _CODE_EXHAUSTED, dtype=np.int64)

        stage_sizes, stage_costs, stage_codes = _stage_tables(config.stages)
        stage_of_axis = np.searchsorted(stage_sizes, axis_id)
        if config.sat_mode is SATMode.SEQUENTIAL:
            sat_mult[:] = _SAT_FULL_MULTIPLIES
            sat_tested[:] = 15
            sat_cycle[:] = base_cycle + 15
            sat_mult[any_sep] = _CUM_AXIS_MULTIPLIES[axis_id[any_sep] - 1]
            sat_tested[any_sep] = axis_id[any_sep]
            sat_cycle[any_sep] = base_cycle + axis_id[any_sep]
            sat_code[any_sep] = stage_codes[stage_of_axis[any_sep]]
        elif config.sat_mode is SATMode.PARALLEL:
            sat_mult[:] = _SAT_FULL_MULTIPLIES
            sat_tested[:] = 15
            sat_cycle[:] = base_cycle + 1
            sat_code[any_sep] = stage_codes[stage_of_axis[any_sep]]
        else:  # staged (the proposal)
            sat_mult[:] = stage_costs[-1]
            sat_tested[:] = stage_sizes[-1]
            sat_cycle[:] = base_cycle + len(config.stages)
            sat_mult[any_sep] = stage_costs[stage_of_axis[any_sep]]
            sat_tested[any_sep] = stage_sizes[stage_of_axis[any_sep]]
            sat_cycle[any_sep] = base_cycle + stage_of_axis[any_sep] + 1
            sat_code[any_sep] = stage_codes[stage_of_axis[any_sep]]

        hit[idx] = ~any_sep
        exit_code[idx] = sat_code
        exit_cycle[idx] = sat_cycle
        multiplies[idx] += sat_mult
        sat_axes[idx] = sat_tested
        separating[idx[any_sep]] = axis_id[any_sep]

    outcome = BatchCascadeOutcome(
        hit=hit,
        exit_code=exit_code,
        exit_cycle=exit_cycle,
        multiplies=multiplies,
        sat_axes_tested=sat_axes,
        separating_axis=separating,
        sphere_tests=sphere_tests,
    )
    if stats is not None:
        outcome.record(stats)
    return outcome


# ----------------------------------------------------------------------
# Vectorized octree traversal
# ----------------------------------------------------------------------


@dataclass
class BatchTraversalOutcome:
    """Per-query work and verdicts for Q OBB-octree queries.

    Every array has length Q; ``exit_counts`` is ``(Q, 6)`` indexed by
    :data:`EXIT_STAGE_ORDER`.  The counts equal what the scalar
    :class:`~repro.collision.octree_cd.OBBOctreeCollider` records: only the
    tests and node visits the early-exiting traversal actually executes.
    """

    hit: np.ndarray
    node_visits: np.ndarray
    tests: np.ndarray
    multiplies: np.ndarray
    sat_axes_tested: np.ndarray
    sphere_tests: np.ndarray
    exit_counts: np.ndarray
    #: Intersection Unit busy cycles per query, filled only by
    #: ``collide(..., iu_cycles=True)`` (the CECDU pricer): the sum of
    #: ``exit_cycle`` over executed tests (multi-cycle IU), and the sum over
    #: popped nodes of max(issue index + ``exit_cycle``) (pipelined IU).
    multi_cycle_iu: Optional[np.ndarray] = None
    pipelined_iu: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.hit)

    def record(self, stats: CollisionStats, queries=None) -> None:
        """Fold (a subset of) queries into ``stats``, scalar-identically."""
        sel = slice(None) if queries is None else queries
        stats.node_visits += int(self.node_visits[sel].sum())
        stats.sram_reads += int(self.node_visits[sel].sum())
        stats.intersection_tests += int(self.tests[sel].sum())
        stats.multiplies += int(self.multiplies[sel].sum())
        stats.sat_axes_tested += int(self.sat_axes_tested[sel].sum())
        stats.sphere_tests += int(self.sphere_tests[sel].sum())
        totals = self.exit_counts[sel].sum(axis=0)
        for code, count in enumerate(totals):
            if count:
                stats.cascade_exits[EXIT_STAGE_ORDER[code].value] += int(count)

    def query_work(self):
        """Per-query ``QueryWork`` rows (the baselines' cost-model input)."""
        from repro.baselines.cpu import QueryWork

        return [
            QueryWork(node_visits=int(n), tests=int(t), hit=bool(h))
            for n, t, h in zip(self.node_visits, self.tests, self.hit)
        ]


class BatchOctreeCollider:
    """Level-synchronous batched twin of :class:`OBBOctreeCollider`.

    The scalar traverser is a FIFO BFS, so nodes pop in level order with a
    deterministic within-level order (parent order x octant order).  This
    collider therefore processes one level at a time: it gathers every
    occupied octant of every query's frontier into a single
    :func:`batch_cascade` call, then replays the early-exit bookkeeping — a
    query's first FULL-octant hit truncates its executed-test prefix exactly
    where the scalar ``break`` would, and anything past the truncation point
    is neither counted nor expanded (the vectorized evaluation of those
    pairs is discarded work, which is the batching trade-off).
    """

    def __init__(self, octree: Octree, config: CascadeConfig = DEFAULT_CASCADE):
        self.octree = octree
        self.config = config
        # The octree's shared read-only node table: built once per octree,
        # so every collider over it costs no per-node Python work.
        self._states = octree.states
        self._children = octree.children

    def collide(
        self, obbs: BatchOBBs, need_work: bool = True, iu_cycles: bool = False
    ) -> BatchTraversalOutcome:
        """All Q queries against the octree; per-query verdicts and work.

        ``need_work=False`` runs the verdict-only traversal: identical
        ``hit`` bits, zeroed work arrays, and none of the per-level
        bincount/prefix bookkeeping (used by the engines when stats
        collection is off).  ``iu_cycles=True`` also fills the outcome's
        ``multi_cycle_iu``/``pipelined_iu`` sums, which the CECDU pricer
        (:meth:`repro.accel.cecdu.CECDUModel.simulate_poses`) turns into
        cycles; it needs the work bookkeeping, so it requires ``need_work``.
        """
        if not need_work:
            if iu_cycles:
                raise ValueError("iu_cycles=True needs need_work=True")
            return self._collide_hits_only(obbs)
        q_total = len(obbs)
        hit = np.zeros(q_total, dtype=bool)
        node_visits = np.zeros(q_total, dtype=np.int64)
        tests = np.zeros(q_total, dtype=np.int64)
        multiplies = np.zeros(q_total, dtype=np.int64)
        sat_axes = np.zeros(q_total, dtype=np.int64)
        sphere_tests = np.zeros(q_total, dtype=np.int64)
        exit_counts = np.zeros((q_total, len(EXIT_STAGE_ORDER)), dtype=np.int64)
        if iu_cycles:
            multi_cycle_iu = np.zeros(q_total, dtype=np.int64)
            pipelined_iu = np.zeros(q_total, dtype=np.int64)
        else:
            multi_cycle_iu = pipelined_iu = None

        bounds = self.octree.bounds
        # Frontier arrays, sorted by query id, FIFO order within each query.
        f_query = np.arange(q_total, dtype=np.int64)
        f_addr = np.zeros(q_total, dtype=np.int64)
        f_center = np.broadcast_to(
            np.asarray(bounds.center, dtype=float), (q_total, 3)
        ).copy()
        f_half = np.broadcast_to(
            np.asarray(bounds.half_extents, dtype=float), (q_total, 3)
        ).copy()
        full_code = int(OctantState.FULL)
        partial_code = int(OctantState.PARTIAL)

        while len(f_query):
            node_states = self._states[f_addr]  # (F, 8)
            # Candidate tests: occupied octants, frontier-major / octant-minor
            # — exactly the scalar pop + occupied_octants() order.
            cand_f, cand_oct = np.nonzero(node_states)
            cand_q = f_query[cand_f]
            cand_state = node_states[cand_f, cand_oct]
            quarter = f_half[cand_f] / 2.0
            cand_center = f_center[cand_f] + _OCTANT_SIGNS[cand_oct] * quarter

            result = batch_cascade(
                obbs, cand_center, quarter, self.config, obb_index=cand_q
            )

            # First FULL-octant hit per query ends that query's traversal.
            n_cand = len(cand_q)
            stop_key = np.flatnonzero(result.hit & (cand_state == full_code))
            stop_of_query = np.full(q_total, n_cand, dtype=np.int64)
            stopped_q, first = np.unique(cand_q[stop_key], return_index=True)
            stop_of_query[stopped_q] = stop_key[first]
            hit[stopped_q] = True

            # Executed prefix: candidates at or before their query's stop.
            # Queries are contiguous blocks in candidate order, so a global
            # index comparison realizes the per-query prefix.
            executed = np.arange(n_cand) <= stop_of_query[cand_q]
            exec_q = cand_q[executed]
            tests += np.bincount(exec_q, minlength=q_total)
            multiplies += np.bincount(
                exec_q, weights=result.multiplies[executed], minlength=q_total
            ).astype(np.int64)
            sat_axes += np.bincount(
                exec_q, weights=result.sat_axes_tested[executed], minlength=q_total
            ).astype(np.int64)
            sphere_tests += np.bincount(
                exec_q, weights=result.sphere_tests[executed], minlength=q_total
            ).astype(np.int64)
            exit_counts += np.bincount(
                exec_q * len(EXIT_STAGE_ORDER) + result.exit_code[executed],
                minlength=q_total * len(EXIT_STAGE_ORDER),
            ).reshape(q_total, len(EXIT_STAGE_ORDER))

            # Node pops: every frontier node up to (and including) the stop
            # candidate's node; all of them when the query never stops.
            f_count = np.bincount(f_query, minlength=q_total)
            f_start = np.concatenate(([0], np.cumsum(f_count)))[:-1]
            visits = f_count.copy()
            visits[stopped_q] = cand_f[stop_key[first]] - f_start[stopped_q] + 1
            node_visits += visits

            if iu_cycles and len(exec_q):
                exec_cycle = result.exit_cycle[executed]
                multi_cycle_iu += np.bincount(
                    exec_q, weights=exec_cycle, minlength=q_total
                ).astype(np.int64)
                # Executed tests of one popped node are a contiguous run in
                # candidate order; a test's issue index is its offset from
                # its node's first candidate.
                exec_f = cand_f[executed]
                finish = (
                    np.flatnonzero(executed)
                    - np.searchsorted(cand_f, exec_f)
                    + exec_cycle
                )
                runs = np.flatnonzero(np.diff(exec_f, prepend=-1))
                pipelined_iu += np.bincount(
                    f_query[exec_f[runs]],
                    weights=np.maximum.reduceat(finish, runs),
                    minlength=q_total,
                ).astype(np.int64)

            # Next frontier: executed PARTIAL hits of still-running queries.
            expand = (
                executed
                & result.hit
                & (cand_state == partial_code)
                & (stop_of_query[cand_q] == n_cand)
            )
            f_query = cand_q[expand]
            f_addr = self._children[f_addr[cand_f[expand]], cand_oct[expand]]
            f_center = cand_center[expand]
            f_half = quarter[expand]

        return BatchTraversalOutcome(
            hit=hit,
            node_visits=node_visits,
            tests=tests,
            multiplies=multiplies,
            sat_axes_tested=sat_axes,
            sphere_tests=sphere_tests,
            exit_counts=exit_counts,
            multi_cycle_iu=multi_cycle_iu,
            pipelined_iu=pipelined_iu,
        )

    def _collide_hits_only(self, obbs: BatchOBBs) -> BatchTraversalOutcome:
        """Verdict-only twin of :meth:`collide`.

        ``hit`` is monotone (a FULL-octant hit is final and deeper
        traversal can never clear it), so the scalar early-exit prefix
        bookkeeping is irrelevant to verdicts: pruning a stopped query's
        PARTIAL expansions with ``~hit`` yields the same final bits while
        skipping every per-level bincount.  Work arrays come back zeroed.
        """
        q_total = len(obbs)
        hit = np.zeros(q_total, dtype=bool)

        bounds = self.octree.bounds
        f_query = np.arange(q_total, dtype=np.int64)
        f_addr = np.zeros(q_total, dtype=np.int64)
        f_center = np.broadcast_to(
            np.asarray(bounds.center, dtype=float), (q_total, 3)
        )
        f_half = np.broadcast_to(
            np.asarray(bounds.half_extents, dtype=float), (q_total, 3)
        )
        full_code = int(OctantState.FULL)
        partial_code = int(OctantState.PARTIAL)

        while len(f_query):
            node_states = self._states[f_addr]  # (F, 8)
            cand_f, cand_oct = np.nonzero(node_states)
            cand_q = f_query[cand_f]
            cand_state = node_states[cand_f, cand_oct]
            quarter = f_half[cand_f] / 2.0
            cand_center = f_center[cand_f] + _OCTANT_SIGNS[cand_oct] * quarter

            result = batch_cascade(
                obbs,
                cand_center,
                quarter,
                self.config,
                obb_index=cand_q,
                need_work=False,
            )

            hit[cand_q[result.hit & (cand_state == full_code)]] = True
            expand = (
                result.hit & (cand_state == partial_code) & ~hit[cand_q]
            )
            f_query = cand_q[expand]
            f_addr = self._children[f_addr[cand_f[expand]], cand_oct[expand]]
            f_center = cand_center[expand]
            f_half = quarter[expand]

        zeros = np.zeros(q_total, dtype=np.int64)
        return BatchTraversalOutcome(
            hit=hit,
            node_visits=zeros,
            tests=zeros,
            multiplies=zeros,
            sat_axes_tested=zeros,
            sphere_tests=zeros,
            exit_counts=np.zeros(
                (q_total, len(EXIT_STAGE_ORDER)), dtype=np.int64
            ),
        )

    def certify_disjoint(self, sphere_center, sphere_radius, lo, hi) -> np.ndarray:
        """Prove per-query bounding volumes disjoint from every FULL octant.

        Each of the Q queries is a conservative bound — a sphere
        (``sphere_center``/``sphere_radius``) **and** an AABB (``lo``/``hi``);
        the certified volume is their intersection.  The traversal descends
        only into occupied octants whose box overlaps *both* bounds (overlap
        tests are inclusive, so tangency counts as overlap) and returns a
        ``(Q,)`` boolean mask: ``True`` means no FULL octant anywhere in the
        tree touches the query's bound.

        This is the motion prefilter's primitive: the exact cascade can only
        report a collision against a FULL octant whose box intersects a link
        OBB, every such octant's ancestors also intersect the OBB's bounds
        (child boxes nest), and the scalar/batch traversals reach octants
        only through intersecting PARTIAL ancestors — so a certified query's
        volume provably produces a collision-free verdict under the exact
        path.  No :class:`~repro.collision.stats.CollisionStats` are charged:
        certification is a shortcut *around* the priced cascade, and its
        savings are reported through separate prefilter counters.
        """
        sphere_center = np.asarray(sphere_center, dtype=float).reshape(-1, 3)
        sphere_radius = np.asarray(sphere_radius, dtype=float).reshape(-1)
        lo = np.asarray(lo, dtype=float).reshape(-1, 3)
        hi = np.asarray(hi, dtype=float).reshape(-1, 3)
        q_total = len(sphere_radius)
        certified = np.ones(q_total, dtype=bool)

        bounds = self.octree.bounds
        f_query = np.arange(q_total, dtype=np.int64)
        f_addr = np.zeros(q_total, dtype=np.int64)
        f_center = np.broadcast_to(
            np.asarray(bounds.center, dtype=float), (q_total, 3)
        )
        f_half = np.broadcast_to(
            np.asarray(bounds.half_extents, dtype=float), (q_total, 3)
        )
        full_code = int(OctantState.FULL)
        partial_code = int(OctantState.PARTIAL)
        radius_sq = sphere_radius * sphere_radius

        while len(f_query):
            node_states = self._states[f_addr]  # (F, 8)
            cand_f, cand_oct = np.nonzero(node_states)
            cand_q = f_query[cand_f]
            cand_state = node_states[cand_f, cand_oct]
            quarter = f_half[cand_f] / 2.0
            cand_center = f_center[cand_f] + _OCTANT_SIGNS[cand_oct] * quarter

            box_lo = cand_center - quarter
            box_hi = cand_center + quarter
            overlap = np.all((lo[cand_q] <= box_hi) & (hi[cand_q] >= box_lo), axis=1)
            gap = np.abs(sphere_center[cand_q] - cand_center) - quarter
            np.maximum(gap, 0.0, out=gap)
            overlap &= np.einsum("ij,ij->i", gap, gap) <= radius_sq[cand_q]

            certified[cand_q[overlap & (cand_state == full_code)]] = False

            expand = overlap & (cand_state == partial_code) & certified[cand_q]
            f_query = cand_q[expand]
            f_addr = self._children[f_addr[cand_f[expand]], cand_oct[expand]]
            f_center = cand_center[expand]
            f_half = quarter[expand]

        return certified


# ----------------------------------------------------------------------
# Vectorized OBB generation (forward kinematics + quantization)
# ----------------------------------------------------------------------


def batch_forward_kinematics(
    robot: RobotModel, poses, scratch: Optional[SoAScratch] = None
) -> np.ndarray:
    """World frames for a pose batch: ``(N, dof+1, 4, 4)``.

    ``frames[:, 0]`` is the base frame; ``frames[:, i]`` for i >= 1 follows
    joints 1..i.  The chain multiplies stacked 4x4 matrices in the same
    left-to-right order as :func:`repro.robot.dh.chain_forward_kinematics`,
    and stacked matmul matches the scalar 2-D ``@`` bit-for-bit, so these
    frames equal the scalar FK exactly.  With ``scratch`` the frame stack
    and DH step buffer are persistent views (see :class:`SoAScratch` for
    the lifetime contract); the arithmetic — and therefore the bits — is
    unchanged, only the allocations go away.
    """
    poses = np.asarray(poses, dtype=float)
    if poses.ndim != 2 or poses.shape[1] != robot.dof:
        raise ValueError(
            f"poses must have shape (n, {robot.dof}), got {poses.shape}"
        )
    n = len(poses)
    if scratch is None:
        frames = np.empty((n, robot.dof + 1, 4, 4))
        step = np.empty((n, 4, 4))
    else:
        frames = scratch.array("fk.frames", n, (robot.dof + 1, 4, 4))
        step = scratch.array("fk.step", n, (4, 4))
    # Every iteration writes the same ten step entries; the rest stay zero.
    step[:] = 0.0
    frames[:, 0] = robot.base.matrix
    for i, param in enumerate(robot.dh):
        th = poses[:, i] + param.theta_offset
        ct, st = np.cos(th), np.sin(th)
        ca, sa = math.cos(param.alpha), math.sin(param.alpha)
        step[:, 0, 0] = ct
        step[:, 0, 1] = -st * ca
        step[:, 0, 2] = st * sa
        step[:, 0, 3] = param.a * ct
        step[:, 1, 0] = st
        step[:, 1, 1] = ct * ca
        step[:, 1, 2] = -ct * sa
        step[:, 1, 3] = param.a * st
        step[:, 2, 1] = sa
        step[:, 2, 2] = ca
        step[:, 2, 3] = param.d
        step[:, 3, 3] = 1.0
        np.matmul(frames[:, i], step, out=frames[:, i + 1])
    return frames


def batch_quantize_obbs(
    center: np.ndarray,
    half: np.ndarray,
    rot: np.ndarray,
    fmt: FixedPointFormat = DEFAULT_FORMAT,
    rot_fmt: FixedPointFormat = ROTATION_FORMAT,
):
    """Array twin of :func:`repro.geometry.fixed_point.quantize_obb`.

    Centers round to nearest (ties to even, like Python ``round``), half
    extents round *up* with a one-LSB floor (quantization must never shrink
    a robot link), rotations use the dedicated all-fractional format.
    """
    raw_max = 2 ** (fmt.total_bits - 1) - 1
    raw_min = -(2 ** (fmt.total_bits - 1))
    inv = 1.0 / fmt.scale
    q_center = np.clip(np.rint(center * fmt.scale), raw_min, raw_max) * inv
    q_half = np.clip(np.ceil(half * fmt.scale), 1, raw_max) * inv
    r_max = 2 ** (rot_fmt.total_bits - 1) - 1
    r_min = -(2 ** (rot_fmt.total_bits - 1))
    r_inv = 1.0 / rot_fmt.scale
    q_rot = np.clip(np.rint(rot * rot_fmt.scale), r_min, r_max) * r_inv
    return q_center + 0.0, q_half, q_rot + 0.0


def batch_link_obbs(
    robot: RobotModel,
    poses,
    fixed_point: Optional[FixedPointFormat] = DEFAULT_FORMAT,
    rot_fmt: FixedPointFormat = ROTATION_FORMAT,
    scratch: Optional[SoAScratch] = None,
) -> BatchOBBs:
    """Link OBBs for every pose, flattened pose-major: ``N * num_links`` rows.

    Row ``i * num_links + j`` is link j at pose i — the tensor layout every
    downstream batch stage assumes.  This is the vectorized twin of
    ``RobotEnvironmentChecker.link_obbs`` (FK, local box placement, then
    fixed-point quantization when ``fixed_point`` is given).  With
    ``scratch`` the FK stack and the SoA center/half/rotation intermediates
    are persistent buffers; when ``fixed_point`` is ``None`` the returned
    arrays alias them (see :class:`SoAScratch`), while the default
    quantized path always returns fresh arrays.
    """
    frames = batch_forward_kinematics(robot, poses, scratch=scratch)
    n = len(frames)
    n_links = robot.num_links
    if scratch is None:
        centers = np.empty((n, n_links, 3))
        halves = np.empty((n, n_links, 3))
        rots = np.empty((n, n_links, 3, 3))
        pose = np.empty((n, 4, 4))
    else:
        centers = scratch.array("obb.centers", n, (n_links, 3))
        halves = scratch.array("obb.halves", n, (n_links, 3))
        rots = scratch.array("obb.rots", n, (n_links, 3, 3))
        pose = scratch.array("obb.pose", n, (4, 4))
    for j, link in enumerate(robot.links):
        np.matmul(frames[:, link.frame_index], link.local.matrix, out=pose)
        centers[:, j] = pose[:, :3, 3]
        rots[:, j] = pose[:, :3, :3]
        halves[:, j] = np.asarray(link.half_extents, dtype=float)
    centers = centers.reshape(-1, 3)
    halves = halves.reshape(-1, 3)
    rots = rots.reshape(-1, 3, 3)
    if fixed_point is not None:
        centers, halves, rots = batch_quantize_obbs(
            centers, halves, rots, fixed_point, rot_fmt
        )
    return BatchOBBs.from_arrays(centers, halves, rots)


# ----------------------------------------------------------------------
# Pose-batch evaluation (the backend behind RobotEnvironmentChecker)
# ----------------------------------------------------------------------


@dataclass
class BatchPoseOutcome:
    """Verdicts and per-pose work for an N-pose batch.

    ``links_checked[i]`` is how many link queries the scalar checker would
    have executed at pose i (early exit after the first colliding link); the
    per-pose stat arrays already account only those executed links.
    """

    hits: np.ndarray
    links_checked: np.ndarray
    node_visits: np.ndarray
    tests: np.ndarray
    multiplies: np.ndarray
    sat_axes_tested: np.ndarray
    sphere_tests: np.ndarray
    exit_counts: np.ndarray  # (N, 6)

    def __len__(self) -> int:
        return len(self.hits)

    def record(self, stats: CollisionStats, poses=None) -> None:
        """Fold (a prefix or subset of) poses into ``stats``.

        Does *not* touch ``pose_checks``/``motion_checks`` — the caller owns
        the query-level counters, mirroring how the scalar checker splits
        responsibility between ``check_pose`` and the collider.
        """
        sel = slice(None) if poses is None else poses
        stats.node_visits += int(self.node_visits[sel].sum())
        stats.sram_reads += int(self.node_visits[sel].sum())
        stats.intersection_tests += int(self.tests[sel].sum())
        stats.multiplies += int(self.multiplies[sel].sum())
        stats.sat_axes_tested += int(self.sat_axes_tested[sel].sum())
        stats.sphere_tests += int(self.sphere_tests[sel].sum())
        totals = self.exit_counts[sel].sum(axis=0)
        for code, count in enumerate(totals):
            if count:
                stats.cascade_exits[EXIT_STAGE_ORDER[code].value] += int(count)


class BatchPoseEvaluator:
    """Vectorized robot-vs-environment pose checking.

    One ``evaluate`` call runs the whole pipeline — batched FK, quantized
    OBB generation, and the batched octree traversal for all ``N x L`` link
    queries — then replays the scalar checker's per-pose link early exit so
    the recorded work matches ``RobotEnvironmentChecker.check_pose`` run N
    times.

    The evaluator uses a persistent :class:`SoAScratch`, so the large FK
    and OBB intermediates are reused across phases instead of re-allocated
    per call.  Outputs never alias the scratch in the default quantized
    configuration; with ``fixed_point=None`` they do (see the scratch
    lifetime contract).  Pass ``scratch`` to share one instance with other
    SoA consumers (the checker shares its scratch between this pipeline
    and the planners' :class:`~repro.planning.nodestore.NodeStore`
    temporaries); by default the evaluator owns a fresh one.
    """

    def __init__(
        self,
        robot: RobotModel,
        octree: Octree,
        config: CascadeConfig = DEFAULT_CASCADE,
        fixed_point: Optional[FixedPointFormat] = DEFAULT_FORMAT,
        scratch: Optional[SoAScratch] = None,
    ):
        self.robot = robot
        self.collider = BatchOctreeCollider(octree, config)
        self.fixed_point = fixed_point
        self.scratch = scratch if scratch is not None else SoAScratch()

    def link_obbs(self, poses) -> BatchOBBs:
        """Quantized link OBBs for the batch, pose-major (``N * L`` rows)."""
        return batch_link_obbs(
            self.robot, poses, self.fixed_point, scratch=self.scratch
        )

    def evaluate(self, poses, need_work: bool = True) -> BatchPoseOutcome:
        """Check every pose; collision verdicts plus scalar-identical work.

        ``need_work=False`` returns identical ``hits``/``links_checked``
        but zeroed per-pose work arrays, skipping the traversal
        bookkeeping and the executed-link fold entirely (the outcome must
        then never be ``record``-ed — callers gate on stats collection).
        """
        poses = np.asarray(poses, dtype=float)
        if poses.ndim == 1:
            poses = poses[None, :]
        n = len(poses)
        n_links = self.robot.num_links
        trav = self.collider.collide(self.link_obbs(poses), need_work=need_work)

        link_hits = trav.hit.reshape(n, n_links)
        hits = link_hits.any(axis=1)
        first_hit = np.argmax(link_hits, axis=1)
        links_checked = np.where(hits, first_hit + 1, n_links)
        if not need_work:
            zeros = np.zeros(n, dtype=np.int64)
            return BatchPoseOutcome(
                hits=hits,
                links_checked=links_checked,
                node_visits=zeros,
                tests=zeros,
                multiplies=zeros,
                sat_axes_tested=zeros,
                sphere_tests=zeros,
                exit_counts=np.zeros(
                    (n, len(EXIT_STAGE_ORDER)), dtype=np.int64
                ),
            )
        # Executed-link mask: the scalar checker stops after the first
        # colliding link, so later links contribute no work.
        executed = np.arange(n_links) < links_checked[:, None]

        def fold(per_query: np.ndarray) -> np.ndarray:
            return (per_query.reshape(n, n_links) * executed).sum(axis=1)

        exit_counts = (
            trav.exit_counts.reshape(n, n_links, len(EXIT_STAGE_ORDER))
            * executed[:, :, None]
        ).sum(axis=1)
        return BatchPoseOutcome(
            hits=hits,
            links_checked=links_checked,
            node_visits=fold(trav.node_visits),
            tests=fold(trav.tests),
            multiplies=fold(trav.multiplies),
            sat_axes_tested=fold(trav.sat_axes_tested),
            sphere_tests=fold(trav.sphere_tests),
            exit_counts=exit_counts,
        )
