"""The CD trace recorder: the bridge between planners and the accelerator.

Planners do not call the collision checker directly for motions; they go
through this recorder, which records each query as a :class:`CDPhase` (the
work unit the controller would have shipped to SAS) and delegates
*answering* it to a pluggable :class:`~repro.planning.engine.QueryEngine`:

- the default :class:`~repro.planning.engine.SequentialEngine` reproduces
  the early-exiting sequential semantics a CPU implementation would have;
- :class:`~repro.planning.engine.BatchedEngine` answers each phase with one
  vectorized dispatch (bit-identical verdicts and stats, faster clock).

Replaying the recorded phases through the SAS/MPAccel simulators yields the
runtime and energy numbers of Sections 7.1 and 7.4.

**Degenerate-input contract** (pinned by ``tests/test_planning_recorder.py``):
a query with no work in it — ``feasibility`` of a path with fewer than two
poses, ``connectivity`` with no targets, ``complete`` with no segments —
returns its trivial answer (``None``/``None``/``[]``), records *no* phase,
and consults neither the engine nor the checker.  Phases always contain at
least one motion.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.collision.checker import RobotEnvironmentChecker, interpolate_motion
from repro.planning.engine import PhaseAnswer, QueryEngine, SequentialEngine
from repro.planning.motion import CDPhase, FunctionMode, MotionRecord
from repro.planning.queries import CDQuery


class CDTraceRecorder:
    """Records collision-detection phases issued by a planner.

    ``engine`` selects the execution backend (default: a
    :class:`SequentialEngine` over ``checker``).  ``record=False`` keeps
    answering queries but retains no trace.
    """

    def __init__(
        self,
        checker: Optional[RobotEnvironmentChecker] = None,
        record: bool = True,
        engine: Optional[QueryEngine] = None,
    ):
        if engine is None:
            if checker is None:
                raise ValueError("CDTraceRecorder needs a checker or an engine")
            engine = SequentialEngine(checker)
        self.engine = engine
        self.checker = checker if checker is not None else engine.checker
        self.record = record
        self.phases: List[CDPhase] = []
        #: Per-phase engine answers, parallel to ``phases`` (when recording).
        self.answers: List[PhaseAnswer] = []

    # ------------------------------------------------------------------
    # Planner-facing queries
    # ------------------------------------------------------------------

    def steer(self, q_start, q_end, label: str = "steer") -> bool:
        """Is the straight motion between two poses collision-free?

        Recorded as a single-motion FEASIBILITY phase.
        """
        return self.ask(CDQuery.steer(q_start, q_end, label))

    def feasibility(
        self, path: Sequence[np.ndarray], label: str = "feasibility"
    ) -> Optional[int]:
        """Check every segment of a path; returns the first infeasible
        segment index, or None when the whole path is collision-free.

        Recorded as one FEASIBILITY phase over all segments.  A path with
        fewer than two poses is trivially feasible and records nothing.
        """
        return self.ask(CDQuery.feasibility(path, label))

    def connectivity(
        self, q_anchor, targets: Sequence[np.ndarray], label: str = "shortcut"
    ) -> Optional[int]:
        """Find the first target reachable from ``q_anchor`` by a free motion.

        Recorded as one CONNECTIVITY phase; this is the shortcutting workload
        (Section 2.1), where the scheduler may stop at the first free motion.
        An empty target set finds nothing and records nothing.
        """
        return self.ask(CDQuery.connectivity(q_anchor, targets, label))

    def complete(self, segments: Sequence[tuple], label: str = "complete") -> List[bool]:
        """Evaluate every (start, end) motion; returns per-motion collision flags.

        Recorded as one COMPLETE phase.  An empty segment list returns
        ``[]`` and records nothing.
        """
        return self.ask(CDQuery.complete(segments, label))

    # ------------------------------------------------------------------
    # The prepare / commit split (used by the serving batcher)
    # ------------------------------------------------------------------

    def prepare(self, query: CDQuery) -> Optional[CDPhase]:
        """Build the CD phase a query describes, or None when degenerate.

        Degenerate queries (feasibility of a sub-2-pose path, connectivity
        with no targets, complete with no segments) have no phase; their
        trivial answer comes from :meth:`trivial_result` and nothing is
        recorded — the same contract the planner-facing methods pin.

        Phases are assembled in the fused SoA layout: each segment is
        discretized with the same per-motion ``interpolate_motion`` call as
        before (the per-segment ``np.linspace`` association is part of the
        bit-identity contract), the blocks are concatenated into one
        ``stacked`` pose tensor, and every :class:`MotionRecord` holds a
        row-range view into it — so the batched engine can dispatch the
        whole phase without restacking a single pose.
        """
        kind = query.kind
        if kind == "steer":
            q_start, q_end = query.args
            return self._assemble_phase(
                FunctionMode.FEASIBILITY, [(q_start, q_end)], query.label
            )
        if kind == "feasibility":
            (path,) = query.args
            if len(path) < 2:
                return None
            segments = list(zip(path[:-1], path[1:]))
            return self._assemble_phase(
                FunctionMode.FEASIBILITY, segments, query.label
            )
        if kind == "connectivity":
            q_anchor, targets = query.args
            if not len(targets):
                return None
            segments = [(q_anchor, target) for target in targets]
            return self._assemble_phase(
                FunctionMode.CONNECTIVITY, segments, query.label
            )
        if kind == "complete":
            (segments,) = query.args
            if not len(segments):
                return None
            return self._assemble_phase(
                FunctionMode.COMPLETE, list(segments), query.label
            )
        raise ValueError(f"unknown query kind {kind!r}")

    def _assemble_phase(self, mode, segments, label: str) -> CDPhase:
        """Discretize segments and lay the phase out as one SoA pose block."""
        step = self.checker.motion_step
        blocks = [
            interpolate_motion(q_start, q_end, step) for q_start, q_end in segments
        ]
        counts = np.fromiter(
            (len(block) for block in blocks), dtype=np.int64, count=len(blocks)
        )
        offsets = np.zeros(len(blocks), dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        stacked = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
        motions = [
            MotionRecord(stacked[offset : offset + count], self.checker)
            for offset, count in zip(offsets.tolist(), counts.tolist())
        ]
        return CDPhase(
            mode, motions, label, stacked=stacked, offsets=offsets, counts=counts
        )

    @staticmethod
    def trivial_result(query: CDQuery):
        """The planner-facing answer of a degenerate (phase-less) query."""
        return [] if query.kind == "complete" else None

    def commit(self, query: CDQuery, phase: CDPhase, answer: PhaseAnswer):
        """Record an externally answered phase; returns the planner-facing value.

        The serving batcher answers phases outside the recorder's engine
        (one coalesced dispatch for many requests); this folds the answer
        back into the trace and converts it exactly as the synchronous
        methods do.
        """
        if self.record:
            self.phases.append(phase)
            self.answers.append(answer)
        kind = query.kind
        if kind == "steer":
            return answer.outcomes[0] is False
        if kind == "feasibility":
            return answer.first_colliding()
        if kind == "connectivity":
            return answer.first_free()
        return answer.flags()

    def ask(self, query: CDQuery):
        """Answer one query synchronously through this recorder's engine."""
        phase = self.prepare(query)
        if phase is None:
            return self.trivial_result(query)
        return self.commit(query, phase, self.engine.answer(phase))

    # ------------------------------------------------------------------
    # Trace access
    # ------------------------------------------------------------------

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def total_motions(self) -> int:
        return sum(len(phase.motions) for phase in self.phases)

    @property
    def total_poses(self) -> int:
        return sum(phase.total_poses for phase in self.phases)

    def clear(self) -> None:
        self.phases.clear()
        self.answers.clear()

    def phases_by_label(self, label: str) -> List[CDPhase]:
        return [phase for phase in self.phases if phase.label == label]
