"""Greedy shortcutting / lazy vertex contraction (path optimization).

Section 2.1: "in a greedy shortcutting algorithm, linear motions between p2
and {p3, ..., pN} are checked for collision.  If a motion from p2 to pi is
collision-free, poses p3..pi-1 are considered redundant."  Each anchor's
candidate set is recorded as one CONNECTIVITY phase, since the scheduler may
stop at the first collision-free motion — this is the workload that makes
the connectivity function mode useful (Section 7.1.1).  The fan-out is
already batch-shaped: under :class:`~repro.planning.engine.BatchedEngine`
each anchor's whole candidate set resolves in one vectorized dispatch, and
in a SAS replay of the recorded trace it is exactly the inter-motion
parallel phase SAS exploits.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.planning.queries import CDQuery, drive_queries
from repro.planning.recorder import CDTraceRecorder


def greedy_shortcut(
    path: List[np.ndarray],
    recorder: CDTraceRecorder,
    label: str = "shortcut",
) -> List[np.ndarray]:
    """Remove redundant intermediate poses by greedy contraction.

    For each anchor pose, candidate far-to-near connections are tested until
    one is collision-free; all poses between the anchor and the connected
    pose are dropped.  The input path is not modified.
    """
    return drive_queries(shortcut_steps(path, label=label), recorder)


def shortcut_steps(path: List[np.ndarray], label: str = "shortcut"):
    """Generator form of :func:`greedy_shortcut` (yields :class:`CDQuery`)."""
    if len(path) <= 2:
        # Trivial paths get the same per-waypoint normalization as the
        # general branch below — callers must never observe integer-dtype
        # (or otherwise unnormalized) waypoints just because the path was
        # too short to shortcut.
        return [np.asarray(q, dtype=float) for q in path]
    result = [np.asarray(q, dtype=float) for q in path]
    anchor = 0
    while anchor < len(result) - 2:
        # Candidates from the far end down to (but excluding) the neighbor.
        candidate_indices = list(range(len(result) - 1, anchor + 1, -1))
        targets = [result[k] for k in candidate_indices]
        found = yield CDQuery.connectivity(result[anchor], targets, label)
        if found is not None:
            connected = candidate_indices[found]
            if connected > anchor + 1:
                del result[anchor + 1 : connected]
        anchor += 1
    return result
