"""Sampling-based motion planning on top of the collision substrate.

This package provides the motion planning workload the accelerator executes:
classical planners (RRT, RRT-Connect) used for training data and fallback,
greedy shortcutting (path optimization), and an MPNet-style learning-based
planner.  Every collision query a planner issues flows through a
:class:`CDTraceRecorder`, which captures the *phases* (groups of motions plus
a scheduler function mode) and delegates answering them to a pluggable
:class:`QueryEngine` — the sequential reference or the one-dispatch
batched engine (see :mod:`repro.planning.engine`).  The SAS and MPAccel
simulators price a run by replaying its recorded phases.
"""

from repro.planning.cspace import path_length, straight_line_path
from repro.planning.engine import (
    BatchedEngine,
    PhaseAnswer,
    QueryEngine,
    SequentialEngine,
    make_engine,
)
from repro.planning.metrics import PathQuality, evaluate_path, path_smoothness
from repro.planning.motion import FunctionMode, MotionRecord, CDPhase
from repro.planning.mpnet import MPNetPlanner, PlanResult
from repro.planning.prm import PRMPlanner
from repro.planning.queries import CDQuery, drive_queries
from repro.planning.recorder import CDTraceRecorder
from repro.planning.rrt import RRTPlanner
from repro.planning.rrt_connect import RRTConnectPlanner
from repro.planning.samplers import HeuristicSampler, NeuralSampler
from repro.planning.shortcut import greedy_shortcut

#: The recorder-only planner registry: planners that can be built from a
#: bare :class:`CDTraceRecorder` with no extra scene context.  This is the
#: single source of truth for planner-name strings — the :mod:`repro.api`
#: facade and the serving layer (:class:`repro.serving.PlanningService`,
#: :class:`repro.serving.fleet.PlanningFleet`) all validate and construct
#: through it.  (``"mpnet"`` is deliberately absent: the neural planner
#: needs a sampler and a scanned point cloud.)
PLANNER_FACTORIES = {
    "rrt": RRTPlanner,
    "rrt_connect": RRTConnectPlanner,
    "prm": PRMPlanner,
}


__all__ = [
    "PLANNER_FACTORIES",
    "FunctionMode",
    "MotionRecord",
    "CDPhase",
    "CDQuery",
    "drive_queries",
    "CDTraceRecorder",
    "QueryEngine",
    "PhaseAnswer",
    "SequentialEngine",
    "BatchedEngine",
    "make_engine",
    "RRTPlanner",
    "RRTConnectPlanner",
    "PRMPlanner",
    "MPNetPlanner",
    "PlanResult",
    "HeuristicSampler",
    "NeuralSampler",
    "greedy_shortcut",
    "path_length",
    "straight_line_path",
    "PathQuality",
    "evaluate_path",
    "path_smoothness",
]
