"""In-memory span tracer and the layer patch table for the traced run.

The program under test has no tracing of its own, so the benchmark times
each layer at its public calls: inside a :class:`Patches` block every
entry of the patch table is swapped for a wrapper that opens a span around
the original call (and, for some calls, counts what the call did); leaving
the block puts the originals back.  Spans nest strictly (one thread), so a
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Tracer:
    """Spans in parallel lists: name, start, end, parent index, root tag.

    ``root`` spans carry a tag (``"setup"``, ``"request:17"``,
    ``"wave:3"``); every nested span inherits its root's tag.  ``counts``
    holds the per-layer counters the wrappers bump.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.tags: List[str] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def begin(self, name: str, tag: Optional[str] = None) -> int:
        index = len(self.names)
        parent = self.stack[-1] if self.stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.tags.append(tag if parent < 0 else self.tags[parent])
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self.clock()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span (None at top level)."""
        return self.names[self.stack[-1]] if self.stack else None

    def spans(self) -> List[Tuple[str, float, float, int, str]]:
        return list(
            zip(self.names, self.starts, self.ends, self.parents, self.tags)
        )

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: index,name,start,end,parent,tag."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index,name,start_s,end_s,parent,tag\n")
            for index, (name, start, end, parent, tag) in enumerate(self.spans()):
                out.write(f"{index},{name},{start:.9f},{end:.9f},{parent},{tag}\n")


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= ends[index] - starts[index]
    return out


def layer_self_seconds(
    tracer: Tracer, include: Callable[[Optional[str]], bool]
) -> Tuple[Dict[str, float], float]:
    """Summed self seconds per span name, and total root duration.

    Only spans whose root tag satisfies ``include`` count; the roots' own
    self time (time under no layer span) is reported under ``"<root>"``.
    """
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    by_name: Dict[str, float] = defaultdict(float)
    root_total = 0.0
    for index, tag in enumerate(tracer.tags):
        if not include(tag):
            continue
        if tracer.parents[index] < 0:
            by_name["<root>"] += selfs[index]
            root_total += tracer.ends[index] - tracer.starts[index]
        else:
            by_name[tracer.names[index]] += selfs[index]
    return dict(by_name), root_total


# ----------------------------------------------------------------------
# Wrappers


def _wrap_call(tracer: Tracer, name: str, original, after=None):
    """A function timing ``original`` as span ``name``.

    ``after(result, args, kwargs, outermost)`` bumps counters;
    ``outermost`` is False when the call is nested in a span of the same
    name (a tiered cache calling its local tier), so such calls are
    counted once.
    """

    def wrapper(*args, **kwargs):
        outermost = tracer.parent_name() != name
        index = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(result, args, kwargs, outermost)
        return result

    wrapper.__wrapped__ = original
    return wrapper


def _wrap_generator(tracer: Tracer, name: str, original):
    """A generator function timing each resume of ``original``'s generator."""

    def wrapper(*args, **kwargs):
        inner = original(*args, **kwargs)
        value = None
        try:
            while True:
                index = tracer.begin(name)
                try:
                    item = inner.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer.end(index)
                value = yield item
        finally:
            inner.close()

    wrapper.__wrapped__ = original
    return wrapper


def _wrap_counter(tracer: Tracer, counter: str, original):
    """Count calls of ``original`` without a span (hot memo lookups)."""

    def wrapper(*args, **kwargs):
        tracer.counts[counter] += 1
        return original(*args, **kwargs)

    wrapper.__wrapped__ = original
    return wrapper


def _count(tracer: Tracer, **fns):
    """``after`` hook adding ``fn(result, args)`` to each named counter."""

    def after(result, args, kwargs, outermost):
        if not outermost:
            return
        for counter, fn in fns.items():
            tracer.counts[counter] += fn(result, args)

    return after


def _one(result, args):
    return 1


def _phase_counts(tracer: Tracer):
    def after(result, args, kwargs, outermost):
        if result is not None:
            tracer.counts["planning.phases"] += 1
            tracer.counts["planning.motions"] += len(result.motions)
            tracer.counts["planning.poses"] += result.total_poses

    return after


def _flush_counts(tracer: Tracer):
    def after(result, args, kwargs, outermost):
        _, report = result
        tracer.counts["serving.dispatches"] += 1
        tracer.counts["serving.phases"] += report.phases
        tracer.counts["serving.fresh_rows"] += report.fresh_rows
        tracer.counts["serving.cached_rows"] += report.cached_rows

    return after


def _sas_counts(tracer: Tracer):
    def after(result, args, kwargs, outermost):
        tracer.counts["sas.cycles"] += result.cycles
        tracer.counts["sas.tests"] += result.tests
        tracer.counts["sas.energy_pj"] += result.energy_pj
        tracer.counts["sas.busy_cycles"] += result.busy_cycles
        tracer.counts["sas.abandoned_cycles"] += result.abandoned_cycles

    return after


def _pose_rows(result, args):
    import numpy as np

    poses = np.asarray(args[1])
    return 1 if poses.ndim == 1 else len(poses)


def _patch_table(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every traced public call."""
    from repro.accel import invariants
    from repro.accel.cecdu import CECDUModel
    from repro.accel.mpaccel import MPAccelSimulator
    from repro.accel.sas import SASSimulator
    from repro.collision import batch
    from repro.collision.batch import BatchOctreeCollider, BatchPoseEvaluator
    from repro.collision.cache import CollisionCache, TieredCollisionCache
    from repro.collision.checker import RobotEnvironmentChecker
    from repro.env import diff
    from repro.env.octree import Octree
    from repro.planning.engine import QueryEngine
    from repro.planning.recorder import CDTraceRecorder
    from repro.planning.rrt_connect import RRTConnectPlanner
    from repro.planning.swept import SweptMotionPrefilter
    from repro.serving import fleet, service
    from repro.serving.batcher import CrossRequestBatcher
    from repro.serving.fleet import PlanningFleet
    from repro.serving.service import PlanningService

    t = tracer

    def call(name, after=None):
        return lambda original: _wrap_call(t, name, original, after)

    def classmethod_call(name, after=None):
        return lambda original: classmethod(
            _wrap_call(t, name, original.__func__, after)
        )

    lookups = _count(
        t,
        **{
            "cache.lookups": _one,
            "cache.hits": lambda result, args: result is not None,
        },
    )
    certified = _count(
        t,
        **{
            "swept.motions_tested": lambda result, args: len(args[1]),
            "swept.motions_certified": lambda result, args: int(
                (result[1] if isinstance(result, tuple) else result).sum()
            ),
        },
    )
    diff_regions = _count(t, **{"env.diff_regions": lambda result, args: len(result)})
    return [
        (RRTConnectPlanner, "plan_steps", lambda o: _wrap_generator(t, "planning.planner", o)),
        (CDTraceRecorder, "prepare", call("planning.recorder", _phase_counts(t))),
        (CDTraceRecorder, "commit", call("planning.recorder")),
        (QueryEngine, "answer", call("planning.engine")),
        (SweptMotionPrefilter, "certify_motions", call("swept.certify", certified)),
        (SweptMotionPrefilter, "certify_pose_spans", call("swept.certify", certified)),
        (RobotEnvironmentChecker, "from_config", classmethod_call("collision.checker_build")),
        (
            BatchPoseEvaluator,
            "__init__",
            call("collision.pipeline_build", _count(t, **{"collision.pipeline_builds": _one})),
        ),
        (batch, "batch_link_obbs", call("collision.fk_obb", _count(t, **{"collision.fk_obb_poses": _pose_rows}))),
        (
            BatchOctreeCollider,
            "collide",
            call("collision.octree", _count(t, **{"collision.octree_queries": lambda r, a: len(a[1])})),
        ),
        (CollisionCache, "lookup", call("cache.lookup", lookups)),
        (TieredCollisionCache, "lookup", call("cache.lookup", lookups)),
        (CollisionCache, "store", call("cache.store", _count(t, **{"cache.stores": _one}))),
        (TieredCollisionCache, "store", call("cache.store", _count(t, **{"cache.stores": _one}))),
        (
            CollisionCache,
            "invalidate_regions",
            call("cache.invalidate", _count(t, **{"cache.invalidated": lambda r, a: r})),
        ),
        (
            TieredCollisionCache,
            "invalidate_regions",
            call("cache.invalidate", _count(t, **{"cache.invalidated": lambda r, a: r})),
        ),
        (CollisionCache, "adopt", call("cache.adopt")),
        (CrossRequestBatcher, "flush", call("serving.flush", _flush_counts(t))),
        (PlanningService, "run", call("serving.service")),
        (PlanningFleet, "run", call("fleet.run")),
        (PlanningFleet, "update_environment", call("fleet.update")),
        (diff, "octree_delta_regions", call("env.diff", diff_regions)),
        (service, "octree_delta_regions", call("env.diff", diff_regions)),
        (fleet, "octree_delta_regions", call("env.diff", diff_regions)),
        (Octree, "from_scene", classmethod_call("env.octree_build")),
        (MPAccelSimulator, "run_query", call("accel.query")),
        (SASSimulator, "run", call("accel.sas", _sas_counts(t))),
        (CECDUModel, "simulate_pose", call("accel.cecdu", _count(t, **{"accel.cecdu_calls": _one}))),
        (CECDUModel, "simulate_pose_cached", lambda o: _wrap_counter(t, "accel.cecdu_cached_calls", o)),
        (invariants, "verify_sas_result", call("accel.invariants")),
    ]


class Patches:
    """Installs the patch table on entry and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        for owner, attribute, factory in _patch_table(self.tracer):
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, factory(original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()
