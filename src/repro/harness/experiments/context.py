"""Shared experiment state: benchmark suites and planner traces.

Workloads are expensive to build (planner runs, collision ground truth),
so a context builds each one lazily and caches it; every experiment that
needs "the MPNet traces on the Baxter suite" shares the same object.

Two scales are provided: ``quick`` (default; about 20 s of wall clock for
the whole figure set on a 2-core host) and ``paper`` (the full Section 6
sizes — ten environments with 100 queries each).  At paper scale,
``fig15 fig16 fig19 fig20`` took 3571 s of wall clock (peak RSS 1.8 GB) on
the same 2-core host, with the batched CECDU pricing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.harness.traces import QueryTrace, generate_mpnet_traces
from repro.harness.workloads import Benchmark, build_benchmarks
from repro.robot.presets import baxter_arm, jaco2


@dataclass(frozen=True)
class ExperimentScale:
    """Workload sizing knobs."""

    name: str
    n_envs: int
    queries_per_env: int
    random_poses: int  # population for cascade/CECDU studies
    cdu_counts: tuple
    group_sizes: tuple


QUICK = ExperimentScale(
    name="quick",
    n_envs=3,
    queries_per_env=3,
    random_poses=400,
    cdu_counts=(1, 2, 4, 8, 16, 32, 64),
    group_sizes=(1, 2, 4, 8, 16, 32, 64),
)

PAPER = ExperimentScale(
    name="paper",
    n_envs=10,
    queries_per_env=100,
    random_poses=4000,
    cdu_counts=(1, 2, 4, 8, 16, 32, 64),
    group_sizes=(1, 2, 4, 8, 16, 32, 64),
)

SCALES = {"quick": QUICK, "paper": PAPER}


@dataclass
class Experiment:
    """A reproduced table/figure: rows plus provenance."""

    id: str
    title: str
    paper_reference: str  # the claim/number the paper reports
    rows: List[Dict]
    notes: str = ""
    columns: Optional[List[str]] = None
    chart: str = ""  # optional ASCII chart rendered under the table


class ExperimentContext:
    """Lazy, cached workload provider shared by the experiment runners."""

    def __init__(self, scale: ExperimentScale = QUICK, seed: int = 2023):
        self.scale = scale
        self.seed = seed
        self._cache: Dict[str, object] = {}

    def _get(self, key: str, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # ------------------------------------------------------------------

    def jaco2_benchmarks(self) -> List[Benchmark]:
        """Jaco2 suite used by the CECDU/cascade studies (Figures 8/17/18)."""
        return self._get(
            "jaco2_benchmarks",
            lambda: build_benchmarks(
                jaco2,
                n_envs=self.scale.n_envs,
                queries_per_env=1,  # cascade studies use random poses, not queries
                seed=self.seed,
            ),
        )

    def baxter_benchmarks(self) -> List[Benchmark]:
        """Baxter suite driving the scheduler and end-to-end studies."""
        return self._get(
            "baxter_benchmarks",
            lambda: build_benchmarks(
                baxter_arm,
                n_envs=self.scale.n_envs,
                queries_per_env=self.scale.queries_per_env,
                seed=self.seed + 1,
            ),
        )

    def baxter_traces(self) -> List[QueryTrace]:
        """MPNet planner traces over the Baxter suite."""
        return self._get(
            "baxter_traces",
            lambda: generate_mpnet_traces(self.baxter_benchmarks(), seed=self.seed + 2),
        )

    def jaco2_traces(self) -> List[QueryTrace]:
        """A small Jaco2 trace set (scheduler studies on the 6-DOF robot)."""

        def build():
            benchmarks = build_benchmarks(
                jaco2,
                n_envs=self.scale.n_envs,
                queries_per_env=self.scale.queries_per_env,
                seed=self.seed + 3,
            )
            self._cache["jaco2_trace_benchmarks"] = benchmarks
            return generate_mpnet_traces(benchmarks, seed=self.seed + 4)

        return self._get("jaco2_traces", build)

    def jaco2_trace_benchmarks(self) -> List[Benchmark]:
        self.jaco2_traces()  # ensure built
        return self._cache["jaco2_trace_benchmarks"]  # type: ignore[return-value]
