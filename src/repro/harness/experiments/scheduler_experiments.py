"""Scheduler experiments: Figures 1b, 7, 15, and 16.

These measure the coarse-grained parallelism story: how scheduling policy,
CDU count, and inter-motion group size trade speedup against redundant
collision detection work.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.accel.cecdu import CECDUModel
from repro.accel.config import CECDUConfig, SASConfig
from repro.accel.limit import limit_study
from repro.accel.sas import SASSimulator
from repro.harness.experiments.context import Experiment, ExperimentContext
from repro.harness.traces import QueryTrace
from repro.planning.motion import CDPhase


def _group_traces_by_benchmark(traces: Sequence[QueryTrace]) -> Dict[int, List[CDPhase]]:
    grouped: Dict[int, List[CDPhase]] = {}
    for trace in traces:
        grouped.setdefault(trace.benchmark_index, []).extend(trace.phases)
    return grouped


def _run_policy_with_cecdu(
    ctx: ExperimentContext,
    policy: str,
    n_cdus: int,
    group_size: int = 16,
    step_size: int = 8,
    multi_motion_only: bool = False,
) -> Dict[str, float]:
    """Total cycles/tests/energy for one scheduler config over the Baxter
    suite, using the CECDU latency model (per-benchmark octrees).

    ``multi_motion_only`` restricts the workload to phases with more than
    one motion — the population where inter-motion parallelism can act at
    all (used by the Figure 16 group-size sweep).
    """
    grouped = _group_traces_by_benchmark(ctx.baxter_traces())
    if multi_motion_only:
        grouped = {
            index: [p for p in phases if len(p.motions) > 1]
            for index, phases in grouped.items()
        }
        grouped = {index: phases for index, phases in grouped.items() if phases}
    benchmarks = {b.index: b for b in ctx.baxter_benchmarks()}
    totals = {"cycles": 0.0, "tests": 0.0, "energy_pj": 0.0}
    for index, phases in grouped.items():
        benchmark = benchmarks[index]
        cecdu = _cecdu_for(ctx, benchmark)
        sim = SASSimulator(
            n_cdus=n_cdus,
            policy=policy,
            config=SASConfig(
                policy=policy, step_size=step_size, group_size=group_size
            ),
            latency_model=cecdu.sas_latency_model(),
        )
        cecdu.prime(phases)
        result = sim.run_phases(phases)
        totals["cycles"] += result.cycles
        totals["tests"] += result.tests
        totals["energy_pj"] += result.energy_pj
    return totals


def _cecdu_for(ctx: ExperimentContext, benchmark) -> CECDUModel:
    key = f"cecdu_model_{benchmark.index}"
    if key not in ctx._cache:
        ctx._cache[key] = CECDUModel(
            benchmark.robot, benchmark.octree, CECDUConfig(n_oocds=4)
        )
    return ctx._cache[key]


def run_fig1b(ctx: ExperimentContext) -> Experiment:
    """Figure 1b: sequential vs naive parallel (small/large) vs MPAccel."""
    sequential = _run_policy_with_cecdu(ctx, "seq", 1)
    modes = [
        ("sequential", "seq", 1),
        ("parallel_small_np8", "np", 8),
        ("parallel_large_np64", "np", 64),
        ("mpaccel_mcsp16", "mcsp", 16),
    ]
    rows = []
    for label, policy, n_cdus in modes:
        totals = _run_policy_with_cecdu(ctx, policy, n_cdus)
        rows.append(
            {
                "mode": label,
                "speedup": sequential["cycles"] / max(1.0, totals["cycles"]),
                "computation": totals["tests"] / max(1.0, sequential["tests"]),
                "energy": totals["energy_pj"] / max(1.0, sequential["energy_pj"]),
            }
        )
    return Experiment(
        id="fig1b",
        title="Speedup vs computation for execution modes on ASIC hardware",
        paper_reference=(
            "Naive parallel: ~50x speedup with 3.4x computation vs sequential; "
            "MPAccel keeps computation near 1x while retaining the speedup"
        ),
        rows=rows,
        notes="Computation = collision detection tests normalized to sequential.",
    )


def run_fig7(ctx: ExperimentContext) -> Experiment:
    """Figure 7: the limit study (1-cycle CDU, zero-latency scheduler)."""
    phases: List[CDPhase] = []
    for trace in ctx.baxter_traces():
        phases.extend(trace.phases)
    points = limit_study(phases, cdu_counts=ctx.scale.cdu_counts)
    rows = [
        {
            "policy": p.policy,
            "n_cdus": p.n_cdus,
            "speedup": p.speedup,
            "normalized_tests": p.normalized_tests,
        }
        for p in points
    ]
    from repro.harness.charts import series_chart

    # Distinct first characters so the chart glyphs stay readable.
    chart_labels = {"Naive (np)": "np", "Coarse (csp)": "csp", "Single-motion (ms)": "ms", "MCSP": "mcsp"}
    chart = series_chart(
        {
            label: [
                (p.n_cdus, p.speedup) for p in points if p.policy == policy
            ]
            for label, policy in chart_labels.items()
        },
        width=56,
        height=14,
    )
    return Experiment(
        id="fig7",
        title="Limit study: scheduling policies vs CDU count",
        chart=chart,
        paper_reference=(
            "MCSP reaches ~13.5x speedup at 16 CDUs with ~10.5% extra tests; "
            "NP's tests grow ~2.4x at 16x parallelism; MS saturates early; "
            "CSP beats in-order sequential even at 1 CDU"
        ),
        rows=rows,
    )


def run_fig15(ctx: ExperimentContext) -> Experiment:
    """Figure 15: schedulers with real CECDU latencies (MCSP/NP/CSP/MP)."""
    sequential = _run_policy_with_cecdu(ctx, "seq", 1)
    rows = []
    for policy, label in (("mcsp", "MCSP"), ("np", "NP"), ("csp", "CSP"), ("ms", "MP")):
        for n_cdus in (1, 2, 4, 8, 16, 32):
            totals = _run_policy_with_cecdu(ctx, policy, n_cdus)
            rows.append(
                {
                    "policy": label,
                    "n_cdus": n_cdus,
                    "speedup": sequential["cycles"] / max(1.0, totals["cycles"]),
                    "normalized_energy": totals["tests"]
                    / max(1.0, sequential["tests"]),
                }
            )
    return Experiment(
        id="fig15",
        title="Scheduler comparison with CECDU latency model",
        paper_reference=(
            "8 CDUs: MCSP 7x speedup / +6% energy vs NP 3.7x / +83%; "
            "16 CDUs: MCSP 11.03x / +22% vs NP 6.2x / +113%; "
            "speedup saturates as CDU count approaches 32"
        ),
        rows=rows,
        notes="Energy proxied by collision detection test count (Section 7.1).",
    )


def run_fig16(ctx: ExperimentContext) -> Experiment:
    """Figure 16: group size sweep for inter-motion parallelism (8 CDUs)."""
    baseline = None
    rows = []
    for group_size in ctx.scale.group_sizes:
        totals = _run_policy_with_cecdu(
            ctx, "mcsp", 8, group_size=group_size, multi_motion_only=True
        )
        if baseline is None:
            baseline = totals
        rows.append(
            {
                "group_size": group_size,
                "normalized_runtime": totals["cycles"] / max(1.0, baseline["cycles"]),
                "normalized_energy": totals["tests"] / max(1.0, baseline["tests"]),
            }
        )
    return Experiment(
        id="fig16",
        title="Effect of inter-motion group size on runtime and energy (MCSP, 8 CDUs)",
        paper_reference=(
            "Runtime and energy both improve up to group size ~16 and degrade "
            "beyond it (connectivity-mode motions that could be discarded get "
            "scheduled)"
        ),
        rows=rows,
        notes=(
            "Normalized to group size 1, over multi-motion phases only. "
            "Deviation: our planner traces carry fewer motions per phase "
            "than the paper's full-scale MPNet runs, so the group-size "
            "benefit is weaker here; the saturation beyond ~16 and the "
            "over-grouping energy penalty reproduce."
        ),
    )
