#!/usr/bin/env python3
"""The repository benchmark: one fixed-work workload per invocation.

    python3 perfbench/run.py --workload plan_solo --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of one untraced run.
``--trace 1`` runs the workload twice from the same inputs, untraced and
then with every layer's public calls wrapped in spans, fails if the two
runs' work digests differ, and prints the per-layer metrics; the spans
are written to ``perfbench/out/``.  Either way every succeeded path is
re-validated and the last line of standard output is one JSON object.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

import time

_START = time.perf_counter()  # setup_s starts here, before `import repro`

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The seed every figure is quoted on.  Seed 7 is held out while a change
#: is written: a claimed gain must also hold on it (see README.md).
DEFAULT_SEED = 1

with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    _SPEC = json.load(_spec)
#: (name, unit) of every metric, in BENCHMARK.json's order.
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])

#: Span name whose self time each per-layer ``*_s`` metric reports.
SELF_TIME_SPANS = {
    "planning.planner_self_s": "planning.planner",
    "planning.recorder_s": "planning.recorder",
    "planning.engine_self_s": "planning.engine",
    "swept.certify_s": "swept.certify",
    "collision.checker_build_s": "collision.checker_build",
    "collision.pipeline_build_s": "collision.pipeline_build",
    "collision.fk_obb_s": "collision.fk_obb",
    "collision.octree_s": "collision.octree",
    "cache.lookup_s": "cache.lookup",
    "cache.store_s": "cache.store",
    "cache.invalidate_s": "cache.invalidate",
    "cache.adopt_s": "cache.adopt",
    "serving.flush_s": "serving.flush",
    "serving.service_self_s": "serving.service",
    "fleet.self_s": "fleet.run",
    "fleet.update_self_s": "fleet.update",
    "env.diff_s": "env.diff",
    "accel.query_self_s": "accel.query",
    "accel.sas_self_s": "accel.sas",
    "accel.cecdu_s": "accel.cecdu",
    "accel.invariants_s": "accel.invariants",
}

#: Paths whose poses validate() checks in one call.
VALIDATE_BATCH = 64

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least 10 of ``n`` samples beyond it.

    ``n`` counts independent latencies (``RunResult.independent``).
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == math.inf:
        return math.inf if rank > low or ordered[low] == math.inf else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def round_goodputs(units, size: int) -> list:
    """Succeeded per second in each consecutive round of ``size`` units.

    ``units`` are (succeeded, wall seconds) per request or per wave.
    """
    out = []
    for at in range(0, len(units), size):
        chunk = units[at : at + size]
        out.append(sum(ok for ok, _ in chunk) / sum(wall for _, wall in chunk))
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def safe_ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# Correctness


def validate(inputs, result) -> list:
    """Problems with the run's outputs (empty when all is well).

    Every succeeded path is re-checked with a checker built here, against
    the octree of the epoch it was planned in: its endpoints must equal
    the request's start and goal, and every segment must be free at the
    planner's motion resolution.
    """
    import numpy as np

    from repro import api
    from repro.collision.checker import interpolate_motion
    from repro.config import ReproConfig

    problems = []
    outcomes = result.outcomes
    succeeded = sum(1 for o in outcomes if o.success)
    failed = sum(1 for o in outcomes if not o.success)
    if len(outcomes) != len(inputs.requests) or succeeded + failed != len(inputs.requests):
        problems.append(
            f"attempted {len(inputs.requests)} != succeeded {succeeded} + failed {failed}"
        )
    config = ReproConfig(backend="batch", collect_stats=False)
    checkers = {}
    pending = {}  # env -> [(request id, path poses)], checked in one batch

    def check(env):
        batch = pending.pop(env, [])
        if not batch:
            return
        hits = checkers[env].check_poses(np.concatenate([poses for _, poses in batch]))
        at = 0
        for request_id, poses in batch:
            if hits[at : at + len(poses)].any():
                problems.append(f"{request_id}: path collides in epoch {env}")
            at += len(poses)

    for req, out in zip(inputs.requests, outcomes):
        if not out.success or out.path is None:
            continue
        checker = checkers.get(req.env)
        if checker is None:
            checker = checkers[req.env] = api.make_checker(
                inputs.robot, inputs.octrees[req.env], config
            )
        path = [np.asarray(q, dtype=float) for q in out.path]
        if not (np.array_equal(path[0], req.q_start) and np.array_equal(path[-1], req.q_goal)):
            problems.append(f"{req.request_id}: path endpoints differ from start/goal")
            continue
        poses = [interpolate_motion(a, b, checker.motion_step) for a, b in zip(path, path[1:])]
        if poses:
            pending.setdefault(req.env, []).append((req.request_id, np.concatenate(poses)))
            if len(pending[req.env]) >= VALIDATE_BATCH:
                check(req.env)
    for env in list(pending):
        check(env)
    if inputs.workload == "price_paper":
        for req, timing in zip(inputs.requests, result.totals["timings"]):
            if not (
                timing.cd_tests > 0
                and timing.cd_energy_pj > 0
                and 0 <= timing.cd_abandoned_cycles <= timing.cd_busy_cycles
            ):
                problems.append(f"{req.request_id}: implausible priced timing {timing}")
    return problems


def digest(inputs, result) -> str:
    """SHA-256 over the request list and the work each request did."""
    import numpy as np

    h = hashlib.sha256()
    for req, out in zip(inputs.requests, result.outcomes):
        path = b"" if out.path is None else np.asarray(out.path, dtype=float).tobytes()
        h.update(
            f"{req.request_id}|{req.env}|{req.seed}|{out.success}|{out.phases}|{out.poses}|".encode()
        )
        h.update(np.asarray(req.q_start, dtype=float).tobytes())
        h.update(np.asarray(req.q_goal, dtype=float).tobytes())
        h.update(hashlib.sha256(path).digest())
    h.update(json.dumps(work_totals(result), sort_keys=True).encode())
    return h.hexdigest()


def work_totals(result) -> dict:
    """The run's work counts: cache, dispatches, simulated results."""
    return {
        key: value
        for key, value in result.totals.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


# ----------------------------------------------------------------------
# Metrics


def end_to_end_metrics(result, setup_s: float, round_units: int, rss_mb: float) -> dict:
    outcomes = result.outcomes
    latencies = [o.latency_s * 1e3 if o.success else math.inf for o in outcomes]
    succeeded = sum(1 for o in outcomes if o.success)
    return {
        "setup_s": setup_s,
        "latency_ms_p50": percentile(latencies, 50.0),
        "latency_ms_tail": percentile(latencies, tail_percentile(result.independent)),
        "goodput_per_s": statistics.median(round_goodputs(result.units, round_units)),
        "success_rate": succeeded / len(outcomes),
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(tracer, result, plain):
    """Every per-layer metric of the traced run ``result``, and the root time.

    ``plain`` is the untraced run of the same inputs (for the overhead).
    Layers a workload never calls report 0.
    """
    from tracing import layer_self_seconds

    timed = layer_self_seconds(tracer, lambda tag: tag is not None and tag != "setup")
    setup = layer_self_seconds(tracer, lambda tag: tag == "setup")
    selfs, root_total = timed
    counts, totals = tracer.counts, result.totals
    metrics = {name: selfs.get(span, 0.0) for name, span in SELF_TIME_SPANS.items()}

    def count(key):
        return counts.get(key, 0)

    durations = [end - start for start, end in zip(tracer.starts, tracer.ends)]

    def wall(span_name):
        return sum(d for name, d in zip(tracer.names, durations) if name == span_name)

    drains = {}  # fleet.run span -> its shards' PlanningService.run durations
    for index, (name, parent) in enumerate(zip(tracer.names, tracer.parents)):
        if name == "serving.service" and parent >= 0 and tracer.names[parent] == "fleet.run":
            drains.setdefault(parent, []).append(durations[index])
    imbalance = [max(d) / statistics.fmean(d) for d in drains.values()]
    exits = totals.get("cascade_exits", {})
    sim_latency = totals.get("sim_latency_ms") or [0.0]
    traced_goodput = sum(o.success for o in result.outcomes) / result.wall_s
    plain_goodput = sum(o.success for o in plain.outcomes) / plain.wall_s
    cached_calls = count("accel.cecdu_cached_calls")
    metrics.update(
        {
            "planning.phases": count("planning.phases"),
            "planning.motions": count("planning.motions"),
            "planning.poses": count("planning.poses"),
            "swept.motions_tested": count("swept.motions_tested"),
            "swept.motions_certified": count("swept.motions_certified"),
            "swept.hit_ratio": safe_ratio(
                count("swept.motions_certified"), count("swept.motions_tested")
            ),
            "collision.pipeline_builds": count("collision.pipeline_builds"),
            "collision.fk_obb_poses": count("collision.fk_obb_poses"),
            "collision.octree_queries": count("collision.octree_queries"),
            "collision.node_visits": totals.get("node_visits", 0),
            "collision.intersection_tests": totals.get("intersection_tests", 0),
            "collision.early_exit_share": safe_ratio(
                exits.get("bounding_sphere", 0) + exits.get("inscribed_sphere", 0),
                sum(exits.values()),
            ),
            "cache.lookups": count("cache.lookups"),
            "cache.hit_ratio": safe_ratio(count("cache.hits"), count("cache.lookups")),
            "cache.stores": count("cache.stores"),
            "cache.invalidated": count("cache.invalidated"),
            "cache.entries_peak": totals.get("entries_peak", 0),
            "serving.dispatches": count("serving.dispatches"),
            "serving.phases_per_dispatch": safe_ratio(
                count("serving.phases"), count("serving.dispatches")
            ),
            "serving.cached_row_share": safe_ratio(
                count("serving.cached_rows"),
                count("serving.cached_rows") + count("serving.fresh_rows"),
            ),
            "serving.rounds": totals.get("rounds", 0),
            "serving.sim_ms": totals.get("sim_ms", 0.0),
            "serving.sim_wait_ms_p50": percentile(sim_latency, 50.0),
            "serving.sim_to_wall": safe_ratio(
                totals.get("sim_ms", 0.0), wall("serving.service") * 1e3
            ),
            "fleet.shard_imbalance": statistics.fmean(imbalance) if imbalance else 0.0,
            "fleet.update_s": wall("fleet.update"),
            "env.diff_regions": count("env.diff_regions"),
            "env.octree_build_s": setup[0].get("env.octree_build", 0.0),
            "accel.cecdu_calls": count("accel.cecdu_calls"),
            "accel.cecdu_hit_ratio": safe_ratio(
                cached_calls - count("accel.cecdu_calls"), cached_calls
            ),
            "accel.sim_cycles": totals.get("cd_cycles", 0),
            "accel.sim_tests": totals.get("cd_tests", 0),
            "accel.sim_energy_uj": totals.get("cd_energy_pj", 0.0) / 1e6,
            "accel.abandoned_share": safe_ratio(
                totals.get("cd_abandoned_cycles", 0), totals.get("cd_busy_cycles", 0)
            ),
            "trace.unattributed_share": safe_ratio(selfs.get("<root>", 0.0), root_total),
            "trace.overhead": safe_ratio(plain_goodput, traced_goodput) - 1.0,
        }
    )
    return metrics, root_total


def sim_totals_problems(tracer, result) -> list:
    """On price_paper: phase-level SAS sums must equal the per-trace totals."""
    problems = []
    for counter, field in (
        ("sas.cycles", "cd_cycles"),
        ("sas.tests", "cd_tests"),
        ("sas.busy_cycles", "cd_busy_cycles"),
        ("sas.abandoned_cycles", "cd_abandoned_cycles"),
    ):
        if tracer.counts.get(counter, 0) != result.totals[field]:
            problems.append(
                f"{field}: per-trace total {result.totals[field]} != "
                f"sum over SAS phases {tracer.counts.get(counter, 0)}"
            )
    energy, phases = result.totals["cd_energy_pj"], tracer.counts.get("sas.energy_pj", 0.0)
    if not math.isclose(energy, phases, rel_tol=1e-9):
        problems.append(f"cd_energy_pj: per-trace total {energy} != sum over SAS phases {phases}")
    return problems


# ----------------------------------------------------------------------
# Output


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:30s} {value:>16.6g} {unit:8s} {note}")


def summary_line(inputs, result) -> str:
    outcomes = result.outcomes
    return (
        f"requests {len(outcomes)}  succeeded {sum(o.success for o in outcomes)}  "
        f"phases {sum(o.phases for o in outcomes)}  poses {sum(o.poses for o in outcomes)}  "
        f"timed wall {result.wall_s:.3f} s  totals {work_totals(result)}"
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in _SPEC["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=_SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # One thread (steadiness rule 3): numpy, imported next, starts no BLAS pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    from tracing import Patches, Tracer

    workload = workloads.WORKLOADS[args.workload]
    imported = time.perf_counter()
    tracer = Tracer() if args.trace else None
    setups = []
    for _ in range(1 if tracer else workload.setup_repeats):
        # One set-up alive at a time, so peak_rss_mb is one set-up plus the run.
        inputs = system = None
        gc.collect()
        began = time.perf_counter()
        if tracer is not None:
            with Patches(tracer):
                root = tracer.begin("setup", "setup")
                inputs = workload.make_inputs(args.seed, args.seconds)
                tracer.end(root)
            tracer.counts.clear()  # counters describe the timed run only
        else:
            inputs = workload.make_inputs(args.seed, args.seconds)
        system = workload.build(inputs)
        workload.warmup(inputs)
        setups.append(time.perf_counter() - began)
    # Imports happen once per process; the rest of set-up is repeated and
    # its median taken, so one slow second on the host does not decide it.
    setup_s = (imported - _START) + statistics.median(setups)
    setup_rss_mb = peak_rss_mb()
    gc.collect()
    result = workload.run(inputs, system)
    run_rss_mb = peak_rss_mb()  # before validation adds its own checkers

    problems = validate(inputs, result)
    work = digest(inputs, result)
    n = len(result.outcomes)
    failed = sum(1 for o in result.outcomes if not o.success)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(summary_line(inputs, result))
    print(f"digest {work}")

    if tracer is None:
        values = end_to_end_metrics(result, setup_s, workload.round_units, run_rss_mb)
        notes = {
            "setup_s": f"(imports {imported - _START:.3f} s + median of "
            + ", ".join(f"{seconds:.3f}" for seconds in setups)
            + " s)",
            "latency_ms_tail": f"(p{tail_percentile(result.independent):g} of {n} requests"
            f" in {result.independent} independent latencies)",
            "goodput_per_s": f"(median of rounds of {workload.round_units}; whole "
            f"run {(n - failed) / result.wall_s:.4g})",
            "peak_rss_mb": f"(after set-up {setup_rss_mb:.1f})",
        }
        print_table(
            "end-to-end",
            [
                (name, values[name], unit, notes.get(name, ""))
                for name, unit in END_TO_END
            ],
        )
        units = END_TO_END
    else:
        system = workload.build(inputs)
        gc.collect()
        with Patches(tracer):
            traced = workload.run(inputs, system, tracer)
        traced_work = digest(inputs, traced)
        print(f"traced digest {traced_work}")
        if traced_work != work:
            problems.append("traced run's work digest differs from the untraced run's")
        problems += validate(inputs, traced)
        if args.workload == "price_paper":
            problems += sim_totals_problems(tracer, traced)
        values, root_total = layer_metrics(tracer, traced, result)
        print_table(
            f"per-layer (traced run, {root_total:.3f} s under request/wave roots)",
            [
                (
                    name,
                    values[name],
                    unit,
                    f"{100 * values[name] / root_total:5.1f}% of root"
                    if name in SELF_TIME_SPANS or name == "fleet.update_s"
                    else "",
                )
                for name, unit in PER_LAYER
            ],
        )
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans_path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-spans.csv.gz")
        tracer.write(spans_path)
        print(f"spans {len(tracer.names)} written to {os.path.relpath(spans_path, ROOT)}")
        units = PER_LAYER

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": n,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units
                },
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
