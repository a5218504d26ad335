"""The three fixed-work workloads: seeded inputs, the system, the timed loop.

Every workload is a closed loop driven from one thread.  Its inputs are a
pure function of ``(seed, seconds)``: the request count is a fixed rate
per workload times ``seconds`` and is never derived from a run-time
capacity probe, and which requests share a drain is fixed by the seed.
The seed draws only the traffic.

Requests are *local re-plans*: the start is sampled collision-free,
uniform over the joint limits, and the goal is the start moved by at most
``QUERY_RADIUS`` radians per joint (resampled until collision-free).  Every
request runs RRT-Connect at the library's default budget.  Uniform
start/goal pairs over the whole joint range have a heavy tail: a few per
cent of them run for 0.1-6 s, so a run's totals would depend on how many
of those its seed drew.  Environments are the first valid scenario seeds
of each family.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import api
from repro.config import CacheConfig, EngineConfig, ReproConfig
from repro.scenarios.dsl import ScenarioSpec, build_scenario

#: Per-joint bound (radians) of a request's goal displacement from its start.
QUERY_RADIUS = 0.5
#: Robot clients of the lockstep workload (the default batch window).
ROBOTS = 8


@dataclass
class Request:
    """One planning request; ``env`` indexes ``Inputs.octrees``."""

    request_id: str
    env: int
    q_start: np.ndarray
    q_goal: np.ndarray
    seed: int


@dataclass
class Inputs:
    """Everything a run needs, generated before the clock starts.

    ``waves`` lists request indices per lockstep wave (``fleet_moving``);
    ``updates[w]`` is the octree index the fleet switches to before wave
    ``w`` (absent: no update).  ``history`` lists the waves served during
    set-up, before the timed run; a wave's requests share an epoch.  ``traces`` are the
    MPNet query traces priced by ``price_paper``: its requests price them
    in passes, request ``i`` pricing ``traces[i % len(traces)]``.
    """

    workload: str
    seed: int
    robot: object
    octrees: list
    requests: List[Request]
    warmup: Request
    waves: Optional[List[List[int]]] = None
    updates: Dict[int, int] = field(default_factory=dict)
    history: List[List[Request]] = field(default_factory=list)
    traces: Optional[list] = None
    warmup_trace: object = None


@dataclass
class Outcome:
    success: bool
    path: Optional[list]
    phases: int
    poses: int
    latency_s: float


@dataclass
class RunResult:
    """A timed run.  ``units`` holds (succeeded, wall seconds) per request,
    or per wave in the lockstep workload, in run order; goodput rounds are
    made of them.  ``independent`` counts the latencies that can differ:
    requests, waves (every request of a wave shares its latency) or
    distinct priced traces (each is priced once per pass)."""

    outcomes: List[Outcome]
    wall_s: float
    totals: Dict[str, float]
    units: List[tuple]
    independent: int


# ----------------------------------------------------------------------
# Input generation


def _scenarios(family: str, count: int, **params) -> list:
    """The first ``count`` instances of ``family`` over scenario seeds 0, 1, ...

    Environments are fixed parts of a workload and only the traffic comes
    from the workload seed, so a run's figures do not swing with how
    cluttered a freshly drawn scene happens to be.  Seeds whose scene
    buries the robot mount (no collision-free configuration in 200
    samples) raise at query sampling and are skipped.
    """
    out = []
    for scenario_seed in itertools.count():
        spec = ScenarioSpec(
            name=family, family=family, seed=scenario_seed, params={"n_queries": 1, **params}
        )
        try:
            out.append(build_scenario(spec))
        except RuntimeError:
            continue
        if len(out) == count:
            return out


def _local_queries(robot, octree, rng: np.random.Generator, n: int) -> list:
    """``n`` (start, goal) pairs: uniform free starts, goals within the radius.

    Candidates are drawn in blocks and checked in one vectorized call per
    block; the draws come only from ``rng``, so the pairs are a function
    of it.
    """
    checker = api.make_checker(
        robot, octree, ReproConfig(backend="batch", collect_stats=False)
    )
    lo, hi = robot.joint_limits[:, 0], robot.joint_limits[:, 1]
    starts = np.empty((0, robot.dof))
    while len(starts) < n:
        block = rng.uniform(lo, hi, size=(2 * (n - len(starts)) + 8, robot.dof))
        free = block[~checker.check_poses(block)]
        starts = np.concatenate([starts, free[: n - len(starts)]])
    goals = np.empty_like(starts)
    pending = np.arange(n)
    while len(pending):
        step = rng.uniform(-QUERY_RADIUS, QUERY_RADIUS, size=(len(pending), robot.dof))
        candidates = np.clip(starts[pending] + step, lo, hi)
        free = ~checker.check_poses(candidates)
        goals[pending[free]] = candidates[free]
        pending = pending[~free]
    return list(zip(starts, goals))


def _requests(prefix: str, env: int, pairs, rng: np.random.Generator) -> List[Request]:
    seeds = rng.integers(2**31, size=len(pairs))
    return [
        Request(f"{prefix}{i}", env, q_start, q_goal, int(seed))
        for i, ((q_start, q_goal), seed) in enumerate(zip(pairs, seeds))
    ]


# plan_solo -------------------------------------------------------------

PLAN_FAMILIES = ("random_cuboids", "cluttered_shelf", "narrow_passage")
PLAN_SCENES_PER_FAMILY = 4
PLAN_REQUESTS_PER_S = 280.0
#: Requests per goodput round: about a second of work.
PLAN_ROUND = 400
PLAN_CONFIG = ReproConfig(
    backend="batch",
    engine=EngineConfig(kind="batch", prefilter=True),
    collect_stats=False,
)


def plan_solo_inputs(seed: int, seconds: float) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    scenes = [
        scene
        for family in PLAN_FAMILIES
        for scene in _scenarios(family, PLAN_SCENES_PER_FAMILY)
    ]
    robot = scenes[0].robot
    octrees = [scene.octree for scene in scenes]
    n = max(len(scenes), round(PLAN_REQUESTS_PER_S * seconds))
    per_scene = [
        _requests(f"s{env}q", env, _local_queries(robot, octree, rng, -(-n // len(scenes))), rng)
        for env, octree in enumerate(octrees)
    ]
    # Round-robin over scenes, so every part of a run visits each family.
    requests = [per_scene[i % len(scenes)][i // len(scenes)] for i in range(n)]
    warmup = _requests("warmup", 0, _local_queries(robot, octrees[0], rng, 1), rng)[0]
    return Inputs("plan_solo", seed, robot, octrees, requests, warmup)


def _plan(inputs: Inputs, req: Request):
    return api.plan(
        inputs.robot,
        inputs.octrees[req.env],
        req.q_start,
        req.q_goal,
        PLAN_CONFIG,
        seed=req.seed,
    )


def plan_solo_run(inputs: Inputs, system, tracer=None) -> RunResult:
    outcomes = []
    clock = time.perf_counter
    first = clock()
    for index, req in enumerate(inputs.requests):
        span = tracer.begin("request", f"request:{index}") if tracer else None
        t0 = clock()
        out = _plan(inputs, req)
        latency = clock() - t0
        if tracer:
            tracer.end(span)
        outcomes.append(
            Outcome(
                out.success,
                out.path,
                out.recorder.num_phases,
                out.recorder.total_poses,
                latency,
            )
        )
    wall = clock() - first
    units = [(o.success, o.latency_s) for o in outcomes]
    return RunResult(outcomes, wall, {}, units, len(outcomes))


def plan_solo_warmup(inputs: Inputs) -> None:
    _plan(inputs, inputs.warmup)


# fleet_moving ----------------------------------------------------------

FLEET_WAVES_PER_S = 4.8
#: One wave in five carries an update, so at 120 waves the tail (p90, 12
#: waves beyond) is the median update wave and p50 a wave without one.
FLEET_WAVES_PER_EPOCH = 5
FLEET_EPOCHS = 16
FLEET_SHARDS = 2
#: Entries per cache tier (FIFO eviction).  The default bound (10**6) is
#: never reached, so an update, which checks every entry, would cost more
#: the more the fleet had served: across seeds the entries checked moved
#: by 22 %.  At this bound every tier is full from set-up on.
FLEET_CACHE_ENTRIES = 2048
#: Waves served during set-up, on the timed run's epoch schedule, so the
#: timed run starts with full caches whose entries have footprints, as in
#: a fleet that has been running for a while.
FLEET_HISTORY_WAVES = 15


def fleet_moving_inputs(seed: int, seconds: float) -> Inputs:
    rng = np.random.default_rng([seed, 3])
    (scene,) = _scenarios("moving_obstacles", 1, n_epochs=FLEET_EPOCHS, script="sweep")
    robot, octrees = scene.robot, list(scene.epoch_octrees)
    n_waves = max(2, round(FLEET_WAVES_PER_S * seconds))
    wave_env = [
        (w // FLEET_WAVES_PER_EPOCH) % len(octrees)
        for w in range(FLEET_HISTORY_WAVES + n_waves)
    ]
    pools = {
        env: iter(
            _requests(
                f"e{env}q", env, _local_queries(robot, octrees[env], rng, ROBOTS * wave_env.count(env)), rng
            )
        )
        for env in sorted(set(wave_env))
    }
    history = [
        [dataclasses.replace(next(pools[env]), request_id=f"h{w}r{r}") for r in range(ROBOTS)]
        for w, env in enumerate(wave_env[:FLEET_HISTORY_WAVES])
    ]
    requests: List[Request] = []
    waves: List[List[int]] = []
    updates: Dict[int, int] = {}
    for w, env in enumerate(wave_env[FLEET_HISTORY_WAVES:]):
        if env != wave_env[FLEET_HISTORY_WAVES + w - 1]:
            updates[w] = env
        wave = []
        for r in range(ROBOTS):
            wave.append(len(requests))
            requests.append(dataclasses.replace(next(pools[env]), request_id=f"w{w}r{r}"))
        waves.append(wave)
    warmup = _requests("warmup", 0, _local_queries(robot, octrees[0], rng, 1), rng)[0]
    return Inputs(
        "fleet_moving",
        seed,
        robot,
        octrees,
        requests,
        warmup,
        waves=waves,
        updates=updates,
        history=history,
    )


# The lockstep loop.


def _plan_request(req: Request):
    from repro.serving.service import PlanRequest

    return PlanRequest(
        request_id=req.request_id,
        q_start=req.q_start,
        q_goal=req.q_goal,
        seed=req.seed,
    )


def _new_fleet(inputs: Inputs):
    config = ReproConfig.for_fleet(
        n_shards=FLEET_SHARDS,
        cache=CacheConfig(enabled=True, max_entries=FLEET_CACHE_ENTRIES),
    )
    return api.make_fleet(inputs.robot, inputs.octrees[0], config)


def fleet_build(inputs: Inputs):
    """A fresh fleet that has served ``inputs.history`` and nothing else."""
    system = _new_fleet(inputs)
    env = 0
    for wave in inputs.history:
        if wave[0].env != env:
            env = wave[0].env
            system.update_environment(inputs.octrees[env])
        for req in wave:
            system.submit(_plan_request(req))
        system.run()
    return system


def fleet_warmup(inputs: Inputs) -> None:
    """One request through a throwaway fleet (warms code, not caches)."""
    system = _new_fleet(inputs)
    system.submit(_plan_request(inputs.warmup))
    system.run()


def _cache_entries(system) -> int:
    """Entries across every cache tier (local tiers plus the global one)."""
    tiers = {}
    for shard in system.shards:
        tiers[id(shard.cache.local)] = shard.cache.local
        if shard.cache.global_tier is not None:
            tiers[id(shard.cache.global_tier)] = shard.cache.global_tier
    return sum(len(tier) for tier in tiers.values())


def fleet_run(inputs: Inputs, system, tracer=None) -> RunResult:
    """Lockstep waves: submit one request per robot, then drain with run().

    ``system`` is a :class:`~repro.serving.fleet.PlanningFleet`.
    """
    outcomes: List[Optional[Outcome]] = [None] * len(inputs.requests)
    totals = {"dispatches": 0, "rounds": 0, "entries_peak": 0, "updates": 0, "dropped": 0}
    units = []
    clock = time.perf_counter
    report = None
    sim_us = sum(shard.clock_us for shard in system.shards)  # after the history
    first = clock()
    for w, wave in enumerate(inputs.waves):
        span = tracer.begin("wave", f"wave:{w}") if tracer else None
        t0 = clock()
        if w in inputs.updates:
            totals["dropped"] += system.update_environment(inputs.octrees[inputs.updates[w]])
            totals["updates"] += 1
        for index in wave:
            system.submit(_plan_request(inputs.requests[index]))
        report = system.run()
        latency = clock() - t0
        if tracer:
            tracer.end(span)
        totals["dispatches"] += report.dispatches
        totals["rounds"] += report.rounds
        totals["entries_peak"] = max(totals["entries_peak"], _cache_entries(system))
        for index in wave:
            resp = report.responses[inputs.requests[index].request_id]
            outcomes[index] = Outcome(
                resp.success,
                resp.path,
                resp.num_phases,
                resp.stats.pose_checks,
                latency,
            )
        units.append((sum(outcomes[index].success for index in wave), latency))
    wall = clock() - first
    counters = report.cache_counters or {}  # over the system's life, history included
    totals["cache_hits"] = counters.get("hits", 0)
    totals["cache_misses"] = counters.get("misses", 0)
    totals["sim_ms"] = (sum(shard.clock_us for shard in system.shards) - sim_us) / 1e3
    responses = [report.responses[req.request_id] for req in inputs.requests]
    totals["sim_latency_ms"] = [resp.completed_ms - resp.submitted_ms for resp in responses]
    totals["node_visits"] = sum(resp.stats.node_visits for resp in responses)
    totals["intersection_tests"] = sum(resp.stats.intersection_tests for resp in responses)
    exits: Dict[str, int] = {}
    for resp in responses:
        for stage, hits in resp.stats.cascade_exits.items():
            exits[stage] = exits.get(stage, 0) + hits
    totals["cascade_exits"] = exits
    return RunResult(outcomes, wall, totals, units, len(inputs.waves))


# price_paper -----------------------------------------------------------

PRICE_ENVS = 4
#: Queries recorded in set-up, 25 per environment; the last kept trace is
#: the warm-up.  Recording a trace costs about as much as pricing it
#: cold, so a run prices this fixed set in passes instead of recording
#: more.
PRICE_QUERIES = 100
#: Traces with more poses are not priced.  They are the queries where
#: MPNet re-plans many times or falls back to RRT: about one in 50 local
#: re-plans, each 1 000-10 000 poses against a median of 43.  Priced
#: every pass, one of them took longer than the rest of a seed's traces
#: together, so a run's length depended on how many its seed drew.
PRICE_MAX_POSES = 500
PRICE_PASSES_PER_S = 0.28
#: Traces per goodput round.  A few traces of a seed's set take 5-10
#: times the median; rounds this small leave most rounds without one.
PRICE_ROUND = 4


def trace_poses(trace) -> int:
    return sum(phase.total_poses for phase in trace.phases)


def _accel_config():
    from repro.accel.config import CECDUConfig, MPAccelConfig

    return MPAccelConfig(n_cecdus=16, cecdu=CECDUConfig(n_oocds=4))


def price_paper_inputs(seed: int, seconds: float) -> Inputs:
    from repro.harness.traces import generate_mpnet_traces
    from repro.harness.workloads import build_benchmarks
    from repro.robot.presets import baxter_arm

    rng = np.random.default_rng([seed, 4])
    # The harness's default Section 6 suite (its seed 2023), fixed like the
    # other workloads' environments; the batch backend records the same
    # traces as the scalar one, faster.
    benchmarks = build_benchmarks(
        baxter_arm, n_envs=PRICE_ENVS, queries_per_env=1, backend="batch"
    )
    per_env = PRICE_QUERIES // PRICE_ENVS
    benchmarks = [
        dataclasses.replace(b, queries=_local_queries(b.robot, b.octree, rng, per_env))
        for b in benchmarks
    ]
    traces = generate_mpnet_traces(benchmarks, seed=int(rng.integers(2**31)))
    # generate_mpnet_traces is environment-major; interleave environments
    # so every part of a pass prices all of them.
    order = sorted(range(len(traces)), key=lambda i: (i % per_env, i // per_env))
    *kept, warmup = [i for i in order if trace_poses(traces[i]) <= PRICE_MAX_POSES]
    queries = [benchmarks[i // per_env].queries[i % per_env] for i in kept + [warmup]]
    passes = max(1, round(PRICE_PASSES_PER_S * seconds))
    requests = [
        Request(f"p{p}t{k}", traces[i].benchmark_index, *queries[k], 0)
        for p in range(passes)
        for k, i in enumerate(kept)
    ]
    return Inputs(
        "price_paper",
        seed,
        benchmarks[0].robot,
        [b.octree for b in benchmarks],
        requests,
        Request("warmup", traces[warmup].benchmark_index, *queries[-1], 0),
        traces=[traces[i] for i in kept],
        warmup_trace=traces[warmup],
    )


def _simulators(inputs: Inputs) -> list:
    """One fresh simulator per environment: every CECDU pose memo is cold."""
    from repro.accel.cecdu import CECDUModel
    from repro.accel.mpaccel import MPAccelSimulator
    from repro.neural.mpnet_nets import ORIGINAL_ENET_MACS, ORIGINAL_PNET_MACS

    config = _accel_config()
    return [
        MPAccelSimulator(
            config,
            CECDUModel(inputs.robot, octree, config.cecdu),
            sampler_pnet_macs=ORIGINAL_PNET_MACS,
            sampler_enet_macs=ORIGINAL_ENET_MACS,
        )
        for octree in inputs.octrees
    ]


def price_paper_warmup(inputs: Inputs) -> None:
    trace = inputs.warmup_trace
    _simulators(inputs)[trace.benchmark_index].run_query(trace.result, trace.phases)


SIM_FIELDS = ("cd_cycles", "cd_tests", "cd_energy_pj", "cd_busy_cycles", "cd_abandoned_cycles")


def price_paper_run(inputs: Inputs, system, tracer=None) -> RunResult:
    """Price every trace once per pass, each pass on fresh simulators.

    Building a pass's simulators is not timed; ``wall_s`` sums the passes.
    """
    outcomes = []
    totals: Dict[str, float] = {name: 0 for name in SIM_FIELDS}
    totals["timings"] = []
    clock = time.perf_counter
    wall = 0.0
    for index, req in enumerate(inputs.requests):
        trace = inputs.traces[index % len(inputs.traces)]
        if index % len(inputs.traces) == 0:
            simulators = _simulators(inputs)
        span = tracer.begin("request", f"request:{index}") if tracer else None
        t0 = clock()
        timing = simulators[trace.benchmark_index].run_query(trace.result, trace.phases)
        latency = clock() - t0
        if tracer:
            tracer.end(span)
        wall += latency
        totals["timings"].append(timing)
        for name in SIM_FIELDS:
            totals[name] += getattr(timing, name)
        ok = timing.cd_cycles > 0 and timing.phase_count == len(trace.phases)
        outcomes.append(
            Outcome(
                ok,
                list(trace.result.path) if trace.result.success else None,
                len(trace.phases),
                sum(phase.total_poses for phase in trace.phases),
                latency,
            )
        )
    units = [(o.success, o.latency_s) for o in outcomes]
    return RunResult(outcomes, wall, totals, units, len(inputs.traces))


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """``round_units`` requests (or waves) make one goodput round.

    Set-up runs ``setup_repeats`` times and ``setup_s`` takes the median:
    three times for a set-up of about a second, which one slow second on
    the host would otherwise decide; once for ``price_paper``, whose
    set-up is about 8 s of trace recording.
    """

    name: str
    make_inputs: object
    build: object
    warmup: object
    run: object
    round_units: int
    setup_repeats: int = 3


def _no_system(inputs):
    return None


WORKLOADS = {
    "plan_solo": Workload(
        "plan_solo", plan_solo_inputs, _no_system, plan_solo_warmup, plan_solo_run, PLAN_ROUND
    ),
    "fleet_moving": Workload(
        "fleet_moving",
        fleet_moving_inputs,
        fleet_build,
        fleet_warmup,
        fleet_run,
        FLEET_WAVES_PER_EPOCH,
    ),
    "price_paper": Workload(
        "price_paper",
        price_paper_inputs,
        _no_system,
        price_paper_warmup,
        price_paper_run,
        PRICE_ROUND,
        setup_repeats=1,
    ),
}
