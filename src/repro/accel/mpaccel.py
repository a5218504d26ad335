"""End-to-end MPAccel motion planning timing (Sections 5, 7.4).

The controller runs the planner, offloading neural inference to the DNN
accelerator (12 TOPS) and collision detection to SAS + CECDUs; data moves
over a 5 GBPS bus.  Given a planner run (its :class:`PlanResult` and the
recorded CD phases), this simulator prices each component and reports the
total motion planning latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.accel.cecdu import CECDUModel
from repro.accel.config import MPAccelConfig
from repro.accel.energy import HardwareBlockLibrary
from repro.accel.sas import SASSimulator, prime_phases
from repro.accel.telemetry import MetricsRegistry
from repro.planning.motion import CDPhase
from repro.planning.mpnet import PlanResult

#: Controller instruction estimates (Section 7.4 estimates controller
#: latency "using the number of instructions"): per planning query overhead
#: plus per-motion marshalling work.
CONTROLLER_INSTRUCTIONS_PER_QUERY = 2000
CONTROLLER_INSTRUCTIONS_PER_MOTION = 60

#: Bytes shipped per motion descriptor: start pose + per-step delta (16-bit
#: per DOF each) + pose count and mode header.
def _motion_bytes(dof: int) -> int:
    return 2 * (2 * dof) + 4


@dataclass
class MotionPlanningTiming:
    """Latency breakdown of one motion planning query on MPAccel."""

    collision_detection_s: float
    nn_inference_s: float
    io_s: float
    controller_s: float
    cd_cycles: int = 0
    cd_tests: int = 0
    cd_energy_pj: float = 0.0
    phase_count: int = 0
    #: CDU-cycles inside the measured windows (stop-boundary truncated) and
    #: the in-flight remainder abandoned at early stops — mirrors
    #: ``SASResult`` so telemetry and timing reports agree.
    cd_busy_cycles: int = 0
    cd_abandoned_cycles: int = 0
    #: Poses resolved through one vectorized ``check_poses`` dispatch before
    #: simulation (0 unless a ``backend="batch"`` checker is attached).
    primed_poses: int = 0

    @property
    def total_s(self) -> float:
        return (
            self.collision_detection_s
            + self.nn_inference_s
            + self.io_s
            + self.controller_s
        )

    @property
    def total_ms(self) -> float:
        return self.total_s * 1e3


class MPAccelSimulator:
    """Prices a recorded planner run on a full MPAccel configuration.

    Every query first prices all of its poses on the CECDU model in batched
    chunks (:meth:`~repro.accel.cecdu.CECDUModel.prime`), which gives the
    same timing as pricing them one by one.  ``checker`` (optional) is the
    collision checker that produced the phases; when it reports
    ``backend="batch"`` every query's ground truth is primed through one
    vectorized ``check_poses`` dispatch per phase before simulation
    (verdicts are bit-identical by the batch backend's contract).
    ``telemetry`` receives per-query scopes and the SAS counters;
    ``check_invariants`` audits every simulated phase.
    """

    def __init__(
        self,
        config: MPAccelConfig,
        cecdu_model: CECDUModel,
        sampler_pnet_macs: int,
        sampler_enet_macs: int,
        seed: int = 0,
        checker=None,
        telemetry: MetricsRegistry | None = None,
        check_invariants: bool = False,
        fault_injector=None,
    ):
        self.config = config
        self.cecdu_model = cecdu_model
        self.sampler_pnet_macs = sampler_pnet_macs
        self.sampler_enet_macs = sampler_enet_macs
        self.checker = checker
        self.telemetry = telemetry
        self.sas = SASSimulator(
            n_cdus=config.n_cecdus,
            policy=config.sas.policy,
            config=config.sas,
            latency_model=cecdu_model.sas_latency_model(),
            seed=seed,
            telemetry=telemetry,
            check_invariants=check_invariants,
            fault_injector=fault_injector,
        )

    # ------------------------------------------------------------------

    def nn_inference_time_s(self, macs: int) -> float:
        """DNN accelerator time: 2 ops per MAC at the configured TOPS."""
        return (2.0 * macs) / (self.config.dnn_tops * 1e12)

    def io_time_s(self, n_motions: int, dof: int) -> float:
        """Bus transfer time for a phase's motion descriptors + results."""
        payload = n_motions * _motion_bytes(dof) + n_motions  # results: 1B each
        return payload / (self.config.io_gbps * 1e9)

    def controller_time_s(self, n_motions: int) -> float:
        instructions = (
            CONTROLLER_INSTRUCTIONS_PER_QUERY
            + CONTROLLER_INSTRUCTIONS_PER_MOTION * n_motions
        )
        return instructions / (self.config.controller_ghz * 1e9)

    def run_query(
        self, result: PlanResult, phases: List[CDPhase], dof: Optional[int] = None
    ) -> MotionPlanningTiming:
        """Price one motion planning query (planner result + its CD phases)."""
        if dof is None:
            dof = self.cecdu_model.robot.dof
        clock_period_s = self.cecdu_model.config.clock_period_ns * 1e-9

        primed = 0
        if self.checker is not None and getattr(self.checker, "backend", "scalar") == "batch":
            primed = prime_phases(phases, self.checker, self.telemetry)
        # Price every pose the scheduler may probe in batched chunks, so its
        # per-pose latency lookups all hit the CECDU memo.
        self.cecdu_model.prime(phases)

        cd_cycles = 0
        cd_tests = 0
        cd_energy = 0.0
        cd_busy = 0
        cd_abandoned = 0
        io_s = 0.0
        total_motions = 0
        for phase in phases:
            sas_result = self.sas.run(phase)
            cd_cycles += sas_result.cycles
            cd_tests += sas_result.tests
            cd_energy += sas_result.energy_pj
            cd_busy += sas_result.busy_cycles
            cd_abandoned += sas_result.abandoned_cycles
            io_s += self.io_time_s(len(phase.motions), dof)
            total_motions += len(phase.motions)

        nn_s = result.nn_inferences * self.nn_inference_time_s(self.sampler_pnet_macs)
        nn_s += result.encoder_inferences * self.nn_inference_time_s(
            self.sampler_enet_macs
        )
        controller_s = self.controller_time_s(total_motions)

        timing = MotionPlanningTiming(
            collision_detection_s=cd_cycles * clock_period_s,
            nn_inference_s=nn_s,
            io_s=io_s,
            controller_s=controller_s,
            cd_cycles=cd_cycles,
            cd_tests=cd_tests,
            cd_energy_pj=cd_energy,
            phase_count=len(phases),
            cd_busy_cycles=cd_busy,
            cd_abandoned_cycles=cd_abandoned,
            primed_poses=primed,
        )
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("mpaccel.queries").inc()
            tel.counter("mpaccel.phases").inc(len(phases))
            tel.timer("mpaccel.modeled_query_s").add(timing.total_s)
        return timing

    # ------------------------------------------------------------------

    def area_mm2(self) -> float:
        return HardwareBlockLibrary.mpaccel(self.config).area_mm2

    def power_w(self) -> float:
        return HardwareBlockLibrary.mpaccel(self.config).power_mw / 1e3

    def performance_metric(self, queries_per_second: float) -> float:
        """Figure 20's metric: queries / (second x watt x mm^2)."""
        return queries_per_second / (self.power_w() * self.area_mm2())
