"""The OBB Generation Unit (Figure 14a): timing and energy model.

At runtime the unit receives a pose, computes sin/cos of every joint angle
on the trig pipeline, chains the per-joint DH transforms through the matrix
multiplier, and emits one OBB per link (center + orientation from the
link's stored box size and sphere radii).  Behavioral OBB values come from
the exact robot model (see :mod:`repro.accel.trig` for why that is sound);
this module supplies the cycle and energy costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import math

import numpy as np

from repro.accel.trig import TRIG_PIPELINE_DEPTH, cos_approx, sin_approx
from repro.geometry.fixed_point import DEFAULT_FORMAT, FixedPointFormat, quantize_obb
from repro.geometry.obb import OBB
from repro.geometry.transform import RigidTransform
from repro.robot.model import RobotModel

#: Cycles for one 4x4 transform chain step on the matrix multiplier array.
MATMUL_CYCLES_PER_LINK = 2
#: Sin + cos issues per joint on the trig pipeline.
TRIG_ISSUES_PER_JOINT = 2
#: Fixed-point multiplies per link: one 4x4 matrix product (64), the OBB
#: center/orientation extraction (~24), and the trig unit's share (2 ops x
#: 8 multipliers x 5 stages amortized across links).
OBB_GEN_MULTIPLIES_PER_LINK = 64 + 24 + 80


@dataclass(frozen=True)
class OBBGenerationResult:
    """The generated OBBs plus when each became available."""

    obbs: List[OBB]
    ready_cycles: List[int]  # per-link availability time
    total_cycles: int  # when the last OBB is ready
    multiplies: int


class OBBGenerationUnit:
    """Generates the robot's link OBBs for a pose, with cycle accounting."""

    def __init__(
        self,
        robot: RobotModel,
        fixed_point: Optional[FixedPointFormat] = DEFAULT_FORMAT,
    ):
        self.robot = robot
        self.fixed_point = fixed_point

    def first_obb_latency(self) -> int:
        """Cycles until the first link's OBB is available."""
        return TRIG_PIPELINE_DEPTH + TRIG_ISSUES_PER_JOINT + MATMUL_CYCLES_PER_LINK

    def ready_cycles(self) -> List[int]:
        """The cycle each link's OBB becomes ready (the same for every pose).

        The trig pipeline issues sin/cos for joint i at cycle 2i, so joint
        i's values are ready at ``TRIG_DEPTH + 2(i+1)``; the transform chain
        then adds ``MATMUL_CYCLES_PER_LINK`` per link, serialized because
        link i's frame depends on link i-1's.
        """
        ready: List[int] = []
        chain_time = TRIG_PIPELINE_DEPTH
        for link in self.robot.links:
            joint_count = max(link.frame_index, 1)
            trig_ready = TRIG_PIPELINE_DEPTH + TRIG_ISSUES_PER_JOINT * joint_count
            chain_time = max(chain_time, trig_ready) + MATMUL_CYCLES_PER_LINK
            ready.append(chain_time)
        return ready

    def generate(self, q) -> OBBGenerationResult:
        """OBBs for pose ``q`` and the cycle each one becomes ready."""
        obbs = self.robot.link_obbs(q)
        if self.fixed_point is not None:
            obbs = [quantize_obb(obb, self.fixed_point) for obb in obbs]
        ready = self.ready_cycles()
        return OBBGenerationResult(
            obbs=obbs,
            ready_cycles=ready,
            total_cycles=ready[-1] if ready else 0,
            multiplies=OBB_GEN_MULTIPLIES_PER_LINK * len(obbs),
        )

    def generate_with_trig_unit(self, q) -> List[OBB]:
        """OBBs computed through the quintic trig approximation.

        This is what the silicon actually evaluates: the DH chain with
        ``sin_approx``/``cos_approx`` instead of exact trigonometry.  The
        behavioral simulator uses exact trig (see :mod:`repro.accel.trig`
        for why that is sound); this method exists so the equivalence can
        be *measured* rather than assumed — see the OBB generation tests.
        """
        robot = self.robot
        q = robot.validate_configuration(q)
        current = robot.base
        frames = [current]
        for param, theta in zip(robot.dh, q):
            th = float(theta) + param.theta_offset
            ct, st = cos_approx(th), sin_approx(th)
            ca, sa = math.cos(param.alpha), math.sin(param.alpha)
            matrix = np.array(
                [
                    [ct, -st * ca, st * sa, param.a * ct],
                    [st, ct * ca, -ct * sa, param.a * st],
                    [0.0, sa, ca, param.d],
                    [0.0, 0.0, 0.0, 1.0],
                ]
            )
            current = current @ RigidTransform(matrix)
            frames.append(current)
        obbs = [
            link.obb_in_world(frames[link.frame_index]) for link in robot.links
        ]
        if self.fixed_point is not None:
            obbs = [quantize_obb(obb, self.fixed_point) for obb in obbs]
        return obbs
