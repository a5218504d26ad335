"""Octree occupancy representation matching the MPAccel node encoding.

Section 5.2: each node's information word is 24 bits — occupancy state of
all eight octants plus the addresses of the child nodes for partially
occupied octants (8-bit addresses, so a hardware-resident octree holds at
most 256 nodes).  Only partially occupied octants have children; empty and
fully occupied octants terminate traversal at the parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.env.voxel import VoxelGrid
from repro.geometry.aabb import AABB

NODE_BITS = 24
CHILD_ADDRESS_BITS = 8
MAX_HARDWARE_NODES = 2**CHILD_ADDRESS_BITS


class OctantState(IntEnum):
    """Occupancy of one octant as stored in the node word."""

    EMPTY = 0
    FULL = 1
    PARTIAL = 2


@dataclass(frozen=True)
class OctreeNode:
    """One octree node: per-octant states and child addresses.

    ``children[k]`` is the node index for octant ``k`` when its state is
    PARTIAL, else ``None``.
    """

    states: Tuple[OctantState, ...]
    children: Tuple[Optional[int], ...]

    def __post_init__(self):
        if len(self.states) != 8 or len(self.children) != 8:
            raise ValueError("octree nodes have exactly 8 octants")
        for state, child in zip(self.states, self.children):
            if (state is OctantState.PARTIAL) != (child is not None):
                raise ValueError("exactly the PARTIAL octants must have children")

    def occupied_octants(self) -> Iterator[int]:
        """Indices of octants that are FULL or PARTIAL."""
        for k, state in enumerate(self.states):
            if state is not OctantState.EMPTY:
                yield k


class Octree:
    """An occupancy octree with hardware-style indexed node storage.

    ``nodes[0]`` is the root.  Node AABBs are not stored — the traverser
    derives a child's box from its parent's, as the Octree Traverser FSM
    does in hardware.
    """

    def __init__(self, nodes: List[OctreeNode], bounds: AABB, max_depth: int):
        if not nodes:
            raise ValueError("octree needs at least the root node")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.nodes = nodes
        self.bounds = bounds
        self.max_depth = max_depth
        self._table: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Flat node table (the batched traversals' view of the node words)
    # ------------------------------------------------------------------

    def _node_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Build ``(states, children)`` once; both are read-only."""
        if self._table is None:
            states = np.array([node.states for node in self.nodes], dtype=np.uint8)
            children = np.full(states.shape, -1, dtype=np.int64)
            # Exactly the PARTIAL octants have children; the boolean mask
            # and the comprehension both walk node-major, octant-minor.
            children[states == OctantState.PARTIAL] = [
                child
                for node in self.nodes
                for child in node.children
                if child is not None
            ]
            states.flags.writeable = False
            children.flags.writeable = False
            self._table = (states, children)
        return self._table

    @property
    def states(self) -> np.ndarray:
        """``(n, 8)`` uint8 octant states, row ``i`` for ``nodes[i]``."""
        return self._node_table()[0]

    @property
    def children(self) -> np.ndarray:
        """``(n, 8)`` int64 child addresses, ``-1`` where not PARTIAL."""
        return self._node_table()[1]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_voxel_grid(cls, grid: VoxelGrid, max_depth: Optional[int] = None) -> "Octree":
        """Build from a voxel grid whose resolution is a power of two.

        When ``max_depth`` is below the grid's natural depth, octants that
        are partially occupied at the depth limit are conservatively marked
        FULL (never lose an obstacle).
        """
        resolution = grid.resolution
        if resolution < 2 or resolution & (resolution - 1):
            raise ValueError(
                "octree construction needs a power-of-two resolution >= 2, "
                f"got {resolution}"
            )
        natural_depth = max(1, resolution.bit_length() - 1)
        depth = natural_depth if max_depth is None else min(max_depth, natural_depth)
        # Precompute occupancy counts with a summed-area volume so octant
        # classification is O(1) per octant.
        occ = grid.occupancy.astype(np.int64)
        prefix = np.zeros((resolution + 1,) * 3, dtype=np.int64)
        prefix[1:, 1:, 1:] = occ.cumsum(0).cumsum(1).cumsum(2)

        def count(x0, y0, z0, size):
            x1, y1, z1 = x0 + size, y0 + size, z0 + size
            return (
                prefix[x1, y1, z1]
                - prefix[x0, y1, z1]
                - prefix[x1, y0, z1]
                - prefix[x1, y1, z0]
                + prefix[x0, y0, z1]
                + prefix[x0, y1, z0]
                + prefix[x1, y0, z0]
                - prefix[x0, y0, z0]
            )

        nodes: List[Optional[OctreeNode]] = []

        def build_node(x0, y0, z0, size, level) -> int:
            """Create the node for a PARTIAL cube; returns its address."""
            address = len(nodes)
            nodes.append(None)  # reserve the slot so children get later addresses
            half = size // 2
            states: List[OctantState] = []
            children: List[Optional[int]] = []
            for k in range(8):
                ox = x0 + (half if k & 1 else 0)
                oy = y0 + (half if k & 2 else 0)
                oz = z0 + (half if k & 4 else 0)
                n_occ = count(ox, oy, oz, half)
                if n_occ == 0:
                    states.append(OctantState.EMPTY)
                    children.append(None)
                elif n_occ == half**3:
                    states.append(OctantState.FULL)
                    children.append(None)
                elif level + 1 >= depth or half == 1:
                    # Depth limit: conservatively treat as fully occupied.
                    states.append(OctantState.FULL)
                    children.append(None)
                else:
                    states.append(OctantState.PARTIAL)
                    children.append(build_node(ox, oy, oz, half, level + 1))
            nodes[address] = OctreeNode(tuple(states), tuple(children))
            return address

        build_node(0, 0, 0, resolution, 0)
        return cls([n for n in nodes if n is not None], grid.bounds, depth)

    @classmethod
    def from_scene(cls, scene, resolution: int = 16, max_depth: Optional[int] = None) -> "Octree":
        """Rasterize a scene and build its octree in one step."""
        return cls.from_voxel_grid(VoxelGrid.from_scene(scene, resolution), max_depth)

    # ------------------------------------------------------------------
    # Queries and statistics
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def memory_bits(self) -> int:
        """SRAM footprint at 24 bits per node word."""
        return self.node_count * NODE_BITS

    @property
    def hardware_compatible(self) -> bool:
        """Whether node addresses fit the 8-bit child-address field."""
        return self.node_count <= MAX_HARDWARE_NODES

    def octant_aabb(self, parent: AABB, octant: int) -> AABB:
        """The box of octant ``octant`` of a node whose box is ``parent``."""
        quarter = parent.half_extents / 2.0
        sign = np.array(
            [
                1.0 if octant & 1 else -1.0,
                1.0 if octant & 2 else -1.0,
                1.0 if octant & 4 else -1.0,
            ]
        )
        return AABB(parent.center + sign * quarter, quarter)

    def occupied_leaves(self) -> List[AABB]:
        """All FULL octant boxes (the leaf set a voxel-parallel GPU kernel sees)."""
        leaves: List[AABB] = []
        stack = [(0, self.bounds)]
        while stack:
            address, box = stack.pop()
            node = self.nodes[address]
            for k in range(8):
                state = node.states[k]
                if state is OctantState.EMPTY:
                    continue
                child_box = self.octant_aabb(box, k)
                if state is OctantState.FULL:
                    leaves.append(child_box)
                else:
                    stack.append((node.children[k], child_box))
        return leaves

    def point_occupied(self, point) -> bool:
        """Occupancy lookup for a world point (EMPTY boundary points are free)."""
        point = np.asarray(point, dtype=float)
        if not self.bounds.contains_point(point):
            return False
        address, box = 0, self.bounds
        while True:
            node = self.nodes[address]
            rel = point - box.center
            octant = (
                (1 if rel[0] >= 0 else 0)
                | (2 if rel[1] >= 0 else 0)
                | (4 if rel[2] >= 0 else 0)
            )
            state = node.states[octant]
            if state is OctantState.EMPTY:
                return False
            if state is OctantState.FULL:
                return True
            address, box = node.children[octant], self.octant_aabb(box, octant)

    def pruned(self, max_depth: int) -> "Octree":
        """A coarser copy with subtrees below ``max_depth`` collapsed to FULL.

        This is the RoboRun-style variable-precision control the paper notes
        MPAccel supports (Section 8): pruning trades collision-detection
        latency for conservatism — a pruned octree never misses an obstacle,
        it only grows it.  Level 0 is the root node, so ``max_depth=1``
        keeps only the root.
        """
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        new_nodes: List[OctreeNode] = []

        def copy_node(address: int, level: int) -> int:
            new_address = len(new_nodes)
            new_nodes.append(None)  # type: ignore[arg-type]
            node = self.nodes[address]
            states: List[OctantState] = []
            children: List[Optional[int]] = []
            for state, child in zip(node.states, node.children):
                if state is OctantState.PARTIAL and level + 1 >= max_depth:
                    states.append(OctantState.FULL)
                    children.append(None)
                elif state is OctantState.PARTIAL:
                    states.append(OctantState.PARTIAL)
                    children.append(copy_node(child, level + 1))
                else:
                    states.append(state)
                    children.append(None)
            new_nodes[new_address] = OctreeNode(tuple(states), tuple(children))
            return new_address

        copy_node(0, 0)
        return Octree(
            [n for n in new_nodes if n is not None],
            self.bounds,
            min(self.max_depth, max_depth),
        )

    def depth_histogram(self) -> List[int]:
        """Node count per depth level (root = level 0)."""
        counts: List[int] = []
        stack = [(0, 0)]
        while stack:
            address, level = stack.pop()
            while len(counts) <= level:
                counts.append(0)
            counts[level] += 1
            node = self.nodes[address]
            for child in node.children:
                if child is not None:
                    stack.append((child, level + 1))
        return counts

    # ------------------------------------------------------------------
    # Serialization (for trace/artifact files)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation (node words + bounds)."""
        return {
            "bounds": {
                "center": self.bounds.center.tolist(),
                "half_extents": self.bounds.half_extents.tolist(),
            },
            "max_depth": self.max_depth,
            "nodes": [
                {
                    "states": [int(s) for s in node.states],
                    "children": [
                        -1 if child is None else child for child in node.children
                    ],
                }
                for node in self.nodes
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Octree":
        bounds = AABB(
            data["bounds"]["center"], data["bounds"]["half_extents"]
        )
        nodes = [
            OctreeNode(
                tuple(OctantState(s) for s in node["states"]),
                tuple(None if c < 0 else c for c in node["children"]),
            )
            for node in data["nodes"]
        ]
        return cls(nodes, bounds, data["max_depth"])

    def __repr__(self) -> str:
        return (
            f"Octree(nodes={self.node_count}, depth<={self.max_depth}, "
            f"bits={self.memory_bits})"
        )
