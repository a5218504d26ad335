"""Tests for the hardware-style occupancy octree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.octree import (
    MAX_HARDWARE_NODES,
    NODE_BITS,
    OctantState,
    Octree,
    OctreeNode,
)
from repro.env.scene import Scene
from repro.env.voxel import VoxelGrid
from repro.geometry.aabb import AABB


def _grid_with(voxels, resolution=8, extent=2.0):
    scene_bounds = AABB([0, 0, extent / 2], [extent / 2] * 3)
    grid = VoxelGrid(scene_bounds, resolution)
    for index in voxels:
        grid.occupancy[index] = True
    return grid


class TestNodeEncoding:
    def test_node_requires_children_iff_partial(self):
        with pytest.raises(ValueError):
            OctreeNode(
                states=(OctantState.PARTIAL,) + (OctantState.EMPTY,) * 7,
                children=(None,) * 8,
            )
        with pytest.raises(ValueError):
            OctreeNode(
                states=(OctantState.EMPTY,) * 8,
                children=(1,) + (None,) * 7,
            )

    def test_node_shape(self):
        with pytest.raises(ValueError):
            OctreeNode(states=(OctantState.EMPTY,) * 7, children=(None,) * 7)

    def test_occupied_octants(self):
        node = OctreeNode(
            states=(OctantState.FULL, OctantState.EMPTY, OctantState.PARTIAL)
            + (OctantState.EMPTY,) * 5,
            children=(None, None, 1) + (None,) * 5,
        )
        assert list(node.occupied_octants()) == [0, 2]


class TestNodeTable:
    def test_table_matches_node_words(self, bench_octree):
        states, children = bench_octree.states, bench_octree.children
        assert states.shape == children.shape == (bench_octree.node_count, 8)
        assert states.dtype == np.uint8 and children.dtype == np.int64
        for address, node in enumerate(bench_octree.nodes):
            assert states[address].tolist() == [int(s) for s in node.states]
            assert children[address].tolist() == [
                -1 if child is None else child for child in node.children
            ]

    def test_built_once_read_only_and_shared(self, bench_octree):
        from repro.collision.batch import BatchOctreeCollider

        assert bench_octree.states is bench_octree.states
        with pytest.raises(ValueError):
            bench_octree.children[0, 0] = 3
        collider = BatchOctreeCollider(bench_octree)
        assert collider._states is bench_octree.states
        assert collider._children is bench_octree.children

    def test_empty_tree_has_no_children(self):
        octree = Octree.from_voxel_grid(_grid_with([], resolution=4))
        assert octree.states.tolist() == [[0] * 8]
        assert octree.children.tolist() == [[-1] * 8]


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        grid = _grid_with([], resolution=8)
        grid.resolution = 6  # force an invalid value
        with pytest.raises(ValueError):
            Octree.from_voxel_grid(grid)

    def test_empty_grid_gives_single_empty_root(self):
        octree = Octree.from_voxel_grid(_grid_with([]))
        assert octree.node_count == 1
        assert all(s is OctantState.EMPTY for s in octree.nodes[0].states)

    def test_full_grid_gives_full_root(self):
        grid = _grid_with([])
        grid.occupancy[:] = True
        octree = Octree.from_voxel_grid(grid)
        assert octree.node_count == 1
        assert all(s is OctantState.FULL for s in octree.nodes[0].states)

    def test_memory_bits(self):
        octree = Octree.from_voxel_grid(_grid_with([(0, 0, 0)]))
        assert octree.memory_bits == octree.node_count * NODE_BITS

    def test_hardware_compatible_small_tree(self, bench_octree):
        assert bench_octree.node_count <= MAX_HARDWARE_NODES
        assert bench_octree.hardware_compatible

    def test_single_voxel_tree_depth(self):
        octree = Octree.from_voxel_grid(_grid_with([(0, 0, 0)], resolution=8))
        # Root + one node per level down to the single voxel: depth 3 for 8^3.
        assert octree.node_count == 3
        assert octree.depth_histogram() == [1, 1, 1]

    def test_depth_limit_clamps_to_full(self):
        grid = _grid_with([(0, 0, 0)], resolution=8)
        octree = Octree.from_voxel_grid(grid, max_depth=1)
        assert octree.node_count == 1
        # The single voxel became a FULL octant of the root (conservative).
        assert octree.nodes[0].states[0] is OctantState.FULL


class TestQueries:
    def test_point_occupancy_matches_grid(self):
        voxels = [(0, 0, 0), (3, 3, 3), (7, 0, 7), (4, 4, 4)]
        grid = _grid_with(voxels, resolution=8)
        octree = Octree.from_voxel_grid(grid)
        rng = np.random.default_rng(3)
        for _ in range(300):
            point = rng.uniform(grid.bounds.minimum, grid.bounds.maximum)
            assert octree.point_occupied(point) == bool(
                grid.occupancy[grid.index_of(point)]
            )

    def test_point_outside_bounds_is_free(self):
        octree = Octree.from_voxel_grid(_grid_with([(0, 0, 0)]))
        assert not octree.point_occupied([10, 10, 10])

    def test_occupied_leaves_cover_voxel_volume(self):
        voxels = [(0, 0, 0), (1, 0, 0), (5, 5, 5)]
        grid = _grid_with(voxels, resolution=8)
        octree = Octree.from_voxel_grid(grid)
        leaf_volume = sum(leaf.volume for leaf in octree.occupied_leaves())
        voxel_volume = grid.occupied_count * grid.voxel_size**3
        assert leaf_volume == pytest.approx(voxel_volume)

    def test_leaves_merge_full_regions(self):
        # A fully occupied octant should be one big leaf, not 64 voxels.
        grid = _grid_with([], resolution=8)
        grid.occupancy[:4, :4, :4] = True
        octree = Octree.from_voxel_grid(grid)
        leaves = octree.occupied_leaves()
        assert len(leaves) == 1
        assert leaves[0].volume == pytest.approx((4 * grid.voxel_size) ** 3)

    def test_octant_aabb_matches_aabb_octant(self, bench_octree):
        parent = bench_octree.bounds
        for k in range(8):
            assert bench_octree.octant_aabb(parent, k) == parent.octant(k)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_grids_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        grid = _grid_with([], resolution=8)
        grid.occupancy = rng.random((8, 8, 8)) < 0.15
        octree = Octree.from_voxel_grid(grid)
        # Check a handful of voxel centers.
        for _ in range(40):
            index = tuple(rng.integers(0, 8, size=3))
            center = grid.voxel_aabb(*index).center
            assert octree.point_occupied(center) == bool(grid.occupancy[index])

    def test_from_scene_covers_obstacles(self):
        scene = Scene(extent=2.0)
        scene.add_obstacle(AABB([0.5, 0.5, 1.0], [0.2, 0.2, 0.2]))
        octree = Octree.from_scene(scene, resolution=16)
        assert octree.point_occupied([0.5, 0.5, 1.0])
        # Conservative: rasterization may add margin but never remove.
        assert not octree.point_occupied([-0.7, -0.7, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            Octree([], AABB([0, 0, 0], [1, 1, 1]), 1)
