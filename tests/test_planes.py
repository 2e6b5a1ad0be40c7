import numpy as np
import pytest

from triloop.errors import CellOutOfRange, EmptyInput, TriloopError
from triloop.keypoints import keyframe_keypoints
from triloop.planes import (
    VoxelMap,
    build_voxel_map,
    canonical_normals,
    classify_plane_voxels,
    grow_planes,
    is_plane_voxel,
)

from plane_sets import segment_cells

SIGMA1 = 0.01
SIGMA2 = 0.05


def grid_patch(u_range, v_range, spacing=0.2):
    """2D grid of (u, v) coordinates covering the half-open ranges."""
    us = np.arange(u_range[0] + spacing / 2, u_range[1], spacing)
    vs = np.arange(v_range[0] + spacing / 2, v_range[1], spacing)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    return uu.ravel(), vv.ravel()


def floor_patch(x_range, y_range, z=0.2):
    xs, ys = grid_patch(x_range, y_range)
    return np.stack([xs, ys, np.full_like(xs, z)], axis=1)


def wall_xz(x_range, z_range, y=0.2):
    xs, zs = grid_patch(x_range, z_range)
    return np.stack([xs, np.full_like(xs, y), zs], axis=1)


def wall_yz(y_range, z_range, x=0.2):
    ys, zs = grid_patch(y_range, z_range)
    return np.stack([np.full_like(ys, x), ys, zs], axis=1)


def extract(cloud, voxel_size=1.0):
    voxmap = build_voxel_map(cloud, voxel_size)
    classify_plane_voxels(voxmap, SIGMA1, SIGMA2)
    return voxmap


class TestVoxelMap:
    def test_single_point(self):
        voxmap = build_voxel_map(np.array([[0.5, 0.5, 0.5]]), 1.0)
        assert len(voxmap) == 1
        [v] = voxmap.lookup([(0, 0, 0)])
        assert np.allclose(voxmap.covariances[v], 0.0)
        assert np.isnan(voxmap.eigenvalues[v]).all()
        assert not is_plane_voxel(voxmap.eigenvalues[v], SIGMA1, SIGMA2)
        assert classify_plane_voxels(voxmap, SIGMA1, SIGMA2) == 0

    def test_planar_points_have_zero_smallest_eigenvalue(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(0, 1, 100), rng.uniform(0, 1, 100), np.zeros(100)])
        voxmap = build_voxel_map(pts, 1.0)
        [v] = voxmap.lookup([(0, 0, 0)])
        assert voxmap.eigenvalues[v, 2] < 1e-12

    def test_eigenvalues_match_independent_svd_solve(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(1000, 3)) * np.array([0.3, 0.2, 0.01]) + 5.0
        voxmap = build_voxel_map(pts, 10.0)
        assert len(voxmap) == 1
        # independent oracle: singular values of the centered data matrix
        centered = pts - pts.mean(axis=0)
        s = np.linalg.svd(centered / np.sqrt(len(pts)), compute_uv=False)
        assert np.max(np.abs(voxmap.eigenvalues[0] - s**2)) < 1e-9

    def test_population_covariance_normalization(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]] * 6)  # 12 points
        voxmap = build_voxel_map(pts, 10.0)
        assert len(voxmap) == 1
        # 1/N normalization: var of {0,1} with equal counts is 0.25
        assert abs(voxmap.covariances[0, 0, 0] - 0.25) < 1e-12

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptyInput):
            build_voxel_map(np.zeros((0, 3)), 1.0)

    def test_out_of_range_cells_raise(self):
        with pytest.raises(CellOutOfRange) as info:
            build_voxel_map(np.array([[1e30, 0, 0], [-1e30, 0, 0], [0, 0, 0]]), 1.0)
        assert isinstance(info.value, TriloopError) and isinstance(info.value, ValueError)
        with pytest.raises(CellOutOfRange):
            build_voxel_map(np.array([[-4e18, 0, 0], [4e18, 0, 4]]), 1.0)
        with pytest.raises(CellOutOfRange):
            build_voxel_map(np.array([[-1e30, 0, 0], [-3e30, 0, 0]]), 1.0)

    def test_lookup_and_neighbors(self):
        voxmap = build_voxel_map(np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [-0.5, 2.5, 0.5]]), 1.0)
        assert voxmap.cells.tolist() == [[-1, 2, 0], [0, 0, 0], [1, 0, 0]]
        assert voxmap.lookup([(1, 0, 0), (0, 1, 0), (5, 5, 5), (-1, 2, 0)]).tolist() == [2, -1, -1, 0]
        table = voxmap.neighbors(((1, 0, 0), (-1, 0, 0), (0, -2, 0)))
        assert table.tolist() == [[-1, -1, -1], [2, -1, -1], [-1, 1, -1]]
        assert np.array_equal(voxmap.points_of([2, 0]), [[1.5, 0.5, 0.5], [-0.5, 2.5, 0.5]])

    def test_normal_sign_is_canonical(self):
        rng = np.random.default_rng(2)
        pts = floor_patch((0, 1), (0, 1)) + rng.normal(scale=1e-4, size=(25, 3))
        voxmap = build_voxel_map(pts, 1.0)
        assert len(voxmap) == 1
        assert voxmap.normals[0, 2] > 0  # z dominant, flipped positive
        assert abs(np.linalg.norm(voxmap.normals[0]) - 1.0) < 1e-9


class TestPlaneCriterion:
    def test_default_thresholds_accept_plane(self):
        v = _voxel_with_eigs(1.0, 0.2, 0.001)
        assert is_plane_voxel(v.eigenvalues[0], 0.01, 0.05)
        assert classify_plane_voxels(v, 0.01, 0.05) == 1 and v.is_plane[0]

    def test_thick_voxel_rejected(self):
        v = _voxel_with_eigs(1.0, 0.2, 0.02)
        assert not is_plane_voxel(v.eigenvalues[0], 0.01, 0.05)
        assert classify_plane_voxels(v, 0.01, 0.05) == 0

    def test_rod_rejected(self):
        v = _voxel_with_eigs(1.0, 0.03, 0.001)
        assert not is_plane_voxel(v.eigenvalues[0], 0.01, 0.05)
        assert classify_plane_voxels(v, 0.01, 0.05) == 0


def _voxel_with_eigs(l1, l2, l3):
    """One-voxel map whose voxel has the given descending eigenvalues."""
    return VoxelMap(
        cells=np.zeros((1, 3), dtype=np.int64),
        counts=np.array([10]),
        means=np.zeros((1, 3)),
        covariances=np.diag([l1, l2, l3])[None],
        eigenvalues=np.array([[l1, l2, l3]]),
        normals=np.array([[0.0, 0.0, 1.0]]),
        offsets=np.array([0, 10]),
        points=np.zeros((10, 3)),
    )


class TestGrowPlanes:
    def test_separated_walls_make_two_planes(self):
        cloud = np.vstack([floor_patch((0, 3), (0, 2)), floor_patch((6, 9), (0, 2))])
        planes = grow_planes(extract(cloud))
        assert len(planes) == 2

    def test_flat_floor_single_plane_no_boundary(self):
        voxmap = extract(floor_patch((0, 10), (0, 10)))
        planes = grow_planes(voxmap)
        assert len(planes) == 1
        [members] = segment_cells(voxmap, planes.member_rows, planes.member_offsets)
        [boundary] = segment_cells(voxmap, planes.boundary_rows, planes.boundary_offsets)
        assert len(members) == 100
        assert boundary == []

    def test_l_scene_two_planes_with_shared_crease_boundary(self):
        wall_a = wall_xz((0, 10), (0, 4))  # normal +y, cells (i, 0, k)
        wall_b = wall_yz((0, 10), (0, 4))  # normal +x, cells (0, j, k)
        voxmap = extract(np.vstack([wall_a, wall_b]))
        planes = grow_planes(voxmap)
        assert len(planes) == 2

        crease = {(0, 0, k) for k in range(4)}
        boundary_of = dict(zip(
            map(frozenset, segment_cells(voxmap, planes.member_rows, planes.member_offsets)),
            segment_cells(voxmap, planes.boundary_rows, planes.boundary_offsets),
        ))
        expected_a = frozenset((i, 0, k) for i in range(1, 10) for k in range(4))
        expected_b = frozenset((0, j, k) for j in range(1, 10) for k in range(4))
        assert expected_a in boundary_of
        assert expected_b in boundary_of
        assert set(boundary_of[expected_a]) == crease
        assert set(boundary_of[expected_b]) == crease

    def test_partition_and_criterion_fidelity(self):
        cloud = np.vstack(
            [wall_xz((0, 10), (0, 4)), wall_yz((0, 10), (0, 4)), floor_patch((2, 8), (2, 8))]
        )
        voxmap = extract(cloud)
        planes = grow_planes(voxmap)
        seen = set()
        for cells in segment_cells(voxmap, planes.member_rows, planes.member_offsets):
            members = set(cells)
            assert not (members & seen)
            seen |= members
            rows = voxmap.lookup(sorted(members))
            assert np.all(rows >= 0)
            assert is_plane_voxel(voxmap.eigenvalues[rows], SIGMA1, SIGMA2).all()

    def test_normal_consistency(self):
        rng = np.random.default_rng(3)
        cloud = floor_patch((0, 10), (0, 10)) + rng.normal(scale=0.005, size=(2500, 3))
        voxmap = extract(cloud)
        planes = grow_planes(voxmap, normal_merge_tol=0.02)
        assert planes
        members = segment_cells(voxmap, planes.member_rows, planes.member_offsets)
        for cells, normal in zip(members, planes.normals):
            for row in voxmap.lookup(cells):
                assert abs(float(voxmap.normals[row] @ normal)) > 1.0 - 0.02

    def test_translation_equivariance(self):
        cloud = np.vstack([wall_xz((0, 6), (0, 3)), wall_yz((0, 6), (0, 3))])
        shift = np.array([3.0, -2.0, 1.0])  # exact multiples of the 1 m voxel
        voxmap_a = extract(cloud)
        voxmap_b = extract(cloud + shift)
        planes_a = grow_planes(voxmap_a)
        planes_b = grow_planes(voxmap_b)
        assert len(planes_a) == len(planes_b)
        members_a = segment_cells(voxmap_a, planes_a.member_rows, planes_a.member_offsets)
        members_b = segment_cells(voxmap_b, planes_b.member_rows, planes_b.member_offsets)
        for cells_a, cells_b, center_a, center_b in zip(
            members_a, members_b, planes_a.centers, planes_b.centers
        ):
            assert set(cells_b) == {(c[0] + 3, c[1] - 2, c[2] + 1) for c in cells_a}
            assert np.allclose(center_b, center_a + shift, atol=1e-9)
        assert np.array_equal(voxmap_b.cells, voxmap_a.cells + [3, -2, 1])
        dense = ~np.isnan(voxmap_a.eigenvalues[:, 0])
        assert np.array_equal(dense, ~np.isnan(voxmap_b.eigenvalues[:, 0]))
        diff = voxmap_b.eigenvalues[dense] - voxmap_a.eigenvalues[dense]
        assert np.max(np.abs(diff)) < 1e-9

    def test_plane_center_is_weighted_voxel_mean(self):
        cloud = floor_patch((0, 4), (0, 4))
        voxmap = extract(cloud)
        planes = grow_planes(voxmap)
        assert len(planes) == 1
        [cells] = segment_cells(voxmap, planes.member_rows, planes.member_offsets)
        rows = voxmap.lookup(cells)
        weights = voxmap.counts[rows].astype(float)
        means = voxmap.means[rows]
        expected = (means * weights[:, None]).sum(axis=0) / weights.sum()
        assert np.allclose(planes.centers[0], expected, atol=1e-12)

    def test_no_plane_voxels_give_an_empty_set(self):
        voxmap = extract(np.zeros((1, 3)))
        planes = grow_planes(voxmap)
        assert len(planes) == 0
        assert planes.centers.shape == planes.normals.shape == (0, 3)
        assert planes.member_offsets.tolist() == planes.boundary_offsets.tolist() == [0]
        assert keyframe_keypoints(planes, voxmap) == []

    def test_mask_selects_rows(self):
        cloud = np.vstack([wall_xz((0, 10), (0, 4)), wall_yz((0, 10), (0, 4)),
                           floor_patch((2, 8), (2, 8))])
        voxmap = extract(cloud)
        planes = grow_planes(voxmap)
        keep = np.arange(len(planes)) % 2 == 1
        kept = planes[keep]
        assert len(kept) == keep.sum() > 0
        assert np.array_equal(kept.centers, planes.centers[keep])
        assert np.array_equal(kept.normals, planes.normals[keep])
        assert np.array_equal(kept.point_counts, planes.point_counts[keep])
        for rows, offsets in (("member_rows", "member_offsets"),
                              ("boundary_rows", "boundary_offsets")):
            every = segment_cells(voxmap, getattr(planes, rows), getattr(planes, offsets))
            assert (segment_cells(voxmap, getattr(kept, rows), getattr(kept, offsets))
                    == [cells for cells, k in zip(every, keep) if k])
        with pytest.raises(TypeError):
            planes[0]  # no one-plane objects, so no iteration either

    def test_patches_touching_at_a_corner_stay_two_planes(self):
        # two floor patches touching only at a corner share no voxel face
        cloud = np.vstack([floor_patch((0, 3), (0, 3)), floor_patch((3, 6), (3, 6))])
        assert len(grow_planes(extract(cloud))) == 2


def test_canonical_normal_flips_dominant_component():
    def canonical(n):
        return canonical_normals(np.asarray(n, dtype=np.float64).reshape(1, 3))[0]

    assert np.allclose(canonical(np.array([0.0, 0.0, -1.0])), [0, 0, 1])
    n = np.array([0.6, -0.8, 0.0])
    assert np.allclose(canonical(n), [-0.6, 0.8, 0.0])
    assert np.allclose(canonical(-n), [-0.6, 0.8, 0.0])
