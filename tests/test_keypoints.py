import numpy as np
import pytest

from triloop.errors import NoBoundary
from triloop.geometry import RigidTransform, random_rotation
from triloop.keypoints import (
    PlaneImage,
    extract_keypoints,
    keyframe_keypoints,
    plane_axes,
    project_boundary,
    rasterize,
)
from triloop.planes import Plane, VoxelMap


def make_plane_scene(center, normal, boundary_points):
    """Plane with a single boundary voxel holding the given points."""
    normal = np.asarray(normal, dtype=np.float64)
    plane = Plane(
        id=0,
        center=np.asarray(center, dtype=np.float64),
        normal=normal / np.linalg.norm(normal),
        member_cells=[(0, 0, 0)],
        boundary_cells=[(9, 9, 9)],
    )
    return plane, one_voxel_map((9, 9, 9), boundary_points)


def one_voxel_map(cell, points):
    """VoxelMap whose only voxel, at `cell`, holds the given points."""
    pts = np.asarray(points, dtype=np.float64)
    return VoxelMap.from_points(pts, np.tile(np.array(cell, dtype=np.int64), (len(pts), 1)))


class TestProjection:
    def test_on_plane_point_has_zero_distance(self):
        plane, voxmap = make_plane_scene([0, 0, 0], [0, 0, 1], [[0.7, -0.3, 0.0]])
        _, dists, _ = project_boundary(plane, voxmap)
        assert abs(dists[0]) < 1e-12

    def test_pure_normal_offset(self):
        plane, voxmap = make_plane_scene([1, 2, 3], [0, 0, 1], [[1.0, 2.0, 3.5]])
        _, dists, uv = project_boundary(plane, voxmap)
        assert abs(dists[0] - 0.5) < 1e-12
        assert np.allclose(uv[0], [0.0, 0.0], atol=1e-12)

    def test_distances_match_point_to_plane_formula(self):
        rng = np.random.default_rng(0)
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        center = rng.uniform(-5, 5, 3)
        pts = rng.uniform(-10, 10, size=(100, 3))
        plane, voxmap = make_plane_scene(center, normal, pts)
        _, dists, uv = project_boundary(plane, voxmap)
        for i, p in enumerate(pts):
            # independent formula: |n . (p - g)| with the plane in
            # point-normal form
            assert abs(dists[i] - abs(np.dot(normal, p - center))) < 1e-9
        e1, e2 = plane_axes(plane.normal)
        recon = center + uv[:, :1] * e1 + uv[:, 1:] * e2 + (
            np.sign((pts - center) @ plane.normal) * dists
        )[:, None] * plane.normal
        assert np.max(np.abs(recon - pts)) < 1e-9

    def test_no_boundary_raises(self):
        plane, voxmap = make_plane_scene([0, 0, 0], [0, 0, 1], [[0, 0, 0.1]])
        plane.boundary_cells = []
        with pytest.raises(NoBoundary):
            project_boundary(plane, voxmap)


class TestRasterize:
    def test_max_wins_pixel(self):
        plane, voxmap = make_plane_scene(
            [0, 0, 0], [0, 0, 1], [[0.1, 0.1, 0.1], [0.2, 0.2, 0.3]]
        )
        pts, dists, uv = project_boundary(plane, voxmap)
        img = rasterize(pts, dists, uv, 0.5, plane)
        assert img.values.shape == (1, 1)
        assert abs(img.values[0, 0] - 0.3) < 1e-12
        assert img.sources[0, 0] == 1

    def test_single_point_grid(self):
        plane, voxmap = make_plane_scene([0, 0, 0], [0, 0, 1], [[2.0, 3.0, 0.4]])
        pts, dists, uv = project_boundary(plane, voxmap)
        img = rasterize(pts, dists, uv, 0.5, plane)
        assert img.values.shape == (1, 1)

    def test_matches_group_by_pixel_max_oracle(self):
        rng = np.random.default_rng(1)
        plane, voxmap = make_plane_scene(
            [0, 0, 0], [0, 0, 1], rng.uniform(-4, 4, size=(500, 3))
        )
        pts, dists, uv = project_boundary(plane, voxmap)
        pixel = 0.5
        img = rasterize(pts, dists, uv, pixel, plane)
        # brute-force oracle: group projections by pixel, take the max
        groups = {}
        for i in range(len(pts)):
            key = (int(np.floor(uv[i, 0] / pixel)), int(np.floor(uv[i, 1] / pixel)))
            groups.setdefault(key, []).append(dists[i])
        for (gu, gv), values in groups.items():
            r, c = gu - img.offset[0], gv - img.offset[1]
            assert abs(img.values[r, c] - max(values)) < 1e-12
        assert np.count_nonzero(np.isfinite(img.values)) == len(groups)


def image_from_grid(values):
    """PlaneImage wrapper around a dense value grid (nan marks empty pixels)."""
    values = np.asarray(values, dtype=np.float64)
    filled = np.where(np.isnan(values), -np.inf, values)
    h, w = filled.shape
    points = np.zeros((h * w, 3))
    sources = np.arange(h * w).reshape(h, w)
    points[:, 0] = np.arange(h * w)
    return PlaneImage(
        plane_id=0,
        origin=np.zeros(3),
        e1=np.array([1.0, 0, 0]),
        e2=np.array([0, 1.0, 0]),
        normal=np.array([0, 0, 1.0]),
        pixel_size=0.5,
        offset=(0, 0),
        values=filled,
        sources=np.where(np.isnan(values), -1, sources),
        points=points,
    )


def brute_force_nms(values, min_dist):
    """Oracle: pixel survives iff >= min_dist and beats every occupied pixel in
    its 5x5 window (ties go to the lower linearized index)."""
    h, w = values.shape
    winners = []
    for r in range(h):
        for c in range(w):
            v = values[r, c]
            if not np.isfinite(v) or v < min_dist:
                continue
            ok = True
            for rr in range(max(0, r - 2), min(h, r + 3)):
                for cc in range(max(0, c - 2), min(w, c + 3)):
                    if (rr, cc) == (r, c) or not np.isfinite(values[rr, cc]):
                        continue
                    nv = values[rr, cc]
                    if nv > v or (nv == v and rr * w + cc < r * w + c):
                        ok = False
            if ok:
                winners.append((r, c))
    return winners


class TestExtractKeypoints:
    def test_single_occupied_pixel(self):
        img = image_from_grid([[0.5]])
        kps = extract_keypoints(img, min_dist=0.2)
        assert len(kps) == 1
        assert kps[0].strength == 0.5

    def test_adjacent_pixel_suppressed(self):
        img = image_from_grid([[0.5, 0.4]])
        kps = extract_keypoints(img, min_dist=0.2)
        assert len(kps) == 1
        assert kps[0].strength == 0.5

    def test_below_threshold_dropped(self):
        img = image_from_grid([[0.1]])
        assert extract_keypoints(img, min_dist=0.2) == []

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0, 1, size=(50, 50))
        values[rng.uniform(size=(50, 50)) < 0.6] = np.nan  # sparse occupancy
        img = image_from_grid(values)
        got = extract_keypoints(img, min_dist=0.2)
        grid = np.where(np.isnan(values), -np.inf, values)
        expected = brute_force_nms(grid, 0.2)
        got_pixels = sorted(int(k.position[0]) for k in got)  # position encodes r*w+c
        expected_pixels = sorted(r * 50 + c for r, c in expected)
        assert got_pixels == expected_pixels

    def test_ties_break_to_lower_index(self):
        img = image_from_grid([[0.5, np.nan, 0.5]])
        kps = extract_keypoints(img, min_dist=0.2)
        assert len(kps) == 1
        assert int(kps[0].position[0]) == 0

    def test_keypoints_at_least_three_pixels_apart(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, size=(40, 40))
        img = image_from_grid(values)
        kps = extract_keypoints(img, min_dist=0.0)
        pix = [divmod(int(k.position[0]), 40) for k in kps]
        for i in range(len(pix)):
            for j in range(i + 1, len(pix)):
                cheb = max(abs(pix[i][0] - pix[j][0]), abs(pix[i][1] - pix[j][1]))
                assert cheb >= 3


class TestEndToEnd:
    def scene(self, rng):
        pts = rng.uniform(-4, 4, size=(300, 3))
        pts[:, 2] = np.abs(pts[:, 2]) * 0.2  # bumps above the plane
        return make_plane_scene([0, 0, 0], [0, 0, 1], pts)

    def test_positions_come_from_input_cloud(self):
        rng = np.random.default_rng(4)
        plane, voxmap = self.scene(rng)
        pts, dists, uv = project_boundary(plane, voxmap)
        img = rasterize(pts, dists, uv, 0.5, plane)
        kps = extract_keypoints(img, 0.05)
        assert kps
        cloud = {tuple(p) for p in voxmap.points_of(voxmap.lookup([(9, 9, 9)]))}
        for kp in kps:
            assert tuple(kp.position) in cloud

    def test_rigid_motion_covariance_with_fixed_segmentation(self):
        rng = np.random.default_rng(5)
        plane, voxmap = self.scene(rng)
        pts, dists, uv = project_boundary(plane, voxmap)
        axes = plane_axes(plane.normal)
        img = rasterize(pts, dists, uv, 0.5, plane, axes=axes)
        kps = extract_keypoints(img, 0.05)

        t = RigidTransform(random_rotation(rng), rng.uniform(-5, 5, 3))
        moved_plane = Plane(
            id=0,
            center=t.apply(plane.center),
            normal=t.R @ plane.normal,
            member_cells=plane.member_cells,
            boundary_cells=plane.boundary_cells,
        )
        moved_pts = t.apply(voxmap.points_of(voxmap.lookup([(9, 9, 9)])))
        moved_voxmap = one_voxel_map((9, 9, 9), moved_pts)
        moved_axes = (t.R @ axes[0], t.R @ axes[1])
        mpts, mdists, muv = project_boundary(moved_plane, moved_voxmap, axes=moved_axes)
        mimg = rasterize(mpts, mdists, muv, 0.5, moved_plane, axes=moved_axes)
        mkps = extract_keypoints(mimg, 0.05)

        assert len(kps) == len(mkps)
        original = np.array([k.position for k in kps])
        moved = np.array([k.position for k in mkps])
        assert np.max(np.abs(moved - t.apply(original))) < 1e-9


def test_keyframe_keypoints_caps_count():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-30, 30, size=(4000, 3))
    pts[:, 2] = np.abs(pts[:, 2]) * 0.05 + 0.2
    plane, voxmap = make_plane_scene([0, 0, 0], [0, 0, 1], pts)
    kps = keyframe_keypoints([plane], voxmap, pixel_size=0.5, min_dist=0.0, max_keypoints=50)
    assert len(kps) == 50
    strengths = [k.strength for k in kps]
    assert strengths == sorted(strengths, reverse=True)


def test_keyframe_keypoints_rejects_negative_cap():
    plane, voxmap = make_plane_scene([0, 0, 0], [0, 0, 1], [[0.1, 0.1, 0.5]])
    assert len(keyframe_keypoints([plane], voxmap, max_keypoints=0)) == 0
    with pytest.raises(ValueError, match="max_keypoints"):
        keyframe_keypoints([plane], voxmap, max_keypoints=-5)
