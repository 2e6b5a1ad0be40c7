import dataclasses

import numpy as np
import pytest

from triloop.errors import CellOutOfRange, NonPositiveLeaf
from triloop.geometry import RigidTransform, random_rotation
from triloop.keypoints import (
    _boundary_points,
    _nms,
    _plane_axes,
    _project,
    _raster,
    keyframe_keypoints,
)
from triloop.planes import VoxelMap

from plane_sets import one_image, plane_set


def make_plane_scene(center, normal, boundary_points):
    """One-plane set whose only boundary voxel holds the given points."""
    normal = np.asarray(normal, dtype=np.float64)
    planes = plane_set([center], [normal / np.linalg.norm(normal)], boundaries=[[0]])
    return planes, one_voxel_map((9, 9, 9), boundary_points)


def one_voxel_map(cell, points):
    """VoxelMap whose only voxel, at `cell`, holds the given points: at an
    infinite cell size every finite point lies in one cell, here moved to `cell`."""
    voxmap = VoxelMap.from_points(np.asarray(points, dtype=np.float64), np.inf)
    return dataclasses.replace(voxmap, cells=np.array([cell], dtype=np.int64))


def project(planes, voxmap):
    """The boundary points of a one-plane set, their distances to the plane
    and their in-plane coordinates, as keyframe_keypoints projects them."""
    points, bounds = _boundary_points(planes, voxmap)
    e1, e2 = _plane_axes(planes.normals)
    distances, uv = _project(points, bounds, planes.centers, planes.normals, e1, e2)
    return points, distances, uv


def image_of(planes, voxmap, pixel_size):
    """The one plane's image as keyframe_keypoints rasterizes it: the pixel
    index of its [0, 0], and per pixel the max distance (-inf where empty)
    and the index of the point holding it (-1 where empty)."""
    _, distances, uv = project(planes, voxmap)
    mosaic, _, values, sources = _raster(distances, uv, np.array([0, len(uv)]), pixel_size)
    return mosaic.lo[0], one_image(mosaic, values), one_image(mosaic, sources)


def kernel_positions(planes, voxmap, e1, e2, pixel_size=0.5, min_dist=0.2):
    """Key point positions of a plane set projected onto the given in-plane
    axes (P, 3), (P, 3), through the projection, raster and NMS kernels that
    keyframe_keypoints runs; in flat pixel order."""
    points, bounds = _boundary_points(planes, voxmap)
    distances, uv = _project(points, bounds, planes.centers, planes.normals, e1, e2)
    mosaic, image, values, sources = _raster(distances, uv, bounds, pixel_size)
    pixels = np.flatnonzero((sources >= 0) & (values >= min_dist))
    candidates = sources[pixels]
    return points[candidates[_nms(values, pixels, mosaic.stride[image[candidates]])]]


class TestProjection:
    def test_on_plane_point_has_zero_distance(self):
        planes, voxmap = make_plane_scene([0, 0, 0], [0, 0, 1], [[0.7, -0.3, 0.0]])
        [kp] = keyframe_keypoints(planes, voxmap, min_dist=0.0)
        assert abs(kp.strength) < 1e-12

    def test_nan_pixel_size_rejected(self):
        planes, voxmap = make_plane_scene([0, 0, 0], [0, 0, 1], [[0.7, -0.3, 0.0]])
        with pytest.raises(NonPositiveLeaf):
            keyframe_keypoints(planes, voxmap, pixel_size=float("nan"), min_dist=0.0)

    def test_pixels_beyond_int64_raise(self):
        # at pixel size 1e-300 the point's pixel is ~7e299: the cast used to
        # give garbage pixels and drop key points with only a RuntimeWarning
        planes, voxmap = make_plane_scene([0, 0, 0], [0, 0, 1], [[0.7, -0.3, 0.0]])
        with pytest.raises(CellOutOfRange, match="int64 range"):
            keyframe_keypoints(planes, voxmap, pixel_size=1e-300, min_dist=0.0)

    def test_mosaic_beyond_int64_raises_before_it_is_allocated(self):
        # at pixel size 1e-12 a 2 m plane needs ~4.0e24 pixels; int64 sizing
        # wrapped that to ~8.0e18. (A size that fits an int64 but not in
        # memory, as at 1e-6, is not run: it would ask for terabytes.)
        planes, voxmap = make_plane_scene([0, 0, 0], [0, 0, 1],
                                          [[-1.0, -1.0, 0.5], [1.0, 1.0, 0.5]])
        with pytest.raises(CellOutOfRange, match="pixels, beyond the int64 range"):
            keyframe_keypoints(planes, voxmap, pixel_size=1e-12, min_dist=0.0)

    def test_pure_normal_offset(self):
        planes, voxmap = make_plane_scene([1, 2, 3], [0, 0, 1], [[1.0, 2.0, 3.5]])
        [kp] = keyframe_keypoints(planes, voxmap, min_dist=0.0)
        assert abs(kp.strength - 0.5) < 1e-12
        _, _, uv = project(planes, voxmap)
        assert np.allclose(uv[0], [0.0, 0.0], atol=1e-12)

    def test_distances_match_point_to_plane_formula(self):
        rng = np.random.default_rng(0)
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        center = rng.uniform(-5, 5, 3)
        pts = rng.uniform(-10, 10, size=(100, 3))
        planes, voxmap = make_plane_scene(center, normal, pts)
        _, dists, uv = project(planes, voxmap)
        for i, p in enumerate(pts):
            # independent formula: |n . (p - g)| with the plane in
            # point-normal form
            assert abs(dists[i] - abs(np.dot(normal, p - center))) < 1e-9
        e1, e2 = (axis[0] for axis in _plane_axes(planes.normals))
        recon = center + uv[:, :1] * e1 + uv[:, 1:] * e2 + (
            np.sign((pts - center) @ planes.normals[0]) * dists
        )[:, None] * planes.normals[0]
        assert np.max(np.abs(recon - pts)) < 1e-9
        kps = keyframe_keypoints(planes, voxmap, min_dist=0.0)
        assert kps
        for kp in kps:
            assert abs(kp.strength - abs(np.dot(normal, kp.position - center))) < 1e-9

    def test_no_boundary_yields_no_keypoints(self):
        planes, voxmap = make_plane_scene([0, 0, 0], [0, 0, 1], [[0, 0, 0.1]])
        no_boundary = plane_set(planes.centers, planes.normals, boundaries=[[]])
        assert keyframe_keypoints(no_boundary, voxmap, min_dist=0.0) == []


class TestRasterize:
    def test_max_wins_pixel(self):
        pts = [[0.1, 0.1, 0.1], [0.2, 0.2, 0.3]]
        planes, voxmap = make_plane_scene([0, 0, 0], [0, 0, 1], pts)
        _, values, sources = image_of(planes, voxmap, 0.5)
        assert values.shape == (1, 1)
        assert abs(values[0, 0] - 0.3) < 1e-12
        assert sources[0, 0] == 1
        [kp] = keyframe_keypoints(planes, voxmap, min_dist=0.0)
        assert np.array_equal(kp.position, pts[1])

    def test_single_point_grid(self):
        planes, voxmap = make_plane_scene([0, 0, 0], [0, 0, 1], [[2.0, 3.0, 0.4]])
        _, values, _ = image_of(planes, voxmap, 0.5)
        assert values.shape == (1, 1)
        assert len(keyframe_keypoints(planes, voxmap, min_dist=0.0)) == 1

    def test_matches_group_by_pixel_max_oracle(self):
        rng = np.random.default_rng(1)
        planes, voxmap = make_plane_scene(
            [0, 0, 0], [0, 0, 1], rng.uniform(-4, 4, size=(500, 3))
        )
        pts, dists, uv = project(planes, voxmap)
        pixel = 0.5
        offset, values, _ = image_of(planes, voxmap, pixel)
        # brute-force oracle: group projections by pixel, take the max
        groups = {}
        for i in range(len(pts)):
            key = (int(np.floor(uv[i, 0] / pixel)), int(np.floor(uv[i, 1] / pixel)))
            groups.setdefault(key, []).append(dists[i])
        for (gu, gv), group in groups.items():
            r, c = gu - offset[0], gv - offset[1]
            assert abs(values[r, c] - max(group)) < 1e-12
        assert np.count_nonzero(np.isfinite(values)) == len(groups)
        # every key point holds its pixel's maximum
        for kp in keyframe_keypoints(planes, voxmap, pixel_size=pixel, min_dist=0.0):
            key = tuple(int(k) for k in np.floor(kp.position[:2] / pixel))
            assert kp.strength == max(groups[key])


GRID_PIXEL = 0.5


def grid_scene(values):
    """One-plane set through the origin with normal +z whose image is the
    given grid (nan marks empty pixels): pixel (r, c) holds one boundary
    point at its center, values[r, c] above the plane."""
    values = np.asarray(values, dtype=np.float64)
    rows, cols = np.nonzero(~np.isnan(values))
    points = np.column_stack([(rows + 0.5) * GRID_PIXEL, (cols + 0.5) * GRID_PIXEL,
                              values[rows, cols]])
    return make_plane_scene([0, 0, 0], [0, 0, 1], points)


def grid_keypoints(values, min_dist):
    planes, voxmap = grid_scene(values)
    return keyframe_keypoints(planes, voxmap, pixel_size=GRID_PIXEL, min_dist=min_dist,
                              max_keypoints=10**6)


def grid_pixel(kp) -> tuple[int, int]:
    """(row, column) of the grid_scene pixel a key point came from."""
    return int(kp.position[0] // GRID_PIXEL), int(kp.position[1] // GRID_PIXEL)


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
        kps = grid_keypoints([[0.5]], min_dist=0.2)
        assert len(kps) == 1
        assert kps[0].strength == 0.5

    def test_adjacent_pixel_suppressed(self):
        kps = grid_keypoints([[0.5, 0.4]], min_dist=0.2)
        assert len(kps) == 1
        assert kps[0].strength == 0.5

    def test_below_threshold_dropped(self):
        assert grid_keypoints([[0.1]], min_dist=0.2) == []

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0, 1, size=(50, 50))
        values[rng.uniform(size=(50, 50)) < 0.6] = np.nan  # sparse occupancy
        got = grid_keypoints(values, min_dist=0.2)
        grid = np.where(np.isnan(values), -np.inf, values)
        expected = brute_force_nms(grid, 0.2)
        got_pixels = sorted(grid_pixel(k) for k in got)
        assert got_pixels == sorted(expected)

    def test_ties_break_to_lower_index(self):
        kps = grid_keypoints([[0.5, np.nan, 0.5]], min_dist=0.2)
        assert len(kps) == 1
        assert grid_pixel(kps[0]) == (0, 0)

    def test_keypoints_at_least_three_pixels_apart(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, size=(40, 40))
        kps = grid_keypoints(values, min_dist=0.0)
        pix = [grid_pixel(k) for k in kps]
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
        planes, voxmap = self.scene(rng)
        kps = keyframe_keypoints(planes, voxmap, min_dist=0.05)
        assert kps
        cloud = {tuple(p) for p in voxmap.points_of(voxmap.lookup([(9, 9, 9)]))}
        for kp in kps:
            assert tuple(kp.position) in cloud

    def test_rigid_motion_covariance_with_fixed_segmentation(self):
        rng = np.random.default_rng(5)
        planes, voxmap = self.scene(rng)
        e1, e2 = _plane_axes(planes.normals)
        original = kernel_positions(planes, voxmap, e1, e2, min_dist=0.05)
        assert len(original)

        t = RigidTransform(random_rotation(rng), rng.uniform(-5, 5, 3))
        moved_planes = plane_set([t.apply(planes.centers[0])], [t.R @ planes.normals[0]],
                                 boundaries=[[0]])
        points = voxmap.points_of(voxmap.lookup([(9, 9, 9)]))
        moved_voxmap = one_voxel_map((9, 9, 9), t.apply(points))
        # the moved plane projected onto the moved axes, not the ones
        # _plane_axes would derive for its normal
        moved = kernel_positions(moved_planes, moved_voxmap, e1 @ t.R.T, e2 @ t.R.T,
                                 min_dist=0.05)

        assert len(original) == len(moved)
        assert np.max(np.abs(moved - t.apply(original))) < 1e-9

    def test_rigid_motion_covariance_through_keyframe_keypoints(self):
        rng = np.random.default_rng(5)
        planes, voxmap = self.scene(rng)
        kps = keyframe_keypoints(planes, voxmap, min_dist=0.05)
        assert kps
        points = voxmap.points_of(voxmap.lookup([(9, 9, 9)]))
        # Rotations that carry the plane axes of normal +z onto the axes
        # keyframe_keypoints derives for the moved normal (+x, then +y), so
        # the moved plane is rasterized on the moved pixel grid.
        rotations = (
            np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]),
        )
        for R in rotations:
            t = RigidTransform(R, rng.uniform(-5, 5, 3))
            moved_planes = plane_set([t.apply(planes.centers[0])], [t.R @ planes.normals[0]],
                                     boundaries=[[0]])
            e1, e2 = _plane_axes(planes.normals)
            moved_e1, moved_e2 = _plane_axes(moved_planes.normals)
            assert np.array_equal(moved_e1[0], R @ e1[0])
            assert np.array_equal(moved_e2[0], R @ e2[0])
            moved_voxmap = one_voxel_map((9, 9, 9), t.apply(points))
            mkps = keyframe_keypoints(moved_planes, moved_voxmap, min_dist=0.05)

            assert len(kps) == len(mkps)
            original = np.array([k.position for k in kps])
            moved = np.array([k.position for k in mkps])
            assert np.max(np.abs(moved - t.apply(original))) < 1e-9


def test_keyframe_keypoints_caps_count():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-30, 30, size=(4000, 3))
    pts[:, 2] = np.abs(pts[:, 2]) * 0.05 + 0.2
    planes, voxmap = make_plane_scene([0, 0, 0], [0, 0, 1], pts)
    kps = keyframe_keypoints(planes, voxmap, pixel_size=0.5, min_dist=0.0, max_keypoints=50)
    assert len(kps) == 50
    strengths = [k.strength for k in kps]
    assert strengths == sorted(strengths, reverse=True)


def test_keyframe_keypoints_rejects_negative_cap():
    planes, voxmap = make_plane_scene([0, 0, 0], [0, 0, 1], [[0.1, 0.1, 0.5]])
    assert len(keyframe_keypoints(planes, voxmap, max_keypoints=0)) == 0
    with pytest.raises(ValueError, match="max_keypoints"):
        keyframe_keypoints(planes, voxmap, max_keypoints=-5)
