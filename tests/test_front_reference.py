"""The array front half against its per-point and per-voxel references.

Every output must be bit-identical: downsampled centroids, voxel columns,
plane fields, raster images and key points.
"""

import numpy as np
import pytest
from plane_sets import one_image, plane_set, segment_cells
from scalar_front import (
    ScalarImage,
    ScalarKeyPoint,
    ScalarPlane,
    scalar_classify,
    scalar_downsample,
    scalar_extract_keypoints,
    scalar_grow_planes,
    scalar_keyframe_keypoints,
    scalar_plane_axes,
    scalar_rasterize,
    scalar_voxel_map,
)

from triloop.ingest import voxel_downsample
from triloop.keypoints import NMS_RADIUS, _Mosaic, _nms, _plane_axes, _raster, keyframe_keypoints
from triloop.planes import MIN_VOXEL_POINTS, build_voxel_map, classify_plane_voxels, grow_planes

SEEDS = (0, 1, 2)
OFFSETS = (0.0, -1e5, 1e5)  # coordinates below zero everywhere, and far from the origin


def random_scene(seed, offset):
    """Noisy planar patches of random and axis-aligned orientation, crossing
    each other, plus scattered points that leave sparse voxels."""
    rng = np.random.default_rng(seed)
    parts = []
    for k in range(8):
        if k % 2:
            normal = rng.normal(size=3)
        else:
            normal = np.eye(3)[rng.integers(3)] + rng.normal(scale=0.01, size=3)
        normal /= np.linalg.norm(normal)
        e1 = np.cross(normal, [0.3, 0.5, 0.8])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(normal, e1)
        n = int(rng.integers(1500, 4000))
        st = rng.uniform(-4.0, 4.0, size=(n, 2))
        center = rng.uniform(-8.0, 4.0, size=3)
        noise = rng.normal(scale=rng.choice([0.002, 0.03]), size=n)
        parts.append(center + st[:, :1] * e1 + st[:, 1:] * e2 + noise[:, None] * normal)
    parts.append(rng.uniform(-12.0, 8.0, size=(400, 3)))
    cloud = np.vstack(parts)
    return cloud[rng.permutation(len(cloud))] + offset


def assert_same_planes(got, voxmap, expected):
    """A PlaneSet over voxmap against the reference's planes: a plane's id is
    its row, and its member and boundary rows are the reference's cells."""
    assert len(got) == len(expected)
    assert [e.id for e in expected] == list(range(len(got)))
    assert np.array_equal(got.centers, np.array([e.center for e in expected]))
    assert np.array_equal(got.normals, np.array([e.normal for e in expected]))
    assert (segment_cells(voxmap, got.member_rows, got.member_offsets)
            == [e.member_cells for e in expected])
    assert (segment_cells(voxmap, got.boundary_rows, got.boundary_offsets)
            == [e.boundary_cells for e in expected])
    assert got.point_counts.tolist() == [e.point_count for e in expected]


def assert_same_keypoints(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert np.array_equal(g.position, e.position)
        assert np.array_equal(g.normal, e.normal)
        assert (g.plane_id, g.frame_id, g.strength) == (e.plane_id, e.frame_id, e.strength)


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("seed", SEEDS)
class TestMatchesReference:
    def test_downsample(self, seed, offset):
        cloud = random_scene(seed, offset)
        for leaf in (0.25, 0.3):
            got = voxel_downsample(cloud, leaf)
            assert np.array_equal(got, scalar_downsample(cloud, leaf))
            # one cell-means rule: the voxel map's means are the same bits
            assert got.tobytes() == build_voxel_map(cloud, leaf).means.tobytes()

    def test_voxel_map_and_classify(self, seed, offset):
        cloud = voxel_downsample(random_scene(seed, offset), 0.25)
        voxmap = build_voxel_map(cloud, 1.0)
        ref = scalar_voxel_map(cloud, 1.0)
        cells = sorted(ref)
        voxels = [ref[c] for c in cells]
        assert len(voxmap) == len(ref)
        assert voxmap.cells.tolist() == [list(c) for c in cells]
        assert np.all(np.diff(voxmap.keys) > 0)
        assert voxmap.counts.tolist() == [v.count for v in voxels]
        assert np.array_equal(voxmap.means, np.array([v.mean for v in voxels]))
        assert np.array_equal(voxmap.covariances, np.array([v.covariance for v in voxels]))
        sparse = voxmap.counts < MIN_VOXEL_POINTS
        assert sparse.any() and not sparse.all()
        assert np.isnan(voxmap.eigenvalues[sparse]).all()
        assert np.isnan(voxmap.normals[sparse]).all()
        dense = np.flatnonzero(~sparse)
        assert np.array_equal(voxmap.eigenvalues[dense], np.array([voxels[i].eigenvalues for i in dense]))
        assert np.array_equal(voxmap.normals[dense], np.array([voxels[i].normal for i in dense]))
        for i, voxel in enumerate(voxels):
            assert np.array_equal(voxmap.points[voxmap.offsets[i]:voxmap.offsets[i + 1]], voxel.points)
        assert voxmap.offsets[-1] == len(cloud)

        n = classify_plane_voxels(voxmap, 0.01, 0.05)
        assert type(n) is int
        assert n == scalar_classify(ref, 0.01, 0.05)
        assert 0 < n < len(voxmap)
        assert voxmap.is_plane.tolist() == [v.is_plane for v in voxels]

    def test_planes_and_keypoints(self, seed, offset):
        cloud = voxel_downsample(random_scene(seed, offset), 0.25)
        voxmap = build_voxel_map(cloud, 1.0)
        ref = scalar_voxel_map(cloud, 1.0)
        classify_plane_voxels(voxmap, 0.01, 0.05)
        scalar_classify(ref, 0.01, 0.05)
        for normal_tol, dist_tol in ((0.02, 0.2), (0.2, 0.5)):
            planes = grow_planes(voxmap, normal_tol, dist_tol)
            expected = scalar_grow_planes(ref, normal_tol, dist_tol)
            assert_same_planes(planes, voxmap, expected)
            assert (np.diff(planes.member_offsets) > 1).any()
            assert (np.diff(planes.boundary_offsets) > 0).any()
            got = keyframe_keypoints(planes, voxmap, min_dist=0.1, frame_id=3, max_keypoints=10**6)
            want = scalar_keyframe_keypoints(expected, ref, min_dist=0.1, frame_id=3,
                                             max_keypoints=10**6)
            assert got
            assert_same_keypoints(got, want)


def test_plane_axes_match_reference():
    rng = np.random.default_rng(7)
    normals = list(rng.normal(size=(200, 3))) + list(np.eye(3)) + list(-np.eye(3))
    for n in normals:
        n = n / np.linalg.norm(n)
        e1, e2 = _plane_axes(n.reshape(1, 3))  # one row
        for got, want in zip((e1[0], e2[0]), scalar_plane_axes(n)):
            assert np.array_equal(got, want)


def test_batched_plane_axes_match_reference():
    rng = np.random.default_rng(10)
    normals = np.vstack([rng.normal(size=(2000, 3)), np.eye(3), -np.eye(3),
                         [[0.0, -0.0, 1.0], [-0.0, 0.6, -0.8], [0.6, 0.0, 0.8]]])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    e1, e2 = _plane_axes(normals)
    for n, got1, got2 in zip(normals, e1, e2):
        want1, want2 = scalar_plane_axes(n)
        assert np.array_equal(got1, want1) and np.array_equal(got2, want2)


def hand_planes(cloud, voxel_size, boundaries, centers=None):
    """Planes over a cloud's voxels with hand-chosen boundary cells, all
    with normal +z, plane i holding boundaries[i]; returns them as a PlaneSet
    over the array voxel map and as reference planes over the reference map."""
    centers = np.zeros((len(boundaries), 3)) if centers is None else np.asarray(centers, float)
    normals = np.tile([0.0, 0.0, 1.0], (len(boundaries), 1))
    voxmap = build_voxel_map(cloud, voxel_size)
    planes = plane_set(centers, normals, boundaries=[voxmap.lookup(cells) for cells in boundaries])
    reference = [
        ScalarPlane(id=i, center=c, normal=u, boundary_cells=[tuple(int(v) for v in cell)
                                                             for cell in cells])
        for i, (c, u, cells) in enumerate(zip(centers, normals, boundaries))
    ]
    return planes, voxmap, reference, scalar_voxel_map(cloud, voxel_size)


def test_cap_cuts_through_equal_strengths_like_reference():
    # Grid points 3 pixels apart with strengths from {0.25, 0.5, 0.75}; the
    # planes share voxels, so one point is a key point of several planes
    # with the same strength, and equal strengths recur within a plane.
    rng = np.random.default_rng(11)
    xs, ys = np.meshgrid(np.arange(0.0, 12.0, 1.5), np.arange(0.0, 12.0, 1.5), indexing="ij")
    z = rng.choice([0.25, 0.5, 0.75], size=xs.size)
    cloud = np.column_stack([xs.ravel(), ys.ravel(), z])
    cells = sorted({tuple(c) for c in np.floor(cloud / 4.0).astype(int).tolist()})
    boundaries = [[cells[j] for j in sorted(rng.choice(len(cells), 5, replace=False))]
                  for _ in range(6)]
    centers = [(0.0, 0.0, 0.0), (0.25, 0.5, 0.0), (-1.0, 0.0, 0.0)] * 2
    # the drawn planes take ids 4, 0, 5, 2, 1, 3: plane id k is row k
    order = np.argsort([4, 0, 5, 2, 1, 3])
    planes, voxmap, expected, ref = hand_planes(
        cloud, 4.0, [boundaries[j] for j in order], centers=[centers[j] for j in order])
    full = scalar_keyframe_keypoints(expected, ref, min_dist=0.0, max_keypoints=10**6)
    cut_through_ties = 0
    for cap in range(len(full) + 2):
        got = keyframe_keypoints(planes, voxmap, min_dist=0.0, frame_id=1, max_keypoints=cap)
        want = scalar_keyframe_keypoints(expected, ref, min_dist=0.0, frame_id=1,
                                         max_keypoints=cap)
        assert_same_keypoints(got, want)
        if 0 < cap < len(full):
            last, next_ = full[cap - 1], full[cap]
            cut_through_ties += (last.strength == next_.strength
                                 and last.plane_id != next_.plane_id)
    assert cut_through_ties > 5


def test_planes_without_boundary_keep_their_ids():
    # planes without boundary voxels are skipped; the others keep their
    # rows as plane ids, not their places among the planes with a boundary
    rng = np.random.default_rng(15)
    xs, ys = np.meshgrid(np.arange(0.0, 12.0, 1.5), np.arange(0.0, 12.0, 1.5), indexing="ij")
    cloud = np.column_stack([xs.ravel(), ys.ravel(), rng.uniform(0.1, 0.9, size=xs.size)])
    cells = sorted({tuple(c) for c in np.floor(cloud / 4.0).astype(int).tolist()})
    boundaries = [
        [] if k % 3 == 0 else [cells[j] for j in sorted(rng.choice(len(cells), 3, replace=False))]
        for k in range(7)
    ]
    planes, voxmap, expected, ref = hand_planes(cloud, 4.0, boundaries)
    got = keyframe_keypoints(planes, voxmap, min_dist=0.0, max_keypoints=10**6)
    want = scalar_keyframe_keypoints(expected, ref, min_dist=0.0, max_keypoints=10**6)
    assert {k.plane_id for k in want} == {1, 2, 4, 5}
    assert_same_keypoints(got, want)


@pytest.mark.parametrize("seed", (12, 13, 14))
def test_one_pixel_wide_images_do_not_suppress_across_planes(seed):
    # Each plane's image is one pixel wide or one pixel tall, so in the
    # shared mosaic its pixels touch the block border on every side; a
    # window that reached a neighbouring plane's block would suppress key
    # points the per-plane reference keeps.
    rng = np.random.default_rng(seed)
    columns = []
    for i in range(30):  # voxel (i, 0, 0): x spread over two pixels, y in one
        n = int(rng.integers(1, 5))
        columns.append(np.column_stack([
            i + rng.uniform(0.0, 1.0, n), np.full(n, rng.uniform(0.05, 0.45)),
            rng.choice([0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], n)]))
    rows = []
    for j in range(30):  # voxel (0, j + 2, 0): y spread over two pixels, x in one
        n = int(rng.integers(1, 5))
        rows.append(np.column_stack([
            np.full(n, rng.uniform(0.05, 0.45)), j + 2 + rng.uniform(0.0, 1.0, n),
            rng.choice([0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], n)]))
    cloud = np.vstack(columns + rows)
    boundaries = []
    for first, axis in ((0, 0), (2, 1)):
        k = 0
        while k < 30:
            span = int(rng.integers(1, 3))  # one or two voxels in a line
            boundaries.append([
                (first + k + s, 0, 0) if axis == 0 else (0, first + k + s, 0)
                for s in range(span) if k + s < 30])
            k += span
    planes, voxmap, expected, ref = hand_planes(cloud, 1.0, boundaries)
    widths = []
    for plane in expected:
        pts = np.vstack([ref[c].points for c in plane.boundary_cells])
        pix = np.floor(pts[:, :2] / 0.5).astype(int)
        widths.append(min(np.ptp(pix, axis=0)) + 1)
    assert set(widths) == {1}
    got = keyframe_keypoints(planes, voxmap, min_dist=0.0, max_keypoints=10**6)
    want = scalar_keyframe_keypoints(expected, ref, min_dist=0.0, max_keypoints=10**6)
    assert len(want) > len(planes)
    assert_same_keypoints(got, want)


def test_rasterize_ties_inside_a_pixel():
    rng = np.random.default_rng(8)
    plane = ScalarPlane(id=4, center=np.zeros(3), normal=np.array([0.0, 0.0, 1.0]))
    for _ in range(20):
        n = int(rng.integers(1, 300))
        uv = rng.uniform(-3.0, 3.0, size=(n, 2))
        distances = rng.integers(0, 4, size=n) * 0.25  # many equal maxima per pixel
        points = rng.normal(size=(n, 3))
        mosaic, _, values, sources = _raster(distances, uv, np.array([0, n]), 0.5)
        offset = tuple(mosaic.lo[0].tolist())
        got_values, got_sources = one_image(mosaic, values), one_image(mosaic, sources)
        want = scalar_rasterize(points, distances, uv, 0.5, plane)
        assert offset == want.offset
        assert np.array_equal(got_values, want.values)
        assert np.array_equal(got_sources, want.sources)
        # the winner of a tie is the lowest point index among the pixel's maxima
        pix = np.floor(uv / 0.5).astype(int)
        for r, c in zip(*np.nonzero(got_sources >= 0)):
            in_pixel = np.flatnonzero((pix[:, 0] - offset[0] == r) & (pix[:, 1] - offset[1] == c))
            best = in_pixel[distances[in_pixel] == distances[in_pixel].max()]
            assert got_sources[r, c] == best[0]


def test_nms_ties_match_reference():
    rng = np.random.default_rng(9)
    for _ in range(30):
        h, w = (int(x) for x in rng.integers(1, 25, size=2))
        values = rng.integers(0, 3, size=(h, w)) * 0.5  # plateaus of equal pixels
        values[rng.uniform(size=(h, w)) < 0.3] = -np.inf
        img = ScalarImage(
            plane_id=1, normal=np.array([0, 0, 1.0]), offset=(0, 0), values=values,
            sources=np.arange(h * w).reshape(h, w), points=rng.normal(size=(h * w, 3)),
        )
        # the image as the one block of a mosaic, framed by empty pixels
        mosaic = _Mosaic.of(np.zeros((1, 2), dtype=np.int64), np.array([[h - 1, w - 1]]))
        padded = np.pad(values, NMS_RADIUS, constant_values=-np.inf)
        rows, cols = np.nonzero(np.isfinite(values) & (values >= 0.4))
        image = np.zeros(len(rows), dtype=np.int64)
        centers = mosaic.flat(image, np.column_stack([rows, cols]))
        wins = _nms(padded.ravel(), centers, mosaic.stride[image])
        got = [
            ScalarKeyPoint(position=img.points[img.sources[r, c]], normal=img.normal,
                           plane_id=1, frame_id=2, strength=float(values[r, c]))
            for r, c in zip(rows[wins].tolist(), cols[wins].tolist())
        ]
        assert_same_keypoints(got, scalar_extract_keypoints(img, 0.4, frame_id=2))
