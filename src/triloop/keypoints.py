"""Boundary-point projection, per-plane distance images, and key-point NMS.

Boundary points are projected onto their plane; each image pixel keeps the
maximum point-to-plane distance and the index of the 3D point that produced
it. A pixel becomes a key point when it strictly dominates its 5x5 occupied
neighborhood, so every key point is an actual input point, never a synthetic
coordinate.

Ties are broken by index on both steps: a pixel keeps the lowest-index point
among those at its maximum distance, and of two equal pixels in one window
the one earlier in row-major order wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoBoundary, NonPositiveLeaf
from .planes import Plane, VoxelMap

NMS_RADIUS = 2  # 5x5 neighborhood

# The 24 window offsets around a pixel, and which of them come earlier in
# row-major order (an earlier pixel wins a tie).
_WINDOW = np.array([
    (dr, dc)
    for dr in range(-NMS_RADIUS, NMS_RADIUS + 1)
    for dc in range(-NMS_RADIUS, NMS_RADIUS + 1)
    if (dr, dc) != (0, 0)
])
_EARLIER = (_WINDOW[:, 0] < 0) | ((_WINDOW[:, 0] == 0) & (_WINDOW[:, 1] < 0))


@dataclass(frozen=True)
class KeyPoint:
    """Boundary-projection maximum carrying its plane's normal."""

    position: np.ndarray  # (3,) a point of the input cloud
    normal: np.ndarray    # (3,) unit plane normal
    plane_id: int
    frame_id: int
    strength: float       # pixel value (point-to-plane distance, meters)


@dataclass
class PlaneImage:
    """Raster of max point-to-plane distances over one plane's boundary points."""

    plane_id: int
    origin: np.ndarray        # (3,) plane center
    e1: np.ndarray            # (3,) in-plane axis
    e2: np.ndarray            # (3,) in-plane axis, u x e1
    normal: np.ndarray        # (3,)
    pixel_size: float
    offset: tuple[int, int]   # pixel index of grid[0, 0]
    values: np.ndarray        # (h, w) max distance, -inf where empty
    sources: np.ndarray       # (h, w) index into points, -1 where empty
    points: np.ndarray        # (m, 3) original 3D boundary points


def plane_axes(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic in-plane basis: e1 from the global axis least aligned
    with the normal, e2 = normal x e1."""
    u = np.asarray(normal, dtype=np.float64)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(u)))] = 1.0
    e1 = axis - (axis @ u) * u
    e1 /= np.linalg.norm(e1)
    # u x e1 written out: the same products and differences as np.cross
    e2 = np.array([
        u[1] * e1[2] - u[2] * e1[1],
        u[2] * e1[0] - u[0] * e1[2],
        u[0] * e1[1] - u[1] * e1[0],
    ])
    return e1, e2


def project_boundary(
    plane: Plane,
    voxmap: VoxelMap,
    axes: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project the plane's boundary-voxel points onto the plane.

    Returns (points, distances, uv): the original 3D points, their unsigned
    point-to-plane distances, and their 2D in-plane coordinates.
    """
    if not plane.boundary_cells:
        raise NoBoundary(f"plane {plane.id} has no boundary voxels")
    [pts] = _boundary_points([plane], voxmap)
    return _project(pts, plane, plane_axes(plane.normal) if axes is None else axes)


def _boundary_points(planes: list[Plane], voxmap: VoxelMap) -> list[np.ndarray]:
    """Each plane's boundary-voxel points, in boundary-cell order, from one
    lookup and one gather for all planes."""
    rows = voxmap.lookup([c for plane in planes for c in plane.boundary_cells])
    if np.any(rows < 0):
        raise KeyError("boundary cells outside the voxel map")
    sizes = voxmap.offsets[rows + 1] - voxmap.offsets[rows]
    ends = np.cumsum([len(plane.boundary_cells) for plane in planes])
    return np.split(voxmap.points_of(rows), np.cumsum(sizes)[ends[:-1] - 1])


def _project(pts: np.ndarray, plane: Plane, axes: tuple[np.ndarray, np.ndarray]):
    e1, e2 = axes
    rel = pts - plane.center
    distances = np.abs(rel @ plane.normal)
    uv = np.stack([rel @ e1, rel @ e2], axis=1)
    return pts, distances, uv


def rasterize(
    points: np.ndarray,
    distances: np.ndarray,
    uv: np.ndarray,
    pixel_size: float,
    plane: Plane,
    axes: tuple[np.ndarray, np.ndarray] | None = None,
) -> PlaneImage:
    """Bin projections into pixels, keeping the max distance per pixel.

    On a tie the pixel keeps the point with the lowest index.
    """
    if pixel_size <= 0:
        raise NonPositiveLeaf(f"pixel_size must be > 0, got {pixel_size}")
    e1, e2 = plane_axes(plane.normal) if axes is None else axes
    pix = np.floor(uv / pixel_size).astype(np.int64)
    lo = pix.min(axis=0)
    hi = pix.max(axis=0)
    shape = (int(hi[0] - lo[0] + 1), int(hi[1] - lo[1] + 1))
    linear = (pix[:, 0] - lo[0]) * shape[1] + (pix[:, 1] - lo[1])
    # by pixel, then distance descending; the stable sort keeps index order
    order = np.lexsort((-distances, linear))
    first = np.ones(len(order), dtype=bool)
    first[1:] = linear[order[1:]] != linear[order[:-1]]
    winners = order[first]
    values = np.full(shape, -np.inf)
    sources = np.full(shape, -1, dtype=np.int64)
    values.flat[linear[winners]] = distances[winners]
    sources.flat[linear[winners]] = winners
    return PlaneImage(
        plane_id=plane.id,
        origin=plane.center,
        e1=e1,
        e2=e2,
        normal=plane.normal,
        pixel_size=pixel_size,
        offset=(int(lo[0]), int(lo[1])),
        values=values,
        sources=sources,
        points=points,
    )


def extract_keypoints(img: PlaneImage, min_dist: float, frame_id: int = 0) -> list[KeyPoint]:
    """Non-max suppression over 5x5 neighborhoods of occupied pixels.

    A pixel survives when its value is >= min_dist and strictly greater than
    every other occupied pixel in the window; exact ties go to the lower
    linearized pixel index. Empty pixels hold -inf.
    """
    values = img.values
    h, w = values.shape
    r = NMS_RADIUS
    padded = np.full((h + 2 * r, w + 2 * r), -np.inf)
    padded[r:r + h, r:r + w] = values
    rows, cols = np.nonzero(np.isfinite(values) & (values >= min_dist))
    v = values[rows, cols][:, None]
    centers = (rows + r) * padded.shape[1] + (cols + r)
    steps = _WINDOW[:, 0] * padded.shape[1] + _WINDOW[:, 1]
    window = padded.ravel()[centers[:, None] + steps]  # (candidates, 24)
    wins = ((window < v) | (~_EARLIER & (window == v))).all(axis=1)
    return [
        KeyPoint(
            position=img.points[img.sources[rr, cc]].copy(),
            normal=img.normal.copy(),
            plane_id=img.plane_id,
            frame_id=frame_id,
            strength=float(values[rr, cc]),
        )
        for rr, cc in zip(rows[wins].tolist(), cols[wins].tolist())
    ]


def keyframe_keypoints(
    planes: list[Plane],
    voxmap: VoxelMap,
    pixel_size: float = 0.5,
    min_dist: float = 0.2,
    frame_id: int = 0,
    max_keypoints: int = 200,
) -> list[KeyPoint]:
    """Extract key points for every plane and keep the strongest overall.

    Planes without boundary voxels are skipped. The cap keeps the descriptor
    count bounded on dense keyframes.
    """
    planes = [plane for plane in planes if plane.boundary_cells]
    if not planes:
        return []
    collected: list[KeyPoint] = []
    for plane, boundary in zip(planes, _boundary_points(planes, voxmap)):
        axes = plane_axes(plane.normal)
        pts, dists, uv = _project(boundary, plane, axes)
        img = rasterize(pts, dists, uv, pixel_size, plane, axes=axes)
        collected.extend(extract_keypoints(img, min_dist, frame_id=frame_id))
    collected.sort(key=lambda k: (-k.strength, k.plane_id, tuple(k.position)))
    return collected[:max_keypoints]
