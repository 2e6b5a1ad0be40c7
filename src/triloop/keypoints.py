"""Boundary-point projection, plane distance images, and key-point NMS.

Boundary points are projected onto their plane; each image pixel keeps the
maximum point-to-plane distance and the index of the 3D point that produced
it. A pixel becomes a key point when it strictly dominates its 5x5 occupied
neighborhood, so every key point is an actual input point, never a synthetic
coordinate.

Ties are broken by index on both steps: a pixel keeps the lowest-index point
among those at its maximum distance, and of two equal pixels in one window
the one earlier in row-major order wins.

A keyframe's planes, one PlaneSet, are handled together: their boundary
points are one gather of the set's boundary voxel rows, and their images
share one flat mosaic. Each image sits in its own block, framed by
NMS_RADIUS empty pixels, so one scatter of maxima fills every plane's image
and one windowed comparison suppresses every candidate pixel without a window
reaching into another plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import _INT64_MAX, int64_cells
from .errors import CellOutOfRange, NonPositiveLeaf
from .geometry import _norms
from .planes import PlaneSet, VoxelMap, _offsets

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


@dataclass(frozen=True)
class _Mosaic:
    """Pixel layout of several plane images in one flat array.

    Image p, of shape[p] pixels, sits in a block of (h + 2r) x (w + 2r)
    pixels with its [0, 0] at flat index base[p]; blocks follow one another
    in plane order, so flat order is plane order, then row-major order.
    """

    lo: np.ndarray      # (P, 2) pixel index of each image's [0, 0]
    shape: np.ndarray   # (P, 2) image height and width
    base: np.ndarray    # (P,) flat index of each image's [0, 0]
    stride: np.ndarray  # (P,) flat step between rows of a block
    size: int           # flat pixel count

    @classmethod
    def of(cls, lo: np.ndarray, hi: np.ndarray) -> _Mosaic:
        """The mosaic of images spanning pixels lo to hi (P, 2). Raises
        CellOutOfRange when its pixel count does not fit an int64, counted
        in Python integers, where the int64 arithmetic below would wrap."""
        size = sum((h0 - l0 + 1 + 2 * NMS_RADIUS) * (h1 - l1 + 1 + 2 * NMS_RADIUS)
                   for (l0, l1), (h0, h1) in zip(lo.tolist(), hi.tolist()))
        if size > _INT64_MAX:
            raise CellOutOfRange(f"key-point images need {size} pixels, beyond the int64 range")
        shape = hi - lo + 1
        stride = shape[:, 1] + 2 * NMS_RADIUS
        blocks = (shape[:, 0] + 2 * NMS_RADIUS) * stride
        starts = np.cumsum(blocks) - blocks
        base = starts + NMS_RADIUS * stride + NMS_RADIUS
        return cls(lo, shape, base, stride, size)

    def flat(self, image: np.ndarray, pix: np.ndarray) -> np.ndarray:
        """Flat index of pixels pix (N, 2) of images image (N,)."""
        rel = pix - self.lo[image]
        return self.base[image] + rel[:, 0] * self.stride[image] + rel[:, 1]


def _plane_axes(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """In-plane axes (P, 3), (P, 3) of P unit normals.

    Each row is computed as the one-normal formula: with axis the one-hot
    vector, e1 = axis - (axis @ u) * u over its norm and e2 = u x e1.
    """
    u = normals
    rows = np.arange(len(u))
    least = np.argmin(np.abs(u), axis=1)
    axis = np.zeros_like(u)
    axis[rows, least] = 1.0
    # axis @ u is exactly u[least]: the other terms are signed zeros
    e1 = axis - u[rows, least][:, None] * u
    e1 /= _norms(e1)[:, None]
    return e1, np.cross(u, e1)


def _boundary_points(planes: PlaneSet, voxmap: VoxelMap) -> tuple[np.ndarray, np.ndarray]:
    """Every plane's boundary-voxel points, plane after plane and in search
    order within one, from one gather; plane p holds rows
    bounds[p]:bounds[p + 1]."""
    rows = planes.boundary_rows
    sizes = voxmap.offsets[rows + 1] - voxmap.offsets[rows]
    bounds = _offsets(sizes)[planes.boundary_offsets]
    return voxmap.points_of(rows), bounds


def _project(points, bounds, centers, normals, e1, e2) -> tuple[np.ndarray, np.ndarray]:
    """Distances (N,) and uv (N, 2) of each plane's points onto its plane.

    The offsets from the centers are one subtraction. The products are one
    matrix-vector product per plane and axis: OpenBLAS rounds a row of such a
    product by where it falls in the call's blocks, so only the per-plane
    call gives each plane's values bit for bit.
    """
    rel = points - np.repeat(centers, np.diff(bounds), axis=0)
    distances, u, v = np.empty((3, len(points)))
    for p, (start, stop) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        segment = rel[start:stop]
        np.matmul(segment, normals[p], out=distances[start:stop])
        np.matmul(segment, e1[p], out=u[start:stop])
        np.matmul(segment, e2[p], out=v[start:stop])
    return np.abs(distances), np.stack([u, v], axis=1)


def _raster(
    distances: np.ndarray, uv: np.ndarray, bounds: np.ndarray, pixel_size: float
) -> tuple[_Mosaic, np.ndarray, np.ndarray, np.ndarray]:
    """Bin each plane's projections into its image of one mosaic.

    Returns the mosaic, each point's image, and per flat pixel the max
    distance (-inf where empty) and the point holding it: the lowest index
    among the points at the maximum, -1 where empty. Raises CellOutOfRange
    when a pixel index, or the mosaic's pixel count, does not fit an int64.
    """
    if not pixel_size > 0:
        raise NonPositiveLeaf(f"pixel_size must be > 0, got {pixel_size}")
    pix = int64_cells(np.floor(uv / pixel_size), f"key-point pixels at pixel size {pixel_size}")
    starts = bounds[:-1]
    mosaic = _Mosaic.of(np.minimum.reduceat(pix, starts, axis=0),
                        np.maximum.reduceat(pix, starts, axis=0))
    image = np.repeat(np.arange(len(starts)), np.diff(bounds))
    flat = mosaic.flat(image, pix)
    values = np.full(mosaic.size, -np.inf)
    np.maximum.at(values, flat, distances)
    at_max = np.flatnonzero(distances == values[flat])
    sources = np.full(mosaic.size, len(distances))
    np.minimum.at(sources, flat[at_max], at_max)
    sources[sources == len(distances)] = -1
    return mosaic, image, values, sources


def _nms(values: np.ndarray, centers: np.ndarray, strides: np.ndarray) -> np.ndarray:
    """Which candidate pixels survive: a pixel at flat index centers[i], in a
    block of row step strides[i], must be strictly greater than every pixel
    of its window, or equal to and earlier in row-major order than it. Empty
    pixels hold -inf."""
    v = values[centers][:, None]
    window = values[centers[:, None] + strides[:, None] * _WINDOW[:, 0] + _WINDOW[:, 1]]
    return ((window < v) | (~_EARLIER & (window == v))).all(axis=1)


def keyframe_keypoints(
    planes: PlaneSet,
    voxmap: VoxelMap,
    pixel_size: float = 0.5,
    min_dist: float = 0.2,
    frame_id: int = 0,
    max_keypoints: int = 200,
) -> list[KeyPoint]:
    """Key points of every plane, the strongest max_keypoints overall.

    Planes without boundary voxels are skipped. Key points are ordered by
    strength descending, then plane id, then position (x, y, z); the cap
    keeps the descriptor count bounded on dense keyframes.
    """
    if max_keypoints < 0:
        raise ValueError(f"max_keypoints must be >= 0, got {max_keypoints}")
    has_boundary = np.diff(planes.boundary_offsets) > 0
    if not has_boundary.any():
        return []
    ids = np.flatnonzero(has_boundary)
    planes = planes[has_boundary]
    points, bounds = _boundary_points(planes, voxmap)
    normals = planes.normals
    e1, e2 = _plane_axes(normals)
    distances, uv = _project(points, bounds, planes.centers, normals, e1, e2)

    mosaic, image, values, sources = _raster(distances, uv, bounds, pixel_size)
    pixels = np.flatnonzero((sources >= 0) & (values >= min_dist))
    candidates = sources[pixels]
    found = candidates[_nms(values, pixels, mosaic.stride[image[candidates]])]

    strength = distances[found]
    plane_ids = ids[image[found]]
    position = points[found]
    keep = np.lexsort((position[:, 2], position[:, 1], position[:, 0], plane_ids, -strength))
    keep = keep[:max_keypoints]
    normal = normals[image[found[keep]]]
    return [
        KeyPoint(position=p, normal=n, plane_id=i, frame_id=frame_id, strength=s)
        for p, n, i, s in zip(position[keep], normal, plane_ids[keep].tolist(),
                              strength[keep].tolist())
    ]
