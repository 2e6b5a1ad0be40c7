"""Test helpers for plane sets: a PlaneSet builder for planes with chosen
parameters, their voxel cells, and the image of a one-plane mosaic."""

import numpy as np

from triloop.keypoints import NMS_RADIUS
from triloop.planes import PlaneSet


def plane_set(centers, normals, members=None, boundaries=None, point_counts=None) -> PlaneSet:
    """PlaneSet of P planes from (P, 3) centers and normals, with each plane's
    member and boundary voxel rows given as lists (empty when omitted) and
    point counts (zero when omitted)."""
    centers = np.array(centers, dtype=np.float64).reshape(-1, 3)
    n = len(centers)
    member_rows, member_offsets = _flat([[]] * n if members is None else members)
    boundary_rows, boundary_offsets = _flat([[]] * n if boundaries is None else boundaries)
    return PlaneSet(
        centers=centers,
        normals=np.array(normals, dtype=np.float64).reshape(n, 3),
        point_counts=np.zeros(n, dtype=np.int64) if point_counts is None
        else np.asarray(point_counts, dtype=np.int64),
        member_rows=member_rows,
        member_offsets=member_offsets,
        boundary_rows=boundary_rows,
        boundary_offsets=boundary_offsets,
    )


def _flat(lists) -> tuple[np.ndarray, np.ndarray]:
    rows = np.array([row for rows in lists for row in rows], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum([len(rows) for rows in lists])]).astype(np.int64)
    return rows, offsets


def segment_cells(voxmap, rows, offsets) -> list[list[tuple]]:
    """Per plane, the voxel cells of its segment of a flat row layout (a
    PlaneSet's member or boundary rows and offsets), as tuples in row order."""
    cells = list(map(tuple, voxmap.cells[rows].tolist()))
    return [cells[a:b] for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]


def one_image(mosaic, flat):
    """The (h, w) image of a one-plane mosaic's flat pixels, without the
    block's NMS_RADIUS frame."""
    (h, w), r = mosaic.shape[0].tolist(), NMS_RADIUS
    return flat.reshape(h + 2 * r, w + 2 * r)[r:r + h, r:r + w]
