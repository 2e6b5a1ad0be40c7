"""Canonical triangle descriptors built from key-point neighborhoods.

Every key point is joined with pairs drawn from its k nearest neighbors.
Vertices are relabeled so the side lengths come out ascending
(|p1p2| <= |p2p3| <= |p1p3|), which pins the vertex correspondence between
two matched triangles without enumerating permutations. Triangles that are
tiny, near-degenerate, or repeat an already-emitted quantized side triple
are dropped.

A keyframe's descriptors are one ``DescriptorFrame`` of columns, from
``build_descriptors`` through the database, verification and snapshots.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import permutations

import numpy as np
from scipy.spatial import cKDTree

from .keypoints import KeyPoint

log = logging.getLogger(__name__)

MIN_SIDE_LENGTH = 0.5      # meters; smaller triangles jitter too much
DEGENERATE_SLACK = 0.1     # meters of triangle-inequality slack required
DEDUP_RESOLUTION = 0.01    # meters; side triples equal at this grid are duplicates


@dataclass(frozen=True)
class TriangleDescriptor:
    """One row of a DescriptorFrame: a triangle of key points with per-vertex
    plane normals, sides ascending."""

    vertices: np.ndarray  # (3, 3) rows p1, p2, p3
    normals: np.ndarray   # (3, 3) rows n1, n2, n3
    sides: np.ndarray     # (3,) l12, l23, l13, ascending
    frame_id: int


@dataclass(frozen=True, eq=False)
class DescriptorFrame:
    """One keyframe's descriptors as float64 columns, a row per triangle.

    An integer index gives that row as a ``TriangleDescriptor``; a slice, a
    mask or an index array gives a frame of those rows.
    """

    vertices: np.ndarray  # (M, 3, 3)
    normals: np.ndarray   # (M, 3, 3)
    sides: np.ndarray     # (M, 3)
    frame_id: int

    @classmethod
    def empty(cls, frame_id: int) -> DescriptorFrame:
        return cls(np.empty((0, 3, 3)), np.empty((0, 3, 3)), np.empty((0, 3)), frame_id)

    def __len__(self) -> int:
        return len(self.sides)

    def __getitem__(self, index):
        row_type = TriangleDescriptor if isinstance(index, (int, np.integer)) else DescriptorFrame
        return row_type(self.vertices[index], self.normals[index], self.sides[index], self.frame_id)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True, eq=False)
class DescriptorPairs:
    """Matched descriptors as two aligned frames: row i of ``query`` matched
    row i of ``stored``. Iteration gives (query row, stored row) tuples; a
    mask or an index array gives the pairs of those rows."""

    query: DescriptorFrame
    stored: DescriptorFrame

    def __len__(self) -> int:
        return len(self.query)

    def __getitem__(self, index) -> DescriptorPairs:
        return DescriptorPairs(self.query[index], self.stored[index])

    def __iter__(self):
        return zip(self.query, self.stored)


def _canonical_order(pts: np.ndarray) -> tuple[int, int, int]:
    """Vertex permutation giving ascending sides, ties broken lexicographically."""
    d = {
        (0, 1): float(np.linalg.norm(pts[0] - pts[1])),
        (0, 2): float(np.linalg.norm(pts[0] - pts[2])),
        (1, 2): float(np.linalg.norm(pts[1] - pts[2])),
    }

    def side(i: int, j: int) -> float:
        return d[(i, j) if i < j else (j, i)]

    best = None
    best_key = None
    for perm in permutations((0, 1, 2)):
        a, b, c = perm
        if not (side(a, b) <= side(b, c) <= side(a, c)):
            continue
        key = (tuple(pts[a]), tuple(pts[b]), tuple(pts[c]))
        if best_key is None or key < best_key:
            best, best_key = perm, key
    return best


def build_descriptors(
    keypoints: list[KeyPoint],
    k_neighbors: int = 20,
    frame_id: int = 0,
    min_side: float = MIN_SIDE_LENGTH,
    degenerate_slack: float = DEGENERATE_SLACK,
    dedup_resolution: float = DEDUP_RESOLUTION,
) -> DescriptorFrame:
    """Form deduplicated canonical triangles from key-point neighborhoods.

    Key points are processed in lexicographic position order, so the result
    depends only on the key-point multiset. Rows are sorted by side triple.

    An anchor's neighbors are its k nearest as returned by cKDTree.query.
    When several points tie at the k-th distance, the ones kept are the
    tree's choice, not the lowest indices: on 30 integer-lattice points with
    k=20 this gives 331 descriptors where index-order ties would give 327.
    """
    if len(keypoints) < 3:
        log.warning("frame %d: %d key points, need 3 for descriptors", frame_id, len(keypoints))
        return DescriptorFrame.empty(frame_id)

    order = sorted(range(len(keypoints)), key=lambda i: tuple(keypoints[i].position))
    positions = np.array([keypoints[i].position for i in order])
    normals = np.array([keypoints[i].normal for i in order])
    m = len(positions)
    k = min(k_neighbors, m - 1)
    if k < 2:  # a triangle needs two neighbors besides its anchor
        return DescriptorFrame.empty(frame_id)

    tree = cKDTree(positions)
    # k+1 because the anchor is its own nearest neighbor
    _, nn = tree.query(positions, k=k + 1)
    not_self = nn != np.arange(m)[:, None]
    not_self &= np.cumsum(not_self, axis=1) <= k
    nbr = np.sort(nn[not_self].reshape(m, k), axis=1)

    # candidate vertex triples anchor-major, neighbor pairs in index order
    pair_a, pair_b = np.triu_indices(k, k=1)
    idx = np.empty((m, len(pair_a), 3), dtype=np.int64)
    idx[:, :, 0] = np.arange(m)[:, None]
    idx[:, :, 1] = nbr[:, pair_a]
    idx[:, :, 2] = nbr[:, pair_b]
    idx = idx.reshape(-1, 3)

    a, b, c = positions[idx[:, 0]], positions[idx[:, 1]], positions[idx[:, 2]]
    raw = np.stack(
        [
            np.linalg.norm(a - b, axis=1),  # side {anchor, i}
            np.linalg.norm(b - c, axis=1),  # side {i, j}
            np.linalg.norm(a - c, axis=1),  # side {anchor, j}
        ],
        axis=1,
    )
    lengths = np.sort(raw, axis=1)
    keep = (lengths[:, 0] >= min_side) & (
        lengths[:, 0] + lengths[:, 1] - lengths[:, 2] > degenerate_slack
    )
    idx, raw, lengths = idx[keep], raw[keep], lengths[keep]
    if not len(idx):
        return DescriptorFrame.empty(frame_id)

    # first occurrence per quantized side triple, in enumeration order
    quantized = np.round(lengths / dedup_resolution).astype(np.int64)
    by_triple = np.lexsort(quantized.T[::-1])  # stable: first occurrence leads each run
    q = quantized[by_triple]
    run_start = np.ones(len(q), dtype=bool)
    run_start[1:] = np.any(q[1:] != q[:-1], axis=1)
    first = np.sort(by_triple[run_start])
    idx, raw, lengths = idx[first], raw[first], lengths[first]

    # p1 is the vertex shared by the smallest and largest sides; exact ties
    # fall back to the permutation scan
    perm = _PERM_TABLE[np.argmin(raw, axis=1), np.argmax(raw, axis=1)]
    tied = (lengths[:, 0] == lengths[:, 1]) | (lengths[:, 1] == lengths[:, 2])
    for row in np.flatnonzero(tied):
        perm[row] = _canonical_order(positions[idx[row]])
    vertex_ids = np.take_along_axis(idx, perm, axis=1)
    vertices, vertex_normals = positions[vertex_ids], normals[vertex_ids]

    # sort by side triple; deduplication left no two rows with equal sides,
    # so the vertex coordinates never break a tie
    by_sides = np.lexsort(lengths.T[::-1])
    return DescriptorFrame(
        vertices[by_sides], vertex_normals[by_sides], lengths[by_sides], frame_id
    )


# local vertex order (of [anchor, i, j]) indexed by (smallest side, largest
# side); sides are 0:{anchor,i} 1:{i,j} 2:{anchor,j}; rows with equal indices
# are never looked up for untied sides
_PERM_TABLE = np.zeros((3, 3, 3), dtype=np.int64)
_PERM_TABLE[0, 1] = (1, 0, 2)
_PERM_TABLE[0, 2] = (0, 1, 2)
_PERM_TABLE[1, 0] = (1, 2, 0)
_PERM_TABLE[1, 2] = (2, 1, 0)
_PERM_TABLE[2, 0] = (0, 2, 1)
_PERM_TABLE[2, 1] = (2, 0, 1)
_PERM_TABLE.setflags(write=False)
