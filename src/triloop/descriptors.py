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
from functools import cached_property
from itertools import permutations

import numpy as np
from scipy.spatial import cKDTree

from .cells import pack_cells
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


def frame_signatures(sides: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """(M, 6) signatures from sides (M, 3) and vertex normals (M, 3, 3): the
    sides, then |n1.n2|, |n2.n3| and |n1.n3|.

    Equal bit for bit, row by row, to the scalar reference ``signature`` in
    ``tests/scalar_descriptors.py``: the stacked matmul forms each normal dot
    product the same way as the scalar ``n1 @ n2`` (einsum and
    multiply-then-sum differ in the last ulp).
    """
    sides = np.asarray(sides, dtype=np.float64).reshape(-1, 3)
    normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3, 3)
    left = normals[:, [0, 1, 0], None, :]    # n1, n2, n1 as (M, 3, 1, 3)
    right = normals[:, [1, 2, 2], :, None]   # n2, n3, n3 as (M, 3, 3, 1)
    dots = np.abs((left @ right)[:, :, 0, 0])
    return np.hstack([sides, dots])


@dataclass(frozen=True, eq=False)
class DescriptorFrame:
    """One keyframe's descriptors as float64 columns, a row per triangle.

    ``signatures`` holds each row's six rigid-invariant attributes, the ones
    the database quantizes: sides l12, l23, l13, then |n1.n2|, |n2.n3| and
    |n1.n3|. It is computed once, by ``from_sides``, when a frame is built or
    loaded; ``sides`` is a view of its first three columns. An integer index
    gives that row as a ``TriangleDescriptor``; a slice, a mask or an index
    array gives a frame of those rows, signatures included.
    """

    vertices: np.ndarray    # (M, 3, 3)
    normals: np.ndarray     # (M, 3, 3)
    signatures: np.ndarray  # (M, 6)
    frame_id: int

    def __post_init__(self):
        if self.signatures.shape[1:] != (6,):
            raise ValueError(f"signatures must be (M, 6), got {self.signatures.shape}")

    @classmethod
    def from_sides(cls, vertices, normals, sides, frame_id: int) -> DescriptorFrame:
        """The frame of the given columns, its signatures computed here."""
        return cls(vertices, normals, frame_signatures(sides, normals), frame_id)

    @classmethod
    def empty(cls, frame_id: int) -> DescriptorFrame:
        return cls(np.empty((0, 3, 3)), np.empty((0, 3, 3)), np.empty((0, 6)), frame_id)

    @property
    def sides(self) -> np.ndarray:
        """(M, 3) sides, ascending per row; a view of the signatures."""
        return self.signatures[:, :3]

    def __len__(self) -> int:
        return len(self.signatures)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return TriangleDescriptor(self.vertices[index], self.normals[index],
                                      self.signatures[index, :3], self.frame_id)
        return DescriptorFrame(self.vertices[index], self.normals[index],
                               self.signatures[index], self.frame_id)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True, eq=False)
class DescriptorPairs:
    """Matched descriptors as row indices: row ``query_rows[i]`` of
    ``query_frame`` matched row ``stored_rows[i]`` of ``stored_frame``.

    ``query`` and ``stored`` are the matched rows as two aligned frames,
    gathered on first use. Iteration gives (query row, stored row) tuples; a
    mask or an index array gives the pairs of those rows, without copying
    descriptors.
    """

    query_frame: DescriptorFrame
    stored_frame: DescriptorFrame
    query_rows: np.ndarray
    stored_rows: np.ndarray

    def __post_init__(self):
        if self.query_rows.shape != self.stored_rows.shape or self.query_rows.ndim != 1:
            raise ValueError(f"row arrays must be aligned and 1-D, got "
                             f"{self.query_rows.shape} and {self.stored_rows.shape}")

    @cached_property
    def query(self) -> DescriptorFrame:
        return self.query_frame[self.query_rows]

    @cached_property
    def stored(self) -> DescriptorFrame:
        return self.stored_frame[self.stored_rows]

    def vertices(self) -> tuple[np.ndarray, np.ndarray]:
        """The (P, 3, 3) vertices of the query rows and of the stored rows."""
        return (self.query_frame.vertices[self.query_rows],
                self.stored_frame.vertices[self.stored_rows])

    def __len__(self) -> int:
        return len(self.query_rows)

    def __getitem__(self, index) -> DescriptorPairs:
        return DescriptorPairs(self.query_frame, self.stored_frame,
                               self.query_rows[index], self.stored_rows[index])

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

    positions = np.array([kp.position for kp in keypoints])
    normals = np.array([kp.normal for kp in keypoints])
    order = np.lexsort(positions.T[::-1])  # stable, like sorting position tuples
    positions, normals = positions[order], normals[order]
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
    anchor = np.repeat(np.arange(m), len(pair_a))
    first_nbr = nbr[:, pair_a].ravel()
    second_nbr = nbr[:, pair_b].ravel()
    dist = _distance_matrix(positions)
    raw = (dist[anchor, first_nbr], dist[first_nbr, second_nbr], dist[anchor, second_nbr])
    short, long_ = np.minimum(raw[0], raw[1]), np.maximum(raw[0], raw[1])
    lengths = (np.minimum(short, raw[2]), np.maximum(short, np.minimum(long_, raw[2])),
               np.maximum(long_, raw[2]))  # each row's sides, ascending
    keep = np.flatnonzero((lengths[0] >= min_side)
                          & (lengths[0] + lengths[1] - lengths[2] > degenerate_slack))
    if not len(keep):
        return DescriptorFrame.empty(frame_id)
    lengths = np.stack([col[keep] for col in lengths], axis=1)

    # first occurrence per quantized side triple, in enumeration order: the
    # lowest candidate index of each run of equal keys; the triples are packed
    # into int64 keys like grid cells (CellOutOfRange past the int64 range)
    key = pack_cells(np.round(lengths / dedup_resolution).astype(np.int64))
    by_key = np.argsort(key)
    run_starts = np.flatnonzero(np.diff(key[by_key], prepend=-1))
    unique = np.sort(np.minimum.reduceat(by_key, run_starts))
    first, lengths = keep[unique], lengths[unique]
    idx = np.stack([anchor[first], first_nbr[first], second_nbr[first]], axis=1)
    raw = [col[first] for col in raw]

    # p1 is the vertex shared by the smallest and largest sides; exact ties
    # fall back to the permutation scan
    perm = _PERM_TABLE[_first_extreme(raw, np.less_equal), _first_extreme(raw, np.greater_equal)]
    tied = (lengths[:, 0] == lengths[:, 1]) | (lengths[:, 1] == lengths[:, 2])
    for row in np.flatnonzero(tied):
        perm[row] = _canonical_order(positions[idx[row]])
    vertex_ids = np.take_along_axis(idx, perm, axis=1)

    # sort by side triple; deduplication left no two rows with equal sides,
    # so the vertex coordinates never break a tie
    by_sides = np.lexsort(lengths.T[::-1])
    vertex_ids = vertex_ids[by_sides]
    return DescriptorFrame.from_sides(
        positions[vertex_ids], normals[vertex_ids], lengths[by_sides], frame_id)


def _first_extreme(columns, at_least_as) -> np.ndarray:
    """Per row, the first of three columns holding the row's extreme, like
    np.argmin (at_least_as=np.less_equal) or np.argmax (np.greater_equal)."""
    a, b, c = columns
    return np.where(at_least_as(a, b) & at_least_as(a, c), 0, np.where(at_least_as(b, c), 1, 2))


def _distance_matrix(positions: np.ndarray) -> np.ndarray:
    """(m, m) Euclidean distances between m points, each the square root of
    the left-to-right sum of squared coordinate differences: bit for bit
    np.linalg.norm(a - b) of the two points, and symmetric."""
    d = positions[:, None, :] - positions[None, :, :]
    d *= d
    return np.sqrt(d[..., 0] + d[..., 1] + d[..., 2])


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
