"""Canonical triangle descriptors built from key-point neighborhoods.

Every key point is joined with pairs drawn from its k nearest neighbors.
Vertices are relabeled so the side lengths come out ascending
(|p1p2| <= |p2p3| <= |p1p3|), which pins the vertex correspondence between
two matched triangles without enumerating permutations. Triangles that are
tiny, near-degenerate, or repeat an already-emitted quantized side triple
are dropped.

A keyframe's descriptors are one ``DescriptorFrame``, from
``build_descriptors`` through the database, verification and snapshots: a
table holding each key point once, and per triangle the table rows of its
vertices and its six signature values.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np
from scipy.spatial import cKDTree

from .cells import cell_keys, mix_words
from .keypoints import KeyPoint

log = logging.getLogger(__name__)

MIN_SIDE_LENGTH = 0.5      # meters; smaller triangles jitter too much
DEGENERATE_SLACK = 0.1     # meters of triangle-inequality slack required
DEDUP_RESOLUTION = 0.01    # meters; side triples equal at this grid are duplicates

_ORDERS = np.array(list(permutations(range(3))))  # the six vertex orders, lexicographic


@dataclass(frozen=True)
class TriangleDescriptor:
    """One row of a DescriptorFrame: a triangle of key points with per-vertex
    plane normals, sides ascending."""

    vertices: np.ndarray  # (3, 3) rows p1, p2, p3
    normals: np.ndarray   # (3, 3) rows n1, n2, n3
    sides: np.ndarray     # (3,) l12, l23, l13, ascending
    frame_id: int


_NORMAL_PAIRS = ((0, 1), (1, 2), (0, 2))  # n1.n2, n2.n3, n1.n3


def frame_signatures(sides: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """(M, 6) signatures from sides (M, 3) and vertex normals (M, 3, 3): the
    sides, then |n1.n2|, |n2.n3| and |n1.n3|.

    Equal bit for bit, row by row, to the scalar reference ``signature`` in
    ``tests/scalar_descriptors.py``: the stacked matmul forms each normal dot
    product the same way as the scalar ``n1 @ n2`` (einsum and
    multiply-then-sum differ in the last ulp). One dot column at a time, so
    the temporaries stay at a third of the normals.
    """
    sides = np.asarray(sides, dtype=np.float64).reshape(-1, 3)
    normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3, 3)
    signatures = np.empty((len(sides), 6))
    signatures[:, :3] = sides
    for column, (a, b) in enumerate(_NORMAL_PAIRS, start=3):
        left = normals[:, [a], None, :]   # (M, 1, 1, 3)
        right = normals[:, [b], :, None]  # (M, 1, 3, 1)
        signatures[:, column] = np.abs((left @ right)[:, 0, 0, 0])
    return signatures


def _point_table(vertices: np.ndarray, normals: np.ndarray):
    """The distinct (position, normal) rows of (M, 3, 3) vertices and
    normals, as (m, 3) positions and (m, 3) normals, and the (M, 3) int32
    table row of every vertex.

    Rows are equal when their six float64 bit patterns are, so -0.0 and 0.0
    stay apart. One hash of the six words and one sort group the rows, and
    every row is checked against its group's table row; on any mismatch (a
    hash collision) a lexsort of the words groups them instead.
    """
    # vertex-major (3, M) words: each hash pass runs over M rows at once
    words = [a[:, :, k].T.view(np.uint64) for a in (vertices, normals) for k in range(3)]
    hashes = mix_words(words).ravel()
    positions, point_normals, ids = _group(np.argsort(hashes), [hashes], vertices, normals)
    if not all(np.array_equal(rows.view(np.uint64), np.take(table.view(np.uint64), ids, axis=0))
               for rows, table in ((vertices, positions), (normals, point_normals))):
        flat = [word.ravel() for word in words]
        order = np.lexsort([word.view(np.int64) for word in reversed(flat)])
        positions, point_normals, ids = _group(order, flat, vertices, normals)
    return positions, point_normals, ids


def _group(order: np.ndarray, keys, vertices: np.ndarray, normals: np.ndarray):
    """Table positions, normals and (M, 3) int32 vertex ids, given an order
    of the 3M vertices (vertex-major: vertex j of row r is j * M + r) that
    makes equal keys adjacent. Table rows come in that order; each is one
    vertex of its group."""
    starts = np.zeros(len(order), dtype=bool)  # ordered vertex begins a group
    starts[:1] = True
    for key in keys:
        ordered = key[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    ids = np.empty(len(order), dtype=np.int32)
    ids[order] = np.cumsum(starts, dtype=np.int32) - 1
    vertex, row = np.divmod(order[starts], len(vertices))
    return (vertices[row, vertex], normals[row, vertex],
            np.ascontiguousarray(ids.reshape(3, -1).T))


@dataclass(frozen=True, eq=False)
class DescriptorFrame:
    """One keyframe's descriptors: a table of key points, and a row per
    triangle that refers to its three vertices in the table.

    The table holds each key point once, its ``positions`` (m, 3) and
    ``point_normals`` (m, 3). A row holds ``vertex_ids``, the table rows of
    p1, p2 and p3 (int32), and ``signatures``, its six rigid-invariant
    attributes, the ones the database quantizes: sides l12, l23, l13, then
    |n1.n2|, |n2.n3| and |n1.n3|. That is 60 bytes per row. The signatures are
    computed once, when a frame is built or loaded; ``sides`` is a view of
    their first three columns. ``vertices`` and ``normals`` gather (M, 3, 3)
    arrays from the table on every access; they are not kept. An integer index
    gives that row as a ``TriangleDescriptor``; a slice, a mask or an index
    array gives a frame of those rows that shares the table.
    """

    positions: np.ndarray      # (m, 3) key-point table
    point_normals: np.ndarray  # (m, 3)
    vertex_ids: np.ndarray     # (M, 3) int32 table rows of p1, p2, p3
    signatures: np.ndarray     # (M, 6)
    frame_id: int

    def __post_init__(self):
        if self.signatures.shape[1:] != (6,):
            raise ValueError(f"signatures must be (M, 6), got {self.signatures.shape}")
        if self.vertex_ids.shape != (len(self.signatures), 3):
            raise ValueError(f"vertex_ids must be (M, 3) for {len(self.signatures)} "
                             f"signatures, got {self.vertex_ids.shape}")

    @classmethod
    def from_sides(cls, vertices, normals, sides, frame_id: int) -> DescriptorFrame:
        """The frame of arbitrary rows given as (M, 3, 3) vertices and
        normals and (M, 3) sides; its signatures and key-point table are
        computed here, the table from the rows' bit patterns."""
        vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3, 3)
        normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3, 3)
        positions, point_normals, vertex_ids = _point_table(vertices, normals)
        return cls(positions, point_normals, vertex_ids, frame_signatures(sides, normals),
                   frame_id)

    @classmethod
    def empty(cls, frame_id: int) -> DescriptorFrame:
        return cls(np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3), dtype=np.int32),
                   np.empty((0, 6)), frame_id)

    @property
    def vertices(self) -> np.ndarray:
        """(M, 3, 3) rows p1, p2, p3, gathered from the table."""
        return self.positions[self.vertex_ids]

    @property
    def normals(self) -> np.ndarray:
        """(M, 3, 3) rows n1, n2, n3, gathered from the table."""
        return self.point_normals[self.vertex_ids]

    @property
    def sides(self) -> np.ndarray:
        """(M, 3) sides, ascending per row; a view of the signatures."""
        return self.signatures[:, :3]

    @property
    def nbytes(self) -> int:
        """Bytes of the table and of the rows."""
        return (self.positions.nbytes + self.point_normals.nbytes
                + self.vertex_ids.nbytes + self.signatures.nbytes)

    def __len__(self) -> int:
        return len(self.signatures)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            ids = self.vertex_ids[index]
            return TriangleDescriptor(self.positions[ids], self.point_normals[ids],
                                      self.signatures[index, :3], self.frame_id)
        return DescriptorFrame(self.positions, self.point_normals, self.vertex_ids[index],
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

    def __len__(self) -> int:
        return len(self.query_rows)

    def __getitem__(self, index) -> DescriptorPairs:
        return DescriptorPairs(self.query_frame, self.stored_frame,
                               self.query_rows[index], self.stored_rows[index])

    def __iter__(self):
        return zip(self.query, self.stored)


def build_descriptors(
    keypoints: list[KeyPoint],
    k_neighbors: int = 20,
    frame_id: int = 0,
    min_side: float = MIN_SIDE_LENGTH,
) -> DescriptorFrame:
    """Form deduplicated canonical triangles from key-point neighborhoods.

    A triangle is kept when its shortest side is at least min_side and its
    two shorter sides beat the longest by more than DEGENERATE_SLACK, so its
    vertices are three distinct points.

    Key points are processed in lexicographic position order, so the result
    depends only on the key-point multiset. Rows come in ascending order of
    their quantized side triple (sides over DEDUP_RESOLUTION, rounded), which
    deduplication leaves unique per row.

    An anchor's neighbors are its k nearest as returned by cKDTree.query.
    When several points tie at the k-th distance, the ones kept are the
    tree's choice, not the lowest indices: on 30 integer-lattice points with
    k=20 this gives 331 descriptors where index-order ties would give 327.
    """
    if len(keypoints) < 3:
        log.warning("frame %d: %d key points, need 3 for descriptors", frame_id, len(keypoints))
        return DescriptorFrame.empty(frame_id)

    positions = np.array([kp.position for kp in keypoints], dtype=np.float64)
    normals = np.array([kp.normal for kp in keypoints], dtype=np.float64)
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
                          & (lengths[0] + lengths[1] - lengths[2] > DEGENERATE_SLACK))
    if not len(keep):
        return DescriptorFrame.empty(frame_id)
    lengths = np.stack([col[keep] for col in lengths])  # (3, K) rows

    # first occurrence per quantized side triple, in key order: the lowest
    # candidate index of each run of equal keys. The triples are packed into
    # int64 keys like grid cells (CellOutOfRange past the int64 range), so
    # key order is ascending triple order and no two rows share a key.
    key, _, _ = cell_keys(lengths, DEDUP_RESOLUTION, "triangle sides", np.rint)
    by_key = np.argsort(key)
    run_starts = np.flatnonzero(np.diff(key[by_key], prepend=-1))
    unique = np.minimum.reduceat(by_key, run_starts)
    first, lengths = keep[unique], lengths[:, unique].T

    # vertex order: the three key-point ids sorted (first_nbr < second_nbr
    # already), then the first of the six orders whose sides come out
    # ascending. Ids follow position order and a kept triangle's vertices are
    # distinct points, so tied sides go to the smallest coordinates first.
    anchor, first_nbr, second_nbr = anchor[first], first_nbr[first], second_nbr[first]
    ids = np.stack([np.minimum(anchor, first_nbr),
                    np.minimum(np.maximum(anchor, first_nbr), second_nbr),
                    np.maximum(anchor, second_nbr)], axis=1)
    # order (a, b, c) has sides |ab|, |bc|, |ac|: those opposite c, a and b,
    # so it is ascending when opposite[c] <= opposite[a] <= opposite[b]
    opposite = (dist[ids[:, 1], ids[:, 2]], dist[ids[:, 0], ids[:, 2]], dist[ids[:, 0], ids[:, 1]])
    at_most = {(x, y): opposite[x] <= opposite[y] for x, y in permutations(range(3), 2)}
    ascending = [at_most[c, a] & at_most[a, b] for a, b, c in permutations(range(3))]
    vertex_ids = np.take_along_axis(ids, _ORDERS[np.argmax(ascending, axis=0)], axis=1)
    vertex_ids = vertex_ids.astype(np.int32)
    return DescriptorFrame(positions, normals, vertex_ids,
                           frame_signatures(lengths, normals[vertex_ids]), frame_id)


def _distance_matrix(positions: np.ndarray) -> np.ndarray:
    """(m, m) Euclidean distances between m points, each the square root of
    the left-to-right sum of squared coordinate differences: bit for bit
    np.linalg.norm(a - b) of the two points, and symmetric."""
    d = positions[:, None, :] - positions[None, :, :]
    d *= d
    return np.sqrt(d[..., 0] + d[..., 1] + d[..., 2])
