"""Voxel statistics, plane-voxel classification, and region growing.

A voxel is a plane candidate when the smallest covariance eigenvalue is below
sigma1 and the middle one above sigma2 (thin and extended). Planes grow
breadth-first from a seed voxel; occupied neighbors that refuse to merge are
the plane's boundary voxels and later seed key-point extraction.

Voxels are held as columns (VoxelMap), one row per occupied cell in
ascending (ix, iy, iz) order; cells are found by binary search on their
packed int64 keys. A keyframe's planes are columns too (PlaneSet): centers,
normals and point counts, plus each plane's member and boundary voxel rows
in search order, stored flat with per-plane offsets. A plane's id is its row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .cells import cell_box, cell_keys, cell_means, pack_offsets
from .errors import EmptyInput, NonPositiveLeaf

MIN_VOXEL_POINTS = 10  # covariance of fewer points is too unstable to classify

FACE_NEIGHBORS = (
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
)

# Distinct entries of a symmetric 3x3 matrix.
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


@dataclass(eq=False)
class VoxelMap:
    """Voxels of one cloud as columns, one row per occupied cell.

    Rows are in ascending (ix, iy, iz) cell order. Voxels with fewer than
    MIN_VOXEL_POINTS points have NaN eigenvalues and normals and never
    classify as planes. len() is the voxel count.
    """

    cells: np.ndarray        # (V, 3) int64, ascending
    counts: np.ndarray       # (V,) points per voxel
    means: np.ndarray        # (V, 3)
    covariances: np.ndarray  # (V, 3, 3), population normalization (1/N)
    eigenvalues: np.ndarray  # (V, 3) descending (l1 >= l2 >= l3)
    normals: np.ndarray      # (V, 3) unit eigenvector of l3, sign-canonical
    offsets: np.ndarray      # (V + 1,) voxel i holds points[offsets[i]:offsets[i + 1]]
    points: np.ndarray       # (N, 3) grouped by voxel, input order within one
    is_plane: np.ndarray | None = None  # (V,) bool, set by classify_plane_voxels
    keys: np.ndarray = field(init=False)  # (V,) packed cell keys, ascending

    def __post_init__(self):
        self._lo, self._dims = cell_box(self.cells)
        self._hi = self.cells.max(axis=0)
        self.keys = pack_offsets(self.cells - self._lo, self._dims)
        if self.is_plane is None:
            self.is_plane = np.zeros(len(self.cells), dtype=bool)

    @classmethod
    def from_points(cls, points: np.ndarray, voxel_size: float) -> "VoxelMap":
        """Voxel statistics of (N, 3) points binned into cubic cells of edge
        voxel_size. Raises CellOutOfRange when a cell does not fit an int64 key.

        Moments are summed in input order (np.bincount); the covariance is
        two-pass, centered on each voxel's mean, to avoid cancellation far
        from the origin. A voxel's cell is its sorted key unravelled.
        """
        keys, lo, dims = cell_keys(points.T, voxel_size, f"points at cell size {voxel_size}")
        voxel_keys, inverse, counts, means = cell_means(points, keys)
        n = len(counts)
        centered = points - means[inverse]
        cov_sums = np.empty((n, 3, 3))
        for i, j in _UPPER:
            cov_sums[:, i, j] = cov_sums[:, j, i] = np.bincount(
                inverse, weights=centered[:, i] * centered[:, j], minlength=n
            )
        covs = cov_sums / counts[:, None, None]

        eligible = counts >= MIN_VOXEL_POINTS
        eigvals = np.full((n, 3), np.nan)
        normals = np.full((n, 3), np.nan)
        if np.any(eligible):
            w, v = np.linalg.eigh(covs[eligible])  # ascending eigenvalues
            eigvals[eligible] = w[:, ::-1]
            normals[eligible] = canonical_normals(v[:, :, 0])

        order = np.argsort(inverse, kind="stable")
        offsets = _offsets(counts)
        return cls(
            cells=np.stack(np.unravel_index(voxel_keys, dims), axis=1) + lo,
            counts=counts,
            means=means,
            covariances=covs,
            eigenvalues=eigvals,
            normals=normals,
            offsets=offsets,
            points=points[order],
        )

    def __len__(self) -> int:
        return len(self.cells)

    def lookup(self, cells) -> np.ndarray:
        """Row of each (M, 3) cell, -1 where the cell holds no voxel."""
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
        rows = np.full(len(cells), -1, dtype=np.int64)
        inside = ((cells >= self._lo) & (cells <= self._hi)).all(axis=1)
        keys = pack_offsets(cells[inside] - self._lo, self._dims)
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        rows[inside] = np.where(self.keys[pos] == keys, pos, -1)
        return rows

    def neighbors(self, offsets) -> np.ndarray:
        """(V, K) row of the voxel at each cell + offset, -1 where empty."""
        return np.stack([self.lookup(self.cells + off) for off in offsets], axis=1)

    def points_of(self, rows) -> np.ndarray:
        """Points of the given voxel rows, concatenated in row order."""
        return self.points[_segments(self.offsets, np.asarray(rows, dtype=np.int64))[0]]


@dataclass(frozen=True, eq=False)
class PlaneSet:
    """A keyframe's grown planes as columns; a plane's id is its row.

    Plane p's member voxel rows are
    member_rows[member_offsets[p]:member_offsets[p + 1]], and likewise its
    boundary rows, each in the order the search met them; rows index the
    keyframe's VoxelMap and mean nothing apart from it. len() is the plane
    count, and a boolean mask, an index array or a slice gives a PlaneSet of
    those rows.
    """

    centers: np.ndarray           # (P, 3) point-count weighted mean of member voxel means
    normals: np.ndarray           # (P, 3) smallest eigenvector of the merged point moments
    point_counts: np.ndarray      # (P,) int64
    member_rows: np.ndarray       # flat int64 voxel rows of every plane's members
    member_offsets: np.ndarray    # (P + 1,) int64
    boundary_rows: np.ndarray     # flat int64 voxel rows of every plane's boundary
    boundary_offsets: np.ndarray  # (P + 1,) int64

    def __len__(self) -> int:
        return len(self.centers)

    def __getitem__(self, keep) -> PlaneSet:
        if isinstance(keep, (int, np.integer)):  # would also make a PlaneSet iterable
            raise TypeError("index a PlaneSet with a mask, an index array or a slice")
        rows = np.arange(len(self))[keep]
        members, member_offsets = _segments(self.member_offsets, rows)
        boundary, boundary_offsets = _segments(self.boundary_offsets, rows)
        return PlaneSet(
            centers=self.centers[rows],
            normals=self.normals[rows],
            point_counts=self.point_counts[rows],
            member_rows=self.member_rows[members],
            member_offsets=member_offsets,
            boundary_rows=self.boundary_rows[boundary],
            boundary_offsets=boundary_offsets,
        )


def _segments(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of segments rows of a CSR layout, concatenated in the
    given order, and the offsets of the gathered layout."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    gathered = _offsets(lengths)
    shift = np.repeat(starts - gathered[:-1], lengths)
    return np.arange(len(shift)) + shift, gathered


def _offsets(lengths) -> np.ndarray:
    """CSR offsets, (len(lengths) + 1,) int64, of segments of these lengths."""
    return np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])


def canonical_normals(normals: np.ndarray) -> np.ndarray:
    """Flip each row of an (M, 3) array of eigenvectors so its
    largest-magnitude component is positive."""
    dominant = normals[np.arange(len(normals)), np.argmax(np.abs(normals), axis=1)]
    return np.where((dominant < 0)[:, None], -normals, normals)


def build_voxel_map(cloud, voxel_size: float) -> VoxelMap:
    """Bin a cloud into cubic voxels with per-voxel mean/covariance/eigen stats.

    Voxels with fewer than MIN_VOXEL_POINTS points keep their moments but skip
    the eigendecomposition and can never classify as planes. Raises
    CellOutOfRange when a cell does not fit an int64 key.
    """
    if not voxel_size > 0:
        raise NonPositiveLeaf(f"voxel_size must be > 0, got {voxel_size}")
    pts = np.asarray(cloud, dtype=np.float64)
    if len(pts) == 0:
        raise EmptyInput("cannot voxelize an empty cloud")
    return VoxelMap.from_points(pts, voxel_size)


def is_plane_voxel(eigenvalues, sigma1: float, sigma2: float) -> np.ndarray:
    """Eigenvalue plane test on (..., 3) descending eigenvalues: l3 < sigma1
    and l2 > sigma2. NaN eigenvalues (too few points) never pass."""
    ev = np.asarray(eigenvalues, dtype=np.float64)
    return (ev[..., 2] < sigma1) & (ev[..., 1] > sigma2)


def classify_plane_voxels(voxmap: VoxelMap, sigma1: float, sigma2: float) -> int:
    """Set the is_plane column, returning the number of plane voxels."""
    voxmap.is_plane = is_plane_voxel(voxmap.eigenvalues, sigma1, sigma2)
    return int(np.count_nonzero(voxmap.is_plane))


def grow_planes(
    voxmap: VoxelMap,
    normal_merge_tol: float = 0.02,
    dist_merge_tol: float = 0.2,
) -> PlaneSet:
    """Partition plane voxels into planes by breadth-first region growing.

    A neighbor joins when its normal and the seed normal agree within
    normal_merge_tol (|dot| > 1 - tol) and its mean lies within dist_merge_tol
    of the seed plane. Occupied neighbors that do not join are recorded as
    boundary voxels of the growing plane, in the order the search meets them.
    Seeds are visited in ascending cell order so plane ids are deterministic.
    A voxel's neighbors are the six that share a face with it.
    """
    table = voxmap.neighbors(FACE_NEIGHBORS).tolist()
    is_plane = voxmap.is_plane.tolist()
    normals = list(voxmap.normals)  # row views for the scalar merge test
    means = list(voxmap.means)
    assigned = [-1] * len(voxmap)
    regions: list[tuple[list[int], list[int]]] = []

    for seed in np.flatnonzero(voxmap.is_plane).tolist():
        if assigned[seed] >= 0:
            continue
        plane_id = len(regions)
        seed_normal, seed_mean = normals[seed], means[seed]
        members = [seed]
        boundary: list[int] = []
        boundary_seen: set[int] = set()
        assigned[seed] = plane_id
        for current in members:  # appended to while walked: a FIFO queue
            for nb in table[current]:
                if nb < 0 or assigned[nb] == plane_id:
                    continue
                if (
                    is_plane[nb]
                    and assigned[nb] < 0
                    and _merges(seed_normal, seed_mean, normals[nb], means[nb],
                                normal_merge_tol, dist_merge_tol)
                ):
                    assigned[nb] = plane_id
                    members.append(nb)
                elif nb not in boundary_seen:
                    boundary_seen.add(nb)
                    boundary.append(nb)
        regions.append((members, boundary))
    return _fit_planes(voxmap, regions)


def _merges(seed_normal, seed_mean, normal, mean, normal_tol: float, dist_tol: float) -> bool:
    if abs(float(seed_normal @ normal)) <= 1.0 - normal_tol:
        return False
    return abs(float(seed_normal @ (mean - seed_mean))) < dist_tol


def _fit_planes(voxmap: VoxelMap, regions: list[tuple[list[int], list[int]]]) -> PlaneSet:
    """Fit one plane to each region's merged voxel moments."""
    n = len(regions)
    member_counts = [len(members) for members, _ in regions]
    rows = np.fromiter(chain.from_iterable(members for members, _ in regions), dtype=np.int64)
    boundary = np.fromiter(chain.from_iterable(b for _, b in regions), dtype=np.int64)
    region = np.repeat(np.arange(n), member_counts)
    counts = voxmap.counts[rows]
    # moments around the seed mean (conditioning); np.bincount sums each
    # region from zero in member order, as a running += would
    origin = voxmap.means[[members[0] for members, _ in regions]]
    shifted = voxmap.means[rows] - origin[region]
    weighted = np.stack(
        [np.bincount(region, weights=shifted[:, a] * counts, minlength=n) for a in range(3)],
        axis=1,
    )
    second = np.empty((n, 3, 3))
    for i, j in _UPPER:
        terms = counts * (voxmap.covariances[rows, i, j] + shifted[:, i] * shifted[:, j])
        second[:, i, j] = second[:, j, i] = np.bincount(region, weights=terms, minlength=n)
    totals = np.bincount(region, weights=counts, minlength=n).astype(np.int64)
    mean = weighted / totals[:, None]
    merged_cov = second / totals[:, None, None] - mean[:, :, None] * mean[:, None, :]
    _, vecs = np.linalg.eigh(merged_cov)
    return PlaneSet(
        centers=origin + mean,
        normals=canonical_normals(vecs[:, :, 0]),
        point_counts=totals,
        member_rows=rows,
        member_offsets=_offsets(member_counts),
        boundary_rows=boundary,
        boundary_offsets=_offsets([len(b) for _, b in regions]),
    )
