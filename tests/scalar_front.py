"""Per-point and per-voxel references for the array front half.

These are the loop-based implementations the array code in
``triloop.ingest``, ``triloop.planes`` and ``triloop.keypoints`` replaced,
and the (N, 3) integer cell arrays that keys packed from coordinate rows
replaced. Tests run both on the same inputs and require bit-identical results. A voxel
map here is a ``dict`` from cell tuple to ``ScalarVoxel``, a plane one
``ScalarPlane`` with lists of cell tuples, and a plane image one
``ScalarImage``; the references build none of the types they check.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from triloop.cells import cell_box, int64_cells, pack_offsets
from triloop.keypoints import NMS_RADIUS
from triloop.planes import FACE_NEIGHBORS, MIN_VOXEL_POINTS


@dataclass
class ScalarVoxel:
    cell: tuple
    points: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray
    eigenvalues: np.ndarray | None = None
    normal: np.ndarray | None = None
    is_plane: bool = False

    @property
    def count(self) -> int:
        return len(self.points)


@dataclass
class ScalarPlane:
    id: int
    center: np.ndarray
    normal: np.ndarray
    member_cells: list = field(default_factory=list)
    boundary_cells: list = field(default_factory=list)
    point_count: int = 0


@dataclass
class ScalarImage:
    plane_id: int
    normal: np.ndarray
    offset: tuple        # pixel index of values[0, 0]
    values: np.ndarray   # (h, w) max distance, -inf where empty
    sources: np.ndarray  # (h, w) index into points, -1 where empty
    points: np.ndarray


@dataclass
class ScalarKeyPoint:
    position: np.ndarray
    normal: np.ndarray
    plane_id: int
    frame_id: int
    strength: float


def canonical_normal(n):
    n = np.asarray(n, dtype=np.float64)
    if n[np.argmax(np.abs(n))] < 0:
        return -n
    return n


def floor_cells(points, size):
    """(N, 3) int64 floor cells of (N, 3) points, range-checked: the cell
    path ``cells.cell_keys`` replaced."""
    return int64_cells(np.floor(points / size), f"points at cell size {size}")


def pack_cells(cells):
    """Packed int64 key of each cell of a non-empty (N, 3) cell array, from
    its cell box."""
    lo, dims = cell_box(cells)
    return pack_offsets(cells - lo, dims)


def scalar_downsample(cloud, leaf):
    pts = np.asarray(cloud, dtype=np.float64)
    cells = np.floor(pts / leaf).astype(np.int64)
    uniq, inverse = np.unique(cells, axis=0, return_inverse=True)
    sums = np.zeros((len(uniq), 3))
    np.add.at(sums, inverse, pts)
    counts = np.bincount(inverse, minlength=len(uniq)).astype(np.float64)
    return sums / counts[:, None]


def scalar_voxel_map(cloud, voxel_size):
    pts = np.asarray(cloud, dtype=np.float64)
    cells = np.floor(pts / voxel_size).astype(np.int64)
    uniq, inverse = np.unique(cells, axis=0, return_inverse=True)
    counts = np.bincount(inverse, minlength=len(uniq))
    sums = np.zeros((len(uniq), 3))
    np.add.at(sums, inverse, pts)
    means = sums / counts[:, None]
    centered = pts - means[inverse]
    cov_sums = np.zeros((len(uniq), 3, 3))
    np.add.at(cov_sums, inverse, centered[:, :, None] * centered[:, None, :])
    covs = cov_sums / counts[:, None, None]
    eligible = counts >= MIN_VOXEL_POINTS
    eigvals = np.full((len(uniq), 3), np.nan)
    eigvecs = np.full((len(uniq), 3, 3), np.nan)
    if np.any(eligible):
        w, v = np.linalg.eigh(covs[eligible])
        eigvals[eligible] = w
        eigvecs[eligible] = v
    order = np.argsort(inverse, kind="stable")
    grouped = np.split(pts[order], np.cumsum(counts)[:-1])
    voxmap = {}
    for i, cell in enumerate(map(tuple, uniq.tolist())):
        voxmap[cell] = ScalarVoxel(
            cell=cell,
            points=grouped[i],
            mean=means[i],
            covariance=covs[i],
            eigenvalues=eigvals[i][::-1].copy() if eligible[i] else None,
            normal=canonical_normal(eigvecs[i][:, 0]) if eligible[i] else None,
        )
    return voxmap


def scalar_classify(voxmap, sigma1, sigma2):
    n = 0
    for voxel in voxmap.values():
        if voxel.eigenvalues is None:
            voxel.is_plane = False
        else:
            _, l2, l3 = voxel.eigenvalues
            voxel.is_plane = bool(l3 < sigma1 and l2 > sigma2)
        n += voxel.is_plane
    return n


def _merges(seed, neighbor, normal_tol, dist_tol):
    if abs(float(seed.normal @ neighbor.normal)) <= 1.0 - normal_tol:
        return False
    return abs(float(seed.normal @ (neighbor.mean - seed.mean))) < dist_tol


def scalar_grow_planes(voxmap, normal_merge_tol=0.02, dist_merge_tol=0.2):
    assigned = {}
    planes = []
    for cell in sorted(voxmap):
        seed = voxmap[cell]
        if not seed.is_plane or cell in assigned:
            continue
        plane = ScalarPlane(id=len(planes), center=np.zeros(3), normal=seed.normal.copy())
        boundary, boundary_seen = [], set()
        origin = seed.mean
        weighted = np.zeros(3)
        second = np.zeros((3, 3))
        total = 0
        frontier = deque([cell])
        assigned[cell] = plane.id
        while frontier:
            current = frontier.popleft()
            voxel = voxmap[current]
            plane.member_cells.append(current)
            shifted = voxel.mean - origin
            weighted += shifted * voxel.count
            second += voxel.count * (voxel.covariance + np.outer(shifted, shifted))
            total += voxel.count
            for off in FACE_NEIGHBORS:
                ncell = (current[0] + off[0], current[1] + off[1], current[2] + off[2])
                neighbor = voxmap.get(ncell)
                if neighbor is None or assigned.get(ncell) == plane.id:
                    continue
                if (
                    neighbor.is_plane
                    and ncell not in assigned
                    and _merges(seed, neighbor, normal_merge_tol, dist_merge_tol)
                ):
                    assigned[ncell] = plane.id
                    frontier.append(ncell)
                elif ncell not in boundary_seen:
                    boundary_seen.add(ncell)
                    boundary.append(ncell)
        mean = weighted / total
        merged_cov = second / total - np.outer(mean, mean)
        _, vecs = np.linalg.eigh(merged_cov)
        plane.center = origin + mean
        plane.normal = canonical_normal(vecs[:, 0])
        plane.point_count = total
        plane.boundary_cells = boundary
        planes.append(plane)
    return planes


def scalar_plane_axes(normal):
    u = np.asarray(normal, dtype=np.float64)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(u)))] = 1.0
    e1 = axis - (axis @ u) * u
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(u, e1)


def scalar_project_boundary(plane, voxmap):
    e1, e2 = scalar_plane_axes(plane.normal)
    pts = np.vstack([voxmap[c].points for c in plane.boundary_cells])
    rel = pts - plane.center
    distances = np.abs(rel @ plane.normal)
    uv = np.stack([rel @ e1, rel @ e2], axis=1)
    return pts, distances, uv


def scalar_rasterize(points, distances, uv, pixel_size, plane):
    pix = np.floor(uv / pixel_size).astype(np.int64)
    lo = pix.min(axis=0)
    hi = pix.max(axis=0)
    shape = (int(hi[0] - lo[0] + 1), int(hi[1] - lo[1] + 1))
    values = np.full(shape, -np.inf)
    sources = np.full(shape, -1, dtype=np.int64)
    rows = pix[:, 0] - lo[0]
    cols = pix[:, 1] - lo[1]
    for i in range(len(points)):
        r, c = rows[i], cols[i]
        if distances[i] > values[r, c]:
            values[r, c] = distances[i]
            sources[r, c] = i
    return ScalarImage(
        plane_id=plane.id, normal=plane.normal, offset=(int(lo[0]), int(lo[1])),
        values=values, sources=sources, points=points,
    )


def scalar_extract_keypoints(img, min_dist, frame_id=0):
    values = img.values
    h, w = values.shape
    keypoints = []
    for r, c in np.argwhere(np.isfinite(values)):
        v = values[r, c]
        if v < min_dist:
            continue
        lin = r * w + c
        wins = True
        for rr in range(max(0, r - NMS_RADIUS), min(h, r + NMS_RADIUS + 1)):
            for cc in range(max(0, c - NMS_RADIUS), min(w, c + NMS_RADIUS + 1)):
                if rr == r and cc == c:
                    continue
                nv = values[rr, cc]
                if np.isinf(nv):
                    continue
                if nv > v or (nv == v and rr * w + cc < lin):
                    wins = False
        if wins:
            keypoints.append(ScalarKeyPoint(
                position=img.points[img.sources[r, c]].copy(), normal=img.normal.copy(),
                plane_id=img.plane_id, frame_id=frame_id, strength=float(v),
            ))
    return keypoints


def scalar_keyframe_keypoints(planes, voxmap, pixel_size=0.5, min_dist=0.2, frame_id=0,
                              max_keypoints=200):
    collected = []
    for plane in planes:
        if not plane.boundary_cells:
            continue
        pts, dists, uv = scalar_project_boundary(plane, voxmap)
        img = scalar_rasterize(pts, dists, uv, pixel_size, plane)
        collected.extend(scalar_extract_keypoints(img, min_dist, frame_id=frame_id))
    collected.sort(key=lambda k: (-k.strength, k.plane_id, tuple(k.position)))
    return collected[:max_keypoints]
