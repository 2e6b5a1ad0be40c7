"""Scan loading, keyframe accumulation, and voxel-grid downsampling.

Supported inputs: KITTI-style .bin scans (little-endian float32 x,y,z,intensity
records), ASCII PCD v0.7 clouds, and pose files in either the 12-float
row-major 3x4 convention or "timestamp tx ty tz qx qy qz qw" lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cells import cell_keys, cell_means
from .errors import EmptyInput, MalformedRecord, NonFiniteInput, NonPositiveLeaf, UnsupportedFormat
from .geometry import RigidTransform, nearest_rotation, rotation_from_quaternion

KITTI_RECORD_BYTES = 16  # 4 little-endian float32: x, y, z, intensity


@dataclass(frozen=True)
class Scan:
    """One sensor sweep with its registered sensor-to-world pose."""

    points: np.ndarray  # (N, 3) in the sensor frame
    index: int
    pose: RigidTransform

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
            raise EmptyInput(f"scan {self.index} has no points")
        if not np.isfinite(pts).all():
            bad = np.count_nonzero(~np.isfinite(pts).all(axis=1))
            raise NonFiniteInput(
                f"scan {self.index}: {bad} of {len(pts)} points have NaN or infinite coordinates"
            )
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class Keyframe:
    """Several consecutive scans merged into the first scan's frame."""

    id: int
    cloud: np.ndarray  # (N, 3) in the anchor frame
    anchor_pose: RigidTransform
    scan_range: tuple[int, int]


def read_kitti_bin(path) -> np.ndarray:
    """Read a KITTI velodyne .bin scan, returning (N, 3) xyz in the sensor frame."""
    raw = Path(path).read_bytes()
    if len(raw) % KITTI_RECORD_BYTES != 0:
        raise MalformedRecord(
            f"{path}: {len(raw)} bytes is not a multiple of {KITTI_RECORD_BYTES}"
        )
    records = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    return records[:, :3].astype(np.float64)


def write_kitti_bin(path, points) -> None:
    """Write (N, 3) points as KITTI .bin records with zero intensity."""
    pts = np.asarray(points, dtype=np.float64)
    records = np.zeros((len(pts), 4), dtype="<f4")
    records[:, :3] = pts
    Path(path).write_bytes(records.tobytes())


def read_pcd_ascii(path) -> np.ndarray:
    """Read an ASCII PCD v0.7 file, returning (N, 3) xyz with NaN rows dropped."""
    lines = Path(path).read_text().splitlines()
    fields: list[str] = []
    data_start = None
    for i, line in enumerate(lines):
        token = line.split("#", 1)[0].strip()
        if not token:
            continue
        parts = token.split()
        if parts[0] == "FIELDS":
            fields = parts[1:]
        elif parts[0] == "DATA":
            if parts[1] != "ascii":
                raise UnsupportedFormat(f"{path}: only ascii PCD is supported, got {parts[1]}")
            data_start = i + 1
            break
    if data_start is None:
        raise UnsupportedFormat(f"{path}: missing DATA line in PCD header")
    try:
        ix, iy, iz = fields.index("x"), fields.index("y"), fields.index("z")
    except ValueError:
        raise UnsupportedFormat(f"{path}: PCD header lacks x/y/z fields") from None

    points = []
    for lineno, line in enumerate(lines[data_start:], start=data_start + 1):
        parts = line.split()
        if not parts:
            continue
        try:
            xyz = (float(parts[ix]), float(parts[iy]), float(parts[iz]))
        except (IndexError, ValueError):
            raise MalformedRecord(
                f"{path}:{lineno}: expected numbers in the x, y, z fields "
                f"(columns {ix + 1}, {iy + 1}, {iz + 1}), got {line!r}"
            ) from None
        if any(np.isnan(v) for v in xyz):
            continue
        points.append(xyz)
    return np.array(points, dtype=np.float64).reshape(-1, 3)


def write_pcd_ascii(path, points) -> None:
    pts = np.asarray(points, dtype=np.float64)
    header = (
        "# .PCD v0.7 - Point Cloud Data file format\n"
        "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
        f"WIDTH {len(pts)}\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
        f"POINTS {len(pts)}\nDATA ascii\n"
    )
    body = "\n".join(f"{x:.5f} {y:.5f} {z:.5f}" for x, y, z in pts)
    Path(path).write_text(header + body + "\n")


def read_poses(path) -> list[RigidTransform]:
    """Read sensor-to-world poses, one line per scan.

    Accepts 12 floats (row-major 3x4) or 8 floats (timestamp tx ty tz qx qy qz
    qw). File-sourced rotations are projected onto SO(3) before validation. A
    line with another count, a non-number, a NaN or infinite value or a zero
    quaternion raises MalformedRecord.
    """
    poses = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        token = line.split("#", 1)[0].strip()
        if not token:
            continue
        try:
            poses.append(_parse_pose(token.split()))
        except ValueError as exc:
            raise MalformedRecord(f"{path}:{lineno}: {exc}") from None
    return poses


def _parse_pose(fields: list[str]) -> RigidTransform:
    vals = [float(v) for v in fields]
    if len(vals) == 12:
        m = np.array(vals).reshape(3, 4)
        R, t = m[:, :3], m[:, 3]
    elif len(vals) == 8:
        _, tx, ty, tz, qx, qy, qz, qw = vals
        R = rotation_from_quaternion(qx, qy, qz, qw)
        t = np.array([tx, ty, tz])
    else:
        raise ValueError(f"expected 12 or 8 values, got {len(vals)}")
    return RigidTransform(nearest_rotation(R), t)


def accumulate_keyframe(scans: list[Scan], keyframe_id: int = 0) -> Keyframe:
    """Merge scans into the first scan's frame using their relative poses.

    Each scan's moved points are written into one preallocated cloud, in
    scan order, so no list of moved copies is held next to the result.
    """
    if not scans:
        raise EmptyInput("no scans to accumulate")
    anchor = scans[0].pose
    anchor_inv = anchor.inverse()
    ends = np.cumsum([len(scan.points) for scan in scans])
    cloud = np.empty((int(ends[-1]), 3))
    cloud[: ends[0]] = scans[0].points
    for scan, lo, hi in zip(scans[1:], ends[:-1], ends[1:]):
        rel = anchor_inv.compose(scan.pose)  # scan frame -> anchor frame
        cloud[lo:hi] = rel.apply(scan.points)
    return Keyframe(
        id=keyframe_id,
        cloud=cloud,
        anchor_pose=anchor,
        scan_range=(scans[0].index, scans[-1].index),
    )


def voxel_downsample(cloud, leaf: float) -> np.ndarray:
    """Keep one centroid per occupied leaf-sized cubic cell.

    Output rows are sorted by (ix, iy, iz) cell index, so the result is
    deterministic regardless of input order. Each centroid is summed in input
    order. Raises CellOutOfRange when a cell does not fit an int64 key.
    """
    if not leaf > 0:
        raise NonPositiveLeaf(f"leaf must be > 0, got {leaf}")
    pts = np.asarray(cloud, dtype=np.float64)
    if len(pts) == 0:
        raise EmptyInput("cannot downsample an empty cloud")
    keys, _, _ = cell_keys(pts.T, leaf, f"points at cell size {leaf}")
    return cell_means(pts, keys)[3]
