"""Rigid 3D transforms and the closed-form SVD alignment solver.

Points are plain numpy arrays: shape (3,) for a single point, (N, 3) for a
cloud, float64, finite. Everything here is pure and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, NonFiniteInput

ORTHONORMALITY_TOL = 1e-9
COLLINEARITY_TOL = 1e-9


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got shape {pts.shape}")
    return pts


def _check_rigid(R: np.ndarray, t: np.ndarray) -> None:
    """Raise ValueError unless R, one (3, 3) or a stack (k, 3, 3), holds proper
    rotations (orthonormal, det +1, within ORTHONORMALITY_TOL) and R and t
    are finite."""
    if not (np.isfinite(R).all() and np.isfinite(t).all()):
        raise ValueError("transform contains non-finite values")
    if np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max() > ORTHONORMALITY_TOL:
        raise ValueError("rotation is not orthonormal within 1e-9")
    if np.abs(np.linalg.det(R) - 1.0).max() > ORTHONORMALITY_TOL:
        raise ValueError("rotation determinant is not +1 within 1e-9")


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion p -> R @ p + t.

    R must be orthonormal with det +1 within 1e-9. Arrays are copied and
    frozen read-only on construction.
    """

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        R = np.array(self.R, dtype=np.float64)
        t = np.array(self.t, dtype=np.float64).reshape(3)
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {R.shape}")
        _check_rigid(R, t)
        R.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, m) -> "RigidTransform":
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError(f"expected 4x4 homogeneous matrix, got {m.shape}")
        return cls(m[:3, :3], m[:3, 3])

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.R
        m[:3, 3] = self.t
        return m

    def apply(self, points) -> np.ndarray:
        """Transform one (3,) point or an (N, 3) cloud."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            return self.R @ pts + self.t
        return pts @ self.R.T + self.t

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self @ other).apply(p) == self.apply(other.apply(p))."""
        return RigidTransform(self.R @ other.R, self.R @ other.t + self.t)

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.R.T, -(self.R.T @ self.t))


@dataclass(frozen=True)
class Correspondences3:
    """Paired source/target points for rigid alignment, equal length >= 3.

    Raises NonFiniteInput when a source or target point holds a NaN or an
    infinite coordinate, ValueError on a length mismatch.
    """

    source: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        src = _as_points(self.source).copy()
        dst = _as_points(self.target).copy()
        if len(src) != len(dst):
            raise ValueError(f"length mismatch: {len(src)} source vs {len(dst)} target")
        for name, pts in (("source", src), ("target", dst)):
            if not np.isfinite(pts).all():
                raise NonFiniteInput(f"{name} points hold NaN or infinite coordinates")
        src.setflags(write=False)
        dst.setflags(write=False)
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "target", dst)

    def __len__(self) -> int:
        return len(self.source)

    @property
    def source_centroid(self) -> np.ndarray:
        return self.source.mean(axis=0)

    @property
    def target_centroid(self) -> np.ndarray:
        return self.target.mean(axis=0)


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, bit-equal to np.linalg.norm of each
    1-D row (a stacked matmul takes the same dot-product path)."""
    return np.sqrt(vectors[..., None, :] @ vectors[..., :, None])[..., 0, 0]


def all_collinear(points: np.ndarray, tol: float = COLLINEARITY_TOL) -> np.ndarray:
    """For each of k point sets (k, n, 3): True when every point lies on one line.

    Each point's offset from the set's first point is normalized; offsets
    shorter than tol are skipped, and the set is collinear unless the cross
    product of some other unit offset with the first kept one is longer than
    tol. A NaN offset is kept, and its cross products never exceed tol.
    """
    d = points[:, 1:] - points[:, :1]
    n = _norms(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = d / n[..., None]
    kept = ~(n < tol)
    direction = u[np.arange(len(u)), np.argmax(kept, axis=1)]  # first kept offset
    bent = _norms(np.cross(direction[:, None], u)) > tol
    return ~(kept & bent).any(axis=1)


def solve_rigid_svd_batch(source: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """solve_rigid_svd for k correspondence sets at once.

    source and target are (k, n, 3); returns R (k, 3, 3) and t (k, 3), each
    bit-equal to solving its set alone. The caller drops degenerate sets
    first (see all_collinear). Raises ValueError, as RigidTransform
    does, if any solution fails its checks.
    """
    qa = source.mean(axis=1)
    qb = target.mean(axis=1)
    H = np.swapaxes(source - qa[:, None], 1, 2) @ (target - qb[:, None])
    U, _, Vt = np.linalg.svd(H)
    V = np.swapaxes(Vt, 1, 2)
    Ut = np.swapaxes(U, 1, 2)
    D = np.zeros_like(H)
    D[:, 0, 0] = D[:, 1, 1] = 1.0
    D[:, 2, 2] = np.sign(np.linalg.det(V @ Ut))
    R = V @ D @ Ut
    t = ((-R) @ qa[:, :, None])[:, :, 0] + qb
    _check_rigid(R, t)
    return R, t


def solve_rigid_svd(corr: Correspondences3) -> RigidTransform:
    """Least-squares rigid transform mapping corr.source onto corr.target.

    Kabsch solve: H = sum (p_a - q_a)(p_b - q_b)^T, R = V diag(1,1,det(VU^T)) U^T,
    t = -R q_a + q_b. The determinant factor guards against reflections on
    degenerate or mirrored inputs.
    """
    if len(corr) < 3:
        raise DegenerateInput(f"need at least 3 correspondences, got {len(corr)}")
    if all_collinear(corr.source[None])[0]:
        raise DegenerateInput("source points are collinear; rotation is not unique")
    R, t = solve_rigid_svd_batch(corr.source[None], corr.target[None])
    return RigidTransform(R[0], t[0])


def rotation_about_axis(axis, angle_rad: float) -> np.ndarray:
    """Rotation matrix for a right-handed rotation about a 3-vector axis."""
    a = np.asarray(axis, dtype=np.float64)
    a = a / np.linalg.norm(a)
    x, y, z = a
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def rotation_from_quaternion(qx: float, qy: float, qz: float, qw: float) -> np.ndarray:
    """Rotation matrix from a (possibly unnormalized) quaternion."""
    n = math.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
    if n == 0.0:
        raise ValueError("zero quaternion")
    qx, qy, qz, qw = qx / n, qy / n, qz / n, qw / n
    return np.array(
        [
            [1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qz * qw), 2 * (qx * qz + qy * qw)],
            [2 * (qx * qy + qz * qw), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qx * qw)],
            [2 * (qx * qz - qy * qw), 2 * (qy * qz + qx * qw), 1 - 2 * (qx * qx + qy * qy)],
        ]
    )


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly sampled rotation matrix (random unit quaternion)."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return rotation_from_quaternion(q[0], q[1], q[2], q[3])


def nearest_rotation(m) -> np.ndarray:
    """Project a near-rotation 3x3 matrix onto SO(3) (file-sourced poses,
    plane-ICP updates)."""
    U, _, Vt = np.linalg.svd(np.asarray(m, dtype=np.float64))
    d = np.sign(np.linalg.det(U @ Vt))
    return U @ np.diag([1.0, 1.0, d]) @ Vt


def rotation_angle_deg(R) -> float:
    """Magnitude of a rotation in degrees.

    atan2 of the skew norm against the trace stays accurate for tiny angles,
    where the plain acos-of-trace form loses everything below ~1e-8 rad.
    """
    R = np.asarray(R)
    s = 0.5 * math.sqrt(
        (R[2, 1] - R[1, 2]) ** 2 + (R[0, 2] - R[2, 0]) ** 2 + (R[1, 0] - R[0, 1]) ** 2
    )
    c = (np.trace(R) - 1.0) / 2.0
    return math.degrees(math.atan2(s, c))
