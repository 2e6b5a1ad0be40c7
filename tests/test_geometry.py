import numpy as np
import pytest

from triloop.errors import DegenerateInput, NonFiniteInput
from triloop.geometry import (
    COLLINEARITY_TOL,
    Correspondences3,
    RigidTransform,
    all_collinear,
    random_rotation,
    rotation_about_axis,
    rotation_angle_deg,
    solve_rigid_svd,
    solve_rigid_svd_batch,
)

TRIANGLE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def random_cloud(rng, n, scale=10.0):
    return rng.uniform(-scale, scale, size=(n, 3))


def test_identity_on_identical_points():
    t = solve_rigid_svd(Correspondences3(TRIANGLE, TRIANGLE))
    assert np.allclose(t.R, np.eye(3), atol=1e-12)
    assert np.allclose(t.t, 0.0, atol=1e-12)


def test_pure_translation():
    t = solve_rigid_svd(Correspondences3(TRIANGLE, TRIANGLE + np.array([1.0, 2.0, 3.0])))
    assert np.allclose(t.R, np.eye(3), atol=1e-12)
    assert np.allclose(t.t, [1.0, 2.0, 3.0], atol=1e-12)


def test_recovers_random_rigid_transforms():
    rng = np.random.default_rng(42)
    for _ in range(200):
        src = random_cloud(rng, 3)
        R0 = random_rotation(rng)
        t0 = rng.uniform(-5, 5, size=3)
        dst = src @ R0.T + t0
        got = solve_rigid_svd(Correspondences3(src, dst))
        assert np.linalg.norm(got.R - R0) < 1e-9
        assert np.linalg.norm(got.t - t0) < 1e-9


def test_exact_on_many_points():
    rng = np.random.default_rng(7)
    src = random_cloud(rng, 50)
    R0 = rotation_about_axis([1, 2, 3], 1.1)
    t0 = np.array([0.5, -2.0, 4.0])
    got = solve_rigid_svd(Correspondences3(src, src @ R0.T + t0))
    assert np.linalg.norm(got.R - R0) < 1e-9
    assert np.linalg.norm(got.t - t0) < 1e-9


def test_rejects_too_few_points():
    with pytest.raises(DegenerateInput):
        solve_rigid_svd(Correspondences3(TRIANGLE[:2], TRIANGLE[:2]))


def test_rejects_collinear_sources():
    src = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    with pytest.raises(DegenerateInput):
        solve_rigid_svd(Correspondences3(src, src))


def scalar_all_collinear(points, tol=COLLINEARITY_TOL) -> bool:
    """Reference: True if every point lies on one line, tested by normalized
    cross products, one point after another."""
    base = points[0]
    direction = None
    for p in points[1:]:
        d = p - base
        n = np.linalg.norm(d)
        if n < tol:
            continue
        d = d / n
        if direction is None:
            direction = d
            continue
        if np.linalg.norm(np.cross(direction, d)) > tol:
            return False
    return True


def test_collinear_triples_match_scalar_rule():
    rng = np.random.default_rng(11)
    for n in range(3, 9):
        sets = rng.uniform(-20, 20, size=(300, n, 3))
        # exactly collinear: every point on the line through points 0 and 1
        sets[:40, 2:] = sets[:40, :1] + rng.uniform(-3, 3, size=(40, n - 2, 1)) * (
            sets[:40, 1:2] - sets[:40, :1])
        sets[40:60, 1] = sets[40:60, 0]  # a repeated base point
        sets[60:70] = sets[60:70, :1]  # all points equal
        sets[70:80, -1] = sets[70:80, -2] + 1e-10  # the last two coincide within tolerance
        sets[80:90, 0, 0] = np.nan
        sets[90:100, n - 1, 1] = np.nan
        sets[120:130, 1, 2] = np.nan  # a NaN first offset: kept, so nothing is bent
        sets[130:140] = sets[:10]  # collinear once an offset within tolerance is skipped
        sets[130:140, 1] = sets[130:140, 0] + 1e-10 * rng.normal(size=(10, 3))
        # collinear but for one point, and collinear once a repeated base is skipped
        sets[100:120] = sets[:20]
        sets[100:110, -1] += 1.0
        sets[110:120, 1] = sets[110:120, 0]
        expected = [scalar_all_collinear(s) for s in sets]
        assert all_collinear(sets).tolist() == expected, n
        assert 0 < sum(expected) < len(sets)


def scalar_kabsch(src, dst):
    """Reference: the one-set Kabsch solve, written with 2-D arrays only."""
    qa, qb = src.mean(axis=0), dst.mean(axis=0)
    H = (src - qa).T @ (dst - qb)
    U, _, Vt = np.linalg.svd(H)
    V = Vt.T
    d = np.sign(np.linalg.det(V @ U.T))
    R = V @ np.diag([1.0, 1.0, d]) @ U.T
    return R, -R @ qa + qb


@pytest.mark.parametrize("n", [3, 50])
def test_batch_solve_bit_equal_to_scalar_kabsch(n):
    rng = np.random.default_rng(12)
    src = rng.uniform(-40, 40, size=(200, n, 3))
    truth = RigidTransform(random_rotation(rng), rng.uniform(-10, 10, 3))
    dst = src @ truth.R.T + truth.t + rng.normal(scale=0.2, size=src.shape)
    dst[::7] = dst[::7] * np.array([1.0, 1.0, -1.0])  # mirrored: exercises the sign fix
    R, t = solve_rigid_svd_batch(src, dst)
    for i in range(len(src)):
        ref_R, ref_t = scalar_kabsch(src[i], dst[i])
        assert ref_R.tobytes() == R[i].tobytes()
        assert ref_t.tobytes() == t[i].tobytes()
        single = solve_rigid_svd(Correspondences3(src[i], dst[i]))
        assert single.R.tobytes() == ref_R.tobytes()
        assert single.t.tobytes() == ref_t.tobytes()


def test_reflection_guard_keeps_proper_rotation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        src = random_cloud(rng, 10)
        mirrored = src * np.array([1.0, 1.0, -1.0]) + rng.normal(scale=0.05, size=(10, 3))
        t = solve_rigid_svd(Correspondences3(src, mirrored))
        assert abs(np.linalg.det(t.R) - 1.0) < 1e-9


def test_solution_is_local_optimum():
    rng = np.random.default_rng(11)
    src = random_cloud(rng, 12)
    dst = src @ random_rotation(rng).T + rng.uniform(-2, 2, 3) + rng.normal(scale=0.1, size=(12, 3))
    best = solve_rigid_svd(Correspondences3(src, dst))

    def residual(t):
        return float(np.sum((src @ t.R.T + t.t - dst) ** 2))

    base = residual(best)
    for _ in range(1000):
        dR = rotation_about_axis(rng.normal(size=3), rng.uniform(1e-4, 0.3))
        dt = rng.normal(scale=0.2, size=3)
        perturbed = RigidTransform(dR @ best.R, best.t + dt)
        assert residual(perturbed) >= base - 1e-12


def test_apply_identity_and_axis_rotation():
    identity = RigidTransform.identity()
    assert np.allclose(identity.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    yaw = RigidTransform(rotation_about_axis([0, 0, 1], np.pi / 2), np.zeros(3))
    assert np.allclose(yaw.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_apply_inverse_round_trip():
    rng = np.random.default_rng(5)
    t = RigidTransform(random_rotation(rng), rng.uniform(-3, 3, 3))
    for _ in range(20):
        p = rng.uniform(-10, 10, 3)
        assert np.linalg.norm(t.inverse().apply(t.apply(p)) - p) < 1e-12


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(9)
    a = RigidTransform(random_rotation(rng), rng.uniform(-3, 3, 3))
    b = RigidTransform(random_rotation(rng), rng.uniform(-3, 3, 3))
    p = rng.uniform(-5, 5, 3)
    assert np.allclose(a.compose(b).apply(p), a.apply(b.apply(p)), atol=1e-12)


def test_transform_validation_rejects_bad_rotation():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 1.001, np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(-np.eye(3), np.zeros(3))  # det -1


def test_non_finite_correspondences_rejected():
    rng = np.random.default_rng(2)
    for n in range(3, 9):
        src, dst = random_cloud(rng, n), random_cloud(rng, n)
        for bad in (np.nan, np.inf, -np.inf):
            for row in range(n):
                for column in range(3):
                    for side in ("source", "target"):
                        points = {"source": src.copy(), "target": dst.copy()}
                        points[side][row, column] = bad
                        with pytest.raises(NonFiniteInput, match=side):
                            Correspondences3(**points)


def test_correspondence_centroids_are_means():
    rng = np.random.default_rng(1)
    src, dst = random_cloud(rng, 8), random_cloud(rng, 8)
    c = Correspondences3(src, dst)
    assert np.allclose(c.source_centroid, src.mean(axis=0), atol=1e-12)
    assert np.allclose(c.target_centroid, dst.mean(axis=0), atol=1e-12)


def test_rotation_angle_deg():
    assert rotation_angle_deg(np.eye(3)) == 0.0
    R = rotation_about_axis([0, 0, 1], np.radians(30.0))
    assert abs(rotation_angle_deg(R) - 30.0) < 1e-9
