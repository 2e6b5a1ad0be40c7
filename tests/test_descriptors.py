from itertools import permutations

import numpy as np
from scipy.spatial import cKDTree

from triloop.descriptors import DescriptorFrame, build_descriptors
from triloop.geometry import RigidTransform, random_rotation
from triloop.keypoints import KeyPoint

from scalar_descriptors import centroid, signature


def make_kps(positions, normals=None, frame_id=0):
    positions = np.asarray(positions, dtype=np.float64)
    if normals is None:
        normals = np.tile([0.0, 0.0, 1.0], (len(positions), 1))
    return [
        KeyPoint(
            position=positions[i],
            normal=np.asarray(normals[i], dtype=np.float64),
            plane_id=0,
            frame_id=frame_id,
            strength=1.0,
        )
        for i in range(len(positions))
    ]


def oracle_descriptors(kps, k_neighbors, min_side=0.5, slack=0.1, resolution=0.01,
                       neighbor_lists=None):
    """Independent re-derivation: plain loops, full distance matrix, no k-d tree.

    An anchor's neighbors are its k nearest, equal distances taken in index
    order, unless neighbor_lists gives them (indices in position order).
    """
    order = sorted(range(len(kps)), key=lambda i: tuple(kps[i].position))
    pos = np.array([kps[i].position for i in order])
    nrm = np.array([kps[i].normal for i in order])
    m = len(pos)
    k = min(k_neighbors, m - 1)
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)

    def canonical(idx):
        pts = {i: pos[i] for i in idx}
        best_perm, best_key = None, None
        for perm in permutations(idx):
            a, b, c = perm
            if dist[a, b] <= dist[b, c] <= dist[a, c]:
                key = (tuple(pts[a]), tuple(pts[b]), tuple(pts[c]))
                if best_key is None or key < best_key:
                    best_perm, best_key = perm, key
        return best_perm

    seen = set()
    out = []
    for anchor in range(m):
        if neighbor_lists is None:
            neighbor_order = [int(j) for j in np.argsort(dist[anchor], kind="stable") if j != anchor]
            nn = sorted(neighbor_order[:k])
        else:
            nn = sorted(neighbor_lists[anchor])
        for x in range(len(nn)):
            for y in range(x + 1, len(nn)):
                i, j = nn[x], nn[y]
                sides = sorted([dist[anchor, i], dist[anchor, j], dist[i, j]])
                if sides[0] < min_side or sides[0] + sides[1] - sides[2] <= slack:
                    continue
                triple = tuple(int(round(s / resolution)) for s in sides)
                if triple in seen:
                    continue
                seen.add(triple)
                perm = canonical((anchor, i, j))
                out.append(
                    {
                        "vertices": pos[list(perm)],
                        "normals": nrm[list(perm)],
                        "sides": tuple(sides),
                    }
                )
    out.sort(key=lambda d: (d["sides"], tuple(map(tuple, d["vertices"]))))
    return out


def test_three_keypoints_give_one_345_descriptor():
    kps = make_kps([[0, 0, 0], [3, 0, 0], [3, 4, 0]])
    [d] = build_descriptors(kps, k_neighbors=20)
    assert np.allclose(d.sides, (3.0, 4.0, 5.0), atol=1e-12)


def test_unit_square_collapses_to_one_descriptor():
    kps = make_kps([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    descs = build_descriptors(kps, k_neighbors=20)
    assert len(descs) == 1
    assert np.allclose(descs[0].sides, (1.0, 1.0, np.sqrt(2.0)), atol=1e-12)


def lattice_points(rng, n):
    """Distinct integer-lattice points: exact isosceles and equilateral ties."""
    cells = rng.choice(5 * 5 * 3, size=n, replace=False)
    return np.stack(np.unravel_index(cells, (5, 5, 3)), axis=1).astype(np.float64)


def assert_matches_oracle(pts, rng):
    normals = rng.normal(size=(len(pts), 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    kps = make_kps(pts, normals)
    got = build_descriptors(kps, k_neighbors=20)
    expected = oracle_descriptors(kps, k_neighbors=20)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert np.allclose(g.vertices, e["vertices"], atol=0)
        assert np.allclose(g.normals, e["normals"], atol=0)
        assert np.allclose(g.sides, e["sides"], atol=1e-12)
    return got


def test_matches_exhaustive_oracle():
    rng = np.random.default_rng(0)
    assert_matches_oracle(rng.uniform(0, 30, size=(30, 3)), rng)
    # lattice: exact isosceles and equilateral ties exercise the permutation
    # scan and the sort; 21 points, so every other point is a neighbor and
    # equal distances cannot change which neighbors the k-d tree returns
    got = assert_matches_oracle(lattice_points(rng, 21), rng)
    sides = np.array([g.sides for g in got])
    isosceles = (sides[:, 0] == sides[:, 1]) | (sides[:, 1] == sides[:, 2])
    equilateral = (sides[:, 0] == sides[:, 1]) & (sides[:, 1] == sides[:, 2])
    assert isosceles.sum() > equilateral.sum() > 0


def test_equidistant_neighbors_follow_the_kd_tree():
    # Pinned tie rule: when several points tie at an anchor's k-th neighbor
    # distance, the ones kept are those cKDTree.query returns, not the lowest
    # indices. On this lattice that gives 331 descriptors; index-order ties
    # would give 327.
    pts = lattice_points(np.random.default_rng(0), 30)
    kps = make_kps(pts)
    got = build_descriptors(kps, k_neighbors=20)
    assert len(got) == 331
    assert len(oracle_descriptors(kps, k_neighbors=20)) == 327
    pos = pts[sorted(range(len(pts)), key=lambda i: tuple(pts[i]))]
    _, nn = cKDTree(pos).query(pos, k=21)
    tree_lists = [[int(j) for j in row if j != anchor][:20] for anchor, row in enumerate(nn)]
    expected = oracle_descriptors(kps, k_neighbors=20, neighbor_lists=tree_lists)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert np.array_equal(g.vertices, e["vertices"])
        assert np.allclose(g.sides, e["sides"], atol=1e-12)


def test_too_few_keypoints_yield_empty():
    empty = build_descriptors(make_kps([[0, 0, 0], [1, 0, 0]]), 20, frame_id=4)
    assert isinstance(empty, DescriptorFrame) and len(empty) == 0 and empty.frame_id == 4
    assert empty.vertices.shape == (0, 3, 3) and empty.sides.shape == (0, 3)


def test_canonical_side_order_and_vertex_consistency():
    rng = np.random.default_rng(1)
    kps = make_kps(rng.uniform(0, 20, size=(25, 3)))
    for d in build_descriptors(kps, k_neighbors=10):
        l12, l23, l13 = d.sides
        assert l12 <= l23 <= l13
        p1, p2, p3 = d.vertices
        assert abs(np.linalg.norm(p1 - p2) - l12) < 1e-9
        assert abs(np.linalg.norm(p2 - p3) - l23) < 1e-9
        assert abs(np.linalg.norm(p1 - p3) - l13) < 1e-9
        assert l12 + l23 > l13 + 0.1
        assert np.allclose(centroid(d), (p1 + p2 + p3) / 3, atol=1e-12)


def test_no_duplicate_quantized_triples():
    rng = np.random.default_rng(2)
    kps = make_kps(rng.uniform(0, 15, size=(40, 3)))
    descs = build_descriptors(kps, k_neighbors=15)
    triples = [tuple(int(round(s / 0.01)) for s in d.sides) for d in descs]
    assert len(triples) == len(set(triples))


def test_deterministic_under_input_permutation():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 25, size=(20, 3))
    kps = make_kps(pts)
    base = build_descriptors(kps, k_neighbors=12)
    for seed in range(3):
        shuffled = list(kps)
        np.random.default_rng(seed).shuffle(shuffled)
        again = build_descriptors(shuffled, k_neighbors=12)
        assert len(again) == len(base)
        for a, b in zip(base, again):
            assert np.array_equal(a.vertices, b.vertices)
            assert np.array_equal(a.normals, b.normals)


class TestSignature:
    def test_equilateral_same_plane(self):
        s = 2.0
        pts = np.array([[0, 0, 0], [s, 0, 0], [s / 2, s * np.sqrt(3) / 2, 0]])
        [d] = build_descriptors(make_kps(pts), 20)
        sig = signature(d)
        assert np.allclose(sig[:3], s, atol=1e-12)
        assert np.allclose(sig[3:], 1.0, atol=1e-12)

    def test_orthogonal_normals_give_zero_dot(self):
        pts = np.array([[0, 0, 0], [3, 0, 0], [3, 4, 0]])
        normals = np.array([[0, 0, 1.0], [0, 0, 1.0], [1.0, 0, 0]])
        [d] = build_descriptors(make_kps(pts, normals), 20)
        sig = signature(d)
        assert np.count_nonzero(np.abs(sig[3:]) < 1e-12) == 2

    def test_rigid_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            pts = rng.uniform(0, 10, size=(3, 3))
            normals = rng.normal(size=(3, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            base = build_descriptors(make_kps(pts, normals), 20)
            if not base:
                continue
            t = RigidTransform(random_rotation(rng), rng.uniform(-50, 50, 3))
            moved = build_descriptors(
                make_kps(t.apply(pts), (t.R @ normals.T).T), 20
            )
            assert len(moved) == len(base) == 1
            assert np.max(np.abs(signature(base[0]) - signature(moved[0]))) < 1e-9

    def test_sign_flipped_normals_same_signature(self):
        pts = np.array([[0, 0, 0], [3, 0, 0], [3, 4, 0]])
        normals = np.array([[0.6, 0.8, 0], [0, 0, 1.0], [1.0, 0, 0]])
        [a] = build_descriptors(make_kps(pts, normals), 20)
        [b] = build_descriptors(make_kps(pts, -normals), 20)
        assert np.allclose(signature(a), signature(b), atol=1e-12)
