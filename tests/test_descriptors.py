from itertools import permutations

import numpy as np
import pytest
from scipy.spatial import cKDTree

import triloop.descriptors
from triloop.descriptors import DescriptorFrame, build_descriptors
from triloop.geometry import RigidTransform, random_rotation
from triloop.keypoints import KeyPoint

from scalar_descriptors import centroid, signature, stack_frame


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
                        "triple": triple,
                    }
                )
    out.sort(key=lambda d: d["triple"])
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


def tree_neighbor_lists(pts, k):
    """Each point's k nearest neighbors as cKDTree.query returns them, by
    index into the points in position order."""
    pos = pts[sorted(range(len(pts)), key=lambda i: tuple(pts[i]))]
    _, nn = cKDTree(pos).query(pos, k=k + 1)
    return [[int(j) for j in row if j != anchor][:k] for anchor, row in enumerate(nn)]


def assert_matches_oracle(pts, rng, neighbor_lists=None):
    normals = rng.normal(size=(len(pts), 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    kps = make_kps(pts, normals)
    got = build_descriptors(kps, k_neighbors=20)
    expected = oracle_descriptors(kps, k_neighbors=20, neighbor_lists=neighbor_lists)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert np.allclose(g.vertices, e["vertices"], atol=0)
        assert np.allclose(g.normals, e["normals"], atol=0)
        assert np.allclose(g.sides, e["sides"], atol=1e-12)
    return got


def tie_kinds(frame):
    """Per row: "low" for l1 == l2 < l3, "high" for l1 < l2 == l3,
    "equilateral", or "untied"."""
    l1, l2, l3 = frame.sides.T
    return np.where((l1 == l2) & (l2 == l3), "equilateral",
                    np.where(l1 == l2, "low", np.where(l2 == l3, "high", "untied")))


def test_matches_exhaustive_oracle():
    rng = np.random.default_rng(0)
    assert_matches_oracle(rng.uniform(0, 30, size=(30, 3)), rng)
    # lattice: exact isosceles and equilateral ties exercise the vertex order
    # and the sort; 21 points, so every other point is a neighbor and equal
    # distances cannot change which neighbors the k-d tree returns
    got = assert_matches_oracle(lattice_points(rng, 21), rng)
    assert set(tie_kinds(got)) == {"low", "high", "equilateral", "untied"}
    # 30 lattice points: not every point is a neighbor, so a row's anchor,
    # the first of its vertices whose neighbors hold the other two, is its
    # smallest, middle or largest key-point id, for either kind of isosceles
    # row (the few equilateral ones are each found first from their smallest)
    pts = lattice_points(rng, 30)
    lists = tree_neighbor_lists(pts, 20)
    got = assert_matches_oracle(pts, rng, neighbor_lists=lists)
    kinds = tie_kinds(got)
    assert "equilateral" in kinds
    anchor_ranks = {"low": set(), "high": set()}
    for ids, kind in zip(got.vertex_ids, kinds):
        if kind in anchor_ranks:
            ids = sorted(ids)
            anchor = min(v for v in ids if set(ids) - {v} <= set(lists[v]))
            anchor_ranks[kind].add(ids.index(anchor))
    assert anchor_ranks == {"low": {0, 1, 2}, "high": {0, 1, 2}}


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
    expected = oracle_descriptors(kps, k_neighbors=20, neighbor_lists=tree_neighbor_lists(pts, 20))
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert np.array_equal(g.vertices, e["vertices"])
        assert np.allclose(g.sides, e["sides"], atol=1e-12)


def test_too_few_keypoints_yield_empty():
    empty = build_descriptors(make_kps([[0, 0, 0], [1, 0, 0]]), 20, frame_id=4)
    assert isinstance(empty, DescriptorFrame) and len(empty) == 0 and empty.frame_id == 4
    assert empty.vertices.shape == (0, 3, 3) and empty.sides.shape == (0, 3)


def test_repeated_point_gives_no_triangle():
    # sides 0, l, l: the slack drops it even with no minimum side
    repeated = make_kps([[0, 0, 0], [0, 0, 0], [3, 0, 0]])
    assert len(build_descriptors(repeated, 20, min_side=0.0)) == 0


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
    assert all(a < b for a, b in zip(triples, triples[1:]))  # rows in triple order


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


def random_frame(rng, n_keypoints=140, frame_id=0):
    """A build_descriptors frame of random key points, about as many
    descriptors as a pipeline keyframe."""
    positions = rng.uniform(0.0, 1.0, size=(n_keypoints, 3)) * np.array([50.0, 50.0, 8.0])
    normals = np.eye(3)[rng.integers(3, size=n_keypoints)]
    normals = normals + rng.normal(scale=0.05, size=(n_keypoints, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return build_descriptors(make_kps(positions, normals, frame_id), 20, frame_id=frame_id)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCompactFrame:
    """A frame holds each key point once, in its table, and its rows refer to
    the table by index."""

    def test_gathered_columns_equal_the_scalar_rows(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(0, 30, size=(30, 3))
        normals = rng.normal(size=(30, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        kps = make_kps(pts, normals)
        frame = build_descriptors(kps, k_neighbors=20)
        expected = oracle_descriptors(kps, k_neighbors=20)
        assert len(frame) == len(expected) > 100
        assert same_bits(frame.vertices, np.array([e["vertices"] for e in expected]))
        assert same_bits(frame.normals, np.array([e["normals"] for e in expected]))
        # the same rows stacked by the scalar reference, table found by from_sides
        restacked = stack_frame(list(frame), 0)
        for column in ("vertices", "normals", "signatures"):
            assert same_bits(getattr(restacked, column), getattr(frame, column)), column
        assert same_bits(frame.signatures, np.array([signature(d) for d in frame]))
        for i, row in enumerate(frame):
            assert same_bits(row.vertices, frame.positions[frame.vertex_ids[i]])
            assert same_bits(row.normals, frame.point_normals[frame.vertex_ids[i]])

    def test_slices_masks_and_index_arrays_share_the_table(self):
        rng = np.random.default_rng(43)
        frame = random_frame(rng)
        for sub in (frame[10:500], frame[frame.sides[:, 0] > 5.0],
                    frame[rng.permutation(len(frame))[:50]]):
            assert sub.positions is frame.positions
            assert sub.point_normals is frame.point_normals
            assert np.shares_memory(sub.positions, frame.positions)
        assert np.shares_memory(frame[10:500].vertex_ids, frame.vertex_ids)
        assert np.shares_memory(frame[10:500].signatures, frame.signatures)

    def test_rows_hold_sixty_bytes_and_the_table_each_key_point_once(self):
        frame = random_frame(np.random.default_rng(44))
        assert len(frame) >= 1000
        table = frame.positions.nbytes + frame.point_normals.nbytes
        assert len(frame.positions) == 140
        assert frame.vertex_ids.dtype == np.int32
        assert frame.nbytes <= 64 * len(frame) + table
        assert frame.nbytes == 60 * len(frame) + table
        # gathered on every access, not kept
        assert frame.vertices is not frame.vertices

    def test_from_sides_keeps_every_bit_pattern(self):
        # -0.0 beside 0.0 in positions and normals, and one position carrying
        # two normals: equal values, distinct bits, so distinct table rows
        p, q, r = [0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [3.0, 0.0, 1.0]
        up, down = [0.0, 0.0, 1.0], [0.0, -0.0, 1.0]
        side = [[1.0, 2.0, 2.5]]
        vertices = np.array([[p, q, r], [r, p, q], [p, p, r]])
        normals = np.array([[up, up, up], [up, up, down], [up, down, up]])
        sides = np.repeat(side, 3, axis=0)
        frame = DescriptorFrame.from_sides(vertices, normals, sides, 5)
        assert same_bits(frame.vertices, vertices) and same_bits(frame.normals, normals)
        assert same_bits(frame.sides, sides) and frame.frame_id == 5
        # (p, up), (q, up), (r, up), (q, down), (p, down); (r, up) shared
        assert len(frame.positions) == 5
        again = DescriptorFrame.from_sides(frame.vertices, frame.normals, frame.sides, 5)
        for column in ("vertices", "normals", "signatures"):
            assert same_bits(getattr(again, column), getattr(frame, column))

    def test_hash_collisions_fall_back_to_lexsort(self, monkeypatch):
        rng = np.random.default_rng(45)
        frame = random_frame(rng, n_keypoints=40)
        rows = (frame.vertices, frame.normals, frame.sides)
        hashed = DescriptorFrame.from_sides(*rows, 0)
        # every row in one hash group: each check fails and the lexsort groups
        monkeypatch.setattr(triloop.descriptors, "mix_words",
                            lambda words: np.zeros(np.shape(words[0]), dtype=np.uint64))
        collided = DescriptorFrame.from_sides(*rows, 0)
        for column in ("vertices", "normals", "signatures"):
            assert same_bits(getattr(collided, column), getattr(hashed, column))
        assert len(collided.positions) == len(hashed.positions) == 40

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_one_row(self, n):
        rng = np.random.default_rng(46)
        vertices, normals = rng.normal(size=(n, 3, 3)), rng.normal(size=(n, 3, 3))
        frame = DescriptorFrame.from_sides(vertices, normals, np.ones((n, 3)), 2)
        assert len(frame) == n and frame.vertex_ids.shape == (n, 3)
        assert same_bits(frame.vertices, vertices) and same_bits(frame.normals, normals)
