import dataclasses
import tracemalloc

import numpy as np
import pytest

from triloop import pipeline
from triloop.database import DescriptorDatabase
from triloop.descriptors import DescriptorFrame, DescriptorPairs, TriangleDescriptor
from triloop.errors import EmptyPlaneList, InsufficientOverlap, NoValidTransform
from triloop.geometry import (
    RigidTransform,
    random_rotation,
    rotation_about_axis,
    rotation_angle_deg,
    solve_rigid_svd_batch,
)
from triloop.loop import (
    MIN_INLIER_PAIRS,
    _correspondences,
    _count_inliers,
    _inlier_mask,
    _pair_inliers,
    plane_icp,
    plane_overlap,
    ransac_transform,
    score_candidates,
    select_loop,
)
from triloop.pipeline import FrameExtraction, MatchingSession, PipelineConfig

from plane_sets import plane_set
from scalar_descriptors import stack_frame, stack_pairs
from test_database import synth_descriptor, transformed
from test_geometry import scalar_all_collinear, scalar_kabsch


def place_randomly(rng, d: TriangleDescriptor) -> TriangleDescriptor:
    pose = RigidTransform(random_rotation(rng), rng.uniform(-20, 20, 3))
    return transformed(d, pose)


def planted_pairs(rng, n, t: RigidTransform):
    """Consistent (query, stored) pairs where stored = t(query)."""
    pairs = []
    for _ in range(n):
        q = place_randomly(rng, synth_descriptor(rng, 1))
        s = transformed(q, t)
        pairs.append((q, s))
    return pairs


def scrambled_pairs(rng, n):
    return [
        (place_randomly(rng, synth_descriptor(rng, 1)),
         place_randomly(rng, synth_descriptor(rng, 0)))
        for _ in range(n)
    ]


def random_planes(rng, n, extent=30.0, frame_id=0):
    centers = rng.uniform(-extent / 2, extent / 2, size=(n, 3))
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return plane_set(centers, normals)


def transform_planes(planes, t: RigidTransform):
    return plane_set([t.apply(c) for c in planes.centers], [t.R @ n for n in planes.normals])


class TestRansac:
    def test_recovers_transform_from_consistent_pairs(self):
        rng = np.random.default_rng(0)
        truth = RigidTransform(random_rotation(rng), rng.uniform(-10, 10, 3))
        pairs = stack_pairs(planted_pairs(rng, 12, truth))
        got, inliers = ransac_transform(pairs, iterations=100, inlier_tol=0.5, rng=rng)
        assert np.linalg.norm(got.R - truth.R) < 1e-6
        assert np.linalg.norm(got.t - truth.t) < 1e-6
        assert len(inliers) == 12

    def test_planted_inliers_beat_scrambled_outliers(self):
        rng = np.random.default_rng(1)
        truth = RigidTransform(rotation_about_axis([0, 0, 1], 2.5), np.array([5.0, -3.0, 1.0]))
        good = planted_pairs(rng, 10, truth)
        bad = scrambled_pairs(rng, 10)
        pairs = stack_pairs(good + bad)
        got, inliers = ransac_transform(pairs, iterations=100, inlier_tol=0.5, rng=rng)
        assert rotation_angle_deg(truth.R.T @ got.R) < 0.01
        assert np.linalg.norm(got.t - truth.t) < 1e-3
        assert np.array_equal(inliers.query.vertices, stack_pairs(good).query.vertices)

    def test_single_pair_is_not_enough(self):
        rng = np.random.default_rng(2)
        pairs = stack_pairs(planted_pairs(rng, 1, RigidTransform.identity()))
        with pytest.raises(NoValidTransform):
            ransac_transform(pairs, iterations=10, inlier_tol=0.5, rng=rng)

    def test_empty_pairs_rejected(self):
        with pytest.raises(NoValidTransform):
            ransac_transform(stack_pairs([]), rng=np.random.default_rng(0))

    def test_high_outlier_fraction_success_rate(self):
        # planted inliers >= 60%: recovery must be overwhelmingly reliable
        rng = np.random.default_rng(3)
        successes = 0
        for _ in range(100):
            truth = RigidTransform(random_rotation(rng), rng.uniform(-10, 10, 3))
            pairs = stack_pairs(planted_pairs(rng, 12, truth) + scrambled_pairs(rng, 8))
            try:
                got, _ = ransac_transform(pairs, iterations=100, inlier_tol=0.5, rng=rng)
            except NoValidTransform:
                continue
            if (
                rotation_angle_deg(truth.R.T @ got.R) < 0.1
                and np.linalg.norm(got.t - truth.t) < 0.5
            ):
                successes += 1
        assert successes >= 99


def scalar_ransac(pairs, iterations=100, inlier_tol=0.5, rng=None):
    """Reference: one draw, one scalar Kabsch solve and one inlier count per
    iteration."""
    if not pairs:
        raise NoValidTransform("no matched pairs to verify")
    rng = np.random.default_rng(0) if rng is None else rng
    src_tris = np.stack([q.vertices for q, _ in pairs])
    dst_tris = np.stack([s.vertices for _, s in pairs])
    best_count = 0
    best_mask = None
    for _ in range(iterations):
        pick = int(rng.integers(len(pairs)))
        if scalar_all_collinear(src_tris[pick]):
            continue
        R, t = scalar_kabsch(src_tris[pick], dst_tris[pick])
        moved = src_tris @ R.T + t
        ok = np.all(np.linalg.norm(moved - dst_tris, axis=2) < inlier_tol, axis=1)
        count = int(ok.sum())
        if count > best_count:
            best_count = count
            best_mask = ok
    if best_mask is None or best_count < MIN_INLIER_PAIRS:
        raise NoValidTransform(
            f"best sample has {best_count} inlier pairs, need {MIN_INLIER_PAIRS}"
        )
    inliers = [p for p, keep in zip(pairs, best_mask) if keep]
    src = np.concatenate([q.vertices for q, _ in inliers])
    dst = np.concatenate([s.vertices for _, s in inliers])
    return RigidTransform(*scalar_kabsch(src, dst)), inliers


def ransac_outcome(fn, pairs, seed, **kwargs):
    """Bits of the transform, of the inlier pairs' vertices and the generator
    state after."""
    rng = np.random.default_rng(seed)
    try:
        got, inliers = fn(pairs, rng=rng, **kwargs)
    except NoValidTransform as exc:
        return ("no transform", str(exc), rng.bit_generator.state)
    inlier_bits = [(q.vertices.tobytes(), s.vertices.tobytes()) for q, s in inliers]
    return (got.R.tobytes(), got.t.tobytes(), inlier_bits, rng.bit_generator.state)


def with_vertices(d: TriangleDescriptor, vertices) -> TriangleDescriptor:
    return TriangleDescriptor(np.asarray(vertices, dtype=np.float64), d.normals, d.sides, d.frame_id)


def degenerate_pairs(rng, n):
    """Pairs whose query triangle is collinear or repeats a vertex."""
    pairs = []
    for i in range(n):
        q, s = scrambled_pairs(rng, 1)[0]
        p0, p1, _ = q.vertices
        third = p0 + 2.5 * (p1 - p0) if i % 3 == 0 else (p1 if i % 3 == 1 else p0)
        pairs.append((with_vertices(q, [p0, p1, third]), s))
    return pairs


def boundary_pairs(rng, n, t: RigidTransform, tol):
    """Consistent pairs with one stored vertex moved to tol, within 3e-15 relative."""
    pairs = []
    for i in range(n):
        q, s = planted_pairs(rng, 1, t)[0]
        offset = rng.normal(size=3)
        offset *= tol * (1.0 + (i % 7 - 3) * 1e-15) / np.linalg.norm(offset)
        verts = s.vertices.copy()
        verts[i % 3] += offset
        pairs.append((q, with_vertices(s, verts)))
    return pairs


def every_vertex_distinct(src_tris, dst_tris):
    """Correspondences of (P, 3, 3) vertex arrays whose every vertex is its
    own key point, U = 3P: the (U, 3) points and the (P, 3) links."""
    ids = np.arange(src_tris.size // 3).reshape(-1, 3)
    return _correspondences(src_tris.reshape(-1, 3), dst_tris.reshape(-1, 3), ids, ids)


def count_inliers(src_tris, dst_tris, R, t, tol):
    """_count_inliers of (P, 3, 3) vertex arrays, every vertex distinct."""
    src, dst, links = every_vertex_distinct(src_tris, dst_tris)
    assert len(src) == src_tris.size // 3
    return _count_inliers(src, dst, links, R, t, tol)[0]


def assert_decisions_exact(src, dst, links, R, t, tol):
    """Counts and every hypothesis's pair mask, read from the same
    decisions, equal _inlier_mask over all pairs."""
    counts, states = _count_inliers(src, dst, links, R, t, tol)
    for h in range(len(R)):
        expected = _inlier_mask(src[links], dst[links], R[h], t[h], tol)
        assert counts[h] == np.count_nonzero(expected)
        got = _pair_inliers(states[:, [h]], src, dst, links, R[[h]], t[[h]], tol)
        assert np.array_equal(got[:, 0], expected)
    return counts


def shared_keypoint_pairs(rng, truth, tol, n_points=30, n_pairs=400):
    """Pairs of triangles over two small key-point tables, stored = truth(query)
    for planted pairs, so that pairs share correspondences (U < 3P). Query
    key point 0 is matched to two different stored key points, and some
    stored points sit within a few ulps of tol from where truth moves them."""
    query_points = rng.uniform(-20, 20, size=(n_points, 3))
    moved = query_points @ truth.R.T + truth.t
    offsets = rng.normal(size=(n_points, 3))
    offsets *= tol * (1.0 + rng.integers(-4, 5, size=(n_points, 1)) * 1e-16) / np.linalg.norm(
        offsets, axis=1, keepdims=True)
    near = rng.random(n_points) < 0.3
    stored_points = np.concatenate([np.where(near[:, None], moved + offsets, moved),
                                    rng.uniform(-20, 20, size=(n_points, 3))])
    src_ids = np.stack([rng.choice(n_points, 3, replace=False) for _ in range(n_pairs)])
    dst_ids = src_ids.copy()
    outliers = rng.random(n_pairs) < 0.4
    dst_ids[outliers] = rng.integers(n_points, 2 * n_points, size=(np.count_nonzero(outliers), 3))
    dst_ids[src_ids == 0] = np.where(np.arange(np.count_nonzero(src_ids == 0)) % 2, 0, n_points)
    return query_points, stored_points, src_ids, dst_ids


class TestBatchedRansacMatchesScalar:
    def assert_same(self, pairs, seeds=range(5), **kwargs):
        stacked = stack_pairs(pairs)
        for seed in seeds:
            expected = ransac_outcome(scalar_ransac, pairs, seed, **kwargs)
            assert ransac_outcome(ransac_transform, stacked, seed, **kwargs) == expected
        return expected

    def test_planted_and_scrambled(self):
        rng = np.random.default_rng(20)
        truth = RigidTransform(random_rotation(rng), rng.uniform(-10, 10, 3))
        pairs = (
            planted_pairs(rng, 40, truth)
            + scrambled_pairs(rng, 120)
            + boundary_pairs(rng, 30, truth, 0.5)
        )
        order = rng.permutation(len(pairs))
        pairs = [pairs[i] for i in order]
        outcome = self.assert_same(pairs)
        assert outcome[0] != "no transform"
        self.assert_same(pairs, seeds=[7], iterations=37, inlier_tol=0.25)
        self.assert_same(pairs, seeds=[8], iterations=0)
        for tol in (0.0, -1.0, np.inf):
            self.assert_same(pairs, seeds=[9], inlier_tol=tol)
        # far from the origin the one-gemm distances cannot decide, so every
        # row takes the exact test
        far = [
            (with_vertices(q, q.vertices + 1e6), with_vertices(s, s.vertices - 2e6))
            for q, s in pairs
        ]
        assert self.assert_same(far, seeds=[10])[0] != "no transform"

    def test_degenerate_samples_are_skipped(self):
        rng = np.random.default_rng(21)
        truth = RigidTransform(random_rotation(rng), rng.uniform(-10, 10, 3))
        pairs = planted_pairs(rng, 8, truth) + degenerate_pairs(rng, 30)
        outcome = self.assert_same(pairs, seeds=range(10))
        assert outcome[0] != "no transform"

    def test_inlier_counts_exact_at_the_tolerance(self):
        # vertices land within a few ulps of inlier_tol, where any change in
        # the arithmetic of the inlier test flips some of them
        rng = np.random.default_rng(23)
        tol = 0.5
        hyps = [RigidTransform(random_rotation(rng), rng.uniform(-30, 30, 3)) for _ in range(20)]
        src = rng.uniform(-40, 40, size=(3000, 3, 3))
        dst = np.empty_like(src)
        for i in range(len(src)):
            h = hyps[i % len(hyps)]
            offset = rng.normal(size=(3, 3))
            offset /= np.linalg.norm(offset, axis=1, keepdims=True)
            offset *= tol * (1.0 + rng.integers(-4, 5, size=(3, 1)) * 1e-16)
            dst[i] = src[i] @ h.R.T + h.t + offset
        R = np.stack([h.R for h in hyps])
        t = np.stack([h.t for h in hyps])
        expected = [
            int(np.all(np.linalg.norm(src @ h.R.T + h.t - dst, axis=2) < tol, axis=1).sum())
            for h in hyps
        ]
        assert 0 < sum(expected) < len(src)
        assert count_inliers(src, dst, R, t, tol).tolist() == expected

    def test_counts_equal_inlier_mask_per_hypothesis(self, monkeypatch):
        import triloop.loop

        rng = np.random.default_rng(24)
        truth = RigidTransform(random_rotation(rng), rng.uniform(-10, 10, 3))
        pairs = (planted_pairs(rng, 30, truth) + scrambled_pairs(rng, 40)
                 + boundary_pairs(rng, 30, truth, 0.5))
        src = np.stack([q.vertices for q, _ in pairs])
        dst = np.stack([s.vertices for _, s in pairs])
        picks = rng.integers(len(pairs), size=25)
        R, t = solve_rigid_svd_batch(src[picks], dst[picks])
        far_src, far_dst = src + 1e6, dst - 2e6
        nan_dst = dst.copy()
        nan_dst[3, 1, 2] = np.nan  # a non-finite margin: every row decided exactly
        # a chunk of 21 correspondences, or of 21 pairs, so they span many
        # chunks and a ragged last one
        monkeypatch.setattr(triloop.loop, "INLIER_CHUNK", 3 * len(R) * 7)
        for a, b, tol in ((src, dst, 0.5), (src, dst, 0.25), (far_src, far_dst, 0.5),
                          (src, nan_dst, 0.5), (src[:1], dst[:1], 0.5)):
            expected = [int(_inlier_mask(a, b, R[h], t[h], tol).sum()) for h in range(len(R))]
            assert count_inliers(a, b, R, t, tol).tolist() == expected
            assert_decisions_exact(*every_vertex_distinct(a, b), R, t, tol)
        assert sum(count_inliers(src, dst, R, t, 0.5)) > 0

    def test_shared_key_points_decided_once(self, monkeypatch):
        import triloop.loop

        rng = np.random.default_rng(26)
        truth = RigidTransform(random_rotation(rng), rng.uniform(-10, 10, 3))
        query_points, stored_points, src_ids, dst_ids = shared_keypoint_pairs(rng, truth, 0.5)
        src, dst, links = _correspondences(query_points, stored_points, src_ids, dst_ids)
        assert len(src) < src_ids.size
        assert np.array_equal(src[links], query_points[src_ids])
        assert np.array_equal(dst[links], stored_points[dst_ids])
        # query key point 0 is matched to two stored key points
        assert len({tuple(p) for p in dst[links][src_ids == 0]}) == 2
        picks = rng.integers(len(src_ids), size=30)
        R, t = solve_rigid_svd_batch(src[links[picks]], dst[links[picks]])
        monkeypatch.setattr(triloop.loop, "INLIER_CHUNK", 3 * len(R) * 7)
        for tol in (0.5, 0.25):
            assert sum(assert_decisions_exact(src, dst, links, R, t, tol)) > 0

    def test_ransac_on_shared_key_points_matches_scalar(self, monkeypatch):
        import triloop.loop

        rng = np.random.default_rng(27)
        truth = RigidTransform(random_rotation(rng), rng.uniform(-10, 10, 3))
        query_points, stored_points, src_ids, dst_ids = shared_keypoint_pairs(rng, truth, 0.5)
        frames = [
            DescriptorFrame(points, np.zeros_like(points), ids.astype(np.int32),
                            np.zeros((len(ids), 6)), frame_id)
            for frame_id, (points, ids) in enumerate(((query_points, src_ids),
                                                      (stored_points, dst_ids)))
        ]
        rows = np.arange(len(src_ids))
        pairs = DescriptorPairs(frames[0], frames[1], rows, rows)
        hypotheses = []

        def recorded(src, dst, links, R, t, tol):
            counts, states = _count_inliers(src, dst, links, R, t, tol)
            hypotheses.append((R, t, counts))
            return counts, states

        monkeypatch.setattr(triloop.loop, "_count_inliers", recorded)
        for seed in range(4):
            outcome = ransac_outcome(ransac_transform, pairs, seed)
            assert outcome[0] != "no transform"
            assert outcome == ransac_outcome(scalar_ransac, list(zip(pairs.query, pairs.stored)),
                                             seed)
            # the winner's inliers are _inlier_mask of every pair under it
            R, t, counts = hypotheses[-1]
            best = int(np.argmax(counts))
            winner = _inlier_mask(query_points[src_ids], stored_points[dst_ids], R[best],
                                  t[best], 0.5)
            _, inliers = ransac_transform(pairs, rng=np.random.default_rng(seed))
            assert np.array_equal(inliers.query_rows, rows[winner])

    def test_index_pairs_equal_materialized_pairs(self):
        rng = np.random.default_rng(25)
        truth = RigidTransform(random_rotation(rng), rng.uniform(-10, 10, 3))
        pairs = (planted_pairs(rng, 40, truth) + scrambled_pairs(rng, 60)
                 + boundary_pairs(rng, 20, truth, 0.5))
        query_at, stored_at = rng.permutation(len(pairs)), rng.permutation(len(pairs))
        query = stack_frame([pairs[i][0] for i in np.argsort(query_at)], 1)
        stored = stack_frame([pairs[i][1] for i in np.argsort(stored_at)], 0)
        # pair i is row query_at[i] of the query frame and stored_at[i] of the stored one
        indexed = DescriptorPairs(query, stored, query_at, stored_at)
        rows = np.arange(len(pairs))
        materialized = DescriptorPairs(query[query_at], stored[stored_at], rows, rows)
        for seed in range(4):
            outcome = ransac_outcome(ransac_transform, indexed, seed)
            assert outcome[0] != "no transform"
            assert outcome == ransac_outcome(ransac_transform, materialized, seed)
            assert outcome == ransac_outcome(ransac_transform, stack_pairs(pairs), seed)
        _, inliers = ransac_transform(indexed, rng=np.random.default_rng(0))
        _, expected = ransac_transform(materialized, rng=np.random.default_rng(0))
        assert len(inliers) == len(expected) >= 40
        assert inliers.query_frame is query and inliers.stored_frame is stored
        assert np.array_equal(inliers.query_rows, query_at[expected.query_rows])

    def test_all_samples_degenerate(self):
        rng = np.random.default_rng(22)
        pairs = degenerate_pairs(rng, 12)
        outcome = self.assert_same(pairs)
        assert outcome[:2] == ("no transform", f"best sample has 0 inlier pairs, need {MIN_INLIER_PAIRS}")


def chunk_spanning_candidate(rng, n_pairs=3000):
    """A planted candidate over distinct key points, stored = truth(query) for
    about 60% of its pairs: 3 * n_pairs correspondences, enough to span three
    inlier chunks of 1 << 18 cells at 100 hypotheses."""
    truth = RigidTransform(random_rotation(rng), rng.uniform(-10, 10, 3))
    query_points = rng.uniform(-40, 40, size=(3 * n_pairs, 3))
    stored_points = query_points @ truth.R.T + truth.t
    outliers = np.repeat(rng.random(n_pairs) < 0.4, 3)  # every vertex of 40% of the pairs
    stored_points[outliers] = rng.uniform(-40, 40, size=(np.count_nonzero(outliers), 3))
    ids = np.arange(3 * n_pairs, dtype=np.int32).reshape(n_pairs, 3)
    frames = [DescriptorFrame(points, np.zeros_like(points), ids, np.zeros((n_pairs, 6)), fid)
              for fid, points in enumerate((query_points, stored_points))]
    rows = np.arange(n_pairs)
    return DescriptorPairs(frames[0], frames[1], rows, rows)


class TestInlierChunks:
    HYPOTHESES = 100  # ransac_transform's default iterations; no sample here is collinear

    def test_ransac_does_not_depend_on_the_chunk_size(self, monkeypatch):
        import triloop.loop

        pairs = chunk_spanning_candidate(np.random.default_rng(31))
        for seed in range(3):
            outcomes = []
            for chunk in (3 * self.HYPOTHESES, 1 << 15, 1 << 18):
                calls = []

                def recorded(src, dst, links, R, t, tol):
                    calls.append((len(src), len(R)))
                    return _count_inliers(src, dst, links, R, t, tol)

                monkeypatch.setattr(triloop.loop, "INLIER_CHUNK", chunk)
                monkeypatch.setattr(triloop.loop, "_count_inliers", recorded)
                rng = np.random.default_rng(seed)
                got, inliers = ransac_transform(pairs, rng=rng)
                [(n_corr, n_hyp)] = calls
                assert n_hyp == self.HYPOTHESES
                assert n_corr >= 3 * (chunk // n_hyp)  # at least three chunks
                outcomes.append((got.R.tobytes(), got.t.tobytes(), inliers.query_rows.tolist(),
                                 inliers.stored_rows.tolist(), rng.bit_generator.state))
            assert len(outcomes[0][2]) >= 1000
            assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]

    @staticmethod
    def count_peak(src, dst, links, R, t):
        """Traced peak bytes of one _count_inliers call above what was held before."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _count_inliers(src, dst, links, R, t, 0.5)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_count_temporaries_are_bounded_by_the_chunk(self, monkeypatch):
        import triloop.loop

        pairs = chunk_spanning_candidate(np.random.default_rng(32))
        query, stored = pairs.query_frame, pairs.stored_frame
        src, dst, links = _correspondences(query.positions, stored.positions,
                                           query.vertex_ids, stored.vertex_ids)
        picks = np.random.default_rng(33).integers(len(pairs), size=self.HYPOTHESES)
        R, t = solve_rigid_svd_batch(src[links[picks]], dst[links[picks]])
        # held for the whole call: 17 float64 terms and one decision byte per
        # hypothesis for every correspondence
        whole_call = len(src) * (17 * 8 + len(R))
        small = 64 * 1024  # the (hypothesis, term) table and scalars
        shipped = self.count_peak(src, dst, links, R, t)
        # a block's temporaries fit in half of a 2 MiB L2 cache
        assert shipped - whole_call < 1 << 20, shipped - whole_call
        for chunk in (3 * len(R), 1 << 15, 1 << 18):
            monkeypatch.setattr(triloop.loop, "INLIER_CHUNK", chunk)
            peak = self.count_peak(src, dst, links, R, t)
            # a float64 miss and a few decision bytes per chunk cell
            assert peak <= whole_call + 24 * chunk + small, (chunk, peak - whole_call)


class TestPlaneOverlap:
    def test_identical_sets_identity_transform(self):
        rng = np.random.default_rng(4)
        planes = random_planes(rng, 40)
        assert plane_overlap(planes, planes, RigidTransform.identity()) == 1.0

    def test_distant_planes_zero_overlap(self):
        rng = np.random.default_rng(5)
        current = random_planes(rng, 20, extent=10.0)
        near = random_planes(rng, 20, extent=10.0)
        far = plane_set(near.centers + np.array([100.0, 0, 0]), near.normals)
        assert plane_overlap(current, far, RigidTransform.identity(), sigma_d=0.3) == 0.0

    def test_planted_transform_with_deleted_candidates(self):
        rng = np.random.default_rng(6)
        n = 50
        current = random_planes(rng, n, extent=40.0)
        truth = RigidTransform(random_rotation(rng), rng.uniform(-5, 5, 3))
        candidate = transform_planes(current, truth)
        kept = candidate[: n - 15]  # delete 30%
        got = plane_overlap(current, kept, truth)
        assert abs(got - (n - 15) / n) <= 1.0 / n

    def test_self_consistency_any_plane_set(self):
        rng = np.random.default_rng(7)
        for n in (1, 5, 200):
            planes = random_planes(rng, n)
            assert plane_overlap(planes, planes, RigidTransform.identity()) == 1.0

    def test_empty_lists_rejected(self):
        rng = np.random.default_rng(8)
        planes = random_planes(rng, 5)
        with pytest.raises(EmptyPlaneList):
            plane_overlap(planes[:0], planes, RigidTransform.identity())
        with pytest.raises(EmptyPlaneList):
            plane_overlap(planes, planes[:0], RigidTransform.identity())

    def test_normal_sign_flips_do_not_break_coincidence(self):
        rng = np.random.default_rng(9)
        current = random_planes(rng, 30)
        flipped = plane_set(current.centers, -current.normals)
        assert plane_overlap(current, flipped, RigidTransform.identity()) == 1.0


def build_verification_scene(rng, n_desc=25, n_planes=60):
    """One stored frame plus a query that is an exact copy of it."""
    stored = stack_frame(
        [place_randomly(rng, synth_descriptor(rng, 0)) for _ in range(n_desc)], 0
    )
    query = dataclasses.replace(stored, frame_id=1)
    planes = random_planes(rng, n_planes)
    db = DescriptorDatabase()
    db.insert_frame(0, stored)
    return db, query, planes


def select_verified(candidates, current_planes, plane_store, sigma_pc, mode="first", **kwargs):
    """select_loop over the verified score_candidates results, as the session runs them."""
    scored = score_candidates(
        candidates, current_planes, plane_store, rng=np.random.default_rng(0), **kwargs
    )
    return select_loop([s for s in scored if s.transform is not None], sigma_pc, mode)


class TestVerifyLoop:
    def test_exact_copy_detected_with_identity_transform(self):
        rng = np.random.default_rng(10)
        db, query, planes = build_verification_scene(rng)
        store = {0: planes}
        for copies in (1, 2):
            if copies == 2:  # an identical second frame ties at overlap 1.0
                db.insert_frame(2, dataclasses.replace(query, frame_id=2))
                store[2] = planes
            candidates = db.query_candidates(query, skip_recent=0)
            assert [c.frame_id for c in candidates] == sorted(store)
            for mode in ("first", "best"):
                loop = select_verified(candidates, planes, store, sigma_pc=0.5, mode=mode)
                assert loop is not None
                assert loop.frame_id == 0  # first in vote order, also on a best-mode tie
                assert loop.overlap == 1.0
                assert np.linalg.norm(loop.transform.R - np.eye(3)) < 1e-9
                assert np.linalg.norm(loop.transform.t) < 1e-9

    def test_no_geometry_match_returns_none(self):
        rng = np.random.default_rng(11)
        db, query, planes = build_verification_scene(rng)
        unrelated = stack_frame(
            [place_randomly(rng, synth_descriptor(rng, 1)) for _ in range(25)], 1
        )
        candidates = db.query_candidates(unrelated, skip_recent=0)
        loop = select_verified(candidates, planes, {0: planes}, sigma_pc=0.5)
        assert loop is None

    def test_acceptance_count_monotone_in_sigma_pc(self):
        rng = np.random.default_rng(12)
        counts = []
        scenes = []
        for fraction in (1.0, 0.75, 0.5, 0.25):
            db, query, planes = build_verification_scene(rng)
            kept = planes[: max(1, int(len(planes) * fraction))]
            scenes.append((db, query, planes, kept))
        for sigma in np.linspace(0.0, 1.0, 11):
            accepted = 0
            for db, query, planes, kept in scenes:
                candidates = db.query_candidates(query, skip_recent=0)
                loop = select_verified(candidates, planes, {0: kept}, sigma_pc=float(sigma))
                accepted += loop is not None
            counts.append(accepted)
        assert counts == sorted(counts, reverse=True)

    def test_min_votes_blocks_sparse_candidates(self, monkeypatch):
        rng = np.random.default_rng(13)
        db, query, planes = build_verification_scene(rng, n_desc=4)
        candidates = db.query_candidates(query, skip_recent=0)
        for sigma_pc in (0.5, 0.0):  # unverified scores overlap 0, never selected
            loop = select_verified(candidates, planes, {0: planes}, sigma_pc=sigma_pc, min_votes=5)
            assert loop is None

        # the session selects among verified candidates only
        session = MatchingSession(PipelineConfig(sigma_pc=0.0, skip_recent=0, min_votes=5))
        session.db, session.plane_store = db, {0: planes}
        monkeypatch.setattr(
            pipeline, "extract_frame",
            lambda cloud, frame_id, cfg: FrameExtraction(frame_id, planes, [], query),
        )
        outcome = session.process_keyframe(1, np.zeros((0, 3)))
        assert [(s.frame_id, s.transform, s.overlap) for s in outcome.scored] == [(0, None, 0.0)]
        assert outcome.loop is None
        assert outcome.refined is None

    def test_output_transform_maps_inlier_triangles_within_tolerance(self):
        rng = np.random.default_rng(18)
        truth = RigidTransform(random_rotation(rng), rng.uniform(-8, 8, 3))
        stored = stack_frame([transformed(place_randomly(rng, synth_descriptor(rng, 0)), truth)
                              for _ in range(25)], 0)
        # query vertices are the stored ones pulled back through the truth
        inv = truth.inverse()
        query = dataclasses.replace(
            stored, positions=stored.positions @ inv.R.T + inv.t,
            point_normals=stored.point_normals @ inv.R.T, frame_id=1,
        )
        planes = random_planes(rng, 50)
        db = DescriptorDatabase()
        db.insert_frame(0, stored)
        candidates = db.query_candidates(query, skip_recent=0)
        loop = select_verified(
            candidates, planes, {0: transform_planes(planes, truth)}, sigma_pc=0.5, inlier_tol=0.5
        )
        assert loop is not None
        [cand] = [c for c in candidates if c.frame_id == loop.frame_id]
        mapped_within_tol = 0
        for q, s in cand.pairs:
            moved = q.vertices @ loop.transform.R.T + loop.transform.t
            if np.all(np.linalg.norm(moved - s.vertices, axis=1) < 0.5):
                mapped_within_tol += 1
        assert mapped_within_tol >= loop.inlier_pairs

    def test_plane_overlap_scales_with_plane_count(self):
        import time

        rng = np.random.default_rng(19)
        current = random_planes(rng, 1000, extent=100.0)
        candidate = random_planes(rng, 1000, extent=100.0)
        plane_overlap(current, candidate, RigidTransform.identity())  # warm-up
        t0 = time.perf_counter()
        plane_overlap(current, candidate, RigidTransform.identity())
        assert time.perf_counter() - t0 < 0.010


class TestPlaneIcp:
    def planted(self, rng, n=200):
        current = random_planes(rng, n, extent=30.0)
        truth = RigidTransform(random_rotation(rng), rng.uniform(-3, 3, 3))
        candidate = transform_planes(current, truth)
        return current, candidate, truth

    def test_exact_initialization_is_fixed_point(self):
        rng = np.random.default_rng(14)
        current, candidate, truth = self.planted(rng)
        refined = plane_icp(current, candidate, truth)
        assert np.linalg.norm(refined.R - truth.R) < 1e-9
        assert np.linalg.norm(refined.t - truth.t) < 1e-9

    def test_converges_from_perturbed_start(self):
        rng = np.random.default_rng(15)
        current, candidate, truth = self.planted(rng)
        nudge = RigidTransform(
            rotation_about_axis(rng.normal(size=3), np.radians(2.0)),
            rng.normal(size=3) * 0.2 / np.sqrt(3),
        )
        start = nudge.compose(truth)
        refined = plane_icp(current, candidate, start)
        assert rotation_angle_deg(truth.R.T @ refined.R) < 0.001
        assert np.linalg.norm(refined.t - truth.t) < 1e-4

    def nudged_start(self, rng):
        current, candidate, truth = self.planted(rng, n=80)
        nudge = RigidTransform(
            rotation_about_axis(rng.normal(size=3), np.radians(1.5)),
            rng.normal(size=3) * 0.1,
        )
        return current, candidate, nudge.compose(truth)

    @staticmethod
    def independent_cost(current, candidate, t):
        """Residual cost of t by a per-plane nearest-center association."""
        total = 0.0
        cand_centers, cand_normals = candidate.centers, candidate.normals
        for center, normal in zip(current.centers, current.normals):
            g = t.apply(center)
            j = int(np.argmin(np.linalg.norm(cand_centers - g, axis=1)))
            u = t.R @ normal
            n_res = min(
                np.linalg.norm(u - cand_normals[j]), np.linalg.norm(u + cand_normals[j])
            )
            d_res = abs(float(cand_normals[j] @ (g - cand_centers[j])))
            if n_res < 0.2 and d_res < 0.3:
                total += (n_res / 0.2) ** 2 + (d_res / 0.3) ** 2
        return total

    def test_cost_never_worse_than_start(self):
        current, candidate, start = self.nudged_start(np.random.default_rng(16))
        refined = plane_icp(current, candidate, start)
        cost = self.independent_cost
        assert cost(current, candidate, refined) <= cost(current, candidate, start) + 1e-12

    def test_zero_iterations_return_the_start(self):
        current, candidate, start = self.nudged_start(np.random.default_rng(16))
        refined = plane_icp(current, candidate, start, max_iterations=0)
        assert np.array_equal(refined.R, start.R) and np.array_equal(refined.t, start.t)

    def test_one_iteration_is_no_worse_than_the_start(self):
        current, candidate, start = self.nudged_start(np.random.default_rng(16))
        refined = plane_icp(current, candidate, start, max_iterations=1)
        cost = self.independent_cost
        assert cost(current, candidate, refined) <= cost(current, candidate, start) + 1e-12

    def test_unobservable_direction_keeps_its_offset(self):
        # normals along z and x only: translation along the candidate's image
        # of y moves no residual, so a start off along it keeps that offset
        lattice = np.stack(np.meshgrid(*[np.arange(-4.0, 8.0, 4.0)] * 3, indexing="ij"), -1)
        centers = lattice.reshape(-1, 3)
        axes = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        current = plane_set(centers, axes[np.arange(len(centers)) % 2])
        truth = RigidTransform(rotation_about_axis([1.0, 2.0, 3.0], np.radians(4.0)),
                               np.array([0.2, -0.1, 0.3]))
        candidate = transform_planes(current, truth)
        nudge = RigidTransform(rotation_about_axis([2.0, -1.0, 1.0], np.radians(0.5)),
                               truth.R @ np.array([0.05, 0.0, -0.04]))
        start = nudge.compose(truth)
        start = RigidTransform(start.R, start.t + 0.3 * truth.R[:, 1])
        refined = plane_icp(current, candidate, start)
        assert np.all(np.isfinite(refined.R)) and np.all(np.isfinite(refined.t))
        error, unobservable = refined.t - truth.t, truth.R[:, 1]
        assert np.all(np.abs(error @ (truth.R @ axes.T)) < 1e-6)
        assert abs((error - (start.t - truth.t)) @ unobservable) < 1e-6
        assert rotation_angle_deg(truth.R.T @ refined.R) < 1e-4
        cost = self.independent_cost
        assert cost(current, candidate, refined) <= cost(current, candidate, start) + 1e-12

    def test_too_few_pairs_after_a_step_return_the_start(self, monkeypatch):
        from triloop import loop

        associate, calls = loop._associate, []

        def thinned_after_first(*args, **kwargs):
            mask, nearest, signs = associate(*args, **kwargs)
            calls.append(int(mask.sum()))
            if len(calls) > 1:
                mask = mask & (np.cumsum(mask) < loop.MIN_REFINE_PAIRS)
            return mask, nearest, signs

        monkeypatch.setattr(loop, "_associate", thinned_after_first)
        current, candidate, start = self.nudged_start(np.random.default_rng(16))
        refined = plane_icp(current, candidate, start)
        assert len(calls) == 2 and calls[0] >= loop.MIN_REFINE_PAIRS
        assert np.array_equal(refined.R, start.R) and np.array_equal(refined.t, start.t)

    def test_insufficient_overlap_raises(self):
        rng = np.random.default_rng(17)
        current, candidate, truth = self.planted(rng, n=30)
        hopeless = RigidTransform(np.eye(3), truth.t + np.array([500.0, 0.0, 0.0]))
        with pytest.raises(InsufficientOverlap):
            plane_icp(current, candidate, hopeless)
