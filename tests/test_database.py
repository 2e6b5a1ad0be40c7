import dataclasses
import struct
import sys

import numpy as np
import pytest

from triloop.database import DescriptorDatabase, frame_keys, stable_argsort
from triloop.descriptors import (
    DescriptorFrame,
    TriangleDescriptor,
    build_descriptors,
    frame_signatures,
)
from triloop.errors import DuplicateFrame, MalformedRecord
from triloop.geometry import RigidTransform, random_rotation
from triloop.keypoints import KeyPoint

from scalar_descriptors import centroid, make_key, quantize, signature, stack_frame


def synth_descriptor(rng, frame_id, side_range=(1.0, 30.0), structured_normals=False):
    """Descriptor with consistent vertices/sides built from a planted triangle.

    structured_normals mimics man-made scenes: vertex normals cluster around
    the coordinate axes, which makes hash-cell collisions across frames common.
    """
    while True:
        l12 = rng.uniform(*side_range)
        l23 = rng.uniform(l12, side_range[1] * 1.2)
        l13 = rng.uniform(l23, l12 + l23 - 0.2)
        if l13 < l23:
            continue
        break
    # place the triangle in the xy plane from its side lengths
    p1 = np.zeros(3)
    p2 = np.array([l12, 0.0, 0.0])
    x = (l12**2 + l13**2 - l23**2) / (2 * l12)
    y = np.sqrt(max(l13**2 - x**2, 0.0))
    p3 = np.array([x, y, 0.0])
    if structured_normals:
        normals = np.eye(3)[rng.integers(3, size=3)] + rng.normal(scale=0.02, size=(3, 3))
    else:
        normals = rng.normal(size=(3, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return TriangleDescriptor(
        vertices=np.stack([p1, p2, p3]),
        normals=normals,
        sides=(float(l12), float(l23), float(l13)),
        frame_id=frame_id,
    )


def synth_frame(rng, frame_id, n, side_range=(1.0, 30.0), structured_normals=False):
    return stack_frame(
        [synth_descriptor(rng, frame_id, side_range, structured_normals) for _ in range(n)],
        frame_id,
    )


def transformed(d: TriangleDescriptor, t: RigidTransform) -> TriangleDescriptor:
    verts = d.vertices @ t.R.T + t.t
    return TriangleDescriptor(
        vertices=verts,
        normals=d.normals @ t.R.T,
        sides=(
            float(np.linalg.norm(verts[0] - verts[1])),
            float(np.linalg.norm(verts[1] - verts[2])),
            float(np.linalg.norm(verts[0] - verts[2])),
        ),
        frame_id=d.frame_id,
    )


def brute_force_votes(stored, queries, delta_l, delta_n, excluded=()):
    """Oracle: O(N^2) quantized-signature comparison, no hash table."""
    def cells(d):
        sig = signature(d)
        return tuple(
            quantize(sig[i], delta_l if i < 3 else delta_n) for i in range(6)
        )

    stored_cells = [(s.frame_id, cells(s)) for s in stored]
    votes = {}
    for q in queries:
        qc = cells(q)
        hit_frames = set()
        for frame_id, sc in stored_cells:
            if frame_id in excluded or frame_id in hit_frames:
                continue
            if sc == qc:
                hit_frames.add(frame_id)
        for f in hit_frames:
            votes[f] = votes.get(f, 0) + 1
    return votes


class TestMakeKey:
    def test_quantization_arithmetic(self):
        key = make_key([3.0, 4.0, 5.0, 1.0, 1.0, 1.0], delta_l=0.2, delta_n=0.1)
        assert key.cells == (15, 20, 25, 10, 10, 10)

    def test_nearby_signatures_share_cell(self):
        a = make_key([3.05, 4.05, 5.05, 0.51, 0.52, 0.53], 0.2, 0.1)
        b = make_key([3.07, 4.05, 5.05, 0.51, 0.52, 0.53], 0.2, 0.1)
        assert a == b

    def test_different_cells_different_key(self):
        a = make_key([3.0, 4.0, 5.0, 0.5, 0.5, 0.5], 0.2, 0.1)
        b = make_key([3.0, 4.0, 5.4, 0.5, 0.5, 0.5], 0.2, 0.1)
        assert a.cells != b.cells
        assert a.bucket != b.bucket

    def test_rigidly_moved_descriptor_same_key(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = synth_descriptor(rng, 0)
            t = RigidTransform(random_rotation(rng), rng.uniform(-20, 20, 3))
            moved = transformed(d, t)
            # skip signatures within float noise of a quantization boundary
            sig = signature(d)
            deltas = [0.2] * 3 + [0.1] * 3
            margins = [abs(s / dl - round(s / dl)) for s, dl in zip(sig, deltas)]
            if min(margins) < 1e-6:
                continue
            assert make_key(sig, 0.2, 0.1) == make_key(signature(moved), 0.2, 0.1)


class TestInsert:
    def test_counts_update(self):
        rng = np.random.default_rng(1)
        db = DescriptorDatabase()
        db.insert_frame(0, synth_frame(rng, 0, 100))
        assert db.frames_indexed == 1
        assert db.descriptors_indexed == 100

    def test_empty_insert_counts_frame(self):
        db = DescriptorDatabase()
        db.insert_frame(0, DescriptorFrame.empty(0))
        assert db.frames_indexed == 1
        assert db.descriptors_indexed == 0

    def test_duplicate_frame_rejected(self):
        rng = np.random.default_rng(2)
        db = DescriptorDatabase()
        db.insert_frame(0, synth_frame(rng, 0, 5))
        with pytest.raises(DuplicateFrame):
            db.insert_frame(0, DescriptorFrame.empty(0))

    def test_wrong_frame_id_rejected(self):
        rng = np.random.default_rng(3)
        db = DescriptorDatabase()
        with pytest.raises(ValueError):
            db.insert_frame(1, synth_frame(rng, 0, 2))


class TestQuery:
    def test_self_retrieval(self):
        rng = np.random.default_rng(4)
        db = DescriptorDatabase()
        descs = synth_frame(rng, 0, 50)
        db.insert_frame(0, descs)
        [cand] = db.query_candidates(descs, skip_recent=0)
        assert cand.frame_id == 0
        assert cand.votes == 50
        assert len(cand.pairs) == 50
        # every descriptor finds itself
        for q, s in cand.pairs:
            assert q is s or np.array_equal(q.vertices, s.vertices)

    def test_disjoint_side_ranges_only_overlap_matches(self):
        rng = np.random.default_rng(5)
        db = DescriptorDatabase()
        db.insert_frame(0, synth_frame(rng, 0, 30, side_range=(1.0, 5.0)))
        db.insert_frame(1, synth_frame(rng, 1, 30, side_range=(50.0, 80.0)))
        query = synth_frame(rng, 2, 30, side_range=(50.0, 80.0))
        candidates = db.query_candidates(query, skip_recent=0)
        assert all(c.frame_id == 1 for c in candidates)

    def test_votes_match_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        db = DescriptorDatabase()
        stored = []
        # narrow sides and axis-clustered normals force cross-frame collisions
        for f in range(20):
            frame = synth_frame(rng, f, 30, side_range=(1.0, 4.0), structured_normals=True)
            stored.extend(frame)
            db.insert_frame(f, frame)
        query = synth_frame(rng, 99, 40, side_range=(1.0, 4.0), structured_normals=True)
        got = db.vote_counts(query, skip_recent=0)
        expected = brute_force_votes(stored, query, db.delta_l, db.delta_n)
        assert got == expected
        assert sum(expected.values()) > 0
        # top-10 candidate list agrees with the oracle ranking
        cands = db.query_candidates(query, skip_recent=0)
        ranked = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        assert [(c.frame_id, c.votes) for c in cands] == ranked

    def test_skip_recent_excludes_latest_frames(self):
        rng = np.random.default_rng(7)
        db = DescriptorDatabase()
        frame = synth_frame(rng, 0, 20)
        db.insert_frame(0, frame)
        db.insert_frame(1, dataclasses.replace(frame, frame_id=1))
        candidates = db.query_candidates(frame, skip_recent=1)
        assert [c.frame_id for c in candidates] == [0]
        assert db.query_candidates(frame, skip_recent=2) == []

    def test_repeat_query_is_idempotent(self):
        rng = np.random.default_rng(8)
        db = DescriptorDatabase()
        for f in range(5):
            db.insert_frame(f, synth_frame(rng, f, 20, side_range=(1.0, 4.0)))
        query = synth_frame(rng, 9, 20, side_range=(1.0, 4.0))
        a = db.query_candidates(query, skip_recent=0)
        b = db.query_candidates(query, skip_recent=0)
        assert [(c.frame_id, c.votes) for c in a] == [(c.frame_id, c.votes) for c in b]

    def test_at_most_ten_candidates(self):
        rng = np.random.default_rng(9)
        db = DescriptorDatabase()
        d = synth_descriptor(rng, 0)
        for f in range(15):
            db.insert_frame(f, stack_frame([d], f))
        cands = db.query_candidates(stack_frame([d], 99), skip_recent=0)
        assert len(cands) == 10
        votes = [c.votes for c in cands]
        assert votes == sorted(votes, reverse=True)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        db = DescriptorDatabase(delta_l=0.25, delta_n=0.05)
        for f in range(6):
            db.insert_frame(f, synth_frame(rng, f, 25))
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        db.save(first)
        loaded = DescriptorDatabase.load(first)
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.delta_l == db.delta_l
        assert loaded.delta_n == db.delta_n
        assert loaded.frames_indexed == db.frames_indexed
        assert loaded.descriptors_indexed == db.descriptors_indexed

    def test_loaded_db_answers_identically(self, tmp_path):
        rng = np.random.default_rng(11)
        db = DescriptorDatabase()
        for f in range(8):
            db.insert_frame(f, synth_frame(rng, f, 20, side_range=(1.0, 4.0)))
        query = synth_frame(rng, 42, 30, side_range=(1.0, 4.0))
        path = tmp_path / "db.bin"
        db.save(path)
        loaded = DescriptorDatabase.load(path)
        a = db.query_candidates(query, skip_recent=2)
        b = loaded.query_candidates(query, skip_recent=2)
        assert [(c.frame_id, c.votes) for c in a] == [(c.frame_id, c.votes) for c in b]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTADB00" + b"\x00" * 32)
        with pytest.raises(MalformedRecord):
            DescriptorDatabase.load(path)

    def test_empty_frames_survive_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        db = DescriptorDatabase()
        db.insert_frame(0, DescriptorFrame.empty(0))
        db.insert_frame(1, synth_frame(rng, 1, 3))
        db.insert_frame(2, DescriptorFrame.empty(2))
        path = tmp_path / "db.bin"
        db.save(path)
        loaded = DescriptorDatabase.load(path)
        assert loaded.frames_indexed == 3
        assert loaded.descriptors_indexed == 3


def test_concurrent_readers_never_see_partial_frames():
    """Insertion of one frame is atomic: a frame's vote count is either zero
    or the full descriptor count, never in between."""
    import threading

    rng = np.random.default_rng(12)
    per_frame = 40
    frames = [synth_frame(rng, f, per_frame) for f in range(30)]
    # every frame is an exact signature copy of frame 0, so each query
    # descriptor matches every fully inserted frame
    base = frames[0]
    frames = [dataclasses.replace(base, frame_id=f) for f in range(30)]
    db = DescriptorDatabase()
    violations = []
    done = threading.Event()

    def reader():
        while not done.is_set():
            votes = db.vote_counts(base, skip_recent=0)
            for fid, count in votes.items():
                if count not in (0, per_frame):
                    violations.append((fid, count))

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for f, descs in enumerate(frames):
        db.insert_frame(f, descs)
    done.set()
    for t in threads:
        t.join()
    assert not violations


def test_insert_after_interleaved_queries_indexes_its_own_keys():
    """A writer's query of a frame keeps that frame's keys for its insert.
    Readers querying other frames between the two must not leave the insert
    indexing their keys: afterwards every vote matches the oracle."""
    import threading

    rng = np.random.default_rng(14)
    frames = [synth_frame(rng, f, 30, side_range=(1.0, 4.0), structured_normals=True)
              for f in range(12)]
    others = [synth_frame(rng, 100 + r, 30, side_range=(1.0, 4.0), structured_normals=True)
              for r in range(3)]
    db = DescriptorDatabase()
    queries_done = [0] * len(others)
    done = threading.Event()

    def reader(r):
        while not done.is_set():
            db.query_candidates(others[r], skip_recent=0)
            queries_done[r] += 1

    threads = [threading.Thread(target=reader, args=(r,)) for r in range(len(others))]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for f, frame in enumerate(frames):
            db.query_candidates(frame, skip_recent=0)
            seen = list(queries_done)
            # every reader finishes a query of its own frame before the insert
            while any(now < then + 2 for now, then in zip(queries_done, seen)):
                assert all(t.is_alive() for t in threads)
                done.wait(0.0005)
            db.insert_frame(f, frame)
    finally:
        done.set()
        for t in threads:
            t.join(timeout=30)
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    stored = [d for frame in frames for d in frame]
    for frame in frames + others:
        assert db.vote_counts(frame) == brute_force_votes(stored, frame, db.delta_l, db.delta_n)
    for f, frame in enumerate(frames):
        assert db.vote_counts(frame)[f] == len(frame)


class TestStableArgsort:
    @pytest.mark.parametrize("keys", [
        np.empty(0, dtype=np.uint64),
        np.array([7], dtype=np.uint64),
        np.array([3, 3], dtype=np.uint64),
        np.full(50, 2**64 - 1, dtype=np.uint64),
    ])
    def test_small_inputs(self, keys):
        assert np.array_equal(stable_argsort(keys), np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("distinct", [1, 2, 5, 300, 20_000])
    def test_heavy_ties_equal_a_stable_sort(self, distinct):
        rng = np.random.default_rng(distinct)
        values = rng.integers(0, 2**64, size=distinct, dtype=np.uint64)
        keys = values[rng.integers(0, distinct, size=20_000)]
        assert np.array_equal(stable_argsort(keys), np.argsort(keys, kind="stable"))

    def test_frame_bucket_keys(self):
        frame = keypoint_frame(np.random.default_rng(33), 0, n_keypoints=80)
        _, buckets = frame_keys(frame.signatures, 0.2, 0.1)
        assert len(np.unique(buckets)) < len(buckets)  # the frame has shared cells
        assert np.array_equal(stable_argsort(buckets), np.argsort(buckets, kind="stable"))


def keypoint_frame(rng, frame_id, n_keypoints=40):
    """A build_descriptors frame from random key points with axis-clustered
    normals, the way the pipeline makes them."""
    positions = rng.uniform(0.0, 30.0, size=(n_keypoints, 3))
    normals = np.eye(3)[rng.integers(3, size=n_keypoints)]
    normals = normals + rng.normal(scale=0.05, size=(n_keypoints, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    kps = [
        KeyPoint(position=p, normal=n, plane_id=0, frame_id=frame_id, strength=1.0)
        for p, n in zip(positions, normals)
    ]
    return build_descriptors(kps, k_neighbors=10, frame_id=frame_id)


def key(d, db):
    """The reference hash key of one row under db's resolutions."""
    return make_key(signature(d), db.delta_l, db.delta_n)


def same_row(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in ("vertices", "normals", "sides")
    )


def assert_keys_match_make_key(signatures, delta_l, delta_n):
    cells, buckets = frame_keys(signatures, delta_l, delta_n)
    assert cells.dtype == np.int64 and buckets.dtype == np.uint64
    for sig, row, bucket in zip(signatures, cells.tolist(), buckets.tolist()):
        key = make_key(sig, delta_l, delta_n)
        assert tuple(row) == key.cells
        assert bucket == key.bucket


class TestFrameKeys:
    def test_signatures_bit_equal_to_scalar_signature(self):
        # the vectorized normal dot products must round exactly like the
        # scalar ``n1 @ n2``; einsum differs in the last ulp on a third of them
        rng = np.random.default_rng(20)
        frame = stack_frame(list(keypoint_frame(rng, 0)) + list(synth_frame(rng, 0, 500)), 0)
        got = frame_signatures(frame.sides, frame.normals)
        expected = np.array([signature(d) for d in frame])
        assert got.shape == (len(frame), 6)
        assert np.array_equal(got, expected)

    def test_cells_and_buckets_equal_make_key(self):
        rng = np.random.default_rng(21)
        frame = keypoint_frame(rng, 0)
        assert len(frame) > 500
        signatures = frame_signatures(frame.sides, frame.normals)
        assert_keys_match_make_key(signatures, 0.2, 0.1)
        assert_keys_match_make_key(signatures, 0.25, 0.05)

    def test_cell_boundaries_quantize_like_make_key(self):
        rng = np.random.default_rng(22)
        delta_l, delta_n = 0.2, 0.1
        boundaries = np.hstack([
            rng.integers(0, 200, size=(300, 3)) * delta_l,
            rng.integers(0, 11, size=(300, 3)) * delta_n,
        ])
        offsets = rng.choice([-1e-12, -1e-13, 0.0, 1e-13, 1e-12], size=(300, 6))
        signatures = boundaries + offsets
        up = np.nextafter(boundaries, np.inf)
        down = np.nextafter(boundaries, -np.inf)
        for sig in (signatures, boundaries, up, down):
            assert_keys_match_make_key(sig, delta_l, delta_n)

    def test_negative_cells_wrap_like_make_key(self):
        signatures = np.array([[-3.1, 0.0, 7.3, -0.05, 1.0, 0.3]])
        assert_keys_match_make_key(signatures, 0.2, 0.1)

    def test_normals_in_any_memory_layout_give_the_same_keys(self):
        rng = np.random.default_rng(27)
        frame = synth_frame(rng, 0, 20)
        layouts = {
            "fortran": np.asfortranarray,
            "transposed view": lambda n: n.T.copy().T,
            "row view": lambda n: np.concatenate([n, n], axis=1)[:, :3],
            "nested lists": lambda n: n.tolist(),
        }
        expected = [make_key(signature(d), 0.2, 0.1) for d in frame]
        for name, layout in layouts.items():
            db = DescriptorDatabase()
            moved = DescriptorFrame.from_sides(frame.vertices, layout(frame.normals),
                                               frame.sides, 0)
            db.insert_frame(0, moved)
            votes = db.vote_counts(frame)
            assert votes == {0: len(frame)}, name
            _, buckets = frame_keys(moved.signatures, 0.2, 0.1)
            assert [k.bucket for k in expected] == buckets.tolist(), name

    def test_non_finite_signature_rejected(self):
        with pytest.raises(ValueError):
            frame_keys(np.array([[1.0, 2.0, np.nan, 0.1, 0.2, 0.3]]), 0.2, 0.1)


class TestVoteKernel:
    def test_pair_partner_is_earliest_stored_in_cell(self):
        rng = np.random.default_rng(23)
        [d] = synth_frame(rng, 0, 1)
        other = synth_frame(rng, 0, 3, side_range=(50.0, 80.0))

        def copy(offset, frame_id):
            # same signature, distinguishable vertices
            return TriangleDescriptor(d.vertices + offset, d.normals, d.sides, frame_id)

        db = DescriptorDatabase()
        stored = [other[0], copy(1.0, 0), other[1], copy(2.0, 0), other[2]]
        db.insert_frame(0, stack_frame(stored, 0))
        db.insert_frame(1, stack_frame([copy(3.0, 1), copy(4.0, 1)], 1))
        query = stack_frame([d], 9)
        cands = db.query_candidates(query, skip_recent=0)
        assert [(c.frame_id, c.votes) for c in cands] == [(0, 1), (1, 1)]
        [(q0, s0)] = cands[0].pairs
        [(q1, s1)] = cands[1].pairs
        assert same_row(q0, d) and same_row(q1, d)
        assert np.array_equal(s0.vertices, d.vertices + 1.0)
        assert np.array_equal(s1.vertices, d.vertices + 3.0)

    def test_partner_is_earliest_row_among_many_in_one_frame(self):
        # hundreds of rows of one frame share five cells, more than an
        # unstable sort keeps in row order
        rng = np.random.default_rng(26)
        base = list(synth_frame(rng, 0, 5))
        picks = rng.integers(0, len(base), size=400)
        rows = [TriangleDescriptor(base[b].vertices + i, base[b].normals, base[b].sides, 0)
                for i, b in enumerate(picks.tolist())]
        db = DescriptorDatabase()
        db.insert_frame(0, stack_frame(rows, 0))
        [cand] = db.query_candidates(stack_frame(base, 9), skip_recent=0)
        assert cand.votes == len(base)
        first = [int(np.flatnonzero(picks == b)[0]) for b in range(len(base))]
        assert cand.pairs.stored_rows.tolist() == first

    def test_pairs_follow_query_order_and_equal_votes(self):
        rng = np.random.default_rng(24)
        db = DescriptorDatabase()
        stored = []
        for f in range(15):
            frame = synth_frame(rng, f, 40, side_range=(1.0, 4.0), structured_normals=True)
            stored.extend(frame)
            db.insert_frame(f, frame)
        query = synth_frame(rng, 99, 60, side_range=(1.0, 4.0), structured_normals=True)
        cands = db.query_candidates(query, skip_recent=3)
        assert cands
        position = {q.sides.tobytes(): i for i, q in enumerate(query)}
        assert len(position) == len(query)  # sides identify a query row
        for c in cands:
            assert len(c.pairs) == c.votes
            rows = [position[q.sides.tobytes()] for q, _ in c.pairs]
            assert rows == sorted(set(rows))  # one pair per query row, in order
            for q, s in c.pairs:
                assert s.frame_id == c.frame_id
                assert key(q, db) == key(s, db)
        expected = brute_force_votes(stored, query, db.delta_l, db.delta_n,
                                     excluded={12, 13, 14})
        assert db.vote_counts(query, skip_recent=3) == expected

    def test_long_buckets_across_merged_segments(self):
        # frames of uneven size, some empty, share a few cells, so buckets
        # span many frames and the index merges segments at uneven points
        rng = np.random.default_rng(28)
        shared = synth_frame(rng, 0, 4, side_range=(1.0, 4.0), structured_normals=True)
        db = DescriptorDatabase()
        frames = {}
        for f in range(60):
            frame = list(synth_frame(rng, f, int(rng.integers(0, 25)),
                                     side_range=(1.0, 4.0), structured_normals=True))
            frame += [dataclasses.replace(shared[i], frame_id=f)
                      for i in rng.integers(0, len(shared), size=int(rng.integers(0, 4)))]
            frames[f] = [frame[i] for i in rng.permutation(len(frame))]
            db.insert_frame(f, stack_frame(frames[f], f))
        query = stack_frame(list(shared) + list(synth_frame(rng, 99, 30, side_range=(1.0, 4.0),
                                                            structured_normals=True)), 99)
        stored = [d for frame in frames.values() for d in frame]
        for skip in (0, 5):
            expected = brute_force_votes(stored, query, db.delta_l, db.delta_n,
                                         excluded=set(range(60 - skip, 60)))
            assert db.vote_counts(query, skip_recent=skip) == expected
        cands = db.query_candidates(query, skip_recent=0)
        assert cands
        for c in cands:
            assert len(c.pairs) == c.votes
            for q, s in c.pairs:
                partner = next(d for d in frames[c.frame_id] if key(d, db) == key(q, db))
                assert same_row(s, partner)

    def test_empty_query_and_empty_database(self):
        rng = np.random.default_rng(25)
        db = DescriptorDatabase()
        query = synth_frame(rng, 1, 5)
        assert db.query_candidates(query) == []
        assert db.vote_counts(query) == {}
        db.insert_frame(0, synth_frame(rng, 0, 5))
        assert db.query_candidates(DescriptorFrame.empty(1)) == []
        assert db.vote_counts(DescriptorFrame.empty(1)) == {}


def reference_v1_snapshot(delta_l, delta_n, frames):
    """The v1 snapshot layout written field by field with struct."""
    chunks = [b"TRIDESC1", struct.pack("<IddQ", 1, delta_l, delta_n, len(frames))]
    for fid, descs in frames:
        chunks.append(struct.pack("<qQ", fid, len(descs)))
        for d in descs:
            values = np.concatenate(
                [d.vertices.ravel(), d.normals.ravel(), np.asarray(d.sides), centroid(d)]
            )
            chunks.append(struct.pack("<24d", *values))
    return b"".join(chunks)


class TestSnapshotFormat:
    def make_db(self):
        rng = np.random.default_rng(26)
        frames = [
            (7, synth_frame(rng, 7, 30)),
            (3, DescriptorFrame.empty(3)),
            (-2, keypoint_frame(rng, -2, n_keypoints=12)),
        ]
        db = DescriptorDatabase(delta_l=0.25, delta_n=0.05)
        for fid, descs in frames:
            db.insert_frame(fid, descs)
        return db, reference_v1_snapshot(0.25, 0.05, frames)

    def test_save_writes_the_reference_v1_bytes(self, tmp_path):
        db, reference = self.make_db()
        path = tmp_path / "db.bin"
        db.save(path)
        assert path.read_bytes() == reference
        ref_path = tmp_path / "ref.bin"
        ref_path.write_bytes(reference)
        loaded = DescriptorDatabase.load(ref_path)
        assert (loaded.frames_indexed, loaded.descriptors_indexed) == (3, db.descriptors_indexed)
        loaded.save(path)
        assert path.read_bytes() == reference

    def test_truncated_snapshot_rejected(self, tmp_path):
        _, raw = self.make_db()
        path = tmp_path / "cut.bin"
        # inside the header, a frame header, and a descriptor row
        for size in (8, 20, 36 + 8, 36 + 16 + 100, len(raw) - 1):
            path.write_bytes(raw[:size])
            with pytest.raises(MalformedRecord, match="truncated"):
                DescriptorDatabase.load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        _, raw = self.make_db()
        path = tmp_path / "db.bin"
        path.write_bytes(raw + b"\x00")
        with pytest.raises(MalformedRecord, match="trailing"):
            DescriptorDatabase.load(path)

    def test_bad_resolution_in_header_rejected(self, tmp_path):
        _, raw = self.make_db()
        path = tmp_path / "db.bin"
        path.write_bytes(raw[:12] + struct.pack("<d", float("nan")) + raw[20:])
        with pytest.raises(MalformedRecord):
            DescriptorDatabase.load(path)

    @pytest.mark.parametrize("column, value", [(18, float("nan")), (0, float("inf"))],
                             ids=["nan side", "inf vertex"])
    def test_non_finite_value_rejected(self, tmp_path, column, value):
        # a NaN side would fail key computation, an infinite vertex would
        # load silently and reach RANSAC
        _, raw = self.make_db()
        at = 8 + 28 + 16 + 8 * column  # magic, header, frame header, then the first row
        path = tmp_path / "db.bin"
        path.write_bytes(raw[:at] + struct.pack("<d", value) + raw[at + 8:])
        with pytest.raises(MalformedRecord, match="NaN or infinite"):
            DescriptorDatabase.load(path)

    def test_repeated_frame_id_rejected(self, tmp_path):
        rng = np.random.default_rng(28)
        db = DescriptorDatabase()
        db.insert_frame(5, synth_frame(rng, 5, 4))
        path = tmp_path / "db.bin"
        db.save(path)
        raw = path.read_bytes()
        header = 8 + 28  # magic, then version, resolutions and frame count
        frame_block = raw[header:]
        patched = raw[:header - 8] + struct.pack("<Q", 2) + frame_block + frame_block
        path.write_bytes(patched)
        with pytest.raises(MalformedRecord, match="frame 5 appears more than once"):
            DescriptorDatabase.load(path)


def assert_signatures_match_scalar(frame):
    expected = np.array([signature(d) for d in frame]).reshape(-1, 6)
    assert frame.signatures.shape == (len(frame), 6)
    assert np.array_equal(frame.signatures, expected)
    assert not len(frame) or np.shares_memory(frame.sides, frame.signatures)


class TestFrameSignatures:
    """A frame carries its (M, 6) signatures from build or load, through
    slices, masks and pairs, and the database never recomputes them."""

    def test_built_frame_and_its_slices_masks_and_pairs(self):
        rng = np.random.default_rng(29)
        frame = keypoint_frame(rng, 0)
        assert len(frame) > 100
        assert_signatures_match_scalar(frame)
        assert_signatures_match_scalar(frame[:37])
        assert_signatures_match_scalar(frame[frame.sides[:, 0] > 5.0])
        assert_signatures_match_scalar(frame[rng.permutation(len(frame))[:50]])
        db = DescriptorDatabase()
        db.insert_frame(0, frame)
        relabelled = dataclasses.replace(frame, frame_id=1)
        [cand] = db.query_candidates(frame, skip_recent=0)
        assert len(cand.pairs) == len(frame)
        assert_signatures_match_scalar(cand.pairs.query)
        assert_signatures_match_scalar(cand.pairs.stored)
        assert_signatures_match_scalar(cand.pairs[np.arange(len(frame)) % 3 == 0].stored)
        assert_signatures_match_scalar(relabelled)

    def test_signatures_survive_save_and_load(self, tmp_path):
        rng = np.random.default_rng(30)
        db = DescriptorDatabase()
        frames = [keypoint_frame(rng, 0), synth_frame(rng, 1, 40), DescriptorFrame.empty(2)]
        for f, frame in enumerate(frames):
            db.insert_frame(f, frame)
        path = tmp_path / "db.bin"
        db.save(path)
        loaded = DescriptorDatabase.load(path)
        for f, frame in enumerate(frames):
            stored = loaded._frames[f]
            assert_signatures_match_scalar(stored)
            assert np.array_equal(stored.signatures, frame.signatures)

    def test_frame_rejects_sides_in_place_of_signatures(self):
        frame = synth_frame(np.random.default_rng(31), 0, 3)
        with pytest.raises(ValueError, match="signatures"):
            DescriptorFrame(frame.vertices, frame.normals, frame.sides, 0)

    def test_query_and_insert_do_not_recompute_signatures(self, monkeypatch):
        import triloop.database
        import triloop.descriptors

        rng = np.random.default_rng(32)
        stored, query = keypoint_frame(rng, 0), keypoint_frame(rng, 1)

        def recomputed(*args, **kwargs):
            raise AssertionError("signatures computed again")

        monkeypatch.setattr(triloop.descriptors, "frame_signatures", recomputed)
        monkeypatch.setattr(triloop.database, "frame_signatures", recomputed, raising=False)
        db = DescriptorDatabase()
        db.insert_frame(0, stored)
        assert db.query_candidates(stored, skip_recent=0)[0].votes == len(stored)
        db.query_candidates(query, skip_recent=0)
        db.vote_counts(query)
        db.insert_frame(1, query)
        assert db.frames_indexed == 2


class TestOneKeyPassPerFrame:
    """A frame queried and then inserted has its keys computed once, and a
    query copies no descriptor rows."""

    def count_frame_keys(self, monkeypatch):
        import triloop.database

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return frame_keys(*args, **kwargs)

        monkeypatch.setattr(triloop.database, "frame_keys", counted)
        return calls

    def test_query_then_insert_of_one_frame_keys_it_once(self, monkeypatch):
        rng = np.random.default_rng(34)
        db = DescriptorDatabase()
        db.insert_frame(0, keypoint_frame(rng, 0))
        frame = keypoint_frame(rng, 1)
        calls = self.count_frame_keys(monkeypatch)
        db.query_candidates(frame, skip_recent=0)
        db.insert_frame(1, frame)
        assert len(calls) == 1
        assert db.vote_counts(frame)[1] == len(frame)

    def test_insert_of_another_frame_keys_it_again(self, monkeypatch):
        rng = np.random.default_rng(35)
        db = DescriptorDatabase()
        queried, inserted = keypoint_frame(rng, 1), keypoint_frame(rng, 2)
        db.insert_frame(0, keypoint_frame(rng, 0))
        calls = self.count_frame_keys(monkeypatch)
        db.query_candidates(queried, skip_recent=0)
        db.insert_frame(2, inserted)
        assert len(calls) == 2
        # and the equal-content copy of the queried frame is keyed on its own
        db.insert_frame(1, dataclasses.replace(queried))
        assert len(calls) == 3
        assert db.vote_counts(inserted)[2] == len(inserted)
        assert db.vote_counts(queried)[1] == len(queried)

    def test_query_copies_no_rows(self, monkeypatch):
        rng = np.random.default_rng(36)
        db = DescriptorDatabase()
        stored = keypoint_frame(rng, 0)
        db.insert_frame(0, stored)
        db.insert_frame(1, keypoint_frame(rng, 1))
        query = dataclasses.replace(stored, frame_id=2)

        def copied(self, index):
            raise AssertionError("descriptor rows copied")

        with monkeypatch.context() as patch:
            patch.setattr(DescriptorFrame, "__getitem__", copied)
            cands = db.query_candidates(query, skip_recent=0)
        assert cands[0].frame_id == 0 and cands[0].votes == len(stored)

    def test_pairs_gather_the_matched_rows(self):
        rng = np.random.default_rng(37)
        db = DescriptorDatabase()
        for f in range(4):
            db.insert_frame(f, synth_frame(rng, f, 40, side_range=(1.0, 4.0),
                                           structured_normals=True))
        query = synth_frame(rng, 9, 60, side_range=(1.0, 4.0), structured_normals=True)
        cands = db.query_candidates(query, skip_recent=0)
        assert cands
        for c in cands:
            pairs = c.pairs
            assert pairs.query_frame is query and pairs.stored_frame is db._frames[c.frame_id]
            for got, frame, rows in ((pairs.query, query, pairs.query_rows),
                                     (pairs.stored, pairs.stored_frame, pairs.stored_rows)):
                for column in ("vertices", "normals", "signatures"):
                    assert np.array_equal(getattr(got, column), getattr(frame, column)[rows])
                assert got.frame_id == frame.frame_id
            assert pairs.query is pairs.query  # gathered once
            src, dst = pairs.vertices()
            assert np.array_equal(src, pairs.query.vertices)
            assert np.array_equal(dst, pairs.stored.vertices)
            mask = np.arange(len(pairs)) % 2 == 0
            for sub in (pairs[mask], pairs[np.flatnonzero(mask)]):
                assert np.array_equal(sub.query_rows, pairs.query_rows[mask])
                assert np.array_equal(sub.stored_rows, pairs.stored_rows[mask])
                for column in ("vertices", "normals", "signatures"):
                    assert np.array_equal(getattr(sub.query, column),
                                          getattr(pairs.query, column)[mask])
                    assert np.array_equal(getattr(sub.stored, column),
                                          getattr(pairs.stored, column)[mask])
            for (q, s), i in zip(pairs, range(len(pairs))):
                assert same_row(q, pairs.query[i]) and same_row(s, pairs.stored[i])
