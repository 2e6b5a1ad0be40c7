import dataclasses
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from triloop.database import DescriptorDatabase, frame_keys
from triloop.descriptors import (
    DescriptorFrame,
    TriangleDescriptor,
    build_descriptors,
    frame_signatures,
)
from triloop.errors import CellOutOfRange, DuplicateFrame, MalformedRecord
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

    def test_non_finite_signature_named_as_such(self):
        for bad in (np.nan, np.inf, -np.inf):
            signatures = np.array([[1.0, 2.0, 3.0, 0.1, 0.2, 0.3]] * 3)
            signatures[1, 4] = bad
            with pytest.raises(ValueError, match="descriptor signatures must be finite") as info:
                frame_keys(signatures, 0.2, 0.1)
            assert not isinstance(info.value, CellOutOfRange)

    def test_cells_beyond_int64_raise(self):
        # a delta of 1e-300 puts a 1 m side in cell 1e300: the cast used to
        # give garbage cells, and unrelated frames shared them and got votes
        signatures = np.array([[1.0, 2.0, 3.0, 0.1, 0.2, 0.3]])
        for delta_l, delta_n in ((1e-300, 0.1), (0.2, 1e-300)):
            with pytest.raises(CellOutOfRange, match="int64 range"):
                frame_keys(signatures, delta_l, delta_n)
        db = DescriptorDatabase(delta_l=1e-300)
        frame = synth_frame(np.random.default_rng(29), 0, 5)
        with pytest.raises(CellOutOfRange):
            db.query_candidates(frame)
        with pytest.raises(CellOutOfRange):
            db.insert_frame(0, frame)
        assert (db.frames_indexed, db.descriptors_indexed) == (0, 0)


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

    def test_pairs_of_many_frames_stay_in_query_order(self):
        # every query row matches every frame, so the matches of one frame
        # are spread over the whole match list before they are grouped
        rng = np.random.default_rng(27)
        base = synth_frame(rng, 0, 300)
        db = DescriptorDatabase()
        for f in range(6):
            db.insert_frame(f, dataclasses.replace(base, frame_id=f))
        cands = db.query_candidates(dataclasses.replace(base, frame_id=9), skip_recent=0)
        assert [(c.frame_id, c.votes) for c in cands] == [(f, 300) for f in range(6)]
        for c in cands:
            assert c.pairs.query_rows.tolist() == list(range(300))
            assert c.pairs.stored_rows.tolist() == list(range(300))

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
        # frames of uneven size, every fifth one empty, share a few cells, so
        # buckets span many frames and the index merges segments at uneven
        # points; the skip cut falls inside a segment, at its edge, right
        # after an empty frame, and before every row
        rng = np.random.default_rng(28)
        shared = synth_frame(rng, 0, 4, side_range=(1.0, 4.0), structured_normals=True)
        db = DescriptorDatabase()
        frames = {}
        for f in range(60):
            frame = list(synth_frame(rng, f, int(rng.integers(0, 25)),
                                     side_range=(1.0, 4.0), structured_normals=True))
            frame += [dataclasses.replace(shared[i], frame_id=f)
                      for i in rng.integers(0, len(shared), size=int(rng.integers(0, 4)))]
            frames[f] = [frame[i] for i in rng.permutation(len(frame))] if f % 5 != 2 else []
            db.insert_frame(f, stack_frame(frames[f], f))
        query = stack_frame(list(shared) + list(synth_frame(rng, 99, 30, side_range=(1.0, 4.0),
                                                            structured_normals=True)), 99)
        stored = [d for frame in frames.values() for d in frame]
        for skip in (0, 1, 2, 5, 7, 59, 60, 100):
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

    def test_votes_and_partners_ignore_the_order_of_bucket_matches(self, monkeypatch):
        # frames hold up to eight copies of a shared descriptor, so one
        # (frame, query row) gathers many matches, across merged segments
        rng = np.random.default_rng(31)
        shared = synth_frame(rng, 0, 4, side_range=(1.0, 4.0), structured_normals=True)
        db = DescriptorDatabase()
        for f in range(40):
            frame = list(synth_frame(rng, f, int(rng.integers(0, 25)),
                                     side_range=(1.0, 4.0), structured_normals=True))
            frame += [dataclasses.replace(shared[i], frame_id=f)
                      for i in rng.integers(0, len(shared), size=int(rng.integers(0, 9)))]
            db.insert_frame(f, stack_frame([frame[i] for i in rng.permutation(len(frame))], f))
        query = stack_frame(list(shared) + list(synth_frame(rng, 99, 30, side_range=(1.0, 4.0),
                                                            structured_normals=True)), 99)
        assert len(db._segment_starts) < 20  # merged
        matched, stored = db._bucket_rows(db._keys(query), db.descriptors_indexed)
        frames = db._frame_starts.searchsorted(stored, side="right") - 1
        assert len(np.unique(frames * len(query) + matched)) < len(matched)  # shared cells

        def answers():
            return db.vote_counts(query, skip_recent=3), [
                (c.frame_id, c.votes, c.pairs.query_rows.tolist(), c.pairs.stored_rows.tolist())
                for c in db.query_candidates(query, skip_recent=3)]

        expected = answers()
        bucket_rows = DescriptorDatabase._bucket_rows
        shuffle = np.random.default_rng(32)

        def permuted(self, keys, below):
            query_rows, stored_rows = bucket_rows(self, keys, below)
            order = shuffle.permutation(len(query_rows))
            return query_rows[order], stored_rows[order]

        monkeypatch.setattr(DescriptorDatabase, "_bucket_rows", permuted)
        for _ in range(5):
            assert answers() == expected

    def test_segments_past_the_skip_cut_are_never_searched(self):
        # each frame under half the size of the one before it, so every
        # non-empty frame stays a segment of its own
        sizes = [200, 70, 25, 0, 9, 3, 0, 1]
        rng = np.random.default_rng(29)
        db = DescriptorDatabase()
        stored, firsts = [], []
        for f, size in enumerate(sizes):
            frame = synth_frame(rng, f, size, side_range=(1.0, 4.0), structured_normals=True)
            stored.extend(frame)
            firsts.extend(dataclasses.replace(d, frame_id=99) for d in frame[:1])
            db.insert_frame(f, frame)
        # a row of every non-empty frame, so each one is voted for
        others = synth_frame(rng, 99, 30, side_range=(1.0, 4.0), structured_normals=True)
        query = stack_frame(firsts + list(others), 99)
        assert len(db.vote_counts(query, skip_recent=0)) == 6
        searched = []

        class CountedKeys(np.ndarray):
            """Records the first row of every segment searched."""

            def searchsorted(self, *args, **kwargs):
                searched.append((self.ctypes.data - first_key) // self.itemsize)
                return self.view(np.ndarray).searchsorted(*args, **kwargs)

        db._index_keys = db._index_keys.view(CountedKeys)
        first_key = db._index_keys.ctypes.data
        segments = db._segment_starts
        assert len(segments) == 6
        for skip in range(len(sizes) + 2):
            searched.clear()
            kept = max(len(sizes) - skip, 0)
            expected = brute_force_votes(stored, query, db.delta_l, db.delta_n,
                                         excluded=set(range(kept, len(sizes))))
            assert db.vote_counts(query, skip_recent=skip) == expected
            below = sum(sizes[:kept])
            assert set(searched) == {start for start in segments if start < below}

    def test_cell_check_gathers_only_the_rows_below_the_skip_cut(self):
        # the last three frames merge into one segment, so a query that
        # skips two of them searches a segment that holds them
        sizes = [200, 30, 30, 30]
        rng = np.random.default_rng(33)
        db = DescriptorDatabase()
        stored = []
        for f, size in enumerate(sizes):
            frame = synth_frame(rng, f, size, side_range=(1.0, 4.0), structured_normals=True)
            stored.extend(frame)
            db.insert_frame(f, frame)
        assert db._segment_starts == [0, 200]
        query = stack_frame([dataclasses.replace(d, frame_id=99) for d in stored[::3]], 99)
        gathered = []

        class CountedCells(np.ndarray):
            """Records the rows of every gather of stored cells."""

            def take(self, indices, *args, **kwargs):
                gathered.append(np.array(indices))
                return self.view(np.ndarray).take(indices, *args, **kwargs)

        db._cells = db._cells.view(CountedCells)
        for skip in range(len(sizes) + 1):
            gathered.clear()
            kept = max(len(sizes) - skip, 0)
            below = sum(sizes[:kept])
            _, matches = db._bucket_rows(db._keys(query), below)
            expected = brute_force_votes(stored, query, db.delta_l, db.delta_n,
                                         excluded=set(range(kept, len(sizes))))
            assert db.vote_counts(query, skip_recent=skip) == expected
            if skip in (1, 2):  # the last segment searched holds rows from the cut on
                assert (matches >= below).any()
            [rows] = gathered  # one gather serves all six cells
            assert sorted(rows.tolist()) == sorted(matches[matches < below].tolist())

    def test_forced_bucket_collisions_never_match_a_wrapped_cell(self, monkeypatch):
        # buckets keyed by one normal-dot cell modulo 3: distinct cells share
        # them, and a row with shifted sides shares its original's bucket
        import triloop.database

        monkeypatch.setattr(triloop.database, "mix_words",
                            lambda words: np.asarray(words[3]) % np.uint64(3))
        rng = np.random.default_rng(34)
        db = DescriptorDatabase()
        stored = []
        for f in range(4):
            frame = synth_frame(rng, f, 30, side_range=(1.0, 4.0), structured_normals=True)
            stored.extend(frame)
            db.insert_frame(f, frame)
        assert db._cells.dtype == np.int8
        originals = stack_frame(stored[::2], 99)
        # each side cell 256 above a stored one: equal to it once cast to int8
        shifted = DescriptorFrame.from_sides(originals.vertices, originals.normals,
                                             originals.sides + 256 * db.delta_l, 99)
        cells, _ = frame_keys(shifted.signatures, db.delta_l, db.delta_n)
        stored_cells, _ = frame_keys(originals.signatures, db.delta_l, db.delta_n)
        assert np.array_equal(cells, stored_cells + [256, 256, 256, 0, 0, 0])
        assert np.array_equal(cells.astype(np.int8), stored_cells.astype(np.int8))
        query = stack_frame(list(shifted) + list(originals), 99)
        expected = brute_force_votes(stored, query, db.delta_l, db.delta_n)
        assert expected == brute_force_votes(stored, originals, db.delta_l, db.delta_n)
        assert db.vote_counts(query) == expected
        candidates = db.query_candidates(query)
        assert candidates
        for c in candidates:
            assert c.pairs.query_rows.min() >= len(shifted)  # no shifted row votes

    def test_cells_widen_in_mid_stream(self, tmp_path):
        rng = np.random.default_rng(35)
        db = DescriptorDatabase()
        stored, dtypes = [], []
        # side scales whose cells need int8, int16, int32 and then int64
        for f, scale in enumerate([1.0, 1.0, 30.0, 1e5, 1e10]):
            small = synth_frame(rng, f, 20, side_range=(1.0, 4.0), structured_normals=True)
            frame = DescriptorFrame.from_sides(small.vertices * scale, small.normals,
                                               small.sides * scale, f)
            before = db._cells[:, : db.descriptors_indexed].astype(np.int64)
            db.insert_frame(f, frame)
            stored.extend(frame)
            assert np.array_equal(db._cells[:, : len(before.T)], before)
            dtypes.append(db._cells.dtype)
            query = stack_frame([dataclasses.replace(d, frame_id=99) for d in stored[::2]], 99)
            assert db.vote_counts(query) == brute_force_votes(stored, query, db.delta_l,
                                                              db.delta_n)
        assert dtypes == [np.int8, np.int8, np.int16, np.int32, np.int64]
        path = tmp_path / "db.bin"
        db.save(path)
        loaded = DescriptorDatabase.load(path)
        assert loaded._cells.dtype == np.int64
        for f in range(len(dtypes) + 1):
            query = stack_frame([dataclasses.replace(d, frame_id=99) for d in stored[f::3]], 99)
            for skip in (0, 2):
                assert loaded.vote_counts(query, skip) == db.vote_counts(query, skip)
                assert [(c.frame_id, c.votes, c.pairs.query_rows.tolist(),
                         c.pairs.stored_rows.tolist())
                        for c in loaded.query_candidates(query, skip)] == [
                    (c.frame_id, c.votes, c.pairs.query_rows.tolist(),
                     c.pairs.stored_rows.tolist())
                    for c in db.query_candidates(query, skip)]

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

    def test_delta_too_small_for_int64_cells_rejected(self, tmp_path):
        # the header delta passes the range check, but the first stored
        # descriptor's cells do not fit an int64
        _, raw = self.make_db()
        path = tmp_path / "db.bin"
        path.write_bytes(raw[:12] + struct.pack("<d", 1e-300) + raw[20:])
        with pytest.raises(CellOutOfRange, match="int64 range"):
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


class TestStreamedSnapshot:
    """``save`` writes and ``load`` reads one frame record at a time."""

    def boundaries(self, db):
        """Offsets where the magic, the header, each frame header and each
        descriptor row of db's snapshot end."""
        ends = [8, 8 + 28]
        for fid in db._frames:
            ends.append(ends[-1] + 16)
            ends += [ends[-1] + 192 * (row + 1) for row in range(len(db._frames[fid]))]
        return ends

    def test_cut_at_every_boundary_rejected(self, tmp_path):
        db, raw = TestSnapshotFormat().make_db()
        ends = self.boundaries(db)
        assert ends[-1] == len(raw)
        path = tmp_path / "cut.bin"
        for size in [0, 5] + ends[:-1] + [len(raw) - 1]:
            path.write_bytes(raw[:size])
            with pytest.raises(MalformedRecord, match="truncated" if size >= 8 else "magic"):
                DescriptorDatabase.load(path)
        path.write_bytes(raw)
        assert DescriptorDatabase.load(path).descriptors_indexed == db.descriptors_indexed

    @pytest.mark.parametrize("make_frame", [
        lambda rng, f: keypoint_frame(rng, f, n_keypoints=60),
        lambda rng, f: synth_frame(rng, f, 1000),
    ], ids=["shared key points", "distinct vertices"])
    def test_temporary_memory_follows_the_largest_frame_not_the_file(self, tmp_path,
                                                                     make_frame):
        # load rebuilds each frame's table: small when rows share key points,
        # as large as the rows when every vertex is distinct
        rng = np.random.default_rng(47)
        db = DescriptorDatabase()
        for f in range(10):
            db.insert_frame(f, make_frame(rng, f))
        largest = max(len(frame) for frame in db._frames.values()) * 192
        path = tmp_path / "db.bin"
        tracemalloc.start()
        try:
            db.save(path)
            tracemalloc.reset_peak()
            db.save(path)
            current, peak = tracemalloc.get_traced_memory()
            save_peak = peak - current
            tracemalloc.reset_peak()
            loaded = DescriptorDatabase.load(path)
            current, peak = tracemalloc.get_traced_memory()
            load_peak = peak - current
        finally:
            tracemalloc.stop()
        assert largest > 100_000 and path.stat().st_size > 8 * largest
        assert save_peak < 2 * largest, (save_peak, largest)
        assert load_peak < 2 * largest, (load_peak, largest)
        assert loaded.descriptors_indexed == db.descriptors_indexed

    def test_failed_save_keeps_the_previous_snapshot(self, tmp_path, monkeypatch):
        import triloop.database
        db, raw = TestSnapshotFormat().make_db()
        path = tmp_path / "db.bin"
        db.save(path)
        records, frame_record = [], triloop.database._frame_record

        def second_record_fails(frame):
            if records:
                raise MemoryError("no room for the record")
            records.append(frame.frame_id)
            return frame_record(frame)

        monkeypatch.setattr(triloop.database, "_frame_record", second_record_fails)
        db.insert_frame(8, synth_frame(np.random.default_rng(49), 8, 5))
        with pytest.raises(MemoryError):
            db.save(path)
        assert records == [7]
        assert path.read_bytes() == raw
        assert [p.name for p in tmp_path.iterdir()] == ["db.bin"]
        loaded = DescriptorDatabase.load(path)
        assert loaded.descriptors_indexed == db.descriptors_indexed - 5

    def test_load_reserves_the_index_once(self, tmp_path):
        rng = np.random.default_rng(48)
        db = DescriptorDatabase()
        assert db.nbytes == 0
        for f in range(3):
            db.insert_frame(f, keypoint_frame(rng, f))
        rows = db.descriptors_indexed
        assert rows > 1024
        frames = sum(frame.nbytes for frame in db._frames.values())
        # insert grows the columns geometrically: per row of capacity, 16
        # bytes of index and six cells
        row_bytes = 16 + 6 * db._cells.itemsize
        assert db.nbytes == frames + row_bytes * len(db._index_rows) > frames + row_bytes * rows
        path = tmp_path / "db.bin"
        db.save(path)
        loaded = DescriptorDatabase.load(path)
        # load sizes them once, from the file, to the rows it holds
        loaded_frames = sum(frame.nbytes for frame in loaded._frames.values())
        assert loaded.nbytes == loaded_frames + (16 + 6 * loaded._cells.itemsize) * rows


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
            DescriptorFrame(frame.positions, frame.point_normals, frame.vertex_ids,
                            frame.sides, 0)

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
            src, dst = pairs.query.vertices, pairs.stored.vertices
            query_ids = pairs.query_frame.vertex_ids[pairs.query_rows]
            stored_ids = pairs.stored_frame.vertex_ids[pairs.stored_rows]
            assert np.array_equal(src, pairs.query_frame.positions[query_ids])
            assert np.array_equal(dst, pairs.stored_frame.positions[stored_ids])
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
