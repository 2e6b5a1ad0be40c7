"""db_churn: ``DescriptorDatabase`` alone, with reads, writes and a snapshot.

Set-up turns random key points into descriptor frames with
``build_descriptors`` at the pipeline's default ``k_neighbors``: two base
frames and a round of eight query frames. Two query frames of the round
re-observe an earlier frame: their key points are moved rigidly and given
small vertex noise. The rest are novel. Every frame holds exactly
``FRAME_DESCRIPTORS`` descriptors, about as many as a loop_replay keyframe
(see DESIGN.md), so every seed allocates the same number of objects per op
and the garbage collector runs at the same ops on every seed.

The timed phase runs rounds. Each round starts from a database holding only
the base frames and runs the query frames as a closed loop of ops (one
``query_candidates`` then one ``insert_frame``). The phase ends with ``save``
of the last round's database and ``load`` into a fresh object. Every round
ends at the same database size, so the snapshot times and peak memory do not
depend on how many rounds the time budget allowed. Rebuilding the base
between rounds, a full collection after it (so every round starts from the
same collector state) and the correctness checks are outside the timed
intervals. One untimed op on a throwaway database warms up first calls.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from common import FAILED, Outcome, guarded, timed_setups

BASE_FRAMES = 2
ROUND_OPS = 8
REOBSERVATIONS = 2  # per round: one query frame in four
# Random key points give more distinct triangles than key points on the
# planes of a scene: 110 of them make 11.3k-12.4k descriptors, and each frame
# keeps the first 11k, as many as the ~140 key points of a loop_replay
# keyframe make.
KEYPOINTS = 110
FRAME_DESCRIPTORS = 11_000
VERTEX_NOISE = 0.01  # meters
EXTENT = np.array([50.0, 50.0, 8.0])  # key points fill this box, meters
TOP_K = 10
MIN_P90_OPS = 100
SETUP_REPEATS = 3  # about 3 s each


def random_keypoints(rng, n):
    positions = rng.uniform(0.0, 1.0, size=(n, 3)) * EXTENT
    # man-made scenes: normals cluster around the coordinate axes
    normals = np.eye(3)[rng.integers(3, size=n)] + rng.normal(scale=0.05, size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return positions, normals


def reobserve(rng, positions, normals):
    yaw = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    shift = rng.uniform(-20.0, 20.0, size=3)
    moved = positions @ rot.T + shift + rng.normal(scale=VERTEX_NOISE, size=positions.shape)
    return moved, normals @ rot.T


def make_frame(descriptors_mod, keypoints_mod, cfg, frame_id, positions, normals):
    """The first FRAME_DESCRIPTORS descriptors of the key points, or None when
    they make fewer."""
    kps = [keypoints_mod.KeyPoint(position=p, normal=n, plane_id=0, frame_id=frame_id,
                                  strength=1.0)
           for p, n in zip(positions, normals)]
    frame = descriptors_mod.build_descriptors(kps, k_neighbors=cfg.k_neighbors,
                                              frame_id=frame_id)
    return frame[:FRAME_DESCRIPTORS] if len(frame) >= FRAME_DESCRIPTORS else None


def signature_cells(descriptors, delta_l: float, delta_n: float) -> list[tuple]:
    """Quantized six-attribute cells, computed here independently of the database."""
    if not descriptors:
        return []
    sides = np.array([d.sides for d in descriptors], dtype=np.float64)
    normals = np.array([d.normals for d in descriptors], dtype=np.float64)
    dots = np.abs(np.stack([
        np.einsum("ij,ij->i", normals[:, 0], normals[:, 1]),
        np.einsum("ij,ij->i", normals[:, 1], normals[:, 2]),
        np.einsum("ij,ij->i", normals[:, 0], normals[:, 2]),
    ], axis=1))
    cells = np.floor(np.hstack([sides / delta_l, dots / delta_n]) + 1e-9).astype(np.int64)
    return [tuple(row) for row in cells.tolist()]


class VoteOracle:
    """One vote per (query descriptor, frame) sharing its cells; top 10 by
    votes, ties broken by frame id.

    The frames holding a cell are kept as an int bit set, which the garbage
    collector does not track, so the oracle adds no collection work to the
    timed ops.
    """

    def __init__(self):
        self.frames_by_cell: dict[tuple, int] = {}

    def add(self, frame_id: int, cells) -> None:
        bit = 1 << frame_id
        for cell in cells:
            self.frames_by_cell[cell] = self.frames_by_cell.get(cell, 0) | bit

    def query(self, cells) -> list[tuple[int, int]]:
        votes: dict[int, int] = {}
        for cell in cells:
            frames = self.frames_by_cell.get(cell, 0)
            while frames:
                low = frames & -frames
                fid = low.bit_length() - 1
                votes[fid] = votes.get(fid, 0) + 1
                frames ^= low
        return sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_K]


def same_answer(a, b) -> bool:
    """Candidate lists equal in frames, votes and matched stored descriptors."""
    if [(c.frame_id, c.votes) for c in a] != [(c.frame_id, c.votes) for c in b]:
        return False
    for ca, cb in zip(a, b):
        if len(ca.pairs) != len(cb.pairs):
            return False
        for (qa, sa), (qb, sb) in zip(ca.pairs, cb.pairs):
            if not (np.array_equal(qa.vertices, qb.vertices)
                    and np.array_equal(sa.vertices, sb.vertices)
                    and np.array_equal(sa.normals, sb.normals)):
                return False
    return True


def base_database(database_mod, cfg, frames):
    """A database holding the base frames, the state every round starts from."""
    db = database_mod.DescriptorDatabase(delta_l=cfg.delta_l, delta_n=cfg.delta_n)
    for fid in range(BASE_FRAMES):
        db.insert_frame(fid, frames[fid])
    return db


def _query_insert(db, frame_id, descriptors):
    candidates = db.query_candidates(descriptors, skip_recent=0)
    db.insert_frame(frame_id, descriptors)
    return candidates


def run(ctx) -> Outcome:
    from triloop import database, descriptors, keypoints, pipeline

    out = Outcome()
    cfg = pipeline.PipelineConfig(seed=ctx.seed)

    def build():
        rng = np.random.default_rng(ctx.seed)
        reobserving = set(rng.choice(ROUND_OPS, size=REOBSERVATIONS, replace=False).tolist())
        keysets, frames = [], []
        schedule = []  # (frame id, source frame id or None)
        for fid in range(BASE_FRAMES + ROUND_OPS):
            source = None
            if fid - BASE_FRAMES in reobserving:
                source = int(rng.integers(fid))
            frame = None
            while frame is None:  # redraw key points that make too few descriptors
                keyset = (random_keypoints(rng, KEYPOINTS) if source is None
                          else reobserve(rng, *keysets[source]))
                frame = make_frame(descriptors, keypoints, cfg, fid, *keyset)
            keysets.append(keyset)
            frames.append(frame)
            if fid >= BASE_FRAMES:
                schedule.append((fid, source))
        return frames, schedule, base_database(database, cfg, frames)

    (frames, schedule, db), out.setup_s = timed_setups(build, SETUP_REPEATS)
    cells = [signature_cells(f, cfg.delta_l, cfg.delta_n) for f in frames]
    fid, _ = schedule[0]
    _query_insert(base_database(database, cfg, frames), fid, frames[fid])  # warm-up

    rounds = hits = reobservations = 0
    while ctx.go_on(rounds):
        if rounds:
            db = None  # free the last round's database before rebuilding the base
            db = base_database(database, cfg, frames)
        gc.collect()
        oracle = VoteOracle()
        for fid in range(BASE_FRAMES):
            oracle.add(fid, cells[fid])

        with ctx.op(rounds) as traced:
            for fid, source in schedule:
                query = frames[fid]
                t0 = time.perf_counter()
                cands = guarded(out, 1, f"op {fid}", _query_insert, db, fid, query)
                wall = time.perf_counter() - t0
                ctx.timed_s += wall
                out.attempted += 1
                out.units.append((wall, 0 if cands is FAILED else 1, traced))
                if cands is FAILED:
                    continue
                out.op_ms.append(wall * 1e3)
                expected = oracle.query(cells[fid])
                got = [(c.frame_id, c.votes) for c in cands]
                if got != expected or any(len(c.pairs) != c.votes for c in cands):
                    out.fail(1, f"op {fid}: query_candidates {got[:3]}... "
                                f"!= oracle {expected[:3]}...")
                if source is not None:
                    reobservations += 1
                    hits += source in {c.frame_id for c in cands}
                oracle.add(fid, cells[fid])
        rounds += 1

    # the snapshot of the last round's database ends the phase
    snapshot = ctx.work / "db.snapshot"
    with ctx.op(0):
        t0 = time.perf_counter()
        saved = guarded(out, 1, "save", db.save, snapshot)
        t1 = time.perf_counter()
        loaded = FAILED if saved is FAILED else guarded(
            out, 1, "load", database.DescriptorDatabase.load, snapshot)
        t2 = time.perf_counter()
    ctx.timed_s += t2 - t0
    out.attempted += 1  # the snapshot and its check count as one op
    out.units.append((t2 - t0, 0, None))
    if loaded is not FAILED:
        out.end_to_end["snapshot_save_ms"] = ((t1 - t0) * 1e3, "ms")
        out.end_to_end["snapshot_load_ms"] = ((t2 - t1) * 1e3, "ms")
        final = frames[schedule[-1][0]]
        if not same_answer(db.query_candidates(final, skip_recent=0),
                           loaded.query_candidates(final, skip_recent=0)):
            out.fail(1, "the loaded snapshot answers the final query differently")
    snapshot.unlink(missing_ok=True)

    p90 = None
    if len(out.op_ms) >= MIN_P90_OPS:
        p90 = statistics.quantiles(out.op_ms, n=10, method="inclusive")[8]
    out.end_to_end["keyframe_ms_p90"] = (p90, "ms")
    out.end_to_end["recall"] = (hits / reobservations if reobservations else None, "ratio")
    out.info.update(
        rounds=rounds,
        base_frames=BASE_FRAMES,
        ops_per_round=ROUND_OPS,
        reobservations_per_round=REOBSERVATIONS,
        keypoints_per_frame=KEYPOINTS,
        k_neighbors=cfg.k_neighbors,
        descriptors_per_frame=FRAME_DESCRIPTORS,
        descriptors_at_snapshot=db.descriptors_indexed,
        p90_needs_ops=MIN_P90_OPS,
    )
    return out
