"""Hash-indexed descriptor store with vote-based candidate retrieval.

A frame's signatures, computed once when the frame was built or loaded, are
quantized componentwise and the six cells mixed into one 64-bit bucket key.
Stored descriptors are held column-wise, one row per descriptor in insertion
order: its six cells, the insertion index of its frame and its row in that
frame's ``DescriptorFrame``. The bucket index is two more columns, bucket
keys and the rows they point to, cut into consecutive segments that are each
sorted by key. An insert appends the new frame as a segment and merges the
newest two segments (one in-place sort of the tail) while the older is at
most twice the size of the newer, so segments shrink geometrically, there
are at most log2(rows) + 1 of them, and a row is re-sorted O(log rows) times
over its life. A query binary-searches each segment for its bucket keys and
gathers every matching row in one step, so its cost follows the number of
matches, not the length of a bucket. The full cell 6-tuple is compared on
every lookup, so bucket collisions between distinct cells never produce
false matches. Inserting a frame is atomic with respect to concurrent
queries.

A keyframe is queried and then inserted, so a frame's cells, bucket keys and
key order are computed once and kept for the insert that follows its query.
A candidate's matched pairs are row indices into the query frame and the
stored frame; no descriptor rows are copied.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .descriptors import DescriptorFrame, DescriptorPairs
from .errors import DuplicateFrame, MalformedRecord

TOP_K_CANDIDATES = 10

# Nudge values sitting a hair below a cell boundary (an artifact of decimal
# grid sizes in binary floats) up into the intended cell.
_QUANT_EPS = 1e-9

_HASH_SEED = 0xCBF29CE484222325
_MIX_CONSTANTS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
    0xFF51AFD7ED558CCD,
    0xC4CEB9FE1A85EC53,
)


def frame_keys(
    signatures: np.ndarray, delta_l: float, delta_n: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cells (M, 6) int64 and bucket keys (M,) uint64 of M signatures.

    Row for row equal to the scalar reference ``make_key`` in
    ``tests/scalar_descriptors.py``: the same floor arithmetic, and the same
    mix in wrapping uint64 arithmetic.
    """
    sig = np.asarray(signatures, dtype=np.float64).reshape(-1, 6)
    if not np.isfinite(sig).all():
        raise ValueError("descriptor signatures must be finite")
    deltas = np.array([delta_l] * 3 + [delta_n] * 3)
    cells = np.floor(sig / deltas + _QUANT_EPS).astype(np.int64)
    # int64 -> uint64 reinterpretation is the two's complement of the cell
    words = cells.view(np.uint64)
    h = np.full(len(cells), _HASH_SEED, dtype=np.uint64)
    for j, mult in enumerate(_MIX_CONSTANTS):
        h ^= words[:, j] * np.uint64(mult)
        h = (h << np.uint64(13)) | (h >> np.uint64(51))
    return cells, h


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, from one unstable sort.

    An unstable sort puts each run of equal keys in place but in any order;
    sorting only the rows inside such runs by (run, index) restores index
    order within each run, which is what a stable sort gives.
    """
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.ones(len(order), dtype=bool)  # row begins a run of equal keys
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    if starts.all():
        return order
    tied = ~starts  # rows in runs of two or more
    tied[:-1] |= tied[1:]
    positions = np.flatnonzero(tied)
    run = np.cumsum(starts)[positions]
    order[positions] = np.sort(run * len(order) + order[positions]) % len(order)
    return order


@dataclass(frozen=True, eq=False)
class _FrameKeys:
    """A frame's cells (M, 6), bucket keys (M,), and its rows in stable
    bucket-key order with the keys in that order."""

    frame: DescriptorFrame
    cells: np.ndarray
    order: np.ndarray
    sorted_buckets: np.ndarray


@dataclass(frozen=True)
class Candidate:
    """One retrieved frame with its votes and matched descriptor pairs."""

    frame_id: int
    votes: int
    pairs: DescriptorPairs  # one per vote, in query order


@dataclass(frozen=True)
class _Votes:
    """Vote kernel output. Voted frames ranked by (-votes, frame id), and one
    match per vote, in query order."""

    frames: np.ndarray        # insertion index of each ranked frame
    frame_ids: np.ndarray
    votes: np.ndarray
    query_rows: np.ndarray    # per match: the query descriptor's row,
    slots: np.ndarray         # its partner's row in the stored frame,
    match_frames: np.ndarray  # and the frame's insertion index


_SNAPSHOT_MAGIC = b"TRIDESC1"
_SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<IddQ")        # version, delta_l, delta_n, frame count
_FRAME_HEADER = struct.Struct("<qQ")    # frame id, descriptor count
_DESC_FLOATS = 24  # p1 p2 p3 (9) + n1 n2 n3 (9) + sides (3) + centroid (3)
_DESC_BYTES = _DESC_FLOATS * 8


def _frame_record(frame: DescriptorFrame) -> np.ndarray:
    """(M, 24) little-endian snapshot rows of one frame."""
    record = np.empty((len(frame), _DESC_FLOATS), dtype="<f8")
    record[:, 0:9] = frame.vertices.reshape(-1, 9)
    record[:, 9:18] = frame.normals.reshape(-1, 9)
    record[:, 18:21] = frame.sides
    record[:, 21:24] = frame.vertices.mean(axis=1)
    return record


class DescriptorDatabase:
    """All historical descriptors, bucketed by quantized signature."""

    def __init__(self, delta_l: float = 0.2, delta_n: float = 0.1):
        if not (0 < delta_l < math.inf and 0 < delta_n < math.inf):
            raise ValueError("quantization resolutions must be finite and > 0")
        self.delta_l = delta_l
        self.delta_n = delta_n
        # one row per stored descriptor; capacity grows geometrically
        self._cells = np.empty((0, 6), dtype=np.int64)
        self._row_frame = np.empty(0, dtype=np.int64)  # insertion index of the frame
        self._row_slot = np.empty(0, dtype=np.int64)   # row in the frame
        # the bucket index, a permutation of the rows; see the module docstring
        self._index_keys = np.empty(0, dtype=np.uint64)
        self._index_rows = np.empty(0, dtype=np.int64)
        self._segment_starts: list[int] = []
        self._insertion_order: list[int] = []
        self._frames: dict[int, DescriptorFrame] = {}
        self._descriptors_indexed = 0
        self._lock = threading.RLock()
        self._queried: _FrameKeys | None = None  # keys of the frame queried last

    @property
    def frames_indexed(self) -> int:
        return len(self._insertion_order)

    @property
    def descriptors_indexed(self) -> int:
        return self._descriptors_indexed

    def _keys(self, frame: DescriptorFrame) -> _FrameKeys:
        cells, buckets = frame_keys(frame.signatures, self.delta_l, self.delta_n)
        order = stable_argsort(buckets)
        return _FrameKeys(frame, cells, order, buckets[order])

    def insert_frame(self, frame_id: int, frame: DescriptorFrame) -> None:
        """Index one frame and make it visible to queries in one step.

        When this frame object was the last one queried, the keys that query
        computed are indexed, so the frame must not have changed since; a
        query of another frame in between only costs a recompute.
        """
        if frame.frame_id != frame_id:
            raise ValueError(f"frame carries id {frame.frame_id}, inserting frame {frame_id}")
        keys = self._queried
        if keys is not None and keys.frame is frame:
            self._queried = None
        else:
            keys = self._keys(frame)
        with self._lock:
            if frame_id in self._frames:
                raise DuplicateFrame(f"frame {frame_id} already inserted")
            start = self._descriptors_indexed
            stop = start + len(frame)
            self._reserve(stop)
            self._cells[start:stop] = keys.cells
            self._row_frame[start:stop] = len(self._insertion_order)
            self._row_slot[start:stop] = np.arange(len(frame))
            self._index_keys[start:stop] = keys.sorted_buckets
            self._index_rows[start:stop] = start + keys.order
            if len(frame):
                self._segment_starts.append(start)
                self._merge_segments(stop)
            self._frames[frame_id] = frame
            self._insertion_order.append(frame_id)
            self._descriptors_indexed = stop

    def _reserve(self, n_rows: int) -> None:
        capacity = len(self._row_frame)
        if n_rows <= capacity:
            return
        capacity = max(n_rows, 2 * capacity, 1024)
        for name in ("_cells", "_row_frame", "_row_slot", "_index_keys", "_index_rows"):
            old = getattr(self, name)
            grown = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            grown[: len(old)] = old
            setattr(self, name, grown)

    def _merge_segments(self, stop: int) -> None:
        """Merge the newest two segments while the older holds at most twice
        the rows of the newer. A stable sort keeps each bucket's rows in row
        order."""
        starts = self._segment_starts
        while len(starts) > 1 and starts[-1] - starts[-2] <= 2 * (stop - starts[-1]):
            starts.pop()
            tail = slice(starts[-1], stop)
            order = np.argsort(self._index_keys[tail], kind="stable")
            self._index_keys[tail] = self._index_keys[tail][order]
            self._index_rows[tail] = self._index_rows[tail][order]

    def _bucket_rows(self, keys: _FrameKeys) -> tuple[np.ndarray, np.ndarray]:
        """Every (query index, stored row) pair whose bucket keys are equal,
        ordered by query index, then stored row."""
        # sorted needles keep each segment's binary searches on shared paths
        order, needles = keys.order, keys.sorted_buckets
        none = np.empty(0, dtype=np.int64)
        query, first, counts = [none], [none], [none]
        bounds = self._segment_starts + [self._descriptors_indexed]
        for start, stop in zip(bounds, bounds[1:]):
            segment = self._index_keys[start:stop]
            lo = segment.searchsorted(needles)
            hit = np.flatnonzero(segment.take(lo, mode="clip") == needles)
            if len(hit):
                lo = lo[hit]
                query.append(order[hit])
                first.append(start + lo)
                counts.append(segment.searchsorted(needles[hit], side="right") - lo)
        # One run of equal keys per (query, segment). Segments hold ascending
        # row ranges and a run lists its rows in order, so runs ordered by
        # query, then segment, list each query's rows in order.
        query = np.concatenate(query)
        runs = np.argsort(query, kind="stable")
        query = query[runs]
        first = np.concatenate(first)[runs]
        counts = np.concatenate(counts)[runs]
        # positions first, first + 1, ... of each run
        run_start = np.cumsum(counts) - counts
        positions = np.arange(counts.sum()) + np.repeat(first - run_start, counts)
        return np.repeat(query, counts), self._index_rows[positions]

    def _vote(self, frame: DescriptorFrame, skip_recent: int) -> _Votes:
        """The vote kernel: one vote per (query descriptor, frame) cell match.

        Matches come ordered by (query row, stored row), and a frame's rows
        are consecutive, so the first match of each (query row, frame) is the
        frame's earliest stored descriptor in the cell: its pair partner.
        """
        keys = self._queried = self._keys(frame)  # kept for the frame's insert
        with self._lock:
            query, stored = self._bucket_rows(keys)
            frames = self._row_frame[stored]
            if skip_recent > 0:
                old = frames < self.frames_indexed - skip_recent
                query, stored, frames = query[old], stored[old], frames[old]
            keep = (self._cells[stored] == keys.cells[query]).all(axis=1)
            query, stored, frames = query[keep], stored[keep], frames[keep]
            first = np.ones(len(query), dtype=bool)
            first[1:] = (query[1:] != query[:-1]) | (frames[1:] != frames[:-1])
            query, stored, frames = query[first], stored[first], frames[first]
            slots = self._row_slot[stored]
            voted, votes = np.unique(frames, return_counts=True)
            ids = np.array([self._insertion_order[f] for f in voted.tolist()], dtype=np.int64)
        rank = np.lexsort((ids, -votes))
        return _Votes(voted[rank], ids[rank], votes[rank], query, slots, frames)

    def vote_counts(self, frame: DescriptorFrame, skip_recent: int = 0) -> dict[int, int]:
        """Votes per stored frame: one per (query descriptor, frame) cell match."""
        result = self._vote(frame, skip_recent)
        return dict(zip(result.frame_ids.tolist(), result.votes.tolist()))

    def query_candidates(self, frame: DescriptorFrame, skip_recent: int = 0) -> list[Candidate]:
        """Top-voted frames with their matched pairs, at most TOP_K_CANDIDATES.

        Each (query descriptor, frame) contributes one vote and one pair; when
        a frame has several descriptors in the cell, the earliest stored one
        becomes the pair partner. Pairs are listed in query order.
        """
        result = self._vote(frame, skip_recent)
        candidates = []
        for f, fid, n in zip(
            result.frames[:TOP_K_CANDIDATES].tolist(),
            result.frame_ids[:TOP_K_CANDIDATES].tolist(),
            result.votes[:TOP_K_CANDIDATES].tolist(),
        ):
            mine = result.match_frames == f
            # an inserted frame never changes
            pairs = DescriptorPairs(frame, self._frames[fid],
                                    result.query_rows[mine], result.slots[mine])
            candidates.append(Candidate(frame_id=fid, votes=n, pairs=pairs))
        return candidates

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Write a binary snapshot; loading it reproduces the database exactly.

        Layout (v1, little-endian): magic, header (version, delta_l, delta_n,
        frame count), then per frame in insertion order its id, descriptor
        count and 24 doubles per descriptor: vertices, normals, sides and
        centroid.
        """
        with self._lock:
            chunks = [
                _SNAPSHOT_MAGIC,
                _HEADER.pack(_SNAPSHOT_VERSION, self.delta_l, self.delta_n,
                             len(self._insertion_order)),
            ]
            for fid in self._insertion_order:
                frame = self._frames[fid]
                chunks.append(_FRAME_HEADER.pack(fid, len(frame)))
                chunks.append(_frame_record(frame).tobytes())
            Path(path).write_bytes(b"".join(chunks))

    @classmethod
    def load(cls, path) -> "DescriptorDatabase":
        """Read a snapshot written by ``save``; a malformed file, including one
        holding a NaN or infinite value, raises ``MalformedRecord``."""
        raw = Path(path).read_bytes()
        if raw[:8] != _SNAPSHOT_MAGIC:
            raise MalformedRecord(f"{path}: bad magic, not a descriptor snapshot")
        offset = len(_SNAPSHOT_MAGIC)

        def take(n_bytes: int, what: str) -> int:
            nonlocal offset
            if len(raw) - offset < n_bytes:
                raise MalformedRecord(
                    f"{path}: truncated snapshot, {what} needs {n_bytes} bytes at "
                    f"offset {offset}, {len(raw) - offset} left"
                )
            offset += n_bytes
            return offset - n_bytes

        version, delta_l, delta_n, n_frames = _HEADER.unpack_from(
            raw, take(_HEADER.size, "header"))
        if version != _SNAPSHOT_VERSION:
            raise MalformedRecord(f"{path}: unsupported snapshot version {version}")
        try:
            db = cls(delta_l=delta_l, delta_n=delta_n)
        except ValueError as exc:
            raise MalformedRecord(f"{path}: {exc}") from None
        for _ in range(n_frames):
            fid, n_descs = _FRAME_HEADER.unpack_from(
                raw, take(_FRAME_HEADER.size, "frame header"))
            start = take(n_descs * _DESC_BYTES, f"frame {fid}")
            record = np.frombuffer(
                raw, dtype="<f8", count=n_descs * _DESC_FLOATS, offset=start
            ).reshape(n_descs, _DESC_FLOATS)
            if not np.isfinite(record).all():
                raise MalformedRecord(f"{path}: frame {fid} holds a NaN or infinite value")
            if fid in db._frames:
                raise MalformedRecord(f"{path}: frame {fid} appears more than once")
            db.insert_frame(fid, DescriptorFrame.from_sides(record[:, 0:9].reshape(-1, 3, 3),
                                                            record[:, 9:18].reshape(-1, 3, 3),
                                                            record[:, 18:21], fid))
        if offset != len(raw):
            raise MalformedRecord(
                f"{path}: {len(raw) - offset} trailing bytes after the last frame"
            )
        return db
