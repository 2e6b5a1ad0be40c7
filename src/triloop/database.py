"""Hash-indexed descriptor store with vote-based candidate retrieval.

A frame's signatures, computed once when the frame was built or loaded, are
quantized componentwise and the six cells mixed into one 64-bit bucket key.
Stored descriptors are rows, numbered in insertion order. Their cells are one
(6, capacity) array, a contiguous line per cell, in the narrowest signed
integer type that holds every cell stored so far: an insert whose cells need
more widens it in place, at most three times over a store's life (int8,
int16, int32, int64). A frame is a range of rows, from its start row to the
next frame's. The bucket index is two more columns, bucket keys and the rows
they point to, cut into consecutive segments that are each sorted by key. An
insert appends the new frame as a segment and merges the newest two
segments (one in-place sort of the tail) while the older is at most twice
the size of the newer, so segments shrink geometrically, there are at most
log2(rows) + 1 of them, and a row is re-sorted O(log rows) times over its
life. A query binary-searches each segment for its bucket keys and gathers
every matching row in one step, so its cost follows the number of matches,
not the length of a bucket. No step depends on the order of rows within a
bucket: a vote's pair partner is the smallest matching row of its frame. The
matches in the newest frames a query skips are dropped first; the rest have
their full cell 6-tuple gathered in one step and compared with the query's
int64 cells, so bucket collisions between distinct cells never produce false
matches. The query's cells are never narrowed to the stored type, where a
cell outside it would wrap into a stored one. Inserting a frame is atomic
with respect to concurrent queries.

A keyframe is queried and then inserted, so a frame's cells, bucket keys and
key order are computed once and kept for the insert that follows its query.
A candidate's matched pairs are row indices into the query frame and the
stored frame; no descriptor rows are copied.

Snapshots are streamed: ``save`` writes and ``load`` reads one frame record
at a time, so neither holds more than one record besides the database.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .cells import int64_cells, mix_words
from .descriptors import DescriptorFrame, DescriptorPairs
from .errors import CellOutOfRange, DuplicateFrame, MalformedRecord

TOP_K_CANDIDATES = 10

# Nudge values sitting a hair below a cell boundary (an artifact of decimal
# grid sizes in binary floats) up into the intended cell.
_QUANT_EPS = 1e-9

# the types a store's cells may take, narrowest first
_CELL_TYPES = tuple(map(np.dtype, (np.int8, np.int16, np.int32, np.int64)))


def frame_keys(
    signatures: np.ndarray, delta_l: float, delta_n: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cells (M, 6) int64 and bucket keys (M,) uint64 of M signatures. The
    cells are the transpose of a contiguous (6, M) array, one row per cell.

    Row for row equal to the scalar reference ``make_key`` in
    ``tests/scalar_descriptors.py``: the same floor arithmetic, and the same
    mix in wrapping uint64 arithmetic. Raises CellOutOfRange when a cell does
    not fit an int64, as a delta far too small for the signatures gives, and
    ValueError when a signature is NaN or infinite.
    """
    sig = np.asarray(signatures, dtype=np.float64).reshape(-1, 6)
    deltas = np.array([delta_l] * 3 + [delta_n] * 3)[:, None]
    scaled = np.divide(sig.T, deltas, order="C")
    scaled += _QUANT_EPS
    try:
        # the range test also fails on a NaN or infinite signature
        cells = int64_cells(np.floor(scaled, out=scaled),
                            f"signatures at delta_l {delta_l}, delta_n {delta_n}")
    except CellOutOfRange:
        if not np.isfinite(sig).all():
            raise ValueError("descriptor signatures must be finite") from None
        raise
    # int64 -> uint64 reinterpretation is the two's complement of the cell
    return cells.T, mix_words(cells.view(np.uint64))


def _narrowest_int(cells: np.ndarray) -> np.dtype:
    """The narrowest signed integer type that holds every one of the cells."""
    lo, hi = int(cells.min(initial=0)), int(cells.max(initial=0))
    return next(t for t in _CELL_TYPES if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)


@dataclass(frozen=True, eq=False)
class _FrameKeys:
    """A frame's cells (6, M) int64, one contiguous row per cell, its bucket
    keys (M,), and its rows in bucket-key order with the keys in that order."""

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
    match per vote, grouped by frame, each frame's matches in query order."""

    frame_ids: np.ndarray
    votes: np.ndarray
    firsts: np.ndarray      # position of each ranked frame's first match
    query_rows: np.ndarray  # per match: the query descriptor's row
    slots: np.ndarray       # and its partner's row in the stored frame


_SNAPSHOT_MAGIC = b"TRIDESC1"
_SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<IddQ")        # version, delta_l, delta_n, frame count
_FRAME_HEADER = struct.Struct("<qQ")    # frame id, descriptor count
_DESC_FLOATS = 24  # p1 p2 p3 (9) + n1 n2 n3 (9) + sides (3) + centroid (3)
_DESC_BYTES = _DESC_FLOATS * 8


def _frame_record(frame: DescriptorFrame) -> np.ndarray:
    """(M, 24) little-endian snapshot rows of one frame."""
    record = np.empty((len(frame), _DESC_FLOATS), dtype="<f8")
    record[:, 9:18] = frame.normals.reshape(-1, 9)
    record[:, 18:21] = frame.sides
    vertices = frame.vertices  # gathered once for the vertices and the centroid
    record[:, 0:9] = vertices.reshape(-1, 9)
    record[:, 21:24] = vertices.mean(axis=1)
    return record


class DescriptorDatabase:
    """All historical descriptors, bucketed by quantized signature."""

    _COLUMNS = ("_cells", "_index_keys", "_index_rows")

    def __init__(self, delta_l: float = 0.2, delta_n: float = 0.1):
        if not (0 < delta_l < math.inf and 0 < delta_n < math.inf):
            raise ValueError("quantization resolutions must be finite and > 0")
        self.delta_l = delta_l
        self.delta_n = delta_n
        # one column per stored descriptor, one row per cell, in the narrowest
        # type that holds every stored cell; capacity grows geometrically
        self._cells = np.empty((6, 0), dtype=_CELL_TYPES[0])
        # the bucket index, a permutation of the rows; see the module docstring
        self._index_keys = np.empty(0, dtype=np.uint64)
        self._index_rows = np.empty(0, dtype=np.int64)
        self._segment_starts: list[int] = []
        self._frame_starts = np.zeros(1, dtype=np.int64)  # each frame's first row, then the end
        self._frame_ids = np.empty(0, dtype=np.int64)     # each frame's id, in insertion order
        self._frames: dict[int, DescriptorFrame] = {}
        self._lock = threading.RLock()
        self._queried: _FrameKeys | None = None  # keys of the frame queried last

    @property
    def frames_indexed(self) -> int:
        return len(self._frame_ids)

    @property
    def descriptors_indexed(self) -> int:
        return int(self._frame_starts[-1])

    @property
    def nbytes(self) -> int:
        """Bytes of the stored frames and of the cell and index columns, the
        columns at their full capacity: 16 of index per row, plus six cells
        of ``_cells.itemsize`` bytes (28 per row for int16 cells)."""
        with self._lock:
            return (sum(getattr(self, name).nbytes for name in self._COLUMNS)
                    + sum(frame.nbytes for frame in self._frames.values()))

    def _keys(self, frame: DescriptorFrame) -> _FrameKeys:
        cells, buckets = frame_keys(frame.signatures, self.delta_l, self.delta_n)
        order = np.argsort(buckets)
        return _FrameKeys(frame, cells.T, order, buckets[order])

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
        dtype = _narrowest_int(keys.cells)
        with self._lock:
            if frame_id in self._frames:
                raise DuplicateFrame(f"frame {frame_id} already inserted")
            start = self.descriptors_indexed
            stop = start + len(frame)
            self._reserve(stop)
            if dtype.itemsize > self._cells.itemsize:  # at most three times in its life
                self._cells = self._cells.astype(dtype)
            self._cells[:, start:stop] = keys.cells
            self._index_keys[start:stop] = keys.sorted_buckets
            self._index_rows[start:stop] = start + keys.order
            if len(frame):
                self._segment_starts.append(start)
                self._merge_segments(stop)
            self._frame_starts = np.append(self._frame_starts, stop)
            self._frame_ids = np.append(self._frame_ids, frame_id)
            self._frames[frame_id] = frame

    def _reserve(self, n_rows: int) -> None:
        capacity = len(self._index_rows)
        if n_rows <= capacity:
            return
        capacity = max(n_rows, 2 * capacity, 1024)
        for name in self._COLUMNS:  # each indexed by row along its last axis
            old = getattr(self, name)
            grown = np.empty(old.shape[:-1] + (capacity,), dtype=old.dtype)
            grown[..., : old.shape[-1]] = old
            setattr(self, name, grown)

    def _merge_segments(self, stop: int) -> None:
        """Merge the newest two segments while the older holds at most twice
        the rows of the newer. The tail is two runs sorted by key, which the
        stable sort (timsort) merges in linear time; the default sort does not
        use the runs."""
        starts = self._segment_starts
        while len(starts) > 1 and starts[-1] - starts[-2] <= 2 * (stop - starts[-1]):
            starts.pop()
            tail = slice(starts[-1], stop)
            order = np.argsort(self._index_keys[tail], kind="stable")
            self._index_keys[tail] = self._index_keys[tail][order]
            self._index_rows[tail] = self._index_rows[tail][order]

    def _bucket_rows(self, keys: _FrameKeys, below: int) -> tuple[np.ndarray, np.ndarray]:
        """Every (query index, stored row) pair whose bucket keys are equal, in
        the segments that start below row ``below``, in no particular order."""
        # sorted needles keep each segment's binary searches on shared paths
        order, needles = keys.order, keys.sorted_buckets
        none = np.empty(0, dtype=np.int64)
        query, first, counts = [none], [none], [none]
        bounds = self._segment_starts + [self.descriptors_indexed]
        for start, stop in zip(bounds, bounds[1:]):
            if start >= below:  # segments hold ascending row ranges
                break
            segment = self._index_keys[start:stop]
            lo = segment.searchsorted(needles)
            hit = np.flatnonzero(segment.take(lo, mode="clip") == needles)
            if len(hit):
                lo = lo[hit]
                query.append(order[hit])
                first.append(start + lo)
                counts.append(segment.searchsorted(needles[hit], side="right") - lo)
        # one run of equal keys per (query, segment), at positions first, first + 1, ...
        counts = np.concatenate(counts)
        run_start = np.cumsum(counts) - counts
        positions = np.arange(counts.sum()) + np.repeat(np.concatenate(first) - run_start, counts)
        return np.repeat(np.concatenate(query), counts), self._index_rows[positions]

    def _vote(self, frame: DescriptorFrame, skip_recent: int) -> _Votes:
        """The vote kernel: one vote per (query descriptor, frame) cell match.

        The newest skip_recent frames are the rows from the first of them on.
        A vote's pair partner is the smallest stored row among the frame's
        matches of that query row: the frame's earliest descriptor in the cell.
        """
        keys = self._queried = self._keys(frame)  # kept for the frame's insert
        with self._lock:
            starts = self._frame_starts
            below = starts[max(self.frames_indexed - max(skip_recent, 0), 0)]
            query, stored = self._bucket_rows(keys, int(below))
            # the last segment searched may hold rows from below on; they are
            # dropped before any cell is gathered
            keep = stored < below
            query, stored = query[keep], stored[keep]
            # the query's int64 cells are never narrowed: a cell outside the
            # stored type would wrap into it and match
            keep = (self._cells.take(stored, axis=1) == keys.cells.take(query, axis=1)).all(axis=0)
            query, stored = query[keep], stored[keep]
            frames = starts.searchsorted(stored, side="right") - 1  # skips empty frames
            group = frames * len(frame) + query  # (frame, query row), in that order
            order = np.argsort(group)
            group = group[order]
            groups = np.flatnonzero(np.diff(group, prepend=-1))
            stored = np.minimum.reduceat(stored[order], groups)
            frames, query = np.divmod(group[groups], len(frame))
            firsts = np.flatnonzero(np.diff(frames, prepend=-1))
            votes = np.diff(firsts, append=len(frames))
            slots = stored - starts[frames]
            ids = self._frame_ids[frames[firsts]]
        rank = np.lexsort((ids, -votes))
        return _Votes(ids[rank], votes[rank], firsts[rank], query, slots)

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
        top = slice(TOP_K_CANDIDATES)
        # an inserted frame never changes
        return [Candidate(fid, n, DescriptorPairs(frame, self._frames[fid],
                                                  result.query_rows[lo : lo + n],
                                                  result.slots[lo : lo + n]))
                for fid, n, lo in zip(result.frame_ids[top].tolist(),
                                      result.votes[top].tolist(), result.firsts[top].tolist())]

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Write a binary snapshot, one frame record at a time; loading it
        reproduces the database exactly.

        Layout (v1, little-endian): magic, header (version, delta_l, delta_n,
        frame count), then per frame in insertion order its id, descriptor
        count and 24 doubles per descriptor: vertices, normals, sides and
        centroid.

        The records go to a sibling ``.tmp`` file that replaces ``path`` only
        once all are written, so a failed save leaves a previous snapshot
        at ``path`` as it was.
        """
        partial = f"{os.fspath(path)}.tmp"
        with self._lock:
            try:
                with open(partial, "wb") as f:
                    f.write(_SNAPSHOT_MAGIC)
                    f.write(_HEADER.pack(_SNAPSHOT_VERSION, self.delta_l, self.delta_n,
                                         len(self._frames)))
                    for fid, frame in self._frames.items():  # in insertion order
                        f.write(_FRAME_HEADER.pack(fid, len(frame)))
                        f.write(_frame_record(frame))
            except BaseException:
                with contextlib.suppress(OSError):
                    os.remove(partial)
                raise
            os.replace(partial, path)

    @classmethod
    def load(cls, path) -> "DescriptorDatabase":
        """Read a snapshot written by ``save``, one frame record at a time; a
        malformed file, including one holding a NaN or infinite value, raises
        ``MalformedRecord``."""
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if f.read(len(_SNAPSHOT_MAGIC)) != _SNAPSHOT_MAGIC:
                raise MalformedRecord(f"{path}: bad magic, not a descriptor snapshot")

            def read(n_bytes: int, what: str, rows: int | None = None):
                """The next n_bytes of the file, as bytes or as (rows, 24)
                doubles; the size is checked before anything is allocated."""
                offset = f.tell()
                if size - offset >= n_bytes:
                    buffer = (bytearray(n_bytes) if rows is None
                              else np.empty((rows, _DESC_FLOATS), dtype="<f8"))
                    if f.readinto(buffer) == n_bytes:
                        return buffer
                raise MalformedRecord(
                    f"{path}: truncated snapshot, {what} needs {n_bytes} bytes at "
                    f"offset {offset}, {size - offset} left"
                )

            version, delta_l, delta_n, n_frames = _HEADER.unpack(read(_HEADER.size, "header"))
            if version != _SNAPSHOT_VERSION:
                raise MalformedRecord(f"{path}: unsupported snapshot version {version}")
            try:
                db = cls(delta_l=delta_l, delta_n=delta_n)
            except ValueError as exc:
                raise MalformedRecord(f"{path}: {exc}") from None
            # every byte after the frame headers is a descriptor row
            db._reserve((size - f.tell() - n_frames * _FRAME_HEADER.size) // _DESC_BYTES)
            for _ in range(n_frames):
                fid, n_descs = _FRAME_HEADER.unpack(read(_FRAME_HEADER.size, "frame header"))
                record = read(n_descs * _DESC_BYTES, f"frame {fid}", rows=n_descs)
                if not np.isfinite(record).all():
                    raise MalformedRecord(f"{path}: frame {fid} holds a NaN or infinite value")
                if fid in db._frames:
                    raise MalformedRecord(f"{path}: frame {fid} appears more than once")
                frame = DescriptorFrame.from_sides(record[:, 0:9], record[:, 9:18],
                                                   record[:, 18:21], fid)
                del record  # before the insert's temporaries
                db.insert_frame(fid, frame)
            if f.tell() != size:
                raise MalformedRecord(
                    f"{path}: {size - f.tell()} trailing bytes after the last frame"
                )
        return db
