"""Integer grid cells of a point cloud, packed into sortable int64 keys.

A point's cell is floor(p / size) per axis. Packing stores a cell as its
offset from the cloud's minimum cell, row-major over the cloud's cell box, so
ascending key order is ascending (ix, iy, iz) order and grouping by cell is a
1-D sort. ``cell_keys`` builds the keys from the three coordinate rows of a
cloud, one contiguous row at a time, and never forms an (N, 3) integer
array. Cells that do not fit an int64, or a box too large for the packed
key, raise CellOutOfRange instead of wrapping around. Every float-to-int64
cell cast of the pipeline passes that range test: point cells and quantized
side triples here, and through ``int64_cells`` descriptor signature cells and
key-point image pixels.

``cell_means`` groups points by key and averages each group. A
triangle's quantized side triple is packed the same way, so its key orders
and deduplicates a frame's triangles.

Rows of six 64-bit words (a descriptor's cells, a key point's position and
normal) are hashed with ``mix_words``.
"""

from __future__ import annotations

import numpy as np

from .errors import CellOutOfRange

_INT64_MAX = np.iinfo(np.int64).max

_HASH_SEED = 0xCBF29CE484222325
_MIX_CONSTANTS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
    0xFF51AFD7ED558CCD,
    0xC4CEB9FE1A85EC53,
)


def _check_range(lo: float, hi: float, what: str) -> None:
    """Raise CellOutOfRange, led by `what`, unless every value between the
    floats lo and hi casts to an int64; a NaN fails both comparisons."""
    if not (lo >= -2.0**63 and hi < 2.0**63):
        raise CellOutOfRange(f"{what} span cells beyond the int64 range")


def int64_cells(scaled: np.ndarray, what: str) -> np.ndarray:
    """int64 of an array of floored or rounded floats. Raises CellOutOfRange,
    its message led by `what`, when a value is not finite or lies outside the
    int64 range, where the cast would give garbage."""
    if scaled.size:
        _check_range(scaled.min(), scaled.max(), what)
    return scaled.astype(np.int64)


def _box_dims(lo, hi) -> tuple[int, int, int]:
    """(nx, ny, nz) extent of the cell box from cell lo to cell hi. Raises
    CellOutOfRange when the box has more cells than an int64 key holds."""
    dims = tuple(int(h) - int(l) + 1 for l, h in zip(lo, hi))
    if dims[0] * dims[1] * dims[2] > _INT64_MAX:
        raise CellOutOfRange(
            f"cell box {dims[0]} x {dims[1]} x {dims[2]} has too many cells for an int64 key"
        )
    return dims


def cell_box(cells: np.ndarray) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Minimum cell and (nx, ny, nz) extent of a non-empty (V, 3) cell set."""
    # column by column: numpy reduces a contiguous column far faster than
    # the short rows of an (N, 3) array along axis 0
    lo = np.array([cells[:, a].min() for a in range(3)])
    hi = np.array([cells[:, a].max() for a in range(3)])
    return lo, _box_dims(lo, hi)


def pack_offsets(rel: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """Row-major int64 keys of (N, 3) offsets with 0 <= rel < dims per axis."""
    return (rel[:, 0] * dims[1] + rel[:, 1]) * dims[2] + rel[:, 2]


def cell_keys(rows: np.ndarray, size: float, what: str, rounding=np.floor):
    """Packed int64 keys of the cells of a non-empty (3, N) array of
    coordinate rows (any layout, such as the transpose of (N, 3) points) on
    a grid of edge `size`, a cell being rounding(rows / size): np.floor for
    points, np.rint for quantized side triples. Returns the (N,) keys, the
    minimum cell (3,) int64 and the cell box's (nx, ny, nz).

    The quotient is one C-ordered (3, N) float array rounded in place. The
    range and box tests read its row minima and maxima, and each row is then
    cast and packed on its own, so no (N, 3) integer array is formed. Keys
    and CellOutOfRange errors, led by `what`, are those of the (N, 3) int64
    cells packed with cell_box and pack_offsets.
    """
    scaled = np.divide(rows, size, order="C")
    rounding(scaled, out=scaled)
    lo, hi = scaled.min(axis=1), scaled.max(axis=1)
    _check_range(lo.min(), hi.max(), what)
    dims = _box_dims(lo, hi)
    lo = lo.astype(np.int64)
    keys = scaled[0].astype(np.int64)
    keys -= lo[0]
    row = np.empty_like(keys)
    for a in (1, 2):
        # offsets stay below their extent, so no product or sum wraps
        keys *= dims[a]
        np.copyto(row, scaled[a], casting="unsafe")
        row -= lo[a]
        keys += row
    return keys, lo, dims


def cell_means(points: np.ndarray, keys: np.ndarray):
    """Group (N, 3) points by their (N,) cell keys, in ascending key order.

    Returns the sorted distinct keys (G,), each point's group (N,), the
    points per group (G,) and the group means (G, 3), each mean summed in
    input order (np.bincount).
    """
    distinct, inverse = np.unique(keys, return_inverse=True)
    n = len(distinct)
    counts = np.bincount(inverse, minlength=n)
    sums = np.stack(
        [np.bincount(inverse, weights=points[:, a], minlength=n) for a in range(3)], axis=1
    )
    return distinct, inverse, counts, sums / counts[:, None]


def mix_words(words) -> np.ndarray:
    """64-bit hash of rows given as six uint64 word arrays of one shape, in
    any memory layout: per word, xor in the word times a constant, then
    rotate left by 13, in wrapping uint64 arithmetic."""
    h = np.full(np.shape(words[0]), _HASH_SEED, dtype=np.uint64)
    term = np.empty_like(h)
    for word, mult in zip(words, _MIX_CONSTANTS, strict=True):
        np.multiply(word, np.uint64(mult), out=term)
        h ^= term
        np.right_shift(h, np.uint64(51), out=term)
        h <<= np.uint64(13)
        h |= term
    return h

