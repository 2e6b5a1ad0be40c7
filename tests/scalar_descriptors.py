"""Scalar references for the columnar descriptor code.

``signature`` and ``centroid`` are the per-descriptor attributes of one
``TriangleDescriptor`` row, and ``make_key`` quantizes and mixes one
signature; ``triloop.descriptors.frame_signatures`` and
``triloop.database.frame_keys`` compute the same for a whole
``DescriptorFrame`` at once, and tests require the two to agree bit for bit.
``stack_frame`` and ``stack_pairs`` turn reference rows into the frames and
aligned pairs the library takes.
"""

import math
from dataclasses import dataclass

import numpy as np

from triloop.database import _HASH_SEED, _MIX_CONSTANTS, _QUANT_EPS
from triloop.descriptors import DescriptorFrame, DescriptorPairs

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class HashKey:
    """Quantized signature cells plus their mixed 64-bit bucket key."""

    cells: tuple[int, int, int, int, int, int]
    bucket: int


def quantize(value: float, delta: float) -> int:
    return int(math.floor(value / delta + _QUANT_EPS))


def make_key(signature, delta_l: float, delta_n: float) -> HashKey:
    """Quantize (l12, l23, l13, |n1.n2|, |n2.n3|, |n1.n3|) into a hash key."""
    sig = np.asarray(signature, dtype=np.float64)
    cells = (
        quantize(sig[0], delta_l),
        quantize(sig[1], delta_l),
        quantize(sig[2], delta_l),
        quantize(sig[3], delta_n),
        quantize(sig[4], delta_n),
        quantize(sig[5], delta_n),
    )
    h = _HASH_SEED
    for cell, mult in zip(cells, _MIX_CONSTANTS):
        h ^= (cell & _MASK64) * mult & _MASK64
        h = ((h << 13) | (h >> 51)) & _MASK64
    return HashKey(cells=cells, bucket=h)


def signature(d) -> np.ndarray:
    """Six rigid-invariant attributes of one row: three sides, three |normal dots|."""
    n1, n2, n3 = d.normals
    return np.array(
        [
            d.sides[0],
            d.sides[1],
            d.sides[2],
            abs(float(n1 @ n2)),
            abs(float(n2 @ n3)),
            abs(float(n1 @ n3)),
        ]
    )


def centroid(d) -> np.ndarray:
    return d.vertices.mean(axis=0)


def stack_frame(rows, frame_id: int) -> DescriptorFrame:
    """The frame holding a list of rows (anything with vertices, normals and
    sides), in order."""
    if not rows:
        return DescriptorFrame.empty(frame_id)
    return DescriptorFrame.from_sides(
        np.array([d.vertices for d in rows], dtype=np.float64),
        np.array([d.normals for d in rows], dtype=np.float64),
        np.array([d.sides for d in rows], dtype=np.float64),
        frame_id,
    )


def stack_pairs(pairs) -> DescriptorPairs:
    """Aligned pairs from a list of (query row, stored row) tuples; the query
    frame is frame 1, the stored one frame 0."""
    rows = np.arange(len(pairs))
    return DescriptorPairs(
        stack_frame([q for q, _ in pairs], 1), stack_frame([s for _, s in pairs], 0), rows, rows
    )
