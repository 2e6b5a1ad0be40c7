"""Geometric loop verification: RANSAC over matched triangles, plane-overlap
scoring, and plane-to-plane refinement of the relative transform.

The canonical vertex ordering of matched triangles fixes the 3-point
correspondence, so each RANSAC sample is a full closed-form solve. A candidate
is accepted when the fraction of the query's planes that coincide with the
candidate's planes under the solved transform reaches the acceptance
threshold.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from typing import TypeVar

import numpy as np
from scipy.spatial import cKDTree

from .database import Candidate
from .descriptors import DescriptorPairs
from .errors import (
    EmptyPlaneList,
    InsufficientOverlap,
    NoValidTransform,
)
from .geometry import (
    ORTHONORMALITY_TOL,
    Correspondences3,
    RigidTransform,
    all_collinear,
    nearest_rotation,
    rotation_about_axis,
    solve_rigid_svd,
    solve_rigid_svd_batch,
)
from .planes import PlaneSet

MIN_INLIER_PAIRS = 4
MIN_REFINE_PAIRS = 10
INLIER_CHUNK = 1 << 15  # (correspondence, hypothesis) cells per inlier step: 256 KB blocks
_IN, _NEAR, _OUT = np.uint8(0), np.uint8(1), np.uint8(2)  # decisions of inlier cells

MODES = ("first", "best")  # loop selection rules, see select_loop

Scored = TypeVar("Scored")  # ScoredCandidate or a saved CandidateScoreRow


@dataclass(frozen=True)
class ScoredCandidate:
    """Verification scores for one retrieval candidate; transform is None when
    the candidate was not verified (too few votes, no planes, no transform).
    The accepted loop is the candidate that select_loop returns."""

    frame_id: int
    votes: int
    overlap: float
    transform: RigidTransform | None
    inlier_pairs: int


def ransac_transform(
    pairs: DescriptorPairs,
    iterations: int = 100,
    inlier_tol: float = 0.5,
    rng: np.random.Generator | None = None,
) -> tuple[RigidTransform, DescriptorPairs]:
    """Robust transform from matched triangle pairs.

    Each iteration solves the closed-form alignment of one sampled pair's
    three vertices, then counts pairs whose vertices all land within
    inlier_tol. The best iteration's inliers are re-solved jointly and
    returned as pairs.

    All samples are drawn and solved in one batch, and each distinct (query
    key point, stored key point) correspondence is tested once per
    hypothesis; the result, including the generator's state afterwards, is
    that of solving and counting one iteration after another.
    """
    if not len(pairs):
        raise NoValidTransform("no matched pairs to verify")
    rng = np.random.default_rng(0) if rng is None else rng
    query, stored = pairs.query_frame, pairs.stored_frame
    src_ids = query.vertex_ids[pairs.query_rows]  # (P, 3) key-point ids
    dst_ids = stored.vertex_ids[pairs.stored_rows]

    picks = rng.integers(len(pairs), size=max(iterations, 0))
    samples = query.positions[src_ids[picks]]
    solid = ~all_collinear(samples)  # degenerate samples are skipped
    if solid.any():
        R, t = solve_rigid_svd_batch(samples[solid], stored.positions[dst_ids[picks[solid]]])
        src, dst, links = _correspondences(query.positions, stored.positions, src_ids, dst_ids)
        counts, states = _count_inliers(src, dst, links, R, t, inlier_tol)
        best = int(np.argmax(counts))  # first of the strictly highest, in draw order
        best_count = int(counts[best])
    else:
        best_count = 0
    if best_count < MIN_INLIER_PAIRS:
        raise NoValidTransform(
            f"best sample has {best_count} inlier pairs, need {MIN_INLIER_PAIRS}"
        )
    best_mask = _pair_inliers(states[:, [best]], src, dst, links, R[[best]], t[[best]],
                              inlier_tol)[:, 0]
    matched = links[best_mask].ravel()  # the inliers' vertices, pair by pair
    refined = solve_rigid_svd(Correspondences3(src[matched], dst[matched]))
    return refined, pairs[best_mask]


def _correspondences(src_points, dst_points, src_ids, dst_ids):
    """The distinct (source key point, target key point) correspondences of
    (P, 3) vertex ids into two key-point tables: their (U, 3) source and
    target points, and the (P, 3) correspondence row of every vertex."""
    packed = src_ids.astype(np.int64).ravel() * len(dst_points) + dst_ids.ravel()
    distinct, links = np.unique(packed, return_inverse=True)
    src_rows, dst_rows = np.divmod(distinct, len(dst_points))
    return src_points[src_rows], dst_points[dst_rows], links.reshape(src_ids.shape)


def _inlier_mask(src_tris, dst_tris, R, t, inlier_tol) -> np.ndarray:
    """Pairs whose three vertices all land within inlier_tol under one or,
    with R (m, 3, 3) and t (m, 3), under each row's own transform."""
    moved = src_tris @ np.swapaxes(R, -1, -2) + t[..., None, :]
    return np.all(np.linalg.norm(moved - dst_tris, axis=2) < inlier_tol, axis=1)


def _count_inliers(src, dst, links, R, t, inlier_tol) -> tuple[np.ndarray, np.ndarray]:
    """Inlier pairs of every hypothesis (R[h], t[h]), exactly
    _inlier_mask(src[links], dst[links], R[h], t[h], inlier_tol).sum(), and
    the (U, hypotheses) decisions they were read from.

    src and dst are (U, 3) correspondences, links (P, 3) a pair's three rows
    of them. One gemm per chunk of correspondences gives every squared miss
    from |R s + t - d|^2 = |s|^2 + |d|^2 + |t|^2 + 2 (R^T t).s - 2 t.d
    - 2 (d s^T):R, which holds for orthonormal R. The form cancels, so it
    decides only the cells that clear the tolerance by a margin above its
    error: ten times ORTHONORMALITY_TOL relative to the coordinate scale
    squared, against 3 * ORTHONORMALITY_TOL for |R s| != |s| and ~1e-13 of
    rounding. A cell is _IN, _OUT, or _NEAR: inside that margin, or NaN.
    """
    counts = np.zeros(len(R), dtype=np.int64)
    if not inlier_tol > 0:  # no distance is below a non-positive tolerance
        return counts, np.full((len(src), len(R)), _OUT)
    corr_terms = np.empty((len(src), 17))  # |s|^2 + |d|^2, 1, s, d, d s^T
    corr_terms[:, 0] = np.einsum("uj,uj->u", src, src) + np.einsum("uj,uj->u", dst, dst)
    corr_terms[:, 1] = 1.0
    corr_terms[:, 2:5], corr_terms[:, 5:8] = src, dst
    corr_terms[:, 8:] = (dst[:, :, None] * src[:, None, :]).reshape(-1, 9)
    hyp_terms = np.concatenate(
        [
            np.ones((len(R), 1)),
            np.einsum("hk,hk->h", t, t)[:, None],
            2.0 * np.einsum("hkj,hk->hj", R, t),
            -2.0 * t,
            -2.0 * R.reshape(-1, 9),
        ],
        axis=1,
    ).T
    scale = sum(float(np.sqrt(np.einsum("ij,ij->i", a, a).max())) for a in (src, dst, t))
    margin = 10 * ORTHONORMALITY_TOL * (1.0 + scale) ** 2
    if not np.isfinite(margin):  # non-finite or huge coordinates: every cell is near
        margin = np.nan
    inside_below, outside_from = inlier_tol**2 - margin, inlier_tol**2 + margin
    states = np.empty((len(src), len(R)), dtype=np.uint8)
    step = max(1, INLIER_CHUNK // len(R))
    for lo in range(0, len(src), step):
        miss2 = corr_terms[lo : lo + step] @ hyp_terms  # (correspondences, hypotheses)
        # one from the inner bound on and one past the outer; NaN lands on _NEAR
        np.add(miss2 >= inside_below, ~(miss2 < outside_from), dtype=np.uint8,
               out=states[lo : lo + step])
    for lo in range(0, len(links), step):
        pairs = _pair_inliers(states, src, dst, links[lo : lo + step], R, t, inlier_tol)
        counts += np.count_nonzero(pairs, axis=0)
    return counts, states


def _pair_inliers(states, src, dst, links, R, t, inlier_tol) -> np.ndarray:
    """_inlier_mask(src[links], dst[links], R[h], t[h], ...) for every h, read
    from the decisions ``states``: a pair is in when its three are _IN, out
    when any is _OUT, and _inlier_mask decides the rest."""
    verdict = np.maximum(np.maximum(states.take(links[:, 0], axis=0),
                                    states.take(links[:, 1], axis=0)),
                         states.take(links[:, 2], axis=0))
    inliers = verdict == _IN
    pair, hyp = np.divmod(np.flatnonzero(verdict == _NEAR), len(R))
    near = links[pair]
    inliers[pair, hyp] = _inlier_mask(src[near], dst[near], R[hyp], t[hyp], inlier_tol)
    return inliers


def _associate(current: PlaneSet, candidate: PlaneSet, tree: cKDTree, T: RigidTransform,
               sigma_n: float, sigma_d: float):
    """Current planes moved by T, each paired with the nearest candidate centre:
    the mask of pairs that coincide (normals agree up to sign within sigma_n,
    point-to-plane distance below sigma_d), the nearest rows, and signs +-1."""
    centers = current.centers @ T.R.T + T.t
    normals = current.normals @ T.R.T
    _, nearest = tree.query(centers)
    tgt_n = candidate.normals[nearest]
    minus = np.linalg.norm(normals - tgt_n, axis=1)
    plus = np.linalg.norm(normals + tgt_n, axis=1)
    d_res = np.abs(np.einsum("ij,ij->i", tgt_n, centers - candidate.centers[nearest]))
    mask = (np.minimum(minus, plus) < sigma_n) & (d_res < sigma_d)
    return mask, nearest, np.where(minus <= plus, 1.0, -1.0)


def plane_overlap(
    current: PlaneSet,
    candidate: PlaneSet,
    transform: RigidTransform,
    sigma_n: float = 0.2,
    sigma_d: float = 0.3,
) -> float:
    """Fraction of current planes that coincide with a candidate plane under T.

    Each transformed current center is matched to its nearest candidate
    center; the pair coincides when the normals agree up to sign within
    sigma_n and the point-to-plane distance is below sigma_d.
    """
    if not current or not candidate:
        raise EmptyPlaneList("plane overlap needs non-empty plane sets")
    mask, _, _ = _associate(current, candidate, cKDTree(candidate.centers), transform,
                            sigma_n, sigma_d)
    return np.count_nonzero(mask) / len(current)


def score_candidates(
    candidates: list[Candidate],
    current_planes: PlaneSet,
    plane_store: dict[int, PlaneSet],
    sigma_n: float = 0.2,
    sigma_d: float = 0.3,
    iterations: int = 100,
    inlier_tol: float = 0.5,
    min_votes: int = 5,
    rng: np.random.Generator | None = None,
) -> list[ScoredCandidate]:
    """RANSAC + plane overlap for every candidate, in vote order.

    Candidates below min_votes, without a valid transform, or without stored
    planes score zero overlap.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    scored: list[ScoredCandidate] = []
    for cand in candidates:
        result = ScoredCandidate(cand.frame_id, cand.votes, 0.0, None, 0)
        planes = plane_store.get(cand.frame_id)
        if cand.votes >= min_votes and planes and current_planes:
            try:
                transform, inliers = ransac_transform(
                    cand.pairs, iterations=iterations, inlier_tol=inlier_tol, rng=rng
                )
                overlap = plane_overlap(
                    current_planes, planes, transform, sigma_n=sigma_n, sigma_d=sigma_d
                )
                result = ScoredCandidate(
                    cand.frame_id, cand.votes, overlap, transform, len(inliers)
                )
            except NoValidTransform:
                pass
        scored.append(result)
    return scored


def select_loop(scored: Sequence[Scored], sigma_pc: float, mode: str) -> Scored | None:
    """The accepted loop among verified candidates given in vote order.

    "first" accepts the first candidate whose overlap reaches sigma_pc, "best"
    the passing candidate with the highest overlap (the earliest in vote order
    on ties). Only the overlap is read, so the CandidateScoreRow records of a
    replay re-select with the rule the session used. Callers pass only
    verified candidates (transform is not None): an unverified one scores 0
    overlap, which would pass at sigma_pc = 0.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {', '.join(MODES)}; got {mode!r}")
    passing = [cand for cand in scored if cand.overlap >= sigma_pc]
    if not passing:
        return None
    if mode == "first":
        return passing[0]
    return max(passing, key=lambda cand: cand.overlap)  # max keeps the first on ties


def plane_icp(
    current: PlaneSet,
    candidate: PlaneSet,
    initial: RigidTransform,
    sigma_n: float = 0.2,
    sigma_d: float = 0.3,
    max_iterations: int = 30,
    update_tol: float = 1e-6,
) -> RigidTransform:
    """Refine a transform by minimizing plane-pair normal and point-to-plane
    residuals on a 6-dof local perturbation, one Gauss-Newton step per pose:
    the least-squares solution of the linearised residuals, minimum-norm where
    the planes leave a direction unobservable, kept unless it raises the cost.

    Pairs are associated by nearest center once per pose and gated by the
    same sigma_n / sigma_d tests used for overlap scoring. Never returns a
    transform with higher cost than the initial one.
    """
    if not current or not candidate:
        raise EmptyPlaneList("plane refinement needs non-empty plane sets")
    cand_centers, cand_normals = candidate.centers, candidate.normals
    cur_centers, cur_normals = current.centers, current.normals
    associate = partial(_associate, current, candidate, cKDTree(cand_centers),
                        sigma_n=sigma_n, sigma_d=sigma_d)

    def residuals(T: RigidTransform, mask, nearest, signs):
        """rn = (R u - s u') / sigma_n and rd = u'.(R g + t - g') / sigma_d of
        the associated pairs, then the moved centres R g + t, normals R u and u'."""
        centers = cur_centers[mask] @ T.R.T + T.t
        normals = cur_normals[mask] @ T.R.T
        tgt_n = cand_normals[nearest[mask]]
        rn = (normals - signs[mask, None] * tgt_n) / sigma_n
        rd = np.einsum("ij,ij->i", tgt_n, centers - cand_centers[nearest[mask]]) / sigma_d
        return rn, rd, centers, normals, tgt_n

    def cost(rn, rd) -> float:
        return float(np.sum(rn * rn) + np.sum(rd * rd))

    # the association of the current pose T: made once per pose
    association = associate(initial)
    if int(association[0].sum()) < MIN_REFINE_PAIRS:
        raise InsufficientOverlap(
            f"{int(association[0].sum())} coinciding plane pairs under the initial transform, "
            f"need {MIN_REFINE_PAIRS}"
        )
    initial_cost = cost(*residuals(initial, *association)[:2])

    T = initial
    for _ in range(max_iterations):
        rn, rd, centers, normals, tgt_n = residuals(T, *association)

        # left perturbation: R <- Exp(dw) R, t <- t + dt
        # d rn / d dw = -[R u]x / sigma_n; d rd / d dw = ((R g) x u')/sigma_d; d rd / d dt = u'/sigma_d
        n_pairs = len(rd)
        J = np.zeros((n_pairs * 3 + n_pairs, 6))
        r = np.concatenate([rn.ravel(), rd])
        # row j of -[v]x is v x e_j
        J[: n_pairs * 3, 0:3] = (np.cross(normals[:, None, :], np.eye(3)) / sigma_n).reshape(-1, 3)
        rotated_centers = centers - T.t
        J[n_pairs * 3 :, 0:3] = np.cross(rotated_centers, tgt_n) / sigma_d
        J[n_pairs * 3 :, 3:6] = tgt_n / sigma_d

        delta = np.linalg.lstsq(J, -r, rcond=None)[0]
        T_try = _apply_perturbation(T, delta)
        if cost(*residuals(T_try, *association)[:2]) > cost(rn, rd):
            break
        T = T_try
        association = associate(T)
        if int(association[0].sum()) < MIN_REFINE_PAIRS:
            return initial
        if float(np.linalg.norm(delta)) < update_tol:
            break

    if cost(*residuals(T, *association)[:2]) <= initial_cost:
        return T
    return initial


def _apply_perturbation(T: RigidTransform, delta: np.ndarray) -> RigidTransform:
    """Left-multiplicative update: (Exp(dw) R, t + dt), the rotation projected
    back onto SO(3) to keep it valid over many iterations."""
    dw, dt = delta[0:3], delta[3:6]
    angle = float(np.linalg.norm(dw))
    dR = np.eye(3) if angle < 1e-14 else rotation_about_axis(dw, angle)
    return RigidTransform(nearest_rotation(dR @ T.R), T.t + dt)
