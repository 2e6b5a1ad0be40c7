"""Geometric loop verification: RANSAC over matched triangles, plane-overlap
scoring, and plane-to-plane refinement of the relative transform.

The canonical vertex ordering of matched triangles fixes the 3-point
correspondence, so each RANSAC sample is a full closed-form solve. A candidate
is accepted when the fraction of the query's planes that coincide with the
candidate's planes under the solved transform reaches the acceptance
threshold.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
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
    collinear_triples,
    solve_rigid_svd,
    solve_rigid_svd_batch,
)
from .planes import PlaneSet

MIN_INLIER_PAIRS = 4
MIN_REFINE_PAIRS = 10
INLIER_CHUNK = 1 << 18  # (vertex, hypothesis) distances per inlier-count step; bounds temporaries

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

    All samples are drawn and solved in one batch, and inliers are counted
    for all hypotheses at once, a chunk of pairs at a time; the result,
    including the generator's state afterwards, is that of solving and
    counting one iteration after another.
    """
    if not len(pairs):
        raise NoValidTransform("no matched pairs to verify")
    rng = np.random.default_rng(0) if rng is None else rng

    src_tris, dst_tris = pairs.vertices()

    picks = rng.integers(len(pairs), size=max(iterations, 0))
    picks = picks[~collinear_triples(src_tris[picks])]  # degenerate samples are skipped
    if len(picks):
        R, t = solve_rigid_svd_batch(src_tris[picks], dst_tris[picks])
        counts = _count_inliers(src_tris, dst_tris, R, t, inlier_tol)
        best = int(np.argmax(counts))  # first of the strictly highest, in draw order
        best_count = int(counts[best])
    else:
        best_count = 0
    if best_count < MIN_INLIER_PAIRS:
        raise NoValidTransform(
            f"best sample has {best_count} inlier pairs, need {MIN_INLIER_PAIRS}"
        )
    best_mask = _inlier_mask(src_tris, dst_tris, R[best], t[best], inlier_tol)
    inliers = pairs[best_mask]
    refined = solve_rigid_svd(
        Correspondences3(src_tris[best_mask].reshape(-1, 3), dst_tris[best_mask].reshape(-1, 3))
    )
    return refined, inliers


def _inlier_mask(src_tris, dst_tris, R, t, inlier_tol) -> np.ndarray:
    """Pairs whose three vertices all land within inlier_tol under one or,
    with R (m, 3, 3) and t (m, 3), under each row's own transform."""
    moved = src_tris @ np.swapaxes(R, -1, -2) + t[..., None, :]
    return np.all(np.linalg.norm(moved - dst_tris, axis=2) < inlier_tol, axis=1)


def _count_inliers(src_tris, dst_tris, R, t, inlier_tol) -> np.ndarray:
    """_inlier_mask(...).sum() for every hypothesis (R[h], t[h]), exactly.

    One gemm per chunk of pairs gives every vertex's squared miss from
    |R s + t - d|^2 = |s|^2 + |d|^2 + |t|^2 + 2 (R^T t).s - 2 t.d - 2 (d s^T):R,
    which holds for orthonormal R. The form cancels, so it decides only the
    (pair, hypothesis) rows that clear the tolerance by a margin above its
    error: ten times ORTHONORMALITY_TOL relative to the coordinate scale
    squared, against 3 * ORTHONORMALITY_TOL for |R s| != |s| and ~1e-13 of
    rounding. The few rows inside that margin go to _inlier_mask itself.

    The pair terms are vertex-major, (3, pairs, 17), so a chunk's misses come
    out as three contiguous (pairs, hypotheses) slabs, one per vertex.
    """
    counts = np.zeros(len(R), dtype=np.int64)
    if not inlier_tol > 0:  # no distance is below a non-positive tolerance
        return counts
    s = np.swapaxes(src_tris, 0, 1)  # (3, P, 3): vertex, pair, coordinate
    d = np.swapaxes(dst_tris, 0, 1)
    pair_terms = np.empty(s.shape[:2] + (17,))
    np.add(np.einsum("vpj,vpj->vp", s, s), np.einsum("vpj,vpj->vp", d, d),
           out=pair_terms[..., 0])
    pair_terms[..., 1] = 1.0
    pair_terms[..., 2:5] = s
    pair_terms[..., 5:8] = d
    np.multiply(d[..., :, None], s[..., None, :],
                out=pair_terms[..., 8:].reshape(s.shape[:2] + (3, 3)))  # d s^T
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
    scale = sum(float(np.sqrt(np.einsum("ij,ij->i", a, a).max()))
                for a in (src_tris.reshape(-1, 3), dst_tris.reshape(-1, 3), t))
    margin = 10 * ORTHONORMALITY_TOL * (1.0 + scale) ** 2
    if not np.isfinite(margin):  # non-finite or huge coordinates: decide every row exactly
        margin = np.nan
    inside_below, outside_from = inlier_tol**2 - margin, inlier_tol**2 + margin
    step = max(1, INLIER_CHUNK // (3 * len(R)))
    for lo in range(0, len(src_tris), step):
        miss2 = pair_terms[:, lo : lo + step] @ hyp_terms  # (3, pairs, hypotheses)
        worst = np.maximum(np.maximum(miss2[0], miss2[1]), miss2[2])
        inside, outside = worst < inside_below, worst >= outside_from
        n_inside = np.count_nonzero(inside, axis=0)
        counts += n_inside
        # rows neither inside nor outside, NaN rows among them, are near the tolerance
        if n_inside.sum() + np.count_nonzero(outside) == worst.size:
            continue
        pair, hyp = np.nonzero(~(inside | outside))
        pair += lo
        ok = _inlier_mask(src_tris[pair], dst_tris[pair], R[hyp], t[hyp], inlier_tol)
        counts += np.bincount(hyp[ok], minlength=len(R))
    return counts


def _normal_residuals(rotated_normals: np.ndarray, target_normals: np.ndarray) -> np.ndarray:
    """Sign-robust normal differences: the smaller of ||Ru - u'|| and ||Ru + u'||."""
    minus = np.linalg.norm(rotated_normals - target_normals, axis=1)
    plus = np.linalg.norm(rotated_normals + target_normals, axis=1)
    return np.minimum(minus, plus)


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
    cand_centers, cand_normals = candidate.centers, candidate.normals
    tree = cKDTree(cand_centers)

    centers = current.centers @ transform.R.T + transform.t
    normals = current.normals @ transform.R.T
    _, nearest = tree.query(centers)
    n_res = _normal_residuals(normals, cand_normals[nearest])
    d_res = np.abs(np.einsum("ij,ij->i", cand_normals[nearest], centers - cand_centers[nearest]))
    coinciding = np.count_nonzero((n_res < sigma_n) & (d_res < sigma_d))
    return coinciding / len(current)


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
    residuals with damped Gauss-Newton on a 6-dof local perturbation.

    Pairs are re-associated by nearest center each iteration and gated by the
    same sigma_n / sigma_d tests used for overlap scoring. Never returns a
    transform with higher cost than the initial one.
    """
    if not current or not candidate:
        raise EmptyPlaneList("plane refinement needs non-empty plane sets")
    cand_centers, cand_normals = candidate.centers, candidate.normals
    cur_centers, cur_normals = current.centers, current.normals
    tree = cKDTree(cand_centers)

    def associate(T: RigidTransform):
        centers = cur_centers @ T.R.T + T.t
        normals = cur_normals @ T.R.T
        _, nearest = tree.query(centers)
        tgt_n = cand_normals[nearest]
        tgt_c = cand_centers[nearest]
        n_res = _normal_residuals(normals, tgt_n)
        d_res = np.abs(np.einsum("ij,ij->i", tgt_n, centers - tgt_c))
        mask = (n_res < sigma_n) & (d_res < sigma_d)
        # per-pair normal sign that minimizes the residual
        minus = np.linalg.norm(normals - tgt_n, axis=1)
        plus = np.linalg.norm(normals + tgt_n, axis=1)
        signs = np.where(minus <= plus, 1.0, -1.0)
        return mask, nearest, signs

    def cost(T: RigidTransform, mask, nearest, signs) -> float:
        centers = cur_centers[mask] @ T.R.T + T.t
        normals = cur_normals[mask] @ T.R.T
        tgt_n = cand_normals[nearest[mask]]
        tgt_c = cand_centers[nearest[mask]]
        rn = (normals - signs[mask, None] * tgt_n) / sigma_n
        rd = np.einsum("ij,ij->i", tgt_n, centers - tgt_c) / sigma_d
        return float(np.sum(rn * rn) + np.sum(rd * rd))

    mask0, nearest0, signs0 = associate(initial)
    if int(mask0.sum()) < MIN_REFINE_PAIRS:
        raise InsufficientOverlap(
            f"{int(mask0.sum())} coinciding plane pairs under the initial transform, "
            f"need {MIN_REFINE_PAIRS}"
        )
    initial_cost = cost(initial, mask0, nearest0, signs0)

    T = initial
    damping = 1e-6
    for _ in range(max_iterations):
        mask, nearest, signs = associate(T)
        if int(mask.sum()) < MIN_REFINE_PAIRS:
            break
        centers = cur_centers[mask] @ T.R.T + T.t
        normals = cur_normals[mask] @ T.R.T
        tgt_n = cand_normals[nearest[mask]]
        tgt_c = cand_centers[nearest[mask]]
        s = signs[mask]

        # residuals: rn = (R u - s u') / sigma_n,  rd = u'.(R g + t - g') / sigma_d
        rn = (normals - s[:, None] * tgt_n) / sigma_n
        rd = np.einsum("ij,ij->i", tgt_n, centers - tgt_c) / sigma_d

        # left perturbation: R <- Exp(dw) R, t <- t + dt
        # d rn / d dw = -[R u]x / sigma_n; d rd / d dw = ((R g) x u')/sigma_d; d rd / d dt = u'/sigma_d
        n_pairs = int(mask.sum())
        J = np.zeros((n_pairs * 3 + n_pairs, 6))
        r = np.concatenate([rn.ravel(), rd])
        J[: n_pairs * 3, 0:3] = (-_skew_batch(normals) / sigma_n).reshape(-1, 3)
        rotated_centers = centers - T.t
        J[n_pairs * 3 :, 0:3] = np.cross(rotated_centers, tgt_n) / sigma_d
        J[n_pairs * 3 :, 3:6] = tgt_n / sigma_d

        current_cost = cost(T, mask, nearest, signs)
        step_taken = False
        for _ in range(8):
            H = J.T @ J + damping * np.eye(6)
            delta = np.linalg.solve(H, -J.T @ r)
            T_try = _apply_perturbation(T, delta)
            if cost(T_try, mask, nearest, signs) <= current_cost:
                T = T_try
                damping = max(damping / 3.0, 1e-9)
                step_taken = True
                break
            damping *= 10.0
        if not step_taken:
            break
        if float(np.linalg.norm(delta)) < update_tol:
            break

    mask_f, nearest_f, signs_f = associate(T)
    if int(mask_f.sum()) >= MIN_REFINE_PAIRS and cost(T, mask_f, nearest_f, signs_f) <= initial_cost:
        return T
    return initial


def _skew_batch(vectors: np.ndarray) -> np.ndarray:
    """(n, 3) vectors -> (n, 3, 3) cross-product matrices."""
    n = len(vectors)
    out = np.zeros((n, 3, 3))
    x, y, z = vectors[:, 0], vectors[:, 1], vectors[:, 2]
    out[:, 0, 1] = -z
    out[:, 0, 2] = y
    out[:, 1, 0] = z
    out[:, 1, 2] = -x
    out[:, 2, 0] = -y
    out[:, 2, 1] = x
    return out


def _apply_perturbation(T: RigidTransform, delta: np.ndarray) -> RigidTransform:
    """Left-multiplicative update: (Exp(dw) R, t + dt)."""
    dw = delta[0:3]
    dt = delta[3:6]
    angle = float(np.linalg.norm(dw))
    if angle < 1e-14:
        dR = np.eye(3)
    else:
        axis = dw / angle
        K = np.array(
            [
                [0.0, -axis[2], axis[1]],
                [axis[2], 0.0, -axis[0]],
                [-axis[1], axis[0], 0.0],
            ]
        )
        dR = np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)
    # re-orthonormalize to keep the rotation valid over many iterations
    R = dR @ T.R
    U, _, Vt = np.linalg.svd(R)
    d = np.sign(np.linalg.det(U @ Vt))
    R = U @ np.diag([1.0, 1.0, d]) @ Vt
    return RigidTransform(R, T.t + dt)
