"""Run configuration and pipeline orchestration.

extract_frame is the front half of the pipeline (downsample, voxelize, grow
planes, key points, descriptors). MatchingSession chains it with retrieval,
verification, and database insertion for sequential replay.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .database import DescriptorDatabase
from .descriptors import DescriptorFrame, build_descriptors
from .errors import ConfigError, EmptyPlaneList, InsufficientOverlap
from .geometry import RigidTransform
from .ingest import voxel_downsample
from .keypoints import KeyPoint, keyframe_keypoints
from .loop import MODES, ScoredCandidate, plane_icp, score_candidates, select_loop
from .planes import PlaneSet, build_voxel_map, classify_plane_voxels, grow_planes


# Valid values of PipelineConfig fields: (fields, test, the rule in words).
# A NaN fails every comparison, so a range test rejects it too.
_RULES = (
    (("mode",), lambda v: v in MODES, f"one of {', '.join(MODES)}"),
    (("sigma_pc",), lambda v: 0 <= v <= 1, "in [0, 1]"),
    (("voxel_size", "sigma1", "sigma_n", "sigma_d", "delta_l", "delta_n", "pixel_size",
      "inlier_tol", "normal_merge_tol", "dist_merge_tol", "refine_sigma_n", "refine_sigma_d"),
     lambda v: 0 < v < math.inf, "finite and > 0"),
    (("sigma2", "min_dist", "downsample_leaf", "gt_radius", "min_side"),
     lambda v: 0 <= v < math.inf, "finite and >= 0"),
    (("max_keypoints", "skip_recent", "seed"), lambda v: v >= 0, ">= 0"),
    (("n_accumulate", "iterations"), lambda v: v >= 1, ">= 1"),
    (("k_neighbors",), lambda v: v >= 2, ">= 2 (a triangle needs two neighbours)"),
)


@dataclass
class PipelineConfig:
    """Every tunable of the pipeline, with defaults that match the evaluated
    outdoor setup (1 m voxels, 10-scan keyframes, 0.5 overlap acceptance)."""

    voxel_size: float = 1.0
    sigma1: float = 0.01
    sigma2: float = 0.05
    sigma_n: float = 0.2
    sigma_d: float = 0.3
    sigma_pc: float = 0.5
    delta_l: float = 0.2
    delta_n: float = 0.1
    pixel_size: float = 0.5
    min_dist: float = 0.2
    k_neighbors: int = 20
    n_accumulate: int = 10
    skip_recent: int = 50
    iterations: int = 100
    inlier_tol: float = 0.5
    min_votes: int = 5
    seed: int = 0
    downsample_leaf: float = 0.25  # 0 disables pre-extraction downsampling
    gt_radius: float = 20.0
    normal_merge_tol: float = 0.02
    dist_merge_tol: float = 0.2
    max_keypoints: int = 200
    min_side: float = 0.5
    refine: bool = True
    refine_min_voxels: int = 3     # drop sliver planes from refinement input
    refine_sigma_n: float = 0.02   # tighter pair gates for fine alignment:
    refine_sigma_d: float = 0.10   # only well-matched planes drive the solve
    mode: str = "first"

    def __post_init__(self):
        for names, valid, rule in _RULES:
            for name in names:
                value = getattr(self, name)
                if not valid(value):
                    raise ConfigError(f"{name} must be {rule}; got {value!r}")

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """Parse a flat key=value config file ('#' starts a comment)."""
        known = {f.name: f.type for f in fields(cls)}
        values: dict[str, object] = {}
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            token = line.split("#", 1)[0].strip()
            if not token:
                continue
            if "=" not in token:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {token!r}")
            key, raw = (part.strip() for part in token.split("=", 1))
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown parameter {key!r}")
            values[key] = _coerce(key, raw, known[key], path, lineno)
        return cls(**values)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def write(self, path) -> None:
        Path(path).write_text(
            "".join(f"{k} = {v}\n" for k, v in self.to_dict().items())
        )


def _coerce(key: str, raw: str, annotation, path, lineno):
    target = str(annotation)
    try:
        if "bool" in target:
            lowered = raw.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if "int" in target:
            return int(raw)
        if "float" in target:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None


@dataclass
class FrameExtraction:
    """Everything the matcher needs from one keyframe."""

    frame_id: int
    planes: PlaneSet
    keypoints: list[KeyPoint]
    descriptors: DescriptorFrame
    n_plane_voxels: int = 0


def extract_frame(cloud: np.ndarray, frame_id: int, cfg: PipelineConfig) -> FrameExtraction:
    """Downsample, voxelize, grow planes, and build descriptors for one keyframe."""
    if cfg.downsample_leaf > 0:
        cloud = voxel_downsample(cloud, cfg.downsample_leaf)
    voxmap = build_voxel_map(cloud, cfg.voxel_size)
    n_plane = classify_plane_voxels(voxmap, cfg.sigma1, cfg.sigma2)
    planes = grow_planes(
        voxmap,
        normal_merge_tol=cfg.normal_merge_tol,
        dist_merge_tol=cfg.dist_merge_tol,
    )
    keypoints = keyframe_keypoints(
        planes,
        voxmap,
        pixel_size=cfg.pixel_size,
        min_dist=cfg.min_dist,
        frame_id=frame_id,
        max_keypoints=cfg.max_keypoints,
    )
    descriptors = build_descriptors(
        keypoints,
        k_neighbors=cfg.k_neighbors,
        frame_id=frame_id,
        min_side=cfg.min_side,
    )
    return FrameExtraction(
        frame_id=frame_id,
        planes=planes,
        keypoints=keypoints,
        descriptors=descriptors,
        n_plane_voxels=n_plane,
    )


@dataclass
class KeyframeOutcome:
    """What one replayed keyframe produced: extraction, candidate scores, the
    accepted loop (if any) with its plane-ICP pose, and per-stage wall times
    in milliseconds. The pose is None when refinement is off or plane_icp
    raised, and the loop's RANSAC transform itself when plane_icp returned
    its start."""

    extraction: FrameExtraction
    scored: list[ScoredCandidate]
    loop: ScoredCandidate | None
    refined: RigidTransform | None
    t_extract_ms: float
    t_query_ms: float
    t_verify_ms: float


class MatchingSession:
    """Sequential place-recognition session: query history, then insert self."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.db = DescriptorDatabase(delta_l=cfg.delta_l, delta_n=cfg.delta_n)
        self.plane_store: dict[int, PlaneSet] = {}
        self.rng = np.random.default_rng(cfg.seed)

    def process_keyframe(self, frame_id: int, cloud: np.ndarray) -> KeyframeOutcome:
        cfg = self.cfg
        t0 = time.perf_counter()
        extraction = extract_frame(cloud, frame_id, cfg)
        t1 = time.perf_counter()
        candidates = self.db.query_candidates(extraction.descriptors, skip_recent=cfg.skip_recent)
        t2 = time.perf_counter()
        scored = score_candidates(
            candidates,
            extraction.planes,
            self.plane_store,
            sigma_n=cfg.sigma_n,
            sigma_d=cfg.sigma_d,
            iterations=cfg.iterations,
            inlier_tol=cfg.inlier_tol,
            min_votes=cfg.min_votes,
            rng=self.rng,
        )
        loop = select_loop(
            [s for s in scored if s.transform is not None], cfg.sigma_pc, cfg.mode
        )
        refined = None
        if loop is not None and cfg.refine:
            # sliver planes (crease-contaminated voxels) carry unstable
            # normals; keep only grown regions for the refinement stage
            keep = cfg.refine_min_voxels
            current = extraction.planes[np.diff(extraction.planes.member_offsets) >= keep]
            stored = self.plane_store[loop.frame_id]
            matched = stored[np.diff(stored.member_offsets) >= keep]
            try:
                refined = plane_icp(
                    current,
                    matched,
                    loop.transform,
                    sigma_n=cfg.refine_sigma_n,
                    sigma_d=cfg.refine_sigma_d,
                )
            except (InsufficientOverlap, EmptyPlaneList):
                pass
        t3 = time.perf_counter()
        self.db.insert_frame(frame_id, extraction.descriptors)
        self.plane_store[frame_id] = extraction.planes
        return KeyframeOutcome(
            extraction=extraction,
            scored=scored,
            loop=loop,
            refined=refined,
            t_extract_ms=(t1 - t0) * 1e3,
            t_query_ms=(t2 - t1) * 1e3,
            t_verify_ms=(t3 - t2) * 1e3,
        )
