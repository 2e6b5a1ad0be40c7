"""Triangle-descriptor place recognition for 3D LiDAR point clouds.

Pipeline: accumulate scans into keyframes, segment planes by region growing
over voxel statistics, extract boundary-projection key points, encode them as
rotation/translation-invariant triangle descriptors, retrieve loop candidates
by hash voting, and verify geometrically with a full 6-dof relative pose.
"""

from .database import Candidate, DescriptorDatabase
from .descriptors import DescriptorFrame, DescriptorPairs, TriangleDescriptor, build_descriptors
from .errors import TriloopError
from .geometry import Correspondences3, RigidTransform, solve_rigid_svd
from .ingest import (
    Keyframe,
    Scan,
    accumulate_keyframe,
    read_kitti_bin,
    read_pcd_ascii,
    read_poses,
    voxel_downsample,
)
from .keypoints import KeyPoint, keyframe_keypoints
from .loop import (
    ScoredCandidate,
    plane_icp,
    plane_overlap,
    ransac_transform,
    score_candidates,
    select_loop,
)
from .pipeline import FrameExtraction, MatchingSession, PipelineConfig, extract_frame
from .planes import PlaneSet, VoxelMap, build_voxel_map, grow_planes, is_plane_voxel

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "Correspondences3",
    "DescriptorDatabase",
    "DescriptorFrame",
    "DescriptorPairs",
    "FrameExtraction",
    "Keyframe",
    "KeyPoint",
    "MatchingSession",
    "PipelineConfig",
    "PlaneSet",
    "RigidTransform",
    "Scan",
    "ScoredCandidate",
    "TriangleDescriptor",
    "TriloopError",
    "VoxelMap",
    "accumulate_keyframe",
    "build_descriptors",
    "build_voxel_map",
    "extract_frame",
    "grow_planes",
    "is_plane_voxel",
    "keyframe_keypoints",
    "plane_icp",
    "plane_overlap",
    "ransac_transform",
    "read_kitti_bin",
    "read_pcd_ascii",
    "read_poses",
    "score_candidates",
    "select_loop",
    "solve_rigid_svd",
    "voxel_downsample",
]
