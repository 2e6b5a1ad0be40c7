import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import triloop
from triloop.errors import ConfigError
from triloop.pipeline import MatchingSession, PipelineConfig, extract_frame

from worlds import build_keyframes, loop_trajectory, main_world


@pytest.fixture(scope="module")
def world():
    return main_world()


@pytest.fixture(scope="module")
def keyframes(world):
    return build_keyframes(world, loop_trajectory(), n_accumulate=6)


class TestConfig:
    def test_defaults_match_evaluated_setup(self):
        cfg = PipelineConfig()
        assert cfg.voxel_size == 1.0
        assert cfg.sigma1 == 0.01 and cfg.sigma2 == 0.05
        assert cfg.sigma_n == 0.2 and cfg.sigma_d == 0.3
        assert cfg.sigma_pc == 0.5
        assert cfg.k_neighbors == 20
        assert cfg.n_accumulate == 10
        assert cfg.gt_radius == 20.0

    def test_round_trip_through_file(self, tmp_path):
        cfg = PipelineConfig(sigma_pc=0.6, seed=42, refine=False, n_accumulate=5)
        path = tmp_path / "run.cfg"
        cfg.write(path)
        assert PipelineConfig.from_file(path) == cfg

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nsigma_pc = 0.7  # inline\nseed=3\n")
        cfg = PipelineConfig.from_file(path)
        assert cfg.sigma_pc == 0.7
        assert cfg.seed == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sigma_pz = 0.5\n")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = banana\n")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(path)

    def test_unknown_mode_rejected(self, tmp_path):
        for mode in ("First", "bogus", ""):  # case matters: no silent fallback to best
            with pytest.raises(ConfigError):
                PipelineConfig(mode=mode)
        path = tmp_path / "run.cfg"
        path.write_text("mode = First\n")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(path)
        assert PipelineConfig(mode="best").mode == "best"

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sigma_pc 0.5\n")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(path)


class TestExtractFrame:
    def test_produces_planes_keypoints_descriptors(self, keyframes):
        cfg = PipelineConfig()
        ext = extract_frame(keyframes[0].cloud, 0, cfg)
        assert ext.n_plane_voxels > 100
        assert len(ext.planes) > 10
        assert 3 <= len(ext.keypoints) <= cfg.max_keypoints
        assert len(ext.descriptors) > 100
        assert all(d.frame_id == 0 for d in ext.descriptors)

    def test_deterministic(self, keyframes):
        cfg = PipelineConfig()
        a = extract_frame(keyframes[0].cloud, 0, cfg)
        b = extract_frame(keyframes[0].cloud, 0, cfg)
        assert len(a.descriptors) == len(b.descriptors)
        for da, db in zip(a.descriptors, b.descriptors):
            assert np.array_equal(da.vertices, db.vertices)


class TestMatchingSession:
    def test_revisit_detected_with_180_heading_change(self, keyframes):
        cfg = PipelineConfig(skip_recent=2, n_accumulate=6, gt_radius=25.0)
        session = MatchingSession(cfg)
        loops = {}
        for kf in keyframes:
            outcome = session.process_keyframe(kf.id, kf.cloud)
            if outcome.loop:
                loops[kf.id] = outcome.loop
        assert loops, "return pass should close a loop against the forward pass"
        kf_by_id = {kf.id: kf for kf in keyframes}
        for qid, loop in loops.items():
            truth = (
                kf_by_id[loop.frame_id]
                .anchor_pose.inverse()
                .compose(kf_by_id[qid].anchor_pose)
            )
            assert np.linalg.norm(loop.transform.t - truth.t) < 0.1
            assert loop.overlap >= cfg.sigma_pc

    def test_duplicate_keyframe_id_rejected(self, keyframes):
        from triloop.errors import DuplicateFrame

        cfg = PipelineConfig(skip_recent=2)
        session = MatchingSession(cfg)
        session.add_frame(0, keyframes[0].cloud)
        with pytest.raises(DuplicateFrame):
            session.add_frame(0, keyframes[0].cloud)


def test_every_export_resolves():
    assert len(set(triloop.__all__)) == len(triloop.__all__)
    missing = [name for name in triloop.__all__ if not hasattr(triloop, name)]
    assert missing == []


def _load_tracer():
    """perfbench/tracer.py, loaded from its file without touching it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    # the benchmark's layer trace wraps these names; a missing one would
    # silently report its layer as absent
    tracer = _load_tracer()
    missing = []
    for module_name, cls_name, attr, span, *_ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name, None)
        target = vars(owner).get(attr) if owner is not None else None
        if not callable(getattr(target, "__func__", target)):
            missing.append(f"{module_name}.{cls_name or ''}.{attr} ({span})")
    assert missing == []


def test_tracer_counts_front_half(keyframes):
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        extraction = extract_frame(keyframes[0].cloud, 0, PipelineConfig())
    finally:
        tracer.uninstall()
    counts = tracer.metrics()
    assert counts["planes.voxels"] > counts["planes.plane_voxels"] > 0
    assert counts["planes.plane_voxels"] == extraction.n_plane_voxels
    assert counts["planes.planes"] == len(extraction.planes) > 0
    assert counts["keypoints.count"] == len(extraction.keypoints) > 0
    assert counts["ingest.points_out"] < counts["ingest.points_in"] == len(keyframes[0].cloud)
