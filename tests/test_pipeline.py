import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import triloop
from triloop.errors import ConfigError
from triloop.pipeline import _RULES, MatchingSession, PipelineConfig, extract_frame

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
        # a misspelt key, and keys of settings that became constants
        path = tmp_path / "run.cfg"
        for line in ("sigma_pz = 0.5", "connectivity = 6", "degenerate_slack = 0.1",
                     "dedup_resolution = 0.01"):
            path.write_text(f"{line}\n")
            with pytest.raises(ConfigError, match="unknown parameter"):
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

    def test_negative_max_keypoints_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="max_keypoints"):
            PipelineConfig(max_keypoints=-5)
        path = tmp_path / "run.cfg"
        path.write_text("max_keypoints = -1\n")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(path)
        assert PipelineConfig(max_keypoints=0).max_keypoints == 0

    @pytest.mark.parametrize("field, value", [
        ("delta_l", "0"), ("delta_l", "inf"), ("delta_n", "nan"), ("delta_n", "-0.1"),
        ("n_accumulate", "0"), ("n_accumulate", "-3"), ("skip_recent", "-1"),
        ("downsample_leaf", "-1"), ("downsample_leaf", "nan"),
        ("gt_radius", "nan"), ("gt_radius", "-1"), ("gt_radius", "inf"),
        ("sigma_pc", "nan"), ("sigma_pc", "-0.1"), ("sigma_pc", "1.5"),
        ("inlier_tol", "-1"), ("inlier_tol", "0"), ("inlier_tol", "nan"), ("inlier_tol", "inf"),
        ("iterations", "0"), ("iterations", "-1"), ("k_neighbors", "0"), ("k_neighbors", "1"),
        ("sigma_n", "nan"), ("sigma_n", "0"), ("sigma_d", "nan"), ("sigma_d", "-0.3"),
        ("sigma_d", "inf"), ("voxel_size", "nan"), ("voxel_size", "0"), ("pixel_size", "nan"),
        ("pixel_size", "-0.5"), ("sigma1", "nan"), ("sigma1", "0"), ("sigma2", "nan"),
        ("sigma2", "-0.05"), ("min_dist", "nan"), ("min_dist", "-1"), ("min_side", "nan"),
        ("min_side", "inf"), ("normal_merge_tol", "nan"), ("normal_merge_tol", "0"),
        ("dist_merge_tol", "nan"), ("dist_merge_tol", "inf"), ("refine_sigma_n", "nan"),
        ("refine_sigma_n", "0"), ("refine_sigma_d", "nan"), ("refine_sigma_d", "-0.1"),
        ("seed", "-1"),
    ])
    def test_values_that_crash_or_miscount_rejected(self, tmp_path, field, value):
        with pytest.raises(ConfigError, match=field):
            PipelineConfig(**{field: type(getattr(PipelineConfig, field))(value)})
        path = tmp_path / "run.cfg"
        path.write_text(f"{field} = {value}\n")
        with pytest.raises(ConfigError, match=field):
            PipelineConfig.from_file(path)

    def test_boundary_values_accepted(self):
        cfg = PipelineConfig(n_accumulate=1, skip_recent=0, downsample_leaf=0.0)
        assert (cfg.n_accumulate, cfg.skip_recent, cfg.downsample_leaf) == (1, 0, 0.0)
        cfg = PipelineConfig(gt_radius=0.0, sigma_pc=1.0, iterations=1, k_neighbors=2)
        assert (cfg.gt_radius, cfg.sigma_pc, cfg.iterations, cfg.k_neighbors) == (0.0, 1.0, 1, 2)
        assert PipelineConfig(sigma_pc=0.0).sigma_pc == 0.0
        cfg = PipelineConfig(sigma2=0.0, min_dist=0.0, min_side=0.0, seed=0)
        assert (cfg.sigma2, cfg.min_dist, cfg.min_side, cfg.seed) == (0.0, 0.0, 0.0, 0)

    def test_every_float_field_has_a_rule(self):
        ruled = {name for names, _, _ in _RULES for name in names}
        floats = {f.name for f in dataclasses.fields(PipelineConfig) if f.type == "float"}
        assert floats and floats <= ruled, sorted(floats - ruled)

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
        session.process_keyframe(0, keyframes[0].cloud)
        with pytest.raises(DuplicateFrame):
            session.process_keyframe(0, keyframes[0].cloud)


def test_every_export_resolves():
    assert len(set(triloop.__all__)) == len(triloop.__all__)
    missing = [name for name in triloop.__all__ if not hasattr(triloop, name)]
    assert missing == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench(name):
    """perfbench/<name>.py, loaded from its file without touching it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load_perfbench("tracer")


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


def test_tracer_counts_back_half(keyframes):
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    session = MatchingSession(PipelineConfig(skip_recent=2, n_accumulate=6, gt_radius=25.0))
    tracer.install()
    try:
        outcomes = [session.process_keyframe(kf.id, kf.cloud) for kf in keyframes]
    finally:
        tracer.uninstall()
    counts = tracer.metrics()
    scored = [s for o in outcomes for s in o.scored]
    verified = [s for s in scored if s.transform is not None]
    assert counts["descriptors.count"] == sum(len(o.extraction.descriptors) for o in outcomes) > 0
    assert counts["database.candidates"] == len(scored) > 0
    assert counts["database.pairs"] == sum(s.votes for s in scored) > 0
    assert counts["database.descriptors_indexed"] == session.db.descriptors_indexed
    assert counts["loop.ransac_calls"] >= len(verified) > 0
    assert counts["loop.accepted"] == sum(o.loop is not None for o in outcomes) > 0
    inliers = sum(s.inlier_pairs for s in verified)
    assert counts["loop.inlier_ratio"] == inliers / tracer.counts["loop.pairs_in"] > 0


def test_db_churn_checks_hold_on_the_library(monkeypatch, tmp_path):
    # db_churn's own checks (vote oracle, one pair per vote, snapshot answers)
    # read descriptor frames and candidate pairs; run them on three frames
    # db_churn imports its helpers as the top-level module ``common``
    spec = importlib.util.spec_from_file_location("common", PERFBENCH / "common.py")
    common = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "common", common)
    spec.loader.exec_module(common)
    churn = _load_perfbench("db_churn")
    from triloop import database, descriptors, keypoints

    cfg = PipelineConfig()
    rng = np.random.default_rng(0)
    keysets, frames = [], []
    while len(frames) < 3:
        fid = len(frames)
        keyset = (churn.reobserve(rng, *keysets[0]) if fid == 2
                  else churn.random_keypoints(rng, churn.KEYPOINTS))
        frame = churn.make_frame(descriptors, keypoints, cfg, fid, *keyset)
        if frame is not None:
            keysets.append(keyset)
            frames.append(frame)
    assert [len(f) for f in frames] == [churn.FRAME_DESCRIPTORS] * 3

    db = database.DescriptorDatabase(delta_l=cfg.delta_l, delta_n=cfg.delta_n)
    oracle = churn.VoteOracle()
    for fid, frame in enumerate(frames):
        cells = churn.signature_cells(frame, cfg.delta_l, cfg.delta_n)
        cands = churn._query_insert(db, fid, frame)
        assert [(c.frame_id, c.votes) for c in cands] == oracle.query(cells)
        assert all(len(c.pairs) == c.votes for c in cands)
        oracle.add(fid, cells)
    assert cands[0].frame_id == 0  # the re-observed frame leads

    path = tmp_path / "db.snapshot"
    db.save(path)
    loaded = database.DescriptorDatabase.load(path)
    answer = db.query_candidates(frames[2], skip_recent=0)
    assert churn.same_answer(answer, loaded.query_candidates(frames[2], skip_recent=0))
    assert not churn.same_answer(answer, answer[1:])
