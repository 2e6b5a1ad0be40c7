import struct

import numpy as np
import pytest

from triloop.errors import (
    CellOutOfRange,
    EmptyInput,
    MalformedRecord,
    NonFiniteInput,
    NonPositiveLeaf,
    TriloopError,
    UnsupportedFormat,
)
from triloop.evaluation import run_sequence
from triloop.geometry import RigidTransform, random_rotation, rotation_about_axis
from triloop.ingest import (
    Scan,
    accumulate_keyframe,
    read_kitti_bin,
    read_pcd_ascii,
    read_poses,
    voxel_downsample,
    write_kitti_bin,
    write_pcd_ascii,
)
from triloop.pipeline import PipelineConfig


def identity():
    return RigidTransform.identity()


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scan_rejects_non_finite_points(self, bad):
        pts = np.zeros((4, 3))
        pts[2, 1] = bad
        with pytest.raises(NonFiniteInput, match="1 of 4 points") as info:
            Scan(points=pts, index=7, pose=identity())
        assert isinstance(info.value, TriloopError)
        assert isinstance(info.value, ValueError)

    def test_run_sequence_rejects_nan_record(self, tmp_path):
        scan_dir = tmp_path / "scans"
        scan_dir.mkdir()
        rng = np.random.default_rng(0)
        for i in range(3):
            write_kitti_bin(scan_dir / f"{i:06d}.bin", rng.uniform(-5, 5, size=(50, 3)))
        records = np.zeros((2, 4), dtype="<f4")
        records[1, 0] = np.nan
        (scan_dir / "000001.bin").write_bytes(records.tobytes())
        pose_file = tmp_path / "poses.txt"
        pose_file.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n" * 3)
        with pytest.raises(NonFiniteInput, match="scan 1"):
            run_sequence(PipelineConfig(n_accumulate=3), scan_dir, pose_file)


class TestKittiBin:
    def test_reads_hand_built_records(self, tmp_path):
        path = tmp_path / "scan.bin"
        path.write_bytes(struct.pack("<8f", 1, 2, 3, 0.5, 4, 5, 6, 0.9))
        pts = read_kitti_bin(path)
        assert pts.shape == (2, 3)
        assert np.allclose(pts, [[1, 2, 3], [4, 5, 6]])

    def test_empty_file_gives_empty_scan(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        pts = read_kitti_bin(path)
        assert pts.shape == (0, 3)
        with pytest.raises(EmptyInput):
            Scan(points=pts, index=0, pose=identity())

    def test_rejects_partial_records(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 20)
        with pytest.raises(MalformedRecord):
            read_kitti_bin(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_kitti_bin(tmp_path / "nope.bin")

    def test_count_matches_byte_length(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-50, 50, size=(1234, 3))
        path = tmp_path / "scan.bin"
        write_kitti_bin(path, pts)
        # independent count: record size is fixed at 16 bytes
        expected = path.stat().st_size // 16
        assert len(read_kitti_bin(path)) == expected == 1234

    def test_real_kitti_scan_point_count(self):
        import os
        from pathlib import Path

        root = Path(os.environ.get("KITTI_ODOMETRY_ROOT", "data/kitti_odometry"))
        scan = root / "sequences" / "00" / "velodyne" / "000000.bin"
        if not scan.is_file():
            pytest.skip("KITTI odometry sequence 00 not available")
        pts = read_kitti_bin(scan)
        assert len(pts) == scan.stat().st_size // 16
        assert 100_000 <= len(pts) <= 130_000


class TestPcdAscii:
    def test_minimal_fixture(self, tmp_path):
        path = tmp_path / "two.pcd"
        path.write_text(
            "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            "WIDTH 2\nHEIGHT 1\nPOINTS 2\nDATA ascii\n1 2 3\n4 5 6\n"
        )
        pts = read_pcd_ascii(path)
        assert np.allclose(pts, [[1, 2, 3], [4, 5, 6]])

    def test_nan_rows_skipped(self, tmp_path):
        path = tmp_path / "nan.pcd"
        path.write_text(
            "VERSION 0.7\nFIELDS x y z\nDATA ascii\n1 2 3\nnan nan nan\n4 5 6\n"
        )
        assert len(read_pcd_ascii(path)) == 2

    def test_binary_pcd_rejected(self, tmp_path):
        path = tmp_path / "bin.pcd"
        path.write_text("VERSION 0.7\nFIELDS x y z\nDATA binary\n")
        with pytest.raises(UnsupportedFormat):
            read_pcd_ascii(path)

    def test_malformed_data_row_names_its_line(self, tmp_path):
        header = "VERSION 0.7\nFIELDS x y z\nDATA ascii\n1 2 3\n"
        for row in ("4 5", "4 five 6"):  # a missing field, a non-number
            path = tmp_path / "bad.pcd"
            path.write_text(header + row + "\n")
            with pytest.raises(MalformedRecord, match=f"bad.pcd:5: .*{row!r}"):
                read_pcd_ascii(path)

    def test_round_trip_within_ascii_precision(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-100, 100, size=(1000, 3))
        path = tmp_path / "rt.pcd"
        write_pcd_ascii(path, pts)
        back = read_pcd_ascii(path)
        assert back.shape == pts.shape
        assert np.max(np.abs(back - pts)) < 1e-4


class TestPoses:
    def test_kitti_row_major(self, tmp_path):
        t = RigidTransform(rotation_about_axis([0, 0, 1], 0.3), np.array([1.0, 2.0, 3.0]))
        path = tmp_path / "poses.txt"
        path.write_text(" ".join(f"{v:.12e}" for v in t.matrix()[:3].ravel()) + "\n")
        [back] = read_poses(path)
        assert np.allclose(back.R, t.R, atol=1e-9)
        assert np.allclose(back.t, t.t, atol=1e-9)

    def test_timestamp_quaternion_format(self, tmp_path):
        path = tmp_path / "poses.txt"
        # 90 degree yaw: q = (0, 0, sin(45), cos(45))
        s = np.sin(np.pi / 4)
        path.write_text(f"0.0 1.0 2.0 3.0 0 0 {s:.17g} {s:.17g}\n")
        [back] = read_poses(path)
        assert np.allclose(back.apply([1, 0, 0]), [1, 3, 3], atol=1e-9)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(MalformedRecord):
            read_poses(path)

    def test_bad_value_names_its_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        # a non-number, a NaN, an infinity, a zero quaternion
        for line in ("0 1 2 3 0 0 zero 1", "0 1 2 nan 0 0 0 1",
                     "1 0 0 inf 0 1 0 0 0 0 1 0", "0 1 2 3 0 0 0 0"):
            path.write_text(f"# header\n0 1 2 3 0 0 0 1\n{line}\n")
            with pytest.raises(MalformedRecord, match="poses.txt:3: "):
                read_poses(path)


class TestAccumulate:
    def test_single_scan(self):
        pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        pose = RigidTransform(rotation_about_axis([0, 1, 0], 0.2), np.array([1.0, 0.0, 0.0]))
        kf = accumulate_keyframe([Scan(points=pts, index=0, pose=pose)], keyframe_id=0)
        assert np.allclose(kf.cloud, pts)
        assert np.allclose(kf.anchor_pose.matrix(), pose.matrix())
        assert kf.scan_range == (0, 0)

    def test_two_identical_scans_identity_pose(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        scans = [Scan(points=pts, index=i, pose=identity()) for i in range(2)]
        kf = accumulate_keyframe(scans)
        assert len(kf.cloud) == 4
        assert np.allclose(kf.cloud[:2], kf.cloud[2:])

    def test_known_offset_lands_points_at_mapped_coordinates(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-5, 5, size=(20, 3))
        rel = RigidTransform(rotation_about_axis([1, 1, 0], 0.5), np.array([2.0, -1.0, 0.5]))
        scans = [
            Scan(points=pts, index=0, pose=identity()),
            Scan(points=pts, index=1, pose=rel),
        ]
        kf = accumulate_keyframe(scans)
        # oracle: the accumulator must place scan-2 points exactly where
        # apply_transform puts them
        assert np.array_equal(kf.cloud[20:], rel.apply(pts))

    def test_unequal_scans_land_in_their_blocks_bit_for_bit(self):
        rng = np.random.default_rng(4)
        sizes = (7, 31, 2)
        scans = [
            Scan(points=rng.uniform(-5, 5, size=(n, 3)), index=10 + i,
                 pose=RigidTransform(random_rotation(rng), rng.uniform(-3, 3, 3)))
            for i, n in enumerate(sizes)
        ]
        kf = accumulate_keyframe(scans, keyframe_id=4)
        assert kf.cloud.shape == (sum(sizes), 3) and kf.scan_range == (10, 12)
        assert np.array_equal(kf.cloud[:7], scans[0].points)
        anchor_inv = scans[0].pose.inverse()
        for scan, lo, hi in zip(scans[1:], (7, 38), (38, 40)):
            expected = anchor_inv.compose(scan.pose).apply(scan.points)
            assert np.array_equal(kf.cloud[lo:hi], expected)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            accumulate_keyframe([])

    def test_invariant_under_world_frame_change(self):
        rng = np.random.default_rng(3)
        pts_a = rng.uniform(-5, 5, size=(15, 3))
        pts_b = rng.uniform(-5, 5, size=(15, 3))
        pose_a = RigidTransform(random_rotation(rng), rng.uniform(-3, 3, 3))
        pose_b = RigidTransform(random_rotation(rng), rng.uniform(-3, 3, 3))
        world_shift = RigidTransform(random_rotation(rng), rng.uniform(-100, 100, 3))

        kf1 = accumulate_keyframe(
            [Scan(pts_a, 0, pose_a), Scan(pts_b, 1, pose_b)]
        )
        kf2 = accumulate_keyframe(
            [
                Scan(pts_a, 0, world_shift.compose(pose_a)),
                Scan(pts_b, 1, world_shift.compose(pose_b)),
            ]
        )
        assert np.max(np.abs(kf1.cloud - kf2.cloud)) < 1e-9


class TestVoxelDownsample:
    def test_same_cell_midpoint(self):
        pts = np.array([[0.1, 0.1, 0.1], [0.3, 0.3, 0.3]])
        out = voxel_downsample(pts, 0.5)
        assert out.shape == (1, 3)
        assert np.allclose(out[0], [0.2, 0.2, 0.2])

    def test_spaced_points_survive(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        out = voxel_downsample(pts + 0.25, 0.5)
        assert len(out) == 3

    def test_count_matches_cell_set_oracle(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 10, size=(10_000, 3))
        leaf = 0.5
        out = voxel_downsample(pts, leaf)
        # independent oracle: count distinct occupied cells with a python set
        cells = {tuple(int(np.floor(c / leaf)) for c in p) for p in pts}
        assert len(out) == len(cells)

    def test_idempotent_on_occupied_cells(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 5, size=(2000, 3))
        leaf = 0.5
        once = voxel_downsample(pts, leaf)
        twice = voxel_downsample(once, leaf)
        cells_once = {tuple(np.floor(p / leaf).astype(int)) for p in once}
        cells_twice = {tuple(np.floor(p / leaf).astype(int)) for p in twice}
        assert cells_once == cells_twice

    def test_output_sorted_by_cell_index(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-5, 5, size=(500, 3))
        out = voxel_downsample(pts, 0.5)
        cells = [tuple(np.floor(p / 0.5).astype(int)) for p in out]
        assert cells == sorted(cells)

    def test_rejects_bad_leaf(self):
        for leaf in (0.0, float("nan")):
            with pytest.raises(NonPositiveLeaf):
                voxel_downsample(np.zeros((1, 3)), leaf)

    def test_out_of_range_cells_raise(self):
        # cells beyond int64: casting would wrap both far points to INT64_MIN
        with pytest.raises(CellOutOfRange) as info:
            voxel_downsample(np.array([[1e30, 0, 0], [-1e30, 0, 0], [0, 0, 0]]), 0.25)
        assert isinstance(info.value, TriloopError) and isinstance(info.value, ValueError)
        # two distinct far points would wrap into one cell of a one-cell box
        with pytest.raises(CellOutOfRange):
            voxel_downsample(np.array([[1e30, 0, 0], [3e30, 0, 0]]), 0.25)
        # each cell fits an int64, but the cell box has more cells than a key holds
        with pytest.raises(CellOutOfRange):
            voxel_downsample(np.array([[-4e18, 0, 0], [4e18, 1, 0]]), 1.0)
        with pytest.raises(CellOutOfRange):
            voxel_downsample(np.array([[np.nan, 0, 0], [0, 0, 0]]), 1.0)

    def test_widest_cell_box_that_fits_is_exact(self):
        # extreme but representable cells still group and sort exactly
        pts = np.array([[-4e18, 0.5, 0.5], [4e18, 0.5, 0.5], [-4e18, 0.5, 0.5], [0.5, 0.5, 0.5]])
        out = voxel_downsample(pts, 1.0)
        assert np.array_equal(out, [[-4e18, 0.5, 0.5], [0.5, 0.5, 0.5], [4e18, 0.5, 0.5]])
