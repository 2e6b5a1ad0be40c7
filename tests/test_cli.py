import hashlib
import json

import numpy as np
import pytest

from triloop.cli import EXIT_CONFIG, main
from triloop.evaluation import read_records_csv
from triloop.ingest import read_kitti_bin, write_pcd_ascii
from triloop.loop import select_loop
from triloop.pipeline import PipelineConfig
from triloop.synthetic import write_sequence, yaw_pose

from worlds import CROP_RANGE, loop_trajectory, main_world


@pytest.fixture(scope="module")
def world():
    return main_world(jitter=0.01)


def write_config(path, **overrides):
    cfg = PipelineConfig(
        n_accumulate=5, skip_recent=2, gt_radius=12.0, **overrides
    )
    cfg.write(path)
    return cfg


@pytest.fixture(scope="module")
def loop_run(tmp_path_factory, world):
    """One 30-scan out-and-back run through the CLI, reused by several tests."""
    base = tmp_path_factory.mktemp("loop_run")
    poses = loop_trajectory(spacing=1.5)[:30]  # 15 out, 15 back
    scan_dir, pose_file = write_sequence(base, world, poses, max_range=CROP_RANGE)
    cfg_path = base / "run.cfg"
    write_config(cfg_path)
    out_dir = base / "out"
    code = main(
        ["run", "--config", str(cfg_path), "--scans", str(scan_dir),
         "--poses", str(pose_file), "--out", str(out_dir)]
    )
    assert code == 0
    return base, scan_dir, pose_file, cfg_path, out_dir


class TestRun:
    def test_loop_trajectory_detects_revisit_accurately(self, loop_run):
        _, _, _, _, out_dir = loop_run
        records = read_records_csv(out_dir / "records.csv")
        assert len(records) == 6
        detections = [r for r in records if r.detected_id is not None]
        assert detections, "loop trajectory must produce at least one detection"
        for r in detections:
            assert r.trans_err_m < 0.1
            assert r.rot_err_deg < 0.5

    def test_detections_reselect_from_saved_candidates(self, loop_run):
        # the online detection and the offline re-score use one rule,
        # also after the CSV round trip of the candidate overlaps
        _, _, _, cfg_path, out_dir = loop_run
        cfg = PipelineConfig.from_file(cfg_path)
        records = read_records_csv(out_dir / "records.csv")
        assert any(r.detected_id is not None for r in records)
        for r in records:
            loop = select_loop(r.candidates, cfg.sigma_pc, cfg.mode)
            assert r.detected_id == (None if loop is None else loop.frame_id), r.query_id

    def test_outputs_complete(self, loop_run):
        _, _, _, _, out_dir = loop_run
        for name in ("records.csv", "timings.csv", "gt.csv", "pr.csv", "summary.json"):
            assert (out_dir / name).exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["n_keyframes"] == 6
        assert summary["n_detections"] >= 1
        assert summary["fp"] == 0

    def test_summary_latency_totals_match_records(self, loop_run):
        _, _, _, _, out_dir = loop_run
        summary = json.loads((out_dir / "summary.json").read_text())
        timings = (out_dir / "timings.csv").read_text().splitlines()[1:]
        for column, stage in ((1, "extract"), (2, "query"), (3, "verify")):
            total = sum(float(line.split(",")[column]) for line in timings)
            assert abs(summary["stage_ms"][stage]["total"] - total) < 1.0

    def test_deterministic_outputs(self, loop_run):
        base, scan_dir, pose_file, cfg_path, out_dir = loop_run
        rerun = base / "out2"
        code = main(
            ["run", "--config", str(cfg_path), "--scans", str(scan_dir),
             "--poses", str(pose_file), "--out", str(rerun)]
        )
        assert code == 0
        for name in ("records.csv", "pr.csv", "gt.csv"):
            assert (out_dir / name).read_bytes() == (rerun / name).read_bytes()

    def test_outputs_match_pinned_digests(self, loop_run):
        # The byte-stable outputs of the loop run, pinned: a change to
        # planes, key points, descriptors, retrieval, RANSAC, plane overlap
        # or the plane-ICP pose (rot_err_deg, trans_err_m) shows here.
        # summary.json and timings.csv carry wall times and are left out.
        _, _, _, _, out_dir = loop_run
        pinned = {
            "records.csv": "7e82d37e0cbd97377d2bfe91df0e597f47e86052a08cc3c049b11d72e076a64f",
            "gt.csv": "b255c51dd0335551e991bfaf5212f9c9c110c4bbd67672c64f425b11a8104f7a",
            "pr.csv": "719668d59a829be3700360ac074c578c93778a044d1424ce42ed367406af5d40",
        }
        for name, digest in pinned.items():
            assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest, name

    def test_downsample_leaf_from_config(self, tmp_path, world):
        poses = [yaw_pose(6.0 + 1.5 * i, 9.0, 1.5, 0.0) for i in range(5)]
        scan_dir, pose_file = write_sequence(tmp_path, world, poses, max_range=CROP_RANGE)
        cfg_path = tmp_path / "run.cfg"
        for leaf in (0.6, 0.0):  # 0 disables pre-extraction downsampling
            write_config(cfg_path, downsample_leaf=leaf)
            out_dir = tmp_path / f"out_{leaf}"
            code = main(
                ["run", "--config", str(cfg_path), "--scans", str(scan_dir),
                 "--poses", str(pose_file), "--out", str(out_dir)]
            )
            assert code == 0
            summary = json.loads((out_dir / "summary.json").read_text())
            assert summary["config"]["downsample_leaf"] == leaf

    def test_no_revisit_means_no_detections(self, tmp_path, world):
        poses = [yaw_pose(6.0 + 1.5 * i, 9.0, 1.5, 0.0) for i in range(15)]
        scan_dir, pose_file = write_sequence(tmp_path, world, poses, max_range=CROP_RANGE)
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path)
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--config", str(cfg_path), "--scans", str(scan_dir),
             "--poses", str(pose_file), "--out", str(out_dir)]
        )
        assert code == 0
        records = read_records_csv(out_dir / "records.csv")
        assert all(r.detected_id is None for r in records)


class TestSweep:
    def test_sweep_from_saved_records(self, loop_run):
        base, _, _, _, out_dir = loop_run
        out_csv = base / "pr_fine.csv"
        code = main(
            ["sweep", "--records", str(out_dir / "records.csv"),
             "--gt", str(out_dir / "gt.csv"), "--out", str(out_csv),
             "--grid", "0.05:0.95:0.05"]
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "sigma_pc,tp,fp,fn,precision,recall"
        assert len(lines) == 1 + 19
        # without --grid, the sweep is the one the run wrote
        code = main(
            ["sweep", "--records", str(out_dir / "records.csv"),
             "--gt", str(out_dir / "gt.csv"), "--out", str(out_csv)]
        )
        assert code == 0
        assert out_csv.read_bytes() == (out_dir / "pr.csv").read_bytes()

    def test_thresholds_keep_the_grid_digits(self, loop_run):
        # two decimals used to label 0.001-0.004 all "0.00", and 0.375 "0.38"
        base, _, _, _, out_dir = loop_run
        out_csv = base / "pr_digits.csv"
        for grid, labels in (
            ("0.001:0.004:0.001", ["0.001", "0.002", "0.003", "0.004"]),
            ("0.125:0.875:0.125", ["0.125", "0.25", "0.375", "0.50", "0.625", "0.75", "0.875"]),
        ):
            code = main(
                ["sweep", "--records", str(out_dir / "records.csv"),
                 "--gt", str(out_dir / "gt.csv"), "--out", str(out_csv), "--grid", grid]
            )
            assert code == 0
            rows = out_csv.read_text().splitlines()[1:]
            assert [row.split(",")[0] for row in rows] == labels, grid

    def test_sweep_mode_selects_like_the_run(self, tmp_path):
        # query 10: the first passing candidate (3) is no loop, the one with
        # the best overlap (7) is; query 11 picks 5 either way
        records = tmp_path / "records.csv"
        records.write_text(
            "query_id,detected_id,overlap,votes,rot_err_deg,trans_err_m,candidates\n"
            "10,7,0.900000,30,,,3:40:0.600000;7:30:0.900000\n"
            "11,5,0.800000,25,,,5:25:0.800000;2:20:0.400000\n"
        )
        gt = tmp_path / "gt.csv"
        gt.write_text("query_id,loop_ids\n10,7\n11,5\n")
        expected = {
            "first": ["0.50,1,1,0,0.500000,1.000000", "0.70,2,0,0,1.000000,1.000000"],
            "best": ["0.50,2,0,0,1.000000,1.000000", "0.70,2,0,0,1.000000,1.000000"],
        }
        for mode, rows in expected.items():
            out_csv = tmp_path / f"pr_{mode}.csv"
            code = main(
                ["sweep", "--records", str(records), "--gt", str(gt),
                 "--out", str(out_csv), "--grid", "0.5:0.7:0.2", "--mode", mode]
            )
            assert code == 0
            assert out_csv.read_text().splitlines()[1:] == rows, mode

    def test_bad_grid_is_config_error(self, loop_run):
        # a step that vanishes against the start, or too many points, used to
        # loop or grow the grid without bound
        base, _, _, _, out_dir = loop_run
        for grid in ("zebra", "1e20:2e20:1", "0:1e20:1"):
            code = main(
                ["sweep", "--records", str(out_dir / "records.csv"),
                 "--gt", str(out_dir / "gt.csv"), "--out", str(base / "x.csv"),
                 "--grid", grid]
            )
            assert code == 2, grid
            assert not (base / "x.csv").exists()

    def test_non_finite_grid_is_config_error(self, loop_run, capsys):
        # an infinite stop or step used to grow the grid without bound, a NaN
        # to give an empty grid or the start alone
        base, _, _, _, out_dir = loop_run
        for grid in ("0.1:inf:0.1", "nan:0.9:0.1", "0.1:nan:0.1", "0.1:0.9:nan",
                     "-inf:0.9:0.1", "0.1:0.9:inf"):
            out_csv = base / "nonfinite.csv"
            code = main(
                ["sweep", "--records", str(out_dir / "records.csv"),
                 "--gt", str(out_dir / "gt.csv"), "--out", str(out_csv), f"--grid={grid}"]
            )
            assert code == EXIT_CONFIG, grid
            assert "finite" in capsys.readouterr().err, grid
            assert not out_csv.exists()

    def test_malformed_records_row_is_io_error(self, loop_run, tmp_path, capsys):
        _, _, _, _, out_dir = loop_run
        lines = (out_dir / "records.csv").read_text().splitlines()
        fields = lines[2].split(",")
        # too few fields, then a non-number in the votes column
        for row in (",".join(fields[:4]), ",".join(fields[:3] + ["many"] + fields[4:])):
            records = tmp_path / "records.csv"
            records.write_text("\n".join(lines[:2] + [row] + lines[3:]) + "\n")
            code = main(
                ["sweep", "--records", str(records), "--gt", str(out_dir / "gt.csv"),
                 "--out", str(tmp_path / "pr.csv")]
            )
            assert code == 3, row
            assert "records.csv:3: " in capsys.readouterr().err, row

    def test_gt_without_header_is_io_error(self, loop_run, tmp_path, capsys):
        # a reader that skips line 1 unread would drop query 0's loops
        _, _, _, _, out_dir = loop_run
        gt = tmp_path / "gt.csv"
        gt.write_text("".join((out_dir / "gt.csv").read_text().splitlines(True)[1:]))
        code = main(
            ["sweep", "--records", str(out_dir / "records.csv"), "--gt", str(gt),
             "--out", str(tmp_path / "pr.csv")]
        )
        assert code == 3
        assert "gt.csv:1: " in capsys.readouterr().err
        assert not (tmp_path / "pr.csv").exists()


class TestExitCodes:
    def test_missing_scan_dir_is_io_error(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path)
        (tmp_path / "poses.txt").write_text("")
        code = main(
            ["run", "--config", str(cfg_path), "--scans", str(tmp_path / "nope"),
             "--poses", str(tmp_path / "poses.txt"), "--out", str(tmp_path / "out")]
        )
        assert code == 3

    def test_bad_config_is_config_error(self, tmp_path, world):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("nonsense = 1\n")
        poses = [yaw_pose(6.0 + i, 9.0, 1.5, 0.0) for i in range(3)]
        scan_dir, pose_file = write_sequence(tmp_path, world, poses)
        code = main(
            ["run", "--config", str(cfg_path), "--scans", str(scan_dir),
             "--poses", str(pose_file), "--out", str(tmp_path / "out")]
        )
        assert code == 2

    def test_unknown_mode_is_config_error(self, tmp_path, world):
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path)
        cfg_path.write_text(cfg_path.read_text() + "mode = First\n")  # the last line wins
        poses = [yaw_pose(6.0 + i, 9.0, 1.5, 0.0) for i in range(3)]
        scan_dir, pose_file = write_sequence(tmp_path, world, poses)
        code = main(
            ["run", "--config", str(cfg_path), "--scans", str(scan_dir),
             "--poses", str(pose_file), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_negative_max_keypoints_is_config_error(self, tmp_path, world):
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path)
        cfg_path.write_text(cfg_path.read_text() + "max_keypoints = -5\n")
        poses = [yaw_pose(6.0 + i, 9.0, 1.5, 0.0) for i in range(3)]
        scan_dir, pose_file = write_sequence(tmp_path, world, poses)
        code = main(
            ["run", "--config", str(cfg_path), "--scans", str(scan_dir),
             "--poses", str(pose_file), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", [
        "delta_l = 0", "delta_n = nan", "n_accumulate = 0", "skip_recent = -1",
        "downsample_leaf = -1", "gt_radius = nan", "sigma_pc = nan", "inlier_tol = -1",
        "iterations = 0", "k_neighbors = 0", "sigma_n = nan", "sigma_d = nan", "seed = -1",
        "voxel_size = nan", "sigma1 = nan", "dist_merge_tol = nan",
    ])
    def test_value_that_crashes_or_miscounts_is_config_error(self, tmp_path, world, line):
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path)
        cfg_path.write_text(cfg_path.read_text() + line + "\n")
        scan_dir, pose_file = write_sequence(tmp_path, world, [yaw_pose(6.0, 9.0, 1.5, 0.0)])
        code = main(
            ["run", "--config", str(cfg_path), "--scans", str(scan_dir),
             "--poses", str(pose_file), "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_negative_or_nan_degenerate_slack_is_config_error(self, tmp_path, world):
        # degenerate_slack is a constant now, so any value names an unknown key
        poses = [yaw_pose(6.0 + i, 9.0, 1.5, 0.0) for i in range(3)]
        scan_dir, pose_file = write_sequence(tmp_path, world, poses)
        for value in ("-0.1", "nan"):
            cfg_path = tmp_path / "run.cfg"
            write_config(cfg_path)
            cfg_path.write_text(cfg_path.read_text() + f"degenerate_slack = {value}\n")
            code = main(
                ["run", "--config", str(cfg_path), "--scans", str(scan_dir),
                 "--poses", str(pose_file), "--out", str(tmp_path / "out")]
            )
            assert code == EXIT_CONFIG, value
            assert not (tmp_path / "out").exists()

    def test_bad_connectivity_is_config_error(self, tmp_path, world):
        # plane growing is face-neighbour only now, so connectivity is an unknown key
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path)
        cfg_path.write_text(cfg_path.read_text() + "connectivity = 18\n")
        poses = [yaw_pose(6.0 + i, 9.0, 1.5, 0.0) for i in range(3)]
        scan_dir, pose_file = write_sequence(tmp_path, world, poses)
        code = main(
            ["run", "--config", str(cfg_path), "--scans", str(scan_dir),
             "--poses", str(pose_file), "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_removed_setting_is_config_error(self, tmp_path, world, capsys):
        # these settings are constants now; an old config or command line
        # that still names one is refused before any output is written
        scan_dir, pose_file = write_sequence(tmp_path, world, [yaw_pose(6.0, 9.0, 1.5, 0.0)])
        cfg_path = tmp_path / "run.cfg"
        args = ["run", "--scans", str(scan_dir), "--poses", str(pose_file),
                "--out", str(tmp_path / "out")]
        for line in ("connectivity = 6", "degenerate_slack = 0.1", "dedup_resolution = 0.01"):
            write_config(cfg_path)
            n_lines = len(cfg_path.read_text().splitlines())
            cfg_path.write_text(cfg_path.read_text() + line + "\n")
            assert main(args + ["--config", str(cfg_path)]) == EXIT_CONFIG, line
            assert f"{cfg_path}:{n_lines + 1}: unknown parameter" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--downsample-leaf", "0.6"])
        assert exit_info.value.code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["delta_l = 1e-300", "pixel_size = 1e-300"])
    def test_cells_beyond_int64_are_io_error(self, tmp_path, world, capsys, line):
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path)
        cfg_path.write_text(cfg_path.read_text() + line + "\n")
        scan_dir, pose_file = write_sequence(tmp_path, world, [yaw_pose(6.0, 9.0, 1.5, 0.0)])
        code = main(
            ["run", "--config", str(cfg_path), "--scans", str(scan_dir),
             "--poses", str(pose_file), "--out", str(tmp_path / "out")]
        )
        assert code == 3
        assert "int64 range" in capsys.readouterr().err

    def test_pose_count_mismatch_is_config_error(self, tmp_path, world):
        poses = [yaw_pose(6.0 + i, 9.0, 1.5, 0.0) for i in range(3)]
        scan_dir, pose_file = write_sequence(tmp_path, world, poses)
        lines = pose_file.read_text().splitlines()
        pose_file.write_text("\n".join(lines[:2]) + "\n")
        code = main(
            ["run", "--scans", str(scan_dir), "--poses", str(pose_file),
             "--out", str(tmp_path / "out")]
        )
        assert code == 2

    def test_non_finite_scan_point_is_io_error(self, tmp_path, world):
        poses = [yaw_pose(6.0 + i, 9.0, 1.5, 0.0) for i in range(3)]
        scan_dir, pose_file = write_sequence(tmp_path, world, poses)
        (scan_dir / "000001.bin").write_bytes(np.array([[np.nan, 0, 0, 0]], dtype="<f4").tobytes())
        code = main(
            ["run", "--scans", str(scan_dir), "--poses", str(pose_file),
             "--out", str(tmp_path / "out")]
        )
        assert code == 3

    def test_out_of_range_scan_point_is_io_error(self, tmp_path, world, capsys):
        # finite, but 1e30 m cannot be given an int64 downsampling cell
        poses = [yaw_pose(6.0 + i, 9.0, 1.5, 0.0) for i in range(3)]
        scan_dir, pose_file = write_sequence(tmp_path, world, poses)
        (scan_dir / "000001.bin").write_bytes(np.array([[1e30, 0, 0, 0]], dtype="<f4").tobytes())
        code = main(
            ["run", "--scans", str(scan_dir), "--poses", str(pose_file),
             "--out", str(tmp_path / "out")]
        )
        assert code == 3
        assert "int64" in capsys.readouterr().err

    def test_non_numeric_pose_is_io_error(self, tmp_path, world, capsys):
        poses = [yaw_pose(6.0 + i, 9.0, 1.5, 0.0) for i in range(3)]
        scan_dir, pose_file = write_sequence(tmp_path, world, poses)
        lines = pose_file.read_text().splitlines()
        lines[1] = lines[1].replace(lines[1].split()[3], "east", 1)
        pose_file.write_text("\n".join(lines) + "\n")
        code = main(
            ["run", "--scans", str(scan_dir), "--poses", str(pose_file),
             "--out", str(tmp_path / "out")]
        )
        assert code == 3
        assert f"{pose_file.name}:2: " in capsys.readouterr().err

    def test_malformed_pcd_row_is_io_error(self, tmp_path, world, capsys):
        poses = [yaw_pose(6.0 + i, 9.0, 1.5, 0.0) for i in range(3)]
        scan_dir, pose_file = write_sequence(tmp_path, world, poses)
        scan = scan_dir / "000001.bin"
        points = read_kitti_bin(scan)
        scan.unlink()
        pcd = scan_dir / "000001.pcd"
        for row in ("1.0 2.0", "1.0 two 3.0"):  # a missing field, a non-number
            write_pcd_ascii(pcd, points)
            pcd.write_text(pcd.read_text() + row + "\n")
            code = main(
                ["run", "--scans", str(scan_dir), "--poses", str(pose_file),
                 "--out", str(tmp_path / "out")]
            )
            assert code == 3, row
            # an 11-line header, then one line per point, then the bad row
            assert f"000001.pcd:{11 + len(points) + 1}: " in capsys.readouterr().err, row

    def test_empty_scan_file_is_io_error(self, tmp_path, world):
        poses = [yaw_pose(6.0 + i, 9.0, 1.5, 0.0) for i in range(3)]
        scan_dir, pose_file = write_sequence(tmp_path, world, poses)
        (scan_dir / "000001.bin").write_bytes(b"")
        code = main(
            ["run", "--scans", str(scan_dir), "--poses", str(pose_file),
             "--out", str(tmp_path / "out")]
        )
        assert code == 3
