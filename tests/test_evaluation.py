import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from triloop.errors import MalformedRecord, NoGroundTruth
from triloop.evaluation import (
    CandidateScoreRow,
    EvalRecord,
    _summarize,
    ground_truth_loops,
    pose_error,
    pr_sweep,
    read_gt_csv,
    read_records_csv,
    write_gt_csv,
    write_records_csv,
)
from triloop.geometry import RigidTransform, random_rotation, rotation_about_axis
from triloop.loop import select_loop
from triloop.pipeline import PipelineConfig


class TestPoseError:
    def test_identical_transforms(self):
        t = RigidTransform(rotation_about_axis([1, 0, 0], 0.4), np.array([1.0, 2.0, 3.0]))
        assert pose_error(t, t) == (0.0, 0.0)

    def test_five_degree_yaw_offset(self):
        gt = RigidTransform(rotation_about_axis([0, 0, 1], 0.3), np.array([1.0, 0.0, 0.0]))
        yaw5 = RigidTransform(rotation_about_axis([0, 0, 1], np.radians(5.0)), np.zeros(3))
        detected = yaw5.compose(gt)
        rot, trans = pose_error(detected, gt)
        assert abs(rot - 5.0) < 1e-9
        assert abs(trans - np.linalg.norm(detected.t - gt.t)) < 1e-12

    def test_matches_scipy_axis_angle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = RigidTransform(random_rotation(rng), rng.uniform(-5, 5, 3))
            b = RigidTransform(random_rotation(rng), rng.uniform(-5, 5, 3))
            rot, trans = pose_error(a, b)
            expected = np.degrees(
                np.linalg.norm(Rotation.from_matrix(b.R.T @ a.R).as_rotvec())
            )
            assert abs(rot - expected) < 1e-9
            assert abs(trans - np.linalg.norm(a.t - b.t)) < 1e-12


class TestGroundTruth:
    def test_radius_and_exclusion_window(self):
        positions = np.array(
            [[0, 0, 0], [10, 0, 0], [20, 0, 0], [11, 0, 0], [1, 0, 0]], dtype=float
        )
        gt = ground_truth_loops(positions, radius=5.0, skip_recent=2)
        assert gt[0] == []
        assert gt[1] == []   # nothing outside the 2-frame exclusion window yet
        assert gt[2] == []   # inserted {0, 1} are both within the window
        assert gt[3] == []   # eligible {0}, distance 11
        assert gt[4] == [0]  # eligible {0, 1}; distances 1 and 9

    def test_radius_boundary_inclusive(self):
        positions = np.array([[0, 0, 0], [5, 0, 0]], dtype=float)
        gt = ground_truth_loops(positions, radius=5.0, skip_recent=0)
        assert gt[1] == [0]


def record(query_id, cands, detected=None):
    return EvalRecord(
        query_id=query_id,
        detected_id=detected,
        overlap=max((c[2] for c in cands), default=0.0),
        votes=cands[0][1] if cands else 0,
        candidates=[CandidateScoreRow(*c) for c in cands],
    )


class TestPrSweep:
    def test_counts_and_ratios_worked_example(self):
        # 3 TP, 1 FP, 2 FN at sigma 0.5 -> precision 0.75, recall 0.6
        records = [
            record(10, [(0, 9, 0.8)]),   # TP (gt 0)
            record(11, [(1, 9, 0.7)]),   # TP
            record(12, [(2, 9, 0.6)]),   # TP
            record(13, [(5, 9, 0.9)]),   # FP (gt is 3)
            record(14, [(4, 9, 0.2)]),   # FN (candidate below threshold)
            record(15, []),              # FN (no candidates)
        ]
        gt = {10: [0], 11: [1], 12: [2], 13: [3], 14: [4], 15: [5]}
        [row] = pr_sweep(records, gt, grid=[0.5])
        assert (row["tp"], row["fp"], row["fn"]) == (3, 1, 2)
        assert row["precision"] == pytest.approx(0.75)
        assert row["recall"] == pytest.approx(0.6)

    def test_all_detections_correct_gives_precision_one(self):
        records = [record(10, [(0, 9, 0.9)]), record(11, [(1, 9, 0.8)])]
        gt = {10: [0], 11: [1]}
        for row in pr_sweep(records, gt, grid=[0.1, 0.5, 0.8]):
            assert row["precision"] == 1.0

    def test_zero_detections_precision_undefined(self):
        records = [record(10, [(0, 9, 0.2)])]
        gt = {10: [0]}
        [row] = pr_sweep(records, gt, grid=[0.9])
        assert row["precision"] is None
        assert row["recall"] == 0.0

    def test_detection_count_non_increasing(self):
        rng = np.random.default_rng(1)
        records = []
        gt = {}
        for q in range(30):
            cands = [(j, 10, float(rng.uniform(0, 1))) for j in range(3)]
            records.append(record(100 + q, cands))
            gt[100 + q] = [0]
        rows = pr_sweep(records, gt, grid=np.linspace(0.05, 0.95, 19))
        detections = [r["tp"] + r["fp"] for r in rows]
        assert detections == sorted(detections, reverse=True)

    def test_no_ground_truth_raises(self):
        with pytest.raises(NoGroundTruth):
            pr_sweep([record(0, [])], {0: []}, grid=[0.5])

    def test_first_passing_candidate_in_vote_order_wins(self):
        rec = record(10, [(7, 50, 0.55), (3, 40, 0.95)])
        gt = {10: [3]}
        [row] = pr_sweep([rec], gt, grid=[0.5])
        assert (row["tp"], row["fp"]) == (0, 1)  # frame 7 wins vote order
        [row] = pr_sweep([rec], gt, grid=[0.6])
        assert (row["tp"], row["fp"]) == (1, 0)  # 7 fails, 3 passes

    def test_best_mode_scores_the_highest_overlap(self):
        rec = record(10, [(7, 50, 0.55), (3, 40, 0.95), (5, 30, 0.95)])
        gt = {10: [3]}
        for sigma in (0.5, 0.6):
            [row] = pr_sweep([rec], gt, grid=[sigma], mode="best")
            assert (row["tp"], row["fp"]) == (1, 0)  # 3: best overlap, first on ties
        [row] = pr_sweep([rec], gt, grid=[0.99], mode="best")
        assert (row["tp"], row["fp"], row["fn"]) == (0, 0, 1)
        assert select_loop(rec.candidates, 0.5, "first").frame_id == 7
        assert select_loop(rec.candidates, 0.5, "best").frame_id == 3  # tie with 5
        assert select_loop(rec.candidates, 0.99, "best") is None
        tied = [CandidateScoreRow(f, 9, 0.6) for f in (4, 2, 8)]
        for mode in ("first", "best"):
            assert select_loop(tied, 0.0, mode).frame_id == 4  # earliest in vote order
            assert select_loop([], 0.0, mode) is None

    def test_unknown_mode_rejected(self):
        rec = record(10, [(7, 50, 0.55), (3, 40, 0.95)])
        for mode in ("bogus", "First"):
            with pytest.raises(ValueError, match="mode"):
                pr_sweep([rec], {10: [3]}, grid=[0.5], mode=mode)
            with pytest.raises(ValueError, match="mode"):
                select_loop(rec.candidates, 0.5, mode)


@pytest.mark.parametrize("mode", ["first", "best"])
def test_summary_counts_the_detection_the_session_reports(mode):
    # vote order puts a wrong frame first; the best overlap is the true loop
    rec = record(10, [(7, 50, 0.55), (3, 40, 0.95)], detected=7 if mode == "first" else 3)
    gt = {10: [3]}
    summary = _summarize([rec], gt, PipelineConfig(mode=mode, sigma_pc=0.5), wall_ms=0.0)
    tp = int(rec.detected_id in gt[10])
    assert (summary["tp"], summary["fp"], summary["fn"]) == (tp, 1 - tp, 0)


class TestCsvRoundTrip:
    def test_records(self, tmp_path):
        records = [
            EvalRecord(
                query_id=4,
                detected_id=1,
                overlap=0.875,
                votes=123,
                rot_err_deg=0.25,
                trans_err_m=0.0125,
                candidates=[CandidateScoreRow(1, 123, 0.875), CandidateScoreRow(0, 50, 0.1)],
            ),
            EvalRecord(query_id=5, detected_id=None, overlap=0.0, votes=0),
        ]
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        back = read_records_csv(path)
        assert back[0].query_id == 4
        assert back[0].detected_id == 1
        assert back[0].overlap == pytest.approx(0.875)
        assert back[0].rot_err_deg == pytest.approx(0.25)
        assert [c.frame_id for c in back[0].candidates] == [1, 0]
        assert back[1].detected_id is None
        assert back[1].rot_err_deg is None
        assert back[1].candidates == []

    def test_gt(self, tmp_path):
        gt = {0: [], 1: [0], 5: [0, 1, 2]}
        path = tmp_path / "gt.csv"
        write_gt_csv(path, gt)
        assert read_gt_csv(path) == gt

    def test_extra_and_reordered_columns_read_by_name(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(
            "candidates,note,query_id,votes,overlap,detected_id,trans_err_m,rot_err_deg\n"
            "1:9:0.700000,a,4,9,0.700000,1,0.5,2.0\n"
        )
        [back] = read_records_csv(path)
        assert (back.query_id, back.detected_id, back.votes) == (4, 1, 9)
        assert (back.rot_err_deg, back.trans_err_m) == (2.0, 0.5)
        assert back.candidates == [CandidateScoreRow(1, 9, 0.7)]
        path = tmp_path / "gt.csv"
        path.write_text("loop_ids,query_id,radius\n0;1,5,20\n,0,20\n")
        assert read_gt_csv(path) == {5: [0, 1], 0: []}

    def test_malformed_records_row_names_its_line(self, tmp_path):
        header = "query_id,detected_id,overlap,votes,rot_err_deg,trans_err_m,candidates\n"
        good = "0,,0.000000,0,,,\n"
        bad_rows = ("1,,0.5,3", "1,,half,3,,,", "1,,0.5,3,,,2:3", "1,,0.5,3,,,2:x:0.5",
                    "1,,0.5,3,,,2:3:0.5,extra", "", "0,,0.5,3,,,")
        for row in bad_rows:
            path = tmp_path / "records.csv"
            path.write_text(header + good + row + "\n")
            with pytest.raises(MalformedRecord, match="records.csv:3: "):
                read_records_csv(path)
        # a foreign header of the same width, or none at all
        for text in ("a,b,c,d,e,f,g\n" + good, good + "1,,0.5,3,,,\n"):
            path.write_text(text)
            with pytest.raises(MalformedRecord, match="records.csv:1: "):
                read_records_csv(path)

    def test_malformed_gt_row_names_its_line(self, tmp_path):
        path = tmp_path / "gt.csv"
        for row in ("x,1", "2,1;y", "5", "", "0,1", "2,1,0"):
            path.write_text(f"query_id,loop_ids\n0,\n{row}\n")
            with pytest.raises(MalformedRecord, match="gt.csv:3: "):
                read_gt_csv(path)
        # no header, whose first row was read as one, a foreign one, or one
        # that names a column twice
        for text in ("0,\n5,0\n", "frame,loops\n0,\n5,0\n",
                     "query_id,loop_ids,loop_ids\n0,,\n5,0,1\n"):
            path.write_text(text)
            with pytest.raises(MalformedRecord, match="gt.csv:1: "):
                read_gt_csv(path)
