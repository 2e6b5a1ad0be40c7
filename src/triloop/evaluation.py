"""Sequence replay, ground-truth labeling, precision-recall sweeps, and
pose-error statistics.

A replay emits one record per keyframe holding the detection, the scored
candidates (so acceptance thresholds can be re-swept offline), and stage wall
times. Records and sweep tables are plain CSV; wall times go to a separate
file because they are the one non-reproducible output.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, MalformedRecord, NoGroundTruth
from .geometry import RigidTransform, rotation_angle_deg
from .ingest import Scan, accumulate_keyframe, read_kitti_bin, read_pcd_ascii, read_poses
from .loop import select_loop
from .pipeline import MatchingSession, PipelineConfig

DEFAULT_SWEEP_GRID = tuple(round(0.1 * i, 2) for i in range(1, 10))


@dataclass(frozen=True)
class CandidateScoreRow:
    """Re-scorable candidate: frame, votes, and its verified plane overlap."""

    frame_id: int
    votes: int
    overlap: float


@dataclass
class EvalRecord:
    """Per-keyframe outcome of a replay."""

    query_id: int
    detected_id: int | None
    overlap: float
    votes: int
    t_extract_ms: float = 0.0
    t_query_ms: float = 0.0
    t_verify_ms: float = 0.0
    rot_err_deg: float | None = None
    trans_err_m: float | None = None
    candidates: list[CandidateScoreRow] = field(default_factory=list)


@dataclass
class SequenceResult:
    records: list[EvalRecord]
    ground_truth: dict[int, list[int]]
    summary: dict


def pose_error(detected: RigidTransform, truth: RigidTransform) -> tuple[float, float]:
    """(rotation error degrees, translation error meters) between transforms."""
    rot = rotation_angle_deg(truth.R.T @ detected.R)
    trans = float(np.linalg.norm(detected.t - truth.t))
    return rot, trans


def ground_truth_loops(
    positions: np.ndarray, radius: float, skip_recent: int
) -> dict[int, list[int]]:
    """For each keyframe, earlier keyframes within radius, outside the
    skip_recent exclusion window that retrieval itself applies."""
    positions = np.asarray(positions, dtype=np.float64)
    gt: dict[int, list[int]] = {}
    for q in range(len(positions)):
        eligible = max(0, q - skip_recent)
        if eligible == 0:
            gt[q] = []
            continue
        d = np.linalg.norm(positions[:eligible] - positions[q], axis=1)
        gt[q] = [int(j) for j in np.flatnonzero(d <= radius)]
    return gt


def _read_scan(path: Path) -> np.ndarray:
    if path.suffix == ".bin":
        return read_kitti_bin(path)
    if path.suffix == ".pcd":
        return read_pcd_ascii(path)
    raise ConfigError(f"unsupported scan extension: {path.name}")


def run_sequence(
    cfg: PipelineConfig,
    scan_dir,
    pose_file,
    out_dir=None,
) -> SequenceResult:
    """Replay a scan sequence: accumulate keyframes, query, verify, insert."""
    scan_paths = sorted(
        p for p in Path(scan_dir).iterdir() if p.suffix in (".bin", ".pcd")
    )
    if not scan_paths:
        raise ConfigError(f"no .bin or .pcd scans in {scan_dir}")
    poses = read_poses(pose_file)
    if len(poses) != len(scan_paths):
        raise ConfigError(
            f"{len(scan_paths)} scans but {len(poses)} poses; counts must match"
        )

    session = MatchingSession(cfg)
    records: list[EvalRecord] = []
    anchor_poses: list[RigidTransform] = []
    wall_start = time.perf_counter()

    n = cfg.n_accumulate
    groups = [list(range(i, min(i + n, len(scan_paths)))) for i in range(0, len(scan_paths), n)]
    for kf_id, group in enumerate(groups):
        t0 = time.perf_counter()
        # the scans live only while they are accumulated
        keyframe = accumulate_keyframe(
            [Scan(points=_read_scan(scan_paths[i]), index=i, pose=poses[i]) for i in group],
            keyframe_id=kf_id,
        )
        t_load = (time.perf_counter() - t0) * 1e3

        outcome = session.process_keyframe(kf_id, keyframe.cloud)
        anchor_poses.append(keyframe.anchor_pose)

        record = EvalRecord(
            query_id=kf_id,
            detected_id=None,
            overlap=max((s.overlap for s in outcome.scored), default=0.0),
            votes=outcome.scored[0].votes if outcome.scored else 0,
            t_extract_ms=outcome.t_extract_ms + t_load,
            t_query_ms=outcome.t_query_ms,
            t_verify_ms=outcome.t_verify_ms,
            candidates=[
                CandidateScoreRow(s.frame_id, s.votes, s.overlap)
                for s in outcome.scored
                if s.transform is not None
            ],
        )
        loop = outcome.loop
        if loop is not None:
            truth = anchor_poses[loop.frame_id].inverse().compose(anchor_poses[kf_id])
            reported = outcome.refined if outcome.refined is not None else loop.transform
            rot, trans = pose_error(reported, truth)
            record.detected_id = loop.frame_id
            record.overlap = loop.overlap
            record.votes = loop.votes
            record.rot_err_deg = rot
            record.trans_err_m = trans
        records.append(record)

    gt = ground_truth_loops(np.array([pose.t for pose in anchor_poses]), cfg.gt_radius,
                            cfg.skip_recent)
    summary = _summarize(records, gt, cfg, (time.perf_counter() - wall_start) * 1e3)
    result = SequenceResult(records=records, ground_truth=gt, summary=summary)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_records_csv(out / "records.csv", records)
        write_timings_csv(out / "timings.csv", records)
        write_gt_csv(out / "gt.csv", gt)
        if any(gt.values()):
            write_pr_csv(out / "pr.csv", pr_sweep(records, gt, DEFAULT_SWEEP_GRID, cfg.mode))
        (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return result


def _percentiles(values: list[float]) -> dict:
    if not values:
        return {"p50": 0.0, "p90": 0.0, "max": 0.0, "total": 0.0}
    arr = np.array(values)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "max": float(arr.max()),
        "total": float(arr.sum()),
    }


def _summarize(records: list[EvalRecord], gt: dict[int, list[int]], cfg: PipelineConfig,
               wall_ms: float) -> dict:
    tp, fp, fn = _classify(records, gt, cfg.sigma_pc, cfg.mode)
    return {
        "n_keyframes": len(records),
        "n_detections": sum(r.detected_id is not None for r in records),
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "stage_ms": {
            "extract": _percentiles([r.t_extract_ms for r in records]),
            "query": _percentiles([r.t_query_ms for r in records]),
            "verify": _percentiles([r.t_verify_ms for r in records]),
        },
        "wall_ms": wall_ms,
        "config": cfg.to_dict(),
    }


def _classify(
    records: list[EvalRecord], gt: dict[int, list[int]], sigma_pc: float, mode: str
):
    tp = fp = fn = 0
    for r in records:
        loops = set(gt.get(r.query_id, ()))
        detected = select_loop(r.candidates, sigma_pc, mode)
        if detected is not None:
            if detected.frame_id in loops:
                tp += 1
            else:
                fp += 1
        elif loops:
            fn += 1
    return tp, fp, fn


def pr_sweep(
    records: list[EvalRecord],
    gt: dict[int, list[int]],
    grid=DEFAULT_SWEEP_GRID,
    mode: str = "first",
) -> list[dict]:
    """Precision/recall per acceptance threshold, re-scored from stored
    candidate overlaps with the run's selection ``mode``. Precision is None
    when there are no detections."""
    if not gt or all(not v for v in gt.values()):
        raise NoGroundTruth("no ground-truth loops available for the sweep")
    rows = []
    for sigma in sorted(grid):
        tp, fp, fn = _classify(records, gt, sigma, mode)
        precision = tp / (tp + fp) if (tp + fp) > 0 else None
        recall = tp / (tp + fn) if (tp + fn) > 0 else None
        rows.append(
            {"sigma_pc": sigma, "tp": tp, "fp": fp, "fn": fn,
             "precision": precision, "recall": recall}
        )
    return rows


# -- CSV I/O ------------------------------------------------------------------

RECORDS_COLUMNS = ("query_id", "detected_id", "overlap", "votes", "rot_err_deg",
                   "trans_err_m", "candidates")
TIMINGS_COLUMNS = ("query_id", "t_extract_ms", "t_query_ms", "t_verify_ms")
GT_COLUMNS = ("query_id", "loop_ids")
PR_COLUMNS = ("sigma_pc", "tp", "fp", "fn", "precision", "recall")


def _fmt(value, digits: int = 9) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _write_csv(path, columns: tuple[str, ...], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows([columns, *rows])


def _read_csv(path, columns: tuple[str, ...], what: str, parse) -> dict:
    """``parse`` of each data row, given as a dict from column name to field,
    keyed by the row's query id in file order. The header must name every
    one of ``columns`` and may name more. A header that lacks one or names a
    column twice, a row whose field count differs from the header's (a blank
    row included), a ValueError from ``parse`` or a query id given twice
    raises MalformedRecord naming ``path:line``."""
    with open(path, newline="") as f:
        rows = csv.reader(f)
        header = next(rows, [])
        if not set(columns) <= set(header) or len(set(header)) < len(header):
            raise MalformedRecord(f"{path}:1: bad {what} header {','.join(header)!r}")
        parsed = {}
        for row in rows:
            try:
                if len(row) != len(header):
                    raise ValueError
                fields = dict(zip(header, row))
                query_id = int(fields["query_id"])
                value = parse(fields)
            except ValueError:
                raise MalformedRecord(
                    f"{path}:{rows.line_num}: bad {what} row {','.join(row)!r}") from None
            if query_id in parsed:
                raise MalformedRecord(f"{path}:{rows.line_num}: query_id {query_id} given twice")
            parsed[query_id] = value
    return parsed


def write_records_csv(path, records: list[EvalRecord]) -> None:
    _write_csv(path, RECORDS_COLUMNS, [
        (r.query_id, _fmt(r.detected_id), _fmt(r.overlap, 6), r.votes, _fmt(r.rot_err_deg),
         _fmt(r.trans_err_m),
         ";".join(f"{c.frame_id}:{c.votes}:{_fmt(c.overlap, 6)}" for c in r.candidates))
        for r in records
    ])


def read_records_csv(path) -> list[EvalRecord]:
    """The records of a ``records.csv``, read by column name (see _read_csv)."""
    return list(_read_csv(path, RECORDS_COLUMNS, "records", _parse_record).values())


def _parse_record(fields: dict[str, str]) -> EvalRecord:
    cands = []
    if fields["candidates"]:
        for chunk in fields["candidates"].split(";"):
            fid, votes, overlap = chunk.split(":")
            cands.append(CandidateScoreRow(int(fid), int(votes), float(overlap)))
    return EvalRecord(
        query_id=int(fields["query_id"]),
        detected_id=int(fields["detected_id"]) if fields["detected_id"] else None,
        overlap=float(fields["overlap"]),
        votes=int(fields["votes"]),
        rot_err_deg=float(fields["rot_err_deg"]) if fields["rot_err_deg"] else None,
        trans_err_m=float(fields["trans_err_m"]) if fields["trans_err_m"] else None,
        candidates=cands,
    )


def write_timings_csv(path, records: list[EvalRecord]) -> None:
    _write_csv(path, TIMINGS_COLUMNS, [
        (r.query_id, _fmt(r.t_extract_ms, 3), _fmt(r.t_query_ms, 3), _fmt(r.t_verify_ms, 3))
        for r in records
    ])


def write_gt_csv(path, gt: dict[int, list[int]]) -> None:
    _write_csv(path, GT_COLUMNS, [(q, ";".join(map(str, gt[q]))) for q in sorted(gt)])


def read_gt_csv(path) -> dict[int, list[int]]:
    """Loop ids per query of a ``gt.csv``, read by column name (see _read_csv)."""
    return _read_csv(path, GT_COLUMNS, "ground-truth",
                     lambda fields: [int(i) for i in fields["loop_ids"].split(";") if i])


def _threshold(value: float) -> str:
    """A sweep threshold to the 6 decimals a parsed grid is rounded to, with
    no trailing zeros past the second decimal: 0.10, 0.375, 0.001."""
    text = f"{value:.6f}"
    return text[:-4] + text[-4:].rstrip("0")


def write_pr_csv(path, rows: list[dict]) -> None:
    _write_csv(path, PR_COLUMNS, [
        (_threshold(row["sigma_pc"]), row["tp"], row["fp"], row["fn"],
         _fmt(row["precision"], 6), _fmt(row["recall"], 6))
        for row in rows
    ])
