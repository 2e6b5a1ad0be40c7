#!/usr/bin/env python3
"""sha256 of the byte-stable outputs of the loop_replay sequences.

Run from the root of a checkout:

    python3 tools/output_digests.py --seeds 0-9

For each seed, every sequence that ``perfbench/loop_replay.py`` replays at
that seed (same yard, path and config, imported from there) is written to a
temporary directory and run once through ``evaluation.run_sequence``. One
line per sequence gives the sha256 of its ``records.csv``, ``gt.csv`` and
``pr.csv``; ``frames=``, one sha256 over the ``DescriptorFrame`` columns
(``positions``, ``point_normals``, ``vertex_ids``, ``signatures``) that
``pipeline.extract_frame`` returned for every keyframe of the sequence; and
``scores=``, the sha256 of ``records.csv`` without its pose-error columns
(``rot_err_deg``, ``trans_err_m``). Running the same command in two
checkouts and comparing the lines shows whether a change keeps those
outputs, and the descriptors behind them, byte for byte; where only
``records.csv`` differs, ``scores=`` tells a change of pose digits from a
change of detections, votes or overlaps. A closing line sums the quality
of every sequence replayed: TP/FP/FN, a detection being true when its id is
one of the query's ground-truth loops in ``gt.csv``, and the p50/p90 of
``trans_err_m`` and ``rot_err_deg`` over the true detections. triloop is
imported from the checkout's ``src/``.
"""

import os

# One BLAS thread, as in the benchmark, before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import loop_replay  # noqa: E402
import numpy as np  # noqa: E402
from triloop import evaluation, pipeline, synthetic  # noqa: E402
from worlds import fixed_boxes  # noqa: E402


def _seeds(spec: str) -> range:
    first, _, last = spec.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B or A, got {spec!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {spec!r}")
    return range(lo, hi + 1)


FRAME_COLUMNS = ("positions", "point_normals", "vertex_ids", "signatures")
POSE_COLUMNS = ("rot_err_deg", "trans_err_m")


def scores_digest(records_csv: Path) -> str:
    """sha256 of a records.csv with its POSE_COLUMNS left out, one line per
    row, fields joined by commas."""
    with open(records_csv, newline="") as f:
        rows = list(csv.reader(f))
    keep = [i for i, name in enumerate(rows[0]) if name not in POSE_COLUMNS]
    text = "".join(",".join(row[i] for i in keep) + "\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def sequence_quality(out_dir: Path) -> dict:
    """TP/FP/FN of a replay's records.csv against its gt.csv, and the pose
    errors of its true detections."""
    gt = evaluation.read_gt_csv(out_dir / "gt.csv")
    quality = {"tp": 0, "fp": 0, "fn": 0, "trans_err_m": [], "rot_err_deg": []}
    for record in evaluation.read_records_csv(out_dir / "records.csv"):
        loops = gt.get(record.query_id, [])
        if record.detected_id is None:
            quality["fn"] += bool(loops)
        elif record.detected_id in loops:
            quality["tp"] += 1
            quality["trans_err_m"].append(record.trans_err_m)
            quality["rot_err_deg"].append(record.rot_err_deg)
        else:
            quality["fp"] += 1
    return quality


def quality_line(qualities) -> str:
    """One line over the sequence_quality of several replays: summed
    TP/FP/FN and the p50/p90 of each pose error over all true detections."""
    fields = [f"sequences={len(qualities)}"]
    fields += [f"{name}={sum(q[name] for q in qualities)}" for name in ("tp", "fp", "fn")]
    for name in ("trans_err_m", "rot_err_deg"):
        errors = [e for q in qualities for e in q[name]]
        fields += [f"{name}_p{p}={np.percentile(errors, p):.6g}" if errors else f"{name}_p{p}=-"
                   for p in (50, 90)]
    return "quality " + " ".join(fields)


def hashing_frames(digest):
    """``pipeline.extract_frame`` that also feeds the shape and bytes of each
    returned frame's columns to ``digest``."""
    extract = pipeline.extract_frame

    def extract_frame(*args, **kwargs):
        extraction = extract(*args, **kwargs)
        for name in FRAME_COLUMNS:
            column = np.ascontiguousarray(getattr(extraction.descriptors, name))
            digest.update(np.array(column.shape, dtype=np.int64).tobytes())
            digest.update(column.tobytes())
        return extraction

    return extract_frame


def sequence_digests(seed: int, work: Path, qualities: list | None = None):
    """(sequence, {output name: sha256}) of each loop_replay sequence of one
    seed, the descriptor frames under ``frames`` and records.csv without its
    pose errors under ``scores``. Each sequence's sequence_quality is appended
    to ``qualities`` when it is given."""
    poses = synthetic.out_and_back_poses(**loop_replay.PATH)
    boxes = fixed_boxes(loop_replay.EXTENT, loop_replay.N_BOXES)
    cfg = pipeline.PipelineConfig(seed=seed, **loop_replay.CONFIG)
    for k in range(loop_replay.SEQUENCES):
        world = synthetic.box_and_wall_world(
            seed=seed * loop_replay.SEQUENCES + k, extent=loop_replay.EXTENT, boxes=boxes)
        base = work / f"seed{seed}_seq{k}"
        sequence = synthetic.write_sequence(base, world, poses, max_range=loop_replay.MAX_RANGE)
        digest = hashlib.sha256()
        with mock.patch.object(pipeline, "extract_frame", hashing_frames(digest)):
            evaluation.run_sequence(cfg, *sequence, out_dir=base / "out")
        hashes = loop_replay.output_hashes(base / "out")
        hashes["frames"] = digest.hexdigest()
        hashes["scores"] = scores_digest(base / "out" / "records.csv")
        if qualities is not None:
            qualities.append(sequence_quality(base / "out"))
        shutil.rmtree(base)
        yield k, hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0"),
                        help="workload seeds as A-B (inclusive) or A (default 0)")
    args = parser.parse_args(argv)
    qualities = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for k, hashes in sequence_digests(seed, Path(tmp), qualities):
                print(f"seed {seed} seq {k} "
                      + " ".join(f"{name}={digest}" for name, digest in hashes.items()),
                      flush=True)
    print(quality_line(qualities))
    return 0


if __name__ == "__main__":
    sys.exit(main())
