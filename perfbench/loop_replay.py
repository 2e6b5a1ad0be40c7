"""loop_replay: the path ``triloop run`` takes, on synthetic out-and-back sequences.

Set-up builds box-and-wall yards and writes an out-and-back traversal of each
as KITTI ``.bin`` scans plus a pose file. The timed phase replays the
sequences in turn through ``evaluation.run_sequence``, which also writes the
outputs. This is the only workload with ground-truth loops, so it carries the
quality metrics. An op is one keyframe: its wall time runs from one exit of
``MatchingSession.process_keyframe`` to the next (from the ``run_sequence``
call for the first keyframe), so it covers scan read, accumulation,
extraction, query, verification and the final insert.

One run replays several sequences, each sampled with its own seed derived
from the workload seed: keyframe cost depends on how the sampling jitter falls
(retrieval votes move by about 6% between seeds), and averaging over several
samplings keeps that out of the run-to-run spread. A pass replays every
sequence once. The phase ends at the end of a pass, after ``--seconds``
and at least one pass, so every run replays each sequence equally often and
the quality metrics of a seed always cover the same sequences, however fast
the machine is. Before the phase an untimed replay of a short
warm-up sequence pays for first calls, and a full collection before each
replay starts every replay from the same collector state.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import shutil
import time
from contextlib import contextmanager

from common import FAILED, Outcome, guarded, median, timed_setups
from worlds import fixed_boxes

# The default yard size and sampling (60 m x 24 m, 0.25 m) with 10 boxes. The
# return pass runs 4 m beside the outbound pass with the heading reversed, so
# it revisits it.
EXTENT = (60.0, 24.0)
N_BOXES = 10
PATH = dict(x_start=6.0, x_end=25.0, y_out=10.0, y_back=14.0)  # 20 poses each way
MAX_RANGE = 14.0
CONFIG = dict(n_accumulate=5, skip_recent=2, gt_radius=12.0)
SEQUENCES = 3
WARMUP_SCANS = 15  # three keyframes, so the warm-up also verifies a candidate
SETUP_REPEATS = 12  # about 0.3 s each


@contextmanager
def keyframe_exits(session_cls, stamps: list[float]):
    """Append ``perf_counter()`` to ``stamps`` at every exit of ``process_keyframe``."""
    original = session_cls.__dict__["process_keyframe"]

    def process_keyframe(self, *args, **kwargs):
        try:
            return original(self, *args, **kwargs)
        finally:
            stamps.append(time.perf_counter())

    session_cls.process_keyframe = process_keyframe
    try:
        yield
    finally:
        session_cls.process_keyframe = original


def recount(replay_dir) -> dict:
    """TP/FP/FN and TP pose errors recounted from records.csv and gt.csv alone."""
    with open(replay_dir / "gt.csv", newline="") as fh:
        gt = {int(r["query_id"]): {int(j) for j in r["loop_ids"].split(";") if j}
              for r in csv.DictReader(fh)}
    with open(replay_dir / "records.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    tp = fp = fn = 0
    trans, rot = [], []
    for r in records:
        loops = gt.get(int(r["query_id"]), set())
        if r["detected_id"]:
            if int(r["detected_id"]) in loops:
                tp += 1
                trans.append(float(r["trans_err_m"]))
                rot.append(float(r["rot_err_deg"]))
            else:
                fp += 1
        elif loops:
            fn += 1
    return {
        "n_keyframes": len(records),
        "n_detections": sum(1 for r in records if r["detected_id"]),
        "tp": tp, "fp": fp, "fn": fn,
        "trans_err_m": trans, "rot_err_deg": rot,
    }


def output_hashes(replay_dir) -> dict:
    """sha256 of the byte-stable outputs of one replay."""
    return {name: hashlib.sha256((replay_dir / name).read_bytes()).hexdigest()
            for name in ("records.csv", "gt.csv", "pr.csv") if (replay_dir / name).exists()}


def run(ctx) -> Outcome:
    from triloop import evaluation, pipeline, synthetic

    out = Outcome()
    seq_root = ctx.work / "sequences"

    def build():
        shutil.rmtree(seq_root, ignore_errors=True)
        poses = synthetic.out_and_back_poses(**PATH)
        sequences = []
        for k in range(SEQUENCES):
            world = synthetic.box_and_wall_world(
                seed=ctx.seed * SEQUENCES + k, extent=EXTENT, boxes=fixed_boxes(EXTENT, N_BOXES))
            sequences.append(synthetic.write_sequence(
                seq_root / f"seq{k}", world, poses, max_range=MAX_RANGE))
        return sequences

    sequences, out.setup_s = timed_setups(build, SETUP_REPEATS)
    n_scans = sum(1 for p in sequences[0][0].iterdir() if p.suffix == ".bin")
    expected = math.ceil(n_scans / CONFIG["n_accumulate"])
    cfg = pipeline.PipelineConfig(seed=ctx.seed, **CONFIG)

    world = synthetic.box_and_wall_world(
        seed=ctx.seed * SEQUENCES, extent=EXTENT, boxes=fixed_boxes(EXTENT, N_BOXES))
    warmup = synthetic.write_sequence(
        ctx.work / "warmup", world,
        synthetic.out_and_back_poses(**PATH)[:WARMUP_SCANS], max_range=MAX_RANGE)
    evaluation.run_sequence(cfg, *warmup)

    first: dict[int, dict] = {}  # per sequence: recount and hashes of its first replay
    i = 0
    while i % SEQUENCES or ctx.go_on(i // SEQUENCES):
        k = i % SEQUENCES
        replay_dir = ctx.work / f"replay{i}"
        gc.collect()
        stamps: list[float] = []
        # the exit stamps go on first, so a traced pass's tracer wraps them
        with keyframe_exits(pipeline.MatchingSession, stamps), \
                ctx.op(i // SEQUENCES, keyframe=0) as traced:
            t0 = time.perf_counter()
            stamps.append(t0)
            result = guarded(out, expected, f"replay {i}", evaluation.run_sequence,
                             cfg, *sequences[k], out_dir=replay_dir)
            wall = time.perf_counter() - t0
        ctx.timed_s += wall
        out.attempted += expected
        i += 1
        if result is FAILED:
            out.units.append((wall, 0, traced))
            continue
        out.units.append((wall, len(result.records), traced))
        out.op_ms.extend((b - a) * 1e3 for a, b in zip(stamps, stamps[1:]))

        counted = recount(replay_dir)
        summary = json.loads((replay_dir / "summary.json").read_text())
        problems = [
            f"{key}: summary.json {summary.get(key)} != recount {counted[key]}"
            for key in ("n_keyframes", "n_detections", "tp", "fp", "fn")
            if summary.get(key) != counted[key]
        ]
        if counted["n_keyframes"] != expected:
            problems.append(f"{counted['n_keyframes']} keyframes, expected {expected}")
        if len(stamps) - 1 != expected:
            problems.append(f"{len(stamps) - 1} process_keyframe calls, expected {expected}")
        hashes = output_hashes(replay_dir)
        if k not in first:
            first[k] = {"recount": counted, "hashes": hashes}
        elif hashes != first[k]["hashes"]:
            problems.append(f"outputs differ from the first replay of sequence {k}")
        if problems:
            out.fail(expected, f"replay {i - 1}: " + "; ".join(problems))
        shutil.rmtree(replay_dir, ignore_errors=True)

    tp, fp, fn = (sum(f["recount"][key] for f in first.values()) for key in ("tp", "fp", "fn"))
    trans = [e for f in first.values() for e in f["recount"]["trans_err_m"]]
    rot = [e for f in first.values() for e in f["recount"]["rot_err_deg"]]
    out.end_to_end["recall"] = (tp / (tp + fn) if tp + fn else None, "ratio")
    out.end_to_end["precision"] = (tp / (tp + fp) if tp + fp else None, "ratio")
    out.end_to_end["trans_err_m_p50"] = (median(trans), "m")
    out.end_to_end["rot_err_deg_p50"] = (median(rot), "deg")
    out.info["sequences"] = {
        k: {"hashes": f["hashes"],
            **{key: f["recount"][key] for key in ("n_keyframes", "n_detections", "tp", "fp", "fn")}}
        for k, f in sorted(first.items())
    }
    out.info.update(scans_per_sequence=n_scans, keyframes_per_replay=expected, replays=i)
    return out
