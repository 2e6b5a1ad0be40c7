"""dense_keyframe: the front half of the pipeline on multi-million-point keyframes.

Set-up builds the dense yard from the seed and cuts 10 scans per keyframe
along the outbound pass; the scans are held in memory as float32 sensor-frame
points, like ``.bin`` records. An op turns one keyframe's scans into ``Scan``
objects, accumulates them and feeds the cloud to
``MatchingSession.process_keyframe`` with the default config. The default
``skip_recent`` leaves no earlier keyframe eligible, so verification is
bypassed; the query still runs over the stored descriptors.

A pass is two keyframes; then a fresh session starts the pass again. The
phase ends at the end of a pass, after at least one, so both keyframes are
sampled equally often and every run peaks at the same database size:
``keyframe_ms_p50`` and ``peak_rss_mb`` do not depend on how many ops the
time allowed.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from common import FAILED, Outcome, guarded, timed_setups
from worlds import fixed_boxes

EXTENT = (80.0, 40.0)
N_BOXES = 30
WORLD = dict(extent=EXTENT, wall_height=6.0, step=0.1)
PATH = dict(x_start=16.0, x_end=70.0, y_out=18.0, y_back=22.0)
CROP = 30.0
SCANS_PER_KEYFRAME = 10
KEYFRAMES = 2
SETUP_REPEATS = 3  # about 0.75 s each


def _process(ingest, session, keyframe_id, scans, tracer):
    with tracer.span("ingest.read") if tracer is not None else nullcontext():
        objs = [ingest.Scan(points=pts, index=i, pose=pose) for pts, i, pose in scans]
    keyframe = ingest.accumulate_keyframe(objs, keyframe_id=keyframe_id)
    return len(keyframe.cloud), session.process_keyframe(keyframe_id, keyframe.cloud)


def run(ctx) -> Outcome:
    from triloop import ingest, pipeline, synthetic

    out = Outcome()

    def build():
        world = synthetic.box_and_wall_world(
            seed=ctx.seed, boxes=fixed_boxes(EXTENT, N_BOXES), **WORLD)
        poses = synthetic.out_and_back_poses(**PATH)
        return [
            [(synthetic.scan_at(world, poses[i], CROP).astype(np.float32), i, poses[i])
             for i in range(k * SCANS_PER_KEYFRAME, (k + 1) * SCANS_PER_KEYFRAME)]
            for k in range(KEYFRAMES)
        ]

    keyframes, out.setup_s = timed_setups(build, SETUP_REPEATS)
    cfg = pipeline.PipelineConfig(seed=ctx.seed)

    counts: dict[int, tuple[int, int, int, int]] = {}  # first pass, per keyframe
    session = None
    i = 0
    while i % KEYFRAMES or ctx.go_on(i // KEYFRAMES):
        k = i % KEYFRAMES
        if k == 0:
            session = None  # free the previous pass's database first
            session = pipeline.MatchingSession(cfg)
        with ctx.op(i // KEYFRAMES, keyframe=k) as traced:
            t0 = time.perf_counter()
            result = guarded(out, 1, f"keyframe {k}", _process, ingest, session, k,
                             keyframes[k], ctx.tracer if traced else None)
            wall = time.perf_counter() - t0
        ctx.timed_s += wall
        out.attempted += 1
        i += 1
        if result is FAILED:
            out.units.append((wall, 0, traced))
            continue
        out.units.append((wall, 1, traced))
        out.op_ms.append(wall * 1e3)

        n_points, outcome = result
        ex = outcome.extraction
        got = (n_points, len(ex.planes), len(ex.keypoints), len(ex.descriptors))
        if min(got[1:]) < 1:
            out.fail(1, f"keyframe {k}: planes/keypoints/descriptors = {got[1:]}, need >= 1 each")
        elif counts.setdefault(k, got) != got:
            out.fail(1, f"keyframe {k}: counts {got} differ from the first pass {counts[k]}")

    out.info["keyframes"] = {
        k: dict(zip(("points", "planes", "keypoints", "descriptors"), c))
        for k, c in sorted(counts.items())
    }
    out.info["passes"] = i // KEYFRAMES
    return out
