"""Box layouts for the synthetic yards.

Each yard has one fixed layout of boxes, drawn once with the placement rule of
``box_and_wall_world``. The workload seed feeds the surface sampling jitter
of ``box_and_wall_world`` and ``PipelineConfig.seed``, not the layout: moving
boxes by as little as 0.1 m changed the number of retrieval votes of an
8-keyframe replay by up to a third, and keyframe cost with it, which is far
wider than the bound a regression is judged by. With the layout fixed the
votes stay within about 6% across seeds while every seed still gives
different scans.
"""

from __future__ import annotations

import numpy as np

LAYOUT_SEED = 20220926


def fixed_boxes(extent: tuple[float, float], n_boxes: int):
    """(x, y, sx, sy, sz) box footprints of the yard's fixed layout."""
    length, width = extent
    rng = np.random.default_rng(LAYOUT_SEED)
    boxes = []
    for _ in range(n_boxes):
        sx, sy = rng.uniform(2.0, 5.0, size=2)
        sz = rng.uniform(1.5, 4.0)
        x = rng.uniform(2.0, length - sx - 2.0)
        y = rng.uniform(2.0, width - sy - 2.0)
        # keep boxes off the traversal corridor through the middle
        if y < width / 2 + 3.0 and y + sy > width / 2 - 3.0:
            y = 2.0 if y < width / 2 else width - sy - 2.0
        boxes.append((x, y, sx, sy, sz))
    return boxes
