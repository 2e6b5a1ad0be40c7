"""Outside-in span tracer for the triloop layers.

The tracer replaces public functions at the names the pipeline looks them up
by (module attributes, and methods of ``DescriptorDatabase``) with wrappers
that record one span per call: name, start, end, parent span and keyframe id.
Spans stay in memory until the run ends. Nothing under ``src/`` changes.

Only calls that cross a layer boundary are wrapped; inner-loop helpers such as
``solve_rigid_svd`` or ``make_key`` are not. A target that no longer exists is
reported as absent instead of failing, so the trace survives refactors that
delete or merge functions.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager

# Time spans, as (span name, metric stem). Self time is reported as a run
# total (``<stem>``) and a per-call median (``<stem>_p50``).
TIME_METRICS = (
    ("ingest.read", "ingest.read_ms"),
    ("ingest.accumulate", "ingest.accumulate_ms"),
    ("ingest.downsample", "ingest.downsample_ms"),
    ("planes.voxel_map", "planes.voxel_map_ms"),
    ("planes.classify", "planes.classify_ms"),
    ("planes.grow", "planes.grow_ms"),
    ("keypoints.extract", "keypoints.extract_ms"),
    ("descriptors.build", "descriptors.build_ms"),
    ("database.query", "database.query_ms"),
    ("database.insert", "database.insert_ms"),
    ("database.save", "database.save_ms"),
    ("database.load", "database.load_ms"),
    ("loop.ransac", "loop.ransac_ms"),
    ("loop.overlap", "loop.overlap_ms"),
    ("loop.icp", "loop.icp_ms"),
    ("pipeline.extract", "pipeline.extract_ms"),
    ("pipeline.session", "pipeline.session_ms"),
    ("evaluation.sequence", "evaluation.sequence_ms"),
    ("evaluation.write", "evaluation.write_ms"),
)

# Count metrics and the span whose targets must exist for them to be measured.
COUNT_METRICS = (
    ("ingest.points_in", "ingest.downsample"),
    ("ingest.points_out", "ingest.downsample"),
    ("planes.voxels", "planes.voxel_map"),
    ("planes.plane_voxels", "planes.classify"),
    ("planes.planes", "planes.grow"),
    ("keypoints.count", "keypoints.extract"),
    ("descriptors.count", "descriptors.build"),
    ("database.candidates", "database.query"),
    ("database.pairs", "database.query"),
    ("database.descriptors_indexed", "database.insert"),
    ("loop.ransac_calls", "loop.ransac"),
    ("loop.no_transform", "loop.ransac"),
    ("loop.accepted", "pipeline.session"),
    ("loop.icp_fallback", "loop.icp"),
    ("loop.inlier_ratio", "loop.ransac"),
    ("loop.accept_ratio", "loop.overlap"),
)


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _len(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


# -- count hooks: (tracer, args, kwargs, result) --------------------------------

def _on_downsample(t, args, kwargs, result):
    t.add("ingest.points_in", _len(_arg(args, kwargs, 0, "cloud")))
    t.add("ingest.points_out", _len(result))


def _on_voxel_map(t, args, kwargs, result):
    t.add("planes.voxels", _len(result))


def _on_classify(t, args, kwargs, result):
    t.add("planes.plane_voxels", int(result))


def _on_grow(t, args, kwargs, result):
    t.add("planes.planes", _len(result))


def _on_keypoints(t, args, kwargs, result):
    t.add("keypoints.count", _len(result))


def _on_descriptors(t, args, kwargs, result):
    t.add("descriptors.count", _len(result))


def _on_query(t, args, kwargs, result):
    t.add("database.candidates", _len(result))
    t.add("database.pairs", sum(_len(getattr(c, "pairs", ())) for c in result))


def _on_insert(t, args, kwargs, result):
    indexed = getattr(args[0], "descriptors_indexed", 0)
    t.counts["database.descriptors_indexed"] = max(
        t.counts.get("database.descriptors_indexed", 0), indexed
    )


def _on_ransac(t, args, kwargs, result):
    t.add("loop.ransac_calls", 1)
    t.add("loop.pairs_in", _len(_arg(args, kwargs, 0, "pairs")))
    t.add("loop.inliers", _len(result[1]))


def _on_ransac_error(t, args, kwargs, exc):
    t.add("loop.ransac_calls", 1)
    t.add("loop.pairs_in", _len(_arg(args, kwargs, 0, "pairs")))
    if type(exc).__name__ == "NoValidTransform":
        t.add("loop.no_transform", 1)


def _on_overlap(t, args, kwargs, result):
    t.add("loop.scored", 1)


def _on_icp_error(t, args, kwargs, exc):
    t.add("loop.icp_fallback", 1)


def _on_session(t, args, kwargs, result):
    if getattr(result, "loop", None) is not None:
        t.add("loop.accepted", 1)
    frame_id = _arg(args, kwargs, 1, "frame_id")
    if isinstance(frame_id, int):
        # scans read after this call belong to the next keyframe
        t.keyframe = frame_id + 1


def _enter_session(t, args, kwargs):
    frame_id = _arg(args, kwargs, 1, "frame_id")
    if isinstance(frame_id, int):
        t.keyframe = frame_id


# (module, class or None, attribute, span name, on_result, on_error, on_enter, opaque)
# Opaque spans record no children: a snapshot load that inserts frame by frame
# is one database.load span, not a burst of database.insert spans.
TARGETS = (
    ("triloop.evaluation", None, "run_sequence", "evaluation.sequence", None, None, None, False),
    ("triloop.evaluation", None, "read_kitti_bin", "ingest.read", None, None, None, False),
    ("triloop.evaluation", None, "read_pcd_ascii", "ingest.read", None, None, None, False),
    ("triloop.evaluation", None, "accumulate_keyframe", "ingest.accumulate", None, None, None, False),
    ("triloop.ingest", None, "accumulate_keyframe", "ingest.accumulate", None, None, None, False),
    ("triloop.evaluation", None, "write_records_csv", "evaluation.write", None, None, None, False),
    ("triloop.evaluation", None, "write_timings_csv", "evaluation.write", None, None, None, False),
    ("triloop.evaluation", None, "write_gt_csv", "evaluation.write", None, None, None, False),
    ("triloop.evaluation", None, "write_pr_csv", "evaluation.write", None, None, None, False),
    ("triloop.pipeline", "MatchingSession", "process_keyframe", "pipeline.session",
     _on_session, None, _enter_session, False),
    ("triloop.pipeline", None, "extract_frame", "pipeline.extract", None, None, None, False),
    ("triloop.pipeline", None, "voxel_downsample", "ingest.downsample",
     _on_downsample, None, None, False),
    ("triloop.pipeline", None, "build_voxel_map", "planes.voxel_map",
     _on_voxel_map, None, None, False),
    ("triloop.pipeline", None, "classify_plane_voxels", "planes.classify",
     _on_classify, None, None, False),
    ("triloop.pipeline", None, "grow_planes", "planes.grow", _on_grow, None, None, False),
    ("triloop.pipeline", None, "keyframe_keypoints", "keypoints.extract",
     _on_keypoints, None, None, False),
    ("triloop.pipeline", None, "build_descriptors", "descriptors.build",
     _on_descriptors, None, None, False),
    ("triloop.pipeline", None, "plane_icp", "loop.icp", None, _on_icp_error, None, False),
    ("triloop.loop", None, "ransac_transform", "loop.ransac",
     _on_ransac, _on_ransac_error, None, False),
    ("triloop.loop", None, "plane_overlap", "loop.overlap", _on_overlap, None, None, False),
    ("triloop.database", "DescriptorDatabase", "query_candidates", "database.query",
     _on_query, None, None, False),
    ("triloop.database", "DescriptorDatabase", "insert_frame", "database.insert",
     _on_insert, None, None, False),
    ("triloop.database", "DescriptorDatabase", "save", "database.save", None, None, None, True),
    ("triloop.database", "DescriptorDatabase", "load", "database.load", None, None, None, True),
)


class Span:
    __slots__ = ("id", "name", "parent", "keyframe", "start", "end", "child_s", "error", "opaque")

    def __init__(self, span_id, name, parent, keyframe, opaque):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.keyframe = keyframe
        self.start = time.perf_counter()
        self.end = self.start
        self.child_s = 0.0
        self.error = None
        self.opaque = opaque

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s


class Tracer:
    """Records spans and counts for calls into the triloop layers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.keyframe: int | None = None
        self._stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []
        self._present: set[str] = set()

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def span(self, name: str, opaque: bool = False):
        """Span around a block of benchmark code that calls into a layer."""
        if self._stack and self._stack[-1].opaque:
            yield
            return
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.keyframe, opaque)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1].child_s += span.end - span.start

    def _wrap(self, fn, name, on_result, on_error, on_enter, opaque):
        tracer = self

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(tracer, args, kwargs)
            with tracer.span(name, opaque) as span:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if span is not None and on_error is not None:
                        on_error(tracer, args, kwargs, exc)
                    raise
            if span is not None and on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target that exists and skip those that do not."""
        for module_name, cls_name, attr, name, on_result, on_error, on_enter, opaque in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name, None) if cls_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                continue
            self._present.add(name)
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    self._wrap(original.__func__, name, on_result, on_error, on_enter, opaque)
                )
            else:
                wrapped = self._wrap(original, name, on_result, on_error, on_enter, opaque)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: self-time totals and medians in ms, and counts.

        A metric whose span is absent reads 0; ``absent_metrics`` names them.
        """
        by_name: dict[str, list[float]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span.self_s * 1e3)
        out: dict[str, float] = {}
        for name, stem in TIME_METRICS:
            values = by_name.get(name, [])
            out[stem] = sum(values, 0.0)
            out[stem + "_p50"] = statistics.median(values) if values else 0.0
        for metric, _ in COUNT_METRICS:
            out[metric] = self.counts.get(metric, 0)
        pairs = self.counts.get("loop.pairs_in", 0)
        scored = self.counts.get("loop.scored", 0)
        out["loop.inlier_ratio"] = self.counts.get("loop.inliers", 0) / pairs if pairs else 0.0
        out["loop.accept_ratio"] = self.counts.get("loop.accepted", 0) / scored if scored else 0.0
        return out

    def absent_metrics(self) -> list[str]:
        """Metrics whose functions were missing from every install."""
        names = [stem for name, stem in TIME_METRICS if name not in self._present]
        names += [stem + "_p50" for name, stem in TIME_METRICS if name not in self._present]
        names += [metric for metric, name in COUNT_METRICS if name not in self._present]
        return sorted(names)

    def write(self, path) -> None:
        """Write every span as one JSON record per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "keyframe": s.keyframe,
                    "start": s.start, "end": s.end, "self_ms": s.self_s * 1e3,
                    "error": s.error,
                }) + "\n")
