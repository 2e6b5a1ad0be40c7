"""Shared pieces of the three workloads: the run context, timing and checks."""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

@dataclass
class Outcome:
    """What one workload run measured.

    ``units`` holds one (wall seconds, ops completed, traced) entry per timed
    stretch of the phase, with traced None for a stretch that is not an op
    and so stays out of the tracing-overhead comparison; ``op_ms`` holds the
    wall time of each op in ms.
    """

    setup_s: list[float] = field(default_factory=list)
    units: list[tuple[float, int, bool | None]] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, tuple[float | None, str]] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    check_failures: list[str] = field(default_factory=list)

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        if len(self.check_failures) < 20:
            self.check_failures.append(message)


class Context:
    """Seed, time budget, scratch directory and tracer of one workload run.

    Every workload repeats a fixed pass of work (loop_replay: its sequences,
    dense_keyframe: its keyframes, db_churn: one round of ops). A traced run
    traces the even passes and leaves the odd ones untraced, so the tracing
    overhead compares the same work with and without the tracer; it runs at
    least two passes so that both kinds are there.
    """

    def __init__(self, seed: int, seconds: float, work: Path, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tracer = tracer
        self.timed_s = 0.0  # phase time so far, excluding checks
        self.min_passes = 1 if tracer is None else 2

    def go_on(self, passes_done: int) -> bool:
        """True while the time budget or the minimum number of passes is not used up."""
        return self.timed_s < self.seconds or passes_done < self.min_passes

    @contextmanager
    def op(self, pass_index: int, keyframe: int | None = None):
        """Install the tracer around work of pass ``pass_index`` when that pass is traced."""
        traced = self.tracer is not None and pass_index % 2 == 0
        if traced:
            self.tracer.keyframe = keyframe
            self.tracer.install()
        try:
            yield traced
        finally:
            if traced:
                self.tracer.uninstall()


def timed_setups(build, repeats: int):
    """Run ``build()`` ``repeats`` times; return the last state and every duration."""
    durations = []
    state = None
    for _ in range(repeats):
        state = None  # release the previous state before building the next
        t0 = time.perf_counter()
        state = build()
        durations.append(time.perf_counter() - t0)
    return state, durations


FAILED = object()


def guarded(outcome: Outcome, ops: int, what: str, fn, *args, **kwargs):
    """Call ``fn``; on an exception count ``ops`` failed ops and return FAILED."""
    try:
        return fn(*args, **kwargs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        outcome.fail(ops, f"{what} raised")
        return FAILED


def median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
