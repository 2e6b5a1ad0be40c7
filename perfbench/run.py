#!/usr/bin/env python3
"""triloop benchmark: three workloads, end-to-end metrics and a layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py                                # every workload
    python3 perfbench/run.py --trace 1                      # traced run of each
    python3 perfbench/run.py --workload db_churn --seed 3 --seconds 30 --trace 0

With ``--workload`` the run prints its metrics with units, a ``REPORT`` line
holding every end-to-end metric that applies to the workload, the quality
figures, output hashes and the environment, and as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Without ``--workload`` each workload runs in its own process.
``--seconds`` is the length of the timed phase; a comparison of two commits
must run both with the same value (``run_seconds`` in BENCHMARK.json).
BENCHMARK.json gates loop_replay and db_churn; dense_keyframe runs here but
is not gated (DESIGN.md says why).

The program is imported from ``src/`` of the checkout and nowhere else; the
benchmark exits with code 2 when it is missing. See DESIGN.md for why each
workload and metric exists.
"""

import os

# One thread: cap the BLAS and OpenMP pools before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("loop_replay", "dense_keyframe", "db_churn")
DEFAULT_SECONDS = 30

# End-to-end metrics every workload reports; these are the gated ones.
COMMON_END_TO_END = (
    ("keyframe_ms_p50", "ms"),
    ("keyframes_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _unit(metric: str) -> str:
    if metric.endswith("_ms") or metric.endswith("_ms_p50"):
        return "ms"
    if metric.endswith("_ratio") or metric == "trace.overhead":
        return "ratio"
    if metric.endswith("keyframes_per_s"):
        return "1/s"
    return "count"


def _require_program() -> None:
    """Exit with code 2, printing no result, when src/triloop is missing."""
    if not (SRC / "triloop" / "__init__.py").is_file():
        print(f"error: {SRC / 'triloop'} not found; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)


def _import_program():
    """Import triloop from the checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import triloop

    if Path(triloop.__file__).resolve().parent != (SRC / "triloop").resolve():
        print(f"error: imported triloop from {triloop.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return triloop


def _git_commit():
    """Commit of the checkout from .git, or None when it is not a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "triloop").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _rate(units, traced=None) -> float:
    """Ops per second over all units, or over the traced or untraced ones."""
    picked = [(w, n) for w, n, t in units if traced is None or t is traced]
    wall = sum(w for w, _ in picked)
    return sum(n for _, n in picked) / wall if wall > 0 else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    import common
    import tracer as tracer_mod

    module = importlib.import_module(name)
    work = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracer_mod.Tracer() if trace else None
    try:
        outcome = module.run(common.Context(seed, seconds, work, tracer))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e: dict[str, tuple] = {
        "keyframe_ms_p50": (common.median(outcome.op_ms), "ms"),
        "keyframes_per_s": (_rate(outcome.units), "1/s"),
        "setup_s": (common.median(outcome.setup_s), "s"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
    }
    e2e.update(outcome.end_to_end)
    e2e["error_rate"] = (outcome.failed / outcome.attempted if outcome.attempted else None,
                         "ratio")
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "samples": {"ops": len(outcome.op_ms), "setups": len(outcome.setup_s)},
        "setup_s_all": outcome.setup_s,
        "check_failures": outcome.check_failures,
        "info": outcome.info,
        "environment": _environment(),
    }
    if trace:
        layer = tracer.metrics()
        traced_rate = _rate(outcome.units, True)
        untraced_rate = _rate(outcome.units, False)
        layer["trace.keyframes_per_s"] = traced_rate
        layer["trace.untraced_keyframes_per_s"] = untraced_rate
        # share of throughput lost to tracing; 0 when the run had no untraced op
        layer["trace.overhead"] = (
            untraced_rate / traced_rate - 1.0 if traced_rate and untraced_rate else 0.0
        )
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layer.items()}
        report["absent"] = tracer.absent_metrics()
        report["spans"] = len(tracer.spans)
    else:
        metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in COMMON_END_TO_END}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps({"report": report, "result": result},
                                                    indent=1, default=str) + "\n")

    width = max(len(k) for k in list(e2e) + list(metrics))
    for key, (value, unit) in e2e.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name}  {key:<{width}}  {shown} {unit}")
    if trace:
        for key, m in metrics.items():
            mark = "  (absent)" if key in report["absent"] else ""
            print(f"{name}  {key:<{width}}  {m['value']:.6g} {m['unit']}{mark}")
    print("REPORT " + json.dumps(report, default=str))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run each workload in its own process and print every result."""
    code = 0
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            if not line.startswith("REPORT "):
                print(line)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _require_program()
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
