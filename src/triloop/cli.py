"""Command-line evaluation driver.

    triloop run   --config run.cfg --scans dir/ --poses poses.txt --out results/
    triloop sweep --records results/records.csv --gt results/gt.csv --out pr.csv

Exit codes: 0 success, 2 configuration error, 3 I/O error (unreadable,
truncated, empty or out-of-range scan input, a malformed pose, PCD or CSV
row, or a CSV header that lacks a column).
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import (
    CellOutOfRange,
    ConfigError,
    EmptyInput,
    MalformedRecord,
    NoGroundTruth,
    NonFiniteInput,
    TriloopError,
    UnsupportedFormat,
)
from .evaluation import (
    DEFAULT_SWEEP_GRID,
    pr_sweep,
    read_gt_csv,
    read_records_csv,
    run_sequence,
    write_pr_csv,
)
from .loop import MODES
from .pipeline import PipelineConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triloop",
        description="Triangle-descriptor place recognition over LiDAR keyframes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay a scan sequence and detect loops")
    run.add_argument("--config", help="key=value parameter file (defaults used if omitted)")
    run.add_argument("--scans", required=True, help="directory of .bin or .pcd scans")
    run.add_argument("--poses", required=True, help="pose file, one line per scan")
    run.add_argument("--out", required=True, help="output directory for CSV/JSON results")

    sweep = sub.add_parser("sweep", help="re-sweep acceptance thresholds on saved records")
    sweep.add_argument("--records", required=True, help="records.csv from a run")
    sweep.add_argument("--gt", required=True, help="gt.csv from a run")
    sweep.add_argument("--out", required=True, help="output PR csv path")
    sweep.add_argument(
        "--grid",
        help="sigma_pc grid as start:stop:step (inclusive); default: the grid of a run's "
        f"pr.csv, {', '.join(map(str, DEFAULT_SWEEP_GRID))}",
    )
    sweep.add_argument(
        "--mode",
        choices=MODES,
        default=PipelineConfig.mode,
        help="candidate selection of the run (see select_loop): first passing, or best overlap",
    )
    return parser


MAX_GRID_POINTS = 100_000


def _parse_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ConfigError(f"bad grid spec {spec!r}, expected start:stop:step") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"bad grid spec {spec!r}, start, stop and step must be finite")
    if step <= 0 or stop < start:
        raise ConfigError(f"bad grid spec {spec!r}")
    if start + step == start or (stop - start) / step > MAX_GRID_POINTS:
        raise ConfigError(f"bad grid spec {spec!r}, more than {MAX_GRID_POINTS} points")
    grid = []
    value = start
    while value <= stop + 1e-12:
        grid.append(round(value, 6))
        value += step
    return grid


def _cmd_run(args) -> int:
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    result = run_sequence(cfg, args.scans, args.poses, out_dir=args.out)
    s = result.summary
    print(
        f"{s['n_keyframes']} keyframes, {s['n_detections']} loop detections "
        f"(tp={s['tp']} fp={s['fp']} fn={s['fn']} at sigma_pc={cfg.sigma_pc})"
    )
    print(f"results written to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    records = read_records_csv(args.records)
    gt = read_gt_csv(args.gt)
    grid = DEFAULT_SWEEP_GRID if args.grid is None else _parse_grid(args.grid)
    rows = pr_sweep(records, gt, grid=grid, mode=args.mode)
    write_pr_csv(args.out, rows)
    print(f"{len(rows)} thresholds written to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except (ConfigError, NoGroundTruth) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        OSError, MalformedRecord, UnsupportedFormat, EmptyInput, NonFiniteInput, CellOutOfRange
    ) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TriloopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
