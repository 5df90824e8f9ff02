#!/usr/bin/env python3
"""Perf-regression check for the simulator hot path.

Runs the hot-path microbenchmarks (event queue, trace cursor, buffer,
predictor, routing table, carrier selection, end-to-end replay) with
google-benchmark's JSON output, writes the
result to BENCH_hotpath.json, and compares per-benchmark real_time
against the checked-in baseline.

Perf regressions beyond the tolerance band (--threshold, default +25%
real_time) FAIL the check with a non-zero exit; --warn-only restores
the old advisory behaviour for noisy or borrowed machines.  Also hard
failures: the benchmark binary failing to run, malformed JSON, a
baseline entry missing from the current run (deleting a benchmark must
be accompanied by a baseline refresh), and a missing or malformed
baseline BENCH_hotpath.json — a harness that silently skips its
comparison is indistinguishable from one that passed.  Use
--allow-missing-baseline when bootstrapping a baseline for a new
machine.

--update-baseline re-records bench/baseline/BENCH_hotpath.json from the
current run instead of comparing against it, stamping the file with a
host-context block (hostname, platform, CPU count, optional --note) so
a future reader can tell which machine the numbers came from.

--improvement-note PATH banks improvements the same way regressions are
policed: a comparison run flags (never fails) benchmarks faster than
the tolerance band and appends them to PATH, and a later
--update-baseline run with the same PATH folds the banked lines into
the refreshed baseline's host_context, so the provenance of a big win
(e.g. a SIMD pass) survives in the checked-in numbers instead of
silently shifting the floor.

Every benchmark runs REPETITIONS (3) times (google-benchmark's
--benchmark_repetitions), and the median of those runs, not whichever
repetition happened to come last, is compared against the baseline.
A baseline recorded without repetitions is compared by its single row.

Usage (normally via the `bench-check` CMake target):
    scripts/bench_check.py --bench build/bench/bench_micro
    scripts/bench_check.py --bench build/bench/bench_micro \
        --update-baseline --note "new checkpoint benchmarks"
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

# The benchmarks the harness tracks release to release.
DEFAULT_FILTER = (
    "BM_EventQueue|BM_TraceCursor|BM_BufferAddRemove|BM_EndToEnd"
    "|BM_MarkovPredict|BM_CarrierSelect|BM_RoutingTableRecompute"
    "|BM_CityReplay|BM_Checkpoint|BM_OverloadReplay"
)

# Runs per benchmark; the median of them is compared.
REPETITIONS = 3


def run_benchmarks(bench: Path, bench_filter: str) -> dict:
    cmd = [
        str(bench),
        f"--benchmark_filter={bench_filter}",
        "--benchmark_format=json",
        f"--benchmark_repetitions={REPETITIONS}",
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except FileNotFoundError:
        raise SystemExit(f"benchmark binary not found: {bench}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark binary failed (exit {proc.returncode})")
    try:
        report = json.loads(proc.stdout)
    except ValueError as e:
        raise SystemExit(f"benchmark binary emitted malformed JSON: {e}")
    validate_report(report, source=str(bench))
    return report


def load_baseline(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as e:
        raise SystemExit(f"cannot read baseline {path}: {e}")
    try:
        report = json.loads(text)
    except ValueError as e:
        raise SystemExit(f"malformed baseline JSON in {path}: {e}")
    validate_report(report, source=str(path))
    return report


def validate_report(report: object, source: str) -> None:
    """Exit non-zero unless `report` looks like google-benchmark JSON."""
    if not isinstance(report, dict):
        raise SystemExit(f"{source}: top-level JSON value is not an object")
    benchmarks = report.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise SystemExit(f"{source}: no 'benchmarks' array (empty run?)")
    for i, b in enumerate(benchmarks):
        if not isinstance(b, dict) or "name" not in b:
            raise SystemExit(f"{source}: benchmarks[{i}] has no 'name'")
        if b.get("run_type") == "aggregate":
            continue
        if not isinstance(b.get("real_time"), (int, float)):
            raise SystemExit(
                f"{source}: benchmarks[{i}] ({b['name']}) has no numeric "
                "'real_time'")


def by_name(report: dict) -> dict[str, dict]:
    """One row per benchmark: its `median` aggregate when the run had
    repetitions, else its single iteration row."""
    out = {}
    medians = {}
    for b in report["benchmarks"]:
        if b.get("run_type") == "aggregate":
            # mean/stddev/cv are not compared; the median is.
            if b.get("aggregate_name") == "median":
                medians[b.get("run_name", b["name"])] = b
            continue
        out[b["name"]] = b
    out.update(medians)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", type=Path, required=True,
                    help="path to the bench_micro binary")
    ap.add_argument("--baseline", type=Path,
                    default=Path("bench/baseline/BENCH_hotpath.json"))
    ap.add_argument("--out", type=Path, default=Path("BENCH_hotpath.json"))
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="relative real_time regression tolerance band "
                         "(default 0.25 = +25%%); beyond it the check "
                         "fails unless --warn-only")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but exit 0 (advisory mode "
                         "for noisy machines)")
    ap.add_argument("--filter", default=DEFAULT_FILTER)
    ap.add_argument("--allow-missing-baseline", action="store_true",
                    help="exit 0 when the baseline file does not exist "
                         "(bootstrapping a new baseline)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="re-record the baseline from this run instead of "
                         "comparing against it")
    ap.add_argument("--note", default="",
                    help="justification recorded in the refreshed baseline "
                         "(only meaningful with --update-baseline)")
    ap.add_argument("--improvement-note", type=Path, default=None,
                    help="bank improvements beyond the threshold: a "
                         "comparison run appends flagged speedups to this "
                         "file, and --update-baseline records the file's "
                         "lines in the new baseline's host_context")
    args = ap.parse_args()

    report = run_benchmarks(args.bench, args.filter)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.update_baseline:
        report["host_context"] = {
            "hostname": platform.node(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "recorded_by": "scripts/bench_check.py --update-baseline",
            "note": args.note or "baseline refresh",
        }
        if args.improvement_note is not None and args.improvement_note.exists():
            banked = [line for line in
                      args.improvement_note.read_text().splitlines() if line]
            if banked:
                report["host_context"]["improvements"] = banked
                print(f"folded {len(banked)} banked improvement line(s) "
                      f"from {args.improvement_note} into host_context")
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(report, indent=2) + "\n")
        print(f"baseline refreshed: {args.baseline}")
        return 0

    if not args.baseline.exists():
        if args.allow_missing_baseline:
            print(f"no baseline at {args.baseline}; skipping comparison")
            return 0
        sys.stderr.write(
            f"ERROR: baseline {args.baseline} does not exist; pass "
            "--allow-missing-baseline when bootstrapping one\n")
        return 2
    baseline = by_name(load_baseline(args.baseline))
    current = by_name(report)

    regressions = []
    improvements = []
    missing = []
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            print(f"  {name}: missing from current run")
            missing.append(name)
            continue
        base_t, cur_t = base["real_time"], cur["real_time"]
        ratio = cur_t / base_t if base_t > 0 else float("inf")
        unit = base.get("time_unit", "ns")
        marker = ""
        if ratio > 1.0 + args.threshold:
            marker = "  <-- REGRESSION"
            regressions.append((name, ratio))
        elif ratio < 1.0 - args.threshold:
            marker = "  (improved; consider refreshing the baseline)"
            improvements.append(
                f"{name}: {ratio:.2f}x baseline "
                f"({base_t:.0f} -> {cur_t:.0f} {unit})")
        print(f"  {name}: {base_t:.0f} -> {cur_t:.0f} {unit} "
              f"({ratio:.2f}x baseline){marker}")

    if improvements and args.improvement_note is not None:
        with args.improvement_note.open("a") as f:
            for line in improvements:
                f.write(line + "\n")
        print(f"banked {len(improvements)} improvement(s) to "
              f"{args.improvement_note}")

    if missing:
        sys.stderr.write(
            "\nERROR: baseline benchmark(s) absent from the current run: "
            + ", ".join(missing)
            + "\nRemoving or renaming a tracked benchmark requires a "
            "baseline refresh.\n")
        return 1
    if regressions:
        severity = "WARNING" if args.warn_only else "FAILURE"
        sys.stderr.write(
            "\n" + "=" * 70 + "\n"
            f"{severity}: hot-path benchmark regression(s) vs "
            f"{args.baseline}:\n")
        for name, ratio in regressions:
            sys.stderr.write(f"  {name}: {ratio:.2f}x baseline real_time "
                             f"(tolerance {1.0 + args.threshold:.2f}x)\n")
        sys.stderr.write(
            "Re-run on an idle machine; if the slowdown is real, fix it or "
            "update\nthe baseline with scripts/bench_check.py --bench ... "
            "and copy the\noutput over bench/baseline/BENCH_hotpath.json "
            "with justification.\n" + "=" * 70 + "\n")
        return 0 if args.warn_only else 1
    print("no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
