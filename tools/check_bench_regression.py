#!/usr/bin/env python3
"""Engine timing gate: a change's BM_VmExecute* times against its parent's.

Compares the real_time of every benchmark whose name starts with --prefix
(default BM_VmExecute) in a change's google-benchmark reports against the
same benchmarks in its parent's, round by round: the i-th --current file is
paired with the i-th --baseline file, each pair gives one change/parent
ratio per benchmark, and a benchmark fails if the median of its ratios
exceeds 1 + threshold (default 15%).  Both sides must come from one machine:
CI builds the parent and the change on one runner and runs them in
alternating rounds, so drift of the runner hits both halves of a round
alike, and a process that lands in a slow mode moves one ratio, not a
pooled median.

Each file is one google-benchmark JSON report (--benchmark_out_format=json)
or a bench-all aggregate (build/BENCH_RESULTS.json, one report per binary).
List both sides in the same order (CI's globs do), one file per side and
round.

The prefix is a startswith match, so the default also guards the
BM_VmExecuteSanitized pair (bench_attack_matrix) and the traced and profiled
pairs (bench_trace): the uninstrumented hot path and each observer's tax sit
under the same budget.

Refused as input errors, because such a comparison cannot fail or cannot
be paired:
- reports whose context.num_cpus differ (timings from two machines);
- a baseline file byte-identical to a current one (a run against itself);
- unequal numbers of baseline and current files.

A benchmark present in the baseline but absent from the current run is a
hard failure by default (a silently dropped bench is a silently dropped
guard).  When a bench is intentionally renamed or removed, list it with
--allow-missing (the name as printed, or a substring of it): allowlisted
names downgrade to a warning.

Usage:
    tools/check_bench_regression.py --baseline PARENT.json [...]
        --current CHANGE.json [...] [--threshold 0.15]
        [--prefix BM_VmExecute] [--allow-missing NAME ...]

Exit status: 0 = within budget, 1 = regression or guarded bench missing,
2 = usage/input error.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

MS_PER_UNIT = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def reports(path: Path) -> list[dict]:
    """The google-benchmark reports in one file: the file itself, or each
    binary's report of a bench-all aggregate."""
    doc = json.loads(path.read_text())
    return [doc] if "benchmarks" in doc else list(doc.values())


def bench_times(path: Path, prefix: str, cpus: set) -> dict[str, float]:
    """name -> median real_time (ms) over the iteration rows matching
    `prefix` in one file; adds each report's num_cpus to `cpus`."""
    samples: dict[str, list[float]] = {}
    for report in reports(path):
        cpus.add(report.get("context", {}).get("num_cpus"))
        for b in report.get("benchmarks", []):
            name = b.get("name", "")
            # Skip google-benchmark aggregate rows (mean/median/stddev).
            if b.get("run_type", "iteration") != "iteration" or not name.startswith(prefix):
                continue
            ms = float(b["real_time"]) * MS_PER_UNIT[b.get("time_unit", "ns")]
            samples.setdefault(name, []).append(ms)
    return {name: statistics.median(v) for name, v in samples.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", required=True, nargs="+", type=Path,
                    help="the parent's reports or aggregates")
    ap.add_argument("--current", required=True, nargs="+", type=Path,
                    help="the change's reports or aggregates, from the same machine")
    ap.add_argument("--threshold", default=0.15, type=float,
                    help="allowed fractional real_time regression (default 0.15)")
    ap.add_argument("--prefix", default="BM_VmExecute",
                    help="benchmark name prefix to guard (default BM_VmExecute)")
    ap.add_argument("--allow-missing", nargs="*", default=[], metavar="NAME",
                    help="benchmarks allowed to be absent from the current run "
                         "(renamed/removed on purpose); matched as substrings")
    args = ap.parse_args()

    for path in args.baseline + args.current:
        if not path.is_file():
            print(f"error: report not found: {path}", file=sys.stderr)
            return 2
    for b in args.baseline:
        for c in args.current:
            if b.read_bytes() == c.read_bytes():
                print(f"error: baseline {b} is byte-identical to current {c}: "
                      f"a run compared with itself cannot regress", file=sys.stderr)
                return 2
    if len(args.baseline) != len(args.current):
        print(f"error: {len(args.baseline)} baseline file(s) but {len(args.current)} current "
              f"file(s); the gate pairs them round by round", file=sys.stderr)
        return 2

    cpus: set = set()
    pairs = [(bench_times(b, args.prefix, cpus), bench_times(c, args.prefix, cpus))
             for b, c in zip(args.baseline, args.current)]
    if len(cpus) > 1:
        print(f"error: reports ran on different machines (num_cpus {sorted(cpus, key=str)}); "
              f"compare a parent and a change run on one machine", file=sys.stderr)
        return 2
    baseline = set().union(*(base for base, _ in pairs))
    current = set().union(*(cur for _, cur in pairs))
    for side, names in (("baseline", baseline), ("current", current)):
        if not names:
            print(f"error: no '{args.prefix}*' benchmarks in the {side} reports",
                  file=sys.stderr)
            return 2

    print(f"pairs: {len(pairs)}   threshold: +{args.threshold:.0%}   "
          f"(median of per-pair change/parent ratios)")
    failed = []
    for name in sorted(current):
        ratios = [cur[name] / base[name] for base, cur in pairs if name in base and name in cur]
        if not ratios:
            print(f"  {name}: new benchmark, no baseline")
            continue
        ratio = statistics.median(ratios)
        verdict = "ok"
        if ratio > 1.0 + args.threshold:
            verdict = "REGRESSION"
            failed.append(name)
        print(f"  {name}: {ratio - 1.0:+.1%} over {len(ratios)} pair(s) "
              f"(from {min(ratios) - 1.0:+.1%} to {max(ratios) - 1.0:+.1%})  {verdict}")
    for name in sorted(baseline - current):
        if any(allowed in name for allowed in args.allow_missing):
            print(f"  {name}: missing from current run — allowlisted, warning only")
            continue
        print(f"  {name}: missing from current run; "
              f"pass --allow-missing if the rename/removal is intentional",
              file=sys.stderr)
        failed.append(name)

    if failed:
        print(f"FAIL: {len(failed)} benchmark(s) regressed beyond "
              f"+{args.threshold:.0%} of the baseline in the median pair", file=sys.stderr)
        return 1
    print("all guarded benchmarks within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
