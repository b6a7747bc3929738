#!/usr/bin/env python3
"""Compare fresh benchmark runs against the committed baselines.

Usage:
    tools/bench_diff.py --baseline=BENCH_core.json \
        --run=run1.json [--run=run2.json ...] [--max-regression=0.20]
    tools/bench_diff.py \
        --pair=BENCH_core.json:BENCH_hotpath_run.json \
        --pair=BENCH_multi_tenant.json:BENCH_multi_tenant_run.json

Both micro_core_hotpath and ext_multi_tenant emit run JSON with the
same section shape ({name, ops_per_sec, checksum}), so one diff tool
gates all committed baselines. Two checks per benchmark section:
  * correctness: every run's checksum must equal the baseline's
    checksum_after — the sections digest observable simulation state, so
    any drift is a behavior change, not noise. A mismatch always fails.
  * performance: ops_per_sec must not fall more than --max-regression
    (default 20%) below the baseline's after.ops_per_sec, a measured
    wall-clock figure (BENCH_multi_tenant.json's is the --threads=2
    run, the setting CI benchmarks at). List a run
    file several times (comma-separated in --pair, or repeated --run)
    to take the per-section best. Timing on shared CI runners is noisy,
    hence the generous threshold; the CI job is non-blocking and exists
    to flag trends, not to gate merges.

Exit 0 when every section of every pair passes, 1 on any checksum
mismatch or over-threshold regression, 2 on usage/file errors.
"""

import argparse
import json
import sys


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot load {path}: {e}", file=sys.stderr)
        sys.exit(2)


def diff_pair(baseline_path, run_paths, max_regression):
    """Diff one baseline against its run files; returns failure count."""
    baseline = load_json(baseline_path)
    base_sections = {s["name"]: s for s in baseline.get("sections", [])}
    # Per-section best across runs; checksums must agree in every run.
    run_sections = {}
    checksum_conflicts = []
    for path in run_paths:
        for s in load_json(path).get("sections", []):
            name = s["name"]
            prev = run_sections.get(name)
            if prev is not None and prev.get("checksum") != s.get("checksum"):
                checksum_conflicts.append(name)
            if prev is None or float(s["ops_per_sec"]) > float(
                    prev["ops_per_sec"]):
                run_sections[name] = s

    failures = 0
    print(f"== {baseline_path} vs {', '.join(run_paths)}")
    for name in checksum_conflicts:
        print(f"{name:24} FAIL (checksum differs between runs — "
              f"non-deterministic section)")
        failures += 1
    print(f"{'section':24} {'baseline':>14} {'run':>14} "
          f"{'ratio':>7}  verdict")
    for name, base in base_sections.items():
        r = run_sections.get(name)
        if r is None:
            print(f"{name:24} {'-':>14} {'-':>14} {'-':>7}  "
                  f"FAIL (missing from run)")
            failures += 1
            continue
        verdicts = []
        if r.get("checksum") != base.get("checksum_after"):
            verdicts.append(
                f"checksum {r.get('checksum')} != "
                f"baseline {base.get('checksum_after')}")
        base_ops = float(base["after"]["ops_per_sec"])
        run_ops = float(r["ops_per_sec"])
        ratio = run_ops / base_ops if base_ops > 0 else 0.0
        if ratio < 1.0 - max_regression:
            verdicts.append(f"ops/sec regressed {100 * (1 - ratio):.1f}%")
        verdict = "ok" if not verdicts else "FAIL (" + "; ".join(verdicts) + ")"
        if verdicts:
            failures += 1
        print(f"{name:24} {base_ops:14.0f} {run_ops:14.0f} "
              f"{ratio:7.2f}  {verdict}")

    extra = set(run_sections) - set(base_sections)
    for name in sorted(extra):
        print(f"{name:24} (new section, no baseline — informational)")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="Diff benchmark runs against committed baselines")
    parser.add_argument("--baseline", default="BENCH_core.json")
    parser.add_argument("--run", action="append", default=None,
                        help="run JSON; repeat to take per-section best")
    parser.add_argument("--pair", action="append", default=None,
                        metavar="BASELINE:RUN[,RUN...]",
                        help="gate an extra baseline/run pair; repeatable. "
                             "When given, --baseline/--run are ignored.")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="max allowed ops/sec drop vs baseline "
                             "(fraction, default 0.20)")
    args = parser.parse_args()

    if args.pair:
        pairs = []
        for spec in args.pair:
            baseline_path, sep, runs = spec.partition(":")
            if not sep or not runs:
                print(f"error: --pair wants BASELINE:RUN[,RUN...], "
                      f"got {spec!r}", file=sys.stderr)
                return 2
            pairs.append((baseline_path, runs.split(",")))
    else:
        pairs = [(args.baseline, args.run or ["BENCH_hotpath_run.json"])]

    failures = 0
    for i, (baseline_path, run_paths) in enumerate(pairs):
        if i:
            print()
        failures += diff_pair(baseline_path, run_paths, args.max_regression)

    if failures:
        print(f"\n{failures} section(s) failed "
              f"(threshold {100 * args.max_regression:.0f}%)")
        return 1
    print("\nall sections within threshold, checksums match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
