#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark.

Run from the root of a source checkout:

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at --size tiny (OO7 Tiny, 10 fleet
clients) for one second, untraced and traced, through perfbench/run.py,
and asserts that
  * every declared metric of the mode is emitted, with its declared unit;
  * every correctness check of the workload ran, and passed unless it
    only holds at full size (listed in SIZE_DEPENDENT below);
  * the traced run's trace file passed odbgc_tracecheck.
Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

GUARD = [
    "fig4_saio_wins_io_at_10pct_hist0",
    "fig4_saio_wins_io_at_10pct_histinf",
    "fig5_saga_wins_garbage_at_10pct_hist0",
    "fig5_saga_wins_garbage_at_10pct_histinf",
]
CHECKS = {
    "oo7_sweep": {
        0: GUARD + ["sweep_digests_identical_across_repetitions",
                    "apply_replay_matches_sweep_runner"],
        1: GUARD + ["sweep_digests_identical_across_repetitions",
                    "apply_replay_matches_sweep_runner",
                    "sweep_worker_trace_exported"],
    },
    "oo7_ops": {
        0: GUARD + ["ops_no_space_exhaustion_and_deterministic",
                    "ops_every_quarantine_repaired",
                    "ops_resume_from_last_checkpoint_byte_identical"],
        1: ["ops_no_space_exhaustion_and_deterministic",
            "ops_every_quarantine_repaired",
            "ops_resume_from_last_checkpoint_byte_identical"],
    },
    "fleet_1000": {
        0: GUARD + ["fleet_checksum_identical_across_repetitions",
                    "fleet_checksum_4t_equals_1t"],
        1: ["fleet_checksum_identical_across_repetitions",
            "fleet_checksum_4t_equals_1t",
            "mux_drain_matches_fleet_events"],
    },
}
TRACED_CHECKS = ["trace_written", "trace_file_passes_tracecheck"]
# OO7 Tiny is too small for SAIO to open its measurement window, and a
# light bit-flip plan rarely corrupts a three-partition database, so
# these checks are only required to run at tiny size.
SIZE_DEPENDENT = set(GUARD) | {"ops_every_quarantine_repaired"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None, {}, [f"run.py exited with {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    checks = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "check":
            checks[parts[1]] = parts[2] == "ok"
    return json.loads(lines[-1]), checks, []


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            result, checks, errors = run(name, trace)
            where = f"{name} --trace {trace}"
            problems += [f"{where}: {e}" for e in errors]
            if result is None:
                continue
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{where}: metric {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{where}: metric {m['name']} unit "
                                    f"{got['unit']} != {m['unit']}")
            expected = CHECKS[name][trace] + (TRACED_CHECKS if trace else [])
            for c in expected:
                if c not in checks:
                    problems.append(f"{where}: check {c} did not run")
                elif not checks[c] and c not in SIZE_DEPENDENT:
                    problems.append(f"{where}: check {c} failed")
            print(f"{where}: {len(result['metrics'])} metrics, "
                  f"{len(checks)} checks reported")
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
