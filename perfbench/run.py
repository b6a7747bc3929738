#!/usr/bin/env python3
"""odbgc benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oo7_sweep --seed 1 --seconds 30 --trace 0

Builds the benchmark driver from source on first use (CMake, into
.bench_build/ or $CARGO_TARGET_DIR), runs one workload for --seconds of
measured wall time, and prints one JSON object as the last stdout line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
The traced run also writes a Chrome/Perfetto trace of its spans and
validates it with odbgc_tracecheck; the file is kept as
<build>/trace-<workload>.json.

--size tiny shrinks every workload (OO7 Tiny, 10 fleet clients) for the
self-check in perfbench/selfcheck.py; measurements use the default size.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args()
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be in [1, 600]")
    # Any integer is a seed; the driver takes it as an unsigned 64-bit
    # value (negative seeds wrap, as in two's complement).
    args.seed %= 2**64
    return args


def build(root, build_dir):
    """Configures (once) and builds the driver and the trace validator."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no odbgc sources (src/CMakeLists.txt) in the current "
             "directory; run from the root of a source checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j4"],
                   stdout=sys.stderr, check=True)


def run_driver(binary, args, out_dir):
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out-dir={out_dir}", f"--size={args.size}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s", 4)
    if proc.returncode != 0:
        fail(f"driver exited with code {proc.returncode}", 4)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("driver printed no result", 4)
    return json.loads(lines[-1])


def main():
    args = parse_args()
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found in the current directory")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root,
                                                           ".bench_build"))
    try:
        build(root, build_dir)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}", 3)

    out_dir = os.path.join(build_dir, "run", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        result = run_driver(os.path.join(build_dir, "odbgc_perfbench"),
                            args, out_dir)
        checks = dict(result["checks"])
        if args.trace:
            trace = os.path.join(out_dir, "trace.json")
            rc = subprocess.run(
                [os.path.join(build_dir, "odbgc_tracecheck"), trace],
                stdout=sys.stderr, stderr=sys.stderr).returncode
            checks["trace_file_passes_tracecheck"] = rc == 0
            if os.path.isfile(trace):
                shutil.copyfile(trace, os.path.join(
                    build_dir, f"trace-{args.workload}.json"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    # Keep exactly the metrics this mode declares, with their units.
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        ok = got is not None and got["unit"] == m["unit"]
        checks[f"metric_emitted:{m['name']}"] = ok
        if ok:
            metrics[m["name"]] = got

    attempted = result["attempted"]
    failed = result["failed"]
    for name, ok in sorted(checks.items()):
        if name not in result["checks"]:
            attempted += 1
            failed += 0 if ok else 1
        if not name.startswith("metric_emitted:") or not ok:
            print(f"check {name} {'ok' if ok else 'FAILED'}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and result["correct"],
                      "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
