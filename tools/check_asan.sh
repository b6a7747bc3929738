#!/usr/bin/env bash
# Builds the storage / collector stack under AddressSanitizer plus
# UndefinedBehaviorSanitizer (any UB report aborts the test) and runs
# the tests that exercise the fault injector, crash recovery, and the
# heap verifier (plus the corrupt-trace loader corpora, which is where a
# reader bug would touch memory it should not), the checkpoint format's
# bulk snapshot encode/decode, the in-place reverse-list sort, and the
# JSON writer's fixed-buffer number formatting.
# Usage: tools/check_asan.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DODBGC_SANITIZE=address
cmake --build "$BUILD_DIR" --target \
  fault_injection_test self_healing_test recovery_test buffer_pool_test \
  fuzz_test storage_test collector_test checkpoint_test reverse_index_test \
  json_test -j "$(nproc)"

for t in fault_injection_test self_healing_test recovery_test \
         buffer_pool_test fuzz_test storage_test collector_test \
         checkpoint_test reverse_index_test json_test; do
  echo "== ${t} under address + undefined-behavior sanitizers =="
  "$BUILD_DIR/tests/$t"
done
echo "OK: no address or undefined-behavior sanitizer reports"
