#!/usr/bin/env bash
# ThreadSanitizer gate for the threaded transport layers.
#
# Builds the minimpi, core (MPI-D), shuffle and common test suites with
# -fsanitize=thread (cmake -DMPID_SANITIZE=thread) in a separate build
# tree and runs them. These are the suites that exercise the sharded
# mailboxes, the pipelined zero-copy shuffle window, the shared FramePool
# across rank threads, and the map-side worker pool (WorkerPool /
# ParallelMapper) — any data race there is a correctness bug, not a perf
# detail. A short slice of the seeded chaos sweep (test_chaos) then runs
# the resilient shuffle's fault paths — drops, corruption, task crashes,
# re-pulls — under the same instrumentation.
#
# Usage: scripts/check_tsan.sh [extra gtest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan

cmake -B "$BUILD_DIR" -S . -DMPID_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" --target test_minimpi test_mpid test_shuffle test_common \
  test_integration test_chaos -j

# halt_on_error makes a race fail the test run instead of just logging.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"

for suite in test_minimpi test_mpid test_shuffle test_common; do
  echo "=== TSan: $suite ==="
  "$BUILD_DIR/tests/$suite" "$@"
done

# Coded shuffle runs r replica map pipelines through the WorkerPool when
# map_threads > 1 and multicasts one buffer to r reducer threads — the
# parity matrix exercises both compositions under instrumentation.
echo "=== TSan: test_integration (coded parity) ==="
"$BUILD_DIR/tests/test_integration" --gtest_filter='*CodedParity*' "$@"

# 150 plans per workload (wordcount, sort, cc) keep the instrumented
# slice short; the uninstrumented tier-1 run covers more plans.
echo "=== TSan: test_chaos (150 plans per workload) ==="
MPID_CHAOS_PLANS=150 "$BUILD_DIR/tests/test_chaos" "$@"

echo "TSan check passed."
