#!/usr/bin/env bash
# ThreadSanitizer gate for the threaded transport layers.
#
# Builds the minimpi, core (MPI-D), shuffle, common and MiniHadoop test
# suites with -fsanitize=thread (cmake -DMPID_SANITIZE=thread) in a
# separate build tree and runs them. These are the suites that exercise
# the sharded mailboxes, the pipelined zero-copy shuffle window, the
# shared FramePool across rank threads, the map-side worker pool
# (WorkerPool / ParallelMapper) and MiniHadoop's tasktracker threads,
# whose map attempts run on that pool under faults too — any data race
# there is a correctness bug, not a perf detail. Short slices of the
# seeded chaos sweep (test_chaos), sequential and threaded, then run the
# resilient shuffle's fault paths — drops, corruption, task crashes,
# re-pulls — under the same instrumentation.
#
# Usage: scripts/check_tsan.sh [extra gtest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan

cmake -B "$BUILD_DIR" -S . -DMPID_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" --target test_minimpi test_mpid test_shuffle test_common \
  test_minihadoop test_integration test_chaos test_mapred -j

# halt_on_error makes a race fail the test run instead of just logging.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"

for suite in test_minimpi test_mpid test_shuffle test_common test_minihadoop; do
  echo "=== TSan: $suite ==="
  "$BUILD_DIR/tests/$suite" "$@"
done

# The composition matrix runs WorkerPool lanes (map_threads = 4) with the
# codec on and with node aggregation, so the lanes' counter commits, the
# sequencer and the node exchange all run under instrumentation.
echo "=== TSan: test_integration (composition parity) ==="
"$BUILD_DIR/tests/test_integration" \
  --gtest_filter='*CompositionParity*' "$@"

# The pinned static channel is read by every mapper and reducer thread of
# a chain at once: its table tests (4 concurrent readers) and the
# back-to-back cc runs on both runtimes.
echo "=== TSan: test_integration (static channel) ==="
"$BUILD_DIR/tests/test_integration" \
  --gtest_filter='StaticTables.*:CcRepeatRun.*' "$@"

# JobRunner's reducers write their output runs before the final barrier
# and the master merges them as soon as every reducer's done message has
# arrived: the output-contract tests, a failing reduce and back-to-back
# sort- and wordcount-shaped jobs run that hand-off under instrumentation
# (JobRunner* also matches the JobRunnerOutput and JobRunnerRepeatRun
# suites).
echo "=== TSan: test_mapred (JobRunner) ==="
"$BUILD_DIR/tests/test_mapred" --gtest_filter='JobRunner*:TextInput*' "$@"

# 150 plans per workload (wordcount, sort, cc, sssp) and 100 of the
# threaded slice (wordcount, cc at map_threads = 4) keep the instrumented
# run short; the uninstrumented tier-1 run covers more plans.
echo "=== TSan: test_chaos (150 plans per workload) ==="
MPID_CHAOS_PLANS=150 "$BUILD_DIR/tests/test_chaos" \
  --gtest_filter='Workloads/ChaosSweep.*' "$@"
echo "=== TSan: test_chaos (100 threaded plans per workload) ==="
MPID_CHAOS_PLANS=100 "$BUILD_DIR/tests/test_chaos" \
  --gtest_filter='Workloads/ThreadedChaosSweep.*' "$@"

echo "TSan check passed."
