#!/usr/bin/env bash
# AddressSanitizer gate for the arena-backed combine path.
#
# Builds the common, core (MPI-D) and minihadoop test suites with
# -fsanitize=address (cmake -DMPID_SANITIZE=address) in a separate build
# tree and runs them. These are the suites that exercise KvCombineTable's
# bump arenas, slab-block chains and placement-new block headers, the
# recycle-in-place spill cycle, and the zero-copy drain into partition
# frames — exactly the code where a stale arena pointer or an off-by-one
# in a varint-prefixed slab would corrupt silently in a release build.
# test_common also carries the shuffle-codec round-trip fuzz
# (test_codec_fuzz.cpp), so the mutated/truncated wire frames hit the
# decoder's bounds checks under instrumentation here. test_shuffle covers
# the extracted engine (buffer drain-under-throw, encoder frame reuse,
# compressor framing escapes) at the unit level. test_store covers the
# two-tier spill store (budget charge/release balance, recycled I/O
# pages, run-file RAII, the loser-tree merge), and the spill-parity
# integration suite runs both runtimes under a tight budget so the
# spill/compact/external-merge cycle executes instrumented end to end.
#
# Usage: scripts/check_asan.sh [extra gtest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-asan

cmake -B "$BUILD_DIR" -S . -DMPID_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" --target test_common test_shuffle test_store \
  test_mpid test_minihadoop test_integration -j

# detect_leaks also catches frames/blocks that escape the pools.
export ASAN_OPTIONS="detect_leaks=1 strict_string_checks=1 ${ASAN_OPTIONS:-}"

for suite in test_common test_shuffle test_store test_mpid test_minihadoop; do
  echo "=== ASan: $suite ==="
  "$BUILD_DIR/tests/$suite" "$@"
done

echo "=== ASan: test_integration (spill + composition parity) ==="
# CompositionParity drives the codec, the node combine tree and the
# WorkerPool lanes end to end, across every cell of compression x node
# aggregation x map threads.
"$BUILD_DIR/tests/test_integration" \
  --gtest_filter='*SpillParity*:*CompositionParity*' "$@"

echo "ASan check passed."
