// ShuffleCounters merge semantics and the CounterCommitPoint contract:
// commit-time accumulation from concurrent workers must be exact (sums
// sum, peaks max) with no lost updates.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "mpid/shuffle/counters.hpp"

namespace mpid::shuffle {
namespace {

TEST(ShuffleCountersTest, MergeSumsEverythingExceptPeak) {
  ShuffleCounters a;
  a.pairs_after_combine = 10;
  a.spills = 2;
  a.combine_ns = 100;
  a.spill_ns = 200;
  a.table_bytes_peak = 5000;
  a.shuffle_bytes_raw = 4096;
  a.shuffle_bytes_wire = 1024;
  a.compress_ns = 50;
  a.decompress_ns = 25;
  a.frames_stored_uncompressed = 3;

  ShuffleCounters b;
  b.pairs_after_combine = 7;
  b.spills = 1;
  b.table_bytes_peak = 9000;  // larger: must win the max
  b.shuffle_bytes_raw = 100;

  a.merge(b);
  EXPECT_EQ(a.pairs_after_combine, 17u);
  EXPECT_EQ(a.spills, 3u);
  EXPECT_EQ(a.combine_ns, 100u);
  EXPECT_EQ(a.table_bytes_peak, 9000u);
  EXPECT_EQ(a.shuffle_bytes_raw, 4196u);
  EXPECT_EQ(a.shuffle_bytes_wire, 1024u);
  EXPECT_EQ(a.frames_stored_uncompressed, 3u);

  ShuffleCounters smaller_peak;
  smaller_peak.table_bytes_peak = 10;
  a.merge(smaller_peak);
  EXPECT_EQ(a.table_bytes_peak, 9000u);  // peak never regresses
}

TEST(ShuffleCountersTest, ChainBlockMergesSumsWithRoundsAsMax) {
  // The chain block: chain_rounds is a per-rank round stamp (max wins so
  // the fold proves the barrier count); the residency tallies are sums.
  ShuffleCounters a;
  a.chain_rounds = 4;
  a.ingest_bytes = 1000;
  a.resident_pairs_in = 12;
  a.resident_bytes_in = 300;
  a.static_bytes_pinned = 80;
  a.static_bytes_reshuffled = 0;
  a.resident_bytes_spilled = 64;

  ShuffleCounters b;
  b.chain_rounds = 3;  // a slower rank's stamp: must not regress the max
  b.ingest_bytes = 500;
  b.resident_pairs_in = 6;
  b.resident_bytes_in = 150;
  b.static_bytes_pinned = 40;
  b.static_bytes_reshuffled = 200;
  b.resident_bytes_spilled = 0;

  a.merge(b);
  EXPECT_EQ(a.chain_rounds, 4u);
  EXPECT_EQ(a.ingest_bytes, 1500u);
  EXPECT_EQ(a.resident_pairs_in, 18u);
  EXPECT_EQ(a.resident_bytes_in, 450u);
  EXPECT_EQ(a.static_bytes_pinned, 120u);
  EXPECT_EQ(a.static_bytes_reshuffled, 200u);
  EXPECT_EQ(a.resident_bytes_spilled, 64u);

  ShuffleCounters later;
  later.chain_rounds = 6;
  a.merge(later);
  EXPECT_EQ(a.chain_rounds, 6u);
}

TEST(CounterCommitPointTest, NullTargetIsANoOp) {
  CounterCommitPoint commit(nullptr);
  ShuffleCounters block;
  block.pairs_after_combine = 5;
  commit.commit(block);  // must not crash
}

TEST(CounterCommitPointTest, ConcurrentCommitsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 500;
  ShuffleCounters totals;
  CounterCommitPoint commit(&totals);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&commit, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        ShuffleCounters block;
        block.pairs_after_combine = 1;
        block.spills = 2;
        block.shuffle_bytes_raw = 3;
        block.table_bytes_peak =
            static_cast<std::uint64_t>(t) * kCommitsPerThread + i + 1;
        commit.commit(block);
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr std::uint64_t kCommits =
      static_cast<std::uint64_t>(kThreads) * kCommitsPerThread;
  EXPECT_EQ(totals.pairs_after_combine, kCommits);
  EXPECT_EQ(totals.spills, 2 * kCommits);
  EXPECT_EQ(totals.shuffle_bytes_raw, 3 * kCommits);
  EXPECT_EQ(totals.table_bytes_peak, kCommits);  // the max of all blocks
}

}  // namespace
}  // namespace mpid::shuffle
