// SpillEncoder: realignment into partition frames under both wire
// layouts (grouped KvList, flat KvPair), bounded and unbounded flush
// thresholds, spill-time combining and sorted spill runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mpid/common/kvframe.hpp"
#include "mpid/shuffle/buffer.hpp"
#include "mpid/shuffle/engine.hpp"

namespace mpid::shuffle {
namespace {

using Pair = std::pair<std::string, std::string>;

struct CapturedFrames {
  /// Wire frames per partition, in flush order.
  std::map<std::uint32_t, std::vector<std::vector<std::byte>>> frames;

  SpillEncoder::FrameSink sink() {
    return [this](std::uint32_t p, std::vector<std::byte> frame,
                  bool codec_framed) {
      EXPECT_FALSE(codec_framed);  // no compressor in these tests
      frames[p].push_back(std::move(frame));
    };
  }

  /// All pairs of one partition, decoded in frame order.
  std::vector<Pair> pairs_of(std::uint32_t p, Layout layout) const {
    std::vector<Pair> out;
    const auto it = frames.find(p);
    if (it == frames.end()) return out;
    for (const auto& frame : it->second) {
      if (layout == Layout::kKvList) {
        common::KvListReader reader(frame);
        while (auto group = reader.next()) {
          for (const auto v : group->values) {
            out.emplace_back(std::string(group->key), std::string(v));
          }
        }
      } else {
        common::KvReader reader(frame);
        while (auto pair = reader.next()) {
          out.emplace_back(std::string(pair->key), std::string(pair->value));
        }
      }
    }
    return out;
  }
};

constexpr std::uint32_t kPartitions = 3;

SpillEncoder::Setup setup_for(Layout layout, std::size_t flush_bytes,
                              CapturedFrames& captured,
                              ShuffleCounters& counters) {
  SpillEncoder::Setup setup;
  setup.layout = layout;
  setup.partitions = kPartitions;
  setup.frame_flush_bytes = flush_bytes;
  setup.partitioner = Partitioner(kPartitions);
  setup.counters = &counters;
  setup.sink = captured.sink();
  return setup;
}

std::vector<Pair> make_input(int n) {
  std::vector<Pair> input;
  for (int i = 0; i < n; ++i) {
    input.emplace_back("key-" + std::to_string(i % 17),
                       "value-" + std::to_string(i));
  }
  return input;
}

TEST(SpillEncoderTest, BoundedKvListFlushesMultipleFramesAndLosesNothing) {
  ShuffleOptions opts;
  CapturedFrames captured;
  ShuffleCounters counters;
  SpillEncoder encoder(opts, setup_for(Layout::kKvList, 256, captured,
                                       counters));
  MapOutputBuffer buffer(opts, nullptr, &counters);
  const auto input = make_input(400);
  for (const auto& [k, v] : input) buffer.append(k, v);
  encoder.spill(buffer);
  encoder.flush_all();

  const Partitioner part(kPartitions);
  std::map<std::uint32_t, std::vector<Pair>> expected;
  for (const auto& [k, v] : input) expected[part(k)].emplace_back(k, v);

  std::size_t total_frames = 0;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    auto got = captured.pairs_of(p, Layout::kKvList);
    auto want = expected[p];
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "partition " << p;
    total_frames += captured.frames[p].size();
  }
  EXPECT_GT(total_frames, kPartitions) << "256-byte frames must have split";
  EXPECT_EQ(counters.pairs_after_combine, input.size());
  EXPECT_EQ(counters.spills, 1u);
  EXPECT_GT(counters.spill_ns, 0u);
}

TEST(SpillEncoderTest, UnboundedKvPairAccumulatesOneFramePerPartition) {
  ShuffleOptions opts;
  opts.spill_threshold_bytes = 512;  // force several spill rounds
  CapturedFrames captured;
  ShuffleCounters counters;
  SpillEncoder encoder(opts,
                       setup_for(Layout::kKvPair,
                                 SpillEncoder::kUnboundedFrame, captured,
                                 counters));
  MapOutputBuffer buffer(opts, nullptr, &counters);
  const auto input = make_input(400);
  for (const auto& [k, v] : input) {
    buffer.append(k, v);
    if (buffer.should_spill()) encoder.spill(buffer);
  }
  encoder.spill(buffer);
  EXPECT_GT(counters.spills, 1u);
  EXPECT_TRUE(captured.frames.empty()) << "nothing flushes before flush_all";
  encoder.flush_all();

  std::size_t total_pairs = 0;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    ASSERT_EQ(captured.frames[p].size(), 1u) << "one segment per partition";
    total_pairs += captured.pairs_of(p, Layout::kKvPair).size();
  }
  EXPECT_EQ(total_pairs, input.size());
}

TEST(SpillEncoderTest, SpillTimeCombineCollapsesValueLists) {
  ShuffleOptions opts;
  CapturedFrames captured;
  ShuffleCounters counters;
  CombineRunner combine(
      [](std::string_view, std::vector<std::string>&& values) {
        std::uint64_t total = 0;
        for (const auto& v : values) total += std::stoull(v);
        return std::vector<std::string>{std::to_string(total)};
      },
      &counters);
  SpillEncoder encoder(
      opts, setup_for(Layout::kKvPair, SpillEncoder::kUnboundedFrame, captured,
                      counters));
  // The buffer owns the runner: the spill combines its table in place
  // before draining it.
  MapOutputBuffer buffer(opts, &combine, &counters);
  for (int i = 0; i < 10; ++i) buffer.append("hot", "1");
  buffer.append("cold", "1");
  const std::size_t footprint = buffer.bytes_used();
  encoder.spill(buffer);
  encoder.flush_all();

  std::map<std::string, std::vector<std::string>> by_key;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    for (const auto& [k, v] : captured.pairs_of(p, Layout::kKvPair)) {
      by_key[k].push_back(v);
    }
  }
  EXPECT_EQ(by_key["hot"], (std::vector<std::string>{"10"}));
  // Single-value keys skip the combiner call but still ship.
  EXPECT_EQ(by_key["cold"], (std::vector<std::string>{"1"}));
  EXPECT_EQ(counters.pairs_after_combine, 2u);
  EXPECT_GT(counters.combine_ns, 0u);
  // The peak is the footprint the map filled, read before the combine
  // shrank it.
  EXPECT_EQ(counters.table_bytes_peak, footprint);
}

TEST(SpillEncoderTest, SortKeysKeepsEveryFrameASingleSortedRun) {
  ShuffleOptions opts;
  opts.sort_keys = true;
  CapturedFrames captured;
  ShuffleCounters counters;
  SpillEncoder encoder(opts,
                       setup_for(Layout::kKvList, 0, captured, counters));
  MapOutputBuffer buffer(opts, nullptr, &counters);
  // Two spill rounds with interleaved key ranges: without the per-spill
  // flush, a frame would hold two ascending runs.
  for (int i = 0; i < 50; ++i) buffer.append("b" + std::to_string(i), "x");
  encoder.spill(buffer);
  for (int i = 0; i < 50; ++i) buffer.append("a" + std::to_string(i), "y");
  encoder.spill(buffer);
  encoder.flush_all();

  for (const auto& [p, frames] : captured.frames) {
    for (const auto& frame : frames) {
      common::KvListReader reader(frame);
      std::string prev;
      bool first = true;
      while (auto group = reader.next()) {
        if (!first) {
          EXPECT_LE(prev, std::string(group->key)) << "partition " << p;
        }
        prev = std::string(group->key);
        first = false;
      }
    }
  }
}

TEST(SpillEncoderTest, ResetDiscardsPendingFrames) {
  ShuffleOptions opts;
  CapturedFrames captured;
  ShuffleCounters counters;
  SpillEncoder encoder(opts,
                       setup_for(Layout::kKvList, SpillEncoder::kUnboundedFrame,
                                 captured, counters));
  MapOutputBuffer buffer(opts, nullptr, &counters);
  buffer.append("doomed", "payload");
  encoder.spill(buffer);
  encoder.reset();
  encoder.flush_all();
  EXPECT_TRUE(captured.frames.empty());
}

}  // namespace
}  // namespace mpid::shuffle
