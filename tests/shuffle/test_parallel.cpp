// ParallelMapper tests: the hybrid map stage must be a pure speed knob —
// byte-identical sink output for every thread count, frames delivered in
// chunk order, exact counters via commit-time accumulation, and clean
// failure propagation out of worker chunks.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpid/shuffle/parallel.hpp"
#include "mpid/shuffle/workerpool.hpp"

namespace mpid::shuffle {
namespace {

struct SinkFrame {
  std::uint32_t partition = 0;
  std::vector<std::byte> bytes;
  bool codec_framed = false;

  bool operator==(const SinkFrame& other) const {
    return partition == other.partition && bytes == other.bytes &&
           codec_framed == other.codec_framed;
  }
};

Combiner sum_combiner() {
  return [](std::string_view, std::vector<std::string>&& values) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    return std::vector<std::string>{std::to_string(total)};
  };
}

/// Emits a deterministic word stream for `chunk`: a few hundred skewed
/// keys so combining and spilling both engage.
void emit_chunk(std::size_t chunk, const ParallelMapper::EmitFn& emit) {
  for (int i = 0; i < 400; ++i) {
    const auto word = (static_cast<int>(chunk) * 31 + i * i) % 37;
    emit("word-" + std::to_string(word), "1");
  }
}

struct RunOutput {
  std::vector<SinkFrame> frames;  // in delivery order
  ShuffleCounters counters;
  std::uint64_t pairs = 0;
};

RunOutput run_mapper(std::size_t threads, std::size_t chunks,
                     ShuffleCompression compression, bool with_combiner) {
  ShuffleOptions options;
  options.map_threads = threads;
  options.shuffle_compression = compression;
  options.spill_threshold_bytes = 2 * 1024;
  options.partition_frame_bytes = 1024;
  options.compress_min_frame_bytes = 64;
  options.validate();

  RunOutput out;
  ParallelMapper::Setup setup;
  setup.partitions = 3;
  if (with_combiner) setup.combiner = sum_combiner();
  setup.counters = &out.counters;
  setup.sink = [&out](std::uint32_t p, std::vector<std::byte> frame,
                      bool codec_framed) {
    out.frames.push_back(SinkFrame{p, std::move(frame), codec_framed});
  };
  ParallelMapper mapper(options, std::move(setup));
  WorkerPool pool(threads);
  out.pairs = mapper.run(pool, chunks, emit_chunk);
  return out;
}

TEST(ParallelMapperTest, ThreadCountNeverChangesTheWireBytes) {
  for (const bool combiner : {false, true}) {
    for (const auto mode :
         {ShuffleCompression::kOff, ShuffleCompression::kAuto,
          ShuffleCompression::kOn}) {
      const auto base = run_mapper(1, 16, mode, combiner);
      ASSERT_FALSE(base.frames.empty());
      for (const std::size_t threads : {2u, 4u}) {
        const auto run = run_mapper(threads, 16, mode, combiner);
        const std::string label =
            "threads=" + std::to_string(threads) +
            " combiner=" + (combiner ? "1" : "0") +
            " mode=" + std::to_string(static_cast<int>(mode));
        ASSERT_EQ(run.frames.size(), base.frames.size()) << label;
        for (std::size_t i = 0; i < run.frames.size(); ++i) {
          EXPECT_TRUE(run.frames[i] == base.frames[i])
              << label << " frame " << i;
        }
        EXPECT_EQ(run.pairs, base.pairs) << label;
        EXPECT_EQ(run.counters.pairs_after_combine,
                  base.counters.pairs_after_combine)
            << label;
        EXPECT_EQ(run.counters.spills, base.counters.spills) << label;
        EXPECT_EQ(run.counters.shuffle_bytes_wire,
                  base.counters.shuffle_bytes_wire)
            << label;
      }
    }
  }
}

TEST(ParallelMapperTest, CountsEveryEmittedPair) {
  const auto out = run_mapper(4, 8, ShuffleCompression::kOff, false);
  EXPECT_EQ(out.pairs, 8u * 400u);
  EXPECT_EQ(out.counters.pairs_after_combine, 8u * 400u);
  EXPECT_GT(out.counters.spills, 0u);
}

TEST(ParallelMapperTest, ChunkExceptionPropagatesToCaller) {
  ShuffleOptions options;
  options.map_threads = 4;
  options.validate();
  ShuffleCounters counters;
  ParallelMapper::Setup setup;
  setup.partitions = 2;
  setup.counters = &counters;
  setup.sink = [](std::uint32_t, std::vector<std::byte>, bool) {};
  ParallelMapper mapper(options, std::move(setup));
  WorkerPool pool(4);
  EXPECT_THROW(
      mapper.run(pool, 16,
                 [](std::size_t chunk, const ParallelMapper::EmitFn& emit) {
                   if (chunk == 5) throw std::runtime_error("map failed");
                   emit("k", "v");
                 }),
      std::runtime_error);
}

TEST(ResolveMapChunksTest, AutoIsFixedAndCappedByItems) {
  // The chunk count takes no options, so it cannot depend on map_threads
  // — chunk cadence determines spill boundaries, and those must match
  // across thread counts for the byte-parity guarantee.
  EXPECT_EQ(resolve_map_chunks(100000), 16u);
  EXPECT_EQ(resolve_map_chunks(16), 16u);
  EXPECT_EQ(resolve_map_chunks(3), 3u);  // capped by items
  EXPECT_EQ(resolve_map_chunks(0), 1u);  // never zero
}

}  // namespace
}  // namespace mpid::shuffle
