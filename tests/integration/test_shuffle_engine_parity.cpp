// Cross-runtime proof that MPI-D and MiniHadoop run the SAME shuffle
// pipeline: the shared engine, assembled exactly as each runtime wires it
// (MPI-D: grouped KvList frames, bounded flush, self-describing codec
// framing; MiniHadoop: flat KvPair segments, unbounded flush, flagged
// codec framing), must produce the same realigned data for the same
// emitted stream over every knob combination —
//   {compression off/auto/on} x {combiner on/off}.
// Compression must be wire-only: the decoded frames are byte-identical to
// the uncompressed run's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mpid/common/kvframe.hpp"
#include "mpid/common/prng.hpp"
#include "mpid/core/config.hpp"
#include "mpid/minihadoop/minihadoop.hpp"
#include "mpid/shuffle/buffer.hpp"
#include "mpid/shuffle/compress.hpp"
#include "mpid/shuffle/engine.hpp"
#include "mpid/shuffle/parallel.hpp"
#include "mpid/shuffle/workerpool.hpp"

namespace mpid {
namespace {

using shuffle::Layout;
using shuffle::ShuffleCompression;
using shuffle::WireFraming;

constexpr std::uint32_t kPartitions = 3;

/// One runtime's transport shape around the shared engine.
struct RuntimeShape {
  const char* name;
  Layout layout;
  std::size_t frame_flush_bytes;  // 0: options default; ~0: unbounded
  WireFraming framing;
  common::FrameKind kind;
};

const RuntimeShape kMpidShape{"mpid", Layout::kKvList, 0,
                              WireFraming::kSelfDescribing,
                              common::FrameKind::kKvList};
const RuntimeShape kMiniHadoopShape{"minihadoop", Layout::kKvPair,
                                    shuffle::SpillEncoder::kUnboundedFrame,
                                    WireFraming::kFlagged,
                                    common::FrameKind::kKvPair};

struct WireFrame {
  std::vector<std::byte> bytes;
  bool codec_framed = false;
};

struct RunResult {
  std::map<std::uint32_t, std::vector<WireFrame>> wire;  // flush order
  shuffle::ShuffleCounters counters;

  /// Raw (decoded) frame bytes of one partition, concatenated.
  std::vector<std::byte> raw_of(std::uint32_t p) const {
    std::vector<std::byte> out;
    const auto it = wire.find(p);
    if (it == wire.end()) return out;
    shuffle::ShuffleCounters scratch;
    shuffle::FrameDecoder decoder(0, nullptr, &scratch);
    for (const auto& frame : it->second) {
      if (frame.codec_framed) {
        std::vector<std::byte> decoded;
        decoder.decode_into(frame.bytes, decoded);
        out.insert(out.end(), decoded.begin(), decoded.end());
      } else {
        out.insert(out.end(), frame.bytes.begin(), frame.bytes.end());
      }
    }
    return out;
  }

  /// (key, value) pairs of one partition, in realigned order.
  std::vector<std::pair<std::string, std::string>> pairs_of(
      std::uint32_t p, Layout layout) const {
    std::vector<std::pair<std::string, std::string>> out;
    const auto raw = raw_of(p);
    if (layout == Layout::kKvList) {
      common::KvListReader reader(raw);
      while (auto group = reader.next()) {
        for (const auto v : group->values) {
          out.emplace_back(std::string(group->key), std::string(v));
        }
      }
    } else {
      common::KvReader reader(raw);
      while (auto pair = reader.next()) {
        out.emplace_back(std::string(pair->key), std::string(pair->value));
      }
    }
    return out;
  }
};

/// The emitted map stream: a skewed word sequence, the same for every run.
std::vector<std::pair<std::string, std::string>> make_stream() {
  common::Xoshiro256StarStar rng(4242);
  std::vector<std::pair<std::string, std::string>> stream;
  for (int i = 0; i < 3000; ++i) {
    // Square the draw for skew: low word ids dominate, giving real value
    // lists to combine while keeping a long single-value tail.
    const auto a = rng.next_in(0, 59);
    const auto b = rng.next_in(0, 59);
    stream.emplace_back("word-" + std::to_string((a * b) / 10), "1");
  }
  return stream;
}

/// Runs the full shared pipeline — buffer, combiner, partitioner, spill
/// encoder, codec — the way `shape` wires it, over `stream`.
RunResult run_pipeline(const RuntimeShape& shape,
                       const shuffle::ShuffleOptions& opts, bool with_combiner,
                       const std::vector<std::pair<std::string, std::string>>&
                           stream) {
  RunResult result;
  shuffle::CombineRunner combine(
      with_combiner
          ? shuffle::Combiner(
                [](std::string_view, std::vector<std::string>&& values) {
                  std::uint64_t total = 0;
                  for (const auto& v : values) total += std::stoull(v);
                  return std::vector<std::string>{std::to_string(total)};
                })
          : shuffle::Combiner{},
      &result.counters);
  shuffle::MapOutputBuffer buffer(opts, &combine, &result.counters);
  std::optional<shuffle::FrameCompressor> compressor;
  if (opts.shuffle_compression != ShuffleCompression::kOff) {
    compressor.emplace(opts, shape.framing, shape.kind, nullptr,
                       &result.counters);
  }
  shuffle::SpillEncoder::Setup setup;
  setup.layout = shape.layout;
  setup.partitions = kPartitions;
  setup.frame_flush_bytes = shape.frame_flush_bytes;
  setup.partitioner = shuffle::Partitioner(kPartitions);
  setup.compressor = compressor ? &*compressor : nullptr;
  setup.counters = &result.counters;
  setup.sink = [&result](std::uint32_t p, std::vector<std::byte> frame,
                         bool codec_framed) {
    result.wire[p].push_back(WireFrame{std::move(frame), codec_framed});
  };
  shuffle::SpillEncoder encoder(opts, setup);

  for (const auto& [k, v] : stream) {
    buffer.append(k, v);
    if (buffer.should_spill()) encoder.spill(buffer);
  }
  encoder.spill(buffer);
  encoder.flush_all();
  return result;
}

shuffle::ShuffleOptions options_for(ShuffleCompression mode) {
  shuffle::ShuffleOptions opts;
  opts.shuffle_compression = mode;
  opts.spill_threshold_bytes = 4 * 1024;  // several spill rounds per run
  opts.partition_frame_bytes = 2 * 1024;  // several frames per partition
  opts.compress_min_frame_bytes = 64;
  opts.validate();
  return opts;
}

TEST(ShuffleEngineParityTest, RuntimesRealignIdenticallyAcrossAllKnobs) {
  const auto stream = make_stream();
  for (const bool combiner : {false, true}) {
    {
      for (const auto mode :
           {ShuffleCompression::kOff, ShuffleCompression::kAuto,
            ShuffleCompression::kOn}) {
        const auto opts = options_for(mode);
        const auto mpid = run_pipeline(kMpidShape, opts, combiner, stream);
        const auto mini =
            run_pipeline(kMiniHadoopShape, opts, combiner, stream);
        const std::string label =
            std::string("combiner=") + (combiner ? "1" : "0") +
            " mode=" + std::to_string(static_cast<int>(mode));

        // Identical emitted streams through identical buffer and combine
        // stages: the realigned pair sequence per partition must match
        // pair for pair, even though the wire layouts differ.
        for (std::uint32_t p = 0; p < kPartitions; ++p) {
          EXPECT_EQ(mpid.pairs_of(p, kMpidShape.layout),
                    mini.pairs_of(p, kMiniHadoopShape.layout))
              << label << " partition " << p;
        }
        EXPECT_EQ(mpid.counters.pairs_after_combine,
                  mini.counters.pairs_after_combine)
            << label;
        EXPECT_EQ(mpid.counters.spills, mini.counters.spills) << label;
        if (mode != ShuffleCompression::kOff) {
          // Every raw byte that went through the codec is accounted.
          std::size_t decoded_bytes = 0;
          for (std::uint32_t p = 0; p < kPartitions; ++p) {
            decoded_bytes += mpid.raw_of(p).size();
          }
          EXPECT_EQ(mpid.counters.shuffle_bytes_raw, decoded_bytes) << label;
        }
      }
    }
  }
}

TEST(ShuffleEngineParityTest, CompressionIsWireOnly) {
  const auto stream = make_stream();
  for (const auto& shape : {kMpidShape, kMiniHadoopShape}) {
    for (const bool combiner : {false, true}) {
      const auto off = run_pipeline(
          shape, options_for(ShuffleCompression::kOff), combiner,
          stream);
      for (const auto mode :
           {ShuffleCompression::kAuto, ShuffleCompression::kOn}) {
        const auto compressed =
            run_pipeline(shape, options_for(mode), combiner, stream);
        for (std::uint32_t p = 0; p < kPartitions; ++p) {
          EXPECT_EQ(off.raw_of(p), compressed.raw_of(p))
              << shape.name << " mode=" << static_cast<int>(mode)
              << " partition " << p;
        }
        EXPECT_GT(compressed.counters.shuffle_bytes_raw, 0u);
        EXPECT_LT(compressed.counters.shuffle_bytes_wire,
                  compressed.counters.shuffle_bytes_raw)
            << shape.name << ": '1'-valued word pairs must compress";
      }
    }
  }
}

/// Runs the stream through ParallelMapper the way `shape` wires it, with
/// `threads` pool workers. Chunk boundaries come from resolve_map_chunks,
/// so they are identical for every thread count by construction — what
/// this run checks is that the concurrent lanes + reorder sequencer
/// reproduce the same wire bytes.
RunResult run_parallel_pipeline(
    const RuntimeShape& shape, shuffle::ShuffleOptions opts,
    bool with_combiner, std::size_t threads,
    const std::vector<std::pair<std::string, std::string>>& stream) {
  opts.map_threads = threads;
  opts.validate();

  RunResult result;
  shuffle::ParallelMapper::Setup setup;
  setup.layout = shape.layout;
  setup.partitions = kPartitions;
  setup.frame_flush_bytes = shape.frame_flush_bytes;
  if (with_combiner) {
    setup.combiner = [](std::string_view, std::vector<std::string>&& values) {
      std::uint64_t total = 0;
      for (const auto& v : values) total += std::stoull(v);
      return std::vector<std::string>{std::to_string(total)};
    };
  }
  setup.compress_framing = shape.framing;
  setup.compress_kind = shape.kind;
  setup.counters = &result.counters;
  setup.sink = [&result](std::uint32_t p, std::vector<std::byte> frame,
                         bool codec_framed) {
    result.wire[p].push_back(WireFrame{std::move(frame), codec_framed});
  };
  shuffle::ParallelMapper mapper(opts, std::move(setup));
  shuffle::WorkerPool pool(threads);

  const auto chunks = shuffle::resolve_map_chunks(stream.size());
  mapper.run(pool, chunks,
             [&](std::size_t chunk,
                 const shuffle::ParallelMapper::EmitFn& emit) {
               const std::size_t lo = chunk * stream.size() / chunks;
               const std::size_t hi = (chunk + 1) * stream.size() / chunks;
               for (std::size_t i = lo; i < hi; ++i) {
                 emit(stream[i].first, stream[i].second);
               }
             });
  return result;
}

TEST(ShuffleEngineParityTest, ThreadCountPreservesWireBytesOnBothRuntimes) {
  const auto stream = make_stream();
  for (const auto& shape : {kMpidShape, kMiniHadoopShape}) {
    for (const bool combiner : {false, true}) {
      {
        for (const auto mode :
             {ShuffleCompression::kOff, ShuffleCompression::kAuto,
              ShuffleCompression::kOn}) {
          const auto opts = options_for(mode);
          const auto base =
              run_parallel_pipeline(shape, opts, combiner, 1, stream);
          for (const std::size_t threads : {2u, 4u}) {
            const auto run =
                run_parallel_pipeline(shape, opts, combiner, threads, stream);
            const std::string label =
                std::string(shape.name) + " threads=" +
                std::to_string(threads) +
                " combiner=" + (combiner ? "1" : "0") +
                " mode=" + std::to_string(static_cast<int>(mode));
            ASSERT_EQ(run.wire.size(), base.wire.size()) << label;
            for (const auto& [p, frames] : base.wire) {
              const auto& run_frames = run.wire.at(p);
              ASSERT_EQ(run_frames.size(), frames.size())
                  << label << " partition " << p;
              for (std::size_t i = 0; i < frames.size(); ++i) {
                EXPECT_EQ(run_frames[i].bytes, frames[i].bytes)
                    << label << " partition " << p << " frame " << i;
                EXPECT_EQ(run_frames[i].codec_framed, frames[i].codec_framed)
                    << label << " partition " << p << " frame " << i;
              }
            }
            EXPECT_EQ(run.counters.pairs_after_combine,
                      base.counters.pairs_after_combine)
                << label;
            EXPECT_EQ(run.counters.shuffle_bytes_wire,
                      base.counters.shuffle_bytes_wire)
                << label;
          }
        }
      }
    }
  }
}

TEST(ShuffleEngineParityTest, RuntimeConfigsInheritTheSameShuffleDefaults) {
  const core::Config mpid_config;
  const minihadoop::MiniJobConfig mini_config;
  const shuffle::ShuffleOptions& a = mpid_config;
  const shuffle::ShuffleOptions& b = mini_config;
  EXPECT_EQ(a.spill_threshold_bytes, b.spill_threshold_bytes);
  EXPECT_EQ(a.partition_frame_bytes, b.partition_frame_bytes);
  EXPECT_EQ(a.inline_combine_threshold, b.inline_combine_threshold);
  EXPECT_EQ(a.sort_values, b.sort_values);
  EXPECT_EQ(a.sort_keys, b.sort_keys);
  EXPECT_EQ(a.shuffle_compression, b.shuffle_compression);
  EXPECT_EQ(a.compress_min_frame_bytes, b.compress_min_frame_bytes);
  EXPECT_EQ(a.compress_skip_ratio, b.compress_skip_ratio);
  EXPECT_EQ(a.compress_skip_after, b.compress_skip_after);
  EXPECT_EQ(a.compress_skip_frames, b.compress_skip_frames);
}

}  // namespace
}  // namespace mpid
