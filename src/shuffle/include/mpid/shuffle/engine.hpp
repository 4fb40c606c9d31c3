// SpillEncoder: the realignment stage — drains a MapOutputBuffer into
// per-partition wire frames and hands full frames to a transport sink.
//
// This is the paper's "realign the buffered map output by partition"
// step, factored out of both runtimes:
//
//   * MPI-D realigns into KvList frames (grouped key → [values]) bounded
//     at partition_frame_bytes, and its sink sends each full frame
//     immediately over the data communicator ("when the data partition is
//     full, it will trigger ... sending");
//   * MiniHadoop realigns into KvPair frames (flat key/value pairs) with
//     an unbounded flush threshold, so each partition accumulates one
//     segment that the sink publishes to the tasktracker's SegmentStore
//     at task end.
//
// The encoder owns partitioning (via Partitioner), value sorting, frame
// flush policy and optional compression (via FrameCompressor); the sink
// only moves bytes. Spill-time combining happens in the buffer's table
// before the drain (MapOutputBuffer::combine), so the encoder
// block-copies combined value chains like any other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "mpid/common/framepool.hpp"
#include "mpid/common/kvframe.hpp"
#include "mpid/shuffle/buffer.hpp"
#include "mpid/shuffle/compress.hpp"
#include "mpid/shuffle/counters.hpp"
#include "mpid/shuffle/options.hpp"
#include "mpid/shuffle/partition.hpp"

namespace mpid::shuffle {

/// Wire layout of the realigned frames.
enum class Layout {
  kKvList,  // grouped key → [values] (common::KvListWriter)
  kKvPair,  // flat key/value pairs (common::KvWriter)
};

class SpillEncoder {
 public:
  /// frame_flush_bytes value meaning "never flush mid-spill": partitions
  /// accumulate until flush_all() (the MiniHadoop one-segment-per-
  /// partition shape).
  static constexpr std::size_t kUnboundedFrame = ~std::size_t{0};

  /// Receives one realigned frame for `partition`. `codec_framed` is true
  /// when the bytes are a codec frame (see FrameCompressor); the frame is
  /// owned by the sink from here on.
  using FrameSink = std::function<void(
      std::uint32_t partition, std::vector<std::byte> frame,
      bool codec_framed)>;

  struct Setup {
    Layout layout = Layout::kKvList;
    std::uint32_t partitions = 1;
    /// Flush threshold per partition frame; 0 means "use
    /// options.partition_frame_bytes", kUnboundedFrame disables mid-spill
    /// flushing.
    std::size_t frame_flush_bytes = 0;
    Partitioner partitioner;
    FrameCompressor* compressor = nullptr;   // nullable: ship raw
    /// Re-arms flushed writers with recycled allocations (nullable: a
    /// flushed writer restarts empty). Only consulted on bounded frames.
    common::FramePool* pool = nullptr;
    ShuffleCounters* counters = nullptr;
    FrameSink sink;
  };

  SpillEncoder(const ShuffleOptions& options, Setup setup);

  SpillEncoder(const SpillEncoder&) = delete;
  SpillEncoder& operator=(const SpillEncoder&) = delete;

  /// Drains `buffer` (which first runs its spill-time combine) into the
  /// partition frames: per entry — partition select (reusing the cached
  /// key hash), optional value sort, serialize; full frames flush to the
  /// sink as they fill.
  /// With sort_keys every partition flushes at the end of the round, so a
  /// shipped frame is always a single sorted run (Hadoop's per-spill
  /// sorted files). The whole round is timed into spill_ns.
  void spill(MapOutputBuffer& buffer);

  /// Flushes every partition's pending frame (in partition order). Call
  /// at task end after the final spill.
  void flush_all();

  /// Discards all pending frame bytes (task restart support); keeps the
  /// writers' allocations.
  void reset();

 private:
  struct Writer {
    common::KvListWriter list;
    common::KvWriter pair;
  };

  void append_entry(const MapOutputBuffer::Entry& entry);
  void maybe_flush(std::uint32_t partition);
  void flush(std::uint32_t partition);

  std::size_t byte_size(std::uint32_t partition) const noexcept {
    const auto& w = writers_[partition];
    return layout_ == Layout::kKvList ? w.list.byte_size()
                                      : w.pair.byte_size();
  }
  bool pending(std::uint32_t partition) const noexcept {
    const auto& w = writers_[partition];
    return layout_ == Layout::kKvList ? w.list.group_count() > 0
                                      : w.pair.pair_count() > 0;
  }

  const ShuffleOptions& options_;
  const Layout layout_;
  const std::size_t flush_bytes_;
  Partitioner partitioner_;
  FrameCompressor* compressor_;
  common::FramePool* pool_;
  ShuffleCounters* counters_;
  FrameSink sink_;

  std::vector<Writer> writers_;
  std::size_t capacity_hint_ = 0;
  std::vector<std::string> scratch_;  // sort_values materialization
};

}  // namespace mpid::shuffle
