// NodeAggregator: the hierarchical node-local aggregation stage
// (DESIGN.md §14).
//
// The paper measures cross-node shuffle transfer as the dominant
// MapReduce cost on slow fabrics; the combiner cuts it per mapper, but
// every co-located mapper still ships its own copy of the hot keys.
// This stage is the structural fix (Lee et al.'s in-node combining):
// all mappers modeled on one node route their partitioned, spill-encoded
// frames through a per-node combine tree that merges duplicate keys
// ACROSS the co-located mappers and emits one frame stream per
// (node, reducer-partition). With m mappers per node and combiner-
// friendly keys, the fabric sees ~1/m of the per-mapper traffic.
//
// The tree is built from the stages PR 5–7 already shared: a
// MapOutputBuffer (KvCombineTable fast tier, MemoryBudget-charged, so
// memory pressure tightens the drain cadence instead of OOMing) feeding
// a SpillEncoder whose frames are counted as bytes_post_node_agg and
// only then codec-framed. Determinism: callers feed member streams in a
// fixed order (MPI-D: node-local mapper index ascending; MiniHadoop:
// map-task id ascending), the buffer drains in first-insertion (or
// sorted-key) order, so the merged stream is byte-identical across runs
// — the property the parity tests pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mpid/common/framepool.hpp"
#include "mpid/shuffle/buffer.hpp"
#include "mpid/shuffle/compress.hpp"
#include "mpid/shuffle/counters.hpp"
#include "mpid/shuffle/engine.hpp"
#include "mpid/shuffle/options.hpp"
#include "mpid/shuffle/partition.hpp"

namespace mpid::store {
class MemoryBudget;
}

namespace mpid::shuffle {

/// One node's combine tree. Feed every co-located member's frames via
/// add_frame() (member order fixed by the caller), then finish(); the
/// sink receives the merged per-partition stream. Counter contract:
/// bytes_pre_node_agg counts every byte entering the tree,
/// bytes_post_node_agg counts merged frame bytes before codec framing,
/// and node_agg_merge_ns times the whole decode/combine/re-encode path
/// (spill rounds inside it also tick spills/spill_ns, like any other
/// use of the shared stages).
class NodeAggregator {
 public:
  struct Setup {
    /// Layout of the frames the sink receives (MPI-D: kKvList,
    /// MiniHadoop segments: kKvPair). The aggregator keeps its own copy
    /// of the options, so callers may pass a tuned temporary.
    Layout out_layout = Layout::kKvList;
    std::uint32_t partitions = 1;
    /// Flush threshold per merged partition frame; 0 means "use
    /// options.partition_frame_bytes", SpillEncoder::kUnboundedFrame
    /// accumulates one frame per partition until finish().
    std::size_t frame_flush_bytes = 0;
    Partitioner partitioner;
    CombineRunner* combine = nullptr;       // nullable: merge lists only
    /// Applied to each merged frame AFTER the bytes_post_node_agg
    /// accounting, so the pre/post ratio stays a pure structural cut.
    FrameCompressor* compressor = nullptr;  // nullable: ship raw
    common::FramePool* pool = nullptr;
    /// Budget the tree's combine buffer charges (nullable: unbounded).
    store::MemoryBudget* budget = nullptr;
    ShuffleCounters* counters = nullptr;
    SpillEncoder::FrameSink sink;
  };

  NodeAggregator(const ShuffleOptions& options, Setup setup);

  NodeAggregator(const NodeAggregator&) = delete;
  NodeAggregator& operator=(const NodeAggregator&) = delete;

  /// Merges one member frame into the tree. `in_layout` names the wire
  /// layout of `frame` (already codec-decoded by the caller). Budget
  /// pressure or the spill threshold drain the buffer mid-stream —
  /// earlier drains mean less cross-mapper dedup, never wrong output.
  void add_frame(std::span<const std::byte> frame, Layout in_layout);

  /// Final drain + flush of every partition's merged frame (in
  /// partition order). Call once after the last add_frame().
  void finish();

  /// Discards everything buffered and pending (restart support).
  void reset();

 private:
  const ShuffleOptions options_;  // owned copy: members reference it
  ShuffleCounters* counters_;
  FrameCompressor* compressor_;
  SpillEncoder::FrameSink sink_;
  MapOutputBuffer buffer_;
  SpillEncoder encoder_;
};

}  // namespace mpid::shuffle
