// ParallelMapper: the map-side half of the hybrid process+threads model.
//
// One rank (or one MiniHadoop map attempt) splits its input into
// steal-able chunks and runs them across a WorkerPool. Every worker owns
// a full private pipeline lane — CombineRunner, MapOutputBuffer,
// SpillEncoder — so the hot emit/combine/spill path takes no locks at
// all. What *is* shared is the transport: frames leave through one sink,
// and the paper-grade guarantee this stage keeps is determinism — the
// bytes on the wire are identical for every thread count, so
// `map_threads` is purely a speed knob, never a semantics knob.
//
// Determinism comes from two rules:
//
//   1. Chunk-local cadence. A chunk always starts with an empty lane
//      (buffer and encoder drained), spills on the normal threshold while
//      it runs, and ends with a final spill + flush_all. The frames a
//      chunk produces are therefore a pure function of the chunk's
//      records — independent of which worker ran it, what ran before it
//      on that lane, and how many workers exist.
//   2. Chunk-order hand-off. Completed chunks pass their frame lists to a
//      reorder sequencer that releases them to the sink strictly in chunk
//      index order (out-of-order completions park until their turn). The
//      shared FrameCompressor — whose kAuto skip heuristic is stateful —
//      runs at this serialized drain point, so even its state evolves in
//      the same deterministic frame order every run.
//
// Counters follow the commit-time contract (CounterCommitPoint): each
// lane accumulates into a private ShuffleCounters block and the worker
// commits it as each chunk completes, so the shared Stats block is exact
// without a single atomic on the emit path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "mpid/shuffle/buffer.hpp"
#include "mpid/shuffle/compress.hpp"
#include "mpid/shuffle/counters.hpp"
#include "mpid/shuffle/engine.hpp"
#include "mpid/shuffle/options.hpp"
#include "mpid/shuffle/partition.hpp"
#include "mpid/shuffle/workerpool.hpp"

namespace mpid::shuffle {

/// Number of map chunks a batch of `items` records splits into: a fixed
/// count, never a function of map_threads (see options.hpp), capped by
/// the item count and never zero.
std::size_t resolve_map_chunks(std::size_t items);

class ParallelMapper {
 public:
  /// Emits one map-output pair into the executing worker's lane. Only
  /// valid inside the ChunkFn invocation it was passed to.
  using EmitFn = std::function<void(std::string_view key,
                                    std::string_view value)>;

  /// Runs one chunk: reads the chunk's slice of the input and emits its
  /// pairs. Chunks must be independent (no shared mutable state beyond
  /// what the caller synchronizes) — they execute concurrently.
  using ChunkFn = std::function<void(std::size_t chunk, const EmitFn& emit)>;

  struct Setup {
    Layout layout = Layout::kKvList;
    std::uint32_t partitions = 1;
    /// Per-lane frame flush threshold, same meaning as SpillEncoder's: 0
    /// = options.partition_frame_bytes, kUnboundedFrame = one frame per
    /// partition per chunk.
    std::size_t frame_flush_bytes = 0;
    PartitionFn partitioner;  // nullable: hash-mod default
    Combiner combiner;        // nullable: no combining
    /// Codec stage wiring, used only when options.shuffle_compression is
    /// not kOff. The mapper owns its compressor — runtime-shared codec
    /// instances would race their counter pointer against the lanes'
    /// commits — and runs it at the serialized sequencer drain, so the
    /// kAuto skip state sees frames in deterministic order. Its byte/time
    /// accounting folds into `counters` when the run completes.
    WireFraming compress_framing = WireFraming::kSelfDescribing;
    common::FrameKind compress_kind = common::FrameKind::kKvList;
    /// Commit target for the per-lane counters (and pairs emitted fold
    /// into pairs_after_combine via the lanes' combine accounting).
    /// Nullable — but every production caller has one.
    ShuffleCounters* counters = nullptr;
    /// Receives frames in deterministic chunk order. Called with the
    /// sequencer lock held: it may block (transport flow control) but
    /// must not re-enter the mapper.
    SpillEncoder::FrameSink sink;
  };

  ParallelMapper(const ShuffleOptions& options, Setup setup);

  ParallelMapper(const ParallelMapper&) = delete;
  ParallelMapper& operator=(const ParallelMapper&) = delete;

  /// Runs chunks [0, chunk_count) across `pool`'s workers and blocks
  /// until every frame has been handed to the sink. Returns the number of
  /// pairs emitted (pre-combine). Rethrows the first chunk/sink failure;
  /// a reused mapper must not be run again after a throw.
  std::uint64_t run(WorkerPool& pool, std::size_t chunk_count,
                    const ChunkFn& chunk_fn);

 private:
  /// One realigned frame waiting in the sequencer.
  struct Frame {
    std::uint32_t partition = 0;
    std::vector<std::byte> bytes;
  };

  /// One worker's private pipeline. Heap-allocated so lane addresses are
  /// stable and fields needing construction order (combine before buffer
  /// before encoder) initialize in one place. The buffer charges
  /// options.memory_budget (nullable), so budget pressure spills lanes
  /// early exactly as it does a single-threaded map buffer.
  struct Lane {
    Lane(const ShuffleOptions& options, const Setup& setup);

    ShuffleCounters counters;  // per-chunk block, committed then reset
    CombineRunner combine;
    MapOutputBuffer buffer;
    SpillEncoder encoder;
    std::vector<Frame> frames;  // the running chunk's output, in order
    std::uint64_t pairs = 0;    // lane-lifetime emit count
  };

  void run_chunk(std::size_t chunk, std::size_t worker,
                 const ChunkFn& chunk_fn);
  void sequence(std::size_t chunk, std::vector<Frame> frames);
  void deliver(Frame& frame);

  const ShuffleOptions& options_;
  Setup setup_;

  std::vector<std::unique_ptr<Lane>> lanes_;
  CounterCommitPoint commit_;

  /// The owned codec stage (engaged when compression is on): counters go
  /// to a private block — its writes happen under seq_mu_, concurrently
  /// with lane commits — folded into the target after the pool joins.
  ShuffleCounters codec_counters_;
  std::optional<FrameCompressor> compressor_;

  // Reorder sequencer: chunks deliver under seq_mu_ when their index is
  // next_chunk_, otherwise park in parked_ until the gap fills.
  std::mutex seq_mu_;
  std::size_t next_chunk_ = 0;
  std::map<std::size_t, std::vector<Frame>> parked_;
};

}  // namespace mpid::shuffle
