// ShuffleOptions: the one set of knobs both runtimes' shuffle pipelines
// share.
//
// The paper's central claim is that the MapReduce dataflow — buffer,
// combine, partition, realign, encode, merge — is independent of the
// communication substrate underneath it (Hadoop RPC/Jetty vs MPI-D).
// mpid::shuffle is that substrate-independent layer: the stage objects in
// buffer.hpp / engine.hpp / compress.hpp / merger.hpp are parameterized by
// this struct, and `core::Config` / `minihadoop::MiniJobConfig` embed it
// (by inheritance) instead of re-declaring drifting twins of every knob.
//
// Transport-specific policy (frame windows, retransmission, HTTP fetch
// budgets) does NOT belong here — it stays in the per-runtime configs.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mpid::store {
class MemoryBudget;
}

namespace mpid::shuffle {

/// Shuffle-frame compression mode (Hadoop's `mapred.compress.map.output`
/// analog; see common/codec.hpp for the wire format).
///  * kOff  — frames ship raw (the default, like Hadoop's).
///  * kAuto — frames below compress_min_frame_bytes skip the encoder;
///            larger frames are compressed, and a producer that keeps
///            observing poor ratios stops paying the encode cost for a
///            while before re-sampling (the auto-skip heuristic).
///  * kOn   — every frame is codec-framed; the per-frame stored escape is
///            the only bail-out.
/// The mode must match on every task of a job: it decides whether the
/// consumer treats arriving payloads as codec frames.
enum class ShuffleCompression { kOff, kAuto, kOn };

/// Local combination hook (Section IV.A of the paper): collapses the value
/// list accumulated for one key into a (usually shorter) list before it is
/// realigned and transmitted. "Commonly ... assigned as the reduce
/// function" — e.g. WordCount sums counts into a single value. Per the
/// MapReduce combiner contract it may run zero or more times per key.
using Combiner = std::function<std::vector<std::string>(
    std::string_view key, std::vector<std::string>&& values)>;

/// Spare capacity the pipeline reserves past every frame it allocates, so
/// a transport can append its trailer (MPI-D's 16-byte frame trailer)
/// without reallocating the frame.
inline constexpr std::size_t kFrameTailRoom = 16;

/// Partition selector: maps a key to a partition index in
/// [0, partitions). The default is the paper's hash-mod selector
/// ("similar to the HashPartitioner in the Hadoop MapReduce framework");
/// a custom one enables e.g. range partitioning for globally sorted
/// output.
using PartitionFn =
    std::function<std::uint32_t(std::string_view key, std::uint32_t parts)>;

/// Knobs of the shared spill/partition/encode pipeline. One set of
/// defaults for both runtimes; validate() rejects nonsense combinations
/// up front instead of letting them silently misbehave.
struct ShuffleOptions {
  /// Map-output buffer size that triggers a spill to partition frames
  /// ("when the hash table buffer exceeds a particular size").
  std::size_t spill_threshold_bytes = 4 * 1024 * 1024;

  /// Target size of one realigned partition frame; a full frame is handed
  /// to the transport sink immediately ("when the data partition is
  /// full"). Producers that accumulate one segment per partition
  /// (MiniHadoop) ignore this as a flush trigger but still use it as the
  /// frame reservation hint.
  std::size_t partition_frame_bytes = 256 * 1024;

  /// Apply the combiner incrementally once a key's buffered value list
  /// reaches this many entries (bounds memory for hot keys); the combiner
  /// always runs again at spill time. 0 disables incremental combining.
  std::size_t inline_combine_threshold = 64;

  /// Sort each key's value list during realignment ("it can also sort the
  /// value list for each key on demand").
  bool sort_values = false;

  /// Emit keys of a partition frame in sorted order during realignment
  /// (Hadoop's sorted spill runs; required by SegmentMerger consumers).
  bool sort_keys = false;

  /// Shuffle-frame compression (see ShuffleCompression above).
  ShuffleCompression shuffle_compression = ShuffleCompression::kOff;

  /// kAuto only: frames smaller than this skip the encoder — tiny frames
  /// are header-dominated and not worth the encode cost.
  std::size_t compress_min_frame_bytes = 4 * 1024;

  /// kAuto only: a frame whose wire/raw ratio exceeds this counts as a
  /// poor sample; after compress_skip_after consecutive poor samples the
  /// producer ships the next compress_skip_frames frames uncompressed,
  /// then re-samples (data distributions drift within a job).
  double compress_skip_ratio = 0.9;
  std::size_t compress_skip_after = 2;
  std::size_t compress_skip_frames = 8;

  // --- hybrid process+threads execution (arXiv:1811.04875's model) ---
  /// Worker threads per map-side rank/task. 1 (the default) keeps the
  /// pre-pool sequential path: no pool threads are spawned and scheduling
  /// is byte-for-byte the legacy cadence. N > 1 runs map chunks through a
  /// work-stealing WorkerPool with per-worker buffers feeding the shared
  /// spill stream in deterministic chunk order. The chunk count is fixed
  /// (resolve_map_chunks, parallel.hpp), never a function of N, so output
  /// bytes are identical for every thread count. The reduce side is
  /// sequential.
  std::size_t map_threads = 1;

  // --- memory-budgeted two-tier store (src/store; DESIGN.md §13) ---
  /// Hard cap on the bytes the shuffle's buffering stages may hold in RAM
  /// per budget instance (one per rank/task by default, or shared through
  /// `memory_budget` below). 0 — the default — means unbounded: no budget
  /// is created, no spill files are written, and every byte-parity
  /// guarantee of the in-memory pipeline is untouched. When set, a
  /// consumer whose charge is refused spills to sorted runs under
  /// spill_dir and the reducer external-merges them back (loser tree,
  /// fan-in bounded by spill_merge_fanin) — output bytes stay identical
  /// to the unbounded run.
  std::size_t memory_budget_bytes = 0;

  /// Directory for spill runs; must name an existing writable directory
  /// when memory_budget_bytes > 0 (validate() probes it). Files are
  /// uniquely named per process and removed on success and error paths.
  std::string spill_dir;

  /// Page size of the store's recycled I/O buffers and the run block
  /// size. validate() enforces the kMinSpillPageBytes floor — tinier
  /// pages make every block header-dominated — and that one page fits
  /// the budget (a budget smaller than a single page could never stage
  /// its own spill I/O).
  std::size_t spill_page_bytes = 256 * 1024;

  /// Maximum runs the final external merge reads concurrently; more runs
  /// trigger fan-in compaction passes first (each pass is one
  /// external_merge_passes tick). Bounds reducer memory at roughly
  /// fanin × spill_page_bytes during the merge. validate() requires >= 2.
  std::size_t spill_merge_fanin = 16;

  /// Optional shared arbiter: when set, every consumer of these options
  /// charges the same MemoryBudget instance (a job-wide cap); when null
  /// and memory_budget_bytes > 0, each runtime creates one budget per
  /// rank/task (a per-process cap, Hadoop's per-JVM heap analog).
  std::shared_ptr<store::MemoryBudget> memory_budget;

  /// Floor validate() enforces on spill_page_bytes.
  static constexpr std::size_t kMinSpillPageBytes = 4 * 1024;

  // --- hierarchical node-local aggregation (DESIGN.md §14) ---
  /// Route the partitioned output of every mapper co-located on one
  /// modeled node through a per-node combine tree (shuffle::NodeAggregator)
  /// that merges duplicate keys across those mappers and ships ONE frame
  /// stream per (node, reducer-partition) instead of one per (mapper,
  /// partition). On combiner-friendly keys this multiplies the combiner's
  /// traffic cut by the per-node mapper count before bytes touch the
  /// fabric (Lee et al.'s in-node combining). Off by default: the
  /// per-mapper frame cadence is byte-for-byte the legacy one.
  ///
  /// Interaction with memory_budget_bytes: the aggregator's combine buffer
  /// charges the same budget as every other buffering stage, so memory
  /// pressure tightens its drain cadence — it emits smaller merged frames
  /// earlier (less cross-mapper dedup, never incorrect output). A budget
  /// therefore bounds the aggregation tree's RAM exactly like a mapper's
  /// spill buffer; validate() enforces the same spill_dir/page invariants.
  bool node_aggregation = false;

  /// Mappers modeled per node when node_aggregation is on. MPI-D derives
  /// the node id of mapper m as m / ranks_per_node and elects the lowest
  /// co-located mapper index as the node's aggregation leader. MiniHadoop
  /// ignores this knob: each tasktracker IS a node, and its segment store
  /// aggregates whatever map tasks committed there. validate() requires
  /// >= 1 when node_aggregation is set.
  std::size_t ranks_per_node = 1;

  // --- iterative job chaining (DESIGN.md §16) ---
  /// Maximum MapReduce rounds one world may run over resident partitions
  /// before finalizing. 1 (the default) is the classic one-shot job:
  /// `finalize()` is the only barrier and `next_round()` throws. Values
  /// > 1 arm the chain lifecycle — each round ends in the same
  /// ship/seal/stats barrier as finalize, but the ranks re-arm (mapper
  /// lanes reset with a fresh incarnation, reducer EOS/seal state
  /// cleared) instead of tearing down, so round N's realigned reducer
  /// partitions can feed round N+1 in place with no re-ingest.
  std::size_t resident_rounds = 1;

  /// Throws std::invalid_argument on nonsense combinations (zero
  /// thresholds, auto-compression bounds that could never trigger).
  /// Called by both runtimes before any task starts.
  void validate() const;
};

}  // namespace mpid::shuffle
