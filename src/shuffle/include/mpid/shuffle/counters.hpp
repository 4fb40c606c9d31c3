// ShuffleCounters: the shared counter block of the shuffle pipeline.
//
// Both runtimes report the same dataflow quantities — pairs surviving the
// combiner, spill rounds, combine/spill wall time, compression byte and
// time accounting. `core::Stats` and `minihadoop::JobSummary` inherit
// this block and add their transport-specific counters (frame windows,
// HTTP requests, recovery) on top, so a stage object in mpid::shuffle can
// fold its accounting into either runtime through one pointer.
#pragma once

#include <cstdint>
#include <mutex>

namespace mpid::shuffle {

struct ShuffleCounters {
  // --- combine / spill path (the memory side of the map stage) ---
  std::uint64_t pairs_after_combine = 0;  // pairs surviving the combiner
  std::uint64_t spills = 0;               // map-output buffer spill rounds
  /// Wall time inside the user combiner (incremental and spill-time runs,
  /// including value materialization around incremental calls).
  /// Spill-time combining also counts toward spill_ns.
  std::uint64_t combine_ns = 0;
  /// Wall time of buffer spill rounds — drain, realignment into partition
  /// frames and any frame flushes they trigger — plus, when a memory
  /// budget forces the disk tier, run write/read/merge I/O time.
  std::uint64_t spill_ns = 0;
  /// High-water byte footprint of the combine buffer (keys + encoded
  /// values + bookkeeping). Aggregates as a max, not a sum.
  std::uint64_t table_bytes_peak = 0;

  // --- shuffle compression (zero when shuffle_compression is off) ---
  /// Frame payload bytes before encoding (what the shuffle would have
  /// shipped raw).
  std::uint64_t shuffle_bytes_raw = 0;
  /// Frame bytes actually shipped (codec header + payload, or the raw
  /// bytes when a frame skipped the encoder).
  std::uint64_t shuffle_bytes_wire = 0;
  std::uint64_t compress_ns = 0;    // producer wall time inside encode
  std::uint64_t decompress_ns = 0;  // consumer wall time inside decode
  /// Frames that shipped via the stored escape or the auto-skip heuristic.
  std::uint64_t frames_stored_uncompressed = 0;

  // --- node-local aggregation (zero unless node_aggregation is set) ---
  /// Partition-frame bytes entering the per-node combine tree (what the
  /// co-located mappers would each have shipped across the fabric).
  std::uint64_t bytes_pre_node_agg = 0;
  /// Merged frame bytes leaving the tree before any codec framing — the
  /// pre/post ratio is the structural traffic cut, independent of
  /// compression.
  std::uint64_t bytes_post_node_agg = 0;
  /// Wall time inside the aggregation tree: frame decode, cross-mapper
  /// combine, re-encode, and (on the leader) codec framing of the merged
  /// stream.
  std::uint64_t node_agg_merge_ns = 0;

  // --- two-tier spill store (zero unless memory_budget_bytes is set) ---
  /// Bytes written to spill runs on disk, merge-pass rewrites included —
  /// the total disk-write volume the budget cost, not the live footprint.
  std::uint64_t bytes_spilled_disk = 0;
  /// Spill files created (budget-triggered runs plus compaction outputs).
  std::uint64_t spill_files = 0;
  /// Fan-in compaction merges the external merge ran before streaming
  /// (0 = every run fit under spill_merge_fanin in one pass).
  std::uint64_t external_merge_passes = 0;

  // --- iterative job chaining (zero unless resident_rounds > 1) ---
  /// MapReduce rounds this chain ran (aggregates as a max, not a sum:
  /// every rank of one chain runs the same round count).
  std::uint64_t chain_rounds = 0;
  /// External input bytes read from the ingest channel (round 1 of a
  /// chain, or every round of MiniHadoop's round-trip chain, which
  /// re-ingests its part files), counted on both runtimes as the record
  /// bytes the map function reads: input lines without their
  /// terminators, and re-ingested pairs' key and value bytes. The
  /// headline residency proof is that this stays flat after round 1.
  std::uint64_t ingest_bytes = 0;
  /// Pairs and bytes mapped in place from resident partitions (rounds
  /// >= 2) — data that never round-tripped through ingest or DFS.
  std::uint64_t resident_pairs_in = 0;
  std::uint64_t resident_bytes_in = 0;
  /// Bytes of the static_input channel realigned ONCE and pinned for the
  /// whole chain (counted in the round that built the tables).
  std::uint64_t static_bytes_pinned = 0;
  /// Bytes of the static channel re-realigned in later rounds — zero in
  /// resident mode by construction; nonzero only in MiniHadoop's
  /// round-trip chain (MiniChainConfig::resident = false), where every
  /// round is a fresh job and re-pins.
  std::uint64_t static_bytes_reshuffled = 0;
  /// Bytes of sealed resident partitions the memory budget refused —
  /// demoted to record files between rounds (two-tier residency).
  std::uint64_t resident_bytes_spilled = 0;

  /// Folds another task's counters into this one: sums everywhere except
  /// table_bytes_peak and chain_rounds, which aggregate as maxima.
  void merge(const ShuffleCounters& rhs) noexcept {
    pairs_after_combine += rhs.pairs_after_combine;
    spills += rhs.spills;
    combine_ns += rhs.combine_ns;
    spill_ns += rhs.spill_ns;
    if (rhs.table_bytes_peak > table_bytes_peak) {
      table_bytes_peak = rhs.table_bytes_peak;
    }
    shuffle_bytes_raw += rhs.shuffle_bytes_raw;
    shuffle_bytes_wire += rhs.shuffle_bytes_wire;
    compress_ns += rhs.compress_ns;
    decompress_ns += rhs.decompress_ns;
    frames_stored_uncompressed += rhs.frames_stored_uncompressed;
    bytes_pre_node_agg += rhs.bytes_pre_node_agg;
    bytes_post_node_agg += rhs.bytes_post_node_agg;
    node_agg_merge_ns += rhs.node_agg_merge_ns;
    bytes_spilled_disk += rhs.bytes_spilled_disk;
    spill_files += rhs.spill_files;
    external_merge_passes += rhs.external_merge_passes;
    if (rhs.chain_rounds > chain_rounds) chain_rounds = rhs.chain_rounds;
    ingest_bytes += rhs.ingest_bytes;
    resident_pairs_in += rhs.resident_pairs_in;
    resident_bytes_in += rhs.resident_bytes_in;
    static_bytes_pinned += rhs.static_bytes_pinned;
    static_bytes_reshuffled += rhs.static_bytes_reshuffled;
    resident_bytes_spilled += rhs.resident_bytes_spilled;
  }
};

/// Commit-time accumulation point for worker threads (the hybrid
/// process+threads model, ShuffleOptions::map_threads).
///
/// ShuffleCounters::merge() itself is single-writer — calling it on a
/// shared block from several threads tears. The threading contract is
/// therefore Hadoop's task-commit shape: every worker accumulates into
/// its own private ShuffleCounters block with zero synchronization on the
/// hot path, and folds the block into the shared target exactly once,
/// through commit(), when its work completes. The mutex serializes only
/// those commits (one per worker per task, not per pair), so counters
/// stay exact — sums are sums and table_bytes_peak stays a max — without
/// making every counter an atomic.
class CounterCommitPoint {
 public:
  /// `target` is the shared counter block (e.g. core::Stats or a job's
  /// ShuffleCounters); it must outlive the commit point and must not be
  /// mutated elsewhere between the first and last commit(). A null target
  /// makes every commit a no-op (callers without counters).
  explicit CounterCommitPoint(ShuffleCounters* target) : target_(target) {}

  CounterCommitPoint(const CounterCommitPoint&) = delete;
  CounterCommitPoint& operator=(const CounterCommitPoint&) = delete;

  /// Folds one worker's private block into the target. Safe to call from
  /// any thread, any number of times.
  void commit(const ShuffleCounters& worker) {
    if (!target_) return;
    std::lock_guard lock(mu_);
    target_->merge(worker);
  }

 private:
  std::mutex mu_;
  ShuffleCounters* target_;
};

}  // namespace mpid::shuffle
