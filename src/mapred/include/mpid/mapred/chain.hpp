// Iterative job chaining: multi-round MapReduce over resident partitions
// (DESIGN.md §16).
//
// The paper's MPI-D case is that intermediate data should live in memory
// instead of round-tripping through HDFS. A one-shot JobRunner only
// exploits that within a single job; the workload class its related work
// highlights (Twister-style iterative jobs, MR-MPI's chained
// map/collate/reduce programs — sssp, cc, tri_find) needs it BETWEEN
// rounds: round N's realigned reducer partitions must become round N+1's
// map input in place, with no re-ingest and no re-shuffle of static data.
//
// JobChain is that lifecycle. One MPI-D world runs every round; each
// round ends in MpiD::next_round() — the same ship/seal/stats barrier as
// finalize(), minus the teardown — and the reducer-side output pairs stay
// resident (sealed, budget-charged, spilling to disk only when the budget
// refuses) as the very partitions the next round's mappers read. A
// per-chain `static_input` channel (graph adjacency, edge weights) is
// realigned ONCE by the job's partitioner and pinned; stage functions
// look it up by key instead of re-shuffling it every round.
//
//   ChainJob job;
//   job.ingest = ...;                  // round 1: external records -> pairs
//   job.stages = {{.name = "propagate", .map = ..., .reduce = ...,
//                  .max_rounds = 64, .until = converged}};
//   job.static_input = adjacency;      // realigned once, pinned
//   ChainResult r = JobChain(/*partitions=*/4).run(job, inputs);
//
// Determinism rules (what makes every run byte-identical at any width and
// thread count, and equal to MiniHadoop's chain, resident or round-trip):
//   * a partition seals SORTED by (key, value) at every round barrier, so
//     round N+1's map input order is a pure function of round N's output
//     multiset;
//   * keys stay on the partition the job's partitioner assigns them, so a
//     key's resident pair, its static entries and its reduce all live on
//     one partition for the whole chain;
//   * a stage reduce must be insensitive to value ARRIVAL order (sort the
//     values first if order matters): transport interleaving across
//     mappers is the one nondeterminism the chain does not remove.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mpid/core/config.hpp"
#include "mpid/mapred/input.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/store/budget.hpp"
#include "mpid/store/spillfile.hpp"

namespace mpid::mapred {

/// Named per-round user counters — the convergence currency. A stage
/// reduce increments them (ChainReduceContext::incr); the chain
/// aggregates every partition's block at the round barrier and hands the
/// fold to the stage's `until` predicate on every rank, so all ranks take
/// the same continue/stop decision without an extra broadcast.
class RoundCounters {
 public:
  void incr(std::string_view name, std::uint64_t by = 1) {
    values_[std::string(name)] += by;
  }
  /// 0 for a counter never incremented.
  std::uint64_t value(std::string_view name) const noexcept {
    const auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }
  void merge(const RoundCounters& rhs) {
    for (const auto& [k, v] : rhs.values_) values_[k] += v;
  }
  bool empty() const noexcept { return values_.empty(); }
  /// Deterministic (name-ordered) view for reports and tests.
  const std::map<std::string, std::uint64_t, std::less<>>& values()
      const noexcept {
    return values_;
  }

 private:
  std::map<std::string, std::uint64_t, std::less<>> values_;
};

/// The pinned static channel: every (key, value) of `static_input`
/// realigned once into partition tables by the job's partitioner. Stage
/// functions read it by key; it never crosses the shuffle again.
///
/// Each partition is one flat table (DESIGN.md §16): a value array in
/// which each key's values sit together in input order, a key arena, and
/// an open-addressing index of (hash tag, entry) sized from the key
/// count. The build is O(n) and a lookup is one hash and a short probe.
/// A built table is immutable, so any number of threads may read it.
class StaticTables {
 public:
  StaticTables() = default;
  StaticTables(const KvVec& static_input, int partitions,
               const core::Partitioner& partitioner);

  /// The pinned values of `key` on `partition`, in input order; empty
  /// when the key has no static entries. The partition must be the key's
  /// own (the chain only hands contexts their local table).
  std::span<const std::string> find(int partition,
                                    std::string_view key) const;

  /// Key + value payload bytes of one partition's table (the realign
  /// cost that pinning pays once).
  std::uint64_t partition_bytes(int partition) const;
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  int partitions() const noexcept {
    return static_cast<int>(tables_.size());
  }

 private:
  /// One distinct key: its bytes in the key arena and its run of values.
  struct Entry {
    std::size_t key_offset = 0;
    std::size_t key_size = 0;
    std::uint32_t first_value = 0;
    std::uint32_t value_count = 0;
  };
  /// One index slot: the key hash's high half and entry + 1 (0 = empty).
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t entry = 0;
  };
  struct Table {
    /// The index position holding `key`, or the empty slot where it
    /// would go. `hash` is fnv1a64(key); the index must be non-empty.
    std::size_t locate(std::string_view key, std::uint64_t hash) const;

    std::vector<std::string> values;
    std::string keys;
    std::vector<Entry> entries;
    std::vector<Slot> index;  // a power of two, at most 2/3 full
    std::uint64_t bytes = 0;
  };

  std::vector<Table> tables_;
  std::uint64_t total_bytes_ = 0;
};

/// One sealed resident partition: round N's reducer output, which round
/// N+1's mapper reads in place. Sealing sorts the pairs by (key, value)
/// — the chain's determinism rule — then charges the payload bytes
/// against the job's store::MemoryBudget; a refused charge demotes the
/// sealed pairs to a record file under spill_dir (the two-tier store's
/// slow tier) and keeps nothing in RAM.
class ResidentPartition {
 public:
  ResidentPartition() = default;

  /// Seals `pairs` as this partition's current round output, replacing
  /// any previous seal (whose charge/file is released first).
  void seal(KvVec pairs, store::MemoryBudget* budget,
            const std::string& spill_dir);

  /// Drops the seal: releases the budget charge / removes the spill file.
  void clear();

  std::uint64_t pair_count() const noexcept { return pair_count_; }
  /// Key + value payload bytes of the sealed pairs.
  std::uint64_t byte_count() const noexcept { return byte_count_; }
  bool spilled() const noexcept { return file_.has_value(); }

  /// Streams the sealed pairs in seal order (from RAM or the spill file).
  void for_each(
      const std::function<void(std::string_view, std::string_view)>& fn)
      const;

  /// Materializes the sealed pairs (reads the spill file back when
  /// spilled). The in-memory fast path returns a copy; callers that can
  /// stream should prefer for_each.
  KvVec load() const;

  /// Moves the pairs out (in-memory seals only; a spilled partition
  /// materializes). The partition is cleared afterwards.
  KvVec take();

 private:
  KvVec pairs_;
  std::uint64_t pair_count_ = 0;
  std::uint64_t byte_count_ = 0;
  store::Reservation reservation_;
  std::optional<store::SpillFile> file_;
};

class ChainMapContext;
class ChainReduceContext;

/// Maps one resident pair (rounds >= 2): re-emit state, message
/// neighbors via the static channel, etc. Emitted pairs enter the round's
/// shuffle exactly like MapContext::emit.
using ChainMapFn = std::function<void(
    std::string_view key, std::string_view value, ChainMapContext&)>;

/// Reduces one key's shuffled values into the NEXT resident state of that
/// key (and/or round counters). Values arrive grouped and key-sorted;
/// their order within the group is arrival order (see the determinism
/// rules above).
using ChainReduceFn = std::function<void(
    std::string_view key, std::vector<std::string>& values,
    ChainReduceContext&)>;

/// Convergence predicate over the round's aggregated counters: true stops
/// the stage after this round.
using ChainPredicate = std::function<bool(const RoundCounters&)>;

class ChainMapContext {
 public:
  void emit(std::string_view key, std::string_view value) {
    sink_(key, value);
  }
  /// Pinned static values of `key` (empty if none). Valid for keys of
  /// this context's partition — which every resident key handed to this
  /// map is, by the partition-preserving rule.
  std::span<const std::string> statics(std::string_view key) const {
    return statics_ ? statics_->find(partition_, key)
                    : std::span<const std::string>{};
  }
  int partition() const noexcept { return partition_; }
  int round() const noexcept { return round_; }

  using Sink = std::function<void(std::string_view, std::string_view)>;
  ChainMapContext(Sink sink, const StaticTables* statics, int partition,
                  int round)
      : sink_(std::move(sink)),
        statics_(statics),
        partition_(partition),
        round_(round) {}

 private:
  Sink sink_;
  const StaticTables* statics_;
  int partition_;
  int round_;
};

class ChainReduceContext {
 public:
  /// Emits one pair of this key's next resident state.
  void emit(std::string_view key, std::string_view value) {
    outputs_.emplace_back(std::string(key), std::string(value));
  }
  std::span<const std::string> statics(std::string_view key) const {
    return statics_ ? statics_->find(partition_, key)
                    : std::span<const std::string>{};
  }
  /// Increments a round counter (aggregated across partitions at the
  /// barrier; drives `until` and lands in RoundReport::counters).
  void incr(std::string_view counter, std::uint64_t by = 1) {
    counters_.incr(counter, by);
  }
  int partition() const noexcept { return partition_; }
  int round() const noexcept { return round_; }

  ChainReduceContext(const StaticTables* statics, int partition, int round)
      : statics_(statics), partition_(partition), round_(round) {}

  KvVec take_emitted() noexcept { return std::move(outputs_); }
  RoundCounters& counters() noexcept { return counters_; }

 private:
  KvVec outputs_;
  RoundCounters counters_;
  const StaticTables* statics_;
  int partition_;
  int round_;
};

/// One stage of a chain: a (map, reduce) pair run for up to max_rounds
/// rounds. Stage 0's first round maps the EXTERNAL input through
/// ChainJob::ingest instead of `map`; every other round maps the resident
/// partitions. A stage ends when its round budget is spent or its `until`
/// predicate fires, whichever comes first; the chain then advances to the
/// next stage (whose first round maps the previous stage's resident
/// output) or finishes.
struct ChainStage {
  std::string name;
  ChainMapFn map;
  ChainReduceFn reduce;
  int max_rounds = 1;
  ChainPredicate until;  // optional; checked after every round
};

struct ChainJob {
  /// Round-1 ingest: one external record -> emitted pairs (grouped and
  /// reduced by stages[0].reduce).
  MapFn ingest;
  std::vector<ChainStage> stages;
  /// The static channel, realigned once and pinned (see StaticTables).
  KvVec static_input;
  /// Shuffle/transport tuning. mappers/reducers/resident_rounds are
  /// filled in by the runner; combiners are not supported inside chains
  /// (stage maps differ per round, a chain-wide combiner would be wrong
  /// for at least one of them).
  core::Config tuning;
};

/// What one completed round did (work rounds only — the empty teardown
/// barrier a converged chain needs is visible in
/// ChainResult::report.round_totals but adds no entry here).
struct RoundReport {
  int stage = 0;           // index into ChainJob::stages
  int round_in_stage = 1;  // 1-based within the stage
  RoundCounters counters;  // aggregated user counters of the round
  std::uint64_t resident_pairs_out = 0;  // sealed pairs after the round
  std::uint64_t resident_bytes_out = 0;
};

struct ChainResult {
  /// Final resident partitions, concatenated and sorted by (key, value)
  /// — the same contract as JobResult::outputs.
  KvVec outputs;
  std::vector<RoundReport> rounds;
  /// Master fold: totals plus one Stats entry per barrier in
  /// report.round_totals — the counter trail proving rounds >= 2 ingest
  /// zero external and zero static bytes.
  core::JobReport report;

  KvVec take_outputs() noexcept { return std::move(outputs); }
};

/// Runs chained MapReduce jobs on an in-process MPI-D world of
/// 1 + partitions mapper ranks + partitions reducer ranks. The mapper
/// and reducer counts are equal by construction: mapper i of round N+1
/// reads the partition reducer i sealed in round N, in place.
class JobChain {
 public:
  explicit JobChain(int partitions);

  /// One external record source per partition (exactly `partitions`
  /// entries), consumed by round 1's ingest.
  ChainResult run(const ChainJob& job, std::vector<RecordSource> inputs) const;

  /// Convenience: splits a text corpus into per-partition line sources.
  ChainResult run_on_text(const ChainJob& job, std::string_view text) const;

  int partitions() const noexcept { return partitions_; }

 private:
  int partitions_;
};

namespace chain_detail {

/// The chain's round plan cursor, advanced identically on every rank
/// (the decision is a pure function of the aggregated round counters).
struct PlanCursor {
  std::size_t stage = 0;
  int round_in_stage = 1;  // 1-based
};

/// Advances `cur` past one completed round given that round's aggregated
/// counters; false when the chain is finished.
bool advance_plan(const ChainJob& job, PlanCursor& cur,
                  const RoundCounters& counters);

/// True when the round `cur` points at is statically the last barrier the
/// plan can reach (last stage, last round): ranks may finalize() directly
/// instead of arming a round that could never run.
bool statically_last(const ChainJob& job, const PlanCursor& cur);

/// Upper bound on rounds the plan can run (sum of stage budgets).
int total_max_rounds(const ChainJob& job);

/// Validates stage shape (>= 1 stage, functions set, positive budgets).
void validate_job(const ChainJob& job);

}  // namespace chain_detail

}  // namespace mpid::mapred
