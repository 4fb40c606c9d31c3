// MapOutputBuffer + CombineRunner: the buffering stage of the shuffle.
//
// Both runtimes accumulate emitted (key, value) pairs per key until a
// spill realigns the buffer into partition frames (Section IV.A of the
// paper). The buffer is a flat combine table (common::KvCombineTable):
// open-addressing slots, arena-interned keys, slab-chained values already
// in wire format — zero allocations per pair in steady state. Entries
// drain in first-insertion order or sorted by key, so spills are
// deterministic.
//
// CombineRunner wraps the user combiner with the timing and the
// single-value skip rule both runtimes share: a one-element value list is
// already combined (the MapReduce combiner contract allows zero runs), so
// the skewed tail of single-value keys never pays a combiner call. It
// combines in the table: the values are collected, combined and written
// back into the entry's chain, so the spill block-copies combined chains
// like any other.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mpid/common/kvtable.hpp"
#include "mpid/shuffle/counters.hpp"
#include "mpid/shuffle/options.hpp"
#include "mpid/store/budget.hpp"

namespace mpid::shuffle {

/// Runs the user combiner on table entries in place (collect → combiner
/// → replace), with wall-time accounting into ShuffleCounters::combine_ns.
/// Stateless apart from scratch and result vectors reused across calls.
class CombineRunner {
 public:
  CombineRunner(Combiner combiner, ShuffleCounters* counters)
      : combiner_(std::move(combiner)), counters_(counters) {}

  bool enabled() const noexcept { return static_cast<bool>(combiner_); }

  /// Incremental combine of one entry; the whole cycle is timed, matching
  /// what the incremental trigger costs the map loop.
  void combine_entry(common::KvCombineTable& table, std::uint32_t index,
                     std::string_view key);

  /// The spill-time combine: one pass over the table, in insertion order,
  /// combining every entry that holds two or more values. The pass is
  /// timed as a whole, with one clock read at each end. No-op without a
  /// combiner.
  void combine_table(common::KvCombineTable& table);

 private:
  void combine_at(common::KvCombineTable& table, std::uint32_t index,
                  std::string_view key);

  Combiner combiner_;
  ShuffleCounters* counters_;
  std::vector<std::string> scratch_;  // the collected values
  std::vector<std::string> result_;   // the combiner's output
};

/// The map-output (or reducer grouping) buffer. append() until
/// should_spill(), then hand the buffer to SpillEncoder::spill() — or, on
/// the receive side, iterate groups with for_each_group().
class MapOutputBuffer {
 public:
  /// One buffered entry as seen by drain(); key_hash is the cached
  /// fnv1a64(key) the default partitioner consumes without rehashing.
  using Entry = common::KvCombineTable::EntryView;

  /// `combine` (nullable) enables incremental combining at
  /// options.inline_combine_threshold and the spill-time combine();
  /// `counters` receives the spill/peak
  /// accounting. Both pointers must outlive the buffer. `budget`
  /// (nullable) makes the buffer a budgeted consumer of the two-tier
  /// store: growth is charged in spill_page_bytes chunks, and a refused
  /// charge latches should_spill() true so the owner drains early — the
  /// in-memory fast tier giving way before the cap, instead of OOMing.
  MapOutputBuffer(const ShuffleOptions& options, CombineRunner* combine,
                  ShuffleCounters* counters,
                  store::MemoryBudget* budget = nullptr);

  MapOutputBuffer(const MapOutputBuffer&) = delete;
  MapOutputBuffer& operator=(const MapOutputBuffer&) = delete;

  void append(std::string_view key, std::string_view value);

  bool empty() const noexcept { return table_.empty(); }

  /// Spill-threshold accounting: interned key bytes plus encoded value
  /// bytes.
  std::size_t bytes_used() const noexcept { return table_.bytes_used(); }

  bool should_spill() const noexcept {
    return bytes_used() >= spill_threshold_ || pressure_spill_;
  }

  /// Largest single-entry frame overshoot — the frame reservation slack
  /// SpillEncoder adds to the flush threshold.
  std::size_t max_entry_frame_bytes() const noexcept {
    return table_.max_entry_frame_bytes();
  }

  /// The spill-time combine: runs the combiner in place over every entry
  /// holding two or more values (CombineRunner::combine_table).
  /// SpillEncoder::spill calls it right before drain(). The peak footprint
  /// is noted first, so table_bytes_peak still reads what the map filled.
  /// A throwing combiner empties the buffer, as a throwing drain does.
  /// No-op on an empty buffer or without a combiner.
  void combine();

  /// Empties the buffer through `fn(const Entry&)`, in first-insertion
  /// order or sorted by key. Counts the spill round (spills, peak);
  /// timing is the caller's job (SpillEncoder owns spill_ns). The
  /// buffer is emptied even when `fn` throws mid-drain —
  /// the drain-then-partition semantics both runtimes rely on for clean
  /// recovery — but views passed to `fn` are invalidated by the return.
  /// No-op on an empty buffer (no counters move).
  template <typename Fn>
  void drain(bool sorted, Fn&& fn) {
    if (empty()) return;
    ++counters_->spills;
    note_peak();
    try {
      table_.for_each(sorted, fn);
    } catch (...) {
      table_.recycle();
      release_budget();
      throw;
    }
    table_.recycle();
    release_budget();
  }

  /// Read-only grouped iteration for the receive side:
  /// `fn(std::string_view key, const std::vector<std::string>& values)`,
  /// in insertion or sorted key order. Does not empty the buffer and does
  /// not touch spill counters.
  template <typename Fn>
  void for_each_group(bool sorted, Fn&& fn) {
    table_.for_each(sorted, [&](const Entry& e) {
      scratch_.clear();
      auto cursor = e.values;
      while (auto v = cursor.next()) scratch_.emplace_back(*v);
      fn(e.key, scratch_);
    });
  }

  /// Discards everything buffered without counting a spill round (task
  /// restart support); arena chunks are kept.
  void clear();

 private:
  void note_peak() noexcept {
    if (bytes_used() > counters_->table_bytes_peak) {
      counters_->table_bytes_peak = bytes_used();
    }
  }

  /// Returns every charged byte to the budget and re-opens the fast tier
  /// (called when the buffer empties).
  void release_budget() noexcept {
    reservation_.reset();
    pressure_spill_ = false;
  }

  const std::size_t spill_threshold_;
  const std::size_t inline_combine_threshold_;
  const std::size_t budget_chunk_;  // charge granularity (spill_page_bytes)
  CombineRunner* combine_;
  ShuffleCounters* counters_;
  store::Reservation reservation_;
  bool pressure_spill_ = false;

  common::KvCombineTable table_;
  std::vector<std::string> scratch_;  // for_each_group materialization
};

}  // namespace mpid::shuffle
