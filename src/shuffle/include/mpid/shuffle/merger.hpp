// SegmentMerger: the consumer-side sorted merge stage — Hadoop's merge
// phase, shared by both runtimes.
//
// When producers realign with ShuffleOptions::sort_keys, every partition
// frame they ship is internally key-sorted. A consumer that wants
// globally key-ordered groups (Hadoop's reduce contract) can then k-way
// merge the frames instead of hash-grouping them — memory stays bounded
// by one group plus one cursor per frame, regardless of how many distinct
// keys exist.
//
//   SegmentMerger merger;
//   std::vector<std::byte> frame;
//   while (d.recv_raw_frame(frame)) merger.add_frame(std::move(frame));
//   std::string key; std::vector<std::string> values;
//   while (merger.next_group(key, values)) reduce(key, values);
// The frames arrive decoded (the transport owns the codec), and the
// merge runs on the caller's thread.
//
// Disk tier (enable_spill, DESIGN.md §13): when a MemoryBudget refuses an
// arriving frame's charge, the merger stream-merges everything it holds
// into one sorted run on disk (store::RunWriter) and frees the cursors.
// Because every spill takes *all* current cursors, runs cover disjoint
// contiguous arrival ranges, held oldest first. Merging a contiguous
// arrival range is associativity-safe: within the range, equal keys'
// values concatenate in arrival order, and the ranges are disjoint and
// ordered. So the final loser-tree merge over (runs, then surviving
// cursors) concatenates equal keys' values in exactly the arrival order
// the all-in-memory merge would have used, and budget-bounded output is
// byte-identical to unbounded output. With the budget unset nothing here
// changes: no state is allocated, no branch is taken past a null check.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "mpid/common/kvframe.hpp"
#include "mpid/shuffle/counters.hpp"
#include "mpid/shuffle/options.hpp"
#include "mpid/store/budget.hpp"
#include "mpid/store/extmerge.hpp"
#include "mpid/store/pagepool.hpp"
#include "mpid/store/spillfile.hpp"

namespace mpid::shuffle {

class SegmentMerger {
 public:
  /// Takes ownership of one internally key-sorted KvList frame. All
  /// frames must be added before the first next_group() call.
  void add_frame(std::vector<std::byte> frame);

  /// Arms the disk tier. Must precede the first add_frame(); no-op when
  /// `budget` is null or unbounded. `options` supplies spill_dir,
  /// spill_page_bytes, spill_merge_fanin and whether runs are
  /// codec-compressed (shuffle_compression != kOff); `counters`
  /// (nullable) receives bytes_spilled_disk / spill_files /
  /// external_merge_passes / spill_ns as they happen. Re-arm after
  /// move-assigning a fresh merger (restart paths).
  void enable_spill(const ShuffleOptions& options,
                    store::MemoryBudget* budget, ShuffleCounters* counters);

  /// Runs the fan-in compaction passes (if spilling happened) so every
  /// compaction counter is final. Idempotent; next_group() calls it
  /// lazily. The final merge's read time still adds to spill_ns inside
  /// next_group(), so spill_ns is final only once it returns false.
  void finish_spill_phase();

  /// Produces the next group in ascending key order, concatenating the
  /// value lists of equal keys across frames (frame arrival order breaks
  /// ties, so a producer's spill order is preserved within a key).
  /// Returns false when every frame is exhausted.
  /// Throws std::runtime_error on a corrupt frame and std::logic_error if
  /// some frame is not sorted.
  bool next_group(std::string& key, std::vector<std::string>& values);

  std::size_t frame_count() const noexcept { return cursors_.size(); }

  /// Disk runs currently held (post-compaction once the merge started).
  std::size_t spill_run_count() const noexcept {
    return spill_ ? spill_->runs.size() : 0;
  }

 private:
  /// One frame being merged. advance() refills `current` in place, so
  /// its value vector is allocated once per cursor, not once per group.
  struct Cursor {
    std::vector<std::byte> frame;
    common::KvListReader reader;
    common::KvListView current;
    bool live = false;  // `current` holds a group; false once exhausted

    explicit Cursor(std::vector<std::byte> f)
        : frame(std::move(f)), reader(frame) {}
  };

  /// Everything the disk tier needs; absent (null) with no budget, so the
  /// in-memory path pays one pointer test.
  struct SpillState {
    std::string spill_dir;
    std::size_t page_bytes = 0;
    std::size_t fanin = 2;
    bool compress = false;
    store::MemoryBudget* budget = nullptr;
    ShuffleCounters* counters = nullptr;
    store::Reservation reservation;
    std::unique_ptr<store::SpillPool> pool;
    std::vector<store::SpillFile> runs;  // oldest arrival range first
    bool compacted = false;
  };

  /// An in-memory cursor as a loser-tree source (for the final merge when
  /// runs exist).
  class CursorSource final : public store::GroupSource {
   public:
    explicit CursorSource(Cursor* cursor) : cursor_(cursor) {}
    bool next(store::Group& group) override;

   private:
    Cursor* cursor_;
  };

  static void advance(Cursor& cursor);

  /// Merges the next group out of the in-memory cursors: the smallest
  /// key, its values concatenated in arrival order. False when every
  /// cursor is exhausted. Behind next_group() and spill_cursors().
  bool next_cursor_group(std::string& key, std::vector<std::string>& values);

  /// Writes every current cursor to one sorted run and frees the memory.
  void spill_cursors();

  /// Builds the loser tree over (compacted runs, surviving cursors).
  void build_final_stream();

  // Arrival order, the merge's tie-break. A deque: stable addresses for
  // the views.
  std::deque<Cursor> cursors_;
  bool started_ = false;
  std::unique_ptr<SpillState> spill_;
  std::vector<std::unique_ptr<store::GroupSource>> final_sources_;
  std::unique_ptr<store::MergingGroupStream> final_stream_;
};

}  // namespace mpid::shuffle
