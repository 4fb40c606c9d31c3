#include "mpid/shuffle/merger.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace mpid::shuffle {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void SegmentMerger::add_frame(std::vector<std::byte> frame) {
  if (started_) {
    throw std::logic_error("SegmentMerger: add_frame after merging started");
  }
  if (frame.empty()) return;
  if (spill_ && !spill_->reservation.try_grow(frame.size())) {
    // Budget refused even after pressure callbacks: trade the cursors for
    // a disk run, then charge the newcomer unconditionally — post-spill
    // the reservation is empty, so the overshoot is bounded by one frame.
    spill_cursors();
    spill_->reservation.grow(frame.size());
  }
  cursors_.emplace_back(std::move(frame));
  advance(cursors_.back());
}

void SegmentMerger::enable_spill(const ShuffleOptions& options,
                                 store::MemoryBudget* budget,
                                 ShuffleCounters* counters) {
  if (!cursors_.empty() || started_) {
    throw std::logic_error(
        "SegmentMerger: enable_spill must precede the first frame");
  }
  if (budget == nullptr || budget->unbounded()) return;
  spill_ = std::make_unique<SpillState>();
  spill_->spill_dir = options.spill_dir;
  spill_->page_bytes = options.spill_page_bytes;
  spill_->fanin = std::max<std::size_t>(2, options.spill_merge_fanin);
  spill_->compress =
      options.shuffle_compression != ShuffleCompression::kOff;
  spill_->budget = budget;
  spill_->counters = counters;
  spill_->reservation = store::Reservation(budget);
  spill_->pool =
      std::make_unique<store::SpillPool>(budget, options.spill_page_bytes);
}

void SegmentMerger::spill_cursors() {
  if (cursors_.empty()) return;
  const std::uint64_t start = now_ns();
  store::RunWriter::Options wopts;
  wopts.block_bytes = spill_->page_bytes;
  wopts.compress = spill_->compress;
  store::RunWriter writer(store::SpillFile::create(spill_->spill_dir, "run"),
                          wopts, spill_->pool.get());
  // One streamed pass: groups materialize one at a time, so the spill's
  // own footprint is a group plus the writer's staging page.
  std::string key;
  std::vector<std::string> values;
  while (next_cursor_group(key, values)) {
    writer.begin_group(key, values.size());
    for (const auto& v : values) writer.add_value(v);
  }
  auto [file, info] = writer.finish();
  spill_->runs.push_back(std::move(file));
  spill_->compacted = false;
  cursors_.clear();
  spill_->reservation.reset();
  if (spill_->counters != nullptr) {
    spill_->counters->bytes_spilled_disk += info.file_bytes;
    spill_->counters->spill_files += 1;
    spill_->counters->spill_ns += now_ns() - start;
  }
}

void SegmentMerger::finish_spill_phase() {
  if (!spill_ || spill_->compacted || spill_->runs.empty()) return;
  // Fan-in compaction: cascade the oldest `fanin` runs into one until the
  // final merge's open-run count fits. Merging an arrival-contiguous
  // prefix preserves the tie-break collapse (see the class comment), and
  // the cascade is deterministic — no size heuristics, so two runs of the
  // same job compact identically.
  while (spill_->runs.size() > spill_->fanin) {
    const std::uint64_t start = now_ns();
    std::vector<std::unique_ptr<store::GroupSource>> sources;
    sources.reserve(spill_->fanin);
    for (std::size_t i = 0; i < spill_->fanin; ++i) {
      sources.push_back(std::make_unique<store::RunSource>(
          spill_->runs[i].path(), spill_->pool.get()));
    }
    store::RunWriter::Options wopts;
    wopts.block_bytes = spill_->page_bytes;
    wopts.compress = spill_->compress;
    store::RunWriter writer(
        store::SpillFile::create(spill_->spill_dir, "merge"), wopts,
        spill_->pool.get());
    auto [file, info] = store::merge_sources(sources, writer);
    spill_->runs.erase(spill_->runs.begin(),
                       spill_->runs.begin() +
                           static_cast<std::ptrdiff_t>(spill_->fanin));
    spill_->runs.insert(spill_->runs.begin(), std::move(file));
    if (spill_->counters != nullptr) {
      spill_->counters->external_merge_passes += 1;
      spill_->counters->bytes_spilled_disk += info.file_bytes;
      spill_->counters->spill_files += 1;
      spill_->counters->spill_ns += now_ns() - start;
    }
  }
  spill_->compacted = true;
}

bool SegmentMerger::CursorSource::next(store::Group& group) {
  if (!cursor_->live) return false;
  group.key.assign(cursor_->current.key);
  group.values.clear();
  group.values.reserve(cursor_->current.values.size());
  for (const auto v : cursor_->current.values) group.values.emplace_back(v);
  SegmentMerger::advance(*cursor_);
  return true;
}

void SegmentMerger::build_final_stream() {
  finish_spill_phase();
  // Source index order = arrival order: runs first (each one a contiguous
  // arrival range older than every surviving cursor), then the in-memory
  // cursors, oldest first. The loser tree's index tie-break then equals
  // the in-memory merge's arrival-order tie-break.
  final_sources_.clear();
  final_sources_.reserve(spill_->runs.size() + cursors_.size());
  for (const auto& run : spill_->runs) {
    final_sources_.push_back(std::make_unique<store::RunSource>(
        run.path(), spill_->pool.get()));
  }
  for (auto& cursor : cursors_) {
    final_sources_.push_back(std::make_unique<CursorSource>(&cursor));
  }
  std::vector<store::GroupSource*> raw;
  raw.reserve(final_sources_.size());
  for (const auto& s : final_sources_) raw.push_back(s.get());
  final_stream_ = std::make_unique<store::MergingGroupStream>(std::move(raw));
}

void SegmentMerger::advance(Cursor& cursor) {
  // The previous key's bytes live in the cursor's own frame, which never
  // moves (the cursors sit in a deque), so the view outlives next(). No
  // key sorts below the empty view, so the first group needs no check.
  const std::string_view previous =
      cursor.live ? cursor.current.key : std::string_view{};
  cursor.live = cursor.reader.next(cursor.current);
  if (cursor.live && cursor.current.key < previous) {
    throw std::logic_error(
        "SegmentMerger: frame is not key-sorted (enable sort_keys on the "
        "producers)");
  }
}

bool SegmentMerger::next_cursor_group(std::string& key,
                                      std::vector<std::string>& values) {
  // Smallest current key across cursors (linear scan: frame counts are
  // small — one per producer spill). The scan runs in arrival order and
  // the strict < keeps the earliest cursor on ties.
  const Cursor* best = nullptr;
  for (const auto& cursor : cursors_) {
    if (!cursor.live) continue;
    if (best == nullptr || cursor.current.key < best->current.key) {
      best = &cursor;
    }
  }
  if (best == nullptr) return false;

  key.assign(best->current.key);
  values.clear();
  // Drain the chosen key from every cursor, in arrival order.
  for (auto& cursor : cursors_) {
    while (cursor.live && cursor.current.key == key) {
      for (const auto v : cursor.current.values) values.emplace_back(v);
      advance(cursor);
    }
  }
  return true;
}

bool SegmentMerger::next_group(std::string& key,
                               std::vector<std::string>& values) {
  started_ = true;
  if (spill_ && !spill_->runs.empty()) {
    // Disk tier engaged: stream from the loser tree over (runs, cursors).
    if (!final_stream_) build_final_stream();
    const std::uint64_t start = now_ns();
    const bool more = final_stream_->next(key, values);
    if (spill_->counters != nullptr) {
      spill_->counters->spill_ns += now_ns() - start;
    }
    return more;
  }
  return next_cursor_group(key, values);
}

}  // namespace mpid::shuffle
