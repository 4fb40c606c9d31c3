#include "mpid/shuffle/buffer.hpp"

#include <chrono>

namespace mpid::shuffle {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void CombineRunner::combine_at(common::KvCombineTable& table,
                               std::uint32_t index, std::string_view key) {
  scratch_.clear();
  auto cursor = table.entry_at(index).values;
  while (auto v = cursor.next()) scratch_.emplace_back(*v);
  result_ = combiner_(key, std::move(scratch_));
  table.replace_at(index, result_);
}

void CombineRunner::combine_entry(common::KvCombineTable& table,
                                  std::uint32_t index, std::string_view key) {
  // Addressed by the dense index the append just returned: the combine
  // cycle costs zero additional probes.
  const std::uint64_t start = now_ns();
  combine_at(table, index, key);
  counters_->combine_ns += now_ns() - start;
}

void CombineRunner::combine_table(common::KvCombineTable& table) {
  if (!enabled()) return;
  const std::uint64_t start = now_ns();
  const auto entries = static_cast<std::uint32_t>(table.size());
  for (std::uint32_t i = 0; i < entries; ++i) {
    const auto entry = table.entry_at(i);
    if (entry.value_count > 1) combine_at(table, i, entry.key);
  }
  counters_->combine_ns += now_ns() - start;
}

MapOutputBuffer::MapOutputBuffer(const ShuffleOptions& options,
                                 CombineRunner* combine,
                                 ShuffleCounters* counters,
                                 store::MemoryBudget* budget)
    : spill_threshold_(options.spill_threshold_bytes),
      inline_combine_threshold_(options.inline_combine_threshold),
      budget_chunk_(options.spill_page_bytes),
      combine_(combine),
      counters_(counters),
      reservation_(budget) {}

void MapOutputBuffer::append(std::string_view key, std::string_view value) {
  // Budgeted growth is charged in whole chunks so the budget lock is
  // taken once per spill_page_bytes of data, not once per pair. A refused
  // chunk latches the pressure flag; the bytes already buffered stay
  // covered by earlier grants and drain out through the next spill.
  if (reservation_.budgeted() && !pressure_spill_) {
    const std::size_t used = bytes_used() + key.size() + value.size();
    if (used > reservation_.bytes()) {
      const std::size_t deficit = used - reservation_.bytes();
      if (!reservation_.try_grow(std::max(budget_chunk_, deficit))) {
        pressure_spill_ = true;
      }
    }
  }
  // The append bumps two arenas and touches one contiguous control-byte
  // run — no node allocation, no key copy beyond the one-time interning,
  // no small-string churn.
  const std::size_t count = table_.append(key, value);
  if (inline_combine_threshold_ > 0 && combine_ != nullptr &&
      combine_->enabled() && count >= inline_combine_threshold_) {
    combine_->combine_entry(table_, table_.last_index(), key);
  }
}

void MapOutputBuffer::combine() {
  if (empty() || combine_ == nullptr) return;
  note_peak();
  try {
    combine_->combine_table(table_);
  } catch (...) {
    clear();
    throw;
  }
}

void MapOutputBuffer::clear() {
  release_budget();
  if (!table_.empty()) table_.recycle();
}

}  // namespace mpid::shuffle
