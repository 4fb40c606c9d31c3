#include "mpid/shuffle/engine.hpp"

#include <algorithm>
#include <chrono>
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

SpillEncoder::SpillEncoder(const ShuffleOptions& options, Setup setup)
    : options_(options),
      layout_(setup.layout),
      flush_bytes_(setup.frame_flush_bytes == 0 ? options.partition_frame_bytes
                                                : setup.frame_flush_bytes),
      partitioner_(std::move(setup.partitioner)),
      compressor_(setup.compressor),
      pool_(setup.pool),
      counters_(setup.counters),
      sink_(std::move(setup.sink)),
      writers_(setup.partitions),
      capacity_hint_(flush_bytes_ == kUnboundedFrame
                         ? 0
                         : flush_bytes_ + kFrameTailRoom) {}

void SpillEncoder::spill(MapOutputBuffer& buffer) {
  if (buffer.empty()) return;
  const std::uint64_t start = now_ns();
  try {
    // The combine runs first, so the reservation below sizes the combined
    // entries.
    buffer.combine();
    if (flush_bytes_ != kUnboundedFrame) {
      // Reserve every frame at the flush threshold plus the buffer's exact
      // worst-case single-entry overshoot and the transport's tail room:
      // no append can reallocate a frame, and pool acquisitions reuse the
      // same bound.
      capacity_hint_ =
          flush_bytes_ + buffer.max_entry_frame_bytes() + kFrameTailRoom;
      for (auto& w : writers_) {
        if (layout_ == Layout::kKvList) {
          w.list.reserve(capacity_hint_);
        } else {
          w.pair.reserve(capacity_hint_);
        }
      }
    }
    buffer.drain(options_.sort_keys, [this](const MapOutputBuffer::Entry& e) {
      append_entry(e);
    });
  } catch (...) {
    counters_->spill_ns += now_ns() - start;
    throw;
  }
  if (options_.sort_keys) {
    // Keep every shipped frame a single sorted run (Hadoop's per-spill
    // sorted files): a frame must not span two spill rounds, or the
    // consumer-side SegmentMerger would see a second ascending run.
    flush_all();
  }
  counters_->spill_ns += now_ns() - start;
}

void SpillEncoder::append_entry(const MapOutputBuffer::Entry& entry) {
  const std::uint32_t p = partitioner_.of_hashed(entry.key, entry.key_hash);
  auto& w = writers_[p];
  auto cursor = entry.values;
  if (options_.sort_values && entry.value_count > 1) {
    // "It can also sort the value list for each key on demand." Sorting
    // needs materialized std::strings; the scratch vector is reused
    // across entries, and a one-element list is already sorted.
    scratch_.clear();
    while (auto v = cursor.next()) scratch_.emplace_back(*v);
    std::sort(scratch_.begin(), scratch_.end());
    if (layout_ == Layout::kKvList) {
      w.list.begin_group(entry.key, scratch_.size());
      for (const auto& v : scratch_) w.list.add_value(v);
    } else {
      for (const auto& v : scratch_) w.pair.append(entry.key, v);
    }
  } else if (layout_ == Layout::kKvList) {
    // On the kKvList layout the slab chain already holds the frame's wire
    // format, so the spill block-copies it straight into the partition
    // frame — each byte moves exactly once, with no per-value re-encode.
    w.list.begin_group(entry.key, entry.value_count);
    cursor.drain_to(w.list);
  } else {
    while (auto v = cursor.next()) w.pair.append(entry.key, *v);
  }
  counters_->pairs_after_combine += entry.value_count;
  maybe_flush(p);
}

void SpillEncoder::maybe_flush(std::uint32_t partition) {
  // "When the data partition is full, it will trigger ... sending."
  if (flush_bytes_ == kUnboundedFrame) return;
  if (byte_size(partition) >= flush_bytes_) flush(partition);
}

void SpillEncoder::flush(std::uint32_t partition) {
  if (!pending(partition)) return;
  auto& w = writers_[partition];
  std::vector<std::byte> frame =
      layout_ == Layout::kKvList ? w.list.take() : w.pair.take();
  if (pool_ != nullptr && flush_bytes_ != kUnboundedFrame) {
    // Re-arm the writer from the pool before the frame leaves: the next
    // pair can be serialized while this frame is still in flight.
    if (layout_ == Layout::kKvList) {
      w.list.reset(pool_->acquire(capacity_hint_));
    } else {
      w.pair.reset(pool_->acquire(capacity_hint_));
    }
  }
  bool codec_framed = false;
  if (compressor_ != nullptr && compressor_->enabled()) {
    frame = compressor_->encode(std::move(frame), codec_framed);
  }
  sink_(partition, std::move(frame), codec_framed);
}

void SpillEncoder::flush_all() {
  for (std::uint32_t p = 0; p < writers_.size(); ++p) flush(p);
}

void SpillEncoder::reset() {
  for (auto& w : writers_) {
    w.list.clear();
    w.pair.clear();
  }
}

}  // namespace mpid::shuffle
