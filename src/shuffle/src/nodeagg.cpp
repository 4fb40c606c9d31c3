#include "mpid/shuffle/nodeagg.hpp"

#include <chrono>
#include <utility>

#include "mpid/common/kvframe.hpp"

namespace mpid::shuffle {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

NodeAggregator::NodeAggregator(const ShuffleOptions& options, Setup setup)
    : options_(options),
      counters_(setup.counters),
      compressor_(setup.compressor),
      sink_(std::move(setup.sink)),
      buffer_(options_, setup.combine, setup.counters, setup.budget),
      // The inner encoder ships raw frames to a shim sink: the merged
      // bytes are counted as post-aggregation volume first, and only
      // then codec-framed — so compression never masks (or inflates)
      // the structural cut the pre/post counters measure.
      encoder_(options_,
               SpillEncoder::Setup{
                   .layout = setup.out_layout,
                   .partitions = setup.partitions,
                   .frame_flush_bytes = setup.frame_flush_bytes,
                   .partitioner = std::move(setup.partitioner),
                   .compressor = nullptr,
                   .pool = setup.pool,
                   .counters = setup.counters,
                   .sink =
                       [this](std::uint32_t partition,
                              std::vector<std::byte> frame, bool) {
                         counters_->bytes_post_node_agg += frame.size();
                         bool codec_framed = false;
                         if (compressor_ != nullptr && compressor_->enabled()) {
                           frame = compressor_->encode(std::move(frame),
                                                       codec_framed);
                         }
                         sink_(partition, std::move(frame), codec_framed);
                       },
               }) {}

void NodeAggregator::add_frame(std::span<const std::byte> frame,
                               Layout in_layout) {
  const std::uint64_t start = now_ns();
  counters_->bytes_pre_node_agg += frame.size();
  if (in_layout == Layout::kKvList) {
    common::KvListReader reader(frame);
    while (auto group = reader.next()) {
      for (const auto value : group->values) {
        buffer_.append(group->key, value);
        if (buffer_.should_spill()) encoder_.spill(buffer_);
      }
    }
  } else {
    common::KvReader reader(frame);
    while (auto pair = reader.next()) {
      buffer_.append(pair->key, pair->value);
      if (buffer_.should_spill()) encoder_.spill(buffer_);
    }
  }
  counters_->node_agg_merge_ns += now_ns() - start;
}

void NodeAggregator::finish() {
  const std::uint64_t start = now_ns();
  encoder_.spill(buffer_);
  encoder_.flush_all();
  counters_->node_agg_merge_ns += now_ns() - start;
}

void NodeAggregator::reset() {
  buffer_.clear();
  encoder_.reset();
}

}  // namespace mpid::shuffle
